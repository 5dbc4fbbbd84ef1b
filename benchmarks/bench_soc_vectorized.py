"""Population-vectorised SoC evaluation vs the serial walkthrough.

The cycle-level SoC used to cost one generation by walking every genome
through ADAM one env step at a time; that walkthrough is now the test
oracle ``neat_reference.SerialSoC`` in ``tests/``.  The soc compiles the
population into lockstep numpy lanes and charges the ADAM counters
through one :class:`repro.hw.adam.StackedAdamEnvelope` (per-pass costs
are static per plan, so cost = per-pass x steps in exact integer
arithmetic).

Gate, mirroring ``bench_batched_inference.py``: one 150-genome CartPole
generation — the paper's population size — must evaluate >= 5x faster
on the lanes than on the oracle *and* produce bit-identical fitnesses,
ADAM counters and SRAM traffic.  The two sides are timed in alternation
(serial, lanes, serial, lanes, ...), best of ``REPEATS`` each, so that a
slow phase of the host hits both.  The measurements are also written as
a JSON artifact (path overridable via ``BENCH_SOC_VECTORIZED_JSON``) for
CI upload.
"""

import json
import os
import sys
import time
from dataclasses import astuple
from pathlib import Path

from repro.core.config import GeneSysConfig
from repro.core.runner import config_for_env
from repro.core.soc import GeneSysSoC
from repro.hw.eve import EvEConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from neat_reference import SerialSoC  # noqa: E402  (the oracle lives in tests/)

ENV_ID = "CartPole-v0"
POP_SIZE = 150  # the paper's population (Section III-D3)
WARMUP_GENERATIONS = 3
EPISODES = 2
MAX_STEPS = 80
REPEATS = 3
REQUIRED_SPEEDUP = 5.0

ARTIFACT_ENV_VAR = "BENCH_SOC_VECTORIZED_JSON"
DEFAULT_ARTIFACT = "bench_soc_vectorized.json"


def evolved_soc():
    """A 150-genome SoC a few generations in, so the timed population
    carries evolved hidden structure rather than the trivial initial
    topology."""
    neat = config_for_env(ENV_ID, pop_size=POP_SIZE)
    config = GeneSysConfig(neat=neat, eve=EvEConfig(num_pes=32), seed=0)
    soc = SerialSoC(
        config, ENV_ID, episodes=EPISODES, max_steps=MAX_STEPS
    )
    for _ in range(WARMUP_GENERATIONS):
        soc.run_generation()
    return soc


def _timed_evaluation(soc, evaluate_population):
    """(fitnesses, inference stats, sram stats, seconds) for one
    generation evaluation.

    ``evaluate_population`` never advances the generation counter, so the
    derived episode seeds — and therefore the rollouts — are identical
    on every repetition and on both sides.
    """
    soc.adam.reset_stats()
    soc.buffer.reset_stats()
    start = time.perf_counter()
    evaluate_population(soc)
    elapsed = time.perf_counter() - start
    return (
        {k: g.fitness for k, g in soc.population.items()},
        astuple(soc.adam.reset_stats()),
        astuple(soc.buffer.reset_stats()),
        elapsed,
    )


def test_vectorized_generation_speedup(emit):
    soc = evolved_soc()

    serial_t = vec_t = float("inf")
    for _ in range(REPEATS):
        *serial, elapsed = _timed_evaluation(soc, SerialSoC.evaluate_population)
        serial_t = min(serial_t, elapsed)
        *vectorized, elapsed = _timed_evaluation(soc, GeneSysSoC.evaluate_population)
        vec_t = min(vec_t, elapsed)
    serial_fit, serial_adam, serial_sram = serial
    vec_fit, vec_adam, vec_sram = vectorized
    speedup = serial_t / vec_t

    emit(
        f"Vectorized SoC evaluation: {POP_SIZE}-genome {ENV_ID} "
        f"generation ({EPISODES} episodes/genome, after "
        f"{WARMUP_GENERATIONS} generations of evolution)\n"
        f"  serial     {serial_t * 1e3:8.1f} ms\n"
        f"  vectorized {vec_t * 1e3:8.1f} ms\n"
        f"  speedup    {speedup:8.1f} x (required >= {REQUIRED_SPEEDUP})"
    )

    artifact = {
        "env_id": ENV_ID,
        "pop_size": POP_SIZE,
        "episodes": EPISODES,
        "max_steps": MAX_STEPS,
        "warmup_generations": WARMUP_GENERATIONS,
        "repeats": REPEATS,
        "serial_seconds": serial_t,
        "vectorized_seconds": vec_t,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "bit_identical": serial_fit == vec_fit
        and serial_adam == vec_adam
        and serial_sram == vec_sram,
    }
    path = os.environ.get(ARTIFACT_ENV_VAR, DEFAULT_ARTIFACT)
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert vec_fit == serial_fit, "vectorized fitnesses diverged from serial"
    assert vec_adam == serial_adam, "ADAM counters diverged from serial"
    assert vec_sram == serial_sram, "SRAM traffic diverged from serial"
    assert speedup >= REQUIRED_SPEEDUP, (
        f"vectorized SoC evaluation only {speedup:.1f}x faster "
        f"(need >= {REQUIRED_SPEEDUP}x)"
    )
