"""The disabled-tracer overhead gate for :mod:`repro.obs`.

Instrumentation earns its keep only if it costs nothing when off: with
no tracer installed every ``obs.span(...)`` is one module-global read
and the shared null-span context — and this bench holds that to the
<= 2% gate on a paper-scale generation (150 CartPole genomes,
Section III-D3) across the serial, pooled (``workers=2``) and
vectorized evaluation paths.

Three modes per path:

* **baseline** — the instrumentation monkey-patched to bare stubs, the
  closest measurable stand-in for uninstrumented code (the call sites
  themselves cannot be removed without editing the modules);
* **disabled** — the real dispatch with no tracer installed (what every
  untraced run pays); the gate is ``disabled <= baseline * 1.02 + eps``
  with a small absolute epsilon so sub-millisecond timer noise cannot
  fail a run that is fast in absolute terms;
* **enabled** — a real tracer appending to a scratch file, reported for
  context (generation-granularity spans make this cheap, but it is not
  gated: enabled tracing is opt-in).

Measurements land in a JSON artifact (``BENCH_OBS_OVERHEAD_JSON``
overrides the path) for CI upload, like ``bench_soc_vectorized.py``.
"""

import json
import os
import time

from repro import obs
from repro.api.parallel import ParallelFitnessEvaluator
from repro.core.runner import config_for_env
from repro.envs.evaluate import FitnessEvaluator
from repro.neat.population import Population

ENV_ID = "CartPole-v0"
POP_SIZE = 150  # the paper's population (Section III-D3)
MAX_STEPS = 60
REPEATS = 3
OVERHEAD_GATE = 1.02  # disabled tracing within 2% of the stub baseline
EPSILON_S = 0.025

ARTIFACT_ENV_VAR = "BENCH_OBS_OVERHEAD_JSON"
DEFAULT_ARTIFACT = "bench_obs_overhead.json"


class _StubSpan:
    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False

    def set(self, **_attrs):
        return self


_STUB_SPAN = _StubSpan()


def _stub_span(_name, **_attrs):
    return _STUB_SPAN


def _stub_incr(_name, _value=1, **_attrs):
    return None


def _evaluators():
    """(label, factory) for each evaluation path, constructor-fresh so
    every mode sees identical generation/seed sequences."""
    return [
        ("serial", lambda: FitnessEvaluator(
            ENV_ID, max_steps=MAX_STEPS, seed=0)),
        ("workers2", lambda: ParallelFitnessEvaluator(
            ENV_ID, max_steps=MAX_STEPS, seed=0, workers=2)),
        ("vectorized", lambda: FitnessEvaluator(
            ENV_ID, max_steps=MAX_STEPS, seed=0, vectorizer="numpy")),
    ]


def _time_generation(evaluator, genomes, config):
    """Best-of-REPEATS wall time for one generation evaluation.

    The evaluator's generation counter is pinned back to zero before
    every repetition so each one rolls out the exact same episodes —
    repeats measure the machine, not seed-dependent episode lengths.
    """
    best = float("inf")
    evaluator(genomes, config)  # warmup: pools, env caches
    for _ in range(REPEATS):
        evaluator._generation = 0
        start = time.perf_counter()
        evaluator(genomes, config)
        best = min(best, time.perf_counter() - start)
    return best


def _measure(mode, factory, genomes, config, tmp_path):
    """One (mode, path) cell: seconds for a 150-genome generation."""
    evaluator = factory()
    try:
        if mode == "baseline":
            saved = (obs.span, obs.incr)
            obs.span, obs.incr = _stub_span, _stub_incr
            try:
                return _time_generation(evaluator, genomes, config)
            finally:
                obs.span, obs.incr = saved
        if mode == "enabled":
            with obs.tracing(tmp_path / f"telemetry-{id(evaluator)}.jsonl"):
                return _time_generation(evaluator, genomes, config)
        assert obs.current() is None  # "disabled" must really be off
        return _time_generation(evaluator, genomes, config)
    finally:
        if hasattr(evaluator, "close"):
            evaluator.close()


def test_disabled_tracer_overhead_within_gate(emit, tmp_path):
    config = config_for_env(ENV_ID, pop_size=POP_SIZE)
    genomes = list(Population(config, seed=0).population.values())

    results = {}
    for path_label, factory in _evaluators():
        cell = {
            mode: _measure(mode, factory, genomes, config, tmp_path)
            for mode in ("baseline", "disabled", "enabled")
        }
        cell["overhead"] = cell["disabled"] / cell["baseline"]
        results[path_label] = cell

    lines = [
        f"Tracer overhead: {POP_SIZE}-genome {ENV_ID} generation "
        f"(best of {REPEATS}; gate: disabled <= baseline * "
        f"{OVERHEAD_GATE} + {EPSILON_S}s)"
    ]
    for path_label, cell in results.items():
        lines.append(
            f"  {path_label:<10} baseline {cell['baseline'] * 1e3:8.1f} ms"
            f"  disabled {cell['disabled'] * 1e3:8.1f} ms"
            f"  enabled {cell['enabled'] * 1e3:8.1f} ms"
            f"  overhead {100 * (cell['overhead'] - 1):+6.2f}%"
        )
    emit("\n".join(lines))

    artifact = {
        "env_id": ENV_ID,
        "pop_size": POP_SIZE,
        "max_steps": MAX_STEPS,
        "repeats": REPEATS,
        "overhead_gate": OVERHEAD_GATE,
        "epsilon_seconds": EPSILON_S,
        "paths": results,
    }
    path = os.environ.get(ARTIFACT_ENV_VAR, DEFAULT_ARTIFACT)
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for path_label, cell in results.items():
        limit = cell["baseline"] * OVERHEAD_GATE + EPSILON_S
        assert cell["disabled"] <= limit, (
            f"{path_label}: disabled tracing took {cell['disabled']:.4f}s "
            f"vs baseline {cell['baseline']:.4f}s "
            f"(limit {limit:.4f}s) — the no-op fast path has regressed"
        )
