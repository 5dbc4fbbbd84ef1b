"""Self-time tracer for the benchmark's traced run.

The tracer wraps the public functions of each layer from outside the
package: nothing under ``src/`` knows it exists.  Every wrapped call
opens a span on the tracer's own stack; wall time always accrues to the
innermost open span, so a layer's ``self_s`` is its duration minus the
time its wrapped children cover.  Time is bucketed by *phase*
(``setup`` / ``timed`` / ``teardown``), switched by the benchmark at
generation boundaries, so per-generation figures cover exactly the timed
window of the untraced measurement.

A function is patched at every name it is bound to in a loaded ``repro``
module, because callers look functions up in different places:
``repro.core.soc`` imports ``decode_genome`` and
``build_inference_plan`` by name at import time, while
``compile_network`` is found on its defining module at call time.
Methods are patched on the class that defines them.

Pool workers fork after the wrappers are installed and so inherit them.
In a worker the tracer restarts with an empty stack and, each time a
worker-side root span (``api.parallel.task``, one genome) closes,
appends one JSON line
with the task's start, end and per-layer self-time to
``worker-<pid>.jsonl`` in the tracer's scratch directory.  The parent
merges those files by timestamp; ``time.perf_counter`` reads the
system-wide monotonic clock on Linux, so parent and worker times compare
directly.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

#: Spans the benchmark's own hooks run in; excluded from every layer and
#: from ``unattributed_s`` (their cost shows in ``trace.overhead_frac``).
HOOK = "trace.hook"

#: (span name, module, attribute) for every timed layer.  A dotted
#: attribute names a method on the class that defines it.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("api.loop", "repro.api.backends", "_run_software_loop"),
    ("api.loop", "repro.api.backends", "SoCBackend.run"),
    ("neat.population.run_generation", "repro.neat.population",
     "Population.run_generation"),
    ("neat.species.speciate", "repro.neat.species", "SpeciesSet.speciate"),
    ("neat.reproduction.reproduce", "repro.neat.reproduction",
     "Reproduction.reproduce"),
    ("neat.compiled.compile_network", "repro.neat.compiled", "compile_network"),
    ("neat.compiled.stack", "repro.neat.compiled", "StackedPlans.__init__"),
    ("neat.compiled.stack", "repro.neat.compiled", "StackedPlans.lane_runner"),
    ("neat.compiled.policy_step", "repro.neat.compiled", "LaneRunner.step"),
    ("envs.evaluate.rollout", "repro.envs.evaluate", "run_episodes_batched"),
    ("envs.batched.start", "repro.envs.batched", "_StateMatrixEnv.start"),
    ("envs.batched.step", "repro.envs.batched", "_StateMatrixEnv.step"),
    ("api.parallel.map", "repro.api.parallel",
     "ParallelFitnessEvaluator.__call__"),
    ("api.parallel.pool_start", "repro.api.parallel",
     "ParallelFitnessEvaluator._ensure_pool"),
    ("api.parallel.wait", "multiprocessing.pool", "Pool.map"),
    ("api.parallel.task", "repro.api.parallel", "_evaluate_genome"),
    ("neat.network.activate", "repro.neat.network",
     "FeedForwardNetwork.activate"),
    ("envs.evaluate.run_episode", "repro.envs.evaluate", "run_episode"),
    ("envs.step", "repro.envs.base", "Environment.step"),
    ("neat.serialize.to_state", "repro.neat.serialize", "population_to_state"),
    ("runs.checkpoint", "repro.runs.runner", "RunWriter.checkpoint"),
    ("runs.append_metrics", "repro.runs.artifacts", "RunDir.append_metrics"),
    ("core.soc.run_generation", "repro.core.soc", "GeneSysSoC.run_generation"),
    ("core.soc.evaluate_population", "repro.core.soc",
     "GeneSysSoC.evaluate_population"),
    ("core.soc.evolve_population", "repro.core.soc",
     "GeneSysSoC.evolve_population"),
    ("hw.gene_encoding.decode_genome", "repro.hw.gene_encoding",
     "decode_genome"),
    ("hw.adam.build_inference_plan", "repro.hw.adam", "build_inference_plan"),
    ("hw.adam.envelope_charge", "repro.hw.adam", "StackedAdamEnvelope.__init__"),
    ("hw.adam.envelope_charge", "repro.hw.adam", "StackedAdamEnvelope.charge"),
    ("hw.selector.select", "repro.hw.selector", "GeneSelector.select"),
    ("hw.eve.reproduce_generation", "repro.hw.eve",
     "EvolutionEngine.reproduce_generation"),
    ("hw.pe.process_pair", "repro.hw.pe", "ProcessingElement.process_pair"),
)

#: Layers whose calls are counted but not timed: ``Genome.distance`` runs
#: tens of thousands of times per generation, and timing it would mostly
#: measure the wrapper.  Its time stays in ``neat.species.speciate``.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("neat.genome.distance", "repro.neat.genome", "Genome.distance"),
)

_ACTIVE: Optional["Tracer"] = None
_FORK_HOOK_REGISTERED = False


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._become_worker()


def genome_content_key(genome) -> int:
    """Hash of everything :func:`compile_network` reads from a genome."""
    nodes = tuple(sorted(
        (key, node.bias, node.response, node.activation, node.aggregation)
        for key, node in genome.nodes.items()
    ))
    links = tuple(sorted(
        (key, conn.weight)
        for key, conn in genome.connections.items()
        if conn.enabled
    ))
    return hash((nodes, links))


class Tracer:
    """Span stack plus per-(phase, name) self-time, calls and counters."""

    def __init__(self, scratch_dir: Path) -> None:
        self.scratch_dir = Path(scratch_dir)
        self.phase = "setup"
        self.stack: List[str] = []
        self.last = perf()
        self.self_s: Dict[Tuple[str, Optional[str]], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self._compiled_keys: set = set()
        self._patches: List[Tuple[object, str, object]] = []
        self._worker_fd: Optional[int] = None
        self._task_start = 0.0

    # -- span bookkeeping -------------------------------------------------

    def enter(self, name: str) -> None:
        now = perf()
        top = self.stack[-1] if self.stack else None
        self.self_s[(self.phase, top)] += now - self.last
        if self._worker_fd is not None and not self.stack:
            self._task_start = now
        self.stack.append(name)
        self.calls[(self.phase, name)] += 1
        self.last = now

    def exit(self) -> None:
        now = perf()
        self.self_s[(self.phase, self.stack.pop())] += now - self.last
        self.last = now
        if self._worker_fd is not None and not self.stack:
            self._flush_task(now)

    def set_phase(self, phase: str) -> None:
        """Switch the bucket wall time accrues to, at a generation boundary."""
        now = perf()
        top = self.stack[-1] if self.stack else None
        self.self_s[(self.phase, top)] += now - self.last
        self.last = now
        self.phase = phase

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[(self.phase, name)] += amount

    def begin_run(self) -> None:
        """Reset per-evolution-run state before a fresh run starts."""
        self._compiled_keys.clear()
        self.set_phase("setup")

    # -- patching ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable,
                      before: Optional[Callable] = None,
                      after: Optional[Callable] = None) -> Callable:
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                enter(HOOK)
                try:
                    before(*args, **kwargs)
                finally:
                    exit_()
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                enter(HOOK)
                try:
                    after(result)
                finally:
                    exit_()
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[(self.phase, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name: str, attr: str, make: Callable) -> None:
        module = importlib.import_module(module_name)
        if "." in attr:
            owner_name, method = attr.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            setattr(owner, method, make(original))
            self._patches.append((owner, method, original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, binding, wrapper)
                    self._patches.append((loaded, binding, original))

    def _before_compile(self, genome, _config) -> None:
        key = genome_content_key(genome)
        if key in self._compiled_keys:
            self.count("neat.compiled.recompiles")
        else:
            self._compiled_keys.add(key)

    def _after_write_checkpoint(self, path) -> None:
        self.count("runs.checkpoint.bytes", Path(path).stat().st_size)

    def install(self) -> None:
        """Wrap every layer; pool workers forked from now on inherit it."""
        global _ACTIVE, _FORK_HOOK_REGISTERED
        for name, module, attr in SPANS:
            # Genome content is hashed before each compile, outside its span.
            extra = (
                {"before": self._before_compile}
                if attr == "compile_network" else {}
            )
            self._patch(
                module, attr,
                lambda fn, name=name, extra=extra: self._span_wrapper(
                    name, fn, **extra
                ),
            )
        for name, module, attr in COUNTED:
            self._patch(
                module, attr, lambda fn, name=name: self._count_wrapper(name, fn)
            )
        # Checkpoint size, read after each write (inside the hook span).
        self._patch(
            "repro.runs.artifacts", "RunDir.write_checkpoint",
            lambda fn: self._span_wrapper(
                "runs.checkpoint", fn, after=self._after_write_checkpoint
            ),
        )
        if not _FORK_HOOK_REGISTERED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK_REGISTERED = True
        _ACTIVE = self
        self.last = perf()

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None

    # -- pool workers -----------------------------------------------------

    def _become_worker(self) -> None:
        self.stack = []
        self.phase = "worker"
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        path = self.scratch_dir / f"worker-{os.getpid()}.jsonl"
        self._worker_fd = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self.last = perf()

    def _flush_task(self, now: float) -> None:
        # One unbuffered line per task: pool workers leave through
        # os._exit, which would drop anything still in a Python buffer.
        record = {
            "t0": self._task_start,
            "t1": now,
            "self": {n: s for (_p, n), s in self.self_s.items() if n},
            "calls": {n: c for (_p, n), c in self.calls.items()},
        }
        os.write(self._worker_fd, (json.dumps(record) + "\n").encode())
        self.self_s.clear()
        self.calls.clear()

    def merge_workers(self, start: float, end: float) -> float:
        """Fold worker task lines that began in ``[start, end)`` into the
        ``worker`` bucket, delete the files, and return the summed task
        (busy) time."""
        busy = 0.0
        for path in sorted(self.scratch_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if not start <= record["t0"] < end:
                    continue
                busy += record["t1"] - record["t0"]
                for name, seconds in record["self"].items():
                    self.self_s[("worker", name)] += seconds
                for name, calls in record["calls"].items():
                    self.calls[("worker", name)] += calls
            path.unlink()
        return busy

    # -- reading ----------------------------------------------------------

    def timed_self(self, name: Optional[str]) -> float:
        return self.self_s.get(("timed", name), 0.0)

    def timed_calls(self, name: str) -> int:
        return self.calls.get(("timed", name), 0)

    def setup_self(self, name: str) -> float:
        return self.self_s.get(("setup", name), 0.0)

    def timed_counter(self, name: str) -> float:
        return self.counters.get(("timed", name), 0.0)
