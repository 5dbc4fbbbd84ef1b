"""The on-disk layout of one run directory.

A run directory is the durable record of one experiment:

```
<run-dir>/
    spec.json                 the ExperimentSpec that produced the run
    metrics.jsonl             append-only, one GenerationMetrics per line
    checkpoints/
        gen-00005.json        full evolution state at a generation boundary
        gen-00010.json        (population + species + innovation counters
        ...                    + RNG state; repro.neat.serialize format)
    champion.json             best genome so far (repro run --save format)
    result.json               final RunResult.summary() — present only
                              when the run finished cleanly
    telemetry.jsonl           out-of-band span/counter telemetry — present
                              only when the run was traced (repro.obs);
                              never part of the byte-identity contract
```

:class:`RunDir` is the one place that knows this layout; everything else
(:mod:`repro.runs.runner`, :mod:`repro.runs.report`, the CLI, the DSE
sweep engine) goes through it, and it writes through
:mod:`repro.obs.jsonl`, so an interrupted run never leaves a torn
spec/checkpoint/champion.  ``metrics.jsonl`` is append-only; its reader
is strict (a torn final line is dropped, any other bad line raises) and
resume rewinds it before appending again.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..api.spec import ExperimentSpec
from ..neat.config import NEATConfig
from ..obs.jsonl import append_jsonl, read_json, write_atomic, write_json
from ..obs.tracer import TELEMETRY_FILENAME
from ..neat.genome import Genome
from ..neat.serialize import (
    DeserializationError,
    load_population_state,
    save_genome,
)

SPEC_FILENAME = "spec.json"
METRICS_FILENAME = "metrics.jsonl"
CHAMPION_FILENAME = "champion.json"
RESULT_FILENAME = "result.json"
RUNMETA_FILENAME = "run.json"
CHECKPOINT_DIRNAME = "checkpoints"

#: Version tag of the run-directory layout itself (``run.json``).
RUN_FORMAT_VERSION = 1

_CHECKPOINT_RE = re.compile(r"^gen-(\d+)\.json$")


class RunError(RuntimeError):
    """Raised for malformed, missing or conflicting run artifacts."""


class RunDir:
    """Accessor for one run directory (see module docstring for layout)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def __repr__(self) -> str:
        return f"RunDir({str(self.path)!r})"

    # -- paths ------------------------------------------------------------

    @property
    def spec_path(self) -> Path:
        return self.path / SPEC_FILENAME

    @property
    def metrics_path(self) -> Path:
        return self.path / METRICS_FILENAME

    @property
    def champion_path(self) -> Path:
        return self.path / CHAMPION_FILENAME

    @property
    def result_path(self) -> Path:
        return self.path / RESULT_FILENAME

    @property
    def checkpoints_path(self) -> Path:
        return self.path / CHECKPOINT_DIRNAME

    @property
    def telemetry_path(self) -> Path:
        return self.path / TELEMETRY_FILENAME

    def checkpoint_path(self, generation: int) -> Path:
        return self.checkpoints_path / f"gen-{generation:05d}.json"

    # -- lifecycle --------------------------------------------------------

    def create(self) -> "RunDir":
        self.path.mkdir(parents=True, exist_ok=True)
        self.checkpoints_path.mkdir(exist_ok=True)
        return self

    def has_artifacts(self) -> bool:
        """Does this directory already hold a run (a spec at minimum)?"""
        return self.spec_path.exists()

    @property
    def is_complete(self) -> bool:
        """Did the run finish cleanly (``result.json`` written)?"""
        return self.result_path.exists()

    # -- spec -------------------------------------------------------------

    def write_spec(self, spec: ExperimentSpec) -> None:
        spec.save(self.spec_path)

    def load_spec(self) -> ExperimentSpec:
        if not self.spec_path.exists():
            raise RunError(f"{self.path} is not a run directory (no spec.json)")
        return ExperimentSpec.load(self.spec_path)

    # -- run metadata -----------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.path / RUNMETA_FILENAME

    def write_meta(self, **fields: Any) -> None:
        """Persist run-level settings (checkpoint cadence, layout
        version) so a resume replays them without the caller having to
        remember what the original invocation used."""
        write_json(self.meta_path, {"format": RUN_FORMAT_VERSION, **fields})

    def load_meta(self) -> Dict[str, Any]:
        if not self.meta_path.exists():
            return {}
        return read_json(self.meta_path, RunError)

    # -- metrics ----------------------------------------------------------

    def append_metrics(self, row: Dict[str, Any]) -> None:
        """Append one generation's metrics (flushed immediately, so the
        file is current up to the moment of an interruption)."""
        append_jsonl(self.metrics_path, row)

    def read_metrics(self) -> List[Dict[str, Any]]:
        """All persisted metrics rows, in generation order.

        A torn final line (interrupted mid-append) is dropped silently;
        a malformed line anywhere else is corruption and raises.
        """
        if not self.metrics_path.exists():
            return []
        rows: List[Dict[str, Any]] = []
        lines = self.metrics_path.read_text().splitlines()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    break
                raise RunError(
                    f"corrupt metrics line {index + 1} in {self.metrics_path}"
                ) from None
        return rows

    def truncate_metrics(self, before_generation: int) -> List[Dict[str, Any]]:
        """Rewind ``metrics.jsonl`` to generations ``< before_generation``.

        Resume uses this to drop rows past the checkpoint it restarts
        from; the re-run generations then re-append identical rows.
        Returns the retained rows.
        """
        rows = [
            row for row in self.read_metrics()
            if row.get("generation", 0) < before_generation
        ]
        text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        write_atomic(self.metrics_path, text)
        return rows

    # -- checkpoints ------------------------------------------------------

    def write_checkpoint(self, state: Dict[str, Any]) -> Path:
        path = self.checkpoint_path(int(state["generation"]))
        self.checkpoints_path.mkdir(parents=True, exist_ok=True)
        write_atomic(path, json.dumps(state, sort_keys=True))
        return path

    def checkpoints(self) -> List[Tuple[int, Path]]:
        """``(generation, path)`` for every checkpoint, oldest first."""
        if not self.checkpoints_path.is_dir():
            return []
        found = []
        for entry in self.checkpoints_path.iterdir():
            match = _CHECKPOINT_RE.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
        return sorted(found)

    def latest_checkpoint(self) -> Optional[Tuple[int, Path]]:
        checkpoints = self.checkpoints()
        return checkpoints[-1] if checkpoints else None

    def load_checkpoint(
        self, generation: Optional[int] = None
    ) -> Dict[str, Any]:
        """The checkpoint payload for ``generation`` (default: latest)."""
        if generation is None:
            latest = self.latest_checkpoint()
            if latest is None:
                raise RunError(f"{self.path} holds no checkpoints")
            _, path = latest
        else:
            path = self.checkpoint_path(generation)
            if not path.exists():
                raise RunError(f"no checkpoint for generation {generation}")
        try:
            return load_population_state(path)
        except DeserializationError as exc:
            raise RunError(f"{path}: {exc}") from exc

    # -- champion ---------------------------------------------------------

    def write_champion(self, genome: Genome, config: NEATConfig) -> None:
        """Persist the champion in the ``repro run --save`` file format
        (loadable by :func:`repro.neat.serialize.load_genome_with_config`
        and the ``repro infer`` command)."""
        save_genome(genome, self.champion_path, config)

    # -- result summary ---------------------------------------------------

    def write_result(self, summary: Dict[str, Any]) -> None:
        write_json(self.result_path, summary)

    def load_result(self) -> Optional[Dict[str, Any]]:
        if not self.result_path.exists():
            return None
        return read_json(self.result_path, RunError)
