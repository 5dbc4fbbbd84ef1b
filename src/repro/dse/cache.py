"""Content-hash memoisation of sweep points on disk.

Every sweep point is keyed by the SHA-256 of a canonical JSON payload
(sorted keys, fixed separators: :func:`repro.obs.jsonl.content_key`), so
the key is invariant to spec field ordering and stable across processes
and machines — no pickling, no ``PYTHONHASHSEED`` sensitivity.  Records
live one-per-file under a two-level fanout
(``<root>/<key[:2]>/<key>.json``), each replaced whole by
:func:`repro.obs.jsonl.write_atomic`, so concurrent sweeps sharing one
cache directory never observe torn records.

The default executor's metrics are a pure function of the *effective*
:class:`repro.api.ExperimentSpec`, so its keys hash the spec alone —
points that resolve to the same experiment (e.g. a hardware axis on a
non-``soc`` backend) collapse to one evaluation.  Custom evaluators see
the whole point, so their keys also hash the raw axis values.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from ..api.spec import ExperimentSpec
from ..obs.jsonl import content_key, read_json, write_atomic
from .spec import SweepPoint, SweepSpec

#: Bump when the record layout or key payload changes shape.
CACHE_FORMAT = 1

#: The built-in experiment executor's identity in cache keys.  Bump when
#: its metric semantics change.
EXPERIMENT_EVALUATOR = "experiment-v2"


def spec_key(
    spec: Union[ExperimentSpec, Mapping[str, Any]],
    evaluator: str = EXPERIMENT_EVALUATOR,
) -> str:
    """Content hash of an experiment spec (field-order invariant)."""
    data = spec.to_dict() if isinstance(spec, ExperimentSpec) else dict(spec)
    return content_key(
        {"format": CACHE_FORMAT, "evaluator": evaluator, "spec": data}
    )


def point_key(
    point: SweepPoint,
    evaluator: str = EXPERIMENT_EVALUATOR,
    include_axes: bool = False,
) -> str:
    """Content hash identifying one sweep point's evaluation."""
    if not include_axes:
        return spec_key(point.spec, evaluator)
    return content_key({
        "format": CACHE_FORMAT,
        "evaluator": evaluator,
        "spec": point.spec.to_dict(),
        "axes": dict(point.axes),
    })


def sweep_key(sweep: "SweepSpec", evaluator: str = EXPERIMENT_EVALUATOR) -> str:
    """Content hash identifying one whole sweep (spec + evaluator).

    The distributed executor keys its work directory (claims + event
    ledger) on this, so workers handed the same sweep file land in the
    same queue and sweeps never share claim state by accident.
    """
    return content_key({
        "format": CACHE_FORMAT,
        "evaluator": evaluator,
        "sweep": sweep.to_dict(),
    })


def default_cache_dir() -> Path:
    """``$REPRO_DSE_CACHE``, else ``$XDG_CACHE_HOME/repro-dse``, else
    ``~/.cache/repro-dse``."""
    override = os.environ.get("REPRO_DSE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-dse"


class SweepCache:
    """A directory of memoised point records, addressed by content hash."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record, or ``None`` on a miss (corrupt files count
        as misses and will simply be rewritten)."""
        try:
            record = read_json(self.path_for(key), ValueError)
        except ValueError:
            return None
        return record if record.get("format") == CACHE_FORMAT else None

    def put(self, key: str, metrics: Mapping[str, Any],
            point: Optional[SweepPoint] = None) -> Dict[str, Any]:
        """Atomically persist one evaluated point; returns the record."""
        record: Dict[str, Any] = {
            "format": CACHE_FORMAT,
            "key": key,
            "metrics": dict(metrics),
        }
        if point is not None:
            record["spec"] = point.spec.to_dict()
            record["axes"] = dict(point.axes)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, json.dumps(record, sort_keys=True))
        return record

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
