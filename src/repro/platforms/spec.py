"""The declarative platform specification: one record per substrate.

A :class:`PlatformSpec` describes a platform the way
:class:`repro.api.ExperimentSpec` describes an experiment: a frozen,
JSON-round-trippable record — a ``kind`` (which cost/simulation model
family builds it) plus a typed parameter block.  Four kinds ship,
spanning both modelling fidelities of the paper:

``cpu`` / ``gpu`` / ``genesys``
    The analytical Table III models (Fig. 9/10): parameters are the
    published calibration constants, so a new CPU or GPU variant is pure
    data — no subclassing.
``soc``
    The cycle-level EvE/ADAM GeneSys SoC (Section IV): parameters are
    the hardware design point the DSE sweeps (``eve_pes``, ``noc``,
    ``scheduler``, ``adam_shape``), resolvable into a
    :class:`repro.core.GeneSysConfig`.

Specs canonicalise exactly like experiment specs (``to_dict`` →
``json.dumps(sort_keys=True)``), so :meth:`PlatformSpec.content_key` is
stable across processes and machines and safe to embed in the
:mod:`repro.dse` cache keys.  Validation is shared with the rest of the
stack: NoC spellings go through :func:`repro.hw.noc.canonical_noc_kind`,
schedulers through :data:`repro.hw.allocator.SCHEDULERS`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Type, Union

from ..hw.allocator import SCHEDULERS
from ..hw.energy import FREQUENCY_HZ
from ..hw.noc import NOC_KINDS, canonical_noc_kind


class PlatformSpecError(ValueError):
    """Raised for invalid or inconsistent platform specifications."""


class UnknownPlatformError(KeyError):
    """Raised when a platform name resolves to no registry entry."""


def parse_adam_shape(shape: Union[str, Tuple[int, int]]) -> Tuple[int, int]:
    """``"32x32"`` (or a 2-sequence) -> ``(rows, cols)``, validated."""
    if isinstance(shape, str):
        rows_text, sep, cols_text = shape.lower().partition("x")
        try:
            if not sep:
                raise ValueError
            rows, cols = int(rows_text), int(cols_text)
        except ValueError:
            raise PlatformSpecError(
                f"adam_shape must look like '32x32', got {shape!r}"
            ) from None
    else:
        try:
            rows, cols = (int(v) for v in shape)
        except (TypeError, ValueError):
            raise PlatformSpecError(
                f"adam_shape must be 'RxC' or a (rows, cols) pair, "
                f"got {shape!r}"
            ) from None
    if rows < 1 or cols < 1:
        raise PlatformSpecError(
            f"adam_shape dimensions must be >= 1, got {shape!r}"
        )
    return rows, cols


def _require_positive(name: str, value: Any, kind: type = float) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PlatformSpecError(f"{name} must be a number, got {value!r}")
    if kind is int and not isinstance(value, int):
        raise PlatformSpecError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise PlatformSpecError(f"{name} must be finite, got {value!r}")
    if value <= 0:
        raise PlatformSpecError(f"{name} must be > 0, got {value!r}")


# ---------------------------------------------------------------------------
# per-kind typed parameter blocks


@dataclass(frozen=True)
class CPUPlatformParams:
    """Calibration of one CPU row of Table III (see ``platforms/cpu.py``)."""

    evolution_op_time_s: float  # one interpreted crossover/mutation op
    mac_time_s: float           # one MAC inside a network eval
    step_overhead_s: float      # per env-step interpreter/dispatch cost
    power_w: float              # package power while busy
    parallel_inference: bool = False   # PLP multithreading (CPU_b/d)
    inference_speedup: float = 3.5     # the paper's 3.5x PLP gain
    desc: str = "CPU"

    def __post_init__(self) -> None:
        for name in ("evolution_op_time_s", "mac_time_s",
                     "step_overhead_s", "power_w", "inference_speedup"):
            _require_positive(name, getattr(self, name))
        if not isinstance(self.parallel_inference, bool):
            raise PlatformSpecError(
                f"parallel_inference must be a bool, "
                f"got {self.parallel_inference!r}"
            )


@dataclass(frozen=True)
class GPUPlatformParams:
    """Calibration of one GPU row of Table III (see ``platforms/gpu.py``)."""

    launch_overhead_s: float
    transfer_overhead_s: float
    bandwidth_bytes_per_s: float
    compact_mac_rate: float
    sparse_mac_rate: float
    evolution_op_time_s: float
    power_w: float
    batch_population: bool = False  # GPU_b/d: BSP + PLP batching
    desc: str = "GPU"

    def __post_init__(self) -> None:
        for name in ("launch_overhead_s", "transfer_overhead_s",
                     "bandwidth_bytes_per_s", "compact_mac_rate",
                     "sparse_mac_rate", "evolution_op_time_s", "power_w"):
            _require_positive(name, getattr(self, name))
        if not isinstance(self.batch_population, bool):
            raise PlatformSpecError(
                f"batch_population must be a bool, "
                f"got {self.batch_population!r}"
            )


@dataclass(frozen=True)
class GenesysPlatformParams:
    """Shape of the analytical GENESYS model (``platforms/genesys.py``)."""

    num_eve_pes: int = 256
    adam_rows: int = 32
    adam_cols: int = 32
    frequency_hz: float = FREQUENCY_HZ

    def __post_init__(self) -> None:
        for name in ("num_eve_pes", "adam_rows", "adam_cols"):
            _require_positive(name, getattr(self, name), kind=int)
        _require_positive("frequency_hz", self.frequency_hz)


@dataclass(frozen=True)
class SoCPlatformParams:
    """The cycle-level GeneSys design point (the knobs the DSE sweeps).

    Defaults are the paper's implemented 15 nm design point
    (:meth:`repro.core.GeneSysConfig.paper_design_point`): 256 EvE PEs,
    multicast NoC, greedy scheduler, 32x32 ADAM array.
    """

    eve_pes: int = 256
    noc: str = "multicast"
    scheduler: str = "greedy"
    adam_shape: str = "32x32"
    frequency_hz: float = FREQUENCY_HZ

    def __post_init__(self) -> None:
        _require_positive("eve_pes", self.eve_pes, kind=int)
        _require_positive("frequency_hz", self.frequency_hz)
        try:
            object.__setattr__(self, "noc", canonical_noc_kind(self.noc))
        except ValueError as exc:
            raise PlatformSpecError(str(exc)) from None
        if self.scheduler not in SCHEDULERS:
            raise PlatformSpecError(
                f"unknown scheduler {self.scheduler!r}; "
                f"use one of {sorted(SCHEDULERS)}"
            )
        rows, cols = parse_adam_shape(self.adam_shape)
        object.__setattr__(self, "adam_shape", f"{rows}x{cols}")

    @property
    def adam_rows(self) -> int:
        return parse_adam_shape(self.adam_shape)[0]

    @property
    def adam_cols(self) -> int:
        return parse_adam_shape(self.adam_shape)[1]


#: kind -> its typed parameter dataclass.
PLATFORM_KINDS: Dict[str, type] = {
    "cpu": CPUPlatformParams,
    "gpu": GPUPlatformParams,
    "genesys": GenesysPlatformParams,
    "soc": SoCPlatformParams,
}

ParamsType = Union[
    CPUPlatformParams, GPUPlatformParams, GenesysPlatformParams,
    SoCPlatformParams,
]


def _coerce_params(kind: str, params: Any) -> ParamsType:
    cls: Type = PLATFORM_KINDS[kind]
    if isinstance(params, cls):
        return params
    if params is None:
        params = {}
    if not isinstance(params, Mapping):
        raise PlatformSpecError(
            f"params for kind {kind!r} must be a mapping or "
            f"{cls.__name__}, got {params!r}"
        )
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(params) - known)
    if unknown:
        raise PlatformSpecError(
            f"unknown {kind} platform params: {unknown}; "
            f"known: {sorted(known)}"
        )
    try:
        return cls(**dict(params))
    except TypeError as exc:
        raise PlatformSpecError(f"invalid {kind} platform params: {exc}") from exc


@dataclass(frozen=True)
class PlatformSpec:
    """One platform, declaratively: ``kind`` + typed params + legend name.

    ``name`` is the legend/registry identity (``CPU_a`` … ``GENESYS``,
    ``soc``, or any custom name); it defaults to the kind.  ``params``
    accepts either the kind's typed dataclass or a plain dict (the JSON
    form), which is validated and coerced on construction — so a spec
    that exists is a spec that is valid.
    """

    kind: str
    name: Optional[str] = None
    params: Any = None

    def __post_init__(self) -> None:
        if self.kind not in PLATFORM_KINDS:
            raise PlatformSpecError(
                f"unknown platform kind {self.kind!r}; "
                f"known kinds: {sorted(PLATFORM_KINDS)}"
            )
        object.__setattr__(self, "params", _coerce_params(self.kind, self.params))
        if self.name is None:
            object.__setattr__(self, "name", self.kind)
        elif not isinstance(self.name, str) or not self.name:
            raise PlatformSpecError(
                f"platform name must be a non-empty string, got {self.name!r}"
            )

    # -- derivation -------------------------------------------------------

    def replace(self, **changes: Any) -> "PlatformSpec":
        """A copy of this spec with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def replace_params(self, **changes: Any) -> "PlatformSpec":
        """A copy with the given *parameter* fields changed (validated)."""
        known = {f.name for f in dataclasses.fields(type(self.params))}
        unknown = sorted(set(changes) - known)
        if unknown:
            raise PlatformSpecError(
                f"unknown {self.kind} platform params: {unknown}; "
                f"known: {sorted(known)}"
            )
        return dataclasses.replace(
            self, params=dataclasses.replace(self.params, **changes)
        )

    # -- dict / JSON round-trip -------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "params": dataclasses.asdict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlatformSpec":
        if not isinstance(data, Mapping):
            raise PlatformSpecError(
                f"a platform spec must be a mapping, got {data!r}"
            )
        known = {"kind", "name", "params"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise PlatformSpecError(f"unknown platform spec fields: {unknown}")
        if "kind" not in data:
            raise PlatformSpecError("a platform spec needs a 'kind'")
        return cls(**dict(data))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PlatformSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlatformSpecError(f"invalid platform spec JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise PlatformSpecError("platform spec JSON must be an object")
        return cls.from_dict(data)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "PlatformSpec":
        return cls.from_json(Path(path).read_text())

    # -- identity ---------------------------------------------------------

    def canonical_json(self) -> str:
        """Deterministic JSON (sorted keys, fixed separators) — the same
        canonicalisation :mod:`repro.dse.cache` applies to experiment
        specs, so two specs with equal fields hash identically however
        they were constructed."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def content_key(self) -> str:
        """SHA-256 of the canonical JSON — stable across processes and
        machines, usable directly in DSE cache keys."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def as_platform_spec(
    value: Union["PlatformSpec", Mapping[str, Any]],
) -> PlatformSpec:
    """Coerce a spec-or-dict (the JSON form) into a :class:`PlatformSpec`."""
    if isinstance(value, PlatformSpec):
        return value
    if isinstance(value, Mapping):
        return PlatformSpec.from_dict(value)
    raise PlatformSpecError(
        f"expected a PlatformSpec or mapping, got {value!r}"
    )
