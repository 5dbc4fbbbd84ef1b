"""The declarative platform specification: one record per substrate.

A :class:`PlatformSpec` describes a platform the way
:class:`repro.api.ExperimentSpec` describes an experiment: a frozen,
JSON-round-trippable record — a ``kind`` (which cost/simulation model
family builds it) plus a typed parameter block.  Three kinds ship:

``cpu`` / ``gpu``
    The analytical Table III CPU and GPU models (Fig. 9/10): parameters
    are the published calibration constants, so a new CPU or GPU variant
    is pure data — no subclassing.
``soc``
    The GeneSys chip (Section IV): parameters are the hardware design
    point the DSE sweeps (``eve_pes``, ``noc``, ``scheduler``,
    ``adam_shape``).  One design point serves both fidelities: the
    analytical Table III GENESYS row costs it from workload aggregates,
    and the ``soc`` backend resolves it into the
    :class:`repro.core.GeneSysConfig` the cycle-level simulation runs.

Specs share the experiment spec's JSON codec
(:class:`repro.obs.jsonl.JsonRecord`), so :meth:`PlatformSpec.content_key`
is stable across processes and machines and safe to embed in the
:mod:`repro.dse` cache keys.  Validation is shared with the rest of the
stack: NoC kinds and schedulers are checked by exact name against
:data:`repro.hw.noc.NOCS` and :data:`repro.hw.allocator.SCHEDULERS`, the
tables the simulator builds them from.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Type, Union

from ..hw.allocator import SCHEDULERS
from ..hw.energy import FREQUENCY_HZ
from ..hw.noc import NOCS
from ..obs.jsonl import JsonRecord, reject_unknown


class PlatformSpecError(ValueError):
    """Raised for invalid or inconsistent platform specifications."""


class UnknownPlatformError(KeyError):
    """Raised when a platform name resolves to no registry entry."""


#: Paper: "Parallel inference on CPU is 3.5 times faster than the serial
#: counterpart" (4 threads).
PLP_INFERENCE_SPEEDUP = 3.5


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
    inference_speedup: float = PLP_INFERENCE_SPEEDUP
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
class SoCPlatformParams:
    """The GeneSys chip's design point (the knobs the DSE sweeps).

    Defaults are the paper's implemented 15 nm design point (Section V,
    the defaults of :class:`repro.core.GeneSysConfig`): 256 EvE PEs,
    multicast NoC, greedy scheduler, 32x32 ADAM array, 200 MHz.  The
    Table III GENESYS row and the ``soc`` backend both take it.
    """

    eve_pes: int = 256
    noc: str = "multicast"
    scheduler: str = "greedy"
    adam_shape: str = "32x32"
    frequency_hz: float = FREQUENCY_HZ

    def __post_init__(self) -> None:
        _require_positive("eve_pes", self.eve_pes, kind=int)
        _require_positive("frequency_hz", self.frequency_hz)
        for name, table in (("noc", NOCS), ("scheduler", SCHEDULERS)):
            value = getattr(self, name)
            if value not in table:
                raise PlatformSpecError(
                    f"unknown {name} {value!r}; use one of {sorted(table)}"
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
    "soc": SoCPlatformParams,
}

ParamsType = Union[CPUPlatformParams, GPUPlatformParams, SoCPlatformParams]


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
    known = [f.name for f in dataclasses.fields(cls)]
    reject_unknown(params, known, PlatformSpecError, f"{kind} platform params")
    try:
        return cls(**dict(params))
    except TypeError as exc:
        raise PlatformSpecError(f"invalid {kind} platform params: {exc}") from exc


@dataclass(frozen=True)
class PlatformSpec(JsonRecord):
    """One platform, declaratively: ``kind`` + typed params + legend name.

    ``name`` is the legend/registry identity (``CPU_a`` … ``GENESYS``,
    ``soc``, or any custom name); it defaults to the kind.  ``params``
    accepts either the kind's typed dataclass or a plain dict (the JSON
    form), which is validated and coerced on construction — so a spec
    that exists is a spec that is valid.
    """

    error = PlatformSpecError
    label = "platform spec"

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

    def replace_params(self, **changes: Any) -> "PlatformSpec":
        """A copy with the given *parameter* fields changed (validated)."""
        known = [f.name for f in dataclasses.fields(type(self.params))]
        reject_unknown(
            changes, known, PlatformSpecError, f"{self.kind} platform params"
        )
        return dataclasses.replace(
            self, params=dataclasses.replace(self.params, **changes)
        )

    # -- dict round-trip (JSON: repro.obs.jsonl.JsonRecord) ---------------

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
        known = ("kind", "name", "params")
        reject_unknown(data, known, PlatformSpecError, "platform spec fields")
        if "kind" not in data:
            raise PlatformSpecError("a platform spec needs a 'kind'")
        return cls(**dict(data))


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
