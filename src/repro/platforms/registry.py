"""The open, string-keyed platform registry.

Mirrors :mod:`repro.envs.registry`: every platform — the nine Table III
legend names *and* the cycle-level ``soc`` design point — is one entry,
and user code adds its own with :func:`register_platform` without
touching backend or sweep code.  An entry is a declarative
:class:`repro.platforms.PlatformSpec`, built through its kind's model
family, so every registered platform can be embedded in an experiment
spec, swept by ``platform.*`` axes and dumped as JSON.

:func:`make_platform` accepts a registered name, a spec, or a raw dict
(the JSON form); unknown names raise :class:`UnknownPlatformError`
listing what is registered.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Union

from .base import Platform
from .cpu import A57_PARAMS, CPUPlatform, I7_PARAMS
from .genesys import GenesysPlatform
from .gpu import GPUPlatform, GTX1080_PARAMS, TEGRA_PARAMS
from .soc_platform import SoCPlatform
from .spec import (
    PLATFORM_KINDS,
    PlatformSpec,
    PlatformSpecError,
    UnknownPlatformError,
    as_platform_spec,
)

#: kind -> the model family built as ``model(spec.name, spec.params)``.
_MODELS: Dict[str, Callable[[str, object], Platform]] = {
    "cpu": CPUPlatform,
    "gpu": GPUPlatform,
    "genesys": GenesysPlatform,
    "soc": SoCPlatform,
}


def build_platform(
    spec: Union[PlatformSpec, Mapping[str, object]],
) -> Platform:
    """Instantiate the platform a spec (or its dict form) describes."""
    spec = as_platform_spec(spec)
    return _MODELS[spec.kind](spec.name, spec.params)


# ---------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class _Entry:
    spec: PlatformSpec
    table3: bool  # one of the paper's Table III legend rows?


_REGISTRY: Dict[str, _Entry] = {}


def register_platform(
    name: str,
    spec: Union[PlatformSpec, Mapping[str, object]],
    *,
    table3: bool = False,
) -> None:
    """Register (or override) a platform spec (or its dict form) under a
    legend name.

    Re-registering a name replaces the entry (latest wins), which is
    how tests and notebooks shadow a built-in with a variant.
    """
    if not name or not isinstance(name, str):
        raise PlatformSpecError(
            f"platform name must be a non-empty string, got {name!r}"
        )
    spec = as_platform_spec(spec)
    if spec.name != name:
        spec = spec.replace(name=name)
    _REGISTRY[name] = _Entry(spec=spec, table3=table3)


def unregister_platform(name: str) -> None:
    """Remove a registry entry (unknown names raise)."""
    if name not in _REGISTRY:
        raise UnknownPlatformError(
            f"unknown platform {name!r}; registered: {platform_names()}"
        )
    del _REGISTRY[name]


def make_platform(
    spec_or_name: Union[str, PlatformSpec, Mapping[str, object]],
) -> Platform:
    """Instantiate a platform from a registered name, a spec, or a dict.

    Unknown names raise :class:`UnknownPlatformError` listing every
    registered name (a ``KeyError`` subclass, so pre-registry callers
    that caught ``KeyError`` keep working).
    """
    if isinstance(spec_or_name, str):
        spec_or_name = platform_spec(spec_or_name)
    return build_platform(spec_or_name)


def platform_names() -> List[str]:
    """Every registered platform name, sorted."""
    return sorted(_REGISTRY)


def all_platforms() -> List[Platform]:
    """One instantiated platform per registry entry (name-sorted)."""
    return [make_platform(name) for name in platform_names()]


def platform_spec(name: str) -> PlatformSpec:
    """The declarative spec behind a registered name."""
    entry = _REGISTRY.get(name)
    if entry is None:
        raise UnknownPlatformError(
            f"unknown platform {name!r}; registered: {platform_names()}"
        )
    return entry.spec


def registered_platforms() -> Dict[str, PlatformSpec]:
    """``name -> spec`` for every entry, name-sorted."""
    return {name: _REGISTRY[name].spec for name in platform_names()}


def table3() -> List[Dict[str, str]]:
    """Rows of Table III (target system configurations), paper order."""
    return [
        make_platform(name).table3_row()
        for name, entry in _REGISTRY.items()
        if entry.table3
    ]


# ---------------------------------------------------------------------------
# built-in entries: the nine Table III rows + the cycle-level SoC

_BUILTIN_SPECS = [
    PlatformSpec("cpu", "CPU_a", I7_PARAMS),
    PlatformSpec("cpu", "CPU_b", replace(I7_PARAMS, parallel_inference=True)),
    PlatformSpec("cpu", "CPU_c", A57_PARAMS),
    PlatformSpec("cpu", "CPU_d", replace(A57_PARAMS, parallel_inference=True)),
    PlatformSpec("gpu", "GPU_a", GTX1080_PARAMS),
    PlatformSpec("gpu", "GPU_b", replace(GTX1080_PARAMS, batch_population=True)),
    PlatformSpec("gpu", "GPU_c", TEGRA_PARAMS),
    PlatformSpec("gpu", "GPU_d", replace(TEGRA_PARAMS, batch_population=True)),
    PlatformSpec("genesys", "GENESYS"),
]

for _spec in _BUILTIN_SPECS:
    register_platform(_spec.name, _spec, table3=True)
register_platform("soc", PlatformSpec("soc"))

assert set(PLATFORM_KINDS) == set(_MODELS), "kind/model tables diverged"
