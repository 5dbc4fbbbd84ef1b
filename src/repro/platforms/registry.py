"""The fixed platform table.

Every name a spec can give a platform (``analytical:<name>``, ``repro
run --platform NAME``) is a key into one constant table: the nine Table
III legend rows, in the paper's order, and ``soc``.  ``GENESYS`` and
``soc`` are the same ``soc``-kind design point, the paper's chip, under
its legend name and its kind's name.  The table is the same in every
process, so a name in a ``spec.json`` means one platform wherever the
spec runs.  A custom platform travels by value instead: a
:class:`PlatformSpec` embedded in the experiment spec (or ``repro run
--platform FILE``), which ``spec.json``, resume and the DSE cache key
carry by content.

:func:`make_platform` accepts a table name, a spec, or a raw dict
(the JSON form); unknown names raise :class:`UnknownPlatformError`
listing the table's names.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Mapping, Union

from .base import Platform
from .cpu import A57_PARAMS, CPUPlatform, I7_PARAMS
from .genesys import GenesysPlatform
from .gpu import GPUPlatform, GTX1080_PARAMS, TEGRA_PARAMS
from .spec import (
    PLATFORM_KINDS,
    PlatformSpec,
    UnknownPlatformError,
    as_platform_spec,
)

#: kind -> the model family built as ``model(spec.name, spec.params)``.
_MODELS: Dict[str, Callable[[str, object], Platform]] = {
    "cpu": CPUPlatform,
    "gpu": GPUPlatform,
    "soc": GenesysPlatform,
}


#: The paper's Table III rows, in its order.
_TABLE3 = (
    PlatformSpec("cpu", "CPU_a", I7_PARAMS),
    PlatformSpec("cpu", "CPU_b", replace(I7_PARAMS, parallel_inference=True)),
    PlatformSpec("cpu", "CPU_c", A57_PARAMS),
    PlatformSpec("cpu", "CPU_d", replace(A57_PARAMS, parallel_inference=True)),
    PlatformSpec("gpu", "GPU_a", GTX1080_PARAMS),
    PlatformSpec("gpu", "GPU_b", replace(GTX1080_PARAMS, batch_population=True)),
    PlatformSpec("gpu", "GPU_c", TEGRA_PARAMS),
    PlatformSpec("gpu", "GPU_d", replace(TEGRA_PARAMS, batch_population=True)),
    PlatformSpec("soc", "GENESYS"),
)

#: name -> spec: the Table III rows plus the chip under its kind's name.
_PLATFORMS: Dict[str, PlatformSpec] = {
    spec.name: spec for spec in _TABLE3 + (PlatformSpec("soc"),)
}


def make_platform(
    spec_or_name: Union[str, PlatformSpec, Mapping[str, object]],
) -> Platform:
    """Instantiate a platform from a table name, a spec, or a dict.

    Unknown names raise :class:`UnknownPlatformError` listing every
    name in the table (a ``KeyError`` subclass).
    """
    if isinstance(spec_or_name, str):
        spec = platform_spec(spec_or_name)
    else:
        spec = as_platform_spec(spec_or_name)
    return _MODELS[spec.kind](spec.name, spec.params)


def platform_names() -> List[str]:
    """Every platform name in the table, sorted."""
    return sorted(_PLATFORMS)


def all_platforms() -> List[Platform]:
    """One instantiated platform per table entry (name-sorted)."""
    return [make_platform(name) for name in platform_names()]


def platform_spec(name: str) -> PlatformSpec:
    """The declarative spec behind a table name."""
    spec = _PLATFORMS.get(name)
    if spec is None:
        raise UnknownPlatformError(
            f"unknown platform {name!r}; known: {platform_names()}"
        )
    return spec


def registered_platforms() -> Dict[str, PlatformSpec]:
    """``name -> spec`` for every table entry, name-sorted."""
    return {name: _PLATFORMS[name] for name in platform_names()}


def table3() -> List[Dict[str, str]]:
    """Rows of Table III (target system configurations), paper order."""
    return [make_platform(spec).table3_row() for spec in _TABLE3]


assert set(PLATFORM_KINDS) == set(_MODELS), "kind/model tables diverged"
