"""Platform models behind one declarative API (Table III + the SoC).

Two pieces compose here:

* :class:`PlatformSpec` (:mod:`repro.platforms.spec`) — a frozen,
  JSON-round-trippable description of one platform: a ``kind`` (``cpu``
  and ``gpu`` analytical models; ``soc`` the GeneSys chip's design
  point) plus a typed parameter block, content-hashable for the DSE
  cache.
* the fixed platform table (:mod:`repro.platforms.registry`) — every
  Table III legend name and ``soc``, the same in every process.  A
  custom platform is not added to it: it travels by value, as a
  :class:`PlatformSpec` embedded in the experiment spec.

``make_platform`` accepts a table name, a :class:`PlatformSpec`, or a
raw spec dict; unknown names raise :class:`UnknownPlatformError` (a
``KeyError`` subclass) listing the table's names.  Each model class
(:class:`CPUPlatform`, :class:`GPUPlatform`, :class:`GenesysPlatform`)
is built as ``Model(name, params)`` from its kind's parameter block.
A ``soc``-kind spec (``GENESYS`` and ``soc`` in the table) builds a
:class:`GenesysPlatform`, which both costs the chip analytically and
resolves it for the cycle-level ``soc`` backend.
"""

from .base import PhaseCost, Platform
from .cpu import A57_PARAMS, CPUPlatform, I7_PARAMS
from .genesys import ONCHIP_TRANSFER_FRACTION, GenesysPlatform
from .gpu import GPUPlatform, GTX1080_PARAMS, TEGRA_PARAMS
from .registry import (
    all_platforms,
    make_platform,
    platform_names,
    platform_spec,
    registered_platforms,
    table3,
)
from .spec import (
    PLATFORM_KINDS,
    PLP_INFERENCE_SPEEDUP,
    CPUPlatformParams,
    GPUPlatformParams,
    PlatformSpec,
    PlatformSpecError,
    SoCPlatformParams,
    UnknownPlatformError,
    as_platform_spec,
    parse_adam_shape,
)

__all__ = [
    "A57_PARAMS",
    "CPUPlatform",
    "CPUPlatformParams",
    "GPUPlatform",
    "GPUPlatformParams",
    "GTX1080_PARAMS",
    "GenesysPlatform",
    "I7_PARAMS",
    "ONCHIP_TRANSFER_FRACTION",
    "PLATFORM_KINDS",
    "PLP_INFERENCE_SPEEDUP",
    "PhaseCost",
    "Platform",
    "PlatformSpec",
    "PlatformSpecError",
    "SoCPlatformParams",
    "TEGRA_PARAMS",
    "UnknownPlatformError",
    "all_platforms",
    "as_platform_spec",
    "make_platform",
    "parse_adam_shape",
    "platform_names",
    "platform_spec",
    "registered_platforms",
    "table3",
]
