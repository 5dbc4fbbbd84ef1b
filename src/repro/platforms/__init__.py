"""Platform models behind one declarative API (Table III + the SoC).

Two pieces compose here:

* :class:`PlatformSpec` (:mod:`repro.platforms.spec`) — a frozen,
  JSON-round-trippable description of one platform: a ``kind`` (``cpu``,
  ``gpu``, ``genesys`` analytical models; ``soc`` the cycle-level
  EvE/ADAM design point) plus a typed parameter block, content-hashable
  for the DSE cache.
* the fixed platform table (:mod:`repro.platforms.registry`) — every
  Table III legend name and the ``soc`` design point, the same in every
  process.  A custom platform is not added to it: it travels by value,
  as a :class:`PlatformSpec` embedded in the experiment spec.

``make_platform`` accepts a table name, a :class:`PlatformSpec`, or a
raw spec dict; unknown names raise :class:`UnknownPlatformError` (a
``KeyError`` subclass) listing the table's names.  Each model class
(:class:`CPUPlatform`, :class:`GPUPlatform`, :class:`GenesysPlatform`,
:class:`SoCPlatform`) is built as ``Model(name, params)`` from its
kind's parameter block.
"""

from .base import PhaseCost, Platform
from .cpu import A57_PARAMS, CPUPlatform, I7_PARAMS
from .genesys import ONCHIP_TRANSFER_FRACTION, GenesysPlatform
from .gpu import GPUPlatform, GTX1080_PARAMS, TEGRA_PARAMS
from .memory_model import footprint_comparison
from .registry import (
    all_platforms,
    build_platform,
    make_platform,
    platform_names,
    platform_spec,
    registered_platforms,
    table3,
)
from .soc_platform import SoCPlatform
from .spec import (
    PLATFORM_KINDS,
    PLP_INFERENCE_SPEEDUP,
    CPUPlatformParams,
    GenesysPlatformParams,
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
    "GenesysPlatformParams",
    "I7_PARAMS",
    "ONCHIP_TRANSFER_FRACTION",
    "PLATFORM_KINDS",
    "PLP_INFERENCE_SPEEDUP",
    "PhaseCost",
    "Platform",
    "PlatformSpec",
    "PlatformSpecError",
    "SoCPlatform",
    "SoCPlatformParams",
    "TEGRA_PARAMS",
    "UnknownPlatformError",
    "all_platforms",
    "as_platform_spec",
    "build_platform",
    "footprint_comparison",
    "make_platform",
    "parse_adam_shape",
    "platform_names",
    "platform_spec",
    "registered_platforms",
    "table3",
]
