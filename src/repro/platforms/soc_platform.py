"""The cycle-level GeneSys SoC as a first-class platform.

:class:`SoCPlatform` wraps the EvE/ADAM chip models behind the same
:class:`repro.platforms.Platform` interface the analytical Table III
rows implement, so the SoC is one more registry entry instead of a
special backend:

* :meth:`SoCPlatform.genesys_config` resolves the spec's design point
  (``eve_pes``, ``noc``, ``scheduler``, ``adam_shape``) into the
  :class:`repro.core.GeneSysConfig` the cycle-level
  :class:`repro.core.GeneSysSoC` simulation runs — this is the path the
  ``soc`` backend takes.
* The :class:`Platform` cost methods answer from the *analytical*
  GENESYS model shaped to the same design point, so the SoC can sit in
  a Fig. 9-style cost matrix next to the CPU/GPU rows.  Cycle-accurate
  numbers come from actually running ``backend="soc"``; the analytical
  projection here is the workload-aggregate estimate.
"""

from __future__ import annotations

import dataclasses

from ..core.config import GeneSysConfig
from ..core.trace import GenerationWorkload
from .base import PhaseCost, Platform
from .genesys import GenesysPlatform
from .spec import GenesysPlatformParams, SoCPlatformParams


class SoCPlatform(Platform):
    """One registry entry wrapping the cycle-level EvE/ADAM SoC."""

    inference_strategy = "PLP"
    evolution_strategy = "PLP + GLP"
    platform_desc = "GeneSys SoC (cycle-level)"

    def __init__(self, name: str, params: SoCPlatformParams) -> None:
        self.name = name
        self.params = params

    # -- the cycle-level design point -------------------------------------

    def genesys_config(self, neat=None, seed: int = 0) -> GeneSysConfig:
        """The :class:`repro.core.GeneSysConfig` this design point describes.

        The paper design point supplies everything the params do not
        cover (SRAM geometry, PE registers); the params and the caller's
        NEAT sizing and seed apply on top.
        """
        params = self.params
        config = GeneSysConfig.paper_design_point(neat=neat)
        config.eve = dataclasses.replace(
            config.eve,
            num_pes=params.eve_pes,
            noc=params.noc,
            scheduler=params.scheduler,
        )
        config.adam = dataclasses.replace(
            config.adam, rows=params.adam_rows, cols=params.adam_cols
        )
        config.frequency_hz = params.frequency_hz
        config.seed = seed
        return config

    # -- analytical projection (Platform interface) -----------------------

    def _analytical(self) -> GenesysPlatform:
        params = self.params
        return GenesysPlatform(self.name, GenesysPlatformParams(
            num_eve_pes=params.eve_pes,
            adam_rows=params.adam_rows,
            adam_cols=params.adam_cols,
            frequency_hz=params.frequency_hz,
        ))

    def inference_cost(self, workload: GenerationWorkload) -> PhaseCost:
        return self._analytical().inference_cost(workload)

    def evolution_cost(self, workload: GenerationWorkload) -> PhaseCost:
        return self._analytical().evolution_cost(workload)

    def memory_footprint_bytes(self, workload: GenerationWorkload) -> int:
        return self._analytical().memory_footprint_bytes(workload)
