"""Top-level GeneSys SoC configuration (Fig. 8a parameter table)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.adam import ADAMConfig
from ..hw.energy import FREQUENCY_HZ
from ..hw.eve import EvEConfig
from ..hw.pe import PEConfig
from ..hw.sram import SRAMConfig
from ..neat.config import NEATConfig


@dataclass
class GeneSysConfig:
    """The full SoC: EvE + ADAM + Genome Buffer + System CPU settings.

    The defaults are the implemented 15 nm design point: 256 EvE PEs,
    32x32 ADAM, 1.5 MB / 48-bank SRAM, 200 MHz (Section V).
    """

    neat: NEATConfig = field(default_factory=NEATConfig)
    eve: EvEConfig = field(default_factory=EvEConfig)
    adam: ADAMConfig = field(default_factory=ADAMConfig)
    sram: SRAMConfig = field(default_factory=SRAMConfig)
    frequency_hz: float = FREQUENCY_HZ
    seed: int = 0

    def pe_config_from_neat(self) -> PEConfig:
        """Map NEAT mutation probabilities onto the PE's 8-bit registers.

        The CPU performs "the configuration steps of the NEAT algorithm
        (setting the various probabilities ...)" (Section IV-A).  Per-gene
        probabilities are derived from the per-genome structural rates by
        spreading them over the average stream length, so expected
        structural mutation counts match the software algorithm's.
        """
        genome_cfg = self.neat.genome
        # Initial stream length: outputs + dense input-output mesh.
        approx_genes = genome_cfg.num_outputs + (
            genome_cfg.num_inputs * genome_cfg.num_outputs
        )
        per_gene = 1.0 / max(1, approx_genes)
        return PEConfig(
            crossover_bias=genome_cfg.crossover_bias,
            perturb_prob=min(1.0, genome_cfg.weight_mutate_rate),
            node_delete_prob=min(1.0, genome_cfg.node_delete_prob * per_gene * 4),
            conn_delete_prob=min(1.0, genome_cfg.conn_delete_prob * per_gene * 4),
            node_add_prob=min(1.0, genome_cfg.node_add_prob * per_gene * 4),
            conn_add_prob=min(1.0, genome_cfg.conn_add_prob * per_gene * 4),
            max_node_deletions=genome_cfg.max_node_deletions_per_child,
        )
