"""From-scratch NEAT (NeuroEvolution of Augmenting Topologies).

The learning-algorithm substrate of the GeneSys reproduction: genes,
genomes, speciation with fitness sharing, reproduction, and feed-forward
phenotype evaluation, instrumented so every figure in the paper's
characterisation (Figs. 4-5, 11a) can be regenerated.
"""

from .activations import ACTIVATION_CODES, ACTIVATION_NAMES
from .backprop import (
    DifferentiableNetwork,
    TrainResult,
    UntrainableGenomeError,
)
from .hyperneat import (
    CPPN_ACTIVATIONS,
    HyperNEATDecoder,
    Substrate,
    SubstrateNode,
    cppn_config,
    evolve_hyperneat,
)
from .aggregations import AGGREGATION_CODES, AGGREGATION_NAMES
from .config import (
    ConfigError,
    GenomeConfig,
    NEATConfig,
    ReproductionConfig,
    SpeciesConfig,
)
from .genes import BaseGene, ConnectionGene, NodeGene
from .genome import Genome, MutationCounts, creates_cycle
from .innovation import InnovationTracker
from .serialize import (
    DeserializationError,
    genome_from_dict,
    genome_to_dict,
    load_genome_with_config,
    save_genome,
)
from .compiled import StackedPlans, compile_network
from .network import FeedForwardNetwork, feed_forward_layers, required_for_output
from .population import Population
from .reproduction import (
    CompleteExtinctionError,
    Reproduction,
    ReproductionEvent,
    ReproductionPlan,
)
from .species import Species, SpeciesSet
from .stagnation import Stagnation
from .statistics import GENE_BYTES, GenerationStats, summarise_generation

__all__ = [
    "ACTIVATION_CODES",
    "ACTIVATION_NAMES",
    "AGGREGATION_CODES",
    "AGGREGATION_NAMES",
    "BaseGene",
    "CompleteExtinctionError",
    "ConfigError",
    "ConnectionGene",
    "FeedForwardNetwork",
    "StackedPlans",
    "GENE_BYTES",
    "GenerationStats",
    "Genome",
    "GenomeConfig",
    "InnovationTracker",
    "MutationCounts",
    "NEATConfig",
    "NodeGene",
    "Population",
    "Reproduction",
    "ReproductionConfig",
    "ReproductionEvent",
    "ReproductionPlan",
    "Species",
    "SpeciesConfig",
    "SpeciesSet",
    "Stagnation",
    "compile_network",
    "creates_cycle",
    "feed_forward_layers",
    "required_for_output",
    "summarise_generation",
]
