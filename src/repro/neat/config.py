"""Configuration for the NEAT algorithm.

The paper's System CPU "performs the configuration steps of the NEAT
algorithm (setting the various probabilities, population size, fitness
equation, and so on)" (Section IV-A).  :class:`NEATConfig` is the software
image of that configuration block: every crossover/mutation probability
that the EvE PE consumes (Fig. 7 "Config: Crossover and Mutation (Perturb,
Add, Delete) Probability") lives here, along with the speciation and
reproduction knobs of NEAT proper.

Defaults follow the neat-python configuration style the paper used for its
characterisation, tuned mildly so the bundled environments converge in a
reasonable number of generations on a laptop.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from .activations import ACTIVATIONS
from .aggregations import AGGREGATIONS


class ConfigError(ValueError):
    """Raised for invalid or inconsistent NEAT configuration values."""


@dataclass
class GenomeConfig:
    """Structural and mutation parameters for a single genome."""

    num_inputs: int = 2
    num_outputs: int = 1

    # -- initial topology ------------------------------------------------
    # The paper (Section III-B): "All experiments start with the same simple
    # NN topology - a set of input nodes ... and a set of output nodes ...
    # fully-connected but the weight on each connection is set to zero."
    initial_connection: str = "full"  # "full" | "none"
    initial_weight: Optional[float] = 0.0  # None -> random init

    # -- weight / bias attribute mutation --------------------------------
    weight_init_mean: float = 0.0
    weight_init_stdev: float = 1.0
    weight_max_value: float = 8.0
    weight_min_value: float = -8.0
    weight_mutate_power: float = 0.5
    weight_mutate_rate: float = 0.8
    weight_replace_rate: float = 0.1

    bias_init_mean: float = 0.0
    bias_init_stdev: float = 1.0
    bias_max_value: float = 8.0
    bias_min_value: float = -8.0
    bias_mutate_power: float = 0.5
    bias_mutate_rate: float = 0.7
    bias_replace_rate: float = 0.1

    response_init_mean: float = 1.0
    response_init_stdev: float = 0.0
    response_max_value: float = 8.0
    response_min_value: float = -8.0
    response_mutate_power: float = 0.1
    response_mutate_rate: float = 0.1
    response_replace_rate: float = 0.05

    # -- structural mutation ----------------------------------------------
    node_add_prob: float = 0.1
    node_delete_prob: float = 0.05
    conn_add_prob: float = 0.25
    conn_delete_prob: float = 0.1
    enabled_mutate_rate: float = 0.05
    # Safety threshold mirrored in the Delete Gene engine (Section IV-C3):
    # "If a threshold amount of nodes are previously deleted, no [node]
    # deletion happens in order to keep the genome alive."
    max_node_deletions_per_child: int = 1
    single_structural_mutation: bool = False

    # -- activation / aggregation -----------------------------------------
    activation_default: str = "tanh"
    activation_mutate_rate: float = 0.05
    activation_options: List[str] = field(default_factory=lambda: ["tanh"])

    aggregation_default: str = "sum"
    aggregation_mutate_rate: float = 0.02
    aggregation_options: List[str] = field(default_factory=lambda: ["sum"])

    # -- crossover ---------------------------------------------------------
    # Bias towards the fitter parent when cherry-picking attributes; the EvE
    # crossover engine exposes this as a programmable bias, default 0.5
    # (Section IV-C3, "Crossover Engine").
    crossover_bias: float = 0.5

    # -- compatibility distance --------------------------------------------
    compatibility_disjoint_coefficient: float = 1.0
    compatibility_weight_coefficient: float = 0.5

    def validate(self) -> None:
        if self.num_inputs < 1:
            raise ConfigError("num_inputs must be >= 1")
        if self.num_outputs < 1:
            raise ConfigError("num_outputs must be >= 1")
        if self.initial_connection not in ("full", "none"):
            raise ConfigError(
                f"initial_connection must be 'full' or 'none', got {self.initial_connection!r}"
            )
        for name in ("weight", "bias", "response"):
            lo = getattr(self, f"{name}_min_value")
            hi = getattr(self, f"{name}_max_value")
            if lo >= hi:
                raise ConfigError(f"{name}_min_value must be < {name}_max_value")
        probs = [
            ("node_add_prob", self.node_add_prob),
            ("node_delete_prob", self.node_delete_prob),
            ("conn_add_prob", self.conn_add_prob),
            ("conn_delete_prob", self.conn_delete_prob),
            ("weight_mutate_rate", self.weight_mutate_rate),
            ("bias_mutate_rate", self.bias_mutate_rate),
            ("response_mutate_rate", self.response_mutate_rate),
            ("enabled_mutate_rate", self.enabled_mutate_rate),
            ("activation_mutate_rate", self.activation_mutate_rate),
            ("aggregation_mutate_rate", self.aggregation_mutate_rate),
            ("crossover_bias", self.crossover_bias),
        ]
        for pname, p in probs:
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{pname} must be in [0, 1], got {p}")
        for name in [self.activation_default, *self.activation_options]:
            if name not in ACTIVATIONS:
                raise ConfigError(f"unknown activation {name!r}")
        for name in [self.aggregation_default, *self.aggregation_options]:
            if name not in AGGREGATIONS:
                raise ConfigError(f"unknown aggregation {name!r}")

    @property
    def input_keys(self) -> List[int]:
        """Input node ids.  Negative by convention (as in neat-python)."""
        return [-(i + 1) for i in range(self.num_inputs)]

    @property
    def output_keys(self) -> List[int]:
        return list(range(self.num_outputs))


@dataclass
class SpeciesConfig:
    """Speciation and fitness-sharing parameters (Section II-D)."""

    compatibility_threshold: float = 3.0
    # Species with no improvement for this many generations are removed.
    max_stagnation: int = 20
    species_elitism: int = 2
    # Fitness-sharing boost for young species ("Fitness sharing is augmenting
    # fitness of young genomes to keep them competitive").
    young_age_threshold: int = 5
    young_fitness_bonus: float = 1.1

    def validate(self) -> None:
        if self.compatibility_threshold <= 0:
            raise ConfigError("compatibility_threshold must be > 0")
        if self.max_stagnation < 1:
            raise ConfigError("max_stagnation must be >= 1")
        if self.species_elitism < 0:
            raise ConfigError("species_elitism must be >= 0")
        if self.young_fitness_bonus < 1.0:
            raise ConfigError("young_fitness_bonus must be >= 1.0")


@dataclass
class ReproductionConfig:
    """Selection and reproduction parameters (Section IV-B steps 7-10)."""

    elitism: int = 2
    # Fraction of each species allowed to reproduce ("only individuals above
    # a certain fitness threshold are allowed to participate", step 7).
    survival_threshold: float = 0.2
    min_species_size: int = 2

    def validate(self) -> None:
        if self.elitism < 0:
            raise ConfigError("elitism must be >= 0")
        if not 0.0 < self.survival_threshold <= 1.0:
            raise ConfigError("survival_threshold must be in (0, 1]")
        if self.min_species_size < 1:
            raise ConfigError("min_species_size must be >= 1")


@dataclass
class NEATConfig:
    """Top-level NEAT configuration.

    The paper runs a population of 150 (Section III-D3 mentions "80 of the
    150 children"); that is the default here.
    """

    pop_size: int = 150
    fitness_threshold: Optional[float] = None
    # Only "max": the stop rule compares the champion's fitness with the
    # threshold (the paper's target-fitness completion criterion).  Kept
    # as a field because every stored checkpoint and champion config
    # holds it, and a resume refuses a config that differs.
    fitness_criterion: str = "max"
    reset_on_extinction: bool = True
    genome: GenomeConfig = field(default_factory=GenomeConfig)
    species: SpeciesConfig = field(default_factory=SpeciesConfig)
    reproduction: ReproductionConfig = field(default_factory=ReproductionConfig)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.pop_size < 2:
            raise ConfigError("pop_size must be >= 2")
        if self.fitness_criterion != "max":
            raise ConfigError(
                f"fitness_criterion must be 'max' (the stop rule compares "
                f"the champion's fitness), got {self.fitness_criterion!r}"
            )
        self.genome.validate()
        self.species.validate()
        self.reproduction.validate()

    # -- convenience constructors ----------------------------------------

    @classmethod
    def for_env(
        cls,
        num_inputs: int,
        num_outputs: int,
        pop_size: int = 150,
        fitness_threshold: Optional[float] = None,
    ) -> "NEATConfig":
        """Build a config sized for an environment's observation/action spaces.

        This mirrors the paper's setup: identical codebase per environment,
        "changing only the fitness function between these different runs"
        (Section III-B).
        """
        return cls(
            pop_size=pop_size,
            fitness_threshold=fitness_threshold,
            genome=GenomeConfig(num_inputs=num_inputs, num_outputs=num_outputs),
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NEATConfig":
        data = dict(data)
        genome = GenomeConfig(**data.pop("genome", {}))
        species = SpeciesConfig(**data.pop("species", {}))
        reproduction = ReproductionConfig(**data.pop("reproduction", {}))
        return cls(genome=genome, species=species, reproduction=reproduction, **data)
