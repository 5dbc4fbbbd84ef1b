"""Genome and run checkpointing (JSON).

Lets a downstream user persist evolved champions, reload them for
inference or hardware encoding, and checkpoint/resume long runs — the
"continuous learning" deployments the paper targets need exactly this
(an agent's learned state must survive power cycles).

Two granularities ship here:

* **Genome payloads** (:func:`save_genome`) — the champion/export
  format, enough to reload a network for inference or hardware
  encoding.
* **Full evolution state** (:func:`population_to_state`,
  :func:`population_from_state`) — everything
  :class:`repro.neat.Population` needs to continue a run bit-identically
  from a generation boundary: every genome, the speciation partition and
  its fitness histories, the innovation/genome-key counters and the
  Mersenne Twister state of the population RNG: only what a resume
  reads (the next generation replaces the last reproduction plan before
  anything reads it, so it stays in memory).  :mod:`repro.runs` writes
  it as its checkpoint files (:meth:`repro.runs.RunDir.write_checkpoint`).

Both formats are versioned (``format`` field) and raise
:class:`DeserializationError` for unknown versions, truncated files and
— for full states — a config that differs from the one the checkpoint
was recorded under (resuming a run under a *different* NEAT config would
silently diverge, so it is rejected instead).
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Union

from ..obs.jsonl import read_json, write_json
from .config import NEATConfig
from .genes import ConnectionGene, NodeGene
from .genome import Genome
from .species import Species

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .population import Population

FORMAT_VERSION = 1

#: Version tag of the full-population evolution-state format (the
#: :mod:`repro.runs` checkpoint payload).
STATE_FORMAT_VERSION = 1


class DeserializationError(ValueError):
    """Raised when a checkpoint file is malformed or incompatible."""


def genome_to_dict(genome: Genome) -> Dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "key": genome.key,
        "fitness": genome.fitness,
        "nodes": [
            {
                "key": node.key,
                "bias": node.bias,
                "response": node.response,
                "activation": node.activation,
                "aggregation": node.aggregation,
            }
            for node in genome.nodes.values()
        ],
        "connections": [
            {
                "source": conn.source,
                "dest": conn.dest,
                "weight": conn.weight,
                "enabled": conn.enabled,
            }
            for conn in genome.connections.values()
        ],
    }


def genome_from_dict(data: Dict[str, Any]) -> Genome:
    try:
        version = data["format"]
        if version != FORMAT_VERSION:
            raise DeserializationError(f"unsupported format version {version}")
        genome = Genome(int(data["key"]))
        genome.fitness = data.get("fitness")
        for node in data["nodes"]:
            genome.nodes[int(node["key"])] = NodeGene(
                int(node["key"]),
                bias=float(node["bias"]),
                response=float(node["response"]),
                activation=str(node["activation"]),
                aggregation=str(node["aggregation"]),
            )
        for conn in data["connections"]:
            key = (int(conn["source"]), int(conn["dest"]))
            genome.connections[key] = ConnectionGene(
                key, weight=float(conn["weight"]), enabled=bool(conn["enabled"])
            )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DeserializationError):
            raise
        raise DeserializationError(f"malformed genome payload: {exc}") from exc
    return genome


def save_genome(genome: Genome, path: Union[str, Path],
                config: NEATConfig) -> None:
    """Write a genome and its NEAT config to a JSON file, replacing any
    previous one atomically."""
    write_json(path, {"genome": genome_to_dict(genome),
                      "config": config.to_dict()})


def load_genome_with_config(path: Union[str, Path]):
    payload = read_json(path, DeserializationError)
    if "genome" not in payload or "config" not in payload:
        raise DeserializationError("file lacks genome and/or config")
    return genome_from_dict(payload["genome"]), NEATConfig.from_dict(payload["config"])


# ---------------------------------------------------------------------------
# full evolution state (checkpoint/resume)


def population_to_state(population: "Population") -> Dict[str, Any]:
    """Snapshot a :class:`~repro.neat.population.Population` at a
    generation boundary (i.e. between ``run_generation`` calls).

    The snapshot is pure JSON-serialisable data; order matters and is
    preserved — population and species iteration order participate in
    the RNG draw sequence, so a restored population replays the exact
    byte-identical trajectory the original would have produced.
    """
    rng_version, rng_internal, rng_gauss = population.rng.getstate()
    species_set = population.species_set
    species_entries: List[Dict[str, Any]] = []
    for key, species in species_set.species.items():
        species_entries.append({
            "key": key,
            "created": species.created,
            "last_improved": species.last_improved,
            "fitness": species.fitness,
            "adjusted_fitness": species.adjusted_fitness,
            "fitness_history": list(species.fitness_history),
            "representative": (
                species.representative.key
                if species.representative is not None else None
            ),
            "members": list(species.members.keys()),
        })
    return {
        "format": STATE_FORMAT_VERSION,
        "kind": "population-state",
        "generation": population.generation,
        "config": population.config.to_dict(),
        "rng_state": [rng_version, list(rng_internal), rng_gauss],
        "genomes": [genome_to_dict(g) for g in population.population.values()],
        "innovation_next_node_id": population.innovations.next_node_id,
        "next_genome_key": population.reproduction._next_genome_key,
        "species": species_entries,
        "next_species_key": species_set._next_species_key,
        "best_genome": (
            genome_to_dict(population.best_genome)
            if population.best_genome is not None else None
        ),
    }


def population_from_state(
    state: Dict[str, Any], config: NEATConfig
) -> "Population":
    """Rebuild a live :class:`~repro.neat.population.Population` from a
    :func:`population_to_state` snapshot.

    ``config`` must be *the* config the snapshot was recorded under
    (normally re-derived from the experiment spec); a mismatch raises
    :class:`DeserializationError` because resuming under a foreign
    config would silently diverge from the original run.  An older
    checkpoint's ``last_plan`` is ignored.
    """
    from .innovation import InnovationTracker
    from .population import Population
    from .reproduction import Reproduction
    from .species import SpeciesSet

    if not isinstance(state, dict):
        raise DeserializationError("population state must be a JSON object")
    version = state.get("format")
    if version != STATE_FORMAT_VERSION:
        raise DeserializationError(
            f"unsupported population-state format version {version!r}"
        )
    stored_config = state.get("config")
    if stored_config != config.to_dict():
        raise DeserializationError(
            "checkpoint was recorded under a different NEAT config; "
            "resuming it here would diverge from the original run"
        )
    try:
        population = Population.__new__(Population)
        population.config = config
        population.rng = random.Random()
        rng_version, rng_internal, rng_gauss = state["rng_state"]
        population.rng.setstate(
            (int(rng_version), tuple(int(v) for v in rng_internal), rng_gauss)
        )
        population.innovations = InnovationTracker(
            next_node_id=int(state["innovation_next_node_id"])
        )
        population.reproduction = Reproduction(config, population.innovations)
        population.reproduction._next_genome_key = int(state["next_genome_key"])
        population.generation = int(state["generation"])
        genomes = [genome_from_dict(g) for g in state["genomes"]]
        population.population = {g.key: g for g in genomes}

        species_set = SpeciesSet(config)
        species_set._next_species_key = int(state["next_species_key"])
        for entry in state["species"]:
            species = Species(int(entry["key"]), int(entry["created"]))
            species.last_improved = int(entry["last_improved"])
            species.fitness = entry["fitness"]
            species.adjusted_fitness = entry["adjusted_fitness"]
            species.fitness_history = [float(f) for f in entry["fitness_history"]]
            # Representatives are identical objects to their population
            # members, exactly as SpeciesSet.speciate leaves them.
            species.members = {
                int(k): population.population[int(k)] for k in entry["members"]
            }
            if entry["representative"] is not None:
                species.representative = population.population[
                    int(entry["representative"])
                ]
            species_set.species[species.key] = species
            for member_key in species.members:
                species_set.genome_to_species[member_key] = species.key
        population.species_set = species_set

        best = state.get("best_genome")
        population.best_genome = (
            genome_from_dict(best) if best is not None else None
        )
        population.last_plan = None
    except DeserializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DeserializationError(
            f"malformed population state: {exc}"
        ) from exc
    return population


def load_population_state(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a checkpoint payload (validated lazily by
    :func:`population_from_state`, which also needs the config)."""
    payload = read_json(path, DeserializationError)
    if "genomes" not in payload or "rng_state" not in payload:
        raise DeserializationError(
            "file does not contain a population-state checkpoint"
        )
    return payload
