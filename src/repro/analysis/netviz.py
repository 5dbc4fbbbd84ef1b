"""ASCII visualisation of evolved network topologies.

Renders a genome as its levelised layer structure with per-node fan-in,
so evolved "irregular" topologies (the paper's Section III-C2 point) can
be inspected in a terminal.
"""

from __future__ import annotations

from typing import Dict, List

from ..neat.config import GenomeConfig
from ..neat.genome import Genome
from ..neat.network import feed_forward_layers, required_for_output


def describe_genome(genome: Genome, config: GenomeConfig) -> str:
    """Multi-line summary: size, layers, and per-layer node details."""
    enabled = [k for k, c in genome.connections.items() if c.enabled]
    num_enabled = len(enabled)
    num_disabled = len(genome.connections) - num_enabled
    lines = [
        f"Genome {genome.key}: {len(genome.nodes)} nodes, "
        f"{num_enabled} enabled + {num_disabled} disabled connections"
        + (f", fitness {genome.fitness:.3f}" if genome.fitness is not None else ""),
    ]
    try:
        layers = feed_forward_layers(config.input_keys, config.output_keys, enabled)
    except ValueError:
        lines.append("  (cyclic graph: cannot levelise)")
        return "\n".join(lines)

    required = required_for_output(config.input_keys, config.output_keys, enabled)
    pruned = [n for n in genome.nodes if n not in required]
    incoming: Dict[int, List[int]] = {}
    for src, dst in enabled:
        incoming.setdefault(dst, []).append(src)

    lines.append(f"  inputs: {config.input_keys}")
    for depth, layer in enumerate(layers):
        entries = []
        for node_id in layer:
            node = genome.nodes[node_id]
            fan_in = len(incoming.get(node_id, []))
            role = "out" if node_id in config.output_keys else "hid"
            entries.append(f"{role}{node_id}({node.activation},fan_in={fan_in})")
        lines.append(f"  layer {depth + 1}: " + "  ".join(entries))
    if pruned:
        lines.append(f"  pruned (no path to output): {sorted(pruned)}")
    return "\n".join(lines)
