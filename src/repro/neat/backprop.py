"""Gradient fine-tuning of an evolved topology.

Section VII ("Future Directions"): "we believe that GENESYS can be run in
conjunction with supervised learning, with the former enabling rapid
topology exploration and then using conventional training to tune the
weights."  This module implements that hybrid: take a genome NEAT
evolved, freeze its topology, and train its weights/biases by
backpropagation through the levelised DAG.

Supported phenotypes are the ones ADAM can execute (sum aggregation);
activations need derivatives, provided for the common set below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .activations import ACTIVATIONS
from .config import GenomeConfig
from .genome import Genome
from .network import feed_forward_layers


def _sigmoid(z: float) -> float:
    z = max(-60.0, min(60.0, 5.0 * z))
    return 1.0 / (1.0 + math.exp(-z))


#: derivative of each supported activation, as a function of the
#: *pre-activation* input z
_DERIVATIVES: Dict[str, Callable[[float], float]] = {
    "identity": lambda z: 1.0,
    "relu": lambda z: 1.0 if z > 0 else 0.0,
    "tanh": lambda z: 2.5 * (1.0 - math.tanh(max(-60.0, min(60.0, 2.5 * z))) ** 2),
    "sigmoid": lambda z: 5.0 * _sigmoid(z) * (1.0 - _sigmoid(z)),
    "clamped": lambda z: 1.0 if -1.0 <= z <= 1.0 else 0.0,
    "lelu": lambda z: 1.0 if z > 0 else 0.005,
}


class UntrainableGenomeError(ValueError):
    """Genome uses an activation/aggregation without gradient support."""


@dataclass
class TrainResult:
    losses: List[float] = field(default_factory=list)

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


class DifferentiableNetwork:
    """A trainable view of a genome: same function, plus gradients.

    Weights/biases live in mutable dicts; :meth:`write_back` pushes the
    trained values into the genome so it can return to the hardware path.
    """

    def __init__(self, genome: Genome, config: GenomeConfig) -> None:
        enabled = [k for k, c in genome.connections.items() if c.enabled]
        self.layers = feed_forward_layers(
            config.input_keys, config.output_keys, enabled
        )
        self.input_keys = list(config.input_keys)
        self.output_keys = list(config.output_keys)
        self.genome = genome
        self.weights: Dict[Tuple[int, int], float] = {}
        self.biases: Dict[int, float] = {}
        self.responses: Dict[int, float] = {}
        self.activations: Dict[int, str] = {}
        self.incoming: Dict[int, List[int]] = {}
        needed = {n for layer in self.layers for n in layer}
        for node_id in needed:
            node = genome.nodes[node_id]
            if node.aggregation != "sum":
                raise UntrainableGenomeError(
                    f"node {node_id}: aggregation {node.aggregation!r} not differentiable here"
                )
            if node.activation not in _DERIVATIVES:
                raise UntrainableGenomeError(
                    f"node {node_id}: activation {node.activation!r} has no derivative"
                )
            self.biases[node_id] = node.bias
            self.responses[node_id] = node.response
            self.activations[node_id] = node.activation
            self.incoming[node_id] = []
        for (src, dst), conn in genome.connections.items():
            if conn.enabled and dst in needed:
                self.weights[(src, dst)] = conn.weight
                self.incoming[dst].append(src)

    # -- forward -----------------------------------------------------------

    def forward(
        self, inputs: Sequence[float]
    ) -> Tuple[List[float], Dict[int, float], Dict[int, float]]:
        """Returns (outputs, node values, node pre-activations)."""
        if len(inputs) != len(self.input_keys):
            raise ValueError(f"expected {len(self.input_keys)} inputs")
        values: Dict[int, float] = {
            k: float(v) for k, v in zip(self.input_keys, inputs)
        }
        for k in self.output_keys:
            values.setdefault(k, 0.0)
        pre: Dict[int, float] = {}
        for layer in self.layers:
            for node_id in layer:
                total = sum(
                    values.get(src, 0.0) * self.weights[(src, node_id)]
                    for src in self.incoming[node_id]
                )
                z = self.biases[node_id] + self.responses[node_id] * total
                pre[node_id] = z
                values[node_id] = ACTIVATIONS[self.activations[node_id]][0](z)
        outputs = [values.get(k, 0.0) for k in self.output_keys]
        return outputs, values, pre

    def activate(self, inputs: Sequence[float]) -> List[float]:
        return self.forward(inputs)[0]

    # -- backward ---------------------------------------------------------------

    def gradients(
        self, inputs: Sequence[float], output_grads: Sequence[float]
    ) -> Tuple[Dict[Tuple[int, int], float], Dict[int, float]]:
        """dLoss/dweight and dLoss/dbias via reverse-mode through the DAG."""
        _outputs, values, pre = self.forward(inputs)
        node_grad: Dict[int, float] = {
            k: float(g) for k, g in zip(self.output_keys, output_grads)
        }
        weight_grads: Dict[Tuple[int, int], float] = {}
        bias_grads: Dict[int, float] = {}
        for layer in reversed(self.layers):
            for node_id in layer:
                upstream = node_grad.get(node_id, 0.0)
                if upstream == 0.0:
                    continue
                dact = _DERIVATIVES[self.activations[node_id]](pre[node_id])
                dz = upstream * dact
                bias_grads[node_id] = bias_grads.get(node_id, 0.0) + dz
                response = self.responses[node_id]
                for src in self.incoming[node_id]:
                    key = (src, node_id)
                    weight_grads[key] = weight_grads.get(key, 0.0) + (
                        dz * response * values.get(src, 0.0)
                    )
                    node_grad[src] = node_grad.get(src, 0.0) + (
                        dz * response * self.weights[key]
                    )
        return weight_grads, bias_grads

    # -- training -------------------------------------------------------------------

    def train(
        self,
        samples: Sequence[Tuple[Sequence[float], Sequence[float]]],
        epochs: int = 100,
        learning_rate: float = 0.05,
        weight_clip: Optional[float] = 8.0,
    ) -> TrainResult:
        """Full-batch gradient descent on mean squared error."""
        result = TrainResult()
        n = max(1, len(samples))
        for _ in range(epochs):
            loss = 0.0
            weight_acc: Dict[Tuple[int, int], float] = {}
            bias_acc: Dict[int, float] = {}
            for inputs, targets in samples:
                outputs, _values, _pre = self.forward(inputs)
                errors = [o - t for o, t in zip(outputs, targets)]
                loss += 0.5 * sum(e * e for e in errors) / n
                wg, bg = self.gradients(inputs, [e / n for e in errors])
                for key, g in wg.items():
                    weight_acc[key] = weight_acc.get(key, 0.0) + g
                for key, g in bg.items():
                    bias_acc[key] = bias_acc.get(key, 0.0) + g
            for key, g in weight_acc.items():
                w = self.weights[key] - learning_rate * g
                if weight_clip is not None:
                    w = max(-weight_clip, min(weight_clip, w))
                self.weights[key] = w
            for key, g in bias_acc.items():
                b = self.biases[key] - learning_rate * g
                if weight_clip is not None:
                    b = max(-weight_clip, min(weight_clip, b))
                self.biases[key] = b
            result.losses.append(loss)
        return result

    def write_back(self) -> Genome:
        """Copy trained weights/biases into the underlying genome."""
        for key, weight in self.weights.items():
            self.genome.connections[key].weight = weight
        for node_id, bias in self.biases.items():
            self.genome.nodes[node_id].bias = bias
        return self.genome
