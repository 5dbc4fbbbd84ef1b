"""Compiled batch inference: levelised genomes as dense numpy plans.

This is the software twin of the paper's *vectorize routine* (Section
IV-A): the same :func:`feed_forward_layers` levelisation that
:class:`repro.hw.adam.ADAM` packs into systolic waves is compiled here
into per-layer dense weight/bias/response arrays, and a whole
population's same-shape plans are padded and stacked so one numpy call
advances every in-flight episode of a generation at once.

Three levels compose:

* :func:`compile_network` — genome → :class:`CompiledNetwork`, a dense
  per-layer plan functionally equivalent to
  :class:`repro.neat.network.FeedForwardNetwork` (property-tested to
  1e-9, and against the ADAM systolic model).
* :class:`StackedPlans` — pads a population's plans to a common
  ``(layers, nodes, columns)`` envelope and stacks them, giving each
  genome its own weight block but one shared execution shape.
* :class:`LaneRunner` — one row per (genome, episode) *lane*, the
  policy :meth:`repro.envs.evaluate.Executor.lanes` steps in lockstep
  through a batched environment.

Only sum-aggregation genomes with registered vectorizable activations
compile; anything else raises :class:`CompileError` (the executor falls
back to the scalar network for those genomes, so mixed populations still
evaluate correctly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import GenomeConfig
from .genome import Genome
from .network import feed_forward_layers


class CompileError(ValueError):
    """Raised for genomes the dense compiler cannot express."""


# ---------------------------------------------------------------------------
# vectorized activations
#
# Each entry mirrors its scalar twin in repro.neat.activations operation
# for operation (same clamps, same formula) so compiled outputs agree
# with the node-by-node reference to float rounding.


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(5.0 * z, -60.0, 60.0)))


def _tanh(z):
    return np.tanh(np.clip(2.5 * z, -60.0, 60.0))


def _sin(z):
    return np.sin(np.clip(5.0 * z, -60.0, 60.0))


def _gauss(z):
    z = np.clip(z, -3.4, 3.4)
    return np.exp(-5.0 * z * z)


def _relu(z):
    return np.where(z > 0.0, z, 0.0)


def _elu(z):
    # exp() evaluated on the clipped negative branch only, so the unused
    # half of the where() never overflows.
    return np.where(z > 0.0, z, np.exp(np.clip(z, -60.0, 0.0)) - 1.0)


def _lelu(z):
    return np.where(z > 0.0, z, 0.005 * z)


def _identity(z):
    return z


def _clamped(z):
    return np.clip(z, -1.0, 1.0)


def _inv(z):
    small = np.abs(z) < 1e-7
    return np.where(small, 0.0, 1.0 / np.where(small, 1.0, z))


def _log(z):
    return np.log(np.maximum(1e-7, z))


def _exp(z):
    return np.exp(np.clip(z, -60.0, 60.0))


def _abs(z):
    return np.abs(z)


def _hat(z):
    return np.maximum(0.0, 1.0 - np.abs(z))


def _square(z):
    z = np.clip(z, -1e8, 1e8)
    return z * z


def _cube(z):
    z = np.clip(z, -1e6, 1e6)
    return z * z * z


_VECTORIZED: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sigmoid": _sigmoid,
    "tanh": _tanh,
    "sin": _sin,
    "gauss": _gauss,
    "relu": _relu,
    "elu": _elu,
    "lelu": _lelu,
    "identity": _identity,
    "clamped": _clamped,
    "inv": _inv,
    "log": _log,
    "exp": _exp,
    "abs": _abs,
    "hat": _hat,
    "square": _square,
    "cube": _cube,
}


def register_vectorized_activation(
    name: str, function: Callable[[np.ndarray], np.ndarray]
) -> None:
    """Register a numpy twin for a custom scalar activation."""
    if not callable(function):
        raise TypeError(f"vectorized activation {name!r} is not callable")
    _VECTORIZED[name] = function


def vectorized_activation_names() -> List[str]:
    return sorted(_VECTORIZED)


# ---------------------------------------------------------------------------
# per-genome compilation


@dataclass
class LayerPlan:
    """One levelisation wave as dense arrays over the value buffer."""

    node_cols: List[int]  # value-buffer column written per updated node
    links: List[List[Tuple[int, float]]]  # per node: (source column, weight)
    bias: np.ndarray  # (n,)
    response: np.ndarray  # (n,)
    activations: Tuple[str, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.node_cols)


class CompiledNetwork:
    """Dense per-layer execution plan for one genome.

    The value buffer lays inputs out at columns ``0..num_inputs-1`` (in
    ``config.input_keys`` order) and outputs at the next ``num_outputs``
    columns, identically for every genome of a population, so stacked
    plans can share observation scatter and output gather.
    """

    def __init__(
        self,
        genome_key: int,
        num_inputs: int,
        num_outputs: int,
        num_columns: int,
        layers: List[LayerPlan],
        num_macs: int,
    ) -> None:
        self.genome_key = genome_key
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.num_columns = num_columns
        self.layers = layers
        self.num_macs = num_macs
        self._dense: Optional[List[np.ndarray]] = None

    def _dense_weights(self) -> List[np.ndarray]:
        if self._dense is None:
            self._dense = []
            for layer in self.layers:
                weights = np.zeros((layer.num_nodes, self.num_columns))
                for row, links in enumerate(layer.links):
                    for col, weight in links:
                        weights[row, col] = weight
                self._dense.append(weights)
        return self._dense

    def activate_batch(self, observations: np.ndarray) -> np.ndarray:
        """Forward ``(batch, num_inputs)`` observations to ``(batch, num_outputs)``."""
        observations = np.asarray(observations, dtype=np.float64)
        if observations.ndim != 2 or observations.shape[1] != self.num_inputs:
            raise ValueError(
                f"expected (batch, {self.num_inputs}) observations, "
                f"got {observations.shape}"
            )
        batch = observations.shape[0]
        values = np.zeros((batch, self.num_columns))
        values[:, : self.num_inputs] = observations
        for layer, weights in zip(self.layers, self._dense_weights()):
            pre = layer.bias + layer.response * (values @ weights.T)
            post = np.zeros_like(pre)
            for name in set(layer.activations):
                rows = [i for i, a in enumerate(layer.activations) if a == name]
                post[:, rows] = _VECTORIZED[name](pre[:, rows])
            values[:, layer.node_cols] = post
        return values[:, self.num_inputs : self.num_inputs + self.num_outputs]

    def activate(self, inputs: Sequence[float]) -> List[float]:
        """Single forward pass, mirroring ``FeedForwardNetwork.activate``."""
        return list(self.activate_batch(np.asarray(inputs, dtype=np.float64)[None, :])[0])


def compile_network(genome: Genome, config: GenomeConfig) -> CompiledNetwork:
    """Levelise ``genome`` and build its dense per-layer plan.

    Raises :class:`CompileError` for genomes a matrix-vector wave cannot
    express: non-sum aggregations and activations without a registered
    numpy twin (the same restriction the ADAM systolic model has).
    """
    enabled = [key for key, conn in genome.connections.items() if conn.enabled]
    layers = feed_forward_layers(config.input_keys, config.output_keys, enabled)
    incoming: Dict[int, List[Tuple[int, float]]] = {}
    for (src, dst), conn in genome.connections.items():
        if conn.enabled:
            incoming.setdefault(dst, []).append((src, conn.weight))

    columns: Dict[int, int] = {key: i for i, key in enumerate(config.input_keys)}
    for key in config.output_keys:
        columns.setdefault(key, len(columns))

    plan_layers: List[LayerPlan] = []
    num_macs = 0
    for layer in layers:
        nodes = list(layer)
        links_by_node = {n: sorted(incoming.get(n, [])) for n in nodes}
        # Sources first (sorted), then the layer's own nodes: matches the
        # scalar evaluator's sorted-link iteration for reproducibility.
        for src in sorted({s for n in nodes for s, _ in links_by_node[n]}):
            columns.setdefault(src, len(columns))
        for n in nodes:
            columns.setdefault(n, len(columns))
        bias = np.empty(len(nodes))
        response = np.empty(len(nodes))
        activations = []
        links: List[List[Tuple[int, float]]] = []
        for row, n in enumerate(nodes):
            node = genome.nodes[n]
            if node.aggregation != "sum":
                raise CompileError(
                    f"node {n} uses aggregation {node.aggregation!r}; "
                    "dense plans pack sum-aggregation genomes only"
                )
            if node.activation not in _VECTORIZED:
                raise CompileError(
                    f"node {n} uses activation {node.activation!r} with no "
                    "registered vectorized twin"
                )
            bias[row] = node.bias
            response[row] = node.response
            activations.append(node.activation)
            links.append([(columns[s], w) for s, w in links_by_node[n]])
            num_macs += len(links_by_node[n])
        plan_layers.append(
            LayerPlan(
                node_cols=[columns[n] for n in nodes],
                links=links,
                bias=bias,
                response=response,
                activations=tuple(activations),
            )
        )
    return CompiledNetwork(
        genome_key=genome.key,
        num_inputs=len(config.input_keys),
        num_outputs=len(config.output_keys),
        num_columns=len(columns),
        layers=plan_layers,
        num_macs=num_macs,
    )


# ---------------------------------------------------------------------------
# population stacking


class StackedPlans:
    """A population's plans padded to one envelope and stacked.

    Every genome gets its own ``(layers, nodes, columns)`` weight block;
    padding rows carry zero bias/response and scatter into a trash
    column, so one batched matmul per layer serves structurally diverse
    genomes without grouping.  ``PAD`` activation slots are written as
    0.0 (finite), keeping the trash column out of NaN territory for the
    full-width products of later layers.
    """

    def __init__(self, plans: Sequence[CompiledNetwork]) -> None:
        if not plans:
            raise ValueError("cannot stack an empty plan list")
        self.plans = list(plans)
        self.num_inputs = plans[0].num_inputs
        self.num_outputs = plans[0].num_outputs
        num_plans = len(plans)
        self.num_layers = max(len(p.layers) for p in plans)
        max_nodes = max((l.num_nodes for p in plans for l in p.layers), default=1)
        max_cols = max(p.num_columns for p in plans)
        self.trash_col = max_cols
        self.num_columns = max_cols + 1

        shape = (num_plans, self.num_layers, max_nodes)
        self.weights = np.zeros(shape + (self.num_columns,))
        self.bias = np.zeros(shape)
        self.response = np.zeros(shape)
        self.node_cols = np.full(shape, self.trash_col, dtype=np.intp)
        self.macs = np.array([p.num_macs for p in plans], dtype=np.int64)
        # -1 marks padding; real slots hold an index into self.act_fns.
        self.act_codes = np.full(shape, -1, dtype=np.int16)
        act_index: Dict[str, int] = {}
        self.act_fns: List[Callable[[np.ndarray], np.ndarray]] = []
        for g, plan in enumerate(plans):
            for l, layer in enumerate(plan.layers):
                n = layer.num_nodes
                self.bias[g, l, :n] = layer.bias
                self.response[g, l, :n] = layer.response
                self.node_cols[g, l, :n] = layer.node_cols
                for row, links in enumerate(layer.links):
                    for col, weight in links:
                        self.weights[g, l, row, col] = weight
                for row, name in enumerate(layer.activations):
                    if name not in act_index:
                        act_index[name] = len(self.act_fns)
                        self.act_fns.append(_VECTORIZED[name])
                    self.act_codes[g, l, row] = act_index[name]
        #: Per layer: the single activation serving every real slot (the
        #: overwhelmingly common single-option config fast path), or None
        #: when the layer mixes activations and needs per-code masking.
        self.layer_act: List[Optional[Callable[[np.ndarray], np.ndarray]]] = []
        for l in range(self.num_layers):
            codes = {c for c in self.act_codes[:, l].ravel().tolist() if c >= 0}
            if len(codes) == 1:
                self.layer_act.append(self.act_fns[codes.pop()])
            elif not codes:  # all-padding layer (cannot happen for l < depth)
                self.layer_act.append(_identity)
            else:
                self.layer_act.append(None)

    def lane_runner(self, lane_plans: Sequence[int]) -> "LaneRunner":
        """A rollout view with one row per lane (``lane_plans[i]`` is the
        plan index backing lane ``i``)."""
        return LaneRunner(self, np.asarray(lane_plans, dtype=np.intp))


class LaneRunner:
    """Per-lane compacted view of :class:`StackedPlans` for one rollout.

    Implements the ``step(obs) -> outputs`` / ``prune(keep)`` policy
    protocol of :func:`repro.envs.evaluate.run_episodes_batched`.  All
    per-lane arrays are gathered once at construction and compacted in
    step with the environment, so the hot loop is pure sliced numpy.
    """

    def __init__(self, stacked: StackedPlans, lane_plans: np.ndarray) -> None:
        self._stacked = stacked
        self.weights = stacked.weights[lane_plans]
        self.bias = stacked.bias[lane_plans]
        self.response = stacked.response[lane_plans]
        self.node_cols = stacked.node_cols[lane_plans]
        self.act_codes = stacked.act_codes[lane_plans]
        self.num_inputs = stacked.num_inputs
        self.num_outputs = stacked.num_outputs
        self.num_columns = stacked.num_columns

    def step(self, observations: np.ndarray) -> np.ndarray:
        stacked = self._stacked
        lanes = observations.shape[0]
        values = np.zeros((lanes, self.num_columns))
        values[:, : self.num_inputs] = observations
        rows = np.arange(lanes)[:, None]
        for l in range(stacked.num_layers):
            pre = self.bias[:, l] + self.response[:, l] * np.matmul(
                self.weights[:, l], values[:, :, None]
            )[:, :, 0]
            layer_fn = stacked.layer_act[l]
            if layer_fn is not None:
                post = layer_fn(pre)
            else:
                post = np.zeros_like(pre)
                codes = self.act_codes[:, l]
                for code, fn in enumerate(stacked.act_fns):
                    mask = codes == code
                    if mask.any():
                        post[mask] = fn(pre[mask])
            values[rows, self.node_cols[:, l]] = post
        return values[:, self.num_inputs : self.num_inputs + self.num_outputs]

    def prune(self, keep: np.ndarray) -> None:
        self.weights = self.weights[keep]
        self.bias = self.bias[keep]
        self.response = self.response[keep]
        self.node_cols = self.node_cols[keep]
        self.act_codes = self.act_codes[keep]
