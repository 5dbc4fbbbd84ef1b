"""Lanes: a population's compiled plans stepped together.

This is the software twin of the paper's packed waves (Section IV-A):
:meth:`repro.neat.network.FeedForwardNetwork.create` compiles each
genome into its levelised plan once, and here a whole population's plans
are laid out side by side so one numpy call per wave advances every
in-flight episode of a generation at once.

* :func:`compile_network` — genome → plan, for genomes the lanes (and
  ADAM's systolic waves) can run: every node sums its inputs.
* :class:`StackedPlans` — a population's plans as two lane-last tables,
  one int and one float, padded per wave to a common shape.
* :class:`LaneRunner` — one column per (genome, episode) *lane*, the
  policy :meth:`repro.envs.evaluate.Executor.lanes` steps in lockstep
  through a batched environment.

The lanes compute the plan's arithmetic (see :mod:`repro.neat.network`)
operation for operation: each node's products are added one fan slot at
a time, strictly left to right (no ``matmul``/``einsum``/``add.reduce``,
whose order is pairwise or BLAS's and may fuse multiply-adds), then
``bias + response * acc`` and the activation's array form.  A lane's
outputs are therefore the scalar walk's bits, whatever it is stacked
with.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Sequence

import numpy as np

from .activations import ACTIVATIONS
from .config import GenomeConfig
from .genome import Genome
from .network import FeedForwardNetwork


class CompileError(ValueError):
    """Raised for genomes the lanes cannot run."""


def compile_network(genome: Genome, config: GenomeConfig) -> FeedForwardNetwork:
    """``genome``'s plan, for the lanes.

    Raises :class:`CompileError` unless every node uses sum aggregation
    and an activation from the table: a wave of multiply-accumulates
    cannot express the other aggregations (ADAM's systolic array has the
    same restriction).
    """
    plan = FeedForwardNetwork.create(genome, config)
    for layer in plan.layers:
        for activation, aggregation in zip(layer.activations, layer.aggregations):
            if aggregation != "sum" or activation not in ACTIVATIONS:
                raise CompileError(
                    f"genome {genome.key} uses activation {activation!r} with "
                    f"aggregation {aggregation!r}; lanes run the activation "
                    "table with sum aggregation only"
                )
    return plan


def _joined(lists) -> list:
    return list(chain.from_iterable(lists))


class StackedPlans:
    """A population's plans as one int and one float table, lane-last.

    Each table has one column per plan.  Wave ``l`` is padded to the most
    nodes ``N`` any plan has in it and the widest fan-in ``F`` (at least
    1) of any of those nodes, and owns a contiguous block of ``(F + 2) * N``
    rows in both tables:

    * ``F * N`` link rows, fan slot major: the source column (int) and
      the weight (float).  A padded slot reads the zero column, which
      nothing writes, with weight ``-0.0``: its product is ``-0.0``,
      which adds nothing.
    * ``N`` node rows: the column written (int; padding writes the trash
      column, which nothing reads) and the bias (float);
    * ``N`` node rows: the activation code (int, -1 for padding) and the
      response (float).

    The int table ends with the input and output columns, one row each.
    """

    def __init__(self, plans: Sequence[FeedForwardNetwork]) -> None:
        if not plans:
            raise ValueError("cannot stack an empty plan list")
        self.plans = list(plans)
        self.num_inputs = plans[0].num_inputs
        self.num_outputs = plans[0].num_outputs
        self.macs = np.array([p.num_macs for p in plans], dtype=np.int64)
        zero_col = max(p.num_columns for p in plans)
        self.num_columns = zero_col + 2

        # Per wave: the plans reaching it, each with its layer there, and
        # the wave's first row, fan-in and node count.
        shapes = []
        row = 0
        for l in range(max(len(p.layers) for p in plans)):
            members = [(g, p.layers[l]) for g, p in enumerate(plans) if l < len(p.layers)]
            nodes = max(layer.num_nodes for _, layer in members)
            fan = max([1] + [len(links) for _, layer in members for links in layer.links])
            shapes.append((members, row, fan, nodes))
            row += (fan + 2) * nodes
        io_row = row
        num_io = self.num_inputs + self.num_outputs

        ints = np.empty((io_row + num_io, len(plans)), dtype=np.intp)
        floats = np.zeros((io_row, len(plans)))
        #: Int rows holding value-buffer columns (all but the codes).
        self.column_rows = np.ones(len(ints), dtype=bool)
        ints[io_row:] = np.arange(num_io)[:, None]
        act_index: Dict[str, int] = {}
        for members, row, fan, nodes in shapes:
            node_row = row + fan * nodes
            code_row = node_row + nodes
            ints[row:node_row] = zero_col
            floats[row:node_row] = -0.0
            ints[node_row:code_row] = zero_col + 1  # the trash column
            ints[code_row : code_row + nodes] = -1
            self.column_rows[code_row : code_row + nodes] = False
            # The real entries: one per (plan, node j), and one per link,
            # whose fan slot s puts it on row ``row + s * nodes + j``.
            layers = [layer for _, layer in members]
            counts = np.array([layer.num_nodes for layer in layers], dtype=np.intp)
            plan = np.repeat([g for g, _ in members], counts)
            node = np.arange(len(plan)) - np.repeat(np.cumsum(counts) - counts, counts)
            node_links = list(chain.from_iterable(layer.links for layer in layers))
            fans = np.fromiter(map(len, node_links), dtype=np.intp, count=len(node_links))
            slot = np.arange(fans.sum()) - np.repeat(np.cumsum(fans) - fans, fans)
            link_row = row + slot * nodes + np.repeat(node, fans)
            link_plan = np.repeat(plan, fans)
            # (column, weight) pairs; columns are small ints, exact as floats
            pairs = np.fromiter(
                chain.from_iterable(chain.from_iterable(node_links)), dtype=np.float64
            ).reshape(-1, 2)
            ints[link_row, link_plan] = pairs[:, 0]
            floats[link_row, link_plan] = pairs[:, 1]
            ints[node_row + node, plan] = _joined(layer.node_cols for layer in layers)
            floats[node_row + node, plan] = _joined(layer.bias for layer in layers)
            ints[code_row + node, plan] = [
                act_index.setdefault(name, len(act_index))
                for name in _joined(layer.activations for layer in layers)
            ]
            floats[code_row + node, plan] = _joined(layer.response for layer in layers)
        self.ints, self.floats = ints, floats
        #: Array forms of every activation the population uses, by code.
        self.act_fns: List[Callable[[np.ndarray], np.ndarray]] = [
            ACTIVATIONS[name][1] for name in act_index
        ]

        #: Per wave: its link rows, its node count, the fan slots after
        #: the first (as slices of the wave's products), its node rows
        #: (target column / bias) and code rows (activation code /
        #: response), and the one activation serving every real node (the
        #: common single-option config), or None when the wave mixes.
        self.waves = []
        for _, row, fan, nodes in shapes:
            node_row = row + fan * nodes
            codes = slice(node_row + nodes, node_row + 2 * nodes)
            used = np.unique(ints[codes][ints[codes] >= 0])
            self.waves.append((
                slice(row, node_row),
                nodes,
                [slice(at, at + nodes) for at in range(nodes, fan * nodes, nodes)],
                slice(node_row, node_row + nodes),
                codes,
                self.act_fns[used[0]] if len(used) == 1 else None,
            ))
        self.inputs = slice(io_row, io_row + self.num_inputs)
        self.outputs = slice(self.inputs.stop, self.inputs.stop + self.num_outputs)

    def lane_runner(self, lane_plans: Sequence[int]) -> "LaneRunner":
        """A rollout view with one column per lane (``lane_plans[i]`` is
        the plan index backing lane ``i``)."""
        return LaneRunner(self, np.asarray(lane_plans, dtype=np.intp))


class LaneRunner:
    """The tables of :class:`StackedPlans` with one column per lane.

    Implements the ``step(obs) -> outputs`` / ``prune(keep)`` policy
    protocol of :func:`repro.envs.evaluate.run_episodes_batched`.  Lane
    ``i`` keeps slot ``i`` of a ``(columns, lanes)`` value buffer for the
    whole rollout, and its int column holds flat buffer positions, so
    dropping finished lanes is one column selection per table.  Every
    wave reads and writes contiguous row blocks of the tables; a node's
    products are added one fan slot at a time, left to right.

    Lanes finish a few at a time, so :meth:`prune` only drops them from
    the tables once a quarter of the tables' columns have finished;
    until then finished lanes keep computing on their last inputs, and
    only the live lanes' inputs are written and outputs read.
    """

    def __init__(self, stacked: StackedPlans, lane_plans: np.ndarray) -> None:
        self._stacked = stacked
        lanes = len(lane_plans)
        # np.take keeps the tables row-major; a[:, index] would not, and
        # every wave's row block would be strided.
        ints = np.take(stacked.ints, lane_plans, axis=1)
        rows = stacked.column_rows
        ints[rows] = ints[rows] * lanes + np.arange(lanes)
        self.ints = ints
        self.floats = np.take(stacked.floats, lane_plans, axis=1)
        self._values = np.zeros(stacked.num_columns * lanes)
        #: Per table column, its input and output positions in the value
        #: buffer, and the live lanes' table columns.
        self._column_inputs = ints[stacked.inputs].T.copy()
        self._column_outputs = ints[stacked.outputs].T.copy()
        self._live = np.arange(lanes)
        self._inputs, self._outputs = self._column_inputs, self._column_outputs

    def step(self, observations: np.ndarray) -> np.ndarray:
        stacked = self._stacked
        ints, floats, values = self.ints, self.floats, self._values
        values[self._inputs] = observations
        for links, nodes, slots, targets, codes, act in stacked.waves:
            products = values[ints[links]]
            products *= floats[links]
            acc = products[:nodes]
            for slot in slots:
                acc += products[slot]
            # bias + response * acc, in place (IEEE + and * commute exactly)
            acc *= floats[codes]
            acc += floats[targets]
            if act is not None:
                post = act(acc)
            else:
                post = np.zeros_like(acc)
                for code, fn in enumerate(stacked.act_fns):
                    mask = ints[codes] == code
                    if mask.any():
                        post[mask] = fn(acc[mask])
            values[ints[targets]] = post
        return values[self._outputs]

    def prune(self, keep: np.ndarray) -> None:
        live = self._live[keep]
        if 4 * len(live) <= 3 * self.ints.shape[1]:
            self.ints = np.take(self.ints, live, axis=1)
            self.floats = np.take(self.floats, live, axis=1)
            self._column_inputs = self._column_inputs.take(live, axis=0)
            self._column_outputs = self._column_outputs.take(live, axis=0)
            live = np.arange(len(live))
        self._live = live
        self._inputs = self._column_inputs.take(live, axis=0)
        self._outputs = self._column_outputs.take(live, axis=0)
