"""Lanes: a population compiled in one array pass and stepped together.

This is the software twin of the paper's packed waves (Section IV-A),
where the System CPU's vectorize routine packs a whole generation's ready
nodes into ADAM's input vectors.  Here a population's genomes are
levelised together, in numpy, into plans laid out side by side, so one
numpy call per wave advances every in-flight episode of a generation.

* :func:`compile_network` — the per-genome half: one genome's node genes
  and enabled connection genes, as rows for the pass.
* :class:`StackedPlans` — the pass: a population's rows levelised at once
  into one int and one float table, lane-last, padded per wave to a
  common shape.  Genomes the lanes cannot run are set aside for the
  scalar walk.
* :class:`LaneRunner` — one column per (genome, episode) *lane*, the
  policy :meth:`repro.envs.evaluate.Executor.lanes` steps in lockstep
  through a batched environment.

There are two compilers, chosen by execution shape:
:meth:`repro.neat.network.FeedForwardNetwork.create` compiles one genome
for the scalar walk, and the pass compiles a population for the lanes
and ADAM's cost envelope.  They lay out the
same plan: ``tests/test_compile_pass.py`` checks the tables against
``create``'s plans packed one by one.

The lanes compute the plan's arithmetic (see :mod:`repro.neat.network`)
operation for operation: each node's products are added one fan slot at
a time, strictly left to right (no ``matmul``/``einsum``/``add.reduce``,
whose order is pairwise or BLAS's and may fuse multiply-adds), then
``bias + response * acc`` and the activation's array form.  A lane's
outputs are therefore the scalar walk's bits, whatever it is stacked
with.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Sequence

import numpy as np

from .activations import ACTIVATION_CODES, ACTIVATION_NAMES, ACTIVATIONS
from .config import GenomeConfig
from .genes import ConnectionGene, NodeGene
from .genome import Genome


class GenomeRows(NamedTuple):
    """One genome's genes as :class:`StackedPlans` reads them."""

    key: int
    nodes: Dict[int, NodeGene]
    #: The enabled connection genes, in connection order.
    links: List[ConnectionGene]


def compile_network(genome: Genome, config: GenomeConfig) -> GenomeRows:
    """``genome``'s rows for :class:`StackedPlans`, which levelises and
    lays out a whole population's rows at once.

    The call shape is the per-genome compiler's,
    ``FeedForwardNetwork.create(genome, config)``; the rows do not depend
    on ``config``, which the pass takes once for the population.
    """
    return GenomeRows(
        genome.key, genome.nodes,
        [conn for conn in genome.connections.values() if conn.enabled],
    )


def unsupported(genome_key: int, activation: str, aggregation: str) -> str:
    """Why a genome cannot run on the lanes (or on ADAM's systolic waves):
    a wave of multiply-accumulates expresses only sum aggregation."""
    return (
        f"genome {genome_key} uses activation {activation!r} with "
        f"aggregation {aggregation!r}; lanes run the activation table with "
        "sum aggregation only"
    )


_KEY, _WEIGHT = attrgetter("key"), attrgetter("weight")
_BIAS, _RESPONSE = attrgetter("bias"), attrgetter("response")
_ACTIVATION, _AGGREGATION = attrgetter("activation"), attrgetter("aggregation")
#: Activation code of a name outside the table.
_UNKNOWN = len(ACTIVATION_CODES)
_LAST = np.iinfo(np.int64).max


def _rank_in_runs(groups: np.ndarray) -> np.ndarray:
    """Each element's position in its run of equal values of ``groups``."""
    index = np.arange(len(groups))
    starts = np.ones(len(groups), dtype=bool)
    starts[1:] = groups[1:] != groups[:-1]
    return index - np.maximum.accumulate(np.where(starts, index, 0))


class StackedPlans:
    """A population's plans as one int and one float table, lane-last.

    Built by one pass over every genome's rows at once, under the
    population's ``config`` (its input and output keys): the nodes an
    output needs by backward reachability from the outputs, each one's
    wave as its longest path from a node fed by inputs only (``create``'s
    Kahn waves), then one sort for the (plan, wave, node key) order and
    one for the (node, source key) order of the links, and one scatter
    per table.  A genome with a cycle through a required node raises
    ``ValueError``, and one whose required node has no node gene raises
    ``KeyError``, as ``create`` does.  A genome with a required node the
    lanes cannot run (an aggregation other than sum, or an activation
    outside the table) gets no plan: :attr:`fallback` maps its row index
    to the reason, and the scalar walk runs it.

    Each table has one column per plan, in row order.  Wave ``l`` is
    padded to the most nodes ``N`` any plan has in it and the widest
    fan-in ``F`` (at least 1) of any of those nodes, and owns a
    contiguous block of ``(F + 2) * N`` rows in both tables:

    * ``F * N`` link rows, fan slot major: the source column (int) and
      the weight (float).  A padded slot reads the zero column, which
      nothing writes, with weight ``-0.0``: its product is ``-0.0``,
      which adds nothing.
    * ``N`` node rows: the column written (int; padding writes the trash
      column, which nothing reads) and the bias (float);
    * ``N`` node rows: the activation code (int, -1 for padding) and the
      response (float).

    A plan's value columns are ``create``'s: inputs, then outputs, then
    each other node in (wave, key) order.  Activation codes number the
    population's activations in order of first use over (wave, plan,
    node).  The int table ends with the input and output columns, one
    row each.
    """

    def __init__(self, rows: Sequence[GenomeRows], config: GenomeConfig) -> None:
        if not rows:
            raise ValueError("cannot stack an empty genome list")
        ni = self.num_inputs = config.num_inputs
        no = self.num_outputs = config.num_outputs
        genomes = len(rows)

        # Every genome's genes as flat arrays, node genes first.
        node_dicts = [r.nodes for r in rows]
        genes = list(chain.from_iterable(map(dict.values, node_dicts)))
        counts = np.fromiter(map(len, node_dicts), dtype=np.intp, count=genomes)
        node_genome = np.repeat(np.arange(genomes), counts)
        node_key = np.fromiter(chain.from_iterable(node_dicts), np.int64, len(genes))
        link_lists = [r.links for r in rows]
        links = list(chain.from_iterable(link_lists))
        counts = np.fromiter(map(len, link_lists), dtype=np.intp, count=genomes)
        link_genome = np.repeat(np.arange(genomes), counts)
        ends = np.fromiter(
            chain.from_iterable(map(_KEY, links)), np.int64, 2 * len(links)
        ).reshape(-1, 2)
        weight = np.fromiter(map(_WEIGHT, links), np.float64, len(links))
        src, dst = ends[:, 0], ends[:, 1]
        from_input = (src < 0) & (src >= -ni)  # GenomeConfig.input_keys

        # Node ids: every (genome, key) position in one sorted array.  An
        # endpoint or output with no node gene gets a node of its own so
        # that levelising sees it, as ``create`` does.
        lowest = min(-ni, int(ends.min(initial=0)), int(node_key.min(initial=0)))
        span = max(no, int(ends.max(initial=0)), int(node_key.max(initial=0))) + 1 - lowest
        place = node_genome * span + (node_key - lowest)
        wanted = np.concatenate([
            link_genome * span + (dst - lowest),
            link_genome[~from_input] * span + (src[~from_input] - lowest),
            (np.arange(genomes)[:, None] * span + (np.arange(no) - lowest)).ravel(),
        ])

        def find():
            order = np.argsort(place, kind="stable")
            at = order[np.minimum(np.searchsorted(place[order], wanted), len(place) - 1)]
            return at, place[at] == wanted

        found, hit = find()
        if not hit.all():
            place = np.concatenate([place, np.unique(wanted[~hit])])
            found, hit = find()
        num_nodes = len(place)
        node_genome, node_key = np.divmod(place, span)
        node_key += lowest
        dst_node = found[: len(dst)]
        src_node = np.zeros(len(src), dtype=np.intp)
        src_node[~from_input] = found[len(dst) : len(wanted) - genomes * no]
        output_node = found[len(wanted) - genomes * no :]

        # Required nodes: backward reachability from the outputs.
        required = np.zeros(num_nodes, dtype=bool)
        required[output_node] = True
        edge_src, edge_dst = src_node[~from_input], dst_node[~from_input]
        while True:
            fed = edge_src[required[edge_dst]]
            fed = fed[~required[fed]]
            if not len(fed):
                break
            required[fed] = True
        # Waves: longest-path levels over the required nodes' links.  A
        # path visits each of its genome's required nodes at most once, so
        # levels still rising after that many rounds mean a cycle.
        live = required[edge_dst]
        edge_src, edge_dst = edge_src[live], edge_dst[live]
        level = np.zeros(num_nodes, dtype=np.intp)
        cyclic = np.zeros(genomes, dtype=bool)
        for _ in range(int(np.bincount(node_genome[required]).max(initial=0))):
            step = level[edge_src] + 1
            late = step > level[edge_dst]
            if not late.any():
                break
            np.maximum.at(level, edge_dst[late], step[late])
        else:
            cyclic[node_genome[edge_dst[late]]] = True
        missing = required.copy()
        missing[: len(genes)] = False
        if cyclic.any() or missing.any():
            self._raise(cyclic, missing, node_genome, level, node_key)

        # Genomes with a required node the lanes cannot run fall back.
        activation = np.fromiter(
            map(ACTIVATION_CODES.get, map(_ACTIVATION, genes), repeat(_UNKNOWN)),
            np.intp, len(genes),
        )
        summed = np.fromiter(map("sum".__eq__, map(_AGGREGATION, genes)), bool, len(genes))
        bad = np.flatnonzero(required[: len(genes)] & ((activation == _UNKNOWN) | ~summed))
        bad = bad[np.lexsort((node_key[bad], level[bad], node_genome[bad]))]
        first_bad = bad[np.unique(node_genome[bad], return_index=True)[1]]
        #: Row index -> why the lanes cannot run that genome.
        self.fallback: Dict[int, str] = {
            int(node_genome[i]): unsupported(
                rows[node_genome[i]].key, genes[i].activation, genes[i].aggregation
            )
            for i in first_bad
        }
        keep = np.ones(genomes, dtype=bool)
        keep[node_genome[first_bad]] = False
        #: Row index of each plan (table column).
        self.compiled: List[int] = np.flatnonzero(keep).tolist()
        num_plans = len(self.compiled)
        plan_of = np.cumsum(keep) - 1

        # The plans' nodes in (plan, wave, key) order; ``slot`` is a node's
        # place in its wave.
        node = np.flatnonzero(required & keep[node_genome])
        plan, wave = plan_of[node_genome[node]], level[node]
        depth = int(wave.max(initial=-1)) + 1
        order = np.argsort((plan * depth + wave) * span + (node_key[node] - lowest))
        node, plan, wave = node[order], plan[order], wave[order]
        key = node_key[node]
        slot = _rank_in_runs(plan * depth + wave)
        hidden = (key < 0) | (key >= no)  # output keys are 0..no-1
        before = np.cumsum(hidden) - hidden
        column = np.where(
            hidden,
            ni + no + before - before[np.arange(len(node)) - _rank_in_runs(plan)],
            ni + key,
        )
        node_column = np.zeros(num_nodes, dtype=np.intp)
        node_column[node] = column
        position = np.zeros(num_nodes, dtype=np.intp)
        position[node] = np.arange(len(node))

        # Their links in (node, source key) order; ``fan`` is a link's fan slot.
        link = np.flatnonzero(required[dst_node] & keep[link_genome])
        link = link[np.argsort(position[dst_node[link]] * span + (src[link] - lowest))]
        target = position[dst_node[link]]
        fan = _rank_in_runs(target)
        source = np.where(from_input[link], -1 - src[link], node_column[src_node[link]])

        width = np.zeros(depth, dtype=np.intp)
        np.maximum.at(width, wave, slot + 1)
        fan_in = np.ones(depth, dtype=np.intp)
        np.maximum.at(fan_in, wave[target], fan + 1)
        size = (fan_in + 2) * width
        first_row = np.cumsum(size) - size
        io_row = int(size.sum())
        num_io = ni + no

        #: Multiply-accumulates of one forward pass, and waves, per plan.
        self.macs = np.bincount(plan[target], minlength=num_plans)
        self.depths = np.zeros(num_plans, dtype=np.intp)
        np.maximum.at(self.depths, plan, wave + 1)
        zero_col = int((ni + no + np.bincount(plan[hidden], minlength=num_plans)).max(initial=num_io))
        self.num_columns = zero_col + 2

        # Activation codes in order of first use over (wave, plan, slot).
        activation = activation[node]
        first = np.full(_UNKNOWN, _LAST, dtype=np.int64)
        np.minimum.at(first, activation, (wave * num_plans + plan) * int(width.max(initial=0)) + slot)
        used = np.flatnonzero(first < _LAST)
        used = used[np.argsort(first[used])]
        code_of = np.zeros(_UNKNOWN, dtype=np.intp)
        code_of[used] = np.arange(len(used))
        code = code_of[activation]
        #: Array forms of every activation the population uses, by code.
        self.act_fns: List[Callable[[np.ndarray], np.ndarray]] = [
            ACTIVATIONS[ACTIVATION_NAMES[i]][1] for i in used
        ]
        low = np.full(depth, _UNKNOWN, dtype=np.intp)
        np.minimum.at(low, wave, code)
        high = np.zeros(depth, dtype=np.intp)
        np.maximum.at(high, wave, code)

        # Padding first, then one scatter per table.
        fill = np.empty(io_row + num_io, dtype=np.intp)
        pad = np.zeros(io_row)
        #: Int rows holding value-buffer columns (all but the codes).
        self.column_rows = np.ones(len(fill), dtype=bool)
        fill[io_row:] = np.arange(num_io)
        #: Per wave: its link rows, its node count, the fan slots after
        #: the first (as slices of the wave's products), its node rows
        #: (target column / bias) and code rows (activation code /
        #: response), and the one activation serving every real node (the
        #: common single-option config), or None when the wave mixes.
        self.waves = []
        for l in range(depth):
            row, nodes = int(first_row[l]), int(width[l])
            node_row = row + int(fan_in[l]) * nodes
            code_row = node_row + nodes
            fill[row:node_row] = zero_col
            pad[row:node_row] = -0.0
            fill[node_row:code_row] = zero_col + 1  # the trash column
            fill[code_row : code_row + nodes] = -1
            self.column_rows[code_row : code_row + nodes] = False
            self.waves.append((
                slice(row, node_row),
                nodes,
                [slice(at, at + nodes) for at in range(nodes, node_row - row, nodes)],
                slice(node_row, code_row),
                slice(code_row, code_row + nodes),
                self.act_fns[low[l]] if low[l] == high[l] else None,
            ))
        ints = np.empty((len(fill), num_plans), dtype=np.intp)
        ints[:] = fill[:, None]
        floats = np.empty((io_row, num_plans))
        floats[:] = pad[:, None]
        node_row = first_row[wave] + fan_in[wave] * width[wave] + slot
        link_row = first_row[wave[target]] + fan * width[wave[target]] + slot[target]
        ints[link_row, plan[target]] = source
        floats[link_row, plan[target]] = weight[link]
        ints[node_row, plan] = column
        floats[node_row, plan] = np.fromiter(map(_BIAS, genes), np.float64, len(genes))[node]
        ints[node_row + width[wave], plan] = code
        floats[node_row + width[wave], plan] = np.fromiter(
            map(_RESPONSE, genes), np.float64, len(genes)
        )[node]
        self.ints, self.floats = ints, floats
        self.inputs = slice(io_row, io_row + ni)
        self.outputs = slice(self.inputs.stop, self.inputs.stop + no)

    @staticmethod
    def _raise(cyclic, missing, node_genome, level, node_key) -> None:
        """``create``'s error for the first genome that cannot be
        levelised: ``ValueError`` for a cycle, else ``KeyError`` naming its
        first required node without a node gene, in wave order."""
        absent = np.flatnonzero(missing)
        genome = min(np.flatnonzero(cyclic).tolist() + node_genome[absent].tolist())
        if cyclic[genome]:
            raise ValueError("graph is cyclic or has unreachable required nodes")
        absent = absent[node_genome[absent] == genome]
        raise KeyError(int(node_key[absent[np.lexsort((node_key[absent], level[absent]))[0]]]))

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
