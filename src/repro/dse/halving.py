"""Successive halving with Pareto-aware promotion: pay less for losers.

A full sweep spends ``max_generations`` on every point, including the
ones whose fate is obvious after a generation or two.  Successive
halving (Jamieson & Talwalkar's bandit formulation, the core of
Hyperband) runs the whole population at a small generation budget first,
then promotes only the promising fraction to each successively larger
budget — the *rungs* — so the total budget concentrates on the points
that might actually win.

The promotion rule here is **Pareto-aware**: a rung's survivors are the
top ``ceil(n / reduction)`` by the primary objective *union the rung's
entire Pareto frontier* under all objectives.  The union guarantee is
what the property tests pin: no point that is non-dominated at its rung
is ever pruned, so a multi-objective study (fitness vs energy, the
paper's Fig. 11 trade-off) cannot lose a frontier candidate to a
single-metric cut-off.

Every rung evaluation flows through the ordinary
:class:`repro.dse.SweepRunner` with the point's spec re-budgeted to the
rung's ``max_generations`` — so rung results are content-hash cached
like any other point, and the final rung (always the sweep's full
budget) produces records byte-identical to an unpruned sweep's for the
surviving points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from .. import obs
from .pareto import ObjectiveError, pareto_front
from .runner import PointEvaluator, ProgressObserver, SweepResult, SweepRunner
from .spec import SweepPoint, SweepSpec, SweepSpecError


class HalvingError(SweepSpecError):
    """Raised for invalid successive-halving configurations."""


def halving_budgets(
    final: int, reduction: int = 3, min_generations: int = 1
) -> List[int]:
    """The default rung budgets: geometric steps up to ``final``.

    Derived downward from the full budget (``final``, ``final //
    reduction``, …) and clipped at ``min_generations``, then reversed —
    so the last rung is always the sweep's own ``max_generations`` and
    rung results there are interchangeable with an unpruned sweep's.
    """
    if final < 1:
        raise HalvingError("final budget must be >= 1 generation")
    if reduction < 2:
        raise HalvingError("reduction factor must be >= 2")
    if min_generations < 1:
        raise HalvingError("min_generations must be >= 1")
    budgets = [final]
    while budgets[0] > min_generations:
        step = max(min_generations, budgets[0] // reduction)
        if step >= budgets[0]:
            break
        budgets.insert(0, step)
    return budgets


@dataclass
class HalvingResult:
    """The outcome of one successive-halving run.

    ``states`` maps every expansion index to its terminal state —
    ``"survivor"`` or ``"pruned:rung<i>"`` — and partitions the sweep:
    each point lands in exactly one state.  ``rows`` are the survivors'
    final-rung rows (full budget, cache-compatible with an unpruned
    sweep).  ``rung_rows[i]`` keeps every rung's full table for audits
    and the property tests.
    """

    sweep: SweepSpec
    objectives: Dict[str, str]
    reduction: int
    budgets: List[int]
    rungs: List[Dict[str, Any]] = field(default_factory=list)
    rung_rows: List[List[Dict[str, Any]]] = field(default_factory=list)
    states: Dict[int, str] = field(default_factory=dict)
    rows: List[Dict[str, Any]] = field(default_factory=list)
    scheduled_generations: int = 0
    full_generations: int = 0
    cache_dir: Optional[str] = None

    @property
    def budget_fraction(self) -> float:
        """Scheduled generations as a fraction of the unpruned sweep's."""
        if self.full_generations == 0:
            return 1.0
        return self.scheduled_generations / self.full_generations

    def pareto_front(self) -> List[Dict[str, Any]]:
        """Non-dominated survivor rows under the run's objectives."""
        return pareto_front(self.rows, self.objectives)

    def to_result(self) -> SweepResult:
        """The survivor table as an ordinary :class:`SweepResult` (for
        ``--export``, ``--group-by`` and friends)."""
        return SweepResult(
            sweep=self.sweep, rows=self.rows, cache_dir=self.cache_dir
        )


class SuccessiveHalvingScheduler:
    """Run a sweep through geometric generation-budget rungs.

    ``objectives`` uses the Pareto syntax (``{"fitness": "max",
    "energy_j": "min"}``); the first entry is the *primary* objective
    that ranks the top-``ceil(n/reduction)`` promotion slice.  Points
    are re-budgeted per rung (:func:`halving_budgets`) by replacing their
    spec's ``max_generations``, so a sweep may not itself sweep that field.
    """

    def __init__(
        self,
        sweep: SweepSpec,
        objectives: Mapping[str, str],
        reduction: int = 3,
        min_generations: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        jobs: int = 1,
        evaluate: Optional[PointEvaluator] = None,
        evaluator_version: Optional[str] = None,
        runs_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if not objectives:
            raise HalvingError(
                "successive halving needs at least one objective "
                "(e.g. 'fitness:max')"
            )
        for direction in objectives.values():
            if direction not in ("min", "max"):
                raise ObjectiveError(
                    f"objective direction must be 'min' or 'max', "
                    f"got {direction!r}"
                )
        if "max_generations" in sweep.axes:
            raise HalvingError(
                "successive halving re-budgets max_generations per rung; "
                "a sweep cannot also use it as an axis"
            )
        self.sweep = sweep
        self.objectives = dict(objectives)
        self.reduction = reduction
        self.budgets = halving_budgets(
            sweep.base.max_generations, reduction, min_generations
        )
        self.cache_dir = cache_dir
        self.runner = SweepRunner(
            sweep,
            cache_dir=cache_dir,
            jobs=jobs,
            evaluate=evaluate,
            evaluator_version=evaluator_version,
            runs_dir=runs_dir,
        )

    # -- promotion --------------------------------------------------------

    def _promote(
        self, rows: List[Dict[str, Any]]
    ) -> List[int]:
        """The expansion indexes promoted out of one rung.

        Top ``ceil(n / reduction)`` by the primary objective, union the
        rung's Pareto frontier under all objectives.  Ties on the
        primary break toward the lower expansion index, so promotion is
        deterministic for identical metrics.
        """
        primary, direction = next(iter(self.objectives.items()))
        ranked = [
            row
            for row in rows
            if isinstance(row.get(primary), (int, float))
            and not isinstance(row.get(primary), bool)
        ]
        sign = -1.0 if direction == "max" else 1.0
        ranked.sort(key=lambda row: (sign * float(row[primary]), row["point"]))
        keep = math.ceil(len(rows) / self.reduction)
        promoted = {row["point"] for row in ranked[:keep]}
        promoted |= {
            row["point"]
            for row in pareto_front(rows, self.objectives)
        }
        return sorted(promoted)

    # -- execution --------------------------------------------------------

    def run(self, progress: Optional[ProgressObserver] = None) -> HalvingResult:
        points = self.sweep.expand()
        final = self.budgets[-1]
        result = HalvingResult(
            sweep=self.sweep,
            objectives=dict(self.objectives),
            reduction=self.reduction,
            budgets=list(self.budgets),
            full_generations=final * len(points),
            cache_dir=(
                str(self.runner.cache.root)
                if self.runner.cache is not None
                else None
            ),
        )
        alive = list(points)
        for rung, budget in enumerate(self.budgets):
            budgeted = [
                SweepPoint(
                    index=point.index,
                    axes=dict(point.axes),
                    spec=point.spec.replace(max_generations=budget),
                )
                for point in alive
            ]
            with obs.span(
                "dse.rung", rung=rung, budget=budget, points=len(budgeted)
            ):
                rung_result = self.runner.run(
                    progress=progress, points=budgeted
                )
            rows = rung_result.rows
            result.rung_rows.append(rows)
            result.scheduled_generations += budget * len(budgeted)
            last = rung == len(self.budgets) - 1
            if last:
                promoted = sorted(row["point"] for row in rows)
                pruned: List[int] = []
            else:
                promoted = self._promote(rows)
                pruned = sorted(
                    row["point"] for row in rows
                    if row["point"] not in set(promoted)
                )
            for index in pruned:
                result.states[index] = f"pruned:rung{rung}"
                obs.incr("dse.prune")
            if not last:
                for _ in promoted:
                    obs.incr("dse.promote")
            result.rungs.append(
                {
                    "rung": rung,
                    "budget": budget,
                    "points": len(budgeted),
                    "promoted": len(promoted),
                    "pruned": len(pruned),
                    "frontier": len(pareto_front(rows, self.objectives)),
                }
            )
            keep = set(promoted)
            alive = [point for point in alive if point.index in keep]
            if last:
                for row in rows:
                    result.states[row["point"]] = "survivor"
                result.rows = sorted(rows, key=lambda row: row["point"])
        return result
