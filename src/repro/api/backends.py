"""The three experiment backends, one per evaluation substrate.

A backend runs the paper's evolutionary loop for an
:class:`repro.api.ExperimentSpec`.  The spec's ``backend`` key picks
one of three, mirroring the paper's three evaluation substrates:

``software``
    Pure-software NEAT — the CPU baseline path (Section III).
``soc``
    The EvE/ADAM hardware-in-the-loop SoC models (Section IV): selection
    on the System CPU, reproduction on the EvE PEs, inference on ADAM.
``analytical:<platform>``
    Software evolution costed through a platform model named from the
    fixed :mod:`repro.platforms` table (the Table III legend names
    ``CPU_a`` … ``GPU_d``, ``GENESYS`` and the ``soc`` design point's
    analytical projection); adds modelled per-generation runtime and
    energy to the metrics.

Both hardware-substrate backends take their platform from the spec's
:meth:`~repro.api.ExperimentSpec.design_point`, so a custom platform is
a spec's ``platform`` block, carried by value.

The set is fixed, and the spec checks its ``backend`` and ``platform``
against it when it is built, so :func:`make_backend` only dispatches on
``spec.substrate``: a spec names everything that shapes its run and a
resumed, served or swept run rebuilt from ``spec.json`` is the same
run.  All backends return one unified :class:`repro.api.RunResult` and
accept ``on_generation`` / ``on_evaluation`` observer callbacks so
analysis code never reaches into :class:`repro.neat.Population`
internals.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..core.config import GeneSysConfig
from ..core.runner import config_for_env
from ..core.soc import GeneSysSoC
from ..core.trace import GenerationWorkload, _mean_depth
from ..hw.energy import cycles_to_seconds
from ..neat.config import NEATConfig
from ..neat.genome import Genome
from ..neat.population import Population, meets_threshold
from ..platforms import PlatformSpec, make_platform
from .parallel import build_evaluator
from .result import GenerationMetrics, RunResult
from .spec import ExperimentSpec, SpecError

#: Observer fired after each generation with its metrics.
GenerationObserver = Callable[[GenerationMetrics], None]
#: Observer fired once per generation, after fitness assignment, with the
#: evaluated genomes (fitnesses set).
EvaluationObserver = Callable[[int, List[Genome]], None]
#: Observer fired after each generation with the live population at its
#: new generation boundary — the hook :mod:`repro.runs` checkpoints
#: through (``population.to_state()`` is resumable from exactly here).
StateObserver = Callable[[Population], None]
#: Cooperative-stop predicate, polled after each generation with the
#: number of completed generations.  Returning ``True`` ends the run at
#: that boundary — the hook the :mod:`repro.serve` scheduler preempts
#: through (yield at a checkpoint boundary, resume later, bit-identical).
ShouldStop = Callable[[int], bool]


class ResumeUnsupportedError(SpecError):
    """Raised when a backend is handed a resume state it cannot honour."""


# ---------------------------------------------------------------------------
# the generation loop

#: One generation as a substrate reports it: the metrics row, the value
#: the stop rule compares with the fitness threshold, and the number of
#: completed generations (what ``should_stop`` is polled with).
Generation = Tuple[GenerationMetrics, float, int]


def _run_software_loop(
    spec: ExperimentSpec,
    substrate: Union[_SoftwareGenerations, _SoCGenerations],
    backend: str,
    on_generation: Optional[GenerationObserver] = None,
    on_evaluation: Optional[EvaluationObserver] = None,
    on_state: Optional[StateObserver] = None,
    should_stop: Optional[ShouldStop] = None,
) -> RunResult:
    """The one NEAT generation loop (Fig. 3(b)), over any substrate.

    A substrate supplies its generations: ``generation(index,
    on_evaluation)`` evaluates and breeds one, firing ``on_evaluation``
    with the evaluated genomes, and returns a :data:`Generation`.  It
    also carries ``config`` (the threshold), ``start``/``start_value``
    (a resumed run's completed generations and stop value; ``0``/``None``
    on a fresh run), ``population`` (for ``on_state``; ``None`` when
    there is nothing to snapshot), ``champion``, ``between()`` and
    ``close()``.

    After each generation, in order: ``on_generation``, ``on_state``,
    the stop rule ("the system stops when the CPU detects that the
    target fitness ... has been achieved", Section IV-B; ``converged``
    applies it to the champion), ``should_stop`` (the :mod:`repro.serve`
    preemption hook; ``True`` ends the run ``stopped_early``), then the
    substrate's between-generation work.
    """
    threshold = substrate.config.fitness_threshold
    budget = range(substrate.start, spec.max_generations)
    if meets_threshold(substrate.start_value, threshold):
        # A resumed run that had already met the stop rule must not
        # evolve further: the uninterrupted run stopped at that boundary.
        budget = range(0)
    metrics: List[GenerationMetrics] = []
    completed = substrate.start
    stopped = False
    try:
        for index in budget:
            row, value, completed = substrate.generation(index, on_evaluation)
            metrics.append(row)
            if on_generation is not None:
                on_generation(row)
            if on_state is not None and substrate.population is not None:
                on_state(substrate.population)
            if meets_threshold(value, threshold):
                break
            if should_stop is not None and should_stop(completed):
                stopped = True
                break
            substrate.between()
    finally:
        substrate.close()
    champion = substrate.champion
    if champion is None:
        raise RuntimeError("no generations were evaluated")
    return RunResult(
        spec=spec,
        backend=backend,
        champion=champion,
        generations=completed,
        converged=meets_threshold(champion.fitness, threshold),
        stopped_early=stopped,
        metrics=metrics,
        neat_config=substrate.config,
        population=substrate.population,
    )


class _SoftwareGenerations:
    """Software NEAT as a loop substrate: each generation is
    :meth:`repro.neat.Population.run_generation` through
    :func:`build_evaluator`, its row carries the evaluator's env-step
    and MAC deltas, and its stop value is ``fitness_summary()``.

    ``config`` holds the caller's threshold; ``on_workload`` receives
    each row with its :class:`GenerationWorkload` before the loop's
    hooks fire.  ``resume_state`` (a ``Population.to_state()`` payload)
    continues a run from its checkpoint, bit-identically thanks to the
    evaluator's ``start_generation`` seed offset; on a scenario run
    ``resume_metrics`` (the rows already on disk) replays the curriculum
    fold to the same stage, streak and forgetting state.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        config: NEATConfig,
        on_workload: Optional[
            Callable[[GenerationMetrics, GenerationWorkload], None]
        ] = None,
        resume_state: Optional[Dict] = None,
        resume_metrics: Optional[Sequence[Dict]] = None,
    ) -> None:
        self.spec = spec
        self.config = config
        self.on_workload = on_workload
        self.start_value: Optional[float] = None
        if resume_state is not None:
            self.population = Population.from_state(resume_state, config)
            self.start_value = self.population.fitness_summary()
        else:
            self.population = Population(config, seed=spec.seed)
        self.start = self.population.generation
        self.controller = None
        if spec.scenario is not None:
            from ..scenarios import CurriculumController

            self.controller = CurriculumController(spec.scenario)
            if resume_metrics:
                self.controller.restore(resume_metrics)
        self.switched_stage: Optional[int] = None
        self.evaluator = self._evaluator(self.start)

    @property
    def champion(self) -> Optional[Genome]:
        return self.population.best_genome

    def _evaluator(self, generation: int):
        spec = self.spec
        return build_evaluator(
            spec.env_id,
            episodes=spec.episodes,
            max_steps=spec.max_steps,
            seed=spec.seed,
            workers=spec.workers,
            vectorizer=spec.vectorizer,
            start_generation=generation,
            scenario=(
                self.controller.active_scenario()
                if self.controller is not None else None
            ),
        )

    def generation(
        self, index: int, on_evaluation: Optional[EvaluationObserver]
    ) -> Generation:
        population, evaluator = self.population, self.evaluator
        snapshot = dict(population.population) if self.on_workload else None

        def fitness_function(genomes, config):
            evaluator(genomes, config)
            if on_evaluation is not None:
                on_evaluation(index, genomes)

        prev_steps = evaluator.totals.steps
        prev_macs = evaluator.totals.macs
        stats = population.run_generation(fitness_function)
        env_steps = evaluator.totals.steps - prev_steps
        macs = evaluator.totals.macs - prev_macs
        metrics = GenerationMetrics.from_stats(
            stats, env_steps=env_steps, inference_macs=macs
        )
        if self.controller is not None:
            # Annotates the row with the stage it was evaluated under
            # (plus forgetting/recovery) and folds the advancement rule;
            # an advance only affects the *next* generation.
            self.switched_stage = self.controller.step(
                metrics.generation, metrics.best_fitness, metrics
            )
        if self.on_workload is not None:
            # The numpy lanes levelise every genome anyway, so reuse
            # their depths (exactly the feed_forward_layers counts
            # _mean_depth would re-derive) when they are available.
            depth = evaluator.last_mean_depth
            if depth is None:
                depth = _mean_depth(snapshot, self.config.genome)
            self.on_workload(metrics, GenerationWorkload(
                generation=stats.generation,
                population=stats.population_size,
                total_nodes=stats.num_nodes,
                total_connections=stats.num_connections,
                ops=stats.ops,
                env_steps=env_steps,
                inference_macs=macs,
                mean_network_depth=depth,
                fittest_parent_reuse=stats.fittest_parent_reuse,
            ))
        return metrics, population.fitness_summary(), population.generation

    def between(self) -> None:
        """Rebuild the evaluator on a new curriculum stage's environment.

        The seed stream is a pure function of (seed, generation, genome,
        episode), so restarting at this boundary keeps serial, pooled and
        vectorized runs bit-identical."""
        if self.switched_stage is None:
            return
        generation = self.population.generation
        with obs.span(
            "scenario.switch", stage=self.switched_stage, generation=generation
        ):
            obs.incr("scenario.stage_advance")
            self.evaluator.close()
            self.evaluator = self._evaluator(generation)

    def close(self) -> None:
        self.evaluator.close()


class _SoCGenerations:
    """The chip model as a loop substrate: each generation is one
    :meth:`repro.core.GeneSysSoC.run_generation`, its stop value the
    row's best fitness.  The population lives inside the chip model,
    so there is nothing to snapshot and nothing to resume from."""

    start = 0
    start_value = None
    population = None

    def __init__(self, soc: GeneSysSoC) -> None:
        self.soc = soc
        self.config = soc.config.neat

    @property
    def champion(self) -> Optional[Genome]:
        return self.soc.best_genome

    def generation(
        self, index: int, on_evaluation: Optional[EvaluationObserver]
    ) -> Generation:
        soc = self.soc
        if not soc.population:
            soc.initialise_population()
        evaluated = list(soc.population.values())
        report = soc.run_generation()
        if on_evaluation is not None:
            on_evaluation(report.generation, evaluated)
        cycles = report.inference_cycles + report.evolution_cycles
        row = GenerationMetrics.from_stats(
            report.stats,
            env_steps=report.env_steps,
            inference_macs=report.inference.macs,
            energy_j=report.energy.total_energy_j,
            cycles=cycles,
            runtime_s=cycles_to_seconds(cycles, soc.config.frequency_hz),
        )
        return row, row.best_fitness, soc.generation

    def between(self) -> None:
        pass

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# backends


class SoftwareBackend:
    """Pure-software NEAT: the paper's CPU/GPU baseline algorithm."""

    name = "software"
    #: Prices each generation's workload into its row (analytical only).
    _on_workload = None

    def run(
        self,
        spec: ExperimentSpec,
        on_generation: Optional[GenerationObserver] = None,
        on_evaluation: Optional[EvaluationObserver] = None,
        on_state: Optional[StateObserver] = None,
        resume_state: Optional[Dict] = None,
        should_stop: Optional[ShouldStop] = None,
        resume_metrics: Optional[Sequence[Dict]] = None,
    ) -> RunResult:
        config = config_for_env(spec.env_id, spec.pop_size, spec.fitness_threshold)
        substrate = _SoftwareGenerations(
            spec, config, on_workload=self._on_workload,
            resume_state=resume_state, resume_metrics=resume_metrics,
        )
        return _run_software_loop(
            spec, substrate, self.name, on_generation, on_evaluation,
            on_state, should_stop,
        )


class AnalyticalBackend(SoftwareBackend):
    """Software evolution costed through a platform model.

    The run (and therefore the champion) is the software backend's;
    each generation's workload aggregates are fed to the chosen
    platform's inference/evolution cost models, so the run carries the
    modelled runtime and energy a real deployment on that platform would
    exhibit (the per-generation bars of Fig. 9).

    ``platform`` is the spec's design point: a row of the
    :mod:`repro.platforms` table (what ``'analytical:<name>'`` names),
    or the :class:`repro.platforms.PlatformSpec` an
    :class:`ExperimentSpec` embeds as its ``platform`` block.
    """

    def __init__(self, platform: PlatformSpec) -> None:
        self.platform = make_platform(platform)
        self.name = f"analytical:{self.platform.name}"

    def _on_workload(
        self, metrics: GenerationMetrics, workload: GenerationWorkload
    ) -> None:
        inference = self.platform.inference_cost(workload)
        evolution = self.platform.evolution_cost(workload)
        metrics.energy_j = inference.energy_j + evolution.energy_j
        metrics.runtime_s = inference.runtime_s + evolution.runtime_s

    def run(self, spec: ExperimentSpec, *args, **kwargs) -> RunResult:
        result = super().run(spec, *args, **kwargs)
        result.total_energy_j = sum(m.energy_j for m in result.metrics)
        result.total_runtime_s = sum(m.runtime_s for m in result.metrics)
        return result


class SoCBackend:
    """Hardware-in-the-loop evolution on the EvE/ADAM SoC models.

    The SoC model is a serial chip simulation, so ``spec.workers`` does
    not apply here.

    The hardware design point is the spec's
    :meth:`~repro.api.ExperimentSpec.design_point`: its ``soc``-kind
    ``platform`` block, else the paper's design point.
    """

    name = "soc"

    def _resolve_config(self, spec: ExperimentSpec) -> GeneSysConfig:
        return make_platform(spec.design_point()).genesys_config(
            neat=config_for_env(
                spec.env_id, spec.pop_size, spec.fitness_threshold
            ),
            seed=spec.seed,
        )

    def run(
        self,
        spec: ExperimentSpec,
        on_generation: Optional[GenerationObserver] = None,
        on_evaluation: Optional[EvaluationObserver] = None,
        on_state: Optional[StateObserver] = None,
        resume_state: Optional[Dict] = None,
        should_stop: Optional[ShouldStop] = None,
        resume_metrics: Optional[Sequence[Dict]] = None,
    ) -> RunResult:
        if resume_state is not None:
            raise ResumeUnsupportedError(
                "the soc backend does not support checkpoint/resume: its "
                "population lives inside the serial chip simulation "
                "(use the software or analytical backends for resumable "
                "runs)"
            )
        config = self._resolve_config(spec)
        soc = GeneSysSoC(
            config, spec.env_id, episodes=spec.episodes, max_steps=spec.max_steps
        )
        result = _run_software_loop(
            spec, _SoCGenerations(soc), self.name, on_generation,
            on_evaluation, on_state, should_stop,
        )
        result.total_energy_j = sum(m.energy_j for m in result.metrics)
        result.total_cycles = sum(m.cycles for m in result.metrics)
        result.total_runtime_s = cycles_to_seconds(
            result.total_cycles, config.frequency_hz
        )
        result.reports = soc.reports
        result.soc = soc
        return result


# ---------------------------------------------------------------------------
# dispatch


def make_backend(spec: ExperimentSpec) -> Union[SoftwareBackend, SoCBackend]:
    """The backend that runs ``spec``, one per substrate.

    The spec checked its ``backend`` and ``platform`` against the fixed
    tables when it was built, so this only dispatches.
    """
    if spec.substrate == "analytical":
        return AnalyticalBackend(spec.design_point())
    if spec.substrate == "soc":
        return SoCBackend()
    return SoftwareBackend()
