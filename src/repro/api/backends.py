"""Pluggable experiment backends and their string-keyed registry.

A :class:`Backend` is a substrate that can run the paper's evolutionary
loop for an :class:`repro.api.ExperimentSpec`.  Three ship here,
mirroring the paper's three evaluation substrates:

``software``
    Pure-software NEAT — the CPU baseline path (Section III).
``soc``
    The EvE/ADAM hardware-in-the-loop SoC models (Section IV): selection
    on the System CPU, reproduction on the EvE PEs, inference on ADAM.
``analytical:<platform>``
    Software evolution costed through a platform model resolved from
    the open :mod:`repro.platforms` registry (the Table III legend
    names ``CPU_a`` … ``GPU_d``, ``GENESYS``, the ``soc`` design
    point's analytical projection, and any custom registration); adds
    modelled per-generation runtime and energy to the metrics.

Both hardware-substrate backends resolve their platform through the
registry: ``analytical:<name>`` looks the name up, and an
:class:`ExperimentSpec` with an embedded ``platform`` block hands the
spec straight to the backend (``analytical`` cost models and the
``soc`` cycle-level design point alike), so registering a platform is
all it takes to run experiments on it.

The registry is string-keyed like :mod:`repro.envs.registry`; the part
after a ``:`` parameterises the backend (the platform legend name).
All backends return one unified :class:`repro.api.RunResult` and accept
``on_generation`` / ``on_evaluation`` observer callbacks so analysis code
never reaches into :class:`repro.neat.Population` internals.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple, Union

from .. import obs
from ..core.config import GeneSysConfig
from ..core.runner import config_for_env
from ..core.soc import GenerationReport, GeneSysSoC
from ..core.trace import GenerationWorkload, _mean_depth
from ..hw.allocator import SCHEDULERS
from ..hw.energy import cycles_to_seconds
from ..hw.noc import NOC_KINDS, canonical_noc_kind
from ..neat.genome import Genome
from ..neat.population import Population
from ..platforms import (
    Platform,
    PlatformSpec,
    PlatformSpecError,
    SoCPlatform,
    UnknownPlatformError,
    make_platform,
    parse_adam_shape,
    platform_names,
)
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


class UnknownBackendError(KeyError):
    pass


class ResumeUnsupportedError(SpecError):
    """Raised when a backend is handed a resume state it cannot honour."""


class Backend(Protocol):
    """The substrate protocol: resolve a spec into a unified result.

    ``on_state``, ``resume_state`` and ``should_stop`` are optional
    capabilities: the software-loop backends (``software``,
    ``analytical:*``) implement all three; the ``soc`` backend ignores
    ``on_state`` (its population lives inside the chip model), rejects
    ``resume_state`` and honours ``should_stop`` (a stopped chip run
    simply ends early).
    """

    name: str

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
        ...  # pragma: no cover - protocol


# ---------------------------------------------------------------------------
# registry


_REGISTRY: Dict[str, Callable[..., Backend]] = {}


def register_backend(name: str, factory: Callable[..., Backend]) -> None:
    """Register a backend factory under a base name.

    The factory is called as ``factory(arg=<suffix or None>, **options)``
    where ``<suffix>`` is the part after ``:`` in the requested name.
    """
    _REGISTRY[name] = factory


def make_backend(name: str, **options) -> Backend:
    """Instantiate a backend by registry key, e.g. ``analytical:GENESYS``."""
    base, _, arg = name.partition(":")
    if base not in _REGISTRY:
        raise UnknownBackendError(
            f"unknown backend {name!r}; known: {available_backends()}"
        )
    return _REGISTRY[base](arg=arg or None, **options)


def available_backends() -> List[str]:
    """Every resolvable backend key, with analytical platforms expanded."""
    names: List[str] = []
    for base in sorted(_REGISTRY):
        if base == "analytical":
            names.extend(f"analytical:{p}" for p in platform_names())
        else:
            names.append(base)
    return names


# ---------------------------------------------------------------------------
# the shared software loop


@dataclass
class _SoftwareLoopResult:
    population: Population
    metrics: List[GenerationMetrics] = field(default_factory=list)
    workloads: List[GenerationWorkload] = field(default_factory=list)
    stopped: bool = False


def _run_software_loop(
    spec: ExperimentSpec,
    fitness_transform: Optional[Callable[[float], float]],
    on_generation: Optional[GenerationObserver],
    on_evaluation: Optional[EvaluationObserver],
    decorate_metrics: Optional[
        Callable[[GenerationMetrics, GenerationWorkload], None]
    ] = None,
    collect_workloads: bool = False,
    on_state: Optional[StateObserver] = None,
    resume_state: Optional[Dict] = None,
    should_stop: Optional[ShouldStop] = None,
    resume_metrics: Optional[Sequence[Dict]] = None,
) -> _SoftwareLoopResult:
    """Run software NEAT for a spec, emitting metrics per generation.

    This is :meth:`repro.neat.Population.run` with observability: the
    loop, the stop criterion and the evaluator seeding are identical, so
    a fixed seed reproduces ``Population.run`` exactly.
    ``decorate_metrics`` lets the analytical backend attach modelled
    costs before the ``on_generation`` observer fires.

    ``resume_state`` (a :func:`repro.neat.serialize.population_to_state`
    payload) restores the population at its checkpointed generation
    boundary and continues from there; combined with the evaluator's
    ``start_generation`` seed-stream offset, the continued run is
    bit-identical to one that was never interrupted.  ``on_state`` fires
    after every generation with the live population so callers (the
    :mod:`repro.runs` artifact writer) can checkpoint it.

    ``should_stop`` is polled after each generation (after ``on_state``,
    so the boundary is already checkpointable) with the completed
    generation count; returning ``True`` ends the loop cooperatively —
    the preemption mechanism of the :mod:`repro.serve` scheduler.

    On a scenario run, ``resume_metrics`` (the metrics rows already on
    disk, in generation order) replays the curriculum fold so the
    resumed run holds exactly the stage/streak/forgetting state the
    uninterrupted run would — the curriculum half of the byte-identity
    guarantee.
    """
    config = config_for_env(spec.env_id, spec.pop_size, spec.fitness_threshold)
    if resume_state is not None:
        population = Population.from_state(resume_state, config)
        start_generation = population.generation
    else:
        population = Population(config, seed=spec.seed)
        start_generation = 0
    controller = None
    if spec.scenario is not None:
        from ..scenarios import CurriculumController

        controller = CurriculumController(spec.scenario)
        if resume_metrics:
            controller.restore(resume_metrics)

    def make_evaluator(generation: int):
        return build_evaluator(
            spec.env_id,
            episodes=spec.episodes,
            max_steps=spec.max_steps,
            seed=spec.seed,
            fitness_transform=fitness_transform,
            workers=spec.workers,
            vectorizer=spec.vectorizer,
            start_generation=generation,
            scenario=(
                controller.active_scenario() if controller is not None else None
            ),
        )

    evaluator = make_evaluator(start_generation)
    collect = collect_workloads or decorate_metrics is not None
    threshold = config.fitness_threshold
    out = _SoftwareLoopResult(population=population)
    # A resumed run that had already met the stop criterion must not
    # evolve further — the uninterrupted run would have stopped there.
    already_converged = (
        resume_state is not None
        and threshold is not None
        and population.fitness_summary() >= threshold
    )
    generation_range = (
        range(0) if already_converged
        else range(start_generation, spec.max_generations)
    )
    try:
        for gen_index in generation_range:
            snapshot = dict(population.population) if collect else None

            def fitness_function(genomes, cfg, _gen=gen_index):
                evaluator(genomes, cfg)
                if on_evaluation is not None:
                    on_evaluation(_gen, genomes)

            prev_steps = evaluator.totals.steps
            prev_macs = evaluator.totals.macs
            stats = population.run_generation(fitness_function)
            env_steps = evaluator.totals.steps - prev_steps
            macs = evaluator.totals.macs - prev_macs
            metrics = GenerationMetrics(
                generation=stats.generation,
                best_fitness=stats.best_fitness,
                mean_fitness=stats.mean_fitness,
                num_species=stats.num_species,
                num_genes=stats.num_genes,
                footprint_bytes=stats.memory_footprint_bytes,
                env_steps=env_steps,
                inference_macs=macs,
            )
            switched_stage = None
            if controller is not None:
                # Annotates the row with the stage it was evaluated under
                # (plus forgetting/recovery) and folds the advancement
                # rule; an advance only affects the *next* generation.
                switched_stage = controller.step(
                    metrics.generation, metrics.best_fitness, metrics
                )
            if collect:
                # The numpy lanes levelise every genome anyway, so reuse
                # their depths (exactly the feed_forward_layers counts
                # _mean_depth would re-derive) when they are available.
                depth = evaluator.last_mean_depth
                if depth is None:
                    depth = _mean_depth(snapshot, config.genome)
                workload = GenerationWorkload(
                    generation=stats.generation,
                    population=stats.population_size,
                    total_nodes=stats.num_nodes,
                    total_connections=stats.num_connections,
                    ops=stats.ops,
                    env_steps=env_steps,
                    inference_macs=macs,
                    mean_network_depth=depth,
                    fittest_parent_reuse=stats.fittest_parent_reuse,
                )
                out.workloads.append(workload)
                if decorate_metrics is not None:
                    decorate_metrics(metrics, workload)
            out.metrics.append(metrics)
            if on_generation is not None:
                on_generation(metrics)
            if on_state is not None:
                on_state(population)
            if threshold is not None and population.fitness_summary() >= threshold:
                break
            if should_stop is not None and should_stop(population.generation):
                out.stopped = True
                break
            if switched_stage is not None:
                # Rebuild the evaluator on the new stage's environment.
                # The seed stream is a pure function of (seed, generation,
                # genome, episode), so restarting at the current boundary
                # keeps serial/pooled/vectorized bit-identity intact.
                with obs.span(
                    "scenario.switch",
                    stage=switched_stage,
                    generation=population.generation,
                ):
                    obs.incr("scenario.stage_advance")
                    evaluator.close()
                    evaluator = make_evaluator(population.generation)
    finally:
        evaluator.close()
    if population.best_genome is None:
        raise RuntimeError("no generations were evaluated")
    return out


# ---------------------------------------------------------------------------
# backends


class SoftwareBackend:
    """Pure-software NEAT: the paper's CPU/GPU baseline algorithm."""

    name = "software"

    def __init__(self, arg: Optional[str] = None,
                 fitness_transform: Optional[Callable[[float], float]] = None) -> None:
        if arg:
            raise UnknownBackendError(
                f"the software backend takes no ':{arg}' parameter"
            )
        self.fitness_transform = fitness_transform

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
        loop = _run_software_loop(
            spec, self.fitness_transform, on_generation, on_evaluation,
            on_state=on_state, resume_state=resume_state,
            should_stop=should_stop, resume_metrics=resume_metrics,
        )
        population = loop.population
        return RunResult(
            spec=spec,
            backend=self.name,
            champion=population.best_genome,
            generations=population.generation,
            converged=population.converged,
            stopped_early=loop.stopped,
            metrics=loop.metrics,
            neat_config=population.config,
            population=population,
        )


class AnalyticalBackend:
    """Software evolution costed through a registered platform model.

    The loop (and therefore the champion) is identical to the software
    backend; each generation's workload aggregates are fed to the chosen
    platform's inference/evolution cost models, so the run carries the
    modelled runtime and energy a real deployment on that platform would
    exhibit (the per-generation bars of Fig. 9).

    The platform resolves through the open registry
    (:mod:`repro.platforms`): ``platform`` may be a registered name
    (what ``'analytical:<name>'`` passes via ``arg``), a
    :class:`repro.platforms.PlatformSpec`, its dict form, or an
    already-built :class:`repro.platforms.Platform` — the path an
    :class:`ExperimentSpec` with an embedded ``platform`` block takes.
    """

    name = "analytical"

    def __init__(self, arg: Optional[str] = None,
                 platform: Optional[Union[str, Dict, PlatformSpec, Platform]] = None,
                 fitness_transform: Optional[Callable[[float], float]] = None) -> None:
        if arg and platform is not None:
            raise UnknownBackendError(
                f"the analytical backend got both ':{arg}' and an "
                "explicit platform; pass one"
            )
        platform = arg or platform
        if platform is None:
            raise UnknownBackendError(
                "the analytical backend needs a platform — use "
                "'analytical:<platform>' (or embed a platform spec) "
                f"with one of: {platform_names()}"
            )
        if isinstance(platform, Platform):
            self.platform = platform
        else:
            try:
                self.platform = make_platform(platform)
            except UnknownPlatformError as exc:
                raise UnknownBackendError(
                    f"unknown analytical platform {platform!r}; "
                    f"known: {platform_names()}"
                ) from exc
            except PlatformSpecError as exc:
                raise SpecError(f"invalid platform spec: {exc}") from exc
        self.platform_name = self.platform.name
        self.fitness_transform = fitness_transform
        self.name = f"analytical:{self.platform_name}"

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
        def decorate(metrics: GenerationMetrics, workload: GenerationWorkload) -> None:
            inference = self.platform.inference_cost(workload)
            evolution = self.platform.evolution_cost(workload)
            metrics.energy_j = inference.energy_j + evolution.energy_j
            metrics.runtime_s = inference.runtime_s + evolution.runtime_s

        loop = _run_software_loop(
            spec, self.fitness_transform, on_generation, on_evaluation,
            decorate_metrics=decorate,
            on_state=on_state, resume_state=resume_state,
            should_stop=should_stop, resume_metrics=resume_metrics,
        )
        population = loop.population
        return RunResult(
            spec=spec,
            backend=self.name,
            champion=population.best_genome,
            generations=population.generation,
            converged=population.converged,
            stopped_early=loop.stopped,
            metrics=loop.metrics,
            neat_config=population.config,
            total_energy_j=sum(m.energy_j for m in loop.metrics),
            total_runtime_s=sum(m.runtime_s for m in loop.metrics),
            population=population,
        )


def _parse_adam_shape(shape: Union[str, Sequence[int]]) -> Tuple[int, int]:
    """``"32x32"`` (or a 2-sequence) -> ``(rows, cols)``.

    Thin wrapper over the shared :func:`repro.platforms.parse_adam_shape`
    canonicaliser, re-raising as :class:`SpecError` for backend callers.
    """
    try:
        return parse_adam_shape(shape)
    except PlatformSpecError as exc:
        raise SpecError(str(exc)) from None


def _resolve_soc_platform(
    platform: Optional[Union[str, Dict, PlatformSpec, SoCPlatform]],
) -> Optional[SoCPlatform]:
    """Coerce a platform option into a :class:`SoCPlatform` (or None)."""
    if platform is None or isinstance(platform, SoCPlatform):
        return platform
    try:
        if isinstance(platform, str):
            resolved = make_platform(platform)
            if not isinstance(resolved, SoCPlatform):
                raise SpecError(
                    f"the soc backend needs a 'soc'-kind platform, but "
                    f"{platform!r} is {type(resolved).__name__}"
                )
            return resolved
        spec = platform if isinstance(platform, PlatformSpec) else (
            PlatformSpec.from_dict(platform)
        )
        if spec.kind != "soc":
            raise SpecError(
                f"the soc backend needs a 'soc'-kind platform spec, "
                f"got kind {spec.kind!r}"
            )
        return SoCPlatform(spec)
    except UnknownPlatformError as exc:
        raise UnknownBackendError(
            f"unknown platform {platform!r}; known: {platform_names()}"
        ) from exc
    except PlatformSpecError as exc:
        raise SpecError(f"invalid platform spec: {exc}") from exc


class SoCBackend:
    """Hardware-in-the-loop evolution on the EvE/ADAM SoC models.

    The SoC model is a serial chip simulation, so ``spec.workers`` does
    not apply here.  A caller-provided :class:`GeneSysConfig` is never
    mutated: the spec's NEAT sizing and seed are applied to a copy
    (``dataclasses.replace``), including the nested EvE block whose PE
    registers the SoC reprograms.

    The hardware design point resolves through the platform registry: a
    ``soc``-kind :class:`repro.platforms.PlatformSpec` — embedded on the
    experiment spec (``spec.platform``), passed as the ``platform``
    option (spec, dict, registered name or
    :class:`repro.platforms.SoCPlatform`) — selects ``eve_pes``/``noc``/
    ``scheduler``/``adam_shape``/``frequency_hz`` declaratively.  The
    legacy JSON-friendly ``backend_options`` knobs (``eve_pes``, ``noc``,
    ``scheduler``, ``adam_shape`` — the ``hw.*`` DSE axes) still apply
    and override whatever the platform spec or a caller-provided
    ``soc_config`` resolved.
    """

    name = "soc"

    def __init__(self, arg: Optional[str] = None,
                 soc_config: Optional[GeneSysConfig] = None,
                 platform: Optional[Union[str, Dict, PlatformSpec, SoCPlatform]] = None,
                 eve_pes: Optional[int] = None,
                 noc: Optional[str] = None,
                 scheduler: Optional[str] = None,
                 adam_shape: Optional[str] = None,
                 vectorize: Optional[bool] = None) -> None:
        if arg:
            raise UnknownBackendError(
                f"the soc backend takes no ':{arg}' parameter"
            )
        self.soc_config = soc_config
        self.platform = _resolve_soc_platform(platform)
        if eve_pes is not None and (not isinstance(eve_pes, int) or eve_pes < 1):
            raise SpecError(f"eve_pes must be a positive int, got {eve_pes!r}")
        if noc is not None:
            try:
                noc = canonical_noc_kind(noc)
            except ValueError as exc:
                raise SpecError(str(exc)) from None
        if scheduler is not None and scheduler not in SCHEDULERS:
            raise SpecError(
                f"unknown scheduler {scheduler!r}; use one of "
                f"{sorted(SCHEDULERS)}"
            )
        self.eve_pes = eve_pes
        self.noc = noc
        self.scheduler = scheduler
        self.adam_shape = (
            _parse_adam_shape(adam_shape) if adam_shape is not None else None
        )
        # Population-batched evaluation is the default; the flag is an
        # escape hatch (and the bench's serial baseline).  Both paths are
        # bit-identical, so the choice never shows up in spec/cache keys.
        self.vectorize = True if vectorize is None else bool(vectorize)

    def _resolve_config(self, spec: ExperimentSpec) -> GeneSysConfig:
        neat_config = config_for_env(
            spec.env_id, spec.pop_size, spec.fitness_threshold
        )
        platform = self.platform
        if platform is None and spec.platform is not None:
            # spec validation guarantees a soc-kind platform here
            platform = SoCPlatform(spec.platform)
        if self.soc_config is None:
            if platform is not None:
                config = platform.genesys_config(
                    neat=neat_config, seed=spec.seed
                )
            else:
                config = GeneSysConfig.paper_design_point(neat=neat_config)
                config.seed = spec.seed
        else:
            config = dataclasses.replace(
                self.soc_config,
                neat=neat_config,
                seed=spec.seed,
                eve=dataclasses.replace(self.soc_config.eve),
            )
            if platform is not None:
                # the declarative design point wins for the blocks it
                # parameterises; soc_config still supplies the rest
                # (SRAM geometry, PE registers).
                config = platform.genesys_config(
                    neat=neat_config, seed=spec.seed, base=config
                )
        eve_changes = {
            key: value
            for key, value in (
                ("num_pes", self.eve_pes),
                ("noc", self.noc),
                ("scheduler", self.scheduler),
            )
            if value is not None
        }
        if eve_changes:
            config.eve = dataclasses.replace(config.eve, **eve_changes)
        if self.adam_shape is not None:
            rows, cols = self.adam_shape
            config.adam = dataclasses.replace(
                config.adam, rows=rows, cols=cols
            )
        return config

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
        # on_state is a software-loop capability; the SoC model exposes
        # no Population object to snapshot, so the observer never fires.
        config = self._resolve_config(spec)
        soc = GeneSysSoC(
            config, spec.env_id, episodes=spec.episodes,
            max_steps=spec.max_steps, vectorize=self.vectorize,
        )
        threshold = config.neat.fitness_threshold
        metrics: List[GenerationMetrics] = []
        stopped = False
        for _ in range(spec.max_generations):
            if not soc.population:
                soc.initialise_population()
            evaluated = list(soc.population.values())
            report = soc.run_generation()
            if on_evaluation is not None:
                on_evaluation(report.generation, evaluated)
            entry = self._metrics_from_report(report, config.frequency_hz)
            metrics.append(entry)
            if on_generation is not None:
                on_generation(entry)
            if threshold is not None and report.best_fitness >= threshold:
                break
            if should_stop is not None and should_stop(soc.generation):
                # The chip model cannot resume, so stopping here just
                # ends the run early (the caller decides what that means).
                stopped = True
                break
        if soc.best_genome is None:
            raise RuntimeError("no generations were evaluated")
        champion = soc.best_genome
        converged = (
            threshold is not None
            and champion.fitness is not None
            and champion.fitness >= threshold
        )
        total_cycles = sum(
            r.inference_cycles + r.evolution_cycles for r in soc.reports
        )
        return RunResult(
            spec=spec,
            backend=self.name,
            champion=champion,
            generations=soc.generation,
            converged=converged,
            stopped_early=stopped,
            metrics=metrics,
            neat_config=config.neat,
            total_energy_j=sum(r.energy.total_energy_j for r in soc.reports),
            total_cycles=total_cycles,
            total_runtime_s=cycles_to_seconds(total_cycles, config.frequency_hz),
            reports=soc.reports,
            soc=soc,
        )

    @staticmethod
    def _metrics_from_report(
        report: GenerationReport, frequency_hz: float
    ) -> GenerationMetrics:
        cycles = report.inference_cycles + report.evolution_cycles
        return GenerationMetrics(
            generation=report.generation,
            best_fitness=report.best_fitness,
            mean_fitness=report.mean_fitness,
            num_species=report.num_species,
            num_genes=report.num_genes,
            footprint_bytes=report.footprint_bytes,
            env_steps=report.env_steps,
            inference_macs=report.inference.macs,
            energy_j=report.energy.total_energy_j,
            cycles=cycles,
            runtime_s=cycles_to_seconds(cycles, frequency_hz),
        )


register_backend("software", SoftwareBackend)
register_backend("soc", SoCBackend)
register_backend("analytical", AnalyticalBackend)
