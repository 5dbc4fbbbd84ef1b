"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``envs``                      list the environment suite (Table I)
``backends``                  list the experiment backend keys
``run [ENV]``                 evolve ENV on any backend
``infer CHAMPION ENV``        roll out a saved champion
``characterise [ENV]``        Fig. 4/5-style workload characterisation
``platforms``                 the fixed platform table (``--json`` for the
                              machine-readable spec dump)
``scenarios``                 the built-in scenarios (environment variants,
                              perturbations, curricula; ``--json`` dumps
                              the specs)
``platforms ENV``             Fig. 9-style platform runtime/energy matrix
``design-space``              Fig. 8 power/area sweep of the SoC
``dse --sweep FILE``          declarative design-space sweep (repro.dse):
                              cached, parallel, Pareto/groupby/export;
                              axes include ``platform.*`` fields

``run [ENV] --run-dir DIR``       persist run artifacts (repro.runs)
``run --resume DIR``              continue a run from its last checkpoint
``report DIR [DIR...]``           rebuild metric tables from artifacts

``serve ROOT``                    run the evolution-job scheduler (and
                                  HTTP/JSON API) over a serve root
``submit [ENV] --root|--url``     queue an experiment as a job
``jobs --root|--url``             list jobs and their progress
``job ID --root|--url``           inspect / follow / cancel one job
``top ROOT``                      live one-screen fleet view
``trace RUN_DIR``                 phase breakdown of a traced run
                                  (``--export chrome`` for Perfetto)

``run``, ``characterise`` and ``platforms`` are spec-driven: flags build
an :class:`repro.api.ExperimentSpec`, or ``--spec FILE`` loads one from
JSON (explicit flags override the file).  ``--backend`` selects the
substrate (``software``, ``soc``, ``analytical:<platform>``) and
``--workers N`` parallelises fitness evaluation bit-identically to the
serial path.  Every user error prints ``error: ...`` to stderr and
exits 2.

``--run-dir DIR`` records the run durably (spec, per-generation
``metrics.jsonl``, periodic full-state checkpoints, champion) and
``--resume DIR`` continues an interrupted run **bit-identically** to one
that was never interrupted; ``report`` re-derives fitness-curve and
hardware-metric tables from those artifacts without re-simulating
(see :mod:`repro.runs` and ``docs/runs.md``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from .analysis.reporting import (
    fmt_bytes,
    fmt_joules,
    fmt_seconds,
    render_table,
)


class UsageError(Exception):
    """A command line that names no valid request; ``main`` prints it
    as ``error: ...`` and exits 2, like every other user error."""


#: Fallbacks applied when neither a flag nor a spec file sets the field.
_SPEC_DEFAULTS = {
    "backend": "software",
    "max_generations": 10,
    "pop_size": 50,
    "episodes": 1,
    "seed": 0,
    "workers": 1,
}


def _resolve_platform_flag(value: str):
    """``--platform`` FILE-or-name -> :class:`repro.platforms.PlatformSpec`.

    A JSON file loads as a PlatformSpec (a custom platform); anything
    else is a name in the fixed platform table.  Either embeds on the
    experiment spec by value.
    """
    from pathlib import Path

    from .platforms import PlatformSpec, platform_spec

    if Path(value).is_file():
        return PlatformSpec.load(value)
    return platform_spec(value)


def _resolve_scenario_flag(value: str):
    """``--scenario`` FILE-or-name -> :class:`repro.scenarios.ScenarioSpec`.

    A JSON file loads as a ScenarioSpec (a custom scenario); anything
    else is a name in the built-in scenario table (see ``repro
    scenarios``).  Either embeds on the experiment spec by value.
    """
    from pathlib import Path

    from .scenarios import ScenarioSpec, get_scenario

    if Path(value).is_file():
        return ScenarioSpec.load(value)
    return get_scenario(value)


def _spec_from_args(args: argparse.Namespace):
    """Build the experiment spec from CLI flags and/or a spec file."""
    from .api import ExperimentSpec

    backend = getattr(args, "backend", None)
    platform = None
    if getattr(args, "platform", None) is not None:
        platform = _resolve_platform_flag(args.platform)
        if backend is None:
            backend = "soc" if platform.kind == "soc" else "analytical"
    scenario = None
    if getattr(args, "scenario", None) is not None:
        scenario = _resolve_scenario_flag(args.scenario)
    overrides = {
        key: value
        for key, value in {
            "env_id": args.env,
            "backend": backend,
            "platform": platform,
            "scenario": scenario,
            "max_generations": args.generations,
            "pop_size": args.population,
            "episodes": args.episodes,
            "seed": args.seed,
            "max_steps": args.max_steps,
            "workers": args.workers,
            "vectorizer": args.vectorizer,
            "fitness_threshold": args.fitness_threshold,
        }.items()
        if value is not None
    }
    if args.spec:
        spec = ExperimentSpec.load(args.spec)
        return spec.replace(**overrides) if overrides else spec
    if "env_id" not in overrides:
        raise UsageError("an environment id or --spec FILE is required")
    return ExperimentSpec(**{**_SPEC_DEFAULTS, **overrides})


def _cmd_envs(_args: argparse.Namespace) -> int:
    from .envs import available, make

    rows = []
    for env_id in available():
        env = make(env_id)
        rows.append([
            env_id, env.num_observations, env.num_actions, env.max_episode_steps,
        ])
    print(render_table(
        ["Environment", "observations", "actions", "step limit"], rows,
        title="Environment suite (Table I)",
    ))
    return 0


def _cmd_backends(_args: argparse.Namespace) -> int:
    from .api import available_backends

    print("Experiment backends:")
    for name in available_backends():
        print(f"  {name}")
    return 0


#: Spec-building ``run`` flags that conflict with ``--resume`` (the spec
#: comes from the run directory; only the generation budget may change).
_RESUME_CONFLICTS = (
    "env", "spec", "backend", "platform", "scenario", "population",
    "episodes", "seed", "max_steps", "workers", "vectorizer",
    "fitness_threshold",
)


def _cmd_run(args: argparse.Namespace) -> int:
    from .api import Experiment

    if args.resume:
        from .runs import RunDir, resume_run

        conflicts = [
            name for name in _RESUME_CONFLICTS
            if getattr(args, name, None) is not None
        ]
        if args.run_dir:
            conflicts.append("run_dir")
        if conflicts:
            raise UsageError(
                "--resume takes the spec from the run directory; "
                "only --generations may be overridden "
                f"(conflicting: {', '.join(sorted(conflicts))})"
            )
        run_dir = RunDir(args.resume)
        latest = run_dir.latest_checkpoint()
        result = resume_run(
            run_dir,
            max_generations=args.generations,
            checkpoint_every=args.checkpoint_every,
            trace=True if args.trace else None,
        )
        spec = result.spec
        if latest is not None:
            print(f"resumed {args.resume} from checkpoint at generation "
                  f"{latest[0]}")
        else:
            print(f"restarted {args.resume} (no checkpoint recorded yet)")
    else:
        spec = _spec_from_args(args)
        if args.run_dir:
            from .runs import run_in_dir

            result = run_in_dir(
                spec,
                args.run_dir,
                checkpoint_every=args.checkpoint_every,
                trace=True if args.trace else None,
            )
        elif args.trace:
            raise UsageError(
                "--trace writes telemetry.jsonl into the run "
                "directory; add --run-dir DIR (or --resume DIR)"
            )
        else:
            result = Experiment(spec).run()

    print(
        f"[{result.backend}] {spec.env_id}: best fitness "
        f"{result.best_fitness:.2f} after {result.generations} "
        f"generations (converged={result.converged})"
    )
    if spec.substrate == "soc":
        print(
            f"  chip time {fmt_seconds(result.total_runtime_s)}, "
            f"energy {fmt_joules(result.total_energy_j)}"
        )
    elif spec.substrate == "software":
        conns, nodes = result.champion.size()
        print(f"  champion: {conns} enabled connections, {nodes} nodes")
    else:
        print(
            f"  modelled platform time {fmt_seconds(result.total_runtime_s)}, "
            f"energy {fmt_joules(result.total_energy_j)}"
        )
    if spec.workers > 1 and spec.substrate != "soc":
        # The SoC model is a serial chip simulation; only the software
        # and analytical paths evaluate fitness in parallel.
        print(f"  fitness evaluated with {spec.workers} workers "
              f"(bit-identical to serial)")
    if spec.vectorizer == "numpy":
        if spec.substrate == "soc":
            # The SoC model simulates ADAM's own packed matrix-vector
            # waves; the software vectorizer does not apply there.
            print("  note: --vectorizer numpy is ignored by the soc backend")
        else:
            print("  inference vectorized (compiled numpy batch engine)")
    run_target = args.resume or args.run_dir
    if run_target:
        print(f"  artifacts in {run_target} "
              f"(resume: 'repro run --resume {run_target}'; "
              f"tables: 'repro report {run_target}')")
        if args.trace:
            print(f"  telemetry in {run_target}/telemetry.jsonl "
                  f"(inspect: 'repro trace {run_target}')")
    if args.show:
        from .analysis.netviz import describe_genome

        print(describe_genome(result.champion, result.neat_config.genome))
    if args.save:
        from .neat.serialize import save_genome

        save_genome(result.champion, args.save, config=result.neat_config)
        print(f"  champion saved to {args.save}")
    if args.save_spec:
        spec.save(args.save_spec)
        print(f"  spec saved to {args.save_spec}")
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    """Load a saved champion and roll it out in its environment."""
    from .envs import make, run_episode
    from .neat.network import FeedForwardNetwork
    from .neat.serialize import load_genome_with_config

    genome, config = load_genome_with_config(args.champion)
    network = FeedForwardNetwork.create(genome, config.genome)
    env = make(args.env)
    rewards = []
    for episode in range(args.episodes):
        env.seed(args.seed + episode)
        result = run_episode(network, env, max_steps=args.max_steps)
        rewards.append(result.total_reward)
        print(f"episode {episode}: reward {result.total_reward:.2f} "
              f"in {result.steps} steps")
    print(f"mean reward over {len(rewards)} episodes: "
          f"{sum(rewards) / len(rewards):.2f}")
    return 0


def _require_software_backend(spec, command: str) -> None:
    """characterise/platforms instrument the software NEAT loop; other
    backends would be silently misleading, so reject them explicitly."""
    if spec.substrate != "software":
        raise UsageError(
            f"'{command}' characterises the software path; "
            f"--backend {spec.backend} is not supported here "
            f"(use 'run --backend {spec.backend}' instead)"
        )


def _cmd_characterise(args: argparse.Namespace) -> int:
    from .core import TraceRecorder

    spec = _spec_from_args(args)
    _require_software_backend(spec, "characterise")
    trace = TraceRecorder(spec).record(spec.max_generations)
    rows = []
    for w in trace.workloads:
        rows.append([
            w.generation, w.total_nodes, w.total_connections,
            w.evolution_ops, fmt_bytes(w.footprint_bytes),
            w.fittest_parent_reuse, w.env_steps,
        ])
    print(render_table(
        ["gen", "node genes", "conn genes", "ops", "footprint",
         "fittest reuse", "env steps"],
        rows,
        title=f"Workload characterisation: {spec.env_id} "
              f"(population {spec.pop_size})",
    ))
    return 0


def _params_summary(spec) -> str:
    """One compact ``key=value`` line of a platform spec's parameters."""
    import dataclasses

    parts = []
    for field in dataclasses.fields(type(spec.params)):
        value = getattr(spec.params, field.name)
        if isinstance(value, float):
            value = f"{value:.4g}"
        parts.append(f"{field.name}={value}")
    return ", ".join(parts)


def _cmd_platforms(args: argparse.Namespace) -> int:
    from .platforms import registered_platforms

    if args.json:
        if args.env is not None or args.spec:
            raise UsageError(
                "--json prints the platform table; it does not "
                "combine with an environment or --spec (drop one)"
            )
        import json

        payload = {
            name: spec.to_dict()
            for name, spec in registered_platforms().items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if args.env is None and not args.spec:
        rows = [
            [name, spec.kind, _params_summary(spec)]
            for name, spec in registered_platforms().items()
        ]
        print(render_table(
            ["platform", "kind", "parameters"], rows,
            title="Platform registry (repro.platforms; Table III + soc)",
        ))
        print(
            "\nRun one with 'repro run ENV --platform NAME' or "
            "'--backend analytical:NAME'; for a custom platform pass "
            "'--platform FILE' (a PlatformSpec JSON file) or embed one "
            "in a spec (see docs/platforms.md)."
        )
        return 0

    from .core import TraceRecorder
    from .platforms import all_platforms

    spec = _spec_from_args(args)
    _require_software_backend(spec, "platforms")
    trace = TraceRecorder(spec).record(spec.max_generations)
    workload = trace.mean_workload()
    rows = []
    for platform in all_platforms():
        inference = platform.inference_cost(workload)
        evolution = platform.evolution_cost(workload)
        rows.append([
            platform.name,
            fmt_seconds(inference.runtime_s),
            fmt_joules(inference.energy_j),
            fmt_seconds(evolution.runtime_s),
            fmt_joules(evolution.energy_j),
            fmt_bytes(platform.memory_footprint_bytes(workload)),
        ])
    print(render_table(
        ["platform", "inf time/gen", "inf energy/gen",
         "evo time/gen", "evo energy/gen", "footprint"],
        rows,
        title=f"Platform comparison on {spec.env_id} (Fig. 9 style)",
    ))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .scenarios import registered_scenarios

    if args.json:
        import json

        payload = {
            name: scenario.to_dict()
            for name, scenario in registered_scenarios().items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = []
    for name, scenario in registered_scenarios().items():
        params = ", ".join(
            f"{k}={v:.4g}" for k, v in sorted(scenario.params.items())
        ) or "-"
        perturbations = ", ".join(
            p.kind for p in scenario.perturbations
        ) or "-"
        stages = (
            f"{scenario.stage_count()} ({scenario.curriculum.mode})"
            if scenario.curriculum is not None
            else "-"
        )
        rows.append([name, scenario.env_id, params, perturbations, stages])
    print(render_table(
        ["scenario", "environment", "params", "perturbations", "stages"],
        rows,
        title="Scenario registry (repro.scenarios)",
    ))
    print(
        "\nRun one with 'repro run ENV --scenario NAME'; for a custom "
        "scenario pass '--scenario FILE' (a ScenarioSpec JSON file) or "
        "embed one in a spec (see docs/scenarios.md)."
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Rebuild metric tables from run directories — artifacts only, no
    re-simulation."""
    from .runs import (
        export_reports,
        fitness_table,
        hardware_table,
        load_run,
        scenario_table,
        summary_table,
    )

    reports = [load_run(path) for path in args.dirs]
    headers, rows = summary_table(reports)
    print(render_table(headers, rows, title="Run summary"))
    if not args.summary_only:
        for report in reports:
            print()
            headers, rows = fitness_table(report)
            print(render_table(
                headers, rows,
                title=f"{report.name}: fitness curve "
                      f"({report.spec.env_id}, {report.spec.backend})",
            ))
            print()
            headers, rows = hardware_table(report)
            print(render_table(
                headers, rows, title=f"{report.name}: workload and cost",
            ))
            headers, rows = scenario_table(report)
            if rows:
                print()
                print(render_table(
                    headers, rows,
                    title=f"{report.name}: curriculum (stage / "
                          f"forgetting / recovery)",
                ))
    if args.export:
        csv_path, json_path = export_reports(reports, args.export)
        print(f"\nexported {csv_path} and {json_path}")
    return 0


def _dse_report(args: argparse.Namespace, sweep, result) -> None:
    """The shared tail of every dse mode: table, frontier, groups, export."""
    from .dse import parse_objectives

    headers, rows = result.table()
    print()
    print(render_table(headers, rows, title=f"Design space: {args.sweep}"))
    print(
        f"\nevaluated {result.evaluated}, "
        f"cache hits {result.cache_hits}/{result.points}"
        + (f" (cache: {result.cache_dir})" if result.cache_dir else "")
    )
    if args.pareto:
        objectives = parse_objectives(args.pareto)
        front = result.pareto_front(objectives)
        legend = ", ".join(f"{k}:{v}" for k, v in objectives.items())
        keep = sweep.axis_names + list(objectives)

        def fmt(value):
            return f"{value:.6g}" if isinstance(value, float) else value

        print()
        print(render_table(
            keep,
            [[fmt(row.get(name)) for name in keep] for row in front],
            title=f"Pareto frontier ({legend})",
        ))
    if args.group_by:
        axis, _, metric = args.group_by.partition(":")
        metric = metric or "fitness"
        groups = result.group_by(axis, metric)
        print()
        print(render_table(
            [axis, "count", "mean", "min", "max"],
            [[g[axis], g["count"], f"{g['mean']:.6g}", f"{g['min']:.6g}",
              f"{g['max']:.6g}"] for g in groups],
            title=f"{metric} grouped by {axis}",
        ))
    if args.export:
        result.to_csv(f"{args.export}.csv")
        result.to_json(f"{args.export}.json")
        print(f"exported {args.export}.csv and {args.export}.json")


def _dse_distributed_runner(args: argparse.Namespace, sweep, cache_dir,
                            metrics=None):
    from .dse import DistributedSweepError, DistributedSweepRunner

    if cache_dir is None:
        raise DistributedSweepError(
            "--worker/--watch need the point cache (drop --no-cache); "
            "it is how workers publish results to each other"
        )
    return DistributedSweepRunner(
        sweep,
        cache_dir=cache_dir,
        work_dir=args.work_dir,
        runs_dir=args.runs_dir,
        stale_after=args.stale_after,
        poll_interval=args.poll_interval,
        metrics=metrics,
    )


def _cmd_dse_worker(args: argparse.Namespace, sweep, cache_dir) -> int:
    from . import obs

    registry = obs.MetricsRegistry()
    runner = _dse_distributed_runner(args, sweep, cache_dir, metrics=registry)
    server = None
    if args.metrics_port is not None:
        server = obs.MetricsServer(registry, port=args.metrics_port).start()
        print(f"metrics: http://127.0.0.1:{server.port}/metrics")
    print(
        f"worker {runner.worker_id}: draining {args.sweep} "
        f"(work dir {runner.queue.work_dir})"
    )

    def progress(event: str, key: str) -> None:
        if not args.quiet:
            print(f"  {event:<9} {key[:12]}")

    try:
        tally = runner.drain(max_points=args.max_points, progress=progress)
    finally:
        if server is not None:
            server.stop()
    print(
        f"worker done: evaluated {tally['evaluated']}, "
        f"cache hits {tally['cache_hits']}, claims {tally['claims']}, "
        f"reclaims {tally['reclaims']} ({tally['points']} points total)"
    )
    return 0


def _cmd_dse_watch(args: argparse.Namespace, sweep, cache_dir) -> int:
    from .dse import DistributedSweepError, parse_objectives

    runner = _dse_distributed_runner(args, sweep, cache_dir)
    objectives = parse_objectives(args.pareto) if args.pareto else None
    deadline = (
        time.monotonic() + args.timeout if args.timeout is not None else None
    )
    last_done = -1
    while True:
        status = runner.status()
        if status["done"] != last_done and not args.quiet:
            last_done = status["done"]
            line = (
                f"  {status['done']}/{status['points']} done, "
                f"{status['claimed']} claimed"
            )
            if status["stale_claims"]:
                line += f", {status['stale_claims']} stale"
            if status["duplicate_evaluations"]:
                line += (
                    f", {status['duplicate_evaluations']} duplicate "
                    "evaluations"
                )
            print(line, flush=True)
            if objectives and not status["complete"]:
                for row in runner.frontier(objectives):
                    axes = ", ".join(
                        f"{k}={row[k]}" for k in sweep.axis_names
                    )
                    print(f"    frontier: {axes}", flush=True)
        if status["complete"]:
            break
        if deadline is not None and time.monotonic() > deadline:
            raise DistributedSweepError(
                f"watch timed out after {args.timeout:.0f}s with "
                f"{status['points'] - status['done']} points outstanding"
            )
        time.sleep(args.poll_interval)
    _dse_report(args, sweep, runner.collect())
    return 0


def _cmd_dse_halving(args: argparse.Namespace, sweep, cache_dir) -> int:
    from .dse import SuccessiveHalvingScheduler, parse_objectives

    objectives = parse_objectives(args.halving)
    scheduler = SuccessiveHalvingScheduler(
        sweep,
        objectives,
        reduction=args.reduction,
        min_generations=args.min_generations,
        cache_dir=cache_dir,
        jobs=args.jobs,
        runs_dir=args.runs_dir,
    )
    print(
        f"halving: {len(sweep.expand())} points, rung budgets "
        f"{scheduler.budgets} (reduction {args.reduction})"
    )

    def progress(done: int, total: int, row) -> None:
        if not args.quiet:
            state = "cache" if row.get("cached") else "run"
            axes = ", ".join(f"{k}={row[k]}" for k in sweep.axis_names)
            print(f"  [{done}/{total}] {state:<5} {axes}")

    hres = scheduler.run(progress=progress)
    print()
    print(render_table(
        ["rung", "budget", "points", "promoted", "pruned", "frontier"],
        [[r["rung"], r["budget"], r["points"], r["promoted"], r["pruned"],
          r["frontier"]] for r in hres.rungs],
        title="Successive-halving rungs",
    ))
    print(
        f"\nscheduled {hres.scheduled_generations}/"
        f"{hres.full_generations} generations "
        f"({hres.budget_fraction:.0%} of the full sweep)"
    )
    _dse_report(args, sweep, hres.to_result())
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    from .dse import SweepRunner, SweepSpec, default_cache_dir

    sweep = SweepSpec.load(args.sweep)
    modes = [
        name for name, active in (
            ("--worker", args.worker),
            ("--watch", args.watch),
            ("--halving", args.halving is not None),
        ) if active
    ]
    if len(modes) > 1:
        raise UsageError(f"{' and '.join(modes)} are mutually exclusive")
    cache_dir = None if args.no_cache else (
        args.cache_dir or default_cache_dir()
    )
    if args.worker:
        return _cmd_dse_worker(args, sweep, cache_dir)
    if args.watch:
        return _cmd_dse_watch(args, sweep, cache_dir)
    if args.halving is not None:
        return _cmd_dse_halving(args, sweep, cache_dir)

    runner = SweepRunner(
        sweep, cache_dir=cache_dir, jobs=args.jobs, runs_dir=args.runs_dir
    )

    def progress(done: int, total: int, row) -> None:
        if not args.quiet:
            state = "cache" if row.get("cached") else "run"
            axes = ", ".join(f"{k}={row[k]}" for k in sweep.axis_names)
            print(f"  [{done}/{total}] {state:<5} {axes}")

    print(
        f"sweep: {len(sweep.expand())} points over axes "
        f"{', '.join(sweep.axis_names)} ({sweep.strategy})"
    )
    result = runner.run(progress=progress)
    _dse_report(args, sweep, result)
    return 0


def _cmd_design_space(args: argparse.Namespace) -> int:
    from .hw.energy import area_breakdown, pe_sweep, roofline_power

    rows = []
    for entry in pe_sweep():
        n = entry["num_eve_pe"]
        rows.append([
            n,
            f"{roofline_power(n).total_mw:.1f}",
            f"{area_breakdown(n).total_mm2:.3f}",
        ])
    print(render_table(
        ["EvE PEs", "roofline mW", "area mm2"], rows,
        title="GeneSys design space (Fig. 8)",
    ))
    return 0


def _serve_endpoint(args: argparse.Namespace):
    """``--root DIR`` / ``--url URL`` -> ``(JobStore | None, ServeClient
    | None)`` — exactly one is set; submit/jobs/job accept either."""
    root = getattr(args, "root", None)
    url = getattr(args, "url", None)
    if (root is None) == (url is None):
        raise UsageError(
            "exactly one of --root DIR (direct store access) or "
            "--url URL (HTTP API) is required"
        )
    if root is not None:
        from .serve import JobStore

        return JobStore(root), None
    from .serve import ServeClient

    return None, ServeClient(url)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import JobApiServer, JobStore, Scheduler

    store = JobStore(args.root)
    scheduler = Scheduler(
        store,
        workers=args.workers,
        poll_interval=args.poll_interval,
        backoff_base=args.backoff_base,
        stale_after=args.stale_after,
    )
    server = None
    if not args.no_http:
        # Sharing the scheduler's registry puts its counters and
        # histograms on GET /metrics next to the store-derived gauges.
        server = JobApiServer(
            store,
            host=args.host,
            port=args.port,
            registry=scheduler.metrics,
        ).start()
        print(f"serving jobs from {store.root} at {server.url}")
    else:
        print(f"scheduling jobs from {store.root} (no HTTP API)")
    hint = f"'repro submit ENV --root {store.root}'"
    if server is not None:
        hint += f" or '--url {server.url}'"
    print(f"  workers: {args.workers}; submit with {hint}")
    try:
        if args.until_idle:
            scheduler.run_until_idle(timeout=args.timeout)
        else:
            scheduler.run_forever()
    except KeyboardInterrupt:
        print("\nshutting down (workers yield at their next checkpoint)")
    finally:
        scheduler.shutdown()
        if server is not None:
            server.shutdown()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    store, client = _serve_endpoint(args)
    if store is not None:
        record = store.submit(
            spec,
            priority=args.priority,
            checkpoint_every=args.checkpoint_every,
            max_retries=args.max_retries,
        )
        payload = store.describe(record.id)
        where = f"--root {store.root}"
    else:
        payload = client.submit(
            spec.to_dict(),
            priority=args.priority,
            checkpoint_every=args.checkpoint_every,
            max_retries=args.max_retries,
        )
        where = f"--url {client.base_url}"
    print(
        f"{payload['id']} queued: {spec.env_id} [{spec.backend}] "
        f"{spec.max_generations} generations, priority {payload['priority']}"
    )
    print(f"  follow with 'repro job {payload['id']} {where} --follow'")
    return 0


def _job_progress(payload) -> str:
    done = payload.get("generations_done") or 0
    total = (payload.get("spec") or {}).get("max_generations", "?")
    return f"{done}/{total}"


def _cmd_jobs(args: argparse.Namespace) -> int:
    store, client = _serve_endpoint(args)
    if store is not None:
        payloads = [store.describe(job_id) for job_id in store.job_ids()]
        source = str(store.root)
    else:
        payloads = client.jobs()
        source = client.base_url
    rows = []
    for payload in payloads:
        spec = payload.get("spec") or {}
        best = payload.get("best_fitness")
        rows.append([
            payload["id"],
            payload["state"],
            payload["priority"],
            spec.get("env_id", "?"),
            spec.get("backend", "?"),
            _job_progress(payload),
            "-" if best is None else f"{best:.2f}",
        ])
    print(render_table(
        ["job", "state", "priority", "environment", "backend",
         "generations", "best"],
        rows,
        title=f"Jobs in {source}",
    ))
    return 0


def _print_job(payload) -> None:
    spec = payload.get("spec") or {}
    print(
        f"{payload['id']}: {payload['state']} "
        f"({spec.get('env_id', '?')} [{spec.get('backend', '?')}], "
        f"generations {_job_progress(payload)}, "
        f"priority {payload['priority']}, attempts {payload['attempts']})"
    )
    best = payload.get("best_fitness")
    if best is not None:
        print(f"  best fitness {best:.2f} over "
              f"{payload['metrics_rows']} recorded generations")
    error = payload.get("error")
    if error:
        print(f"  error: {error.strip().splitlines()[-1]}")


def _cmd_job(args: argparse.Namespace) -> int:
    import time

    from .obs import JsonlTail
    from .serve import FAILED, TERMINAL_STATES

    store, client = _serve_endpoint(args)

    def describe():
        if store is not None:
            return store.describe(args.job_id)
        return client.job(args.job_id)

    # Store-path polling follows metrics.jsonl incrementally (byte
    # offset, torn tail left unconsumed) instead of re-reading the whole
    # file each round; the >= since filter mirrors the HTTP ?since=
    # cursor and also dedupes rows re-delivered after a resume rewound
    # (truncated) the file.
    metrics_tail = (
        JsonlTail(store.run_dir(args.job_id).metrics_path)
        if store is not None
        else None
    )

    def metrics_since(since: int):
        if metrics_tail is not None:
            rows = metrics_tail.poll()
        else:
            rows = client.metrics(args.job_id, since=since)
        return [r for r in rows if int(r.get("generation", 0)) >= since]

    if args.cancel:
        if store is not None:
            store.request_cancel(args.job_id)
            payload = store.describe(args.job_id)
        else:
            payload = client.cancel(args.job_id)
        if payload["state"] == "cancelled":
            print(f"{args.job_id} cancelled")
        else:
            print(f"{args.job_id} cancel requested (state: "
                  f"{payload['state']}; honoured at the next checkpoint "
                  "boundary)")
        return 0

    if args.events:
        events = (
            store.read_events(args.job_id)
            if store is not None
            else client.events(args.job_id)
        )
        for row in events:
            row = dict(row)
            row.pop("ts", None)
            event = row.pop("event", "?")
            detail = " ".join(f"{k}={v}" for k, v in sorted(row.items()))
            print(f"{event:<20}{detail}".rstrip())
        return 0

    payload = describe()
    if args.follow or args.wait:
        next_generation = 0
        while True:
            if args.follow:
                for row in metrics_since(next_generation):
                    generation = int(row.get("generation", 0))
                    next_generation = max(next_generation, generation + 1)
                    print(f"gen {generation}: "
                          f"best {row.get('best_fitness', 0.0):.2f} "
                          f"mean {row.get('mean_fitness', 0.0):.2f}")
            payload = describe()
            if payload["state"] in TERMINAL_STATES:
                break
            time.sleep(args.poll_interval)
        if args.follow:
            # Drain rows that landed between the last poll and the
            # terminal transition.
            for row in metrics_since(next_generation):
                print(f"gen {row.get('generation')}: "
                      f"best {row.get('best_fitness', 0.0):.2f} "
                      f"mean {row.get('mean_fitness', 0.0):.2f}")
    _print_job(payload)
    return 1 if payload["state"] == FAILED else 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .obs import render_top, snapshot_fleet
    from .serve import JobStore

    store = JobStore(args.root)
    try:
        while True:
            screen = render_top(snapshot_fleet(store, detail=True))
            if args.once:
                print(screen)
                return 0
            # Clear + home, like top(1); plain print would scroll.
            sys.stdout.write("\x1b[2J\x1b[H" + screen + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs import (
        TELEMETRY_FILENAME,
        export_chrome_trace,
        phase_summary,
        read_jsonl,
    )

    run_dir = Path(args.run_dir)
    telemetry = (
        run_dir / TELEMETRY_FILENAME if run_dir.is_dir() else run_dir
    )
    if not telemetry.exists():
        raise FileNotFoundError(
            f"{telemetry} not found — record one with "
            "'repro run --trace --run-dir DIR' (or REPRO_TRACE=1)"
        )

    if args.export:
        out = args.out or str(run_dir / "trace.json")
        events = export_chrome_trace(telemetry, out)
        print(f"wrote {events} events to {out}")
        print("  open in https://ui.perfetto.dev or chrome://tracing")
        return 0

    rows = read_jsonl(telemetry)
    summary = phase_summary(rows)
    if not summary:
        print(f"{telemetry} holds no span rows")
        return 0
    table_rows = [
        [
            entry["phase"],
            entry["count"],
            f"{entry['total_s']:.3f}",
            f"{entry['mean_s'] * 1e3:.2f}",
            f"{entry['share'] * 100:.1f}%",
        ]
        for entry in summary
    ]
    print(render_table(
        ["phase", "count", "total s", "mean ms", "share"],
        table_rows,
        title=f"Phase breakdown: {telemetry}",
    ))
    counters: Dict[str, int] = {}
    for row in rows:
        if row.get("type") == "counter":
            name = str(row.get("name", "?"))
            counters[name] = counters.get(name, 0) + int(row.get("value", 0))
    if counters:
        print()
        print(render_table(
            ["counter", "total"],
            [[name, counters[name]] for name in sorted(counters)],
            title="Counters",
        ))
    print()
    print("note: phases nest (run > evaluate > compile/rollout), so "
          "shares profile wall time rather than partition it")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GeneSys (MICRO 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("envs", help="list the environment suite").set_defaults(
        func=_cmd_envs
    )
    sub.add_parser(
        "backends", help="list the experiment backend keys"
    ).set_defaults(func=_cmd_backends)

    def add_workload_args(p: argparse.ArgumentParser,
                          threshold_default: str = "the environment's "
                                                   "solve threshold") -> None:
        # Defaults are None so a --spec file only loses to flags the user
        # actually typed; fallbacks live in _SPEC_DEFAULTS.
        p.add_argument("env", nargs="?", default=None,
                       help="environment id, exactly as 'envs' lists "
                            "it, e.g. CartPole-v0 (optional with --spec)")
        p.add_argument("--spec", metavar="FILE",
                       help="load an ExperimentSpec JSON file; explicit "
                            "flags override its fields")
        p.add_argument("--backend", metavar="NAME",
                       help="experiment backend: software (default), soc, "
                            "or analytical:<platform> (see 'backends')")
        p.add_argument("--generations", type=int, default=None,
                       help="generation budget (default 10)")
        p.add_argument("--population", type=int, default=None,
                       help="population size (default 50)")
        p.add_argument("--episodes", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-steps", type=int, default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="parallel fitness-evaluation workers "
                            "(default 1; results are bit-identical)")
        p.add_argument("--vectorizer", metavar="NAME", default=None,
                       help="inference strategy for the software loop: "
                            "scalar (default, node-by-node reference) or "
                            "numpy (compiled batch engine)")
        p.add_argument("--fitness-threshold", type=float, default=None,
                       help="stop when this fitness is reached (default: "
                            f"{threshold_default})")

    run = sub.add_parser("run", help="evolve an environment")
    add_workload_args(run)
    run.add_argument("--platform", metavar="NAME|FILE",
                     help="run on a platform of the fixed table (see "
                          "'platforms') or, for a custom one, a "
                          "PlatformSpec JSON file; picks --backend "
                          "analytical (or soc for a soc-kind spec) "
                          "unless one is given")
    run.add_argument("--scenario", metavar="NAME|FILE",
                     help="run an environment scenario: a built-in "
                          "name (see 'scenarios') or, for a custom one, "
                          "a ScenarioSpec JSON file — tunable physics "
                          "overrides, seeded perturbation wrappers, "
                          "optional curriculum (docs/scenarios.md)")
    run.add_argument("--run-dir", metavar="DIR", dest="run_dir",
                     help="persist run artifacts (spec, metrics.jsonl, "
                          "checkpoints, champion) into DIR; the run "
                          "becomes resumable")
    run.add_argument("--resume", metavar="DIR",
                     help="continue the run recorded in DIR from its "
                          "last checkpoint, bit-identically to an "
                          "uninterrupted run; only --generations may "
                          "accompany it (to extend the budget)")
    run.add_argument("--checkpoint-every", type=_positive_int,
                     default=None, metavar="N",
                     help="full-state checkpoint cadence in generations "
                          "(default 5; resume keeps the recorded "
                          "cadence)")
    run.add_argument("--trace", action="store_true",
                     help="append span/counter telemetry to "
                          "telemetry.jsonl in the run directory "
                          "(requires --run-dir or --resume; strictly "
                          "out-of-band — every other artifact stays "
                          "byte-identical; see 'repro trace' and "
                          "docs/observability.md)")
    run.add_argument("--save", metavar="FILE",
                     help="save the champion genome (JSON)")
    run.add_argument("--save-spec", metavar="FILE",
                     help="save the resolved ExperimentSpec (JSON)")
    run.add_argument("--show", action="store_true",
                     help="print the champion's topology")
    run.set_defaults(func=_cmd_run)

    infer = sub.add_parser("infer", help="roll out a saved champion")
    infer.add_argument("champion", help="champion JSON from 'run --save'")
    infer.add_argument("env", help="environment id")
    infer.add_argument("--episodes", type=int, default=3)
    infer.add_argument("--seed", type=int, default=0)
    infer.add_argument("--max-steps", type=int, default=None)
    infer.set_defaults(func=_cmd_infer)

    # The trace recorder has no solve-threshold fallback.
    whole_budget = "none, so the whole generation budget is recorded"
    char = sub.add_parser("characterise", help="workload characterisation")
    add_workload_args(char, whole_budget)
    char.set_defaults(func=_cmd_characterise)

    plat = sub.add_parser(
        "platforms",
        help="platform table / comparison",
        description="With no environment: list the fixed platform table "
                    "(the nine Table III legend names and the "
                    "cycle-level soc design point); --json emits the "
                    "machine-readable PlatformSpec dump.  With an "
                    "environment: the Fig. 9-style modelled "
                    "runtime/energy matrix across every platform of the "
                    "table.",
    )
    add_workload_args(plat, whole_budget)
    plat.add_argument("--json", action="store_true",
                      help="print the table as JSON (platform name -> "
                           "PlatformSpec dict)")
    plat.set_defaults(func=_cmd_platforms)

    scen = sub.add_parser(
        "scenarios",
        help="list the built-in scenarios",
        description="List the built-in environment scenarios "
                    "(repro.scenarios): tunable-parameter variants, "
                    "seeded adversarial perturbations and curriculum "
                    "schedules, runnable with 'repro run --scenario "
                    "NAME' and sweepable with the scenario.* dse axes.",
    )
    scen.add_argument("--json", action="store_true",
                      help="print the table as JSON (scenario name -> "
                           "ScenarioSpec dict)")
    scen.set_defaults(func=_cmd_scenarios)

    sub.add_parser("design-space", help="PE sweep power/area table").set_defaults(
        func=_cmd_design_space
    )

    dse = sub.add_parser(
        "dse",
        help="run a declarative design-space sweep (repro.dse)",
        description="Expand a SweepSpec JSON file into experiment points, "
                    "run them through the experiment backends with on-disk "
                    "memoisation, and tabulate/export the results.  Axes "
                    "span experiment-spec fields and unified platform-"
                    "spec fields (platform.eve_pes, platform.noc, "
                    "platform.scheduler, platform.adam_shape, ...).",
    )
    dse.add_argument("--sweep", metavar="FILE", required=True,
                     help="SweepSpec JSON file (base spec + axes)")
    dse.add_argument("--cache-dir", metavar="DIR", default=None,
                     help="point cache directory (default: "
                          "$REPRO_DSE_CACHE or ~/.cache/repro-dse)")
    dse.add_argument("--no-cache", action="store_true",
                     help="disable the on-disk point cache")
    dse.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                     help="process-pool parallelism across sweep points "
                          "(default 1; composes with each point's "
                          "'workers' setting)")
    dse.add_argument("--export", metavar="PREFIX",
                     help="write PREFIX.csv and PREFIX.json result tables")
    dse.add_argument("--pareto", metavar="OBJECTIVES",
                     help="print the Pareto frontier, e.g. "
                          "'fitness:max,energy_j:min'")
    dse.add_argument("--group-by", metavar="AXIS[:METRIC]",
                     help="print a per-axis-value summary of METRIC "
                          "(default fitness)")
    dse.add_argument("--runs-dir", metavar="DIR", dest="runs_dir",
                     default=None,
                     help="write one durable run directory per evaluated "
                          "sweep point under DIR (content-addressed; "
                          "points become inspectable with 'repro "
                          "report' and resumable on interruption)")
    dse.add_argument("--quiet", action="store_true",
                     help="suppress per-point progress lines")
    dse.add_argument("--worker", action="store_true",
                     help="run as a distributed sweep worker: claim "
                          "pending points via atomic claim files in the "
                          "shared work dir, evaluate them into the "
                          "shared cache, and exit when the sweep is "
                          "drained (start any number of workers on any "
                          "number of hosts)")
    dse.add_argument("--watch", action="store_true",
                     help="follow a distributed sweep's progress "
                          "(incremental frontier with --pareto) and "
                          "print/export the collected table once every "
                          "point is cached")
    dse.add_argument("--halving", metavar="OBJECTIVES", default=None,
                     help="successive-halving early stopping: run "
                          "geometric max_generations rungs, promoting "
                          "the top 1/reduction by the first objective "
                          "plus every rung-Pareto-frontier point, e.g. "
                          "'fitness:max,energy_j:min'")
    dse.add_argument("--reduction", type=_positive_int, default=3,
                     metavar="N",
                     help="halving reduction factor (default 3): each "
                          "rung promotes ~1/N of its points")
    dse.add_argument("--min-generations", type=_positive_int, default=1,
                     metavar="N", dest="min_generations",
                     help="smallest halving rung budget (default 1)")
    dse.add_argument("--work-dir", metavar="DIR", dest="work_dir",
                     default=None,
                     help="claim files + event ledger for --worker/"
                          "--watch (default: a <cache-dir>.work/ "
                          "subdirectory keyed by the sweep's content "
                          "hash; never inside the cache itself)")
    dse.add_argument("--stale-after", type=float, default=60.0,
                     metavar="SECONDS", dest="stale_after",
                     help="reclaim a claim whose heartbeat is older "
                          "than this (default 60)")
    dse.add_argument("--poll-interval", type=float, default=0.5,
                     metavar="SECONDS", dest="poll_interval",
                     help="worker/watch poll cadence while waiting on "
                          "other workers (default 0.5)")
    dse.add_argument("--timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="--watch: give up if the sweep is still "
                          "unfinished after this long")
    dse.add_argument("--max-points", type=_positive_int, default=None,
                     metavar="N", dest="max_points",
                     help="--worker: exit after evaluating N fresh "
                          "points (fault-injection drills)")
    dse.add_argument("--metrics-port", type=int, default=None,
                     metavar="PORT", dest="metrics_port",
                     help="--worker: serve claim/reclaim/evaluation "
                          "counters at GET /metrics on this port "
                          "(0 picks a free one)")
    dse.set_defaults(func=_cmd_dse)

    report = sub.add_parser(
        "report",
        help="rebuild metric tables from run directories",
        description="Re-derive fitness-curve and hardware/cost tables "
                    "from recorded run artifacts (spec.json + "
                    "metrics.jsonl + result.json) — no re-simulation. "
                    "Works on finished, in-progress and interrupted "
                    "runs alike.",
    )
    report.add_argument("dirs", nargs="+", metavar="DIR",
                        help="run directories (from 'run --run-dir' or "
                             "'dse --runs-dir')")
    report.add_argument("--summary-only", action="store_true",
                        help="print only the cross-run summary table")
    report.add_argument("--export", metavar="PREFIX",
                        help="write PREFIX.csv (per-generation rows) and "
                             "PREFIX.json (full artifacts)")
    report.set_defaults(func=_cmd_report)

    def add_endpoint_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--root", metavar="DIR",
                       help="serve root directory (direct store access; "
                            "works with or without a running scheduler)")
        p.add_argument("--url", metavar="URL",
                       help="HTTP endpoint of a 'repro serve' process, "
                            "e.g. http://127.0.0.1:8642")

    serve = sub.add_parser(
        "serve",
        help="run the evolution-job scheduler and HTTP API",
        description="Run the repro.serve scheduler over a serve root: a "
                    "pool of worker processes executes queued jobs in "
                    "checkpoint-sized slices, higher-priority submissions "
                    "preempt running jobs at their next checkpoint "
                    "boundary (and later resume bit-identically), crashed "
                    "workers are reclaimed via stale lock heartbeats and "
                    "retried with exponential backoff.  Unless --no-http "
                    "is given, a JSON API serves submissions, status, "
                    "metrics and cancellation over HTTP.",
    )
    serve.add_argument("root", metavar="ROOT",
                       help="serve root directory (created if missing)")
    serve.add_argument("--workers", type=_positive_int, default=2,
                       metavar="N",
                       help="concurrent worker processes (default 2)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="HTTP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="HTTP port (default 8642; 0 picks a free one)")
    serve.add_argument("--no-http", action="store_true",
                       help="run the scheduler only, without the JSON API")
    serve.add_argument("--until-idle", action="store_true",
                       help="exit once every job is terminal (batch/CI "
                            "mode) instead of serving forever")
    serve.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="with --until-idle: fail if jobs are still "
                            "active after S seconds")
    serve.add_argument("--poll-interval", type=float, default=0.5,
                       metavar="S",
                       help="scheduler poll cadence in seconds "
                            "(default 0.5)")
    serve.add_argument("--backoff-base", type=float, default=1.0,
                       metavar="S",
                       help="first retry delay for failed jobs; attempt n "
                            "waits backoff * 2^(n-1) (default 1.0)")
    serve.add_argument("--stale-after", type=float, default=30.0,
                       metavar="S",
                       help="reclaim a running job when its run-lock "
                            "heartbeat is older than S seconds "
                            "(default 30)")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="queue an experiment as a job",
        description="Build an experiment spec exactly like 'run' does "
                    "(flags and/or --spec FILE) and enqueue it as a job "
                    "in a serve root — directly (--root) or through a "
                    "running server (--url).  Higher --priority jobs "
                    "dispatch first and preempt lower-priority running "
                    "jobs at their next checkpoint boundary.",
    )
    add_workload_args(submit)
    add_endpoint_args(submit)
    submit.add_argument("--priority", type=int, default=0,
                        help="scheduling priority (default 0; higher "
                             "preempts lower)")
    submit.add_argument("--checkpoint-every", type=_positive_int,
                        default=None, metavar="N",
                        help="checkpoint cadence in generations; also the "
                             "preemption granularity (default 5)")
    submit.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="crashed-worker retries before the job is "
                             "marked failed (default 2)")
    submit.set_defaults(func=_cmd_submit)

    jobs = sub.add_parser(
        "jobs", help="list jobs in a serve root",
    )
    add_endpoint_args(jobs)
    jobs.set_defaults(func=_cmd_jobs)

    job = sub.add_parser(
        "job",
        help="inspect, follow or cancel one job",
        description="Show one job's state and progress.  --wait blocks "
                    "until the job is terminal (for scripts/CI), --follow "
                    "additionally streams per-generation metrics as they "
                    "are recorded, --events prints the job's full event "
                    "history (submissions, slices, preemptions, retries), "
                    "--cancel stops it (immediately if waiting, at the "
                    "next checkpoint boundary if running).  Exits 1 if "
                    "the job ended in state 'failed'.",
    )
    job.add_argument("job_id", metavar="ID", help="job id, e.g. job-000001")
    add_endpoint_args(job)
    job.add_argument("--cancel", action="store_true",
                     help="cancel the job")
    job.add_argument("--wait", action="store_true",
                     help="block until the job reaches a terminal state")
    job.add_argument("--follow", action="store_true",
                     help="stream metrics until the job is terminal "
                          "(implies --wait)")
    job.add_argument("--events", action="store_true",
                     help="print the job's event log and exit")
    job.add_argument("--poll-interval", type=float, default=1.0,
                     metavar="S",
                     help="poll cadence for --wait/--follow (default 1.0)")
    job.set_defaults(func=_cmd_job)

    top = sub.add_parser(
        "top",
        help="live one-screen fleet view of a serve root",
        description="Render the serve root's jobs — state, progress, "
                    "best fitness, lock-heartbeat age — as one screen, "
                    "refreshed in place (reads the on-disk store; no "
                    "server required).  The same data feeds the HTTP "
                    "API's GET /metrics Prometheus endpoint.",
    )
    top.add_argument("root", metavar="ROOT", help="serve root directory")
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="refresh cadence in seconds (default 2.0)")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit (scripts/CI)")
    top.set_defaults(func=_cmd_top)

    trace = sub.add_parser(
        "trace",
        help="inspect a traced run's telemetry",
        description="Summarise a run's telemetry.jsonl (recorded with "
                    "'run --trace' or REPRO_TRACE=1) as a Fig. 10-style "
                    "phase breakdown — where the wall-clock went: "
                    "evaluate vs reproduce vs checkpoint, compile vs "
                    "rollout — or export it as Chrome trace-event JSON "
                    "for Perfetto / chrome://tracing.",
    )
    trace.add_argument("run_dir", metavar="RUN_DIR",
                       help="a traced run directory (or a telemetry.jsonl "
                            "path directly)")
    trace.add_argument("--export", metavar="FORMAT", choices=["chrome"],
                       help="write the trace instead of summarising; "
                            "formats: chrome (trace-event JSON)")
    trace.add_argument("--out", metavar="FILE",
                       help="output path for --export (default: "
                            "RUN_DIR/trace.json)")
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    import os

    trace_file = os.environ.get("REPRO_TRACE_FILE")
    if trace_file:
        # Process-wide telemetry for commands with no run directory
        # (dse sweeps, characterise); run-scoped tracing still takes
        # over inside run_in_dir.  Forked pool workers inherit it.
        from .obs import Tracer, install

        install(Tracer(trace_file))
    from .api import SpecError
    from .dse import ObjectiveError
    from .envs.registry import UnknownEnvironmentError
    from .neat.serialize import DeserializationError
    from .platforms import PlatformSpecError, UnknownPlatformError
    from .runs import RunError
    from .scenarios import ScenarioSpecError, UnknownScenarioError
    from .serve import JobStoreError, ServeClientError

    try:
        return args.func(args)
    except (
        UsageError, SpecError, UnknownEnvironmentError,
        ObjectiveError, RunError, DeserializationError,
        PlatformSpecError, UnknownPlatformError,
        ScenarioSpecError, UnknownScenarioError,
        JobStoreError, ServeClientError,
    ) as exc:
        # KeyError subclasses repr-quote their message; unwrap it.
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
