"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_envs_command(capsys):
    assert main(["envs"]) == 0
    out = capsys.readouterr().out
    assert "CartPole-v0" in out
    assert "Alien-ram-v0" in out


def test_run_software(capsys):
    code = main([
        "run", "CartPole-v0", "--generations", "2", "--population", "15",
        "--max-steps", "40",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "[software] CartPole-v0" in out
    assert "best fitness" in out


def test_run_hardware(capsys):
    code = main([
        "run", "CartPole-v0", "--backend", "soc", "--generations", "2",
        "--population", "12", "--max-steps", "40",
    ])
    assert code == 0
    first, second = capsys.readouterr().out.splitlines()[:2]
    assert first.startswith("[soc] CartPole-v0: best fitness ")
    assert second.startswith("  chip time ") and "energy" in second


def test_characterise(capsys):
    code = main([
        "characterise", "MountainCar-v0", "--generations", "2",
        "--population", "10", "--max-steps", "30",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Workload characterisation" in out
    assert "fittest reuse" in out


def test_platforms(capsys):
    code = main([
        "platforms", "CartPole-v0", "--generations", "2",
        "--population", "10", "--max-steps", "30",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "GENESYS" in out
    assert "CPU_a" in out


def test_platforms_registry_listing(capsys):
    """With no environment, 'platforms' prints the registry."""
    assert main(["platforms"]) == 0
    out = capsys.readouterr().out
    assert "Platform registry" in out
    assert "GENESYS" in out and "soc" in out
    assert "'--platform FILE' (a PlatformSpec JSON file)" in out


def test_platforms_json_dump_validates(capsys):
    import json

    from repro.platforms import PlatformSpec, platform_names

    assert main(["platforms", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == platform_names()
    for name, spec_dict in payload.items():
        spec = PlatformSpec.from_dict(spec_dict)
        assert spec.name == name
        assert spec.to_dict() == spec_dict


def test_run_with_platform_flag(capsys):
    """An analytical-only table name picks analytical; GENESYS is the
    chip, a soc-kind row, so it picks the cycle-level soc backend."""
    for name, label in (("CPU_a", "analytical:CPU_a"), ("GENESYS", "soc")):
        code = main([
            "run", "CartPole-v0", "--platform", name,
            "--generations", "2", "--population", "10", "--max-steps", "30",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"[{label}] CartPole-v0" in out


def test_run_with_soc_kind_platform_flag(capsys):
    code = main([
        "run", "CartPole-v0", "--platform", "soc",
        "--generations", "2", "--population", "10", "--max-steps", "30",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "[soc] CartPole-v0" in out  # soc-kind picks the soc backend


def test_run_with_platform_spec_file(tmp_path, capsys):
    from repro.platforms import PlatformSpec

    path = tmp_path / "quarter.json"
    PlatformSpec("soc", "QUARTER", {"eve_pes": 64}).save(path)
    code = main([
        "run", "CartPole-v0", "--platform", str(path),
        "--backend", "analytical",
        "--generations", "2", "--population", "10", "--max-steps", "30",
    ])
    assert code == 0
    assert "[analytical:QUARTER]" in capsys.readouterr().out


def test_platforms_json_rejects_env(capsys):
    assert main(["platforms", "CartPole-v0", "--json"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: --json prints the platform table"
    )


def test_run_unknown_platform_errors(capsys):
    code = main([
        "run", "CartPole-v0", "--platform", "TPU", "--generations", "2",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown" in err and "TPU" in err


def test_design_space(capsys):
    assert main(["design-space"]) == 0
    out = capsys.readouterr().out
    assert "256" in out
    assert "947" in out  # the paper's design point power


def test_backends_command(capsys):
    assert main(["backends"]) == 0
    out = capsys.readouterr().out
    assert "software" in out
    assert "soc" in out
    assert "analytical:GENESYS" in out


def test_run_backend_flag_soc(capsys):
    code = main([
        "run", "CartPole-v0", "--backend", "soc", "--generations", "2",
        "--population", "12", "--max-steps", "40",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "[soc] CartPole-v0" in out


def test_run_backend_analytical(capsys):
    code = main([
        "run", "CartPole-v0", "--backend", "analytical:GENESYS",
        "--generations", "2", "--population", "12", "--max-steps", "40",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "[analytical:GENESYS] CartPole-v0" in out
    assert "energy" in out


def test_run_workers_flag(capsys):
    code = main([
        "run", "CartPole-v0", "--generations", "2", "--population", "12",
        "--max-steps", "40", "--workers", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 workers" in out


def test_run_fitness_threshold_flag(capsys):
    code = main([
        "run", "CartPole-v0", "--generations", "5", "--population", "15",
        "--max-steps", "40", "--fitness-threshold", "5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "converged=True" in out


def test_run_spec_file(tmp_path, capsys):
    from repro.api import ExperimentSpec

    path = tmp_path / "spec.json"
    ExperimentSpec(
        "CartPole-v0", max_generations=2, pop_size=12, max_steps=40
    ).save(path)
    assert main(["run", "--spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[software] CartPole-v0" in out


def test_run_spec_file_with_flag_override(tmp_path, capsys):
    from repro.api import ExperimentSpec

    path = tmp_path / "spec.json"
    ExperimentSpec(
        "CartPole-v0", max_generations=2, pop_size=12, max_steps=40
    ).save(path)
    assert main(["run", "--spec", str(path), "--backend", "soc"]) == 0
    out = capsys.readouterr().out
    assert "[soc] CartPole-v0" in out


def test_run_save_spec_round_trips(tmp_path):
    from repro.api import ExperimentSpec

    path = tmp_path / "out.json"
    assert main([
        "run", "CartPole-v0", "--generations", "2", "--population", "12",
        "--max-steps", "40", "--save-spec", str(path),
    ]) == 0
    spec = ExperimentSpec.load(path)
    assert spec.env_id == "CartPole-v0"
    assert spec.max_generations == 2


def test_characterise_workers(capsys):
    code = main([
        "characterise", "CartPole-v0", "--generations", "2",
        "--population", "10", "--max-steps", "30", "--workers", "2",
    ])
    assert code == 0
    assert "Workload characterisation" in capsys.readouterr().out


def test_unknown_backend_clean_error(capsys):
    assert main(["run", "CartPole-v0", "--backend", "fpga"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown backend")
    assert "software" in err


def test_invalid_spec_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["run", "--spec", str(path)]) == 2
    assert "invalid spec JSON" in capsys.readouterr().err


def test_unknown_vectorizer_clean_error(capsys):
    code = main([
        "run", "CartPole-v0", "--vectorizer", "fpga", "--generations", "1",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vectorizer must be 'scalar' or 'numpy'")
    assert "fpga" in err


def test_unknown_vectorizer_in_spec_file_clean_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(
        '{"env_id": "CartPole-v0", "vectorizer": "cuda"}'
    )
    assert main(["run", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vectorizer must be")


def test_missing_spec_file_clean_error(tmp_path, capsys):
    assert main(["run", "--spec", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_spec_with_unknown_fields_clean_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"env_id": "CartPole-v0", "warp_factor": 9}')
    assert main(["run", "--spec", str(path)]) == 2
    assert "unknown spec fields" in capsys.readouterr().err


@pytest.mark.parametrize("options", ['"x"', '{"bogus": 1}'])
def test_bad_backend_options_in_spec_file_clean_error(tmp_path, capsys, options):
    path = tmp_path / "spec.json"
    path.write_text(
        '{"env_id": "CartPole-v0", "backend_options": ' + options + '}'
    )
    assert main(["run", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_unknown_environment_clean_error(capsys):
    assert main(["run", "SpaceInvaders-3d-v9", "--generations", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "SpaceInvaders-3d-v9" in err


def test_run_vectorizer_numpy(capsys):
    code = main([
        "run", "CartPole-v0", "--vectorizer", "numpy", "--generations", "2",
        "--population", "12", "--max-steps", "40",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "[software] CartPole-v0" in out
    assert "inference vectorized" in out


def test_soc_backend_notes_ignored_vectorizer(capsys):
    code = main([
        "run", "CartPole-v0", "--backend", "soc", "--vectorizer", "numpy",
        "--generations", "1", "--population", "10", "--max-steps", "30",
    ])
    assert code == 0
    assert "ignored by the soc backend" in capsys.readouterr().out


def test_run_vectorizer_scalar_prints_no_note(capsys):
    code = main([
        "run", "CartPole-v0", "--vectorizer", "scalar", "--generations", "1",
        "--population", "10", "--max-steps", "30",
    ])
    assert code == 0
    assert "inference vectorized" not in capsys.readouterr().out


def test_vectorizer_matches_scalar_trajectory(capsys):
    """The CLI surface of the golden contract: same flags, same fitness."""
    args = ["run", "CartPole-v0", "--generations", "2", "--population", "12",
            "--max-steps", "40", "--seed", "3"]
    assert main(args) == 0
    scalar_out = capsys.readouterr().out
    assert main(args + ["--vectorizer", "numpy"]) == 0
    numpy_out = capsys.readouterr().out
    scalar_fitness = scalar_out.split("best fitness")[1].split("after")[0]
    numpy_fitness = numpy_out.split("best fitness")[1].split("after")[0]
    assert scalar_fitness == numpy_fitness


def test_characterise_rejects_non_software_backend(capsys):
    assert main([
        "characterise", "CartPole-v0", "--backend", "soc",
        "--generations", "1",
    ]) == 2
    assert capsys.readouterr().err.startswith(
        "error: 'characterise' characterises the software path"
    )


def test_platforms_rejects_non_software_backend(capsys):
    assert main([
        "platforms", "CartPole-v0", "--backend", "analytical:CPU_a",
        "--generations", "1",
    ]) == 2
    assert capsys.readouterr().err.startswith(
        "error: 'platforms' characterises the software path"
    )


def test_soc_run_does_not_claim_parallel_workers(capsys):
    code = main([
        "run", "CartPole-v0", "--backend", "soc", "--generations", "1",
        "--population", "10", "--max-steps", "30", "--workers", "4",
    ])
    assert code == 0
    assert "workers" not in capsys.readouterr().out


def test_bare_analytical_backend_clean_error(capsys):
    """'analytical' without ':<platform>' must name the platforms."""
    code = main([
        "run", "CartPole-v0", "--backend", "analytical", "--generations", "1",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the analytical backend needs a platform")
    assert "analytical:<platform>" in err
    assert "GENESYS" in err and "CPU_a" in err


def _write_sweep(tmp_path, axes=None, **base_overrides):
    from repro.api import ExperimentSpec
    from repro.dse import SweepSpec

    base = ExperimentSpec(
        "CartPole-v0", max_generations=1, pop_size=8, max_steps=20,
        **base_overrides,
    )
    path = tmp_path / "sweep.json"
    SweepSpec(base=base, axes=axes or {"seed": [0, 1]}).save(path)
    return path


def test_dse_runs_and_caches(tmp_path, capsys):
    sweep = _write_sweep(tmp_path)
    cache = str(tmp_path / "cache")
    args = ["dse", "--sweep", str(sweep), "--cache-dir", cache, "--quiet"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "sweep: 2 points" in out
    assert "cache hits 0/2" in out
    # Second invocation: everything served from the cache.
    assert main(args) == 0
    assert "cache hits 2/2" in capsys.readouterr().out


def test_dse_export_and_pareto_and_group_by(tmp_path, capsys):
    sweep = _write_sweep(tmp_path)
    prefix = str(tmp_path / "result")
    assert main([
        "dse", "--sweep", str(sweep), "--no-cache", "--quiet",
        "--export", prefix,
        "--pareto", "fitness:max",
        "--group-by", "seed:fitness",
    ]) == 0
    out = capsys.readouterr().out
    assert "Pareto frontier" in out
    assert "fitness grouped by seed" in out
    assert (tmp_path / "result.csv").exists()
    assert (tmp_path / "result.json").exists()


def test_dse_progress_lines(tmp_path, capsys):
    sweep = _write_sweep(tmp_path)
    assert main(["dse", "--sweep", str(sweep), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "[1/2] run" in out
    assert "seed=0" in out


def test_dse_missing_sweep_file_clean_error(tmp_path, capsys):
    assert main(["dse", "--sweep", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_dse_invalid_sweep_json_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["dse", "--sweep", str(path)]) == 2
    assert "invalid sweep JSON" in capsys.readouterr().err


def test_dse_unknown_axis_clean_error(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(
        '{"base": {"env_id": "CartPole-v0"}, "axes": {"warp": [1]}}'
    )
    assert main(["dse", "--sweep", str(path)]) == 2
    assert "unknown sweep axis" in capsys.readouterr().err


def test_dse_bad_pareto_objective_clean_error(tmp_path, capsys):
    sweep = _write_sweep(tmp_path, axes={"seed": [0]})
    assert main([
        "dse", "--sweep", str(sweep), "--no-cache", "--quiet",
        "--pareto", "fitness:up",
    ]) == 2
    assert "direction must be" in capsys.readouterr().err


def test_dse_requires_sweep_flag():
    with pytest.raises(SystemExit):
        main(["dse"])


def test_dse_rejects_non_positive_jobs(tmp_path, capsys):
    sweep = _write_sweep(tmp_path, axes={"seed": [0]})
    with pytest.raises(SystemExit) as excinfo:
        main(["dse", "--sweep", str(sweep), "--jobs", "0"])
    assert excinfo.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_dse_typoed_pareto_metric_clean_error(tmp_path, capsys):
    sweep = _write_sweep(tmp_path, axes={"seed": [0]})
    assert main([
        "dse", "--sweep", str(sweep), "--no-cache", "--quiet",
        "--pareto", "fitnes:max",
    ]) == 2
    assert "not a numeric column" in capsys.readouterr().err


def test_dse_typoed_group_by_axis_clean_error(tmp_path, capsys):
    sweep = _write_sweep(tmp_path, axes={"seed": [0]})
    assert main([
        "dse", "--sweep", str(sweep), "--no-cache", "--quiet",
        "--group-by", "sede",
    ]) == 2
    assert "unknown axis" in capsys.readouterr().err


def test_run_with_run_dir_and_resume(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main([
        "run", "CartPole-v0", "--generations", "3", "--population", "12",
        "--max-steps", "30", "--fitness-threshold", "1000",
        "--run-dir", run_dir, "--checkpoint-every", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert f"artifacts in {run_dir}" in out
    assert (tmp_path / "run" / "metrics.jsonl").exists()
    assert (tmp_path / "run" / "result.json").exists()

    # Extend via --resume --generations; spec comes from the directory.
    assert main(["run", "--resume", run_dir, "--generations", "4"]) == 0
    out = capsys.readouterr().out
    assert "resumed" in out and "checkpoint at generation 3" in out
    assert "after 4 generations" in out


def test_run_resume_rejects_spec_flags(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main([
        "run", "CartPole-v0", "--generations", "2", "--population", "10",
        "--max-steps", "20", "--run-dir", run_dir,
    ]) == 0
    capsys.readouterr()
    assert main(["run", "--resume", run_dir, "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --resume takes the spec")
    assert "only --generations" in err
    # Zero-valued flags are overrides too (0 must not read as "unset").
    assert main(["run", "--resume", run_dir, "--seed", "0"]) == 2
    assert "only --generations" in capsys.readouterr().err


def test_run_resume_missing_dir_clean_error(tmp_path, capsys):
    assert main(["run", "--resume", str(tmp_path / "nope")]) == 2
    assert "no spec.json" in capsys.readouterr().err


def test_report_command(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main([
        "run", "CartPole-v0", "--generations", "2", "--population", "10",
        "--max-steps", "20", "--fitness-threshold", "1000",
        "--run-dir", run_dir,
    ]) == 0
    capsys.readouterr()
    prefix = str(tmp_path / "out")
    assert main(["report", run_dir, "--export", prefix]) == 0
    out = capsys.readouterr().out
    assert "Run summary" in out
    assert "fitness curve" in out
    assert (tmp_path / "out.csv").exists()
    assert (tmp_path / "out.json").exists()


def test_report_not_a_run_dir_clean_error(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 2
    assert "no spec.json" in capsys.readouterr().err


# case -> (document, what it holds instead, the command that reads it,
#          what the error names)
BAD_DOCUMENTS = {
    "result.json": ("result.json", '{"generations": 2, "conv', ["report", "{run}"],
                    "result.json"),
    "run.json": ("run.json", '{"format": 1, "checkpoint_', ["run", "--resume", "{run}"],
                 "run.json"),
    "job.json": ("job.json", "[]", ["job", "job-000001", "--root", "{root}"],
                 "job.json"),
    "job.json-no-fields": ("job.json", "{}", ["job", "job-000001", "--root", "{root}"],
                           "missing job record fields: ['id', 'spec']"),
    "spec.json-no-fields": ("spec.json", "{}", ["run", "--spec", "{spec}"],
                            "missing spec fields: ['env_id']"),
}


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_bad_document_clean_error(tmp_path, capsys, case):
    """A torn, foreign or incomplete run, job or spec document fails as
    ``error:`` with exit 2, not with a traceback."""
    from repro.api import ExperimentSpec
    from repro.runs import RunDir
    from repro.serve import JobStore

    spec = ExperimentSpec("CartPole-v0", max_generations=2, pop_size=10,
                          max_steps=20)
    run = RunDir(tmp_path / "run").create()
    run.write_spec(spec)
    run.write_meta(checkpoint_every=1)
    store = JobStore(tmp_path / "root")
    store.submit(spec)
    document, text, argv, named = BAD_DOCUMENTS[case]
    where = {"job.json": store.job_dir("job-000001"), "spec.json": tmp_path}
    (where.get(document, run.path) / document).write_text(text)
    argv = [arg.format(run=run.path, root=store.root, spec=tmp_path / "spec.json")
            for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_dse_runs_dir(tmp_path, capsys):
    sweep = _write_sweep(tmp_path, axes={"seed": [0]})
    runs_dir = tmp_path / "points"
    assert main([
        "dse", "--sweep", str(sweep), "--no-cache", "--quiet",
        "--runs-dir", str(runs_dir),
    ]) == 0
    point_dirs = list(runs_dir.iterdir())
    assert len(point_dirs) == 1
    assert (point_dirs[0] / "metrics.jsonl").exists()
    capsys.readouterr()
    # The recorded point is inspectable with `repro report`.
    assert main(["report", str(point_dirs[0]), "--summary-only"]) == 0
    assert "CartPole-v0" in capsys.readouterr().out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["warp"])


def test_missing_env_argument_exits(capsys):
    assert main(["run"]) == 2
    assert capsys.readouterr().err == (
        "error: an environment id or --spec FILE is required\n"
    )


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "cartpole-windy"],
    ["jobs"],
    ["trace", "/nonexistent"],
])
def test_usage_errors_exit_2(argv, capsys):
    """A command line that names no valid request is a user error like
    any other: ``error: ...`` on stderr and exit 2, not a bare exit 1."""
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_dse_modes_are_exclusive(tmp_path, capsys):
    sweep = _write_sweep(tmp_path, axes={"seed": [0]})
    assert main([
        "dse", "--sweep", str(sweep), "--worker", "--watch",
    ]) == 2
    assert capsys.readouterr().err == (
        "error: --worker and --watch are mutually exclusive\n"
    )


def test_parser_help_strings():
    parser = build_parser()
    assert parser.prog == "repro"


def test_run_resume_soc_backend_clean_error(tmp_path, capsys):
    """`repro run --resume` on a soc-backend run dir must be a one-line
    friendly error (exit 2), not a traceback or a silent restart."""
    run_dir = str(tmp_path / "socrun")
    assert main([
        "run", "CartPole-v0", "--backend", "soc", "--generations", "2",
        "--population", "10", "--max-steps", "30", "--run-dir", run_dir,
    ]) == 0
    capsys.readouterr()
    assert main(["run", "--resume", run_dir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "soc backend" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_submit_jobs_job_round_trip(tmp_path, capsys):
    root = str(tmp_path / "serve-root")
    assert main([
        "submit", "CartPole-v0", "--root", root, "--generations", "3",
        "--population", "10", "--max-steps", "30", "--seed", "2",
        "--checkpoint-every", "2", "--priority", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "job-000001 queued" in out
    assert "priority 4" in out

    assert main(["jobs", "--root", root]) == 0
    out = capsys.readouterr().out
    assert "job-000001" in out and "queued" in out

    assert main(["job", "job-000001", "--root", root]) == 0
    out = capsys.readouterr().out
    assert "job-000001: queued" in out
    assert "generations 0/3" in out

    assert main(["job", "job-000001", "--root", root, "--events"]) == 0
    assert "submitted" in capsys.readouterr().out


def test_serve_until_idle_runs_submitted_jobs(tmp_path, capsys):
    root = str(tmp_path / "serve-root")
    for seed in ("1", "2"):
        assert main([
            "submit", "CartPole-v0", "--root", root, "--generations", "2",
            "--population", "10", "--max-steps", "30", "--seed", seed,
        ]) == 0
    capsys.readouterr()
    assert main([
        "serve", root, "--workers", "2", "--until-idle", "--no-http",
        "--poll-interval", "0.1", "--timeout", "300",
    ]) == 0
    out = capsys.readouterr().out
    assert "scheduling jobs from" in out
    assert main(["jobs", "--root", root]) == 0
    listing = capsys.readouterr().out
    assert listing.count(" done ") >= 2 or listing.count("done") >= 2
    # --wait returns immediately on a terminal job
    assert main(["job", "job-000001", "--root", root, "--wait"]) == 0
    assert "job-000001: done" in capsys.readouterr().out


def test_job_cancel_via_cli(tmp_path, capsys):
    root = str(tmp_path / "serve-root")
    assert main([
        "submit", "CartPole-v0", "--root", root, "--generations", "2",
        "--population", "10", "--max-steps", "30",
    ]) == 0
    capsys.readouterr()
    assert main(["job", "job-000001", "--root", root, "--cancel"]) == 0
    assert "cancelled" in capsys.readouterr().out
    assert main(["job", "job-000001", "--root", root]) == 0
    assert "job-000001: cancelled" in capsys.readouterr().out


def test_serve_endpoint_flags_are_exclusive(tmp_path, capsys):
    assert main(["jobs"]) == 2
    assert capsys.readouterr().err.startswith("error: exactly one of")
    assert main(["jobs", "--root", str(tmp_path), "--url", "http://x"]) == 2
    assert capsys.readouterr().err.startswith("error: exactly one of")


def test_job_unknown_id_clean_error(tmp_path, capsys):
    root = str(tmp_path / "serve-root")
    assert main([
        "submit", "CartPole-v0", "--root", root, "--generations", "2",
        "--population", "10", "--max-steps", "30",
    ]) == 0
    capsys.readouterr()
    assert main(["job", "job-000099", "--root", root]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "job-000099" in err


def test_submit_url_unreachable_clean_error(capsys):
    assert main([
        "submit", "CartPole-v0", "--url", "http://127.0.0.1:9",
        "--generations", "2", "--population", "10",
    ]) == 2
    assert "cannot reach" in capsys.readouterr().err


def test_run_trace_requires_a_run_dir(capsys):
    assert main(["run", "CartPole-v0", "--generations", "2", "--trace"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --trace writes telemetry.jsonl")
    assert "--run-dir" in err


def test_run_trace_then_trace_command(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main([
        "run", "CartPole-v0", "--generations", "2", "--population", "10",
        "--max-steps", "30", "--fitness-threshold", "1000",
        "--run-dir", run_dir, "--trace",
    ]) == 0
    out = capsys.readouterr().out
    assert "telemetry in" in out
    assert (tmp_path / "run" / "telemetry.jsonl").exists()

    assert main(["trace", run_dir]) == 0
    out = capsys.readouterr().out
    assert "Phase breakdown" in out
    assert "evaluate" in out and "reproduce" in out

    assert main(["trace", run_dir, "--export", "chrome"]) == 0
    out = capsys.readouterr().out
    assert "perfetto" in out
    trace_path = tmp_path / "run" / "trace.json"
    assert trace_path.exists()
    import json as _json
    trace = _json.loads(trace_path.read_text())
    assert trace["traceEvents"]


def test_trace_missing_telemetry_clean_error(tmp_path, capsys):
    (tmp_path / "run").mkdir()
    assert main(["trace", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "telemetry.jsonl" in err
    assert "--trace" in err


def test_top_once_renders_the_fleet(tmp_path, capsys):
    root = str(tmp_path / "serve-root")
    assert main([
        "submit", "CartPole-v0", "--root", root, "--generations", "2",
        "--population", "10", "--max-steps", "30",
    ]) == 0
    capsys.readouterr()
    assert main(["top", root, "--once"]) == 0
    out = capsys.readouterr().out
    assert "Fleet:" in out
    assert "job-000001" in out
    assert "queue_depth=1" in out


def test_job_follow_streams_metrics_from_the_tail(tmp_path, capsys):
    root = str(tmp_path / "serve-root")
    assert main([
        "submit", "CartPole-v0", "--root", root, "--generations", "3",
        "--population", "10", "--max-steps", "30", "--fitness-threshold",
        "1000",
    ]) == 0
    assert main([
        "serve", root, "--workers", "1", "--until-idle", "--no-http",
        "--poll-interval", "0.1", "--timeout", "300",
    ]) == 0
    capsys.readouterr()
    assert main([
        "job", "job-000001", "--root", root, "--follow",
        "--poll-interval", "0.05",
    ]) == 0
    out = capsys.readouterr().out
    # Every generation printed exactly once, even though the reader
    # polls repeatedly (byte-offset tail, not whole-file re-reads).
    for generation in (0, 1, 2):
        assert out.count(f"gen {generation}:") == 1
    assert "job-000001: done" in out
