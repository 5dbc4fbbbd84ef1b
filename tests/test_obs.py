"""Tracer, incremental tail, and trace-export tests.

The centrepiece is the out-of-band golden: a traced run's artifacts —
``metrics.jsonl``, every checkpoint, ``champion.json``, ``result.json``
— are byte-identical to an untraced run of the same spec; telemetry
only ever *adds* ``telemetry.jsonl``.
"""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.api import ExperimentSpec
from repro.obs import (
    TELEMETRY_FILENAME,
    JsonlTail,
    Tracer,
    chrome_trace,
    env_trace_enabled,
    export_chrome_trace,
    phase_summary,
    read_jsonl,
)
from repro.runs import run_in_dir


@pytest.fixture(autouse=True)
def no_tracer_leak():
    """A test that installs a tracer must not leak it into the next."""
    yield
    obs.uninstall()


# -- the tracer itself ------------------------------------------------------


def test_disabled_span_is_a_shared_noop(tmp_path):
    assert obs.current() is None
    first = obs.span("evaluate", generation=1)
    second = obs.span("reproduce")
    assert first is second  # the singleton: no allocation per call site
    with first as sp:
        assert sp.set(genomes=5) is sp
    obs.incr("dse.cache_hit")  # silently dropped
    assert list(tmp_path.iterdir()) == []


def test_span_rows_carry_timing_pid_and_attrs(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    with obs.tracing(path):
        with obs.span("evaluate", generation=3) as sp:
            sp.set(genomes=150)
    (row,) = read_jsonl(path)
    assert row["type"] == "span"
    assert row["name"] == "evaluate"
    assert row["attrs"] == {"generation": 3, "genomes": 150}
    assert row["dur_s"] >= 0.0
    assert row["ts"] > 0.0
    assert isinstance(row["pid"], int)


def test_counter_totals_accumulate_per_process(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    with obs.tracing(path):
        obs.incr("dse.cache_hit")
        obs.incr("dse.cache_hit", 2)
        obs.incr("dse.cache_miss")
    rows = read_jsonl(path)
    hits = [r for r in rows if r["name"] == "dse.cache_hit"]
    assert [(r["value"], r["total"]) for r in hits] == [(1, 1), (2, 3)]
    (miss,) = [r for r in rows if r["name"] == "dse.cache_miss"]
    assert miss["total"] == 1


def test_span_records_error_but_never_swallows_it(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    with obs.tracing(path):
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("no")
    (row,) = read_jsonl(path)
    assert row["error"] == "ValueError"


def test_attrs_json_cannot_encode_are_recorded_as_str(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    with obs.tracing(path):
        with obs.span("load", path=tmp_path):
            pass
        obs.incr("dse.claim", kinds={"a"})
    span_row, counter_row = read_jsonl(path)
    assert span_row["attrs"] == {"path": str(tmp_path)}
    assert counter_row["attrs"] == {"kinds": "{'a'}"}


def test_torn_telemetry_tail_does_not_eat_the_next_row(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    with obs.tracing(path):
        obs.incr("dse.claim")
        with open(path, "a") as handle:
            handle.write('{"type": "span", "na')  # writer died mid-row
        obs.incr("dse.claim")
    rows = read_jsonl(path)
    assert [(r["name"], r["total"]) for r in rows] == [
        ("dse.claim", 1), ("dse.claim", 2),
    ]


def test_tracing_restores_the_previous_tracer(tmp_path):
    outer = obs.install(Tracer(tmp_path / "outer.jsonl"))
    with obs.tracing(tmp_path / "inner.jsonl") as inner:
        assert obs.current() is inner
    assert obs.current() is outer
    obs.uninstall()
    assert obs.current() is None


def test_env_trace_enabled_truth_table():
    assert not env_trace_enabled({})
    for falsy in ("", "0", "false", "No", "OFF"):
        assert not env_trace_enabled({"REPRO_TRACE": falsy})
    for truthy in ("1", "true", "yes", "on"):
        assert env_trace_enabled({"REPRO_TRACE": truthy})


def test_read_telemetry_tolerates_torn_and_junk_lines(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    path.write_text(
        json.dumps({"type": "span", "name": "ok"}) + "\n"
        + "not json\n"
        + '{"type": "span", "na'  # torn tail: append caught mid-write
    )
    rows = read_jsonl(path)
    assert [r["name"] for r in rows] == ["ok"]
    assert read_jsonl(tmp_path / "absent.jsonl") == []


# -- JsonlTail: the incremental follower ------------------------------------


def append(path, *rows):
    with open(path, "a") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def test_tail_reads_only_new_rows_per_poll(tmp_path):
    path = tmp_path / "metrics.jsonl"
    tail = JsonlTail(path)
    assert tail.poll() == []  # missing file: no rows yet, no error
    append(path, {"generation": 0}, {"generation": 1})
    assert [r["generation"] for r in tail.poll()] == [0, 1]
    assert tail.poll() == []
    append(path, {"generation": 2})
    assert [r["generation"] for r in tail.poll()] == [2]
    assert tail.offset == path.stat().st_size


def test_tail_leaves_a_torn_tail_for_the_next_poll(tmp_path):
    path = tmp_path / "metrics.jsonl"
    append(path, {"generation": 0})
    with open(path, "a") as handle:
        handle.write('{"generation": 1')  # no newline: append in flight
    tail = JsonlTail(path)
    assert [r["generation"] for r in tail.poll()] == [0]
    with open(path, "a") as handle:
        handle.write(", \"fitness\": 2.0}\n")
    assert tail.poll() == [{"generation": 1, "fitness": 2.0}]


def test_tail_redelivers_after_truncation(tmp_path):
    # A resume rewinds metrics.jsonl to its checkpoint boundary; the
    # tail must notice the shrink and re-deliver from the top (callers
    # de-duplicate by generation).
    path = tmp_path / "metrics.jsonl"
    append(path, {"generation": 0}, {"generation": 1}, {"generation": 2})
    tail = JsonlTail(path)
    assert len(tail.poll()) == 3
    path.write_text(json.dumps({"generation": 0}) + "\n")
    assert [r["generation"] for r in tail.poll()] == [0]


def test_tail_skips_junk_and_non_dict_rows(tmp_path):
    path = tmp_path / "metrics.jsonl"
    path.write_text('{"generation": 0}\nnot json\n[1, 2]\n"str"\n')
    assert JsonlTail(path).poll() == [{"generation": 0}]


def test_tail_handles_file_vanishing_and_returning(tmp_path):
    path = tmp_path / "metrics.jsonl"
    append(path, {"generation": 0})
    tail = JsonlTail(path)
    tail.poll()
    path.unlink()
    assert tail.poll() == []
    append(path, {"generation": 0})  # fresh file: delivered from byte 0
    assert [r["generation"] for r in tail.poll()] == [0]


# -- Chrome trace export and phase summary ----------------------------------


SPAN_ROWS = [
    {"type": "span", "name": "evaluate", "ts": 100.0, "dur_s": 0.5,
     "pid": 11, "attrs": {"generation": 0}},
    {"type": "span", "name": "evaluate", "ts": 101.0, "dur_s": 1.5,
     "pid": 11},
    {"type": "span", "name": "reproduce", "ts": 102.0, "dur_s": 1.0,
     "pid": 11, "error": "ValueError"},
    {"type": "counter", "name": "hits", "ts": 103.0, "value": 1,
     "total": 7, "pid": 12},
    {"type": "mystery", "name": "future-row"},  # ignored, not fatal
]


def test_chrome_trace_event_shapes():
    trace = chrome_trace(SPAN_ROWS)
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert len(events) == 4  # the unknown row type is dropped
    first = events[0]
    assert first["ph"] == "X"
    assert first["ts"] == pytest.approx(100.0 * 1e6)  # microseconds
    assert first["dur"] == pytest.approx(0.5 * 1e6)
    assert first["pid"] == first["tid"] == 11
    assert first["args"] == {"generation": 0}
    assert "args" not in events[1]  # no attrs, no error -> no args
    assert events[2]["args"] == {"error": "ValueError"}
    counter = events[3]
    assert counter["ph"] == "C"
    assert counter["args"] == {"total": 7}


def test_export_chrome_trace_writes_valid_json(tmp_path):
    telemetry = tmp_path / "telemetry.jsonl"
    append(telemetry, *SPAN_ROWS)
    out = tmp_path / "trace.json"
    assert export_chrome_trace(telemetry, out) == 4
    trace = json.loads(out.read_text())
    assert {e["ph"] for e in trace["traceEvents"]} == {"X", "C"}


def test_phase_summary_aggregates_and_sorts():
    summary = phase_summary(SPAN_ROWS)
    assert [entry["phase"] for entry in summary] == ["evaluate", "reproduce"]
    evaluate = summary[0]
    assert evaluate["count"] == 2
    assert evaluate["total_s"] == pytest.approx(2.0)
    assert evaluate["mean_s"] == pytest.approx(1.0)
    assert evaluate["share"] == pytest.approx(2.0 / 3.0)
    assert phase_summary([]) == []


# -- the out-of-band golden -------------------------------------------------


def small_spec(**overrides):
    defaults = dict(
        env_id="CartPole-v0", max_generations=3, pop_size=10, seed=7,
        max_steps=40,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def tree_bytes(root):
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_traced_run_is_byte_identical_except_telemetry(tmp_path):
    spec = small_spec()
    plain = tmp_path / "plain"
    traced = tmp_path / "traced"
    run_in_dir(spec, plain, checkpoint_every=2)
    run_in_dir(spec, traced, checkpoint_every=2, trace=True)

    plain_tree = tree_bytes(plain)
    traced_tree = tree_bytes(traced)
    assert TELEMETRY_FILENAME in traced_tree
    assert TELEMETRY_FILENAME not in plain_tree
    del traced_tree[TELEMETRY_FILENAME]
    assert traced_tree == plain_tree  # every shared artifact, byte for byte

    rows = read_jsonl(traced / TELEMETRY_FILENAME)
    names = {r["name"] for r in rows if r["type"] == "span"}
    assert {"run", "evaluate", "reproduce", "checkpoint"} <= names
    # One evaluate/reproduce span per generation, on one timeline.
    evaluates = [r for r in rows if r["name"] == "evaluate"]
    assert [r["attrs"]["generation"] for r in evaluates] == [0, 1, 2]


def test_env_var_turns_tracing_on_for_run_in_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    run_in_dir(small_spec(max_generations=2, pop_size=8), tmp_path / "run")
    assert (tmp_path / "run" / TELEMETRY_FILENAME).exists()
    # ...and the explicit argument overrides the environment.
    monkeypatch.setenv("REPRO_TRACE", "0")
    run_in_dir(
        small_spec(max_generations=2, pop_size=8, seed=9),
        tmp_path / "forced",
        trace=True,
    )
    assert (tmp_path / "forced" / TELEMETRY_FILENAME).exists()


def test_resumed_run_appends_to_the_same_telemetry(tmp_path):
    from repro.runs import resume_run

    spec = small_spec(max_generations=4)
    target = tmp_path / "run"
    run_in_dir(
        spec, target, checkpoint_every=2, trace=True,
        should_stop=lambda generation: generation >= 2,
    )
    first = len(read_jsonl(target / TELEMETRY_FILENAME))
    assert first > 0
    resume_run(target, trace=True)
    rows = read_jsonl(target / TELEMETRY_FILENAME)
    assert len(rows) > first  # appended, never rewound: it's a log
    assert sum(1 for r in rows if r["name"] == "run") == 2
