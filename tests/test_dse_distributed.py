"""Fault-injection and protocol tests for the distributed sweep executor.

The claim protocol's whole job is surviving ungraceful death, so the
tests here injure it on purpose: a worker SIGKILLed mid-point, claim
files corrupted or truncated on disk, two workers racing for the same
point.  After every injury the sweep must still complete with each point
evaluated exactly once (per the event ledger) and outputs byte-identical
to a single-process run — extending the hard-kill contract
``tests/test_runs_locking.py`` pins for single runs to whole sweeps.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import ExperimentSpec
from repro.dse import (
    DistributedSweepError,
    DistributedSweepRunner,
    SweepRunner,
    SweepSpec,
    SweepWorkQueue,
    default_work_dir,
    sweep_key,
)
from repro.obs import read_jsonl
from repro.runs import ClaimFile

BASE = ExperimentSpec("CartPole-v0", max_generations=1, pop_size=8, max_steps=20)


def stub_evaluator(log=None):
    """Cheap, deterministic, pure-function-of-the-point metrics."""

    def evaluate(point):
        if log is not None:
            log.append(dict(point.axes))
        seed = point.axes.get("seed", point.spec.seed)
        return {
            "fitness": float(seed * 2),
            "energy_j": float(point.spec.pop_size),
            "runtime_s": 1.0 + seed,
        }

    return evaluate


def make_sweep(n=4):
    return SweepSpec(base=BASE, axes={"seed": list(range(n))})


def make_runner(sweep, tmp_path, log=None, **kwargs):
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("work_dir", tmp_path / "work")
    kwargs.setdefault("poll_interval", 0.02)
    return DistributedSweepRunner(
        sweep,
        evaluate=stub_evaluator(log),
        evaluator_version="stub-v1",
        **kwargs,
    )


def serial_reference(sweep, cache_dir):
    return SweepRunner(
        sweep,
        cache_dir=cache_dir,
        evaluate=stub_evaluator(),
        evaluator_version="stub-v1",
    ).run()


def tree_bytes(root):
    """{relative path: bytes} for every file under ``root``."""
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# -- ClaimFile: the generic protocol ----------------------------------------


class TestClaimFile:
    def test_single_winner(self, tmp_path):
        path = tmp_path / "point.claim"
        first, second = ClaimFile(path), ClaimFile(path)
        assert first.try_acquire()
        assert not second.try_acquire()
        first.release()
        assert not path.exists()
        assert second.try_acquire()
        second.release()

    def test_extra_payload_is_recorded(self, tmp_path):
        claim = ClaimFile(tmp_path / "p.claim", extra={"key": "abc123"})
        with claim:
            payload = claim.read()
            assert payload["key"] == "abc123"
            assert payload["pid"] == os.getpid()

    def test_concurrent_race_has_exactly_one_winner(self, tmp_path):
        """Satellite: two workers racing for the same point."""
        path = tmp_path / "contested.claim"
        barrier = threading.Barrier(2)
        outcomes = []

        def contender():
            claim = ClaimFile(path)
            barrier.wait()
            outcomes.append(claim.try_acquire())

        threads = [threading.Thread(target=contender) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == [False, True]

    def test_stale_heartbeat_is_reclaimed(self, tmp_path):
        path = tmp_path / "p.claim"
        path.write_text(json.dumps({
            "pid": 999999999, "host": "elsewhere",
            "acquired_at": time.time() - 3600,
            "heartbeat_at": time.time() - 3600,
        }))
        claim = ClaimFile(path, stale_after=5.0)
        assert claim.try_acquire()
        assert claim.reclaimed == 1
        claim.release()

    def test_dead_same_host_pid_is_reclaimed_despite_fresh_heartbeat(
        self, tmp_path
    ):
        path = tmp_path / "p.claim"
        path.write_text(json.dumps({
            "pid": 999999999, "host": socket.gethostname(),
            "acquired_at": time.time(), "heartbeat_at": time.time(),
        }))
        claim = ClaimFile(path, stale_after=3600.0)
        assert claim.try_acquire()
        assert claim.reclaimed == 1
        claim.release()

    def test_live_foreign_claim_is_respected(self, tmp_path):
        path = tmp_path / "p.claim"
        path.write_text(json.dumps({
            "pid": 1, "host": "elsewhere",
            "acquired_at": time.time(), "heartbeat_at": time.time(),
        }))
        claim = ClaimFile(path, stale_after=3600.0)
        assert not claim.try_acquire()
        assert claim.reclaimed == 0


# -- the work queue's event ledger ------------------------------------------


class TestEventLedger:
    def test_events_append_and_read_in_order(self, tmp_path):
        queue = SweepWorkQueue(tmp_path / "work")
        queue.log("claimed", "k1", "w1")
        queue.log("evaluated", "k1", "w1")
        queue.log("released", "k1", "w1")
        assert [e["event"] for e in queue.events()] == [
            "claimed", "evaluated", "released",
        ]
        assert all(e["pid"] == os.getpid() for e in queue.events())

    def test_torn_tail_is_skipped(self, tmp_path):
        queue = SweepWorkQueue(tmp_path / "work")
        queue.log("evaluated", "k1", "w1")
        with open(queue.events_path, "a") as handle:
            handle.write('{"event": "evalu')  # writer died mid-append
        assert queue.evaluated_keys() == {"k1": 1}

    def test_torn_tail_does_not_eat_the_next_event(self, tmp_path):
        # collect() marks a point fresh only from its `evaluated` event.
        queue = SweepWorkQueue(tmp_path / "work")
        queue.log("claimed", "k1", "w1")
        with open(queue.events_path, "a") as handle:
            handle.write('{"event": "relea')  # writer died mid-append
        queue.log("evaluated", "k1", "w2")
        assert queue.evaluated_keys() == {"k1": 1}
        assert [e["event"] for e in queue.events()] == [
            "claimed", "evaluated",
        ]

    def test_evaluated_keys_counts_duplicates(self, tmp_path):
        queue = SweepWorkQueue(tmp_path / "work")
        queue.log("evaluated", "k1", "w1")
        queue.log("evaluated", "k1", "w2")
        queue.log("evaluated", "k2", "w1")
        assert queue.evaluated_keys() == {"k1": 2, "k2": 1}

    def test_read_events_missing_file(self, tmp_path):
        assert SweepWorkQueue(tmp_path / "nope").events() == []


# -- drain / collect ---------------------------------------------------------


class TestDrainAndCollect:
    def test_single_worker_matches_serial_run(self, tmp_path):
        sweep = make_sweep()
        runner = make_runner(sweep, tmp_path)
        tally = runner.drain()
        assert tally == {
            "points": 4, "evaluated": 4, "cache_hits": 0,
            "claims": 4, "reclaims": 0,
        }
        serial = serial_reference(sweep, tmp_path / "serial-cache")
        assert runner.collect().rows == serial.rows

    def test_cache_trees_are_byte_identical_to_serial(self, tmp_path):
        sweep = make_sweep()
        make_runner(sweep, tmp_path).drain()
        serial_reference(sweep, tmp_path / "serial-cache")
        assert tree_bytes(tmp_path / "cache") == \
            tree_bytes(tmp_path / "serial-cache")

    def test_exports_byte_identical_to_serial(self, tmp_path, monkeypatch):
        """CSV *and* JSON, with the same relative cache path on both
        sides so the summary's cache_dir string matches too."""
        sweep = make_sweep()
        serial_cwd = tmp_path / "serial"
        dist_cwd = tmp_path / "dist"
        serial_cwd.mkdir()
        dist_cwd.mkdir()
        monkeypatch.chdir(serial_cwd)
        serial = SweepRunner(
            sweep, cache_dir="cache",
            evaluate=stub_evaluator(), evaluator_version="stub-v1",
        ).run()
        serial.to_csv("out.csv")
        serial.to_json("out.json")
        monkeypatch.chdir(dist_cwd)
        runner = DistributedSweepRunner(
            sweep, cache_dir="cache", work_dir="work",
            evaluate=stub_evaluator(), evaluator_version="stub-v1",
        )
        runner.drain()
        collected = runner.collect()
        collected.to_csv("out.csv")
        collected.to_json("out.json")
        for name in ("out.csv", "out.json"):
            assert (dist_cwd / name).read_bytes() == \
                (serial_cwd / name).read_bytes(), f"{name} diverged"

    def test_two_workers_split_the_sweep_exactly_once(self, tmp_path):
        sweep = make_sweep(6)
        log = []
        first = make_runner(sweep, tmp_path, log=log, worker_id="w1")
        t1 = first.drain(max_points=2)
        second = make_runner(sweep, tmp_path, log=log, worker_id="w2")
        t2 = second.drain()
        assert t1["evaluated"] == 2 and t2["evaluated"] == 4
        assert len(log) == 6  # nothing ran twice
        counts = second.queue.evaluated_keys()
        assert set(counts.values()) == {1}
        assert second.collect().rows == \
            serial_reference(sweep, tmp_path / "serial-cache").rows

    def test_concurrent_workers_never_duplicate_work(self, tmp_path):
        sweep = make_sweep(8)
        log = []
        runners = [
            make_runner(sweep, tmp_path, log=log, worker_id=f"w{i}")
            for i in range(3)
        ]
        threads = [
            threading.Thread(target=runner.drain) for runner in runners
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log) == 8
        assert set(runners[0].queue.evaluated_keys().values()) == {1}
        assert runners[0].collect().rows == \
            serial_reference(sweep, tmp_path / "serial-cache").rows

    def test_prewarmed_cache_reads_all_cached_like_serial(self, tmp_path):
        sweep = make_sweep()
        serial_reference(sweep, tmp_path / "cache")  # warm it
        runner = make_runner(sweep, tmp_path)
        tally = runner.drain()
        assert tally["evaluated"] == 0 and tally["claims"] == 0
        collected = runner.collect()
        assert all(row["cached"] for row in collected.rows)
        rerun = serial_reference(sweep, tmp_path / "cache")
        assert collected.rows == rerun.rows

    def test_collect_before_finish_refuses(self, tmp_path):
        sweep = make_sweep()
        runner = make_runner(sweep, tmp_path)
        runner.drain(max_points=1)
        with pytest.raises(DistributedSweepError, match="not finished"):
            runner.collect()

    def test_status_and_frontier_track_progress(self, tmp_path):
        sweep = make_sweep()
        runner = make_runner(sweep, tmp_path)
        assert runner.status()["done"] == 0
        # nothing finished: an empty frontier, not an ObjectiveError
        assert runner.frontier({"fitness": "max"}) == []
        runner.drain(max_points=2)
        status = runner.status()
        assert status["done"] == 2 and not status["complete"]
        assert status["duplicate_evaluations"] == 0
        front = runner.frontier({"fitness": "max"})
        assert len(front) == 1
        runner.drain()
        assert runner.status()["complete"]

    def test_custom_evaluator_requires_version(self, tmp_path):
        with pytest.raises(DistributedSweepError, match="evaluator_version"):
            DistributedSweepRunner(
                make_sweep(), cache_dir=tmp_path / "cache",
                evaluate=stub_evaluator(),
            )

    def test_failed_evaluation_releases_claim_and_logs(self, tmp_path):
        sweep = make_sweep(1)

        def broken(point):
            raise RuntimeError("evaluator exploded")

        runner = DistributedSweepRunner(
            sweep, cache_dir=tmp_path / "cache",
            work_dir=tmp_path / "work",
            evaluate=broken, evaluator_version="broken-v1",
        )
        with pytest.raises(RuntimeError, match="exploded"):
            runner.drain()
        events = [e["event"] for e in runner.queue.events()]
        assert events == ["claimed", "failed"]
        assert not list((tmp_path / "work" / "claims").glob("*.claim"))
        # a healthy worker can take the point over immediately
        healthy = make_runner(
            sweep, tmp_path, cache_dir=tmp_path / "cache2"
        )
        assert healthy.drain()["evaluated"] == 1

    def test_metrics_registry_counts_the_drain(self, tmp_path):
        from repro import obs

        registry = obs.MetricsRegistry()
        sweep = make_sweep(3)
        runner = make_runner(sweep, tmp_path, metrics=registry)
        runner.drain()
        text = registry.render()
        assert "repro_dse_points_evaluated_total 3" in text
        assert "repro_dse_claims_total 3" in text
        assert "repro_dse_points_total 3" in text
        assert "repro_dse_points_done 3" in text

    def test_default_work_dir_is_outside_the_cache(self, tmp_path):
        sweep = make_sweep()
        work = default_work_dir(tmp_path / "cache", sweep, "stub-v1")
        assert not str(work).startswith(str(tmp_path / "cache") + os.sep)
        assert sweep_key(sweep, "stub-v1")[:16] == work.name
        # different sweeps never share claim state
        other = make_sweep(7)
        assert default_work_dir(tmp_path / "cache", other, "stub-v1") != work


# -- claim-file corruption ---------------------------------------------------


class TestClaimCorruption:
    def _claim_path(self, runner, index=0):
        leaders = runner._leaders()
        key = list(leaders)[index]
        return runner.queue.claims_dir / f"{key}.claim"

    def test_corrupt_claim_is_reclaimed(self, tmp_path):
        sweep = make_sweep()
        runner = make_runner(sweep, tmp_path)
        path = self._claim_path(runner)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"pid": 12')  # torn JSON: writer died mid-claim
        tally = runner.drain()
        assert tally["reclaims"] == 1
        assert tally["evaluated"] == 4
        assert runner.collect().rows == \
            serial_reference(sweep, tmp_path / "serial-cache").rows

    def test_truncated_claim_is_reclaimed(self, tmp_path):
        sweep = make_sweep()
        runner = make_runner(sweep, tmp_path)
        path = self._claim_path(runner, index=1)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")  # zero-byte claim
        tally = runner.drain()
        assert tally["reclaims"] == 1
        events = [e["event"] for e in runner.queue.events()]
        assert events.count("reclaimed") == 1


# -- hard-kill fault injection ----------------------------------------------

_VICTIM = """
import sys, time
sys.path.insert(0, {src!r})
from repro.dse import DistributedSweepRunner, SweepSpec

sweep = SweepSpec.from_json({sweep_json!r})

def glacial(point):
    time.sleep(120.0)  # the parent SIGKILLs long before this returns
    return {{"fitness": -1.0}}

DistributedSweepRunner(
    sweep, cache_dir={cache!r}, work_dir={work!r},
    evaluate=glacial, evaluator_version="stub-v1",
    heartbeat_interval=0.1, worker_id="victim",
).drain()
"""


@pytest.mark.slow
def test_sigkill_mid_point_is_reclaimed_and_byte_identical(tmp_path):
    """SIGKILL a worker mid-evaluation: its claim is left behind with a
    dead pid, a surviving worker reclaims it, the sweep completes with
    every point evaluated exactly once, and the collected result is
    byte-identical to a serial run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    sweep = make_sweep()
    cache = tmp_path / "cache"
    work = tmp_path / "work"
    script = _VICTIM.format(
        src=src, sweep_json=sweep.to_json(),
        cache=str(cache), work=str(work),
    )
    proc = subprocess.Popen([sys.executable, "-c", script])
    events_path = work / "events.jsonl"
    try:
        deadline = time.time() + 60.0
        while time.time() < deadline:
            claimed = [
                e for e in read_jsonl(events_path)
                if e["event"] == "claimed" and e["pid"] == proc.pid
            ]
            if claimed:
                break
            time.sleep(0.02)
        else:
            pytest.fail("victim never claimed a point")
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait()
    assert proc.returncode == -signal.SIGKILL

    # The victim's claim is still on disk, owned by a dead pid ...
    stale = list((work / "claims").glob("*.claim"))
    assert len(stale) == 1

    # ... and a surviving worker reclaims it and finishes the sweep.
    survivor = DistributedSweepRunner(
        sweep, cache_dir=cache, work_dir=work,
        evaluate=stub_evaluator(), evaluator_version="stub-v1",
        poll_interval=0.02, worker_id="survivor",
    )
    tally = survivor.drain()
    assert tally["reclaims"] == 1
    assert tally["evaluated"] == 4  # the victim published nothing

    counts = survivor.queue.evaluated_keys()
    assert set(counts.values()) == {1}, "a point was evaluated twice"

    serial = serial_reference(sweep, tmp_path / "serial-cache")
    assert survivor.collect().rows == serial.rows
    assert tree_bytes(cache) == tree_bytes(tmp_path / "serial-cache")
