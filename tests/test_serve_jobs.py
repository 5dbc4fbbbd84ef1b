"""Unit tests for the repro.serve job store."""

import json
import sys
import threading

import pytest

from repro.api import ExperimentSpec
from repro.serve import (
    CANCELLED,
    DONE,
    FAILED,
    PREEMPTED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobRecord,
    JobStore,
    JobStoreError,
    UnknownJobError,
)


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "root")


def small_spec(**overrides):
    defaults = dict(
        env_id="CartPole-v0", max_generations=4, pop_size=12, seed=1,
        max_steps=40,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def test_submit_assigns_sequential_ids(store):
    first = store.submit(small_spec())
    second = store.submit(small_spec(seed=2))
    assert first.id == "job-000001"
    assert second.id == "job-000002"
    assert store.job_ids() == ["job-000001", "job-000002"]


def test_submit_accepts_spec_dict_and_round_trips(store):
    spec = small_spec()
    record = store.submit(spec.to_dict(), priority=7, checkpoint_every=3)
    loaded = store.load(record.id)
    assert loaded.spec_obj == spec
    assert loaded.priority == 7
    assert loaded.checkpoint_every == 3
    assert loaded.state == QUEUED
    assert loaded.attempts == 0


def test_submit_rejects_invalid_spec(store):
    with pytest.raises(JobStoreError, match="invalid job spec"):
        store.submit({"env_id": ""})
    with pytest.raises(JobStoreError, match="invalid job spec"):
        store.submit({"env_id": "CartPole-v0", "no_such_field": 1})


@pytest.mark.parametrize("fields", [
    {"backend": "fpga"},
    {"backend": "soc", "backend_options": {"bogus": 1}},
])
def test_submit_rejects_spec_no_backend_can_run(store, fields):
    with pytest.raises(JobStoreError, match="invalid job spec"):
        store.submit({"env_id": "CartPole-v0", **fields})
    assert store.job_ids() == []
    assert not store.jobs_root.exists() or not any(store.jobs_root.iterdir())


def test_submit_rejects_bad_knobs(store):
    with pytest.raises(JobStoreError, match="checkpoint_every"):
        store.submit(small_spec(), checkpoint_every=0)
    with pytest.raises(JobStoreError, match="max_retries"):
        store.submit(small_spec(), max_retries=-1)


def test_load_unknown_job(store):
    with pytest.raises(UnknownJobError, match="job-000099"):
        store.load("job-000099")
    with pytest.raises(UnknownJobError, match="job-000099"):
        store.transition("job-000099", RUNNING)


def test_transition_happy_path_and_events(store):
    record = store.submit(small_spec())
    store.transition(record.id, RUNNING, worker_pid=123)
    store.transition(record.id, PREEMPTED, generations_done=2)
    store.transition(record.id, RUNNING, event="resumed")
    store.transition(record.id, DONE, generations_done=4, converged=True)
    final = store.load(record.id)
    assert final.state == DONE
    assert final.generations_done == 4
    assert final.converged is True
    events = [row["event"] for row in store.read_events(record.id)]
    assert events == ["submitted", "running", "preempted", "resumed", "done"]


def test_transition_rejects_illegal_moves(store):
    record = store.submit(small_spec())
    with pytest.raises(JobStoreError, match="cannot go"):
        store.transition(record.id, DONE)  # queued -> done skips running
    store.transition(record.id, RUNNING)
    store.transition(record.id, DONE)
    for state in (QUEUED, RUNNING, PREEMPTED, FAILED, CANCELLED):
        with pytest.raises(JobStoreError, match="cannot go"):
            store.transition(record.id, state)


def test_transition_rejects_unknown_state_and_field(store):
    record = store.submit(small_spec())
    with pytest.raises(JobStoreError, match="unknown job state"):
        store.transition(record.id, "paused")
    with pytest.raises(JobStoreError, match="unknown job record field"):
        store.transition(record.id, RUNNING, nonsense=1)


def test_racing_transitions_out_of_running_apply_one_after_the_other(
    store, monkeypatch
):
    """A cancel racing a finish: the first transition is held inside its
    save until the second has read the record (or, with the job locked,
    for half a second).  Applied in turn, the second must see ``done``
    and be refused, not overwrite it from a stale record."""
    record = store.submit(small_spec())
    store.transition(record.id, RUNNING)
    first_saving = threading.Event()
    second_loaded = threading.Event()
    load, save = store.load, store.save

    def held_save(job):
        if threading.current_thread().name == "finish":
            first_saving.set()
            second_loaded.wait(timeout=0.5)
        save(job)

    def noted_load(job_id):
        loaded = load(job_id)
        if threading.current_thread().name == "cancel":
            second_loaded.set()
        return loaded

    monkeypatch.setattr(store, "save", held_save)
    monkeypatch.setattr(store, "load", noted_load)
    outcomes = {}

    def move(state):
        try:
            outcomes[state] = store.transition(record.id, state).state
        except JobStoreError as exc:
            outcomes[state] = exc

    finish = threading.Thread(target=move, args=(DONE,), name="finish")
    cancel = threading.Thread(target=move, args=(CANCELLED,), name="cancel")
    finish.start()
    assert first_saving.wait(timeout=30)
    cancel.start()
    for thread in (finish, cancel):
        thread.join(timeout=30)
    assert not finish.is_alive() and not cancel.is_alive()
    assert outcomes[DONE] == DONE
    assert isinstance(outcomes[CANCELLED], JobStoreError)
    assert load(record.id).state == DONE
    events = [row["event"] for row in store.read_events(record.id)]
    assert events == ["submitted", "running", "done"]


def test_preempt_and_cancel_flags(store):
    record = store.submit(small_spec())
    assert not store.preempt_requested(record.id)
    store.request_preempt(record.id)
    assert store.preempt_requested(record.id)
    store.clear_preempt(record.id)
    store.clear_preempt(record.id)  # idempotent
    assert not store.preempt_requested(record.id)
    with pytest.raises(UnknownJobError):
        store.request_preempt("job-000042")


def test_cancel_waiting_job_is_immediate(store):
    record = store.submit(small_spec())
    cancelled = store.request_cancel(record.id)
    assert cancelled.state == CANCELLED
    assert CANCELLED in TERMINAL_STATES
    # cancelling again is a no-op, not an error
    assert store.request_cancel(record.id).state == CANCELLED


def test_cancel_running_job_sets_flag(store):
    record = store.submit(small_spec())
    store.transition(record.id, RUNNING)
    after = store.request_cancel(record.id)
    assert after.state == RUNNING  # worker honours the flag later
    assert store.cancel_requested(record.id)
    events = [row["event"] for row in store.read_events(record.id)]
    assert "cancel_requested" in events


def test_record_round_trip_rejects_unknown_fields():
    with pytest.raises(JobStoreError, match="unknown job record fields"):
        JobRecord.from_dict({"id": "job-000001", "spec": {}, "bogus": 1})


def test_preemptible_excludes_soc_backend(store):
    soft = store.submit(small_spec())
    soc = store.submit(small_spec(backend="soc"))
    assert soft.preemptible
    assert not soc.preemptible


def test_describe_reports_progress(store):
    record = store.submit(small_spec())
    payload = store.describe(record.id)
    assert payload["id"] == record.id
    assert payload["state"] == QUEUED
    assert payload["metrics_rows"] == 0
    assert payload["checkpointed_generation"] is None
    assert payload["complete"] is False
    rd = store.run_dir(record.id)
    rd.create()
    rd.append_metrics({"generation": 0, "best_fitness": 12.5})
    payload = store.describe(record.id)
    assert payload["metrics_rows"] == 1
    assert payload["best_fitness"] == 12.5


def test_job_json_is_valid_json_on_disk(store):
    record = store.submit(small_spec())
    raw = json.loads(store.record_path(record.id).read_text())
    assert raw["state"] == QUEUED
    assert raw["format"] == 1


def test_torn_events_tail_does_not_eat_the_next_event(store):
    record = store.submit(small_spec())
    with open(store.events_path(record.id), "a") as handle:
        handle.write('{"event": "preem')  # writer died mid-append
    store.append_event(record.id, "started")
    events = [row["event"] for row in store.read_events(record.id)]
    assert events == ["submitted", "started"]


def test_threads_saving_one_job_never_tear_it(store):
    # repro serve runs its HTTP threads and the scheduler loop in one
    # process, and both rewrite job.json (e.g. a cancel during a
    # dispatch): each write needs its own temp file.
    record = store.submit(small_spec())
    errors = []

    def rewrite():
        for _ in range(400):
            try:
                store.save(store.load(record.id))
            except (OSError, JobStoreError) as exc:
                errors.append(exc)

    threads = [threading.Thread(target=rewrite) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert store.load(record.id).state == QUEUED
    assert sorted(p.name for p in store.job_dir(record.id).iterdir()) == [
        "events.jsonl", "job.json",
    ]
