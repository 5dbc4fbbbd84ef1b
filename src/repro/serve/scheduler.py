"""The preemptive scheduler: a process pool over the job store.

One :class:`Scheduler` owns one serve root.  Each :meth:`step` it

1. **reaps** finished worker processes, deriving the outcome from the
   run directory alone (``result.json`` present -> ``done``; cancel flag
   -> ``cancelled``; clean exit without a result -> ``preempted``;
   nonzero exit -> retry with exponential backoff or ``failed``);
2. **reclaims** jobs a dead scheduler left marked ``running`` (their
   run-dir lock is stale or gone) back to ``queued``;
3. **preempts**: when every worker slot is busy and a waiting job
   outranks a running one, the lowest-priority preemptible running job
   gets its ``preempt`` flag — its worker checkpoints at the next
   cadence boundary and exits, freeing the slot;
4. **dispatches** waiting jobs (highest priority first, FIFO within a
   priority) into free slots.

Workers are real ``multiprocessing.Process`` children running
:func:`_job_worker`: the whole job goes through
:func:`repro.runs.run_in_dir` with ``resume="auto"`` and a
``should_stop`` that yields only at checkpoint-cadence boundaries when a
preempt/cancel flag exists.  Because slices always end exactly on a
checkpoint the runner just laid down, and episode seeds are a pure
function of (seed, generation, genome, episode), a job preempted N
times produces artifacts *byte-identical* to an uninterrupted run —
the golden test in ``tests/test_serve_scheduler.py``.

One scheduler per root: the store itself is safe for concurrent
submitters and readers, but two schedulers would race on dispatch.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Callable, Dict, List, Optional, Union

from ..obs import JsonlTail, MetricsRegistry
from ..runs.locking import RunDirLock, read_lock
from ..runs.runner import run_in_dir
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PREEMPTED,
    QUEUED,
    RUNNING,
    WAITING_STATES,
    JobRecord,
    JobStore,
    JobStoreError,
)

#: Default seconds without a lock heartbeat before a running job is
#: considered orphaned and reclaimed.  Deliberately shorter than the
#: run-lock default: the scheduler polls, a human does not.
DEFAULT_STALE_AFTER = 30.0


def _job_worker(root: str, job_id: str) -> None:
    """Process entry point: run one job until done or told to yield.

    Runs in a child process.  Exit code 0 means "clean" — either the
    run completed (``result.json`` exists) or it yielded at a checkpoint
    boundary (preempt/cancel flag); the parent tells them apart from the
    run dir.  Any exception exits 1 with the traceback parked in the
    job dir's ``error.txt`` for the parent to attach to the record.
    """
    store = JobStore(root)
    record = store.load(job_id)
    cadence = record.checkpoint_every

    def should_stop(generation: int) -> bool:
        # Only yield where the runner just checkpointed — that keeps
        # every slice boundary on the same generation grid an
        # uninterrupted run uses, which is what makes resumption
        # byte-identical.
        if generation % cadence != 0:
            return False
        return store.preempt_requested(job_id) or store.cancel_requested(
            job_id
        )

    try:
        run_in_dir(
            record.spec_obj,
            store.run_dir(job_id),
            resume="auto",
            checkpoint_every=cadence,
            should_stop=should_stop,
        )
    except BaseException:
        store.write_worker_error(job_id, traceback.format_exc())
        raise SystemExit(1)


class Scheduler:
    """Drive jobs from a :class:`JobStore` through a worker-process pool.

    Parameters
    ----------
    store:
        The job store (or a root path for one).
    workers:
        Concurrent worker-process slots.
    poll_interval:
        Sleep between :meth:`step` calls in the run loops, seconds.
    backoff_base:
        First retry delay; attempt *n* waits ``backoff_base * 2**(n-1)``.
    stale_after:
        Lock-heartbeat age past which a ``running`` job with no live
        worker here is reclaimed.
    registry:
        A :class:`repro.obs.MetricsRegistry` to instrument into (one is
        created when omitted).  ``GET /metrics`` renders it when the
        HTTP API server is given the same registry (``repro serve``
        wires this up).
    """

    def __init__(
        self,
        store: Union[JobStore, str],
        workers: int = 2,
        poll_interval: float = 0.2,
        backoff_base: float = 1.0,
        stale_after: float = DEFAULT_STALE_AFTER,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store if isinstance(store, JobStore) else JobStore(store)
        self.workers = workers
        self.poll_interval = poll_interval
        self.backoff_base = backoff_base
        self.stale_after = stale_after
        self._procs: Dict[str, multiprocessing.Process] = {}
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._m_dispatches = self.metrics.counter(
            "repro_dispatches_total",
            "Worker processes launched (job starts and resumes).",
        )
        self._m_preempt_requests = self.metrics.counter(
            "repro_preempt_requests_total",
            "Preempt flags raised by the priority scheduler.",
        )
        self._m_preemptions = self.metrics.counter(
            "repro_preemptions_total",
            "Workers that yielded at a checkpoint boundary and were "
            "requeued.",
        )
        self._m_retries = self.metrics.counter(
            "repro_retries_total",
            "Crashed-worker retries scheduled with backoff (counted "
            "against max_retries).",
        )
        self._m_reclaims = self.metrics.counter(
            "repro_reclaims_total",
            "Jobs requeued through no fault of their own (stale "
            "heartbeat, scheduler-initiated termination); never "
            "counted against max_retries.",
        )
        self._m_settled = self.metrics.counter(
            "repro_jobs_settled_total",
            "Jobs settled by terminal-or-requeue outcome.",
        )
        self._m_generation_seconds = self.metrics.histogram(
            "repro_generation_seconds",
            "Per-generation latency of running jobs, approximated from "
            "metrics.jsonl growth between scheduler polls.",
        )
        self._m_scenario_stage = self.metrics.gauge(
            "repro_scenario_stage",
            "Current curriculum stage per job, read from the latest "
            "metrics.jsonl row; only scenario runs emit the column.",
        )
        # Per running job: an incremental metrics.jsonl cursor plus the
        # monotonic instant of its last observed growth.
        self._tails: Dict[str, JsonlTail] = {}
        self._tail_marks: Dict[str, float] = {}

    # -- queries ----------------------------------------------------------

    def _waiting(self, records: List[JobRecord]) -> List[JobRecord]:
        now = time.time()
        ready = [
            r
            for r in records
            if r.state in WAITING_STATES and r.not_before <= now
        ]
        # Highest priority first; FIFO (submission order) within a tier.
        ready.sort(key=lambda r: (-r.priority, r.id))
        return ready

    # -- the four phases of one step --------------------------------------

    def _reap(self) -> None:
        for job_id in list(self._procs):
            proc = self._procs[job_id]
            if proc.is_alive():
                continue
            proc.join()
            del self._procs[job_id]
            self._sample_latency(job_id)  # rows laid down since last poll
            self._tails.pop(job_id, None)
            self._tail_marks.pop(job_id, None)
            self._settle(job_id, proc.exitcode or 0)

    def _sample_latency(self, job_id: str) -> None:
        """Feed the generation-latency histogram from one job's
        ``metrics.jsonl`` growth: N new rows since the last observation
        spread the elapsed wall time evenly — an approximation at
        poll-interval resolution, not a per-generation stopwatch."""
        tail = self._tails.get(job_id)
        if tail is None:
            return
        rows = tail.poll()
        if not rows:
            return
        now = time.monotonic()
        mark = self._tail_marks.get(job_id, now)
        per_row = max(0.0, now - mark) / len(rows)
        for _ in rows:
            self._m_generation_seconds.observe(per_row)
        stage = rows[-1].get("scenario_stage")
        if stage is not None:
            self._m_scenario_stage.set(int(stage), job=job_id)
        self._tail_marks[job_id] = now

    def _sample_latencies(self) -> None:
        for job_id in list(self._procs):
            self._sample_latency(job_id)

    def _settle(self, job_id: str, exitcode: int) -> None:
        """Record the outcome of a finished worker from its run dir."""
        record = self.store.load(job_id)
        if record.state != RUNNING:
            return  # already resolved (e.g. reclaimed by another path)
        rd = self.store.run_dir(job_id)
        result = rd.load_result() if rd.has_artifacts() else None
        latest = rd.latest_checkpoint()
        generations_done = latest[0] if latest else 0

        if exitcode == 0 and result is not None:
            self.store.clear_preempt(job_id)
            self.store.clear_cancel(job_id)
            self.store.transition(
                job_id,
                DONE,
                worker_pid=None,
                generations_done=int(result.get("generations", 0)),
                converged=bool(result.get("converged", False)),
            )
            self._m_settled.inc(outcome="done")
        elif exitcode == 0 and self.store.cancel_requested(job_id):
            self.store.clear_cancel(job_id)
            self.store.clear_preempt(job_id)
            self.store.transition(
                job_id,
                CANCELLED,
                event="cancelled",
                worker_pid=None,
                generations_done=generations_done,
            )
            self._m_settled.inc(outcome="cancelled")
        elif exitcode == 0:
            # Clean exit, no result: the worker yielded at a checkpoint.
            self.store.clear_preempt(job_id)
            self.store.transition(
                job_id,
                PREEMPTED,
                worker_pid=None,
                generations_done=generations_done,
            )
            self._m_preemptions.inc()
            self._m_settled.inc(outcome="preempted")
        elif (
            self.store.preempt_requested(job_id)
            and self.store.read_worker_error(job_id) is None
        ):
            # The worker died without raising, after being asked to
            # yield — the scheduler's own shutdown terminate, not a job
            # fault.  Requeue as a reclaim: the job keeps its retry
            # budget (error.txt is cleared at dispatch, so a missing
            # file really means this attempt did not crash).
            self.store.clear_preempt(job_id)
            self.store.transition(
                job_id,
                QUEUED,
                event="reclaimed",
                worker_pid=None,
                reclaims=record.reclaims + 1,
                generations_done=generations_done,
            )
            self._m_reclaims.inc()
            self._m_settled.inc(outcome="reclaimed")
        else:
            error = (
                self.store.read_worker_error(job_id)
                or f"worker exited with code {exitcode}"
            )
            attempts = record.attempts + 1
            if attempts > record.max_retries:
                self.store.transition(
                    job_id,
                    FAILED,
                    worker_pid=None,
                    attempts=attempts,
                    error=error,
                    generations_done=generations_done,
                )
                self._m_settled.inc(outcome="failed")
            else:
                delay = self.backoff_base * 2 ** (attempts - 1)
                self.store.transition(
                    job_id,
                    QUEUED,
                    event="retry_scheduled",
                    worker_pid=None,
                    attempts=attempts,
                    error=error,
                    not_before=time.time() + delay,
                    generations_done=generations_done,
                )
                self._m_retries.inc()
                self._m_settled.inc(outcome="retried")

    def _reclaim(self, records: List[JobRecord]) -> None:
        """Requeue ``running`` jobs whose worker is provably gone —
        crashed scheduler, SIGKILLed worker — judged by the run-dir
        lock's heartbeat, exactly like any other stale-lock holder."""
        for record in records:
            if record.state != RUNNING or record.id in self._procs:
                continue
            rd = self.store.run_dir(record.id)
            payload = read_lock(rd.path)
            lock = RunDirLock(rd.path, stale_after=self.stale_after)
            if payload is None or lock.is_stale(payload):
                self.store.transition(
                    record.id,
                    QUEUED,
                    event="reclaimed",
                    worker_pid=None,
                    reclaims=record.reclaims + 1,
                )
                self._m_reclaims.inc()

    def _cancel_waiting(self, records: List[JobRecord]) -> None:
        """A cancel that raced a preemption lands here: the job is back
        in a waiting state with its cancel flag still set."""
        for record in records:
            if record.state in WAITING_STATES and self.store.cancel_requested(
                record.id
            ):
                self.store.clear_cancel(record.id)
                self.store.clear_preempt(record.id)
                self.store.transition(record.id, CANCELLED, event="cancelled")

    def _maybe_preempt(self, records: List[JobRecord]) -> None:
        waiting = self._waiting(records)
        if not waiting or len(self._procs) < self.workers:
            return  # a free slot serves the queue without violence
        challenger = waiting[0]
        running = [
            r
            for r in records
            if r.id in self._procs
            and r.preemptible
            and not self.store.preempt_requested(r.id)
        ]
        if not running:
            return
        victim = min(running, key=lambda r: (r.priority, r.id))
        if challenger.priority > victim.priority:
            self.store.request_preempt(victim.id)
            self.store.append_event(
                victim.id,
                "preempt_requested",
                by=challenger.id,
                challenger_priority=challenger.priority,
            )
            self._m_preempt_requests.inc()

    def _dispatch(self, records: List[JobRecord]) -> None:
        by_id = {r.id: r for r in records}
        for record in self._waiting(records):
            if len(self._procs) >= self.workers:
                break
            record = by_id[record.id]
            event = "resumed" if record.state == PREEMPTED else "started"
            try:
                # Before the worker starts: a cancel that landed after
                # the snapshot refuses this, and nothing has run.
                self.store.transition(record.id, RUNNING, event=event)
            except JobStoreError:
                continue
            # The error channel must belong to the attempt being
            # launched — a lingering error.txt from an earlier crash
            # would misclassify this attempt's outcome at settle time.
            self.store.clear_worker_error(record.id)
            proc = multiprocessing.Process(
                target=_job_worker,
                args=(str(self.store.root), record.id),
                name=f"repro-serve-{record.id}",
            )
            proc.start()
            self.store.set_worker_pid(record.id, proc.pid)
            self._procs[record.id] = proc
            self._m_dispatches.inc()
            # Start the latency cursor past rows already on disk so a
            # resumed job's prefix is not observed as one giant burst.
            tail = JsonlTail(self.store.run_dir(record.id).metrics_path)
            tail.poll()
            self._tails[record.id] = tail
            self._tail_marks[record.id] = time.monotonic()

    # -- driving ----------------------------------------------------------

    def step(self) -> None:
        """One scheduling round: reap, reclaim, cancel, preempt, dispatch."""
        self._reap()
        self._sample_latencies()
        records = self.store.list_jobs()
        self._reclaim(records)
        self._cancel_waiting(records)
        records = self.store.list_jobs()
        self._maybe_preempt(records)
        self._dispatch(records)

    def idle(self) -> bool:
        """No live workers and nothing waiting or running."""
        if self._procs:
            return False
        return not any(
            r.state in WAITING_STATES or r.state == RUNNING
            for r in self.store.list_jobs()
        )

    def run_until_idle(self, timeout: Optional[float] = None) -> None:
        """Step until every job is terminal (the batch / CI mode)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self.step()
            if self.idle():
                return
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"jobs still active after {timeout}s: "
                    f"{[r.id for r in self.store.list_jobs() if not r.terminal]}"
                )
            time.sleep(self.poll_interval)

    def run_forever(
        self, stop: Optional[Callable[[], bool]] = None
    ) -> None:
        """Step until ``stop()`` returns true (the ``repro serve`` mode)."""
        while stop is None or not stop():
            self.step()
            time.sleep(self.poll_interval)

    def shutdown(self, grace: float = 10.0) -> None:
        """Stop workers: ask each to yield at its next checkpoint, wait
        up to ``grace`` seconds, then terminate stragglers.  Settled
        jobs resume from their last checkpoint on the next scheduler."""
        for job_id in list(self._procs):
            self.store.request_preempt(job_id)
        deadline = time.monotonic() + grace
        for job_id, proc in list(self._procs.items()):
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join()
        self._reap()
        self._procs.clear()
