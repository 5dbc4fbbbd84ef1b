"""The durable on-disk job store: specs in, scheduled state out.

One serve root holds everything the scheduler and the HTTP API share:

```
<root>/jobs/
    job-000001/
        job.json        JobRecord — spec + scheduling state (atomic)
        job.lock        flock held by each state transition
        events.jsonl    append-only job event log
        preempt         flag file: yield at the next checkpoint boundary
        cancel          flag file: stop and do not resume
        run/            the repro.runs RunDir with the actual artifacts
```

Submission builds the job's :class:`repro.api.ExperimentSpec`, which
checks its backend and platform, so a spec no backend can run is
refused before a job directory is claimed.

Everything is a file, so submission (``repro submit``), scheduling
(:class:`repro.serve.Scheduler`) and serving (:class:`repro.serve.
JobApiServer`) can live in different processes with no shared memory:
every record and log goes through :mod:`repro.obs.jsonl`, state changes
go through :meth:`JobStore.transition`, which holds the job's lock from
reading the record to logging the event and enforces the lifecycle

``queued -> running -> (preempted -> running)* -> done | failed``

(``cancelled`` is reachable from any non-terminal state), and every
transition appends a timestamped line to ``events.jsonl`` so a job's
history — submissions, slices, preemptions, retries, reclaims — is
replayable after the fact.
"""

from __future__ import annotations

import dataclasses
import fcntl
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from ..api.spec import ExperimentSpec, SpecError
from ..obs.jsonl import (append_jsonl, check_fields, read_json, read_jsonl,
                         write_atomic, write_json)
from ..runs.artifacts import RunDir
from ..runs.runner import DEFAULT_CHECKPOINT_EVERY

JOB_FILENAME = "job.json"
LOCK_FILENAME = "job.lock"
EVENTS_FILENAME = "events.jsonl"
PREEMPT_FLAG = "preempt"
CANCEL_FLAG = "cancel"
RUN_DIRNAME = "run"

#: Version tag of the job-record format.
JOB_FORMAT_VERSION = 1

# -- states -----------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
PREEMPTED = "preempted"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every state a job can be in.
JOB_STATES = (QUEUED, RUNNING, PREEMPTED, DONE, FAILED, CANCELLED)
#: States a finished job can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})
#: States eligible for dispatch.
WAITING_STATES = frozenset({QUEUED, PREEMPTED})

_ALLOWED_TRANSITIONS = {
    QUEUED: {RUNNING, CANCELLED, FAILED},
    RUNNING: {PREEMPTED, DONE, FAILED, QUEUED, CANCELLED},
    PREEMPTED: {RUNNING, CANCELLED, FAILED},
    DONE: set(),
    FAILED: set(),
    CANCELLED: set(),
}


class JobStoreError(RuntimeError):
    """Raised for malformed stores, bad submissions or bad transitions."""


class UnknownJobError(JobStoreError, KeyError):
    """Raised when a job id does not exist in the store."""


@dataclass
class JobRecord:
    """One job: an experiment spec plus its scheduling state."""

    id: str
    spec: Dict[str, Any]
    priority: int = 0
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    max_retries: int = 2
    state: str = QUEUED
    #: Crash retries consumed (counted against ``max_retries``).
    attempts: int = 0
    #: Times the job was requeued through no fault of its own — stale
    #: heartbeat after a scheduler death, or scheduler-initiated
    #: termination during shutdown.  Never counted against
    #: ``max_retries``: a crash-reclaimed job must not exhaust its
    #: retry budget spuriously.
    reclaims: int = 0
    created_at: float = 0.0
    updated_at: float = 0.0
    #: Earliest dispatch time (retry backoff); 0 means "now".
    not_before: float = 0.0
    worker_pid: Optional[int] = None
    error: Optional[str] = None
    #: Checkpointed progress (generations safely on disk).
    generations_done: int = 0
    converged: bool = False

    @property
    def spec_obj(self) -> ExperimentSpec:
        return ExperimentSpec.from_dict(self.spec)

    @property
    def max_generations(self) -> int:
        return int(self.spec.get("max_generations", 0))

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def preemptible(self) -> bool:
        """Can this job yield and later resume?  The soc backend keeps
        no checkpoints, so preempting it would only forfeit work."""
        return self.spec_obj.substrate != "soc"

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["format"] = JOB_FORMAT_VERSION
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRecord":
        payload = dict(data)
        payload.pop("format", None)
        check_fields(payload, cls, JobStoreError, "job record fields")
        return cls(**payload)


class JobStore:
    """File-backed job queue under one serve root (see module docstring)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.jobs_root = self.root / "jobs"

    def __repr__(self) -> str:
        return f"JobStore({str(self.root)!r})"

    # -- paths ------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_root / job_id

    def record_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / JOB_FILENAME

    def events_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / EVENTS_FILENAME

    def run_dir(self, job_id: str) -> RunDir:
        return RunDir(self.job_dir(job_id) / RUN_DIRNAME)

    # -- submission -------------------------------------------------------

    def _allocate_id(self) -> str:
        """Claim the next ``job-%06d`` directory; atomic across processes
        (``mkdir`` of an existing directory fails, so one claimant wins)."""
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        taken = [
            int(entry.name[4:])
            for entry in self.jobs_root.iterdir()
            if entry.name.startswith("job-") and entry.name[4:].isdigit()
        ]
        candidate = max(taken, default=0) + 1
        while True:
            job_id = f"job-{candidate:06d}"
            try:
                self.job_dir(job_id).mkdir()
                return job_id
            except FileExistsError:
                candidate += 1

    def submit(
        self,
        spec: Union[ExperimentSpec, Mapping[str, Any]],
        priority: int = 0,
        checkpoint_every: Optional[int] = None,
        max_retries: int = 2,
    ) -> JobRecord:
        """Validate and enqueue one experiment spec; returns the record."""
        if not isinstance(spec, ExperimentSpec):
            try:
                spec = ExperimentSpec.from_dict(spec)
            except (SpecError, TypeError) as exc:
                raise JobStoreError(f"invalid job spec: {exc}") from exc
        if checkpoint_every is None:
            checkpoint_every = DEFAULT_CHECKPOINT_EVERY
        if checkpoint_every < 1:
            raise JobStoreError("checkpoint_every must be >= 1")
        if max_retries < 0:
            raise JobStoreError("max_retries must be >= 0")
        now = time.time()
        record = JobRecord(
            id=self._allocate_id(),
            spec=spec.to_dict(),
            priority=int(priority),
            checkpoint_every=int(checkpoint_every),
            max_retries=int(max_retries),
            created_at=now,
            updated_at=now,
        )
        self.save(record)
        self.append_event(
            record.id, "submitted",
            priority=record.priority, backend=spec.backend,
            env_id=spec.env_id, max_generations=spec.max_generations,
        )
        return record

    # -- record I/O -------------------------------------------------------

    def save(self, record: JobRecord) -> None:
        record.updated_at = time.time()
        write_json(self.record_path(record.id), record.to_dict())

    def load(self, job_id: str) -> JobRecord:
        path = self.record_path(job_id)
        if not path.exists():
            raise UnknownJobError(f"unknown job {job_id!r} in {self.root}")
        return JobRecord.from_dict(read_json(path, JobStoreError))

    def job_ids(self) -> List[str]:
        if not self.jobs_root.is_dir():
            return []
        return sorted(
            entry.name for entry in self.jobs_root.iterdir()
            if (entry / JOB_FILENAME).exists()
        )

    def list_jobs(self) -> List[JobRecord]:
        return [self.load(job_id) for job_id in self.job_ids()]

    # -- state machine ----------------------------------------------------

    def transition(
        self,
        job_id: str,
        state: str,
        event: Optional[str] = None,
        **updates: Any,
    ) -> JobRecord:
        """Move a job to ``state`` (validated), persist, log an event.

        Extra keyword arguments update record fields; unknown keys are
        rejected by the dataclass.  The event (default: the new state
        name) records the transition with the updated fields attached.
        Concurrent transitions of one job run one at a time, so each
        sees the state the previous one saved.
        """
        with self._locked(job_id):
            record = self.load(job_id)
            if state not in JOB_STATES:
                raise JobStoreError(f"unknown job state {state!r}")
            if state not in _ALLOWED_TRANSITIONS[record.state]:
                raise JobStoreError(
                    f"job {job_id} cannot go {record.state!r} -> {state!r}"
                )
            record.state = state
            for key, value in updates.items():
                if not hasattr(record, key):
                    raise JobStoreError(f"unknown job record field {key!r}")
                setattr(record, key, value)
            self.save(record)
            self.append_event(job_id, event or state, state=state, **updates)
        return record

    def set_worker_pid(self, job_id: str, pid: int) -> None:
        """Record the pid of the worker running a job (no state change)."""
        with self._locked(job_id):
            record = self.load(job_id)
            record.worker_pid = pid
            self.save(record)

    @contextmanager
    def _locked(self, job_id: str) -> Iterator[None]:
        """Hold the job's lock file exclusively.  ``flock`` locks an open
        file description, so it serialises the server's threads and any
        other process on the same root alike; closing the file drops it."""
        path = self.job_dir(job_id) / LOCK_FILENAME
        try:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
        except FileNotFoundError:
            raise UnknownJobError(f"unknown job {job_id!r} in {self.root}") from None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    # -- events -----------------------------------------------------------

    def append_event(self, job_id: str, event: str, **fields: Any) -> None:
        row = {"ts": time.time(), "event": event, **fields}
        append_jsonl(self.events_path(job_id), row)

    def read_events(self, job_id: str) -> List[Dict[str, Any]]:
        return read_jsonl(self.events_path(job_id))

    # -- preempt / cancel flags -------------------------------------------

    def _flag_path(self, job_id: str, flag: str) -> Path:
        return self.job_dir(job_id) / flag

    def request_preempt(self, job_id: str) -> None:
        """Ask the running worker to yield at its next checkpoint
        boundary (checkpoint -> exit; the scheduler then requeues)."""
        self.load(job_id)  # existence check
        self._flag_path(job_id, PREEMPT_FLAG).touch()

    def preempt_requested(self, job_id: str) -> bool:
        return self._flag_path(job_id, PREEMPT_FLAG).exists()

    def clear_preempt(self, job_id: str) -> None:
        self._flag_path(job_id, PREEMPT_FLAG).unlink(missing_ok=True)

    def cancel_requested(self, job_id: str) -> bool:
        return self._flag_path(job_id, CANCEL_FLAG).exists()

    def clear_cancel(self, job_id: str) -> None:
        self._flag_path(job_id, CANCEL_FLAG).unlink(missing_ok=True)

    def request_cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: waiting jobs cancel immediately; a running job
        gets a flag its worker honours at the next checkpoint boundary
        (the scheduler then records the terminal state)."""
        record = self.load(job_id)
        if record.terminal:
            return record
        if record.state in WAITING_STATES:
            return self.transition(job_id, CANCELLED, event="cancelled")
        self._flag_path(job_id, CANCEL_FLAG).touch()
        self.append_event(job_id, "cancel_requested")
        return self.load(job_id)

    # -- worker error channel ---------------------------------------------

    def error_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "error.txt"

    def write_worker_error(self, job_id: str, text: str) -> None:
        write_atomic(self.error_path(job_id), text)

    def read_worker_error(self, job_id: str) -> Optional[str]:
        try:
            return self.error_path(job_id).read_text()
        except FileNotFoundError:
            return None

    def clear_worker_error(self, job_id: str) -> None:
        """Drop a previous attempt's ``error.txt`` so the error channel
        always belongs to the worker currently (or last) dispatched."""
        self.error_path(job_id).unlink(missing_ok=True)

    # -- derived status ---------------------------------------------------

    def describe(self, job_id: str) -> Dict[str, Any]:
        """The record plus run-dir-derived progress, JSON-friendly —
        what ``GET /jobs/<id>`` and ``repro job`` report."""
        record = self.load(job_id)
        payload = record.to_dict()
        rd = self.run_dir(job_id)
        rows = rd.read_metrics() if rd.metrics_path.exists() else []
        payload["metrics_rows"] = len(rows)
        if rows:
            payload["best_fitness"] = max(
                row.get("best_fitness", float("-inf")) for row in rows
            )
        latest = rd.latest_checkpoint()
        payload["checkpointed_generation"] = latest[0] if latest else None
        payload["has_champion"] = rd.champion_path.exists()
        payload["complete"] = rd.is_complete
        payload["preempt_requested"] = self.preempt_requested(job_id)
        payload["cancel_requested"] = self.cancel_requested(job_id)
        return payload
