"""Exclusive on-disk claims: one owner per resource, crash-reclaimable.

Two layers live here:

* :class:`ClaimFile` — the generic protocol: an atomically-created
  claim file (payload written aside, hard-linked into place — the link
  fails like ``O_EXCL`` but the file appears with its content) holding
  the owner's PID, host and a
  heartbeat timestamp.  Exactly one contender wins the create; while
  held, a daemon thread refreshes ``heartbeat_at``; a claim whose owner
  is observably dead (same-host PID gone) or silent past ``stale_after``
  seconds — or whose file is torn JSON (its writer died mid-claim) — is
  *reclaimable*: the breaker atomically renames the stale file aside
  (only one contender can win the rename) and then claims normally.
* :class:`RunDirLock` — the run-directory specialisation (``run.lock``
  inside the run dir), held by :func:`repro.runs.run_in_dir` for the
  whole execution so two schedulers, a scheduler plus a CLI user, or
  two CLI users can never corrupt one run directory between them.

The distributed sweep executor (:mod:`repro.dse.distributed`) builds its
per-point work queue on :class:`ClaimFile` directly: every pending sweep
point is one claim file, so any number of worker processes on any number
of hosts sharing the filesystem drain one sweep with no coordinator.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..obs.jsonl import read_json, write_atomic
from .artifacts import RunError

LOCK_FILENAME = "run.lock"

#: A heartbeat older than this (seconds) marks the claim stale even when
#: the owner PID cannot be probed (e.g. it lives on another host).
DEFAULT_STALE_AFTER = 60.0
#: How often the holder refreshes ``heartbeat_at`` while running.
DEFAULT_HEARTBEAT_INTERVAL = 5.0


class ClaimConflictError(RunError):
    """The resource is exclusively claimed by a live process."""


class RunLockedError(ClaimConflictError):
    """The run directory is exclusively claimed by a live process."""


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a same-host PID."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True  # unknowable: err on the side of "alive"
    return True


def read_claim(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The payload of a claim file, or ``None``.

    Returns ``None`` both when no claim exists and when the file is torn
    (its writer died between create and write) — callers distinguish via
    ``Path(path).exists()`` when they care.
    """
    try:
        return read_json(path, ValueError)
    except ValueError:
        return None


class ClaimFile:
    """An exclusive, heartbeat-refreshed claim on one on-disk path.

    Use as a context manager, or via :meth:`try_acquire` when losing the
    race is an expected outcome (the distributed-sweep workers simply
    move on to the next point)::

        claim = ClaimFile(path, stale_after=30.0)
        if claim.try_acquire():
            try:
                ...  # sole owner
            finally:
                claim.release()

    ``extra`` is merged into the claim payload (e.g. a sweep point key
    or a worker id) for observability; it never affects the protocol.
    ``stale_after`` and ``heartbeat_interval`` are tunable for tests and
    for schedulers that want faster crash detection.
    """

    #: Raised by :meth:`acquire` on a live conflict; subclasses override.
    conflict_error = ClaimConflictError

    def __init__(
        self,
        path: Union[str, Path],
        stale_after: float = DEFAULT_STALE_AFTER,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        if stale_after <= 0:
            raise ValueError("stale_after must be > 0")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        self.path = Path(path)
        self.stale_after = stale_after
        self.heartbeat_interval = heartbeat_interval
        self.extra = dict(extra) if extra else {}
        #: Stale claims this instance broke while acquiring — observers
        #: (the distributed sweep worker) count these as reclaims.
        self.reclaimed = 0
        self._held = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- inspection -------------------------------------------------------

    @property
    def held(self) -> bool:
        return self._held

    def read(self) -> Optional[Dict[str, Any]]:
        """The current claim payload, or ``None`` when unclaimed/torn."""
        return read_claim(self.path)

    def is_stale(self, payload: Optional[Dict[str, Any]] = None) -> bool:
        """Is the recorded owner observably dead or silent too long?

        A torn/unreadable claim file also counts as stale — its writer
        died mid-claim.
        """
        if payload is None:
            if not self.path.exists():
                return False
            payload = self.read()
        if payload is None:
            return True
        heartbeat = payload.get("heartbeat_at", payload.get("acquired_at", 0))
        try:
            heartbeat = float(heartbeat)
        except (TypeError, ValueError):
            return True  # unparseable payload: its writer is gone
        if time.time() - heartbeat > self.stale_after:
            return True
        if payload.get("host") == socket.gethostname():
            pid = payload.get("pid")
            if isinstance(pid, int) and not _pid_alive(pid):
                return True
        return False

    def _describe_target(self) -> str:
        return str(self.path)

    # -- acquire / release ------------------------------------------------

    def _payload(self) -> Dict[str, Any]:
        now = time.time()
        payload = {
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "acquired_at": now,
            "heartbeat_at": now,
        }
        payload.update(self.extra)
        return payload

    def _try_break(self) -> None:
        """Move a stale claim aside; exactly one contender wins the rename."""
        aside = self.path.with_name(
            f"{self.path.name}.stale-{os.getpid()}-{time.monotonic_ns()}"
        )
        try:
            os.rename(self.path, aside)
        except FileNotFoundError:
            return  # another contender broke it first
        self.reclaimed += 1
        try:
            aside.unlink()
        except OSError:
            pass

    def _take(self) -> bool:
        """One atomic claim attempt; True on success, False on conflict.

        The payload is written to a private temp file first and then
        hard-linked into place — ``link`` fails with ``FileExistsError``
        exactly like ``O_EXCL``, but the claim appears with its payload
        already durable.  A direct O_EXCL create would expose a window
        where a contender reads the just-created empty file, judges it
        torn (= stale) and steals a live claim.
        """
        tmp = self.path.with_name(
            f"{self.path.name}.tmp-{os.getpid()}-{time.monotonic_ns()}"
        )
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        try:
            os.write(fd, (json.dumps(self._payload(), sort_keys=True) + "\n")
                     .encode())
            os.fsync(fd)
        finally:
            os.close(fd)
        try:
            os.link(tmp, self.path)
        except FileExistsError:
            return False
        finally:
            tmp.unlink(missing_ok=True)
        self._held = True
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._heartbeat_loop, daemon=True,
            name=f"claim-heartbeat:{self.path.name}",
        )
        self._thread.start()
        return True

    def try_acquire(self) -> bool:
        """Claim without raising: True when won, False when a live owner
        holds the path.  Stale claims are broken and retried."""
        if self.held:
            raise RunError(f"claim on {self._describe_target()} is "
                           "already held")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for _attempt in range(3):
            if self._take():
                return True
            if not self.is_stale(self.read()):
                return False
            self._try_break()
        return self._take()

    def acquire(self) -> "ClaimFile":
        if not self.try_acquire():
            payload = self.read()
            owner = "unknown process"
            if payload:
                owner = (f"pid {payload.get('pid')} on "
                         f"{payload.get('host')}")
            raise self.conflict_error(
                f"{self._describe_target()} is claimed by {owner} "
                f"(claim file {self.path}); a stale claim becomes "
                f"reclaimable after {self.stale_after:.0f}s without a "
                "heartbeat"
            )
        return self

    def heartbeat(self) -> None:
        """Refresh ``heartbeat_at`` in place (atomic rewrite)."""
        if not self.held:
            return
        payload = self.read() or self._payload()
        payload["heartbeat_at"] = time.time()
        write_atomic(self.path, json.dumps(payload, sort_keys=True) + "\n")

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self.heartbeat()
            except OSError:  # pragma: no cover - disk full etc.
                pass

    def release(self) -> None:
        if not self.held:
            return
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.heartbeat_interval + 1)
            self._thread = None
        self._held = False
        self.path.unlink(missing_ok=True)

    def __enter__(self) -> "ClaimFile":
        return self.acquire()

    def __exit__(self, *_exc) -> None:
        self.release()


class RunDirLock(ClaimFile):
    """An exclusive, heartbeat-refreshed claim on one run directory.

    Use as a context manager (what :func:`repro.runs.run_in_dir` does)::

        with RunDirLock(run_dir):
            ...  # sole writer of run_dir
    """

    conflict_error = RunLockedError

    def __init__(
        self,
        run_dir: Union[str, Path],
        stale_after: float = DEFAULT_STALE_AFTER,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    ) -> None:
        self.run_dir = Path(run_dir)
        super().__init__(
            self.run_dir / LOCK_FILENAME,
            stale_after=stale_after,
            heartbeat_interval=heartbeat_interval,
        )

    def _describe_target(self) -> str:
        return str(self.run_dir)

    def acquire(self) -> "RunDirLock":
        super().acquire()
        return self


def read_lock(run_dir: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The lock payload of a run directory, or ``None``.

    Returns ``None`` both when no claim exists and when the file is torn
    (its writer died between create and write) — callers distinguish via
    ``(run_dir / LOCK_FILENAME).exists()`` when they care.
    """
    return read_claim(Path(run_dir) / LOCK_FILENAME)
