"""Coordinator-free distributed sweeps over a shared filesystem.

The content-hash cache (:mod:`repro.dse.cache`) already makes every
sweep point a location-independent work unit: any process that can see
the cache directory can evaluate a point and publish its record
atomically.  This module adds the one missing piece — *mutual
exclusion* per point — so N ``repro dse --worker`` processes on any
number of hosts drain one sweep together without a coordinator:

* Each pending point gets an atomically-created **claim file**
  (:class:`repro.runs.ClaimFile`) under ``<work_dir>/claims/``, carrying
  the owner's pid/host plus a heartbeat.  Exactly one worker wins each
  claim; a crashed worker's claim goes stale (old heartbeat, same-host
  dead pid, or torn JSON) and is reclaimed by a single rename-aside
  winner, so a SIGKILL mid-point costs one ``stale_after`` delay, never
  a lost or doubly-evaluated point.
* Workers append to a per-sweep **event ledger**
  (``<work_dir>/events.jsonl``, through :mod:`repro.obs.jsonl`):
  ``claimed`` / ``reclaimed`` / ``evaluated`` / ``released`` /
  ``failed``, one JSON object per line.  The ledger is the audit trail
  (exactly-once means exactly one ``evaluated`` event per key) and the
  source of truth for the ``cached`` column when the finished sweep is
  collected.
* :meth:`DistributedSweepRunner.collect` replays the finished sweep
  through the ordinary :class:`repro.dse.SweepRunner` — every point is a
  cache hit by then — and restores the serial run's ``cached`` flags
  from the ledger, so the collected table, CSV/JSON exports and cache
  records are byte-identical to a single-process run of the same sweep.

Evaluation order across workers is nondeterministic; byte-identity holds
because each point's metrics are a pure function of its spec and the
exports canonicalise column and key order.
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from .. import obs
from ..obs.jsonl import append_jsonl, read_jsonl
from ..runs.artifacts import RunError
from ..runs.locking import ClaimFile
from .cache import EXPERIMENT_EVALUATOR, sweep_key
from .pareto import pareto_front
from .runner import PointEvaluator, SweepResult, SweepRunner
from .spec import SweepPoint, SweepSpec

#: Ledger event types, in lifecycle order.
EVENTS = ("claimed", "reclaimed", "evaluated", "released", "failed")

EVENTS_FILENAME = "events.jsonl"
CLAIMS_DIRNAME = "claims"


class DistributedSweepError(RunError):
    """Raised for distributed-sweep protocol misuse (e.g. collecting an
    unfinished sweep)."""


def default_work_dir(
    cache_dir: Union[str, Path],
    sweep: SweepSpec,
    evaluator: str = EXPERIMENT_EVALUATOR,
) -> Path:
    """Where a sweep's claims + ledger live when the caller doesn't say.

    A sibling of the cache directory (never inside it — cache contents
    must stay byte-identical to a serial run's), fanned out by the
    sweep's own content hash so two different sweeps sharing one cache
    never share claim state.
    """
    return Path(str(cache_dir) + ".work") / sweep_key(sweep, evaluator)[:16]


class SweepWorkQueue:
    """The on-disk face of one distributed sweep: claims + event ledger."""

    def __init__(
        self,
        work_dir: Union[str, Path],
        stale_after: float = 60.0,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        self.work_dir = Path(work_dir)
        self.claims_dir = self.work_dir / CLAIMS_DIRNAME
        self.events_path = self.work_dir / EVENTS_FILENAME
        self.stale_after = stale_after
        # A live holder must beat several heartbeats into one staleness
        # window, or a tight --stale-after would reclaim live claims.
        if heartbeat_interval is None:
            heartbeat_interval = min(5.0, stale_after / 4.0)
        self.heartbeat_interval = heartbeat_interval

    def claim_for(self, key: str, worker: str) -> ClaimFile:
        return ClaimFile(
            self.claims_dir / f"{key}.claim",
            stale_after=self.stale_after,
            heartbeat_interval=self.heartbeat_interval,
            extra={"key": key, "worker": worker},
        )

    def log(self, event: str, key: str, worker: str, **extra: Any) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "event": event,
            "key": key,
            "worker": worker,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "ts": time.time(),
        }
        payload.update(extra)
        append_jsonl(self.events_path, payload)

    def events(self) -> List[Dict[str, Any]]:
        return read_jsonl(self.events_path)

    def evaluated_keys(self) -> Dict[str, int]:
        """key -> number of ``evaluated`` events (exactly-once audit)."""
        counts: Dict[str, int] = {}
        for event in self.events():
            if event.get("event") == "evaluated":
                key = event.get("key")
                if isinstance(key, str):
                    counts[key] = counts.get(key, 0) + 1
        return counts

    def live_claims(self) -> List[Dict[str, Any]]:
        """Current claim payloads (live and stale alike), for status."""
        claims = []
        if not self.claims_dir.is_dir():
            return claims
        for path in sorted(self.claims_dir.glob("*.claim")):
            probe = ClaimFile(path, stale_after=self.stale_after)
            payload = probe.read() or {}
            claims.append(
                {
                    "key": payload.get("key", path.stem),
                    "payload": payload,
                    "stale": probe.is_stale(payload if payload else None),
                }
            )
        return claims


class DistributedSweepRunner:
    """Drain one sweep cooperatively with any number of sibling workers.

    Composes an ordinary :class:`SweepRunner` for point keys, evaluation
    and the cache, and a :class:`SweepWorkQueue` for mutual exclusion.
    The cache directory is mandatory — it is the shared medium through
    which workers publish results.

    ``drain()`` runs the worker loop until every unique point of the
    sweep has a cache record; ``collect()`` then assembles the
    serial-identical :class:`SweepResult`.  A single process calling
    ``drain()`` then ``collect()`` is exactly a slow serial sweep.
    """

    def __init__(
        self,
        sweep: SweepSpec,
        cache_dir: Union[str, Path],
        work_dir: Optional[Union[str, Path]] = None,
        evaluate: Optional[PointEvaluator] = None,
        evaluator_version: Optional[str] = None,
        runs_dir: Optional[Union[str, Path]] = None,
        stale_after: float = 60.0,
        heartbeat_interval: Optional[float] = None,
        poll_interval: float = 0.5,
        worker_id: Optional[str] = None,
        metrics: Optional["obs.MetricsRegistry"] = None,
    ) -> None:
        if cache_dir is None:
            raise DistributedSweepError(
                "distributed sweeps need a cache directory — it is how "
                "workers publish results to each other"
            )
        self.runner = SweepRunner(
            sweep,
            cache_dir=cache_dir,
            jobs=1,
            evaluate=evaluate,
            evaluator_version=evaluator_version,
            runs_dir=runs_dir,
        )
        if self.runner.cache is None:
            raise DistributedSweepError(
                "a custom evaluator needs an evaluator_version to take "
                "part in a distributed sweep (its results must be "
                "cacheable)"
            )
        self.sweep = sweep
        evaluator = self.runner.evaluator_version or EXPERIMENT_EVALUATOR
        if work_dir is None:
            work_dir = default_work_dir(cache_dir, sweep, evaluator)
        self.queue = SweepWorkQueue(
            work_dir,
            stale_after=stale_after,
            heartbeat_interval=heartbeat_interval,
        )
        self.poll_interval = poll_interval
        self.worker_id = worker_id or f"{socket.gethostname()}:{os.getpid()}"
        self._metrics = metrics
        if metrics is not None:
            self._m_claims = metrics.counter(
                "repro_dse_claims_total", "Point claims won by this worker"
            )
            self._m_reclaims = metrics.counter(
                "repro_dse_reclaims_total",
                "Stale claims broken and taken over by this worker",
            )
            self._m_evaluated = metrics.counter(
                "repro_dse_points_evaluated_total",
                "Points this worker evaluated (fresh, not cache hits)",
            )
            self._m_cache_hits = metrics.counter(
                "repro_dse_cache_hits_total",
                "Points this worker found already cached",
            )
            self._m_total = metrics.gauge(
                "repro_dse_points_total", "Unique points in the sweep"
            )
            self._m_done = metrics.gauge(
                "repro_dse_points_done",
                "Unique points with a cache record",
            )

    # -- the sweep's work units -------------------------------------------

    def _leaders(self) -> "Dict[str, SweepPoint]":
        """Unique key -> its first-occurrence point (expansion order).

        The first occurrence is what a serial sweep evaluates and stores
        (its axes go into the cache record), so distributed workers must
        pick the same representative for byte-identical cache contents.
        """
        leaders: Dict[str, SweepPoint] = {}
        for point in self.sweep.expand():
            key = self.runner._key(point)
            leaders.setdefault(key, point)
        return leaders

    # -- worker loop ------------------------------------------------------

    def drain(
        self,
        max_points: Optional[int] = None,
        progress: Optional[Callable[[str, str], None]] = None,
    ) -> Dict[str, int]:
        """Evaluate claimable points until the sweep is fully cached.

        Returns this worker's tally: ``{"evaluated", "cache_hits",
        "claims", "reclaims", "points"}``.  ``max_points`` stops the
        worker after it has evaluated that many fresh points (fault
        tests use it to script partial progress); ``progress`` fires as
        ``progress(event, key)`` for each lifecycle step.
        """
        cache = self.runner.cache
        assert cache is not None
        leaders = self._leaders()
        if self._metrics is not None:
            self._m_total.set(len(leaders))
        tally = {
            "points": len(leaders),
            "evaluated": 0,
            "cache_hits": 0,
            "claims": 0,
            "reclaims": 0,
        }

        def note(event: str, key: str) -> None:
            if progress is not None:
                progress(event, key)

        done: set = set()
        while True:
            blocked = 0
            advanced = False
            for key, point in leaders.items():
                if key in done:
                    continue
                if cache.get(key) is not None:
                    # Published by a sibling (or a previous sweep).
                    done.add(key)
                    advanced = True
                    continue
                claim = self.queue.claim_for(key, self.worker_id)
                if not claim.try_acquire():
                    blocked += 1
                    continue
                try:
                    if claim.reclaimed:
                        obs.incr("dse.reclaim")
                        tally["reclaims"] += claim.reclaimed
                        if self._metrics is not None:
                            self._m_reclaims.inc(claim.reclaimed)
                        self.queue.log("reclaimed", key, self.worker_id)
                        note("reclaimed", key)
                    obs.incr("dse.claim")
                    tally["claims"] += 1
                    if self._metrics is not None:
                        self._m_claims.inc()
                    self.queue.log("claimed", key, self.worker_id)
                    note("claimed", key)
                    # Double-check under the claim: the previous holder
                    # may have published its record and died just before
                    # releasing.
                    if cache.get(key) is None:
                        with obs.span("dse.point.distributed", key=key):
                            metrics = self.runner._run_point(point, key)
                        tally["evaluated"] += 1
                        if self._metrics is not None:
                            self._m_evaluated.inc()
                        self.queue.log("evaluated", key, self.worker_id)
                        note("evaluated", key)
                        cache.put(key, metrics, point)
                    else:
                        obs.incr("dse.cache_hit")
                        tally["cache_hits"] += 1
                        if self._metrics is not None:
                            self._m_cache_hits.inc()
                except BaseException:
                    self.queue.log("failed", key, self.worker_id)
                    note("failed", key)
                    claim.release()
                    raise
                self.queue.log("released", key, self.worker_id)
                note("released", key)
                claim.release()
                done.add(key)
                advanced = True
                if self._metrics is not None:
                    self._m_done.set(len(done))
                if (
                    max_points is not None
                    and tally["evaluated"] >= max_points
                ):
                    return tally
            if self._metrics is not None:
                self._m_done.set(len(done))
            if blocked == 0:
                return tally
            if not advanced:
                # Everything left is claimed by live siblings: wait for
                # them to publish (or for their claims to go stale).
                time.sleep(self.poll_interval)

    # -- progress / assembly ----------------------------------------------

    def status(self) -> Dict[str, Any]:
        """A point-in-time snapshot for ``repro dse --watch``."""
        cache = self.runner.cache
        assert cache is not None
        leaders = self._leaders()
        cached = [key for key in leaders if cache.get(key) is not None]
        claims = self.queue.live_claims()
        evaluated = self.queue.evaluated_keys()
        return {
            "points": len(leaders),
            "done": len(cached),
            "claimed": sum(1 for c in claims if not c["stale"]),
            "stale_claims": sum(1 for c in claims if c["stale"]),
            "evaluated_events": sum(evaluated.values()),
            "duplicate_evaluations": sum(
                count - 1 for count in evaluated.values() if count > 1
            ),
            "complete": len(cached) == len(leaders),
        }

    def frontier(
        self, objectives: Mapping[str, str]
    ) -> List[Dict[str, Any]]:
        """The Pareto frontier over the points finished *so far*."""
        cache = self.runner.cache
        assert cache is not None
        rows = []
        for key, point in self._leaders().items():
            record = cache.get(key)
            if record is None:
                continue
            row = dict(point.axes)
            row.update(record["metrics"])
            row["point"] = point.index
            row["key"] = key
            rows.append(row)
        if not any(
            all(isinstance(row.get(name), (int, float)) for name in objectives)
            for row in rows
        ):
            return []  # nothing finished yet — a frontier of nothing
        return pareto_front(rows, objectives)

    def collect(self) -> SweepResult:
        """The finished sweep as a serial-identical :class:`SweepResult`.

        Every point must already be cached (``drain()`` elsewhere or
        here).  The ``cached`` column is restored from the event ledger:
        a key some worker *evaluated* during this sweep reads
        ``cached=False`` on its first-occurrence row — exactly what a
        single-process run would have reported — while keys served from
        a pre-existing cache stay ``cached=True`` everywhere.
        """
        cache = self.runner.cache
        assert cache is not None
        leaders = self._leaders()
        missing = [k for k in leaders if cache.get(k) is None]
        if missing:
            raise DistributedSweepError(
                f"sweep is not finished: {len(missing)}/{len(leaders)} "
                "points have no cache record yet (run more workers, or "
                "wait for the live ones)"
            )
        result = self.runner.run()
        fresh = set(self.queue.evaluated_keys())
        seen: set = set()
        for row in result.rows:  # sorted by expansion index
            key = row["key"]
            if key in fresh and key not in seen:
                row["cached"] = False
            seen.add(key)
        return result
