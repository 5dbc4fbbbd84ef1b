"""The span/counter tracer: zero-dependency, no-op-fast when disabled.

One module-global tracer (or none).  Call sites do::

    from .. import obs

    with obs.span("evaluate", generation=3, genomes=150) as sp:
        ...
        sp.set(compiled=148)
    obs.incr("dse.cache_hit")

With no tracer installed, :func:`span` returns a shared singleton whose
``__enter__``/``__exit__``/``set`` are no-ops — one global read and one
call per span, which is what keeps the disabled overhead under the 2%
gate (``benchmarks/bench_obs_overhead.py``).  Instrumentation therefore
stays at generation/phase/chunk granularity, never per environment step.

With a tracer installed, every finished span and every counter bump
appends one JSON line to the tracer's path through
:func:`repro.obs.jsonl.append_jsonl`, so concurrent writers — pool
workers forked after the tracer was installed, the parent process,
threads — interleave whole lines, and :func:`repro.obs.read_jsonl` reads
the file back.  Attribute values JSON cannot encode are recorded as
their ``str()``.

Telemetry is strictly out-of-band: nothing in this module touches run
artifacts, cache keys or checkpoints, and the byte-identity test in
``tests/test_obs.py`` pins that a traced run's artifacts equal an
untraced run's.

Row formats (``type`` discriminates)::

    {"type": "span", "name": "evaluate", "ts": <wall-clock start>,
     "dur_s": 0.0123, "pid": 1234, "attrs": {...}}          # attrs optional
    {"type": "counter", "name": "dse.cache_hit", "ts": <wall clock>,
     "value": 1, "total": 7, "pid": 1234}

Activation (see :mod:`repro.runs.runner` and the CLI):

* ``repro run --trace`` / ``run_in_dir(..., trace=True)`` / the
  ``REPRO_TRACE`` environment variable write ``telemetry.jsonl`` into
  the run directory (serve workers inherit the env var, so every job
  gets per-run telemetry);
* ``REPRO_TRACE_FILE=PATH`` installs a process-wide tracer at CLI
  startup for commands with no run dir (``repro dse`` sweeps).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from .jsonl import append_jsonl

#: Truthy values accepted by the activation environment variables.
TRACE_ENV_VAR = "REPRO_TRACE"
TRACE_FILE_ENV_VAR = "REPRO_TRACE_FILE"
_FALSY = {"", "0", "false", "no", "off"}

#: Filename of the per-run telemetry artifact inside a run directory.
TELEMETRY_FILENAME = "telemetry.jsonl"


def env_trace_enabled(environ: Optional[Dict[str, str]] = None) -> bool:
    """Does ``REPRO_TRACE`` ask for per-run telemetry?"""
    value = (environ if environ is not None else os.environ).get(
        TRACE_ENV_VAR, ""
    )
    return value.strip().lower() not in _FALSY


def _plain(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """``attrs`` with each value JSON cannot encode as its ``str()``."""
    return json.loads(json.dumps(attrs, default=str))


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: Any) -> bool:
        return False

    def set(self, **_attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One timed phase; use as a context manager.

    Wall-clock start (``time.time``) anchors the trace on a real
    timeline; the duration comes from ``perf_counter`` so it survives
    clock adjustments.  ``set(**attrs)`` attaches attributes any time
    before exit (e.g. a count only known at the end of the phase).
    """

    __slots__ = ("name", "attrs", "_tracer", "_wall", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._wall = 0.0
        self._start = 0.0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._wall = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        duration = time.perf_counter() - self._start
        row: Dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "ts": self._wall,
            "dur_s": duration,
            "pid": os.getpid(),
        }
        if exc_type is not None:
            row["error"] = exc_type.__name__
        if self.attrs:
            row["attrs"] = _plain(self.attrs)
        self._tracer.emit(row)
        return False  # never swallow exceptions


class Tracer:
    """Append JSON rows to one telemetry file.

    The tracer holds a path, not an open file, so it is fork-safe
    (children inherit the *path*, not a shared file position) and
    several processes can feed one file.  Counter totals are
    per-process — the cumulative ``total`` restarts in each worker;
    cross-process aggregation sums the ``value`` deltas.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}

    def __repr__(self) -> str:
        return f"Tracer({self.path!r})"

    def emit(self, row: Dict[str, Any]) -> None:
        with self._lock:
            append_jsonl(self.path, row)

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def incr(self, name: str, value: int = 1, **attrs: Any) -> None:
        with self._lock:
            total = self._counters.get(name, 0) + value
            self._counters[name] = total
        row: Dict[str, Any] = {
            "type": "counter",
            "name": name,
            "ts": time.time(),
            "value": value,
            "total": total,
            "pid": os.getpid(),
        }
        if attrs:
            row["attrs"] = _plain(attrs)
        self.emit(row)


_TRACER: Optional[Tracer] = None


def current() -> Optional[Tracer]:
    """The installed tracer, or None while tracing is disabled."""
    return _TRACER


def install(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide sink; returns it."""
    global _TRACER
    _TRACER = tracer
    return tracer


def uninstall() -> None:
    global _TRACER
    _TRACER = None


def span(name: str, **attrs: Any):
    """A context manager timing one phase (no-op when disabled)."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def incr(name: str, value: int = 1, **attrs: Any) -> None:
    """Bump a monotonic counter (no-op when disabled)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.incr(name, value, **attrs)


@contextmanager
def tracing(path: Union[str, Path]) -> Iterator[Tracer]:
    """Install a tracer writing to ``path`` for the block's duration,
    restoring whatever was installed before (including nothing)."""
    global _TRACER
    previous = _TRACER
    tracer = Tracer(path)
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous

