"""Structured telemetry: spans, counters, metrics, traces (``repro.obs``).

The observability layer for every execution path — see
``docs/observability.md``:

* :func:`span` / :func:`incr` — the zero-dependency tracer call sites
  sprinkled through the runner, the parallel evaluator, the compiled
  batch engine, the SoC model and the DSE sweep engine.  No-ops (one
  global read) until a :class:`Tracer` is installed, so the disabled
  overhead is gated at <=2% (``benchmarks/bench_obs_overhead.py``).
* ``telemetry.jsonl`` — the per-run artifact :func:`repro.runs.run_in_dir`
  writes when tracing is on (``--trace`` / ``REPRO_TRACE``); strictly
  out-of-band, so traced runs stay byte-identical to untraced ones.
* :func:`chrome_trace` / :func:`export_chrome_trace` — open any traced
  run in Perfetto; :func:`phase_summary` is the Fig. 10-style runtime
  breakdown ``repro trace RUN_DIR`` prints.
* :class:`MetricsRegistry` + :func:`prometheus_text` — the scrapeable
  ``GET /metrics`` surface of the serve HTTP API and the data behind
  ``repro top``.
* :mod:`repro.obs.jsonl` — the one writer of every file the repo keeps
  and the reader of its JSON and JSONL documents (atomic write, JSON
  documents, JSONL append and :func:`read_jsonl`), the spec records'
  JSON codec, and :class:`JsonlTail`, the incremental follower every
  poll loop uses.
"""

from .chrome import chrome_trace, export_chrome_trace, phase_summary
from .fleet import prometheus_text, render_top, snapshot_fleet
from .jsonl import JsonlTail, read_jsonl
from .metrics import (
    DEFAULT_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsServer,
)
from .tracer import (
    TELEMETRY_FILENAME,
    TRACE_ENV_VAR,
    TRACE_FILE_ENV_VAR,
    Span,
    Tracer,
    current,
    env_trace_enabled,
    incr,
    install,
    span,
    tracing,
    uninstall,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonlTail",
    "MetricsRegistry",
    "MetricsServer",
    "PROMETHEUS_CONTENT_TYPE",
    "Span",
    "TELEMETRY_FILENAME",
    "TRACE_ENV_VAR",
    "TRACE_FILE_ENV_VAR",
    "Tracer",
    "chrome_trace",
    "current",
    "env_trace_enabled",
    "export_chrome_trace",
    "incr",
    "install",
    "phase_summary",
    "prometheus_text",
    "read_jsonl",
    "render_top",
    "snapshot_fleet",
    "span",
    "tracing",
    "uninstall",
]
