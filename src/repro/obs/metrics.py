"""A minimal Prometheus metrics registry — text exposition, no client dep.

Implements just enough of the `text exposition format 0.0.4
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ for the
serve subsystem's ``GET /metrics``: counters, gauges and cumulative
histograms, each with optional labels, rendered as::

    # HELP repro_preemptions_total Preemptions settled ...
    # TYPE repro_preemptions_total counter
    repro_preemptions_total 3
    repro_jobs{state="queued"} 2
    repro_generation_seconds_bucket{le="0.5"} 12
    repro_generation_seconds_sum 4.2
    repro_generation_seconds_count 13

Thread-safe: one lock per registry guards metric creation and sample
updates, so the scheduler loop can bump counters while HTTP scrape
threads render — the concurrency the ThreadingHTTPServer test exercises.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Default histogram buckets (seconds) — sized for generation latencies
#: that range from milliseconds (tiny CI populations) to minutes.
DEFAULT_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Backslash-escape a label value per the exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(key: _LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.Lock):
        self.name = name
        self.help = help_text
        self._lock = lock
        self._samples: Dict[_LabelKey, Any] = {}

    def _header(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Metric):
    """A monotonically increasing count (optionally per label set)."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._samples.get(_label_key(labels), 0.0)

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            samples = dict(self._samples) or {(): 0.0}
        for key in sorted(samples):
            lines.append(
                f"{self.name}{_render_labels(key)} "
                f"{_format_value(samples[key])}"
            )
        return lines


class Gauge(_Metric):
    """A value that can go anywhere (queue depth, heartbeat age)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._samples[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> Optional[float]:
        with self._lock:
            return self._samples.get(_label_key(labels))

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            samples = dict(self._samples)
        for key in sorted(samples):
            lines.append(
                f"{self.name}{_render_labels(key)} "
                f"{_format_value(samples[key])}"
            )
        return lines


class Histogram(_Metric):
    """Cumulative-bucket histogram (``le`` buckets + ``_sum``/``_count``)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, lock)
        self.buckets = tuple(sorted(buckets))

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = {
                    "counts": [0] * len(self.buckets),
                    "sum": 0.0,
                    "count": 0,
                }
                self._samples[key] = state
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    state["counts"][index] += 1
            state["sum"] += value
            state["count"] += 1

    def count(self, **labels: Any) -> int:
        with self._lock:
            state = self._samples.get(_label_key(labels))
            return state["count"] if state else 0

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            samples = {
                key: {
                    "counts": list(state["counts"]),
                    "sum": state["sum"],
                    "count": state["count"],
                }
                for key, state in self._samples.items()
            }
        for key in sorted(samples):
            state = samples[key]
            for bound, cumulative in zip(self.buckets, state["counts"]):
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(key, [('le', _format_value(bound))])} "
                    f"{cumulative}"
                )
            lines.append(
                f"{self.name}_bucket"
                f"{_render_labels(key, [('le', '+Inf')])} {state['count']}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(key)} "
                f"{_format_value(state['sum'])}"
            )
            lines.append(
                f"{self.name}_count{_render_labels(key)} {state['count']}"
            )
        return lines


class MetricsRegistry:
    """Named metrics with one render surface.

    Re-registering a name returns the existing metric (so instrumenting
    code can declare metrics idempotently), but never with a different
    kind — that would be a bug, not a merge.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, cls, name: str, help_text: str, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help_text, threading.Lock(), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str) -> Counter:
        return self._register(Counter, name, help_text)

    def gauge(self, name: str, help_text: str) -> Gauge:
        return self._register(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help_text, buckets=buckets)

    def render(self) -> str:
        """The registry in text exposition format (trailing newline)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""


#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: How often a served thread checks for a shutdown request.
#: ``serve_forever``'s default of 0.5 s made every stop block that long.
SHUTDOWN_POLL_S = 0.05


def serve_in_thread(server: ThreadingHTTPServer, name: str) -> threading.Thread:
    """Serve ``server`` on a daemon thread (requests on daemon threads
    too) that :func:`stop_server` ends within :data:`SHUTDOWN_POLL_S`."""
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, args=(SHUTDOWN_POLL_S,), name=name,
        daemon=True,
    )
    thread.start()
    return thread


def stop_server(
    server: ThreadingHTTPServer, thread: Optional[threading.Thread]
) -> None:
    """Stop the ``thread`` :func:`serve_in_thread` started (if any) and
    free the server's port; safe to repeat."""
    if thread is not None:
        server.shutdown()
        thread.join()
    server.server_close()


class MetricsServer:
    """A standalone ``GET /metrics`` endpoint for one registry.

    The serve subsystem embeds its registry in the job API's HTTP
    server; processes without one — the distributed DSE workers — use
    this instead.  ``port=0`` (the default) binds an ephemeral port;
    read :attr:`port` after :meth:`start`.  Scrapes run on daemon
    threads, so a hung scraper never blocks the worker loop.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.host = host
        self._requested_port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("MetricsServer is not running")
        return self._server.server_address[1]

    def start(self) -> "MetricsServer":
        registry = self.registry

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                if self.path.split("?", 1)[0] != "/metrics":
                    self.send_error(404, "only /metrics lives here")
                    return
                body = registry.render().encode()
                self.send_response(200)
                self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *_args: Any) -> None:
                pass  # scrapes are not worker output

        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._thread = serve_in_thread(self._server, "metrics-server")
        return self

    def stop(self) -> None:
        if self._server is not None:
            stop_server(self._server, self._thread)
            self._server = self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()
