"""The JSON job API — stdlib ``http.server``, zero dependencies.

The server is store-mediated and scheduler-agnostic: every request
reads or writes the on-disk :class:`repro.serve.JobStore`, so it can run
in the same process as the scheduler (``repro serve``), in a different
process, or with no scheduler at all (submissions just queue up).

Routes
------

====== ============================ ========================================
Method Path                         Meaning
====== ============================ ========================================
GET    ``/healthz``                 liveness + job counts by state
GET    ``/jobs``                    every job (records + derived progress)
POST   ``/jobs``                    submit ``{"spec": {...}, "priority": 0,
                                    "checkpoint_every": 5, "max_retries": 2}``
                                    -> ``201 {"id": "job-000001", ...}``
GET    ``/jobs/<id>``               one job's record + progress
POST   ``/jobs/<id>/cancel``        cancel (immediate if waiting, at the
                                    next checkpoint boundary if running)
GET    ``/jobs/<id>/metrics``       the run's ``metrics.jsonl`` as ndjson;
                                    ``?since=G`` streams rows with
                                    ``generation >= G`` (poll-to-follow)
GET    ``/jobs/<id>/events``        the job's event log as ndjson
GET    ``/jobs/<id>/champion``      current champion genome JSON
GET    ``/metrics``                 fleet state in Prometheus text
                                    exposition format (plus the
                                    scheduler's counters/histograms when
                                    the server was given its registry)
====== ============================ ========================================

Errors come back as ``{"error": "..."}`` with 400 (bad request,
including malformed query parameters such as ``?since=abc``),
404 (unknown job/route) or 405 (wrong method) — see the error-semantics
table in ``docs/serve.md``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from ..obs.metrics import serve_in_thread, stop_server
from .jobs import JOB_STATES, JobStore, JobStoreError, UnknownJobError

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

_NDJSON = "application/x-ndjson"
_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"


class _ApiError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _query_int(params: Dict[str, Any], name: str, default: int) -> int:
    """An integer request parameter, or 400 with the structured error body.

    Every int-typed parameter (query string or JSON body) must come
    through here: a bare ``int()`` on client-controlled input raises
    ValueError out of the handler, and the server 500s with a traceback
    instead of the documented ``{"error": ...}`` shape.
    """
    raw = params.get(name, default)
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise _ApiError(
            400, f"parameter {name!r} must be an integer, got {raw!r}"
        ) from None


class _JobApiHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def store(self) -> JobStore:
        return self.server.store  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:  # quiet by default
        pass

    # -- plumbing ---------------------------------------------------------

    def _send(
        self, status: int, body: bytes, content_type: str = _JSON
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any) -> None:
        self._send(
            status,
            (json.dumps(payload, sort_keys=True) + "\n").encode(),
        )

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _ApiError(400, "request body required")
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _ApiError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise _ApiError(400, "request body must be a JSON object")
        return payload

    def _route(self) -> Tuple[str, Optional[str], Optional[str], Dict[str, Any]]:
        parts = urlsplit(self.path)
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        segments = [s for s in parts.path.split("/") if s]
        if not segments:
            raise _ApiError(404, "no such route: /")
        head = segments[0]
        job_id = segments[1] if len(segments) > 1 else None
        action = segments[2] if len(segments) > 2 else None
        if len(segments) > 3:
            raise _ApiError(404, f"no such route: {parts.path}")
        return head, job_id, action, query

    # -- GET --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        try:
            head, job_id, action, query = self._route()
            if head == "healthz" and job_id is None:
                self._get_healthz()
            elif head == "jobs" and job_id is None:
                self._send_json(
                    200,
                    {"jobs": [
                        self.store.describe(jid)
                        for jid in self.store.job_ids()
                    ]},
                )
            elif head == "jobs" and action is None:
                self._send_json(200, self.store.describe(job_id))
            elif head == "jobs" and action == "metrics":
                self._get_metrics(job_id, query)
            elif head == "jobs" and action == "events":
                self._get_events(job_id)
            elif head == "jobs" and action == "champion":
                self._get_champion(job_id)
            elif head == "metrics" and job_id is None:
                self._get_prometheus()
            else:
                raise _ApiError(404, f"no such route: {self.path}")
        except _ApiError as exc:
            self._send_json(exc.status, {"error": exc.message})
        except UnknownJobError as exc:
            self._send_json(404, {"error": str(exc.args[0])})
        except JobStoreError as exc:
            self._send_json(400, {"error": str(exc)})

    def _get_prometheus(self) -> None:
        from ..obs import prometheus_text

        registry = getattr(self.server, "registry", None)
        self._send(
            200, prometheus_text(self.store, registry).encode(), _PROM
        )

    def _get_healthz(self) -> None:
        # "other" absorbs states this server version does not know (a
        # job.json written by a newer repro) — health must never 500
        # over an unrecognised label.
        counts = {state: 0 for state in JOB_STATES}
        counts["other"] = 0
        for record in self.store.list_jobs():
            if record.state in counts:
                counts[record.state] += 1
            else:
                counts["other"] += 1
        self._send_json(200, {"ok": True, "jobs": counts})

    def _get_metrics(self, job_id: str, query: Dict[str, Any]) -> None:
        self.store.load(job_id)  # 404 on unknown id
        since = _query_int(query, "since", 0)
        rd = self.store.run_dir(job_id)
        rows = rd.read_metrics() if rd.has_artifacts() else []
        body = "".join(
            json.dumps(row, sort_keys=True) + "\n"
            for row in rows
            if int(row.get("generation", 0)) >= since
        ).encode()
        self._send(200, body, _NDJSON)

    def _get_events(self, job_id: str) -> None:
        self.store.load(job_id)
        body = "".join(
            json.dumps(row, sort_keys=True) + "\n"
            for row in self.store.read_events(job_id)
        ).encode()
        self._send(200, body, _NDJSON)

    def _get_champion(self, job_id: str) -> None:
        self.store.load(job_id)
        path = self.store.run_dir(job_id).champion_path
        if not path.exists():
            raise _ApiError(404, f"{job_id} has no champion yet")
        self._send(200, path.read_bytes())

    # -- POST -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802
        try:
            head, job_id, action, _query = self._route()
            if head == "jobs" and job_id is None:
                self._post_submit()
            elif head == "jobs" and action == "cancel":
                self.store.request_cancel(job_id)
                self._send_json(200, self.store.describe(job_id))
            else:
                raise _ApiError(404, f"no such route: {self.path}")
        except _ApiError as exc:
            self._send_json(exc.status, {"error": exc.message})
        except UnknownJobError as exc:
            self._send_json(404, {"error": str(exc.args[0])})
        except JobStoreError as exc:
            self._send_json(400, {"error": str(exc)})

    def _post_submit(self) -> None:
        payload = self._read_body()
        spec = payload.get("spec")
        if not isinstance(spec, dict):
            raise _ApiError(400, 'body must carry a "spec" object')
        record = self.store.submit(
            spec,
            priority=_query_int(payload, "priority", 0),
            checkpoint_every=payload.get("checkpoint_every"),
            max_retries=_query_int(payload, "max_retries", 2),
        )
        self._send_json(201, self.store.describe(record.id))

    # -- anything else -----------------------------------------------------

    def _method_not_allowed(self) -> None:
        # Without these, http.server answers unknown methods with a 501
        # HTML page — breaking the every-error-is-JSON contract above.
        self._send_json(405, {"error": f"method {self.command} not allowed"})

    do_PUT = _method_not_allowed
    do_DELETE = _method_not_allowed
    do_PATCH = _method_not_allowed


class JobApiServer:
    """A threaded HTTP server over one job store.

    Use as a context manager or call :meth:`start` / :meth:`shutdown`;
    requests are served on a daemon thread so the scheduler loop can
    keep running in the foreground.
    """

    def __init__(
        self,
        store: Union[JobStore, str],
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        registry: Optional[Any] = None,
    ) -> None:
        self.store = store if isinstance(store, JobStore) else JobStore(store)
        #: A :class:`repro.obs.MetricsRegistry` rendered into
        #: ``GET /metrics`` after the store-derived gauges — pass the
        #: scheduler's so scrapes see its counters and histograms.
        self.registry = registry
        self.httpd = ThreadingHTTPServer((host, port), _JobApiHandler)
        self.httpd.store = self.store  # type: ignore[attr-defined]
        self.httpd.registry = registry  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port resolved when 0 was requested."""
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "JobApiServer":
        self._thread = serve_in_thread(self.httpd, "repro-serve-http")
        return self

    def shutdown(self) -> None:
        stop_server(self.httpd, self._thread)
        self._thread = None

    def __enter__(self) -> "JobApiServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
