"""The JSON-over-HTTP front-end of ``cohort serve``.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
third-party framework, one request per connection, JSON in and out:

* ``GET /healthz`` — liveness + drain state,
* ``GET /metrics`` — a :data:`repro.obs.SERVE_METRICS_SCHEMA` snapshot
  (service queue/batch counters + ``SweepRunner.telemetry()``);
  ``?format=prometheus`` (or an ``Accept: text/plain`` scrape header)
  selects the Prometheus text exposition of the same counters instead,
* ``POST /jobs`` — submit ``{"jobs": [spec, …]}`` (or one bare spec);
  ``202`` with job ids, ``429`` + ``Retry-After`` on a full queue,
  ``503`` while draining, ``400`` on an invalid spec.  Every
  submission carries a trace id — a valid client ``X-Trace-Id`` is
  honoured, anything else gets a freshly minted one — echoed in the
  response header/body and stamped through the oplog, the runner and
  the job's result envelope.  An optional ``"trace_ids"`` list beside
  ``"jobs"`` gives each job its own trace id (the fleet router's
  chunks mix submissions); a missing or invalid entry falls back to
  the request's,
* ``GET /jobs/<id>`` — poll one job (result embedded when done),
* ``POST /jobs/poll`` — poll many jobs in one round-trip
  (``{"ids": [...], "include_result": bool}``).

``SIGTERM``/``SIGINT`` trigger a graceful drain: submissions are
refused, queued and in-flight batches finish, final metrics/trace
snapshots are optionally written (atomically), then the server exits 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import tempfile
import threading
import urllib.parse
from typing import Any, Dict, Optional, Tuple

from repro.obs.ops import new_trace_id, valid_trace_id
from repro.obs.promexport import prometheus_from_serve_metrics
from repro.runner import SweepRunner
from repro.serve.service import (
    BatchingService,
    DrainingError,
    JobSpec,
    JobSpecError,
    QueueFullError,
)

#: Content-Type of the Prometheus text exposition (version 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest accepted request body (a trace-free job spec is tiny).
MAX_BODY_BYTES = 8 << 20

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class JsonHttpApp:
    """Minimal HTTP/1.1-over-asyncio plumbing shared by the serving apps.

    Subclasses implement :meth:`_route`; everything about reading one
    request, bounding its body, and writing the JSON (or pre-rendered
    text) response lives here.  :class:`ServeApp` routes onto one
    :class:`BatchingService`; ``repro.serve.fleet.FleetApp`` routes onto
    a shard supervisor.
    """

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one HTTP request on this connection, then close it."""
        try:
            status, doc, extra = await self._handle_request(reader)
        except Exception:
            status, doc, extra = 500, {"error": "internal server error"}, {}
        if isinstance(doc, str):
            # A pre-rendered text payload (the Prometheus exposition);
            # the route names its own Content-Type via ``extra``.
            payload = doc.encode()
            content_type = extra.pop("Content-Type", "text/plain")
        else:
            payload = json.dumps(doc).encode()
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n"
        )
        for key, value in extra.items():
            head += f"{key}: {value}\r\n"
        try:
            writer.write(head.encode("latin-1") + b"\r\n" + payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Any, Dict[str, str]]:
        try:
            request_line = await asyncio.wait_for(reader.readline(), 30)
        except asyncio.TimeoutError:
            return 400, {"error": "request timeout"}, {}
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}, {}
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1", "replace").partition(":")
            headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return 400, {"error": "bad content-length"}, {}
        if length > MAX_BODY_BYTES:
            return 413, {"error": "request body too large"}, {}
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(reader.readexactly(length), 30)
            except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                return 400, {"error": "truncated request body"}, {}
        result = self._route(method, target, body, headers)
        if asyncio.iscoroutine(result):
            # A route that needs the event loop (e.g. the fleet's
            # submission path, which journals through an executor)
            # returns a coroutine instead of a response tuple.
            result = await result
        return result

    def _route(
        self, method: str, target: str, body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Any:
        """Dispatch one request: ``(status, doc-or-text, extra headers)``,
        or a coroutine resolving to that tuple for async routes."""
        raise NotImplementedError

    @staticmethod
    def _wants_prometheus(query: str, headers: Dict[str, str]) -> bool:
        """Content negotiation for ``/metrics``.

        An explicit ``?format=`` wins; otherwise an ``Accept`` header
        that names ``text/plain`` without also naming JSON (the
        Prometheus scraper's shape) selects the exposition format.
        JSON stays the default for everything else.
        """
        params = urllib.parse.parse_qs(query)
        formats = params.get("format")
        if formats:
            return formats[-1].lower() in ("prometheus", "text")
        accept = headers.get("accept", "")
        return "text/plain" in accept and "application/json" not in accept


def poll_jobs_route(
    get, body: bytes
) -> Tuple[int, Any, Dict[str, str]]:
    """Shared ``POST /jobs/poll`` handler: batched status polling.

    Body: ``{"ids": [...], "include_result": bool}`` (``include_result``
    defaults to true).  Answers ``{"jobs": {id: record}, "unknown":
    [...]}`` — one round-trip for a whole in-flight window instead of
    one ``GET /jobs/<id>`` per job, which is what keeps high-fan-out
    pollers (``ServeClient.wait``, the load generator) from drowning the
    server in per-job requests.  ``get`` is the id → record lookup of
    the owning service (:class:`BatchingService` or the fleet
    supervisor).
    """
    try:
        doc = json.loads(body or b"null")
    except ValueError:
        return 400, {"error": "request body is not valid JSON"}, {}
    if not isinstance(doc, dict) or not isinstance(doc.get("ids"), list):
        return 400, {"error": '"ids" must be a list of job ids'}, {}
    ids = doc["ids"]
    if not all(isinstance(job_id, str) for job_id in ids):
        return 400, {"error": "job ids must be strings"}, {}
    include_result = doc.get("include_result", True)
    if not isinstance(include_result, bool):
        return 400, {"error": '"include_result" must be a boolean'}, {}
    jobs: Dict[str, Any] = {}
    unknown = []
    for job_id in ids:
        record = get(job_id)
        if record is None:
            unknown.append(job_id)
        else:
            jobs[job_id] = record.to_dict(include_result=include_result)
    return 200, {"jobs": jobs, "unknown": unknown}, {}


class ServeApp(JsonHttpApp):
    """Routes HTTP requests onto one :class:`BatchingService`."""

    def __init__(self, service: BatchingService) -> None:
        self.service = service

    def _route(
        self, method: str, target: str, body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any, Dict[str, str]]:
        headers = headers or {}
        path, _, query = target.partition("?")
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return (
                200,
                {
                    "status": "draining" if self.service.draining else "ok",
                    "queue_depth": self.service.queue_depth,
                    "queue_limit": self.service.queue_limit,
                },
                {},
            )
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            if self._wants_prometheus(query, headers):
                return (
                    200,
                    prometheus_from_serve_metrics(self.service.metrics()),
                    {"Content-Type": PROMETHEUS_CONTENT_TYPE},
                )
            return 200, self.service.metrics(), {}
        if path == "/jobs":
            if method != "POST":
                return 405, {"error": "method not allowed"}, {}
            supplied = headers.get("x-trace-id")
            trace_id = supplied if valid_trace_id(supplied) else new_trace_id()
            return self._submit(body, trace_id)
        if path == "/jobs/poll":
            if method != "POST":
                return 405, {"error": "method not allowed"}, {}
            return poll_jobs_route(self.service.get, body)
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            record = self.service.get(path[len("/jobs/"):])
            if record is None:
                return 404, {"error": "unknown job id"}, {}
            return 200, record.to_dict(include_result=True), {}
        return 404, {"error": f"no route for {path}"}, {}

    def _submit(
        self, body: bytes, trace_id: str
    ) -> Tuple[int, Any, Dict[str, str]]:
        trace_headers = {"X-Trace-Id": trace_id}
        try:
            doc = json.loads(body or b"null")
        except ValueError:
            return (
                400,
                {"error": "request body is not valid JSON",
                 "trace_id": trace_id},
                trace_headers,
            )
        if isinstance(doc, dict) and "jobs" in doc:
            raw_specs = doc.get("jobs")
            raw_traces = doc.get("trace_ids") or []
        else:
            raw_specs = [doc]
            raw_traces = []
        if not isinstance(raw_specs, list):
            return (
                400,
                {"error": '"jobs" must be a list of job specs',
                 "trace_id": trace_id},
                trace_headers,
            )
        if not isinstance(raw_traces, list):
            return (
                400,
                {"error": '"trace_ids" must be a list of trace ids',
                 "trace_id": trace_id},
                trace_headers,
            )
        trace_ids = [
            raw_traces[i]
            if i < len(raw_traces) and valid_trace_id(raw_traces[i])
            else trace_id
            for i in range(len(raw_specs))
        ]
        try:
            specs = [JobSpec.from_dict(raw) for raw in raw_specs]
            records = self.service.submit(
                specs, trace_id=trace_id, trace_ids=trace_ids
            )
        except JobSpecError as exc:
            return (
                400,
                {"error": str(exc), "trace_id": trace_id},
                trace_headers,
            )
        except QueueFullError as exc:
            return (
                429,
                {"error": str(exc), "retry_after": exc.retry_after,
                 "trace_id": trace_id},
                {"Retry-After": f"{exc.retry_after}", **trace_headers},
            )
        except DrainingError as exc:
            return (
                503,
                {"error": str(exc), "retry_after": self.service.retry_after,
                 "trace_id": trace_id},
                {"Retry-After": f"{self.service.retry_after}",
                 **trace_headers},
            )
        return (
            202,
            {
                "trace_id": trace_id,
                "jobs": [r.to_dict(include_result=False) for r in records],
            },
            trace_headers,
        )


def _write_json_atomic(path: str, doc: Any) -> None:
    """Write a JSON document via tmp-file + rename (no torn snapshot).

    Same convention as ``SweepRunner._cache_store``: a SIGTERM landing
    mid-write leaves either the old file or the new one, never a
    truncated hybrid.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory or ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=2)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


async def run_server(
    service: BatchingService,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    metrics_out: Optional[str] = None,
    trace_out: Optional[str] = None,
    manifest_out: Optional[str] = None,
    install_signal_handlers: bool = True,
    ready: Optional[threading.Event] = None,
    stop: Optional[asyncio.Event] = None,
) -> int:
    """Serve until SIGTERM/SIGINT (or ``stop``), then drain gracefully.

    Returns the port actually bound (useful with ``port=0``).
    ``trace_out`` exports the service-lifecycle spans of every retired
    request as a Perfetto-loadable Chrome trace on exit.
    """
    app = ServeApp(service)
    await service.start()
    server = await asyncio.start_server(app.handle_connection, host, port)
    bound_port = server.sockets[0].getsockname()[1]
    stop_event = stop if stop is not None else asyncio.Event()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop_event.set)
    print(f"cohort serve: listening on http://{host}:{bound_port}", flush=True)
    service.oplog.emit("server_listening", host=host, port=bound_port)
    await stop_event.wait()
    print("cohort serve: draining", flush=True)
    # Keep the listener open while draining so clients can poll job
    # status; submissions are refused with 503 once draining starts.
    await service.drain()
    if metrics_out:
        _write_json_atomic(metrics_out, service.metrics())
        print(f"cohort serve: metrics snapshot -> {metrics_out}", flush=True)
    if trace_out:
        _write_json_atomic(trace_out, service.service_trace())
        print(f"cohort serve: service trace -> {trace_out}", flush=True)
    if manifest_out:
        from repro.qa import build_manifest, write_manifest

        snapshot = service.metrics()
        svc = snapshot["service"]
        runner = snapshot["runner"]
        artifacts = [
            path
            for path in (metrics_out, trace_out, service.oplog.path)
            if path
        ]
        manifest = build_manifest(
            "serve", snapshot.get("label") or "serve",
            metrics={
                "jobs_submitted": svc["jobs_submitted"],
                "jobs_rejected": svc["jobs_rejected"],
                "jobs_completed": svc["jobs_completed"],
                "jobs_failed": svc["jobs_failed"],
                "batches": svc["batches"],
                "max_queue_depth": svc["max_queue_depth"],
                "runner_cache_hits": runner["cache_hits"],
                "runner_cache_misses": runner["cache_misses"],
                "runner_cache_hit_rate": runner["cache_hit_rate"],
                "runner_jobs_executed": runner["jobs_executed"],
                "runner_engine": runner["engine"],
                "oplog_events": service.oplog.events_emitted,
            },
            engine=runner["engine"],
            artifact_paths=artifacts,
        )
        fingerprint = write_manifest(manifest, manifest_out)
        print(
            f"cohort serve: run manifest -> {manifest_out} "
            f"(fingerprint {fingerprint[:12]})",
            flush=True,
        )
    server.close()
    await server.wait_closed()
    service.oplog.emit("server_exit")
    service.oplog.close()
    print("cohort serve: drained, exiting", flush=True)
    return bound_port


class ServerThread:
    """An in-process ``cohort serve`` for tests and benchmarks.

    Runs the event loop in a daemon thread on an ephemeral port; the
    caller talks to it over real HTTP with
    :class:`repro.serve.client.ServeClient`.
    """

    def __init__(
        self,
        *,
        runner: Optional[SweepRunner] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs: Any,
    ) -> None:
        self.runner = runner if runner is not None else SweepRunner(jobs=1)
        self.service_kwargs = service_kwargs
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.service: Optional[BatchingService] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    @property
    def base_url(self) -> str:
        if self.port is None:
            raise RuntimeError("server not started")
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServerThread":
        """Start the server thread and block until it is accepting."""
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve thread did not start in time")
        if self._error is not None:
            raise RuntimeError(f"serve thread failed: {self._error!r}")
        return self

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surfaced via start()/stop()
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self.service = BatchingService(self.runner, **self.service_kwargs)
        app = ServeApp(self.service)
        await self.service.start()
        server = await asyncio.start_server(
            app.handle_connection, self.host, self._requested_port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await self.service.drain()
        server.close()
        await server.wait_closed()

    def stop(self, timeout: float = 60.0) -> None:
        """Trigger a graceful drain and wait for the thread to exit."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise RuntimeError("serve thread did not drain in time")
        if self._error is not None:
            raise RuntimeError(f"serve thread failed: {self._error!r}")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
