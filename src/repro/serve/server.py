"""The JSON-over-HTTP front-end and lifecycle of ``cohort serve`` and ``cohort fleet``.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
third-party framework, one request per connection, JSON in and out.
:class:`JsonHttpApp` owns the routes; :class:`ServeApp` plugs a
:class:`BatchingService` into them and ``repro.serve.fleet.FleetApp``
the shard supervisor:

* ``GET /healthz`` — liveness + drain state,
* ``GET /metrics`` — the backend's metrics snapshot (for serve a
  :data:`repro.obs.SERVE_METRICS_SCHEMA` document);
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

:func:`serve_app` is the one lifecycle: ``SIGTERM``/``SIGINT`` trigger
a graceful drain — submissions are refused, queued and in-flight jobs
finish, final snapshots are optionally written (atomically), then the
process exits 0.  :class:`AppThread` runs it in a daemon thread.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import os
import signal
import tempfile
import threading
import urllib.parse
from typing import Any, Callable, Dict, Optional, Tuple

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

Response = Tuple[int, Any, Dict[str, str]]


class JsonHttpApp:
    """HTTP/1.1-over-asyncio routes onto one job backend.

    The backend (:class:`BatchingService` or the fleet's
    ``ShardSupervisor``) provides ``start``/``drain``, ``draining``,
    ``retry_after``, ``oplog``, ``get(job_id)`` and
    ``submit(specs, trace_id=, trace_ids=)``, which may be a coroutine.
    Subclasses supply what differs per backend: ``health()`` (the
    ``/healthz`` body), ``async snapshot()`` (the ``/metrics``
    document), ``exposition(snapshot)`` (its Prometheus text) and
    ``announce(host, port)`` (the listening banner and oplog event),
    plus the ``name`` and ``exit_event`` of the lifecycle.  Any route
    may be async.
    """

    def __init__(self, backend: Any) -> None:
        self.backend = backend
        #: The bound port, once :func:`serve_app` is listening.
        self.port: Optional[int] = None

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

    async def _handle_request(self, reader: asyncio.StreamReader) -> Response:
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
        if inspect.isawaitable(result):
            result = await result
        return result

    async def _route(
        self, method: str, target: str, body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """Dispatch one request: ``(status, doc-or-text, extra headers)``."""
        headers = headers or {}
        path, _, query = target.partition("?")
        if path in ("/jobs", "/jobs/poll"):
            allowed = "POST"
        elif path in ("/healthz", "/metrics") or path.startswith("/jobs/"):
            allowed = "GET"
        else:
            return 404, {"error": f"no route for {path}"}, {}
        if method != allowed:
            return 405, {"error": "method not allowed"}, {}
        if path == "/healthz":
            return 200, self.health(), {}
        if path == "/metrics":
            snapshot = await self.snapshot()
            if self._wants_prometheus(query, headers):
                return (
                    200,
                    self.exposition(snapshot),
                    {"Content-Type": PROMETHEUS_CONTENT_TYPE},
                )
            return 200, snapshot, {}
        if path == "/jobs":
            supplied = headers.get("x-trace-id")
            trace_id = supplied if valid_trace_id(supplied) else new_trace_id()
            return await self._submit(body, trace_id)
        if path == "/jobs/poll":
            return self._poll(body)
        record = self.backend.get(path[len("/jobs/"):])
        if record is None:
            return 404, {"error": "unknown job id"}, {}
        return 200, record.to_dict(include_result=True), {}

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

    async def _submit(self, body: bytes, trace_id: str) -> Response:
        """``POST /jobs``: parse, admit, and map the outcome to a status."""
        trace_headers = {"X-Trace-Id": trace_id}

        def refuse(
            status: int, error: str, retry_after: Optional[float] = None
        ) -> Response:
            doc: Dict[str, Any] = {"error": error}
            extra = trace_headers
            if retry_after is not None:
                doc["retry_after"] = retry_after
                extra = {"Retry-After": f"{retry_after}", **trace_headers}
            doc["trace_id"] = trace_id
            return status, doc, extra

        try:
            doc = json.loads(body or b"null")
        except ValueError:
            return refuse(400, "request body is not valid JSON")
        if isinstance(doc, dict) and "jobs" in doc:
            raw_specs = doc.get("jobs")
            raw_traces = doc.get("trace_ids") or []
        else:
            raw_specs = [doc]
            raw_traces = []
        if not isinstance(raw_specs, list):
            return refuse(400, '"jobs" must be a list of job specs')
        if not isinstance(raw_traces, list):
            return refuse(400, '"trace_ids" must be a list of trace ids')
        trace_ids = [
            raw_traces[i]
            if i < len(raw_traces) and valid_trace_id(raw_traces[i])
            else trace_id
            for i in range(len(raw_specs))
        ]
        try:
            specs = [JobSpec.from_dict(raw) for raw in raw_specs]
            records = self.backend.submit(
                specs, trace_id=trace_id, trace_ids=trace_ids
            )
            if inspect.isawaitable(records):
                records = await records
        except JobSpecError as exc:
            return refuse(400, str(exc))
        except QueueFullError as exc:
            return refuse(429, str(exc), exc.retry_after)
        except DrainingError as exc:
            return refuse(503, str(exc), self.backend.retry_after)
        return (
            202,
            {
                "trace_id": trace_id,
                "jobs": [r.to_dict(include_result=False) for r in records],
            },
            trace_headers,
        )

    def _poll(self, body: bytes) -> Response:
        """``POST /jobs/poll``: batched status polling.

        Body: ``{"ids": [...], "include_result": bool}``
        (``include_result`` defaults to true).  Answers ``{"jobs": {id:
        record}, "unknown": [...]}``: one round-trip for a whole
        in-flight window, so high-fan-out pollers (``ServeClient.wait``,
        the load generator, the fleet's collectors) do not drown the
        server in per-job requests.
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
            record = self.backend.get(job_id)
            if record is None:
                unknown.append(job_id)
            else:
                jobs[job_id] = record.to_dict(include_result=include_result)
        return 200, {"jobs": jobs, "unknown": unknown}, {}


class ServeApp(JsonHttpApp):
    """Routes HTTP requests onto one :class:`BatchingService`."""

    #: ``cohort <name>:`` prefixes the lifecycle's stdout lines.
    name = "serve"
    #: Oplog event emitted once the listener has closed.
    exit_event = "server_exit"
    exposition = staticmethod(prometheus_from_serve_metrics)

    def health(self) -> Dict[str, Any]:
        """Drain state and queue occupancy."""
        service = self.backend
        return {
            "status": "draining" if service.draining else "ok",
            "queue_depth": service.queue_depth,
            "queue_limit": service.queue_limit,
        }

    async def snapshot(self) -> Dict[str, Any]:
        """The service's serve_metrics document."""
        return self.backend.metrics()

    def announce(self, host: str, port: int) -> None:
        """``cohort serve: listening on …`` and ``server_listening``."""
        print(f"cohort serve: listening on http://{host}:{port}", flush=True)
        self.backend.oplog.emit("server_listening", host=host, port=port)


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


async def serve_app(
    app: JsonHttpApp,
    host: str,
    port: int,
    *,
    metrics_out: Optional[str] = None,
    after_drain: Optional[Callable[[], None]] = None,
    install_signal_handlers: bool = True,
    ready: Optional[threading.Event] = None,
    stop: Optional[asyncio.Event] = None,
) -> int:
    """Start ``app``'s backend, listen, and drain on a stop signal.

    Serves until SIGTERM/SIGINT (with ``install_signal_handlers``) or
    ``stop`` is set.  The listener stays open while draining, so
    clients can still poll while submissions get 503.  After the drain
    the final ``/metrics`` snapshot goes to ``metrics_out`` (atomic)
    and ``after_drain`` writes any other artefacts.  Sets ``ready`` once
    listening (``app.port`` holds the bound port) and returns that port.
    """
    backend = app.backend
    prefix = f"cohort {app.name}:"
    await backend.start()
    server = await asyncio.start_server(app.handle_connection, host, port)
    app.port = server.sockets[0].getsockname()[1]
    stop_event = stop if stop is not None else asyncio.Event()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop_event.set)
    app.announce(host, app.port)
    if ready is not None:
        ready.set()
    await stop_event.wait()
    print(f"{prefix} draining", flush=True)
    await backend.drain()
    if metrics_out:
        _write_json_atomic(metrics_out, await app.snapshot())
        print(f"{prefix} metrics snapshot -> {metrics_out}", flush=True)
    if after_drain is not None:
        after_drain()
    server.close()
    await server.wait_closed()
    backend.oplog.emit(app.exit_event)
    backend.oplog.close()
    print(f"{prefix} drained, exiting", flush=True)
    return app.port


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
    request as a Perfetto-loadable Chrome trace on exit;
    ``manifest_out`` wraps the final counters in a run manifest.
    """

    def write_artefacts() -> None:
        if trace_out:
            _write_json_atomic(trace_out, service.service_trace())
            print(f"cohort serve: service trace -> {trace_out}", flush=True)
        if not manifest_out:
            return
        from repro.qa import build_manifest, write_manifest

        snapshot = service.metrics()
        svc = snapshot["service"]
        runner = snapshot["runner"]
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
            artifact_paths=[
                path
                for path in (metrics_out, trace_out, service.oplog.path)
                if path
            ],
        )
        fingerprint = write_manifest(manifest, manifest_out)
        print(
            f"cohort serve: run manifest -> {manifest_out} "
            f"(fingerprint {fingerprint[:12]})",
            flush=True,
        )

    return await serve_app(
        ServeApp(service), host, port, metrics_out=metrics_out,
        after_drain=write_artefacts,
        install_signal_handlers=install_signal_handlers, ready=ready,
        stop=stop,
    )


class AppThread:
    """Runs :func:`serve_app` on an event loop in a daemon thread.

    The backend is built on the loop thread by :meth:`_make_app`; the
    caller talks to it over real HTTP.  ``timeout`` bounds both the
    wait for the listener and the drain on :meth:`stop`.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host = host
        self._requested_port = port
        self._timeout = timeout
        self._app: Optional[JsonHttpApp] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    #: Names the thread in start/stop errors.
    _kind = "app thread"

    def _make_app(self) -> JsonHttpApp:
        raise NotImplementedError

    @property
    def port(self) -> Optional[int]:
        return self._app.port if self._app is not None else None

    @property
    def base_url(self) -> str:
        if self.port is None:
            raise RuntimeError(f"{self._kind} not started")
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AppThread":
        """Start the thread and block until it is accepting."""
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=self._timeout):
            raise RuntimeError(f"{self._kind} did not start in time")
        if self._error is not None:
            raise RuntimeError(f"{self._kind} failed: {self._error!r}")
        return self

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surfaced via start()/stop()
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._app = self._make_app()
        await serve_app(
            self._app, self.host, self._requested_port,
            install_signal_handlers=False, ready=self._ready,
            stop=self._stop,
        )

    def stop(self, timeout: Optional[float] = None) -> None:
        """Trigger a graceful drain and wait for the thread to exit."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(
                timeout=self._timeout if timeout is None else timeout
            )
            if self._thread.is_alive():
                raise RuntimeError(f"{self._kind} did not drain in time")
        if self._error is not None:
            raise RuntimeError(f"{self._kind} failed: {self._error!r}")

    def __enter__(self) -> "AppThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


class ServerThread(AppThread):
    """An in-process ``cohort serve`` for tests and benchmarks.

    Talk to it over real HTTP with
    :class:`repro.serve.client.ServeClient`; ``.service`` is the
    :class:`BatchingService` once started.
    """

    _kind = "serve thread"

    def __init__(
        self,
        *,
        runner: Optional[SweepRunner] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs: Any,
    ) -> None:
        super().__init__(host, port, timeout=60.0)
        self.runner = runner if runner is not None else SweepRunner(jobs=1)
        self.service_kwargs = service_kwargs
        self.service: Optional[BatchingService] = None

    def _make_app(self) -> JsonHttpApp:
        self.service = BatchingService(self.runner, **self.service_kwargs)
        return ServeApp(self.service)
