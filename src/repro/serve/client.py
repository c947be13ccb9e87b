"""Stdlib clients for ``cohort serve`` and ``cohort fleet``.

:class:`ServeClient` is synchronous, with no dependencies: submit jobs,
honour backpressure (``429`` + ``Retry-After``) with bounded jittered
backoff, propagate trace context (``X-Trace-Id``), poll until
completion, read health and metrics.  Used by ``cohort submit``, the
serve benchmarks and the CI smoke script — and small enough to copy
into an external driver.

:func:`http_json` is one JSON-over-HTTP request on an event loop, for
the fleet router's shard traffic and the load generator; every way a
peer can be unreachable surfaces as :class:`ShardUnreachableError`.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import socket
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.ops import OpLogger, new_trace_id
from repro.serve.service import JobSpec, ServeError

SpecLike = Union[JobSpec, Dict[str, Any]]

#: Hard ceiling on one backpressure backoff sleep, however large the
#: server's ``Retry-After`` hint or the exponential growth gets.
MAX_BACKOFF_SECONDS = 30.0

#: Exceptions that mean "the endpoint is briefly unreachable" — the
#: shape of a shard mid-restart (connection refused) or killed while
#: answering (reset / torn response).  ``http.client.RemoteDisconnected``
#: subclasses ``ConnectionResetError``; plain ``OSError`` covers
#: ``ECONNREFUSED`` raised from ``socket.create_connection``.
TRANSIENT_ERRORS = (ConnectionError, OSError, http.client.BadStatusLine)


class ServeClientError(ServeError):
    """An HTTP request to the service failed."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class BackpressureError(ServeClientError):
    """The service rejected the submission with a full admission queue."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message, status=429)
        self.retry_after = retry_after


def _spec_doc(spec: SpecLike) -> Dict[str, Any]:
    if isinstance(spec, JobSpec):
        return spec.to_dict()
    return dict(spec)


class ServeClient:
    """Talks to one ``cohort serve`` endpoint.

    ``oplog`` optionally records the client's side of every submission
    (``client_submit``/``client_backoff``/``client_accepted`` events,
    including the attempt count) into the same JSON-lines format the
    server writes, so a request can be correlated across both ends.

    ``connect_retries`` makes every request tolerate transient
    connection failures — refused, reset, or torn mid-response, the
    signature of a serve shard being restarted under it — by retrying
    up to that many extra times with the same bounded jittered backoff
    the 429 path uses.  The default (0) preserves fail-fast behaviour.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        oplog: Optional[OpLogger] = None,
        connect_retries: int = 0,
        connect_backoff: float = 0.2,
    ) -> None:
        parsed = urllib.parse.urlparse(base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError("only http:// endpoints are supported")
        if connect_retries < 0:
            raise ValueError("connect_retries must be >= 0")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 8765
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.oplog = oplog if oplog is not None else OpLogger(
            component="client"
        )

    def _request(
        self,
        method: str,
        path: str,
        doc: Optional[Any] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> tuple:
        """One HTTP round-trip, with transient-connection retries.

        Job submissions are idempotent at the service layer (results
        are keyed by content digest), so re-sending a POST whose
        connection died is safe; a refused connection never reached the
        server at all.  ``socket.timeout`` is deliberately *not*
        retried — a slow server is not a restarting one, and retrying
        would double the wait.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, doc, extra_headers)
            except socket.timeout:
                raise
            except TRANSIENT_ERRORS as exc:
                if attempt >= self.connect_retries:
                    raise ServeClientError(
                        f"{method} {path} failed after {attempt + 1} "
                        f"attempt(s): {type(exc).__name__}: {exc}"
                    ) from exc
                attempt += 1
                delay = self._backoff_delay(
                    self.connect_backoff, attempt, MAX_BACKOFF_SECONDS
                )
                self.oplog.emit(
                    "client_reconnect", method=method, path=path,
                    attempt=attempt, error=type(exc).__name__,
                    sleep_s=round(delay, 4),
                )
                time.sleep(delay)

    def _request_once(
        self,
        method: str,
        path: str,
        doc: Optional[Any] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> tuple:
        body = None
        headers: Dict[str, str] = dict(extra_headers or {})
        if doc is not None:
            body = json.dumps(doc)
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
        finally:
            conn.close()
        try:
            parsed = json.loads(payload) if payload else None
        except ValueError:
            parsed = None
        return response.status, dict(response.getheaders()), parsed

    # -- endpoints -----------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """Return the server's health document (``GET /healthz``)."""
        status, _, doc = self._request("GET", "/healthz")
        if status != 200 or not isinstance(doc, dict):
            raise ServeClientError(f"healthz returned {status}", status)
        return doc

    def metrics(self) -> Dict[str, Any]:
        """Return the server's metrics document (``GET /metrics``)."""
        status, _, doc = self._request("GET", "/metrics")
        if status != 200 or not isinstance(doc, dict):
            raise ServeClientError(f"metrics returned {status}", status)
        return doc

    def submit(
        self,
        specs: Sequence[SpecLike],
        *,
        max_retries: int = 0,
        backoff: Optional[float] = None,
        trace_id: Optional[str] = None,
        max_backoff: float = MAX_BACKOFF_SECONDS,
    ) -> List[Dict[str, Any]]:
        """Submit one batch; returns the accepted job documents.

        A ``429`` is retried up to ``max_retries`` times (a hard
        attempts cap, never unbounded).  Each retry sleeps the
        server-provided ``Retry-After`` hint (or ``backoff``) scaled
        exponentially by the attempt number, ±25% uniform jitter so a
        thundering herd of rejected clients decorrelates, and clamped
        to ``max_backoff``.  When retries run out a
        :class:`BackpressureError` carries the last hint so callers can
        implement their own policy.  ``trace_id`` seeds the submission's
        trace context (minted here when omitted) and is sent as
        ``X-Trace-Id``; the server echoes the id it actually used in
        the accepted documents.
        """
        payload = {"jobs": [_spec_doc(spec) for spec in specs]}
        trace = trace_id if trace_id is not None else new_trace_id()
        attempt = 0
        while True:
            self.oplog.emit(
                "client_submit", trace_id=trace, jobs=len(specs),
                attempt=attempt + 1,
            )
            status, headers, doc = self._request(
                "POST", "/jobs", payload,
                extra_headers={"X-Trace-Id": trace},
            )
            if status == 202 and isinstance(doc, dict):
                self.oplog.emit(
                    "client_accepted", trace_id=doc.get("trace_id", trace),
                    jobs=len(doc.get("jobs", [])), attempt=attempt + 1,
                )
                return list(doc.get("jobs", []))
            if status == 429:
                retry_after = self._retry_after(headers, doc, backoff)
                if attempt >= max_retries:
                    self.oplog.emit(
                        "client_backpressure_giveup", trace_id=trace,
                        attempt=attempt + 1, retry_after=retry_after,
                    )
                    raise BackpressureError(
                        f"queue full after {attempt + 1} attempt(s)",
                        retry_after=retry_after,
                    )
                attempt += 1
                delay = self._backoff_delay(retry_after, attempt, max_backoff)
                self.oplog.emit(
                    "client_backoff", trace_id=trace, attempt=attempt,
                    retry_after=retry_after, sleep_s=round(delay, 4),
                )
                time.sleep(delay)
                continue
            detail = doc.get("error") if isinstance(doc, dict) else None
            raise ServeClientError(
                f"submit returned {status}: {detail or 'no detail'}", status
            )

    @staticmethod
    def _backoff_delay(
        retry_after: float, attempt: int, max_backoff: float
    ) -> float:
        """One bounded, jittered backoff sleep.

        The server's hint is the base; it doubles per attempt already
        spent, gets ±25% uniform jitter, and is clamped to
        ``max_backoff`` (never below 1ms, so a zero hint still yields).
        """
        base = max(0.001, retry_after) * (2 ** (attempt - 1))
        jittered = base * random.uniform(0.75, 1.25)
        return max(0.001, min(jittered, max_backoff))

    @staticmethod
    def _retry_after(
        headers: Dict[str, str], doc: Any, fallback: Optional[float]
    ) -> float:
        for key, value in headers.items():
            if key.lower() == "retry-after":
                try:
                    return float(value)
                except ValueError:
                    break
        if isinstance(doc, dict) and isinstance(
            doc.get("retry_after"), (int, float)
        ):
            return float(doc["retry_after"])
        return fallback if fallback is not None else 0.5

    def job(self, job_id: str) -> Dict[str, Any]:
        """Fetch one job record (``GET /jobs/<id>``); 404 raises."""
        status, _, doc = self._request("GET", f"/jobs/{job_id}")
        if status != 200 or not isinstance(doc, dict):
            raise ServeClientError(f"job {job_id} returned {status}", status)
        return doc

    def poll_jobs(
        self,
        job_ids: Sequence[str],
        *,
        include_result: bool = True,
    ) -> Optional[Dict[str, Dict[str, Any]]]:
        """Batched status poll (``POST /jobs/poll``); id → record.

        Returns ``None`` when the server predates the batch endpoint
        (404/405), so callers can fall back to per-job ``GET``s.  An
        unknown id raises, exactly like :meth:`job` would.
        """
        status, _, doc = self._request(
            "POST", "/jobs/poll",
            {"ids": list(job_ids), "include_result": include_result},
        )
        if status in (404, 405):
            return None
        if status != 200 or not isinstance(doc, dict):
            raise ServeClientError(f"jobs/poll returned {status}", status)
        unknown = doc.get("unknown") or []
        if unknown:
            raise ServeClientError(
                f"unknown job id(s): {unknown[:4]}", status=404
            )
        return dict(doc.get("jobs", {}))

    def wait(
        self,
        job_ids: Sequence[str],
        *,
        timeout: float = 600.0,
        poll: float = 0.05,
        poll_batch: int = 64,
    ) -> Dict[str, Dict[str, Any]]:
        """Poll until every job is done or failed; id → final record.

        Jobs are polled in batches of ``poll_batch`` over
        ``POST /jobs/poll`` (falling back to per-job ``GET``s against
        older servers), and the ``timeout`` deadline is enforced before
        *every* HTTP round-trip — never only between full passes, so
        thousands of in-flight jobs cannot stretch one pass past the
        deadline unnoticed.
        """
        if poll_batch < 1:
            raise ValueError("poll_batch must be >= 1")
        deadline = time.monotonic() + timeout
        finished: Dict[str, Dict[str, Any]] = {}
        pending = list(job_ids)
        batch_supported = True
        while pending:
            still_pending: List[str] = []
            for start in range(0, len(pending), poll_batch):
                chunk = pending[start:start + poll_batch]
                # Deadline first: the remainder of this pass is still
                # pending by definition, so report all of it.
                remaining = chunk + pending[start + poll_batch:]
                self._check_wait_deadline(deadline, timeout, remaining)
                records: Optional[Dict[str, Dict[str, Any]]] = None
                if batch_supported:
                    records = self.poll_jobs(chunk)
                    if records is None:
                        batch_supported = False
                if records is None:
                    records = {}
                    for i, job_id in enumerate(chunk):
                        self._check_wait_deadline(
                            deadline, timeout,
                            chunk[i:] + pending[start + poll_batch:],
                        )
                        records[job_id] = self.job(job_id)
                for job_id in chunk:
                    record = records[job_id]
                    if record["status"] in ("done", "failed"):
                        finished[job_id] = record
                    else:
                        still_pending.append(job_id)
            pending = still_pending
            if pending:
                self._check_wait_deadline(deadline, timeout, pending)
                time.sleep(poll)
        return finished

    @staticmethod
    def _check_wait_deadline(
        deadline: float, timeout: float, pending: Sequence[str]
    ) -> None:
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"{len(pending)} job(s) still pending after "
                f"{timeout}s: {list(pending[:4])}"
            )

    def submit_and_wait(
        self,
        specs: Sequence[SpecLike],
        *,
        max_retries: int = 0,
        timeout: float = 600.0,
        poll: float = 0.05,
        trace_id: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Submit then wait; returns final records in submission order."""
        accepted = self.submit(
            specs, max_retries=max_retries, trace_id=trace_id
        )
        ids = [doc["id"] for doc in accepted]
        finished = self.wait(ids, timeout=timeout, poll=poll)
        return [finished[job_id] for job_id in ids]


class ShardUnreachableError(ConnectionError):
    """A shard did not answer an HTTP request (down, hung, or refusing)."""


async def http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    doc: Optional[Any] = None,
    timeout: float = 5.0,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Any]:
    """One JSON-over-HTTP request on the event loop; ``(status, doc)``.

    Anything that smells like an unreachable peer — refused/reset
    connections, timeouts, a torn response — raises
    :class:`ShardUnreachableError` so callers have a single failure
    signal to feed the circuit breaker.
    """

    async def _talk() -> Tuple[int, Any]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            body = b"" if doc is None else json.dumps(doc).encode()
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Connection: close\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
            if body:
                head += "Content-Type: application/json\r\n"
            for key, value in (headers or {}).items():
                head += f"{key}: {value}\r\n"
            writer.write(head.encode("latin-1") + b"\r\n" + body)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1", "replace").split()
            if len(parts) < 2 or not parts[1].isdigit():
                raise ShardUnreachableError("malformed status line")
            status = int(parts[1])
            length: Optional[int] = None
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = (
                    line.decode("latin-1", "replace").partition(":")
                )
                if key.strip().lower() == "content-length":
                    try:
                        length = int(value)
                    except ValueError:
                        raise ShardUnreachableError("bad content-length")
            payload = (
                await reader.readexactly(length)
                if length
                else await reader.read()
            )
            parsed = json.loads(payload) if payload else None
            return status, parsed
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    try:
        return await asyncio.wait_for(_talk(), timeout)
    except ShardUnreachableError:
        raise
    except (
        OSError,
        asyncio.TimeoutError,
        asyncio.IncompleteReadError,
        ValueError,
    ) as exc:
        raise ShardUnreachableError(
            f"{method} {path} on {host}:{port}: {type(exc).__name__}: {exc}"
        ) from exc
