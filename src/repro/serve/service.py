"""Job specs, records, the job table, and the batching core of ``cohort serve``.

The service turns independent HTTP submissions into
:class:`~repro.runner.SweepRunner` batches:

* a **bounded admission queue** (``queue_limit``) gives explicit
  backpressure — a submission that does not fit is rejected with a
  ``retry_after`` hint instead of being buffered without bound;
* the batcher takes **whatever is queued**, up to ``max_batch`` jobs,
  as the next batch: submissions that arrive while a batch executes
  coalesce into the one after it, so duplicate jobs from different
  clients collapse onto the shared on-disk result cache without any
  timed wait;
* batches execute on a thread-pool executor, keeping the event loop
  (and therefore ``/healthz``, ``/metrics`` and status polling)
  responsive while simulations run;
* **graceful drain**: once draining, new submissions are refused while
  queued and in-flight jobs run to completion.

:class:`JobTable` holds the records of both this service and the fleet
router (:class:`repro.serve.fleet.ShardSupervisor`): every admitted
job, the live (unfinished) subset, and the one idempotent ``finish``.

Everything here is asyncio + stdlib; the HTTP front-end lives in
:mod:`repro.serve.server` and a synchronous client in
:mod:`repro.serve.client`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
import uuid
from collections import deque
from dataclasses import dataclass
from typing import (
    Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.obs.metrics import LatencyHistogram
from repro.obs.ops import OpLogger, build_service_trace
from repro.obs.report import SERVE_METRICS_SCHEMA
from repro.params import cohort_config, config_from_dict
from repro.runner import SweepJob, SweepRunner
from repro.workloads import benchmark_names, splash_traces


class ServeError(Exception):
    """Base class of all serving-layer errors."""


class JobSpecError(ServeError):
    """A submitted job description is invalid."""


class QueueFullError(ServeError):
    """The admission queue cannot take the submission (backpressure)."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DrainingError(ServeError):
    """The service is shutting down and refuses new submissions."""


def per_job_trace_ids(
    specs: Sequence[Any],
    trace_id: Optional[str],
    trace_ids: Optional[Sequence[Optional[str]]],
) -> List[Optional[str]]:
    """One trace id per spec: ``trace_ids`` if given, else ``trace_id``."""
    if trace_ids is None:
        return [trace_id] * len(specs)
    if len(trace_ids) != len(specs):
        raise ValueError("trace_ids must match specs one to one")
    return list(trace_ids)


@dataclass(frozen=True)
class JobSpec:
    """One simulation job as submitted by a client.

    The common shape names a benchmark plus a timer vector and lets the
    server generate the (deterministic) traces; a full ``config`` dict
    (the :func:`repro.params.config_to_dict` shape) may override the
    ``thetas``-derived configuration while traces still come from
    ``benchmark``/``scale``/``seed``.
    """

    benchmark: str
    thetas: Tuple[int, ...]
    scale: float = 0.3
    seed: int = 0
    protocol: Optional[str] = None
    record_latencies: bool = False
    config: Optional[Mapping[str, Any]] = None

    @classmethod
    def from_dict(cls, doc: Any) -> "JobSpec":
        """Validate and build a spec from a submitted JSON object."""
        if not isinstance(doc, dict):
            raise JobSpecError("job spec must be a JSON object")
        benchmark = doc.get("benchmark")
        if benchmark not in benchmark_names():
            raise JobSpecError(
                f"unknown benchmark {benchmark!r}; choose from "
                f"{benchmark_names()}"
            )
        thetas = doc.get("thetas")
        if (
            not isinstance(thetas, (list, tuple))
            or not thetas
            or not all(isinstance(t, int) and not isinstance(t, bool) for t in thetas)
        ):
            raise JobSpecError("thetas must be a non-empty list of integers")
        scale = doc.get("scale", 0.3)
        if not isinstance(scale, (int, float)) or not 0 < scale <= 10:
            raise JobSpecError("scale must be a number in (0, 10]")
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise JobSpecError("seed must be a non-negative integer")
        protocol = doc.get("protocol")
        if protocol is not None and not isinstance(protocol, str):
            raise JobSpecError("protocol must be a string")
        record_latencies = doc.get("record_latencies", False)
        if not isinstance(record_latencies, bool):
            raise JobSpecError("record_latencies must be a boolean")
        config = doc.get("config")
        if config is not None and not isinstance(config, dict):
            raise JobSpecError("config must be an object")
        unknown = set(doc) - {
            "benchmark", "thetas", "scale", "seed", "protocol",
            "record_latencies", "config",
        }
        if unknown:
            raise JobSpecError(f"unknown job spec fields: {sorted(unknown)}")
        return cls(
            benchmark=benchmark,
            thetas=tuple(thetas),
            scale=float(scale),
            seed=seed,
            protocol=protocol,
            record_latencies=record_latencies,
            config=config,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to the wire format ``from_dict`` accepts back."""
        doc: Dict[str, Any] = {
            "benchmark": self.benchmark,
            "thetas": list(self.thetas),
            "scale": self.scale,
            "seed": self.seed,
            "record_latencies": self.record_latencies,
        }
        if self.protocol is not None:
            doc["protocol"] = self.protocol
        if self.config is not None:
            doc["config"] = dict(self.config)
        return doc

    def spec_key(self) -> str:
        """Cheap content hash of the spec (not the full job digest —
        computed without generating traces, so safe on the event loop)."""
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_sweep_job(self) -> SweepJob:
        """Materialise the runnable job (generates traces; CPU-bound)."""
        if self.config is not None:
            cfg = config_from_dict(dict(self.config))
        else:
            kwargs: Dict[str, Any] = {}
            if self.protocol is not None:
                kwargs["protocol"] = self.protocol
            cfg = cohort_config(list(self.thetas), **kwargs)
        traces = splash_traces(
            self.benchmark, cfg.num_cores, scale=self.scale, seed=self.seed
        )
        return SweepJob(cfg, tuple(traces), self.record_latencies)


@dataclass
class JobRecord:
    """Lifecycle of one accepted job: queued → running → done/failed."""

    id: str
    spec: JobSpec
    status: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Monotonic twins of the wall-clock stamps above.  The ``*_at``
    #: fields are display/journal values (epoch seconds, serialised in
    #: :meth:`to_dict`); every *duration* — queue wait, end-to-end
    #: ``duration_ms`` — is derived from these instead, so an NTP step
    #: mid-run cannot corrupt percentiles or SLO verdicts.
    submitted_mono: float = 0.0
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    #: The SweepJob content digest, known once the batch materialised.
    digest: Optional[str] = None
    result: Optional[dict] = None
    error: Optional[str] = None
    #: Trace-context id of the submission this job arrived in (one id
    #: per ``POST /jobs``, or per job when the submission forwards
    #: several clients' jobs); carried into every oplog event and the
    #: result envelope so a request's lifecycle greps end to end.
    trace_id: Optional[str] = None
    #: When the executed batch returned from the runner (the
    #: execute→respond boundary of the service-lifecycle trace).
    executed_at: Optional[float] = None

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        """Serialise the record; ``include_result=False`` for admission
        responses, where results do not exist yet."""
        doc: Dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "spec": self.spec.to_dict(),
            "spec_key": self.spec.spec_key(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "digest": self.digest,
            "error": self.error,
            "trace_id": self.trace_id,
        }
        if include_result:
            doc["result"] = self.result
        return doc


class JobTable:
    """Every admitted job by id, plus the live (unfinished) subset.

    Shared by :class:`BatchingService` and the fleet's
    ``ShardSupervisor``; like them, it is touched only from the event
    loop thread.  ``live`` keeps admission order, so a scan over it
    (drain, failover) costs the jobs still in flight, not every job the
    service has ever seen.
    """

    def __init__(self) -> None:
        self.records: Dict[str, JobRecord] = {}
        self.live: Dict[str, JobRecord] = {}
        self.completed = 0
        self.failed = 0

    def add(self, record: JobRecord) -> None:
        """Register a newly admitted (or replayed) record as live."""
        self.records[record.id] = record
        self.live[record.id] = record

    def finish(
        self,
        record: JobRecord,
        result: Optional[dict] = None,
        error: Optional[str] = None,
    ) -> bool:
        """Mark ``record`` done (or failed, when ``error`` is given).

        Stamps the wall and monotonic finish times and counts the
        outcome.  Idempotent: a record that already finished is left
        untouched and ``False`` is returned.
        """
        if self.live.pop(record.id, None) is None:
            return False
        record.finished_at = time.time()
        record.finished_mono = time.monotonic()
        if error is None:
            record.status = "done"
            record.result = result
            self.completed += 1
        else:
            record.status = "failed"
            record.error = error
            self.failed += 1
        return True


class BatchingService:
    """Bounded-queue batching front-end over one ``SweepRunner``.

    All public methods must be called from the event loop thread (the
    HTTP handlers and the batcher share one loop, so queue accounting
    needs no locks); only the batch execution itself leaves the loop,
    via ``run_in_executor``.
    """

    def __init__(
        self,
        runner: SweepRunner,
        *,
        max_batch: int = 8,
        queue_limit: int = 64,
        retry_after: float = 0.5,
        label: str = "serve",
        oplog: Optional[OpLogger] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if retry_after <= 0:
            raise ValueError("retry_after must be > 0")
        self.runner = runner
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.retry_after = retry_after
        self.label = label
        self.jobs = JobTable()
        self._queue: Deque[JobRecord] = deque()
        self._wakeup = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._draining = False
        self._started_mono = time.monotonic()
        # Counters surfaced through /metrics.
        self.jobs_submitted = 0
        self.jobs_rejected = 0
        self.jobs_dispatched = 0
        self.batches = 0
        self.max_queue_depth = 0
        self._batch_sizes = LatencyHistogram()
        self._queue_wait_ms = LatencyHistogram()
        #: Structured operational log; a sink-less no-op by default, so
        #: every lifecycle site emits unconditionally.
        self.oplog = oplog if oplog is not None else OpLogger()
        # Share the log with the runner (its cache_hit/execute events
        # land in the same file) unless the caller gave it its own.
        if getattr(runner, "oplog", None) is None:
            runner.oplog = self.oplog
        #: Per-request service-lifecycle rows for the Perfetto export
        #: (bounded: oldest rows drop first on very long runs).
        self.trace_rows: Deque[Dict[str, Any]] = deque(maxlen=10000)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start the batcher task on the running loop."""
        if self._task is not None:
            raise RuntimeError("service already started")
        self._task = asyncio.get_running_loop().create_task(self._run())

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        """Jobs taken off the queue whose batch has not finished."""
        return len(self.jobs.live) - len(self._queue)

    async def drain(self) -> None:
        """Refuse new submissions; wait for queued + in-flight jobs."""
        self._draining = True
        self.oplog.emit(
            "drain", queued=len(self._queue), inflight=self.inflight
        )
        self._wakeup.set()
        while self.jobs.live:
            await asyncio.sleep(0.01)
        if self._task is not None:
            await self._task
            self._task = None
        self.oplog.emit("drained")

    # -- submission / polling ------------------------------------------------

    def submit(
        self,
        specs: Sequence[JobSpec],
        trace_id: Optional[str] = None,
        trace_ids: Optional[Sequence[Optional[str]]] = None,
    ) -> List[JobRecord]:
        """Admit ``specs`` as one all-or-nothing submission.

        ``trace_id`` is the submission's trace context (the HTTP layer
        mints one per ``POST /jobs`` when the client did not); it is
        stamped on every admitted record and oplog event.  ``trace_ids``
        (one per spec) overrides it job by job, for a submission that
        forwards jobs from several clients (the fleet router's chunks).
        """
        if self._draining:
            self.oplog.emit(
                "reject", trace_id=trace_id, reason="draining",
                jobs=len(specs),
            )
            raise DrainingError("service is draining; not accepting jobs")
        if not specs:
            raise JobSpecError("submission contains no jobs")
        trace_ids = per_job_trace_ids(specs, trace_id, trace_ids)
        # Check-and-admit is one atomic step: nothing between the limit
        # check and the final append yields to the event loop (no awaits,
        # no blocking I/O beyond the oplog write), so two concurrent
        # submissions can never both pass the check and overshoot
        # ``queue_limit``.  Anything slow enough to need an await must
        # happen before this point.
        if len(self._queue) + len(specs) > self.queue_limit:
            self.jobs_rejected += len(specs)
            self.oplog.emit(
                "reject", trace_id=trace_id, reason="queue_full",
                jobs=len(specs), queue_depth=len(self._queue),
                retry_after=self.retry_after,
            )
            raise QueueFullError(
                f"admission queue full ({len(self._queue)}/"
                f"{self.queue_limit} queued); retry after "
                f"{self.retry_after}s",
                retry_after=self.retry_after,
            )
        now = time.time()
        now_mono = time.monotonic()
        records = []
        for spec, job_trace in zip(specs, trace_ids):
            record = JobRecord(
                id=uuid.uuid4().hex[:12], spec=spec, submitted_at=now,
                submitted_mono=now_mono, trace_id=job_trace,
            )
            self.jobs.add(record)
            self._queue.append(record)
            records.append(record)
            self.oplog.emit(
                "admit", trace_id=job_trace, job_id=record.id,
                spec_key=spec.spec_key(), queue_depth=len(self._queue),
            )
        self.jobs_submitted += len(records)
        self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        self._wakeup.set()
        return records

    def get(self, job_id: str) -> Optional[JobRecord]:
        """Look up a job record by id (None if unknown)."""
        return self.jobs.records.get(job_id)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- batching ------------------------------------------------------------

    async def _run(self) -> None:
        while True:
            while not self._queue:
                if self._draining:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
            await self._execute(self._take_batch())

    def _take_batch(self) -> List[JobRecord]:
        """Pop whatever is queued, up to ``max_batch`` jobs, in order."""
        count = min(len(self._queue), self.max_batch)
        return [self._queue.popleft() for _ in range(count)]

    async def _execute(self, batch: List[JobRecord]) -> None:
        started = time.time()
        started_mono = time.monotonic()
        for record in batch:
            record.status = "running"
            record.started_at = started
            record.started_mono = started_mono
            wait_ms = int((started_mono - record.submitted_mono) * 1000)
            self._queue_wait_ms.add(wait_ms)
            self.oplog.emit(
                "batch", trace_id=record.trace_id, job_id=record.id,
                batch=self.batches, queue_wait_ms=wait_ms,
            )
        self._batch_sizes.add(len(batch))
        self.batches += 1
        self.jobs_dispatched += len(batch)
        loop = asyncio.get_running_loop()
        error: Optional[str] = None
        try:
            outcome = await loop.run_in_executor(
                None, self._run_batch, batch
            )
        except Exception as exc:  # runner failure fails the whole batch
            error = f"{type(exc).__name__}: {exc}"
            outcome = [(None, None)] * len(batch)
        executed = time.time()
        for record, (digest, result) in zip(batch, outcome):
            record.digest = digest
            record.executed_at = executed
            self.jobs.finish(record, result=result, error=error)
            self._retire(record)

    def _retire(self, record: JobRecord) -> None:
        """Log one finished job and record its service-lifecycle row."""
        self.oplog.emit(
            "retire", trace_id=record.trace_id, job_id=record.id,
            status=record.status, digest=record.digest,
            # Monotonic, so a wall-clock (NTP) step mid-job can neither
            # inflate the duration nor push it negative.
            duration_ms=(record.finished_mono - record.submitted_mono)
            * 1000,
        )
        self.trace_rows.append(
            {
                "trace_id": record.trace_id,
                "job_id": record.id,
                "status": record.status,
                "digest": record.digest,
                "submitted_at": record.submitted_at,
                "dispatched_at": record.started_at,
                "executed_at": record.executed_at,
                "finished_at": record.finished_at,
            }
        )

    def service_trace(self) -> Dict[str, Any]:
        """Chrome trace-event doc of all retired requests' lifecycles."""
        return build_service_trace(self.trace_rows, name=self.label)

    def _run_batch(
        self, batch: List[JobRecord]
    ) -> List[Tuple[str, dict]]:
        """Executor-side: materialise, run, pair results with digests.

        Batches execute strictly one at a time (the batcher awaits each
        ``_execute``), so the runner is never touched concurrently.
        The records' trace context rides along so the runner's
        ``cache_hit``/``execute`` oplog events correlate with the
        submission that caused them.
        """
        jobs = [record.spec.to_sweep_job() for record in batch]
        results = self.runner.run(
            jobs,
            op_context=[
                {"trace_id": record.trace_id, "job_id": record.id}
                for record in batch
            ],
        )
        return [(job.digest(), result) for job, result in zip(jobs, results)]

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """A ``/metrics`` snapshot (``repro.obs`` serve_metrics shape)."""
        return {
            "schema": SERVE_METRICS_SCHEMA,
            "label": self.label,
            "uptime_seconds": time.monotonic() - self._started_mono,
            "service": {
                "queue_depth": len(self._queue),
                "queue_limit": self.queue_limit,
                "inflight": self.inflight,
                "draining": self._draining,
                "max_batch": self.max_batch,
                "retry_after": self.retry_after,
                "jobs_submitted": self.jobs_submitted,
                "jobs_rejected": self.jobs_rejected,
                "jobs_dispatched": self.jobs_dispatched,
                "jobs_completed": self.jobs.completed,
                "jobs_failed": self.jobs.failed,
                "batches": self.batches,
                "max_queue_depth": self.max_queue_depth,
                "batch_sizes": self._batch_sizes.to_dict(),
                "batch_size_p95": self._batch_sizes.percentile(0.95),
                "queue_wait_ms": self._queue_wait_ms.to_dict(),
                "queue_wait_ms_p50": self._queue_wait_ms.percentile(0.5),
                "queue_wait_ms_p95": self._queue_wait_ms.percentile(0.95),
            },
            "runner": self.runner.telemetry(),
        }
