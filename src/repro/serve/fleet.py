"""Self-healing sharded serving: a supervised fleet of ``cohort serve``.

``cohort fleet`` scales the single-process serving layer out to N
*shard* subprocesses — each one a full ``cohort serve`` (a
:class:`~repro.serve.service.BatchingService` over its own
:class:`~repro.runner.SweepRunner`) on its own port, all sharing one
hardened on-disk result cache — and puts a supervising router in front:

* **Routing** — jobs are routed to shards by consistent hash of the
  job's content key (:meth:`JobSpec.spec_key`), so repeated
  submissions of the same spec land on the same shard and its warm
  in-process memo, while the shared cache directory backstops every
  shard with cross-shard warm replication.
* **Dispatch** — a pipeline per shard over the one job table: a
  shard's queue and in-flight set are the live records it owns in
  status ``queued`` and ``dispatched``, in admission order.  The
  *dispatcher* forwards up to ``max_batch`` queued jobs as one
  ``POST /jobs`` and takes the next chunk without waiting for the
  last, keeping at most ``shard_queue_limit`` jobs in flight per shard
  (so the router never causes its own 429s).  The *collector* chases
  every in-flight job with one batched ``POST /jobs/poll`` per pass,
  pausing :data:`COLLECT_INTERVAL` seconds between passes.  A shard
  batches whatever the router has forwarded to it, up to
  ``max_batch``.
* **Durability** — every accepted job is appended to a per-shard
  write-ahead intake journal (schema-versioned JSONL,
  :data:`repro.obs.schema.INTAKE_JOURNAL_SCHEMA`) and ``fsync``'d
  *before* the 202 is sent; the entry is retired when the job finishes
  and the file is truncated once no live entries remain.  An accepted
  202 is never lost: a crashed shard's unfinished jobs are replayed
  from its journal, and a crashed supervisor replays every journal on
  cold start.
* **Supervision** — each shard is health-checked over ``/healthz``
  with a heartbeat deadline.  A crashed (``SIGKILL``), hung
  (``SIGSTOP``), or flapping shard is declared down, its circuit
  breaker opens (new traffic fails over to live shards via the ring),
  its unfinished jobs are replayed, and the supervisor restarts it
  with capped exponential backoff — re-closing the breaker only after
  the replacement answers health checks.

Everything is asyncio + stdlib, single event-loop-thread state like
:class:`BatchingService`.  Journal fsyncs run on an executor thread so
a slow disk never stalls the event loop; because that makes ``submit``
yield mid-admission, admission slots are reserved atomically *before*
the first await (see :meth:`ShardSupervisor.submit`).  See
``docs/serving.md`` for the architecture and ``docs/resilience.md``
for the failure-mode map.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.obs.ops import OpLogger
from repro.obs.promexport import prometheus_from_fleet_metrics
from repro.obs.schema import FLEET_METRICS_SCHEMA, INTAKE_JOURNAL_SCHEMA
from repro.serve.client import ShardUnreachableError, http_json
from repro.serve.server import AppThread, JsonHttpApp, serve_app
from repro.serve.service import (
    DrainingError,
    JobRecord,
    JobSpec,
    JobSpecError,
    JobTable,
    QueueFullError,
    per_job_trace_ids,
)

__all__ = [
    "CircuitBreaker",
    "FleetApp",
    "FleetThread",
    "HashRing",
    "ShardSupervisor",
    "WriteAheadJournal",
    "run_fleet",
]


#: Seconds a collector pauses between its batched polls of one shard.
COLLECT_INTERVAL = 0.01


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (best-effort; bound then released)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return int(sock.getsockname()[1])


# -- write-ahead intake journal ---------------------------------------------


class WriteAheadJournal:
    """Per-shard durability log for accepted-but-unfinished jobs.

    Append-only JSONL, one schema-tagged record per line
    (:data:`INTAKE_JOURNAL_SCHEMA`): ``admit`` lines carry the full job
    document and are flushed + ``fsync``'d before :meth:`admit`
    returns — the caller only sends its 202 after that — and ``retire``
    lines close them.  When the last live entry retires the file is
    truncated to zero, so the journal's steady-state size is the
    in-flight window, not the service's lifetime.

    Loading an existing file (supervisor cold start, or a shard-down
    replay) tolerates a torn final line: a line that does not parse was
    never fully written, which means its ``admit`` never produced a 202
    — dropping it loses nothing a client was promised.

    Thread-safe: the supervisor runs admits on an executor thread (the
    fsync must not stall the event loop under submission load) while
    retires and replay sweeps run on the loop thread, so every mutation
    and every read of the live set takes the internal lock.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.admits = 0
        self.retires = 0
        self.truncations = 0
        self.torn_lines = 0
        self._seq = 0
        self._live: Dict[str, Dict[str, Any]] = {}
        self._fh: Optional[Any] = None
        self._lock = threading.Lock()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._recover()

    def _recover(self) -> None:
        """Rebuild the live set from an existing journal file."""
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path) as fh:
                lines = fh.readlines()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self.torn_lines += 1
                continue
            if not isinstance(record, dict):
                self.torn_lines += 1
                continue
            self._seq = max(self._seq, int(record.get("seq", 0)) + 1)
            op = record.get("op")
            if op == "admit" and isinstance(record.get("job"), dict):
                job = record["job"]
                if isinstance(job.get("id"), str):
                    self._live[job["id"]] = job
            elif op == "retire" and isinstance(record.get("job_id"), str):
                self._live.pop(record["job_id"], None)

    def _sink(self):
        if self._fh is None:
            self._fh = open(self.path, "a")
        return self._fh

    def _append(self, record: Dict[str, Any]) -> None:
        fh = self._sink()
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())

    def admit(self, job: Dict[str, Any], shard: int) -> int:
        """Durably record one accepted job; returns its sequence number.

        ``job`` must carry at least ``id`` and ``spec`` (the wire-format
        spec document).  The record is on disk — fsync'd — when this
        returns, which is the precondition for sending the 202.
        """
        with self._lock:
            seq = self._seq
            self._seq += 1
            self._append(
                {
                    "schema": INTAKE_JOURNAL_SCHEMA,
                    "op": "admit",
                    "seq": seq,
                    "ts": time.time(),
                    "shard": shard,
                    "job": job,
                }
            )
            self._live[job["id"]] = job
            self.admits += 1
            return seq

    def retire(self, job_id: str) -> bool:
        """Close one admitted entry; truncate when none remain live."""
        with self._lock:
            if job_id not in self._live:
                return False
            seq = self._seq
            self._seq += 1
            self._append(
                {
                    "schema": INTAKE_JOURNAL_SCHEMA,
                    "op": "retire",
                    "seq": seq,
                    "ts": time.time(),
                    "job_id": job_id,
                }
            )
            del self._live[job_id]
            self.retires += 1
            if not self._live:
                fh = self._sink()
                fh.seek(0)
                fh.truncate()
                fh.flush()
                os.fsync(fh.fileno())
                self.truncations += 1
                self._seq = 0
            return True

    @property
    def live_count(self) -> int:
        return len(self._live)

    def live_jobs(self) -> List[Dict[str, Any]]:
        """Unretired job documents, in admission order."""
        with self._lock:
            return list(self._live.values())

    def counters(self) -> Dict[str, Any]:
        """Journal health counters for /metrics and the oplog."""
        with self._lock:
            return {
                "path": self.path,
                "live": self.live_count,
                "admits": self.admits,
                "retires": self.retires,
                "truncations": self.truncations,
                "torn_lines": self.torn_lines,
            }

    def close(self) -> None:
        """Close the append handle (the file itself is kept)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


# -- consistent-hash ring ----------------------------------------------------


class HashRing:
    """Consistent hashing of job keys onto shard indices.

    ``vnodes`` virtual nodes per shard smooth the distribution; a key's
    owner is the first virtual node clockwise from the key's hash whose
    shard is in the allowed set, so removing a dead shard only moves
    *its* keys — every other key keeps its (cache-warm) owner.
    """

    def __init__(self, shard_ids: Sequence[int], vnodes: int = 64) -> None:
        if not shard_ids:
            raise ValueError("ring needs at least one shard")
        self.shard_ids = list(shard_ids)
        self.vnodes = vnodes
        ring = sorted(
            (self._hash(f"shard-{shard}#{vnode}"), shard)
            for shard in self.shard_ids
            for vnode in range(vnodes)
        )
        self._points = [point for point, _ in ring]
        self._owners = [shard for _, shard in ring]

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode()).digest()[:8], "big"
        )

    def assign(
        self, key: str, allowed: Optional[Set[int]] = None
    ) -> Optional[int]:
        """The shard owning ``key`` among ``allowed`` (None = all)."""
        candidates = (
            set(self.shard_ids) if allowed is None else allowed
        )
        if not candidates:
            return None
        start = bisect.bisect_left(self._points, self._hash(key))
        for offset in range(len(self._owners)):
            shard = self._owners[(start + offset) % len(self._owners)]
            if shard in candidates:
                return shard
        return None


# -- circuit breaker ---------------------------------------------------------


class CircuitBreaker:
    """Per-shard circuit breaker: ``closed`` → ``open`` → ``half_open``.

    ``record_failure`` trips the breaker after ``threshold`` consecutive
    failures (or immediately via :meth:`trip`); while open, :meth:`allows`
    refuses until ``cooldown`` seconds have passed, then lets exactly one
    probe through (``half_open``).  A success in half-open closes the
    breaker; a failure re-opens it with doubled (capped) cooldown.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 1.0,
        max_cooldown: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.base_cooldown = cooldown
        self.max_cooldown = max_cooldown
        self.clock = clock
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self._cooldown = cooldown

    @property
    def cooldown(self) -> float:
        return self._cooldown

    def record_success(self) -> None:
        """A request (or half-open probe) succeeded: close and reset."""
        self.failures = 0
        self.state = "closed"
        self._cooldown = self.base_cooldown

    def record_failure(self) -> None:
        """Count a failure; trip at the threshold or on a failed probe."""
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.threshold:
            self.trip()

    def trip(self) -> None:
        """Open immediately (e.g. the supervisor watched the shard die)."""
        previous = self._cooldown if self.state != "closed" else 0.0
        self.state = "open"
        self.opened_at = self.clock()
        if previous:
            self._cooldown = min(previous * 2, self.max_cooldown)

    def allows(self) -> bool:
        """Whether a request may be sent through right now."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self.clock() - self.opened_at >= self._cooldown:
                self.state = "half_open"
                return True
            return False
        return True  # half_open: one probe at a time is the caller's job


# -- shard + job state -------------------------------------------------------


@dataclass
class FleetJob(JobRecord):
    """Lifecycle of one fleet-accepted job.

    ``queued`` (journaled, awaiting dispatch) → ``dispatched`` (accepted
    by a shard, remote id known, ``started_at`` stamped) →
    ``done``/``failed``.  ``shard`` and ``status`` are the job's only
    routing state: the dispatcher and collector select on them.  A
    shard death resets its ``dispatched`` jobs back to ``queued`` (the
    journal entry is still live) and may reassign ``shard``.
    """

    shard: int = 0
    remote_id: Optional[str] = None
    attempts: int = 0
    failovers: int = 0

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        """The job record served by ``GET /jobs/<id>``."""
        doc = super().to_dict(include_result)
        doc.update(
            shard=self.shard, attempts=self.attempts, failovers=self.failovers
        )
        return doc


@dataclass
class ShardState:
    """Everything the supervisor knows about one shard."""

    index: int
    port: int = 0
    proc: Optional[subprocess.Popen] = None
    state: str = "starting"  # starting | up | down | backoff
    restarts: int = 0
    consecutive_restarts: int = 0
    #: Monotonic time of the last successful health probe; ``None``
    #: means "never healthy" — distinct from a legitimate monotonic
    #: reading of ``0.0``, so never test this by truthiness.
    last_healthy: Optional[float] = None
    up_since: float = 0.0
    down_since: float = 0.0
    routed: int = 0
    completed: int = 0
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    journal: Optional[WriteAheadJournal] = None
    log_path: str = ""
    restart_task: Optional["asyncio.Task"] = None
    #: The collector task chasing this shard's in-flight jobs, if any.
    collector: Optional["asyncio.Task"] = None
    #: Times the shard was declared down; a forward that straddles a
    #: change discards the answer (replay owns its chunk by then).
    downs: int = 0

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def proc_alive(self) -> bool:
        """True while the shard subprocess exists and has not exited."""
        return self.proc is not None and self.proc.poll() is None


# -- the supervisor ----------------------------------------------------------


class ShardSupervisor:
    """Spawns, routes to, health-checks, and heals a shard fleet.

    All public methods must be called from the event loop thread (the
    HTTP handlers, dispatchers, collectors and the health monitor share
    one loop).
    Shards are real ``cohort serve`` subprocesses sharing one cache
    directory; the supervisor is the only writer of the per-shard
    intake journals.
    """

    def __init__(
        self,
        *,
        shards: int = 2,
        host: str = "127.0.0.1",
        fleet_dir: str = ".cohort_fleet",
        cache_dir: Optional[str] = None,
        shard_jobs: int = 1,
        max_batch: int = 8,
        shard_queue_limit: int = 64,
        engine: str = "lockstep",
        job_timeout: Optional[float] = None,
        cache_budget_bytes: int = 0,
        admission_limit: int = 256,
        retry_after: float = 0.5,
        health_interval: float = 0.25,
        heartbeat_timeout: float = 1.0,
        heartbeat_deadline: float = 3.0,
        restart_backoff_base: float = 0.25,
        restart_backoff_max: float = 5.0,
        stability_window: float = 10.0,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        spawn_timeout: float = 60.0,
        request_timeout: float = 30.0,
        label: str = "fleet",
        oplog: Optional[OpLogger] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if admission_limit < 1:
            raise ValueError("admission_limit must be >= 1")
        self.host = host
        self.fleet_dir = fleet_dir
        self.cache_dir = (
            cache_dir
            if cache_dir is not None
            else os.path.join(fleet_dir, "cache")
        )
        self.shard_jobs = shard_jobs
        self.max_batch = max_batch
        self.shard_queue_limit = shard_queue_limit
        self.engine = engine
        self.job_timeout = job_timeout
        self.cache_budget_bytes = cache_budget_bytes
        self.admission_limit = admission_limit
        self.retry_after = retry_after
        self.health_interval = health_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_deadline = heartbeat_deadline
        self.restart_backoff_base = restart_backoff_base
        self.restart_backoff_max = restart_backoff_max
        self.stability_window = stability_window
        self.spawn_timeout = spawn_timeout
        self.request_timeout = request_timeout
        self.label = label
        self.oplog = oplog if oplog is not None else OpLogger(
            component="fleet"
        )
        os.makedirs(self.fleet_dir, exist_ok=True)
        self.shards: List[ShardState] = []
        for index in range(shards):
            shard = ShardState(
                index=index,
                breaker=CircuitBreaker(
                    threshold=breaker_threshold, cooldown=breaker_cooldown
                ),
                journal=WriteAheadJournal(
                    os.path.join(self.fleet_dir, f"shard-{index}.journal.jsonl")
                ),
                log_path=os.path.join(self.fleet_dir, f"shard-{index}.log"),
            )
            self.shards.append(shard)
        self.ring = HashRing([s.index for s in self.shards])
        self.jobs = JobTable()
        self._wakeups: Dict[int, asyncio.Event] = {}
        self._tasks: List[asyncio.Task] = []
        self._draining = False
        self._started_mono = time.monotonic()
        # Admission accounting.  Pending jobs are the table's live set;
        # ``_reserved`` counts admission slots held by in-flight
        # ``submit`` calls that have passed the limit check but not yet
        # registered their records (journal fsyncs happen off-loop, so
        # submit yields between check and append).  The limit check
        # reads both, making check-and-reserve atomic.
        self._reserved = 0
        # Fleet-level counters surfaced through /metrics.
        self.jobs_submitted = 0
        self.jobs_rejected = 0
        self.failovers = 0
        self.replayed_jobs = 0
        self.restarts_total = 0
        self.recovery_seconds: List[float] = []

    # -- lifecycle -----------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def shards_up(self) -> int:
        return sum(1 for s in self.shards if s.state == "up")

    async def start(self) -> None:
        """Cold-start: replay journals, spawn shards, start the loops."""
        self._replay_cold_start()
        self._wakeups = {s.index: asyncio.Event() for s in self.shards}
        self.oplog.emit(
            "fleet_start", shards=len(self.shards),
            cache_dir=self.cache_dir, fleet_dir=self.fleet_dir,
        )
        await asyncio.gather(
            *(self._start_shard(shard) for shard in self.shards)
        )
        loop = asyncio.get_running_loop()
        for shard in self.shards:
            self._tasks.append(
                loop.create_task(self._dispatch_loop(shard))
            )
        self._tasks.append(loop.create_task(self._health_loop()))

    def _replay_cold_start(self) -> None:
        """Re-register accepted-but-unfinished jobs left in journals.

        A previous supervisor crash (or hard kill) leaves live entries
        behind; every one of them was 202-acknowledged, so each becomes
        a queued :class:`FleetJob` again — same id, same trace context.
        An entry whose spec no longer parses is logged and retired.
        """
        for shard in self.shards:
            assert shard.journal is not None
            for doc in shard.journal.live_jobs():
                try:
                    spec = JobSpec.from_dict(doc.get("spec"))
                except JobSpecError as exc:
                    self.oplog.emit(
                        "journal_skip", shard=shard.index,
                        job_id=doc["id"], reason=str(exc),
                    )
                    # No job will ever finish it: retire it now, or the
                    # journal would never truncate again.
                    shard.journal.retire(doc["id"])
                    continue
                record = FleetJob(
                    id=doc["id"],
                    spec=spec,
                    shard=shard.index,
                    trace_id=doc.get("trace_id"),
                    submitted_at=doc.get("submitted_at", time.time()),
                    submitted_mono=time.monotonic(),
                )
                self.jobs.add(record)
                self.replayed_jobs += 1
                self.oplog.emit(
                    "journal_replay", shard=shard.index, job_id=record.id,
                    trace_id=record.trace_id, phase="cold_start",
                )

    async def drain(self) -> None:
        """Refuse new work, finish accepted jobs, stop shards cleanly."""
        self._draining = True
        self.oplog.emit("fleet_drain", pending=len(self.jobs.live))
        self._wake_all()
        while self.jobs.live:
            await asyncio.sleep(0.02)
        shard_tasks = [
            task
            for s in self.shards
            for task in (s.restart_task, s.collector)
            if task is not None and not task.done()
        ]
        for task in self._tasks + shard_tasks:
            task.cancel()
        await asyncio.gather(
            *self._tasks, *shard_tasks, return_exceptions=True
        )
        self._tasks = []
        await asyncio.gather(
            *(self._stop_shard(shard) for shard in self.shards)
        )
        for shard in self.shards:
            assert shard.journal is not None
            shard.journal.close()
        self.oplog.emit("fleet_drained")

    async def _stop_shard(self, shard: ShardState) -> None:
        if shard.proc is None:
            return
        if shard.proc.poll() is None:
            shard.proc.terminate()
            try:
                await asyncio.wait_for(
                    asyncio.get_running_loop().run_in_executor(
                        None, shard.proc.wait
                    ),
                    timeout=15.0,
                )
            except asyncio.TimeoutError:
                shard.proc.kill()
                await asyncio.get_running_loop().run_in_executor(
                    None, shard.proc.wait
                )
        shard.state = "down"

    # -- shard process management --------------------------------------------

    def _spawn_command(self, shard: ShardState) -> List[str]:
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", self.host,
            "--port", str(shard.port),
            "--jobs", str(self.shard_jobs),
            "--max-batch", str(self.max_batch),
            "--queue-limit", str(self.shard_queue_limit),
            "--cache-dir", self.cache_dir,
            "--engine", self.engine,
            "--oplog",
            os.path.join(self.fleet_dir, f"shard-{shard.index}.oplog.jsonl"),
        ]
        if self.cache_budget_bytes:
            cmd += ["--cache-budget", str(self.cache_budget_bytes)]
        if self.job_timeout:
            cmd += ["--job-timeout", str(self.job_timeout)]
        return cmd

    def _spawn(self, shard: ShardState) -> None:
        shard.port = free_port(self.host)
        env = dict(os.environ)
        # .../src, ahead of any inherited path, so shards run this code.
        src_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (src_root, env.get("PYTHONPATH")) if path
        )
        log = open(shard.log_path, "ab")
        try:
            shard.proc = subprocess.Popen(
                self._spawn_command(shard),
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                start_new_session=True,
            )
        finally:
            log.close()
        self.oplog.emit(
            "shard_spawn", shard=shard.index, port=shard.port,
            pid=shard.proc.pid, restarts=shard.restarts,
        )

    async def _start_shard(self, shard: ShardState) -> None:
        """Spawn one shard and wait until it answers health checks."""
        shard.state = "starting"
        self._spawn(shard)
        deadline = time.monotonic() + self.spawn_timeout
        while time.monotonic() < deadline:
            if not shard.proc_alive():
                # The child died before listening (port race, crash on
                # boot): respawn on a fresh port and keep waiting.
                await asyncio.sleep(0.2)
                if not shard.proc_alive():
                    self.oplog.emit(
                        "shard_boot_failed", shard=shard.index,
                        returncode=shard.proc.returncode
                        if shard.proc else None,
                    )
                    self._spawn(shard)
                    continue
            try:
                status, doc = await http_json(
                    self.host, shard.port, "GET", "/healthz",
                    timeout=self.heartbeat_timeout,
                )
            except ShardUnreachableError:
                await asyncio.sleep(0.1)
                continue
            if status == 200 and isinstance(doc, dict):
                now = time.monotonic()
                shard.state = "up"
                shard.last_healthy = now
                shard.up_since = now
                shard.breaker.record_success()
                recovery_s = None  # absent from the event on first boot
                if shard.down_since:
                    recovered = now - shard.down_since
                    self.recovery_seconds.append(recovered)
                    shard.down_since = 0.0
                    recovery_s = round(recovered, 3)
                self.oplog.emit(
                    "shard_up", shard=shard.index, port=shard.port,
                    pid=shard.pid, recovery_s=recovery_s,
                )
                self._wakeups[shard.index].set()
                return
            await asyncio.sleep(0.1)
        if shard.proc is not None and shard.proc.poll() is None:
            # A half-booted child must not outlive the attempt, or the
            # next respawn would leak a second process on the machine.
            try:
                shard.proc.kill()
            except OSError:
                pass
        raise RuntimeError(
            f"shard {shard.index} did not become healthy within "
            f"{self.spawn_timeout}s (see {shard.log_path})"
        )

    def _on_shard_down(self, shard: ShardState, reason: str) -> None:
        """Fault path: open the breaker, replay the journal, failover."""
        if shard.state == "down" or shard.state == "backoff":
            return
        shard.state = "down"
        shard.down_since = time.monotonic()
        shard.downs += 1
        shard.breaker.trip()
        self.oplog.emit(
            "shard_down", shard=shard.index, reason=reason, pid=shard.pid,
            restarts=shard.restarts,
        )
        if shard.proc is not None and shard.proc.poll() is None:
            # A hung (e.g. SIGSTOP'd) process must die before a healthy
            # replacement can take its place.
            try:
                shard.proc.kill()
            except OSError:
                pass
        # Replay every accepted-but-unfinished job this shard owns:
        # queued, or dispatched to the dead process (which stops its
        # collector).  A job that failed over here from another shard is
        # owned here too, though its admit record sits in the admitting
        # shard's journal; a job admitted here that failed over
        # elsewhere is not touched.  The scan is bounded by
        # ``admission_limit``, not by uptime.
        alive = {
            s.index
            for s in self.shards
            if s.index != shard.index and s.state == "up"
        }
        owned = [
            record
            for record in self.jobs.live.values()
            if record.shard == shard.index
        ]
        for record in owned:
            record.status = "queued"
            record.remote_id = None
            # With no live shard the job waits, journaled, for this one.
            target = (
                self.ring.assign(record.spec.spec_key(), alive)
                if alive else shard.index
            )
            if target != record.shard:
                record.failovers += 1
                self.failovers += 1
                self.oplog.emit(
                    "failover", job_id=record.id, trace_id=record.trace_id,
                    from_shard=record.shard, to_shard=target,
                )
                record.shard = target
            self.replayed_jobs += 1
            self.oplog.emit(
                "journal_replay", shard=shard.index, job_id=record.id,
                trace_id=record.trace_id, phase="shard_down",
                to_shard=record.shard,
            )
        if owned:
            self._wake_all()

    async def _restart_shard(self, shard: ShardState) -> None:
        """Backoff, respawn, and wait healthy (capped exponential)."""
        shard.state = "backoff"
        shard.consecutive_restarts += 1
        backoff = min(
            self.restart_backoff_base * (2 ** (shard.consecutive_restarts - 1)),
            self.restart_backoff_max,
        )
        self.oplog.emit(
            "shard_restart", shard=shard.index,
            attempt=shard.consecutive_restarts, backoff_s=round(backoff, 3),
        )
        await asyncio.sleep(backoff)
        shard.restarts += 1
        self.restarts_total += 1
        await self._start_shard(shard)

    # -- health monitoring ---------------------------------------------------

    async def _health_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            for shard in self.shards:
                if shard.state == "up":
                    await self._probe(shard)
                elif shard.state == "down" and (
                    shard.restart_task is None
                    or shard.restart_task.done()
                ):
                    # One guarded task per shard — never two racing
                    # restarts of the same shard, and a slow boot never
                    # blocks probing (or restarting) the others.
                    shard.restart_task = loop.create_task(
                        self._restart_guarded(shard)
                    )
            await asyncio.sleep(self.health_interval)

    async def _restart_guarded(self, shard: ShardState) -> None:
        try:
            await self._restart_shard(shard)
        except RuntimeError:
            # Spawn window exhausted; next health tick tries again.
            shard.state = "down"

    async def _probe(self, shard: ShardState) -> None:
        if not shard.proc_alive():
            self._on_shard_down(shard, "process exited")
            return
        try:
            status, doc = await http_json(
                self.host, shard.port, "GET", "/healthz",
                timeout=self.heartbeat_timeout,
            )
            healthy = status == 200
        except ShardUnreachableError:
            healthy = False
        now = time.monotonic()
        if healthy:
            shard.last_healthy = now
            shard.breaker.record_success()
            if (
                shard.consecutive_restarts
                and now - shard.up_since >= self.stability_window
            ):
                # Stable long enough: a future crash starts the backoff
                # ladder from the bottom again (flap detection window).
                shard.consecutive_restarts = 0
            return
        if (
            shard.last_healthy is None
            or now - shard.last_healthy >= self.heartbeat_deadline
        ):
            self._on_shard_down(shard, "heartbeat deadline missed")

    # -- submission / routing ------------------------------------------------

    def _route_key(self, key: str) -> int:
        """Pick the owning shard for a job key.

        Healthy shards with closed breakers are preferred; when none
        qualify (everything mid-restart) the full ring still assigns an
        owner — the job waits, journaled, for the shard's return.
        """
        preferred = {
            s.index
            for s in self.shards
            if s.state == "up" and s.breaker.state == "closed"
        }
        target = self.ring.assign(key, preferred or None)
        if target is None:
            target = self.ring.assign(key)
        assert target is not None
        return target

    async def submit(
        self,
        specs: Sequence[JobSpec],
        trace_id: Optional[str] = None,
        trace_ids: Optional[Sequence[Optional[str]]] = None,
    ) -> List[FleetJob]:
        """Admit ``specs`` as one all-or-nothing submission.

        ``trace_id``/``trace_ids`` work as in
        :meth:`BatchingService.submit`: each job carries its own trace
        id through its record, journal entry and oplog events.

        Each accepted job is journaled (fsync'd) before this returns;
        the HTTP layer's 202 therefore only ever describes durable
        admissions.  The fsyncs run on an executor thread so a slow
        disk never stalls the event loop — which means this coroutine
        yields between the admission-limit check and the record
        registrations.  The limit check is therefore check-AND-reserve:
        the whole batch's slots are claimed under ``_reserved`` before
        the first ``await``, so two concurrent oversize submissions can
        never both pass the check.
        """
        if self._draining:
            self.oplog.emit(
                "reject", trace_id=trace_id, reason="draining",
                jobs=len(specs),
            )
            raise DrainingError("fleet is draining; not accepting jobs")
        if not specs:
            raise JobSpecError("submission contains no jobs")
        trace_ids = per_job_trace_ids(specs, trace_id, trace_ids)
        pending = len(self.jobs.live) + self._reserved
        if pending + len(specs) > self.admission_limit:
            self.jobs_rejected += len(specs)
            self.oplog.emit(
                "reject", trace_id=trace_id, reason="queue_full",
                jobs=len(specs), pending=pending,
                retry_after=self.retry_after,
            )
            raise QueueFullError(
                f"fleet admission limit reached ({pending}/"
                f"{self.admission_limit} pending); retry after "
                f"{self.retry_after}s",
                retry_after=self.retry_after,
            )
        # Reserve every slot before the first await; the finally block
        # releases whatever was not converted into a registered record.
        self._reserved += len(specs)
        loop = asyncio.get_running_loop()
        now = time.time()
        records: List[FleetJob] = []
        try:
            for spec, job_trace in zip(specs, trace_ids):
                key = spec.spec_key()
                shard_id = self._route_key(key)
                record = FleetJob(
                    id=uuid.uuid4().hex[:12],
                    spec=spec,
                    shard=shard_id,
                    trace_id=job_trace,
                    submitted_at=now,
                    submitted_mono=time.monotonic(),
                )
                shard = self.shards[shard_id]
                assert shard.journal is not None
                await loop.run_in_executor(
                    None,
                    shard.journal.admit,
                    {
                        "id": record.id,
                        "spec": spec.to_dict(),
                        "trace_id": job_trace,
                        "submitted_at": now,
                    },
                    shard_id,
                )
                self.jobs.add(record)
                shard.routed += 1
                records.append(record)
                # Convert one reservation into a registered pending job.
                self._reserved -= 1
                self.oplog.emit(
                    "admit", trace_id=job_trace, job_id=record.id,
                    shard=shard_id, spec_key=key,
                )
        finally:
            self._reserved -= len(specs) - len(records)
        self.jobs_submitted += len(records)
        self._wake_all()
        return records

    def get(self, job_id: str) -> Optional[FleetJob]:
        """Look up a job by router-assigned id (``None`` if unknown)."""
        return self.jobs.records.get(job_id)

    def _wake_all(self) -> None:
        for event in self._wakeups.values():
            event.set()

    # -- dispatch ------------------------------------------------------------

    async def _dispatch_loop(self, shard: ShardState) -> None:
        """The shard's dispatcher: forward chunks without waiting on them.

        Each pass takes up to ``max_batch`` queued jobs — fewer when the
        shard already holds ``shard_queue_limit`` dispatched-but-
        unfinished jobs, so the router never causes its own 429s — and
        forwards them as one batched ``POST /jobs``.  Earlier chunks are
        left to the shard's collector.
        """
        wakeup = self._wakeups[shard.index]
        while True:
            chunk = self._take_chunk(shard.index)
            if not chunk:
                if self._draining and not self.jobs.live:
                    return
                # Submissions, landed jobs, replays and a shard coming
                # up all set this; drain cancels the loop.
                wakeup.clear()
                await wakeup.wait()
                continue
            if shard.state != "up" or not shard.breaker.allows():
                # Not routable right now: the chunk stays queued while
                # the health loop / failover move things along.
                await asyncio.sleep(0.1)
                continue
            await self._forward(shard, chunk)

    def _owned(self, shard_id: int, status: str) -> List[FleetJob]:
        """The live jobs ``shard_id`` owns in ``status``, oldest first."""
        return [
            record
            for record in self.jobs.live.values()
            if record.shard == shard_id and record.status == status
        ]

    def _take_chunk(self, shard_id: int) -> List[FleetJob]:
        """The next chunk of the shard's queued jobs, oldest first.

        At most ``max_batch`` jobs, and no more than the shard's room
        under ``shard_queue_limit`` dispatched jobs.
        """
        room = min(
            self.max_batch,
            self.shard_queue_limit - len(self._owned(shard_id, "dispatched")),
        )
        return self._owned(shard_id, "queued")[:max(room, 0)]

    async def _forward(
        self, shard: ShardState, chunk: List[FleetJob]
    ) -> None:
        """Forward one chunk to its shard as a single ``POST /jobs``.

        Each job keeps its own trace context through ``trace_ids``.  On
        a 202 the chunk is marked dispatched, stamped started and
        handed to the shard's collector; after a 429/503 or an
        unreachable shard the whole chunk is still queued, in order.
        """
        downs = shard.downs
        try:
            status, doc = await http_json(
                self.host, shard.port, "POST", "/jobs",
                doc={
                    "jobs": [r.spec.to_dict() for r in chunk],
                    "trace_ids": [r.trace_id for r in chunk],
                },
                timeout=self.request_timeout,
            )
        except ShardUnreachableError:
            status, doc = 0, None
        if shard.downs != downs:
            # Declared down mid-request: journal replay already requeued
            # the chunk, and an answer from the old process is moot.
            return
        remote = doc.get("jobs") if isinstance(doc, dict) else None
        if status == 202 and isinstance(remote, list) and (
            len(remote) == len(chunk)
        ):
            started_at, started_mono = time.time(), time.monotonic()
            for record, job in zip(chunk, remote):
                record.remote_id = job["id"]
                record.status = "dispatched"
                record.started_at = started_at
                record.started_mono = started_mono
                record.attempts += 1
                self.oplog.emit(
                    "dispatch", job_id=record.id, trace_id=record.trace_id,
                    shard=shard.index, remote_id=record.remote_id,
                )
            if shard.collector is None or shard.collector.done():
                shard.collector = asyncio.get_running_loop().create_task(
                    self._collect(shard)
                )
        elif status in (0, 429, 503):
            if status:
                await asyncio.sleep(self.retry_after)
            else:
                shard.breaker.record_failure()
        else:
            detail = doc.get("error") if isinstance(doc, dict) else None
            for record in chunk:
                self._finish(
                    record,
                    error=f"shard {shard.index} refused job "
                          f"({status}): {detail or 'no detail'}",
                )

    async def _collect(self, shard: ShardState) -> None:
        """The shard's collector: chase every dispatched job at once.

        One batched ``POST /jobs/poll`` per pass, with a
        :data:`COLLECT_INTERVAL` pause between passes.  Runs while the
        shard owns dispatched jobs and is ``up``; once the health loop
        declares it down, journal replay owns those jobs.
        """
        while shard.state == "up":
            inflight = {
                record.remote_id: record
                for record in self._owned(shard.index, "dispatched")
            }
            if not inflight:
                return
            downs = shard.downs
            try:
                status, doc = await http_json(
                    self.host, shard.port, "POST", "/jobs/poll",
                    doc={"ids": list(inflight)},
                    timeout=self.request_timeout,
                )
            except ShardUnreachableError:
                status, doc = 0, None
            if shard.downs != downs:
                # Declared down mid-poll: replay owns these jobs now.
                continue
            if status != 200 or not isinstance(doc, dict):
                # Transient while the shard is still marked up: keep
                # chasing — if it really died, the health loop flips its
                # state and the loop condition hands over to replay.
                shard.breaker.record_failure()
                await asyncio.sleep(self.health_interval)
                continue
            landed = False
            for remote_id, job in (doc.get("jobs") or {}).items():
                record = inflight.get(remote_id)
                if record is None or not isinstance(job, dict):
                    continue
                if job.get("status") == "done":
                    record.digest = job.get("digest")
                    self._finish(record, result=job.get("result"))
                    shard.completed += 1
                elif job.get("status") == "failed":
                    self._finish(
                        record,
                        error=job.get("error") or "shard execution failed",
                    )
                else:
                    continue
                landed = True
            for remote_id in doc.get("unknown") or []:
                # Unknown id after a silent shard restart: requeue.
                record = inflight.get(remote_id)
                if record is not None:
                    record.status = "queued"
                    record.remote_id = None
                    landed = True
            if landed:
                self._wakeups[shard.index].set()
            if self._owned(shard.index, "dispatched"):
                await asyncio.sleep(COLLECT_INTERVAL)

    def _finish(
        self,
        record: FleetJob,
        result: Optional[dict] = None,
        error: Optional[str] = None,
    ) -> None:
        if not self.jobs.finish(record, result=result, error=error):
            return
        # Retire from the journal that admitted the job, which failover
        # may have left behind on another shard.
        for shard in self.shards:
            assert shard.journal is not None
            if shard.journal.retire(record.id):
                break
        # Monotonic duration: immune to wall-clock (NTP) steps, so no
        # clamp is needed — a negative value here would be a real bug.
        self.oplog.emit(
            "retire", job_id=record.id, trace_id=record.trace_id,
            status=record.status, shard=record.shard,
            duration_ms=(record.finished_mono - record.submitted_mono) * 1000,
        )

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """The fleet ``/metrics`` snapshot (no shard round-trips)."""
        journal_live = 0
        journal_torn = 0
        shards_doc = []
        now = time.monotonic()
        for shard in self.shards:
            assert shard.journal is not None
            counters = shard.journal.counters()
            journal_live += counters["live"]
            journal_torn += counters["torn_lines"]
            shards_doc.append(
                {
                    "index": shard.index,
                    "port": shard.port,
                    "pid": shard.pid,
                    "state": shard.state,
                    "restarts": shard.restarts,
                    "consecutive_restarts": shard.consecutive_restarts,
                    "breaker": shard.breaker.state,
                    "routed": shard.routed,
                    "completed": shard.completed,
                    "queue_depth": len(self._owned(shard.index, "queued")),
                    # Explicit None test: a monotonic reading of 0.0 is
                    # a legitimate "healthy right now" timestamp.
                    "last_healthy_age_s": (
                        round(now - shard.last_healthy, 3)
                        if shard.last_healthy is not None else None
                    ),
                    "journal": counters,
                    "serve": None,
                }
            )
        recoveries = len(self.recovery_seconds)
        return {
            "schema": FLEET_METRICS_SCHEMA,
            "label": self.label,
            "uptime_seconds": time.monotonic() - self._started_mono,
            "fleet": {
                "shards_total": len(self.shards),
                "shards_up": self.shards_up,
                "draining": self._draining,
                "admission_pending": len(self.jobs.live),
                "admission_limit": self.admission_limit,
                "jobs_submitted": self.jobs_submitted,
                "jobs_completed": self.jobs.completed,
                "jobs_failed": self.jobs.failed,
                "jobs_rejected": self.jobs_rejected,
                "failovers": self.failovers,
                "replayed_jobs": self.replayed_jobs,
                "restarts_total": self.restarts_total,
                "recoveries": recoveries,
                "recovery_seconds_max": (
                    max(self.recovery_seconds) if recoveries else 0.0
                ),
                "recovery_seconds_mean": (
                    sum(self.recovery_seconds) / recoveries
                    if recoveries else 0.0
                ),
                "journal_live": journal_live,
                "journal_torn_lines": journal_torn,
                "cache": {
                    "budget_bytes": self.cache_budget_bytes,
                },
            },
            "shards": shards_doc,
        }

    async def metrics_with_shards(self) -> Dict[str, Any]:
        """The snapshot plus each live shard's own ``/metrics`` document.

        Aggregates the shards' runner cache counters (evictions,
        quarantines, hits/misses, size) under ``fleet.cache`` so the
        hardened cache tier is observable from one scrape; an
        unreachable shard contributes nothing rather than failing the
        endpoint.
        """
        doc = self.metrics()
        totals = {
            "evictions": 0, "evicted_bytes": 0, "quarantined": 0,
            "hits": 0, "misses": 0, "size_bytes": 0,
        }
        for shard, shard_doc in zip(self.shards, doc["shards"]):
            if shard.state != "up":
                continue
            try:
                status, snapshot = await http_json(
                    self.host, shard.port, "GET", "/metrics",
                    timeout=self.heartbeat_timeout,
                )
            except ShardUnreachableError:
                continue
            if status != 200 or not isinstance(snapshot, dict):
                continue
            shard_doc["serve"] = snapshot
            runner = snapshot.get("runner", {})
            totals["evictions"] += runner.get("cache_evictions", 0)
            totals["evicted_bytes"] += runner.get("cache_evicted_bytes", 0)
            totals["quarantined"] += runner.get("cache_quarantined", 0)
            totals["hits"] += runner.get("cache_hits", 0)
            totals["misses"] += runner.get("cache_misses", 0)
            totals["size_bytes"] = max(
                totals["size_bytes"], runner.get("cache_size_bytes", 0)
            )
        doc["fleet"]["cache"].update(totals)
        return doc


# -- HTTP front-end ----------------------------------------------------------


class FleetApp(JsonHttpApp):
    """Routes HTTP requests onto one :class:`ShardSupervisor`.

    The routes are :class:`JsonHttpApp`'s, as for
    :class:`~repro.serve.server.ServeApp`, so :class:`ServeClient` and
    ``cohort submit`` work against a fleet unchanged.  ``/healthz``
    reports shard health, and ``/metrics`` embeds each live shard's own
    snapshot under ``shards[].serve``.
    """

    name = "fleet"
    exit_event = "fleet_exit"
    exposition = staticmethod(prometheus_from_fleet_metrics)

    def health(self) -> Dict[str, Any]:
        """Fleet status from shard health, plus the pending count."""
        sup = self.backend
        up = sup.shards_up
        total = len(sup.shards)
        status = (
            "draining" if sup.draining
            else "ok" if up == total
            else "degraded" if up else "down"
        )
        return {
            "status": status,
            "shards_up": up,
            "shards_total": total,
            "pending": len(sup.jobs.live),
        }

    async def snapshot(self) -> Dict[str, Any]:
        """The fleet metrics, each live shard's snapshot included."""
        return await self.backend.metrics_with_shards()

    def announce(self, host: str, port: int) -> None:
        """``cohort fleet: router on …`` and ``fleet_listening``."""
        shards = len(self.backend.shards)
        print(
            f"cohort fleet: router on http://{host}:{port} ({shards} shards)",
            flush=True,
        )
        self.backend.oplog.emit(
            "fleet_listening", host=host, port=port, shards=shards
        )


async def run_fleet(
    supervisor: ShardSupervisor,
    host: str = "127.0.0.1",
    port: int = 8780,
    *,
    metrics_out: Optional[str] = None,
    install_signal_handlers: bool = True,
    stop: Optional[asyncio.Event] = None,
) -> int:
    """Serve the fleet router until SIGTERM/SIGINT (or ``stop``), then drain.

    The lifecycle of :func:`repro.serve.server.run_server`: the
    listener stays open while draining so clients can poll, submissions
    are refused, shards drain and exit, and an optional final metrics
    snapshot (shards included) is written atomically.  Returns the port
    actually bound.
    """
    return await serve_app(
        FleetApp(supervisor), host, port, metrics_out=metrics_out,
        install_signal_handlers=install_signal_handlers, stop=stop,
    )


class FleetThread(AppThread):
    """An in-process fleet router for tests and the chaos soak.

    The supervisor (and its real shard subprocesses) runs on an event
    loop in a daemon thread; the caller talks to the router over real
    HTTP — and can reach ``.supervisor`` directly to find shard PIDs to
    kill.
    """

    _kind = "fleet thread"

    def __init__(
        self, *, host: str = "127.0.0.1", **supervisor_kwargs: Any
    ) -> None:
        super().__init__(host, 0, timeout=120.0)
        self.supervisor_kwargs = supervisor_kwargs
        self.supervisor: Optional[ShardSupervisor] = None

    def _make_app(self) -> JsonHttpApp:
        self.supervisor = ShardSupervisor(
            host=self.host, **self.supervisor_kwargs
        )
        return FleetApp(self.supervisor)
