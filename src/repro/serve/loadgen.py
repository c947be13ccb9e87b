"""Open-loop load generation for ``cohort serve`` / ``cohort fleet``.

The capacity story needs a traffic source whose arrival process does
not bend to the server's behaviour: a *closed-loop* driver (submit,
wait, submit again) slows down exactly when the server does, hiding
the saturation knee it is supposed to find.  :class:`LoadGenerator` is
therefore **open-loop**:

* arrivals follow a Poisson process at a target req/s, pre-drawn from
  a seeded RNG (:func:`arrival_schedule`) so a run is reproducible;
* each arrival picks its job spec from a fixed *population*
  (:func:`theta_population` — distinct timer vectors over the
  lock-step θ-grid) with a seeded RNG, so the duplicate rate — and
  hence the cache-tier hit rate — is realistic and repeatable;
* the arrival clock never stops: a ``429`` is counted and the worker
  moves on immediately (no retry, no backoff sleep), an unreachable
  endpoint is an ``error``, and submissions that cannot fire on time
  because every worker is busy record their *launch lag* instead of
  silently re-shaping the arrival process;
* completions are chased by a single batched poller
  (``POST /jobs/poll``) so per-request end-to-end latency accounting
  costs O(pending / batch) round-trips, not O(pending).

Latency accounting uses :class:`repro.obs.LatencyHistogram` (log2
buckets over microseconds): constant memory at any request count, and
the bucket shape composes with the serve layer's own queue-wait
histograms when ``benchmarks/capacity_soak.py`` assembles its
manifest.  Everything here is stdlib + asyncio; the blocking
:class:`~repro.serve.client.ServeClient` is deliberately not reused —
one event loop drives hundreds of in-flight requests with a handful
of workers.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import LatencyHistogram
from repro.params import MSI_THETA
from repro.serve.client import ShardUnreachableError, http_json
from repro.serve.service import JobSpec

__all__ = [
    "LoadGenerator",
    "LoadgenReport",
    "THETA_GRID",
    "arrival_schedule",
    "theta_population",
]

#: Per-core timer grid the spec population draws from — the same grid
#: the lock-step sweep benchmarks use (``benchmarks/bench_workloads.py``),
#: spanning tight deadlines to effectively-unbounded plus the MSI
#: baseline, so the mix exercises heterogeneous-coherence configs the
#: way the paper's evaluation does.
THETA_GRID: Tuple[int, ...] = (5, 17, 60, 200, 1000, MSI_THETA)

#: Default population seed (matches the lock-step benchmarks').
DEFAULT_POPULATION_SEED = 42


def arrival_schedule(
    rate: float, duration: float, seed: int = 0
) -> List[float]:
    """Poisson arrival offsets (seconds) in ``[0, duration)``.

    Inter-arrival gaps are exponential with mean ``1/rate``, drawn from
    ``random.Random(seed)`` — the schedule is fully determined by
    ``(rate, duration, seed)``, so a capacity run can be replayed.
    """
    if rate <= 0:
        raise ValueError("rate must be > 0 req/s")
    if duration <= 0:
        raise ValueError("duration must be > 0 s")
    rng = random.Random(seed)
    offsets: List[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def theta_population(
    size: int = 32,
    *,
    benchmark: str = "fft",
    cores: int = 4,
    scale: float = 0.05,
    seed: int = DEFAULT_POPULATION_SEED,
    grid: Sequence[int] = THETA_GRID,
) -> List[JobSpec]:
    """``size`` *distinct* job specs over the per-core θ-grid.

    Each spec differs only in its timer vector, so the population maps
    onto ``size`` distinct cache keys; sampling arrivals uniformly from
    it yields a duplicate rate of ``1 - size/requests`` in expectation —
    the knob ``benchmarks/capacity_soak.py`` uses to exercise the warm
    cache tier at a realistic hit rate.
    """
    if size < 1:
        raise ValueError("population size must be >= 1")
    if size > len(grid) ** cores:
        raise ValueError(
            f"population size {size} exceeds the {len(grid)}^{cores} "
            "distinct timer vectors the grid supports"
        )
    rng = random.Random(seed)
    population: List[JobSpec] = []
    seen = set()
    while len(population) < size:
        thetas = tuple(rng.choice(list(grid)) for _ in range(cores))
        if thetas in seen:
            continue
        seen.add(thetas)
        population.append(
            JobSpec(benchmark=benchmark, thetas=thetas, scale=scale)
        )
    return population


@dataclass
class LoadgenReport:
    """Everything one :class:`LoadGenerator` run observed.

    Histograms are in microseconds; :meth:`to_dict` derives the
    millisecond quantiles the capacity gate consumes.  ``sustained_rps``
    is the completions seen by the end of the *offered window*
    (``completed_in_window``; ``window_s`` runs from the first arrival
    to the last submission, at least the schedule span) over that
    window.  Jobs that finish in the drain tail count in ``completed``
    but not there — so a server that parks its backlog and drains it
    later cannot score its offered rate as sustained.
    """

    rate: float
    duration_s: float = 0.0
    window_s: float = 0.0
    offered: int = 0
    accepted: int = 0
    rejected_429: int = 0
    errors: int = 0
    completed: int = 0
    completed_in_window: int = 0
    failed: int = 0
    lost: int = 0
    pending_at_end: int = 0
    submit_us: LatencyHistogram = field(default_factory=LatencyHistogram)
    e2e_us: LatencyHistogram = field(default_factory=LatencyHistogram)
    launch_lag_us: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def offered_rps(self) -> float:
        return self.offered / self.window_s if self.window_s else 0.0

    @property
    def sustained_rps(self) -> float:
        return (
            self.completed_in_window / self.window_s if self.window_s else 0.0
        )

    @property
    def ratio_429(self) -> float:
        return self.rejected_429 / self.offered if self.offered else 0.0

    @staticmethod
    def _quantiles_ms(hist: LatencyHistogram) -> Dict[str, float]:
        return {
            "p50_ms": hist.percentile(0.50) / 1000.0,
            "p99_ms": hist.percentile(0.99) / 1000.0,
            "mean_ms": hist.mean / 1000.0,
            "max_ms": hist.max / 1000.0,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form: counts, rates, ms quantiles, histograms."""
        return {
            "rate": self.rate,
            "duration_s": self.duration_s,
            "window_s": self.window_s,
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected_429": self.rejected_429,
            "errors": self.errors,
            "completed": self.completed,
            "completed_in_window": self.completed_in_window,
            "failed": self.failed,
            "lost": self.lost,
            "pending_at_end": self.pending_at_end,
            "offered_rps": self.offered_rps,
            "sustained_rps": self.sustained_rps,
            "ratio_429": self.ratio_429,
            "submit": self._quantiles_ms(self.submit_us),
            "e2e": self._quantiles_ms(self.e2e_us),
            "launch_lag": self._quantiles_ms(self.launch_lag_us),
            "histograms_us": {
                "submit": self.submit_us.to_dict(),
                "e2e": self.e2e_us.to_dict(),
                "launch_lag": self.launch_lag_us.to_dict(),
            },
        }


class LoadGenerator:
    """Drive one serve/fleet endpoint open-loop at a target req/s.

    ``run()`` (or ``await arun()`` from an existing loop) fires the
    pre-drawn arrival schedule, sampling each arrival's spec from
    ``population``; ``workers`` submission coroutines consume arrivals
    from an internal queue so a slow endpoint delays *submissions*
    (visible as launch lag) but never the arrival clock.  After the
    last arrival the generator keeps polling for up to
    ``drain_timeout`` seconds; jobs still pending then are reported as
    ``pending_at_end`` (and subtracted from nobody — the capacity gate
    treats ``lost`` and ``failed`` separately).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        rate: float,
        duration: float,
        population: Sequence[JobSpec],
        seed: int = 0,
        workers: int = 16,
        request_timeout: float = 10.0,
        poll_interval: float = 0.05,
        poll_batch: int = 64,
        drain_timeout: float = 60.0,
        trace_id: Optional[str] = None,
    ) -> None:
        if not population:
            raise ValueError("population must not be empty")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.host = host
        self.port = port
        self.rate = rate
        self.duration = duration
        self.population = list(population)
        self.seed = seed
        self.workers = workers
        self.request_timeout = request_timeout
        self.poll_interval = poll_interval
        self.poll_batch = poll_batch
        self.drain_timeout = drain_timeout
        self.trace_id = trace_id
        # job_id -> arrival time (monotonic) for e2e accounting.
        self._inflight: Dict[str, float] = {}
        self._report = LoadgenReport(rate=rate)

    # -- public entry points -------------------------------------------------

    def run(self) -> LoadgenReport:
        """Blocking wrapper: run the generator on a fresh event loop."""
        return asyncio.run(self.arun())

    async def arun(self) -> LoadgenReport:
        """Run the generator on the current event loop; the report."""
        schedule = arrival_schedule(self.rate, self.duration, self.seed)
        rng = random.Random(self.seed + 1)
        arrivals: asyncio.Queue = asyncio.Queue()
        report = self._report
        report.offered = len(schedule)

        worker_tasks = [
            asyncio.ensure_future(self._worker(arrivals))
            for _ in range(self.workers)
        ]
        poller_task = asyncio.ensure_future(self._poller())

        t0 = time.monotonic()
        try:
            for offset in schedule:
                delay = t0 + offset - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                spec = rng.choice(self.population)
                # put_nowait: the arrival fires now whatever the
                # workers are doing — open-loop by construction.
                arrivals.put_nowait((t0 + offset, spec))
            await arrivals.join()
            # Offered window: everything up to the last submission
            # firing, excluding the drain tail below.
            report.window_s = max(
                time.monotonic() - t0,
                schedule[-1] if schedule else 0.0,
            )
            report.completed_in_window = report.completed
            drain_deadline = time.monotonic() + self.drain_timeout
            while self._inflight and time.monotonic() < drain_deadline:
                await asyncio.sleep(self.poll_interval)
        finally:
            for task in worker_tasks:
                task.cancel()
            poller_task.cancel()
            await asyncio.gather(
                *worker_tasks, poller_task, return_exceptions=True
            )
        report.pending_at_end = len(self._inflight)
        report.duration_s = time.monotonic() - t0
        return report

    # -- internals -----------------------------------------------------------

    async def _worker(self, arrivals: asyncio.Queue) -> None:
        report = self._report
        headers = (
            {"X-Trace-Id": self.trace_id} if self.trace_id else None
        )
        while True:
            scheduled_mono, spec = await arrivals.get()
            try:
                fired = time.monotonic()
                report.launch_lag_us.add(
                    max(0, int((fired - scheduled_mono) * 1e6))
                )
                try:
                    status, doc = await http_json(
                        self.host, self.port, "POST", "/jobs",
                        doc=spec.to_dict(),
                        timeout=self.request_timeout,
                        headers=headers,
                    )
                except ShardUnreachableError:
                    report.errors += 1
                    continue
                report.submit_us.add(
                    max(0, int((time.monotonic() - fired) * 1e6))
                )
                if status == 202 and isinstance(doc, dict):
                    jobs = doc.get("jobs") or []
                    for job in jobs:
                        self._inflight[job["id"]] = scheduled_mono
                    report.accepted += len(jobs)
                elif status == 429:
                    # Backpressure: count it and move straight on to
                    # the next arrival — the clock never sleeps on it.
                    report.rejected_429 += 1
                else:
                    report.errors += 1
            finally:
                arrivals.task_done()

    async def _poller(self) -> None:
        """Chase completions with batched ``/jobs/poll`` requests."""
        report = self._report
        while True:
            await asyncio.sleep(self.poll_interval)
            pending = list(self._inflight)
            for start in range(0, len(pending), self.poll_batch):
                chunk = pending[start:start + self.poll_batch]
                try:
                    status, doc = await http_json(
                        self.host, self.port, "POST", "/jobs/poll",
                        doc={"ids": chunk, "include_result": False},
                        timeout=self.request_timeout,
                    )
                except ShardUnreachableError:
                    break
                if status != 200 or not isinstance(doc, dict):
                    break
                now = time.monotonic()
                for job_id, record in (doc.get("jobs") or {}).items():
                    state = record.get("status")
                    if state not in ("done", "failed"):
                        continue
                    arrived = self._inflight.pop(job_id, None)
                    if arrived is None:
                        continue
                    if state == "done":
                        report.completed += 1
                        report.e2e_us.add(
                            max(0, int((now - arrived) * 1e6))
                        )
                    else:
                        report.failed += 1
                for job_id in doc.get("unknown") or []:
                    # An accepted (202'd) id the server no longer
                    # knows: that is a lost job, the capacity gate's
                    # hardest failure.
                    if self._inflight.pop(job_id, None) is not None:
                        report.lost += 1
