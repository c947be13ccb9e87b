"""The two fleet workloads: ``serve_warm`` (open loop, every job a cache
hit) and ``serve_cold`` (closed loop, every job a miss).

Both start ``cohort fleet --shards 1`` as a subprocess in a fresh
directory, drive it over HTTP from one process, keep raw per-job
stamps, and afterwards check every result against a direct in-process
``SweepRunner(cache_dir=None)`` run of the same spec.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import (
    BenchError, RunResult, http_json, median, mono_to_wall, percentile,
    summary,
)
from fleet import FleetProcess
import ledger

#: serve_warm: offered load, about half of fleet×1 saturation on a
#: 2-vCPU host in its slow phases (near 40 req/s; see LAYERS.md).
WARM_RATE = 20.0
#: serve_warm: the pinned θ-population every request samples from.
WARM_POPULATION = 24
WARM_SCALE = 0.05
#: serve_cold: jobs per client batch (one GA generation's worth).
COLD_BATCH = 8
#: Fleet set-ups per measured run; setup_s is their median.
SETUPS = 3
#: Seconds to wait for stragglers after the window before calling them lost.
DRAIN_S = 30.0
WARM_POLL_S = 0.01
COLD_POLL_S = 0.02
#: serve_cold: a client whose batch was refused waits this long.
RETRY_S = 0.5
#: Result checks compare every job while the jobs hold at most this many
#: distinct specs (each needs an in-process reference run), and a seeded
#: sample of this many jobs beyond it, so a much faster fleet cannot
#: blow the run's time budget.
CHECK_CAP = 400
#: serve_cold: exact sim.* counts are summed over this many first jobs.
SIM_COUNT_JOBS = 16


def connections() -> int:
    """Client connections in flight at once: one per usable CPU."""
    return len(os.sched_getaffinity(0))


# -- inputs -------------------------------------------------------------------


def warm_population():
    from repro.serve.loadgen import theta_population

    return theta_population(
        WARM_POPULATION, benchmark="fft", scale=WARM_SCALE
    )


def warm_schedule(seconds: float, seed: int) -> List[float]:
    """Exactly ``WARM_RATE * seconds`` Poisson arrivals in ``[0, seconds)``.

    Draws from ``arrival_schedule()`` and rescales the first ``n`` of
    ``n + 1`` arrivals onto the window: given ``n`` arrivals in a
    window, Poisson arrival times are uniform order statistics, so this
    is the Poisson process conditioned on its count.  Fixing the count
    keeps seeds comparable.
    """
    from repro.serve.loadgen import arrival_schedule

    n = max(1, round(WARM_RATE * seconds))
    horizon = 2.0 * seconds
    while True:
        offsets = arrival_schedule(WARM_RATE, horizon, seed)
        if len(offsets) > n:
            break
        horizon *= 2.0
    scale = seconds / offsets[n]
    return [t * scale for t in offsets[:n]]


def cold_specs(seed: int):
    """Endless distinct fft specs: the 6⁴ θ-grid in a seeded order, then
    again with the next trace seed, so no spec repeats within a run."""
    from repro.serve.loadgen import THETA_GRID
    from repro.serve.service import JobSpec

    grid = list(itertools.product(THETA_GRID, repeat=4))
    random.Random(seed).shuffle(grid)
    for trace_seed in itertools.count():
        for thetas in grid:
            yield JobSpec(benchmark="fft", thetas=thetas, seed=trace_seed)


# -- one measured pass --------------------------------------------------------


@dataclass
class Job:
    """Raw stamps of one job (client monotonic seconds)."""

    spec: Any
    due: float
    submit: float = 0.0
    accept: float = 0.0
    done: float = 0.0
    id: Optional[str] = None
    #: new → accepted → done | failed | lost; or rejected (429) | error
    status: str = "new"


@dataclass
class Batch:
    jobs: List[Job]
    submit: float
    done: float = 0.0


@dataclass
class Pass:
    """Everything one measured window observed."""

    t0: float = 0.0
    t_end: float = 0.0
    jobs: List[Job] = field(default_factory=list)
    batches: List[Batch] = field(default_factory=list)
    before: Dict[str, Any] = field(default_factory=dict)
    after: Dict[str, Any] = field(default_factory=dict)
    rss: Dict[str, float] = field(default_factory=dict)
    rss_before: Dict[str, float] = field(default_factory=dict)
    wall_offset: float = 0.0


async def _poll(port: int, pending: Dict[str, Job]) -> None:
    """One batched ``POST /jobs/poll`` over ``pending``; marks finished jobs."""
    ids = list(pending)[:512]
    status, doc = await http_json(
        port, "POST", "/jobs/poll", {"ids": ids, "include_result": False},
    )
    now = time.monotonic()
    if status != 200 or not isinstance(doc, dict):
        raise BenchError(f"POST /jobs/poll answered {status}")
    for job_id, record in (doc.get("jobs") or {}).items():
        state = record.get("status")
        if state in ("done", "failed"):
            job = pending.pop(job_id)
            job.done, job.status = now, state
    for job_id in doc.get("unknown") or []:
        pending.pop(job_id).status = "lost"


async def _submit(port: int, jobs: Sequence[Job]) -> None:
    """POST one submission of ``jobs``; stamps and classifies them."""
    submit = time.monotonic()
    doc = (
        jobs[0].spec.to_dict() if len(jobs) == 1
        else {"jobs": [j.spec.to_dict() for j in jobs]}
    )
    try:
        status, reply = await http_json(port, "POST", "/jobs", doc)
    except (OSError, asyncio.TimeoutError, BenchError):
        status, reply = 0, None
    accept = time.monotonic()
    for job in jobs:
        job.submit, job.accept = submit, accept
    if status == 202 and isinstance(reply, dict):
        for job, record in zip(jobs, reply.get("jobs") or []):
            job.id, job.status = record["id"], "accepted"
    else:
        for job in jobs:
            job.status = "rejected" if status == 429 else "error"


async def _window_rss(fleet: FleetProcess, run: Pass) -> None:
    await asyncio.sleep(max(0.0, run.t_end - time.monotonic()))
    run.rss = fleet.rss()


async def warm_pass(
    fleet: FleetProcess, seconds: float, seed: int, population
) -> Pass:
    """Open loop: Poisson arrivals, one spec per ``POST /jobs``."""
    offsets = warm_schedule(seconds, seed)
    rng = random.Random(seed)
    run = Pass()
    run.before = await fleet.shard_snapshot()
    run.rss_before = fleet.rss()
    run.wall_offset = mono_to_wall()
    t0 = time.monotonic() + 0.05
    run.t0, run.t_end = t0, t0 + seconds
    run.jobs = [Job(spec=rng.choice(population), due=t0 + o) for o in offsets]
    arrivals: asyncio.Queue = asyncio.Queue()
    pending: Dict[str, Job] = {}
    finished = asyncio.Event()

    async def schedule() -> None:
        for job in run.jobs:
            delay = job.due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            arrivals.put_nowait(job)

    async def submitter() -> None:
        while True:
            job = await arrivals.get()
            try:
                await _submit(fleet.port, [job])
                if job.id is not None:
                    pending[job.id] = job
            finally:
                arrivals.task_done()

    async def poller() -> None:
        while not (finished.is_set() and not pending):
            await asyncio.sleep(WARM_POLL_S)
            if pending:
                await _poll(fleet.port, pending)

    # One connection per CPU in all, the poller's included.
    workers = [
        asyncio.ensure_future(submitter())
        for _ in range(max(1, connections() - 1))
    ]
    poll_task = asyncio.ensure_future(poller())
    rss_task = asyncio.ensure_future(_window_rss(fleet, run))
    try:
        await schedule()
        await arrivals.join()
        finished.set()
        try:
            await asyncio.wait_for(asyncio.shield(poll_task), DRAIN_S)
        except asyncio.TimeoutError:
            pass
        await rss_task
    finally:
        for task in workers + [poll_task, rss_task]:
            task.cancel()
        await asyncio.gather(
            *workers, poll_task, rss_task, return_exceptions=True
        )
    for job in pending.values():
        job.status = "lost"
    run.after = await fleet.shard_snapshot()
    return run


async def cold_pass(
    fleet: FleetProcess, seconds: float, seed: int
) -> Pass:
    """Closed loop: each client submits a batch of new specs, waits for
    all of it, and repeats until the window closes."""
    specs = cold_specs(seed)
    first = next(specs)  # imports happen here, before the window opens
    specs = itertools.chain([first], specs)
    run = Pass()
    run.before = await fleet.shard_snapshot()
    run.rss_before = fleet.rss()
    run.wall_offset = mono_to_wall()
    t0 = time.monotonic()
    run.t0, run.t_end = t0, t0 + seconds

    async def client() -> None:
        while time.monotonic() < run.t_end:
            jobs = [Job(spec=next(specs), due=0.0) for _ in range(COLD_BATCH)]
            batch = Batch(jobs=jobs, submit=0.0)
            run.jobs.extend(jobs)
            run.batches.append(batch)
            await _submit(fleet.port, jobs)
            # Closed loop: a batch is due the moment it is sent.
            batch.submit = jobs[0].submit
            for job in jobs:
                job.due = job.submit
            pending = {j.id: j for j in jobs if j.id is not None}
            if not pending:  # refused: back off as a real client would
                await asyncio.sleep(RETRY_S)
                continue
            deadline = time.monotonic() + DRAIN_S
            while pending and time.monotonic() < deadline:
                await asyncio.sleep(COLD_POLL_S)
                await _poll(fleet.port, pending)
            for job in pending.values():
                job.status = "lost"
            batch.done = max(j.done for j in jobs)

    rss_task = asyncio.ensure_future(_window_rss(fleet, run))
    try:
        await asyncio.gather(*(client() for _ in range(connections())))
        await rss_task
    finally:
        rss_task.cancel()
        await asyncio.gather(rss_task, return_exceptions=True)
    run.after = await fleet.shard_snapshot()
    return run


async def warm_up(fleet: FleetProcess, population) -> float:
    """Submit the θ-population once and wait for it; seconds taken."""
    started = time.perf_counter()
    jobs = [Job(spec=spec, due=0.0) for spec in population]
    await _submit(fleet.port, jobs)
    pending = {j.id: j for j in jobs if j.id is not None}
    if len(pending) != len(jobs):
        raise BenchError("warm-up submission was refused")
    deadline = time.monotonic() + DRAIN_S
    while pending and time.monotonic() < deadline:
        await asyncio.sleep(WARM_POLL_S)
        await _poll(fleet.port, pending)
    if pending or any(j.status != "done" for j in jobs):
        raise BenchError("warm-up jobs did not all complete")
    return time.perf_counter() - started


# -- output checks ------------------------------------------------------------


async def fetch_results(fleet: FleetProcess, jobs: Sequence[Job]
                        ) -> Dict[str, Any]:
    """``{job id: result}`` for finished jobs, via batched polls."""
    results: Dict[str, Any] = {}
    ids = [j.id for j in jobs if j.status == "done"]
    for start in range(0, len(ids), 64):
        chunk = ids[start:start + 64]
        status, doc = await http_json(
            fleet.port, "POST", "/jobs/poll",
            {"ids": chunk, "include_result": True},
        )
        if status != 200:
            raise BenchError(f"result fetch answered {status}")
        for job_id, record in doc["jobs"].items():
            results[job_id] = record.get("result")
    return results


def reference_results(specs) -> Tuple[Dict[str, Any], float]:
    """In-process ``SweepRunner(cache_dir=None)`` result per spec key,
    and the trace-generation time per job (``to_sweep_job``) in ms."""
    from repro.runner import SweepRunner

    distinct = {spec.spec_key(): spec for spec in specs}
    keys = sorted(distinct)
    started = time.perf_counter()
    sweep_jobs = [distinct[k].to_sweep_job() for k in keys]
    gen_ms = 1000.0 * (time.perf_counter() - started) / max(1, len(keys))
    results = SweepRunner(cache_dir=None).run(sweep_jobs)
    return dict(zip(keys, results)), gen_ms


async def check_pass(
    result: RunResult, fleet: FleetProcess, run: Pass, seed: int,
    label: str, warm: bool,
) -> Dict[str, Any]:
    """Every output check of one pass.

    Returns the served results that were compared, and the in-process
    trace-generation time per job measured while building references.
    """
    done = [j for j in run.jobs if j.status == "done"]
    lost = [j for j in run.jobs if j.status == "lost"]
    failed = [j for j in run.jobs if j.status == "failed"]
    result.check(f"{label}: zero lost jobs", not lost, f"{len(lost)} lost")
    result.check(f"{label}: no failed jobs", not failed, f"{len(failed)} failed")
    result.check(f"{label}: some jobs completed", bool(done), f"{len(done)}")
    sample = done
    if len({j.spec.spec_key() for j in done}) > CHECK_CAP:
        sample = random.Random(seed).sample(done, CHECK_CAP)
    served = await fetch_results(fleet, sample)
    reference, gen_ms = reference_results([j.spec for j in sample])
    mismatched = [
        j.id for j in sample
        if served.get(j.id) != reference[j.spec.spec_key()]
    ]
    result.check(
        f"{label}: results equal in-process SweepRunner",
        not mismatched and len(served) == len(sample),
        f"{len(sample)} of {len(done)} compared, {len(mismatched)} differ",
    )
    delta = runner_delta(run)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    if warm:
        result.check(
            f"{label}: runner hit ratio 1.0 in window",
            delta["cache_misses"] == 0 and delta["cache_hits"] > 0,
            f"{delta['cache_hits']} hits / {lookups} lookups",
        )
    else:
        result.check(
            f"{label}: runner hit ratio 0.0 in window",
            delta["cache_hits"] == 0 and delta["cache_misses"] > 0,
            f"{delta['cache_hits']} hits / {lookups} lookups",
        )
    return {"served": served, "gen_ms_per_job": gen_ms}


# -- metrics ------------------------------------------------------------------


_RUNNER_COUNTERS = (
    "cache_hits", "cache_misses", "jobs_executed", "exec_seconds",
    "lockstep_groups", "lockstep_jobs", "lockstep_peeled",
    "trace_decode_hits", "trace_decode_misses",
)
_SERVICE_COUNTERS = ("batches", "jobs_dispatched")


def runner_delta(run: Pass) -> Dict[str, float]:
    """Shard runner and service counters accrued over the window."""
    out = {}
    for key in _RUNNER_COUNTERS:
        out[key] = (
            run.after["runner"].get(key, 0)
            - run.before["runner"].get(key, 0)
        )
    for key in _SERVICE_COUNTERS:
        out[key] = (
            run.after["service"].get(key, 0)
            - run.before["service"].get(key, 0)
        )
    return out


def _ms(values: Sequence[float]) -> List[float]:
    return [1000.0 * v for v in values]


def e2e_metrics(result: RunResult, run: Pass, setups: Sequence[float],
                warm: bool) -> None:
    """The end-to-end metrics of a pass.

    A client request is one ``POST /jobs``: serve_warm's single spec,
    timed from its due time on the schedule, or serve_cold's batch of
    ``COLD_BATCH``, timed from its send.  Either is done when the client
    has seen every job in it done.
    """
    done = [j for j in run.jobs if j.status == "done"]
    if not done:
        raise BenchError("no job completed; nothing to measure")
    if warm:
        requests = _ms([j.done - j.due for j in done])
        inside = [j.done for j in done if j.done <= run.t_end]
    else:
        finished = [
            b for b in run.batches
            if all(j.status == "done" for j in b.jobs)
        ]
        requests = _ms([b.done - b.submit for b in finished])
        inside = [
            b.done for b in finished for _ in b.jobs if b.done <= run.t_end
        ]
        result.details["job_e2e_ms"] = _ms([j.done - j.due for j in done])
    result.details["request_e2e_ms"] = requests
    result.put("e2e_p50_ms", percentile(requests, 0.50), "ms", len(requests))
    result.put("e2e_p90_ms", percentile(requests, 0.90), "ms", len(requests))
    # Completions inside the window over the span they took: the drain
    # tail after the window is excluded from both.
    if not inside:
        raise BenchError("no job completed inside the window")
    result.put("jobs_per_s", len(inside) / (max(inside) - run.t0), "1/s",
               len(inside))
    result.put("setup_s", median(setups), "s", len(setups))
    result.put("rss_mb", run.rss["router"] + run.rss["shards"], "MB", 1)


def traffic(result: RunResult, run: Pass, checked: Dict[str, Any]) -> None:
    """The workload's measured traffic properties (kept with every run)."""
    delta = runner_delta(run)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    accesses = [
        sum(c["hits"] + c["misses"] for c in res["cores"])
        for res in checked["served"].values() if res
    ]
    lag = _ms([j.submit - j.due for j in run.jobs if j.submit])
    result.traffic.update({
        "jobs_offered": len(run.jobs),
        "hit_share": delta["cache_hits"] / lookups if lookups else 0.0,
        "hit_share_base": lookups,
        "accesses_per_job": (
            sum(accesses) / len(accesses) if accesses else 0.0
        ),
        "batch_size_mean": (
            delta["jobs_dispatched"] / delta["batches"]
            if delta["batches"] else 0.0
        ),
        "batches_formed": delta["batches"],
        "launch_lag_ms": summary(lag),
    })


def count_failures(result: RunResult, run: Pass) -> None:
    result.attempted += len(run.jobs)
    result.failed += sum(1 for j in run.jobs if j.status != "done")


def layer_metrics(
    result: RunResult, run: Pass, checked: Dict[str, Any], spans_path: str,
    fleet: FleetProcess,
) -> None:
    """Per-layer metrics from the traced pass: oplog ledger + counters."""
    off = run.wall_offset
    done = [j for j in run.jobs if j.status == "done"]
    rows = ledger.stitch(
        [
            {"id": j.id, "due": j.due + off, "submit": j.submit + off,
             "done": j.done + off}
            for j in done
        ],
        ledger.read_oplog(fleet.oplog),
        ledger.read_oplog(fleet.shard_oplog),
    )
    ledger.write_spans(spans_path, rows)

    def hop(name: str) -> List[float]:
        return [r["hops_ms"][name] for r in rows if name in r["hops_ms"]]

    def put_tail(name: str, values: List[float]) -> None:
        s = summary(values)
        result.put(f"{name}_p50_ms", s["p50"], "ms", s["n"])
        result.put(f"{name}_p99_ms", s["p99"], "ms", s["n"])

    lag = _ms([j.submit - j.due for j in run.jobs if j.submit])
    result.put("client.launch_lag_p99_ms", summary(lag)["p99"], "ms", len(lag))
    result.put("client.poll_lag_ms", summary(hop("poll"))["p50"], "ms",
               len(hop("poll")))
    rtt = _ms([j.accept - j.submit for j in run.jobs if j.submit])
    result.put("fleet.admit_ms", summary(rtt)["p50"], "ms", len(rtt))
    put_tail("fleet.queue", hop("router_queue"))
    dispatch = [r["dispatch_ms"] for r in rows if r["dispatch_ms"] is not None]
    result.put("fleet.dispatch_ms", summary(dispatch)["p50"], "ms",
               len(dispatch))
    put_tail("fleet.collect_lag", hop("collect"))
    put_tail("serve.queue_wait", hop("shard_queue"))
    put_tail("serve.exec", hop("shard_exec"))
    unaccounted = [r["unaccounted_ms"] for r in rows]
    put_tail("hops.unaccounted", unaccounted)
    result.put(
        "hops.stitched_ratio",
        sum(1 for r in rows if r["complete"]) / len(rows) if rows else 0.0,
        "ratio", len(rows),
    )

    delta = runner_delta(run)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    executed = delta["jobs_executed"]
    result.put("runner.hit_ratio",
               delta["cache_hits"] / lookups if lookups else 0.0,
               "ratio", lookups)
    result.put("runner.lookups", lookups, "count")
    result.put("runner.exec_s_per_job",
               delta["exec_seconds"] / executed if executed else 0.0, "s",
               executed)
    result.put("runner.lockstep_group_mean",
               delta["lockstep_jobs"] / delta["lockstep_groups"]
               if delta["lockstep_groups"] else 0.0, "count")
    result.put("runner.lockstep_peeled", delta["lockstep_peeled"], "count")
    # Shard batch → retire covers trace generation, digests, cache I/O
    # and the engine; the runner's own exec_seconds is the engine part.
    batch_spans: Dict[Any, float] = {}
    for r in rows:
        if "shard_exec" in r["hops_ms"] and r["batch"] is not None:
            batch_spans[r["batch"]] = max(
                batch_spans.get(r["batch"], 0.0), r["hops_ms"]["shard_exec"]
            )
    result.put("runner.self_s",
               max(0.0, sum(batch_spans.values()) / 1000.0
                   - delta["exec_seconds"]), "s")
    result.put("sim.engine_s", delta["exec_seconds"], "s")
    # Exact simulation counts over a fixed set of jobs: the first
    # SIM_COUNT_JOBS executed specs of the seed's order, so the counts do
    # not scale with how many jobs the window happened to fit.
    first = [
        checked["served"].get(j.id) for j in run.jobs[:SIM_COUNT_JOBS]
    ] if executed else []
    first = [res for res in first if res]
    cores = [c for res in first for c in res["cores"]]
    result.put("sim.accesses_per_cpu_s",
               result.traffic["accesses_per_job"] * executed
               / delta["exec_seconds"] if delta["exec_seconds"] else 0.0,
               "1/s")
    result.put("sim.simulations", executed, "count")
    result.put("sim.cycles_sum", sum(r["final_cycle"] for r in first),
               "count", len(first))
    result.put("sim.hits", sum(c["hits"] for c in cores), "count")
    result.put("sim.misses", sum(c["misses"] for c in cores), "count")
    result.put("sim.decode_misses", delta["trace_decode_misses"], "count")
    result.put("workloads.gen_ms_per_job", checked["gen_ms_per_job"], "ms")
    result.put("fleet.rss_mb", run.rss["router"], "MB")
    result.put("serve.rss_mb", run.rss["shards"], "MB")
    result.put("serve.batch_size_mean",
               delta["jobs_dispatched"] / delta["batches"]
               if delta["batches"] else 0.0, "count", delta["batches"])
    result.details["rss_before_mb"] = run.rss_before
