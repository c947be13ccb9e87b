"""The serving layer: a batched, backpressured simulation service.

``cohort serve`` turns the repository's :class:`~repro.runner.SweepRunner`
into a long-lived JSON-over-HTTP service: submissions from many clients
queue up and run as batches of whatever is queued (up to ``max_batch``),
share one on-disk result cache, and are admission-controlled by a
bounded queue with explicit backpressure.  See ``docs/serving.md``.

``cohort fleet`` (:mod:`repro.serve.fleet`) scales that out and makes it
self-healing: a :class:`ShardSupervisor` spawns N serve shards as
subprocesses, routes jobs by consistent hash of their content key,
write-ahead-journals every accepted job before acknowledging it, and
restarts crashed or hung shards with capped exponential backoff while
the survivors absorb the failover.

Public surface:

* :class:`BatchingService` — queue + batcher over one runner,
* :class:`JobSpec` / :class:`JobRecord` — submissions and their lifecycle,
* :class:`JobTable` — the job records of a service or a fleet router,
  with the live (unfinished) set and the one ``finish``,
* :class:`ServeApp` / :func:`run_server` — the asyncio HTTP front-end
  (routes and lifecycle shared with the fleet router),
* :class:`ServerThread` — in-process server for tests/benchmarks,
* :class:`ServeClient` — synchronous stdlib client (``cohort submit``),
  with bounded retries for both backpressure and transient connections,
* :class:`ShardSupervisor` / :class:`FleetApp` / :func:`run_fleet` —
  the supervised shard fleet (``cohort fleet``),
* :class:`FleetThread` — in-process fleet for tests and the chaos soak,
* :class:`LoadGenerator` / :func:`arrival_schedule` /
  :func:`theta_population` — open-loop Poisson load generation for the
  capacity soak (``benchmarks/capacity_soak.py``),
* :class:`WriteAheadJournal` / :class:`HashRing` /
  :class:`CircuitBreaker` — the fleet's durability and routing pieces.

Operationally, every submission carries a trace id end to end
(``X-Trace-Id``), the whole stack logs structured JSON-lines events
through :class:`repro.obs.OpLogger`, and ``/metrics`` doubles as a
Prometheus scrape target — see ``docs/operations.md`` and, for the
failure-mode map, ``docs/resilience.md``.
"""

from repro.serve.client import (
    BackpressureError,
    ServeClient,
    ServeClientError,
)
from repro.serve.loadgen import (
    LoadGenerator,
    LoadgenReport,
    arrival_schedule,
    theta_population,
)
from repro.serve.fleet import (
    CircuitBreaker,
    FleetApp,
    FleetThread,
    HashRing,
    ShardSupervisor,
    WriteAheadJournal,
    run_fleet,
)
from repro.serve.server import ServeApp, ServerThread, run_server
from repro.serve.service import (
    BatchingService,
    DrainingError,
    JobRecord,
    JobSpec,
    JobSpecError,
    JobTable,
    QueueFullError,
    ServeError,
)

__all__ = [
    "BackpressureError",
    "BatchingService",
    "CircuitBreaker",
    "DrainingError",
    "FleetApp",
    "FleetThread",
    "HashRing",
    "JobRecord",
    "JobSpec",
    "JobSpecError",
    "JobTable",
    "LoadGenerator",
    "LoadgenReport",
    "QueueFullError",
    "ServeApp",
    "ServeClient",
    "ServeClientError",
    "ServeError",
    "ServerThread",
    "ShardSupervisor",
    "WriteAheadJournal",
    "arrival_schedule",
    "run_fleet",
    "run_server",
    "theta_population",
]
