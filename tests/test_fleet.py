"""Tests for the shard fleet (repro.serve.fleet).

Unit tests cover the routing ring, the circuit breaker, the fleet's
Prometheus exposition and the router's dispatcher/collector pipeline
(against scripted stub shards on the test's event loop) without any
processes.  Integration tests run a real :class:`FleetThread` — actual
``cohort serve`` subprocesses under a supervising router — and
exercise the failure paths the fleet exists for: a SIGKILLed shard
mid-flight must lose nothing, and a restarting endpoint must be
survivable by a retrying client.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import uuid

import pytest

from repro.obs import FLEET_METRICS_SCHEMA
from repro.obs.promexport import (
    parse_prometheus_text,
    prometheus_from_fleet_metrics,
)
from repro.serve import (
    CircuitBreaker,
    FleetThread,
    HashRing,
    ServeClient,
    ServeClientError,
    ServerThread,
)

TINY = dict(benchmark="fft", thetas=[60, 20, 20, 20], scale=0.05, seed=0)


def tiny_specs(count):
    return [
        dict(TINY, thetas=[60 + 10 * i, 20, 20, 20]) for i in range(count)
    ]


class TestHashRing:
    def test_assignment_is_deterministic(self):
        ring = HashRing([0, 1, 2])
        keys = [f"job-{i}" for i in range(64)]
        first = [ring.assign(key) for key in keys]
        second = [ring.assign(key) for key in keys]
        assert first == second

    def test_spreads_keys_across_shards(self):
        ring = HashRing([0, 1, 2])
        owners = {ring.assign(f"job-{i}") for i in range(200)}
        assert owners == {0, 1, 2}

    def test_removing_a_shard_only_moves_its_keys(self):
        ring = HashRing([0, 1, 2])
        keys = [f"job-{i}" for i in range(200)]
        before = {key: ring.assign(key) for key in keys}
        after = {key: ring.assign(key, allowed={0, 1}) for key in keys}
        for key in keys:
            if before[key] != 2:
                assert after[key] == before[key]
            else:
                assert after[key] in (0, 1)

    def test_empty_allowed_set_returns_none(self):
        ring = HashRing([0, 1])
        assert ring.assign("job", allowed=set()) is None

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            HashRing([])

    def test_owners_are_pinned(self):
        # Owners recorded from the original hand-rolled binary search;
        # any change to the lookup must move no key ("wrap-80" hashes
        # past the last virtual node and wraps to the first).
        ring = HashRing([0, 1, 2])
        pinned = {
            "job-0": (1, 1), "job-1": (0, 0), "job-2": (2, 1),
            "job-3": (2, 0), "job-7": (0, 0), "job-42": (1, 1),
            "a3f9c2e1b4d5a6f7": (1, 1), "": (0, 0), "wrap-80": (0, 0),
        }
        for key, (owner, without_2) in pinned.items():
            assert ring.assign(key) == owner, key
            assert ring.assign(key, allowed={0, 1}) == without_2, key
        assert ring.assign("wrap-80", allowed={1, 2}) == 2


class TestCircuitBreaker:
    def _clocked(self, **kwargs):
        now = [0.0]
        breaker = CircuitBreaker(clock=lambda: now[0], **kwargs)
        return breaker, now

    def test_trips_after_threshold_failures(self):
        breaker, _ = self._clocked(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allows()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allows()

    def test_cooldown_lets_one_probe_through(self):
        breaker, now = self._clocked(threshold=1, cooldown=5.0)
        breaker.record_failure()
        assert not breaker.allows()
        now[0] = 5.1
        assert breaker.allows()
        assert breaker.state == "half_open"

    def test_half_open_failure_doubles_cooldown(self):
        breaker, now = self._clocked(threshold=1, cooldown=2.0)
        breaker.record_failure()
        now[0] = 2.1
        assert breaker.allows()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert breaker.cooldown == 4.0
        now[0] = 2.1 + 3.9
        assert not breaker.allows()

    def test_success_closes_and_resets(self):
        breaker, now = self._clocked(threshold=1, cooldown=2.0)
        breaker.record_failure()
        now[0] = 2.1
        assert breaker.allows()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.cooldown == 2.0

    def test_cooldown_is_capped(self):
        breaker, now = self._clocked(
            threshold=1, cooldown=2.0, max_cooldown=5.0
        )
        for _ in range(5):
            breaker.record_failure()
            now[0] += breaker.cooldown + 0.1
            assert breaker.allows()
        assert breaker.cooldown <= 5.0


class TestSupervisorFailover:
    """Supervisor bookkeeping on the fault paths, without processes.

    These drive :meth:`ShardSupervisor._on_shard_down`, the dispatch
    chunk error paths, and the health loop directly against dead ports
    and hand-built job records — the cascading-failure orderings here
    are deterministic where the chaos soak's are not.
    """

    def _supervisor(self, tmp_path, shards=2, **kwargs):
        from repro.serve.fleet import ShardSupervisor

        sup = ShardSupervisor(
            shards=shards,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
            **kwargs,
        )
        for shard in sup.shards:
            shard.state = "up"
        return sup

    def _admit_one(self, sup):
        import asyncio

        from repro.serve import JobSpec

        (record,) = asyncio.run(sup.submit([JobSpec.from_dict(TINY)]))
        return record

    def test_failed_over_job_survives_second_shard_death(self, tmp_path):
        # Admit on A, fail over to B, then kill B: the admit record
        # lives in A's journal, so replay must also sweep in-memory
        # jobs owned by B — the 202 must never be lost.
        sup = self._supervisor(tmp_path)
        record = self._admit_one(sup)
        a = record.shard
        b = 1 - a
        sup._on_shard_down(sup.shards[a], "test kill A")
        assert record.shard == b and record.status == "queued"
        sup.shards[a].state = "up"  # A restarted
        # B dispatched the job (its dispatch loop took it off the queue).
        sup._queues[b].remove(record)
        record.status = "dispatched"
        record.remote_id = "remote-1"
        sup._on_shard_down(sup.shards[b], "test kill B")
        assert record.status == "queued"
        assert record.shard == a
        assert record in sup._queues[a]
        assert record.failovers == 2

    def test_replay_skips_jobs_already_failed_over_elsewhere(self, tmp_path):
        # A's journal still holds the admit for a job that failed over
        # to B and is mid-flight there; A dying again must not reset it.
        sup = self._supervisor(tmp_path)
        record = self._admit_one(sup)
        a = record.shard
        b = 1 - a
        sup._on_shard_down(sup.shards[a], "test kill A")
        sup.shards[a].state = "up"  # A restarted
        sup._queues[b].remove(record)
        record.status = "dispatched"
        record.remote_id = "remote-1"
        failovers = record.failovers
        sup._on_shard_down(sup.shards[a], "test kill A again")
        assert record.status == "dispatched"
        assert record.shard == b
        assert record.failovers == failovers
        # A's queue may still hold a stale entry from the original
        # admit (dropped lazily by _take_chunk) — what matters is that
        # neither dispatch loop would pick the job up again.
        assert sup._take_chunk(a) == []
        assert record not in sup._queues[b]

    def test_failover_touches_only_live_jobs(self, tmp_path):
        # Failover cost is bounded by the live set, not by uptime: the
        # many finished records are never scanned, and exactly the live
        # jobs the dead shard owns are requeued onto the survivor.
        from repro.serve import JobSpec

        sup = self._supervisor(tmp_path)
        specs = [
            JobSpec.from_dict(dict(TINY, seed=seed)) for seed in range(60)
        ]
        records = asyncio.run(sup.submit(specs))
        victim = records[0].shard
        owned = [r for r in records if r.shard == victim][:3]
        others = [r for r in records if r.shard != victim][:2]
        keep = {r.id for r in owned + others}
        for record in records:
            if record.id not in keep:
                sup._finish(record, result={"final_cycle": 1})
        for record in owned:
            sup._queues[victim].remove(record)
            record.status = "dispatched"
            record.remote_id = f"remote-{record.id}"

        class NoScan(dict):
            def __iter__(self):
                raise AssertionError("failover scanned every job record")

            items = keys = values = __iter__

        sup.jobs.records = NoScan(sup.jobs.records)
        replayed = sup.replayed_jobs
        sup._on_shard_down(sup.shards[victim], "test kill")
        assert sup.replayed_jobs - replayed == 3
        survivor = 1 - victim
        assert all(
            r.status == "queued" and r.shard == survivor and r.failovers == 1
            for r in owned
        )
        assert all(r.status == "queued" and r.failovers == 0 for r in others)
        live_ids = {r.id for r in owned + others}
        assert set(sup.jobs.live) == live_ids
        finished = [r for r in records if r.id not in live_ids]
        assert len(finished) == 55
        assert all(r.status == "done" for r in finished)
        assert not any(r.id in sup.jobs.live for r in finished)

    def _hand_built_chunk(self, sup, count):
        from repro.serve import JobSpec
        from repro.serve.fleet import FleetJob

        chunk = [
            FleetJob(
                id=f"job-{i}", spec=JobSpec.from_dict(TINY), shard=0,
                submitted_at=time.time(),
            )
            for i in range(count)
        ]
        for record in chunk:
            sup.jobs.add(record)
        return chunk

    def test_unreachable_shard_requeues_whole_chunk(self, tmp_path):
        # _take_chunk already removed the chunk from the queue; a failed
        # batched POST must put the whole chunk back at the head of the
        # queue, in order, ahead of jobs queued behind it.
        from repro.serve.fleet import free_port

        sup = self._supervisor(tmp_path, shards=1)
        shard = sup.shards[0]
        shard.port = free_port()  # nothing listening
        chunk = self._hand_built_chunk(sup, 4)
        behind = chunk.pop()
        sup._queues[0] = [behind]
        asyncio.run(sup._forward(shard, chunk))
        assert all(r.status == "queued" for r in chunk)
        assert [r.id for r in sup._queues[0]] == [
            r.id for r in chunk + [behind]
        ]
        assert shard.breaker.failures == 1

    def test_collect_retries_while_shard_marked_up(self, tmp_path):
        # A transient poll failure must not abandon dispatched jobs:
        # _collect keeps polling until the health loop flips the state,
        # at which point journal replay owns the records.
        from repro.serve.fleet import free_port

        sup = self._supervisor(tmp_path, shards=1, health_interval=0.05)
        shard = sup.shards[0]
        shard.port = free_port()
        (record,) = self._hand_built_chunk(sup, 1)
        record.status = "dispatched"
        record.remote_id = "remote-1"
        sup._inflight[0]["remote-1"] = record

        async def drive():
            task = asyncio.ensure_future(sup._collect(shard))
            await asyncio.sleep(0.4)
            assert not task.done(), "gave up on a dispatched job"
            shard.state = "down"
            await asyncio.wait_for(task, timeout=5)

        asyncio.run(drive())
        assert record.status == "dispatched"  # replay's job now

    def test_restarts_run_concurrently_per_shard(self, tmp_path):
        # A slow restart of one shard must not stop the health loop
        # noticing (and restarting) another.
        sup = self._supervisor(tmp_path, shards=2, health_interval=0.02)
        started = []

        async def slow_restart(shard):
            started.append(shard.index)
            await asyncio.sleep(30)

        sup._restart_shard = slow_restart
        for shard in sup.shards:
            shard.state = "down"

        async def drive():
            task = asyncio.ensure_future(sup._health_loop())
            try:
                deadline = asyncio.get_running_loop().time() + 2
                while (
                    len(started) < 2
                    and asyncio.get_running_loop().time() < deadline
                ):
                    await asyncio.sleep(0.02)
            finally:
                task.cancel()
                for shard in sup.shards:
                    if shard.restart_task is not None:
                        shard.restart_task.cancel()
                await asyncio.gather(
                    task,
                    *(
                        s.restart_task
                        for s in sup.shards
                        if s.restart_task is not None
                    ),
                    return_exceptions=True,
                )

        asyncio.run(drive())
        assert sorted(started) == [0, 1]

    def test_spawn_timeout_kills_half_booted_child(self, tmp_path):
        # A child that boots too slowly must be killed when the spawn
        # window closes, not left running while a sibling is respawned.
        from repro.serve.fleet import free_port

        sup = self._supervisor(tmp_path, shards=1, spawn_timeout=0.5)
        shard = sup.shards[0]

        def fake_spawn(target):
            target.port = free_port()
            target.proc = subprocess.Popen(
                [sys.executable, "-c", "import time; time.sleep(60)"]
            )

        sup._spawn = fake_spawn
        with pytest.raises(RuntimeError):
            asyncio.run(sup._start_shard(shard))
        shard.proc.wait(timeout=10)  # raises TimeoutExpired if leaked
        assert shard.proc.poll() is not None


class _StubShard:
    """A scripted shard on the test's own event loop.

    Accepts batched ``POST /jobs`` (or answers ``answer`` instead of
    202), reports jobs ``running`` until the test marks them finished,
    and records what the router sent: every forwarded chunk and the
    peak number of jobs it held unfinished.  With ``rng`` it refuses a
    chunk with probability ``refuse_p`` and finishes each running job
    with probability ``finish_p`` per poll.
    """

    def __init__(self, answer=202, finish_all=False, rng=None,
                 refuse_p=0.0, finish_p=0.0):
        from repro.serve.server import JsonHttpApp

        stub = self

        class App(JsonHttpApp):
            def _route(self, method, target, body, headers=None):
                return stub.route(target, json.loads(body or b"null"))

        self.app = App(None)
        self.answer = answer
        self.finish_all = finish_all
        self.rng = rng
        self.refuse_p = refuse_p
        self.finish_p = finish_p
        self.chunks = []
        self.specs = {}
        self.finished = set()
        self.collected = set()
        self.poll_sizes = []
        self.peak_unfinished = 0

    async def start(self):
        self.server = await asyncio.start_server(
            self.app.handle_connection, "127.0.0.1", 0
        )
        return self.server.sockets[0].getsockname()[1]

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()

    def route(self, target, doc):
        if target == "/jobs":
            if self.rng is not None and self.rng.random() < self.refuse_p:
                return 429, {"error": "scripted backpressure"}, {}
            if self.answer != 202:
                return self.answer, {"error": "scripted refusal"}, {}
            self.chunks.append(doc)
            ids = []
            for spec in doc["jobs"]:
                # Unique across stubs, like a real shard's job ids: a
                # restarted shard must not reuse an id still in flight.
                remote = uuid.uuid4().hex[:12]
                self.specs[remote] = spec
                ids.append({"id": remote})
            self.peak_unfinished = max(
                self.peak_unfinished, len(self.specs) - len(self.collected)
            )
            return 202, {"jobs": ids}, {}
        assert target == "/jobs/poll"
        self.poll_sizes.append(len(doc["ids"]))
        jobs, unknown = {}, []
        for remote in doc["ids"]:
            if remote not in self.specs:
                unknown.append(remote)
                continue
            if self.rng is not None and self.rng.random() < self.finish_p:
                self.finished.add(remote)
            if self.finish_all or remote in self.finished:
                self.collected.add(remote)
                jobs[remote] = {
                    "status": "done", "digest": "d-" + remote,
                    "result": {"remote": remote},
                }
            else:
                jobs[remote] = {"status": "running"}
        return 200, {"jobs": jobs, "unknown": unknown}, {}

    def finish(self, count):
        """Let the ``count`` oldest unfinished jobs complete."""
        for remote in self.specs:
            if count and remote not in self.finished:
                self.finished.add(remote)
                count -= 1


async def _until(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.005)


class TestRouterPipeline:
    """The router's dispatcher/collector pipeline against stub shards."""

    @pytest.fixture(autouse=True)
    def _close_supervisors(self):
        self._made = []
        yield
        for sup in self._made:
            for shard in sup.shards:
                shard.journal.close()
            sup.oplog.close()

    def _supervisor(self, tmp_path, **kwargs):
        from repro.obs import OpLogger
        from repro.serve.fleet import ShardSupervisor

        sup = ShardSupervisor(
            shards=1,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
            oplog=OpLogger(
                path=str(tmp_path / "fleet.oplog.jsonl"), component="fleet"
            ),
            **kwargs,
        )
        sup.shards[0].state = "up"
        sup._wakeups = {0: asyncio.Event()}
        self._made.append(sup)
        return sup

    async def _run(self, sup, stub):
        """Point shard 0 at ``stub`` and start its dispatcher."""
        sup.shards[0].port = await stub.start()
        return asyncio.ensure_future(sup._dispatch_loop(sup.shards[0]))

    async def _stop(self, sup, task, *stubs):
        task.cancel()
        collector = sup.shards[0].collector
        if collector is not None:
            collector.cancel()
        await asyncio.gather(task, collector, return_exceptions=True)
        for stub in stubs:
            await stub.stop()

    @staticmethod
    def _specs(count):
        from repro.serve import JobSpec

        return [JobSpec.from_dict(spec) for spec in tiny_specs(count)]

    def test_second_chunk_forwarded_while_first_runs(self, tmp_path):
        sup = self._supervisor(tmp_path, max_batch=2)
        stub = _StubShard()

        async def scenario():
            task = await self._run(sup, stub)
            records = await sup.submit(self._specs(4))
            await _until(
                lambda: all(r.status == "dispatched" for r in records)
            )
            # Both chunks are on the shard and nothing has finished.
            assert [len(c["jobs"]) for c in stub.chunks] == [2, 2]
            assert not stub.finished
            stub.finish(4)
            await _until(lambda: all(r.status == "done" for r in records))
            await self._stop(sup, task, stub)
            return records

        records = asyncio.run(scenario())
        # One batched poll chased all four jobs at once.
        assert max(stub.poll_sizes) == 4
        assert [r.result for r in records] == [
            {"remote": r.remote_id} for r in records
        ]
        assert not sup.jobs.live

    def test_in_flight_jobs_never_exceed_shard_queue_limit(self, tmp_path):
        sup = self._supervisor(tmp_path, max_batch=2, shard_queue_limit=3)
        stub = _StubShard()

        async def scenario():
            task = await self._run(sup, stub)
            records = await sup.submit(self._specs(7))
            await _until(lambda: len(stub.specs) == 3)
            await asyncio.sleep(0.1)
            assert len(stub.specs) == 3, "forwarded past the bound"
            assert [len(c["jobs"]) for c in stub.chunks] == [2, 1]
            assert len(sup._inflight[0]) == 3
            # Finishing one job frees exactly one slot.
            stub.finish(1)
            await _until(lambda: len(stub.specs) == 4)
            await asyncio.sleep(0.1)
            assert len(stub.specs) == 4
            while not all(r.status == "done" for r in records):
                stub.finish(1)
                await asyncio.sleep(0.02)
            await self._stop(sup, task, stub)

        asyncio.run(scenario())
        assert len(stub.specs) == 7
        assert stub.peak_unfinished == 3

    def test_backpressured_shard_requeues_whole_chunk_in_order(
        self, tmp_path
    ):
        sup = self._supervisor(tmp_path, max_batch=3, retry_after=0.01)
        stub = _StubShard(answer=429)

        async def scenario():
            sup.shards[0].port = await stub.start()
            records = await sup.submit(self._specs(4))
            chunk = sup._take_chunk(0)
            await sup._forward(sup.shards[0], chunk)
            await stub.stop()
            return records, chunk

        records, chunk = asyncio.run(scenario())
        assert [r.id for r in chunk] == [r.id for r in records[:3]]
        assert all(r.status == "queued" for r in records)
        assert [r.id for r in sup._queues[0]] == [r.id for r in records]

    def test_shard_death_with_chunks_in_flight_replays_each_job_once(
        self, tmp_path
    ):
        from repro.obs import read_oplog

        sup = self._supervisor(tmp_path, max_batch=2)
        dying = _StubShard()
        replacement = _StubShard(finish_all=True)

        async def scenario():
            task = await self._run(sup, dying)
            records = await sup.submit(self._specs(6))
            await _until(lambda: len(sup._inflight[0]) == 6)
            assert len(dying.chunks) == 3
            sup._on_shard_down(sup.shards[0], "test kill")
            assert not sup._inflight[0]
            assert all(r.status == "queued" for r in records)
            assert sorted(r.id for r in sup._queues[0]) == sorted(
                r.id for r in records
            )
            # The supervisor restarts the shard on a new port.
            shard = sup.shards[0]
            shard.port = await replacement.start()
            shard.state = "up"
            shard.breaker.record_success()
            sup._wakeups[0].set()
            await _until(lambda: all(r.status == "done" for r in records))
            await self._stop(sup, task, dying, replacement)
            return records

        records = asyncio.run(scenario())
        forwarded = [
            json.dumps(spec, sort_keys=True)
            for chunk in replacement.chunks for spec in chunk["jobs"]
        ]
        assert sorted(forwarded) == sorted(
            json.dumps(r.spec.to_dict(), sort_keys=True) for r in records
        )
        assert sup.replayed_jobs == 6
        sup.oplog.close()
        replays = [
            e["job_id"] for e in read_oplog(sup.oplog.path)
            if e["event"] == "journal_replay"
        ]
        assert sorted(replays) == sorted(r.id for r in records)
        assert all(r.attempts == 2 for r in records)

    def test_random_faults_finish_every_job_exactly_once(self, tmp_path):
        # Time-bounded stress: two shards that refuse chunks, finish
        # jobs at random, die (failover + replay) or restart silently
        # (every remote id unknown) while jobs keep arriving.  Every
        # job must finish exactly once and no bookkeeping may leak.
        import random

        from repro.serve import JobSpec
        from repro.serve.fleet import ShardSupervisor

        rng = random.Random(7)
        sup = ShardSupervisor(
            shards=2,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
            max_batch=3,
            shard_queue_limit=5,
            retry_after=0.01,
        )
        self._made.append(sup)
        sup._wakeups = {s.index: asyncio.Event() for s in sup.shards}
        stubs = []

        async def bring_up(shard):
            stub = _StubShard(rng=rng, refuse_p=0.1, finish_p=0.05)
            stubs.append(stub)
            shard.port = await stub.start()
            shard.state = "up"
            shard.breaker.record_success()
            sup._wakeups[shard.index].set()

        async def scenario():
            for shard in sup.shards:
                await bring_up(shard)
            tasks = [
                asyncio.ensure_future(sup._dispatch_loop(shard))
                for shard in sup.shards
            ]
            records = []
            for round_ in range(20):
                specs = [
                    JobSpec.from_dict(dict(TINY, seed=round_ * 10 + i))
                    for i in range(rng.randint(1, 4))
                ]
                records += await sup.submit(specs)
                await asyncio.sleep(0.02)
                shard = rng.choice(sup.shards)
                fault = rng.random()
                if fault < 0.3 and shard.state == "up":
                    sup._on_shard_down(shard, "stress kill")
                    await asyncio.sleep(0.02)
                    await bring_up(shard)
                elif fault < 0.5 and shard.state == "up":
                    await bring_up(shard)  # silent restart, new port
            await _until(
                lambda: all(r.status == "done" for r in records), 20
            )
            for task in tasks:
                task.cancel()
            await asyncio.gather(
                *tasks,
                *(s.collector for s in sup.shards if s.collector),
                return_exceptions=True,
            )
            for stub in stubs:
                await stub.stop()
            return records

        records = asyncio.run(scenario())
        assert sup.jobs.completed == len(records)
        assert sup.jobs.failed == 0
        assert not sup.jobs.live
        assert not any(sup._inflight.values())
        assert all(s.journal.live_count == 0 for s in sup.shards)
        assert [r.result for r in records] == [
            {"remote": r.remote_id} for r in records
        ]
        assert max(stub.peak_unfinished for stub in stubs) <= 5

    def test_forwarded_chunk_keeps_each_jobs_trace_id(self, tmp_path):
        # One chunk mixes two client submissions; the shard must stamp
        # each record with its own submission's trace id.
        from repro.runner import SweepRunner

        sup = self._supervisor(tmp_path)
        runner = SweepRunner(jobs=1, cache_dir=str(tmp_path / "shard"))
        with ServerThread(runner=runner) as shard_thread:
            sup.shards[0].port = shard_thread.port

            async def scenario():
                first = await sup.submit(self._specs(1), trace_id="client-a")
                second = await sup.submit(
                    self._specs(2)[1:], trace_id="client-b"
                )
                chunk = sup._take_chunk(0)
                assert len(chunk) == 2
                await sup._forward(sup.shards[0], chunk)
                # The collector stops once both jobs have landed.
                await asyncio.wait_for(sup.shards[0].collector, 60)
                return first + second

            records = asyncio.run(scenario())
            service = shard_thread.service
            remote = [service.get(r.remote_id) for r in records]
        assert [r.status for r in records] == ["done", "done"]
        assert [r.trace_id for r in records] == ["client-a", "client-b"]
        assert [r.trace_id for r in remote] == ["client-a", "client-b"]


class TestFleetSubmissionOverHTTP:
    def test_post_jobs_honours_per_job_trace_ids(self, tmp_path):
        # A router POST /jobs carrying "trace_ids" (one per job) must
        # stamp each job's record and its router admit event with its
        # own id, exactly as a single serve process does.
        import http.client

        from repro.obs import OpLogger, read_oplog
        from repro.serve.fleet import FleetApp, ShardSupervisor

        oplog_path = str(tmp_path / "fleet.oplog.jsonl")
        sup = ShardSupervisor(
            shards=1,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
            oplog=OpLogger(path=oplog_path, component="fleet"),
        )
        sup.shards[0].state = "up"
        app = FleetApp(sup)
        body = json.dumps(
            {"jobs": tiny_specs(2), "trace_ids": ["trace-one", "trace-two"]}
        )

        def post(port):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request(
                    "POST", "/jobs", body=body,
                    headers={"X-Trace-Id": "request-id",
                             "Content-Type": "application/json"},
                )
                response = conn.getresponse()
                return response.status, json.loads(response.read())
            finally:
                conn.close()

        async def scenario():
            server = await asyncio.start_server(
                app.handle_connection, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    None, post, port
                )
            finally:
                server.close()
                await server.wait_closed()

        status, doc = asyncio.run(scenario())
        sup.oplog.close()
        sup.shards[0].journal.close()
        assert status == 202
        assert doc["trace_id"] == "request-id"
        ids = [job["id"] for job in doc["jobs"]]
        expected = ["trace-one", "trace-two"]
        assert [job["trace_id"] for job in doc["jobs"]] == expected
        assert [sup.get(job_id).trace_id for job_id in ids] == expected
        admits = {
            event["job_id"]: event["trace_id"]
            for event in read_oplog(oplog_path)
            if event["event"] == "admit"
        }
        assert [admits[job_id] for job_id in ids] == expected


class TestFleetPrometheus:
    def _doc(self):
        return {
            "schema": FLEET_METRICS_SCHEMA,
            "label": "fleet",
            "uptime_seconds": 1.5,
            "fleet": {
                "shards_total": 2, "shards_up": 1, "draining": False,
                "admission_pending": 3, "admission_limit": 256,
                "jobs_submitted": 10, "jobs_completed": 7,
                "jobs_failed": 0, "jobs_rejected": 1, "failovers": 2,
                "replayed_jobs": 2, "restarts_total": 1, "recoveries": 1,
                "recovery_seconds_max": 1.25, "recovery_seconds_mean": 1.25,
                "journal_live": 3, "journal_torn_lines": 0,
                "cache": {
                    "evictions": 4, "evicted_bytes": 4096,
                    "quarantined": 1, "hits": 5, "misses": 5,
                    "size_bytes": 2048, "budget_bytes": 8192,
                },
            },
            "shards": [
                {"index": 0, "state": "up"},
                {"index": 1, "state": "down"},
            ],
        }

    def test_renders_parseable_exposition(self):
        text = prometheus_from_fleet_metrics(self._doc())
        samples = parse_prometheus_text(text)
        assert "cohort_fleet_jobs_submitted_total" in samples
        assert "cohort_fleet_failovers_total" in samples
        assert "cohort_fleet_cache_quarantined_total" in samples
        assert "cohort_fleet_shard_up" in samples

    def test_per_shard_up_gauge(self):
        text = prometheus_from_fleet_metrics(self._doc())
        assert 'cohort_fleet_shard_up{service="fleet",shard="0"} 1' in text
        assert 'cohort_fleet_shard_up{service="fleet",shard="1"} 0' in text


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet")
    thread = FleetThread(
        shards=2,
        fleet_dir=str(root / "state"),
        cache_dir=str(root / "cache"),
        health_interval=0.1,
        heartbeat_timeout=0.5,
        heartbeat_deadline=1.5,
        restart_backoff_base=0.2,
    )
    thread.start()
    yield thread
    thread.stop()


class TestFleetIntegration:
    def test_healthz_reports_all_shards_up(self, fleet):
        client = ServeClient(fleet.base_url)
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["shards_up"] == doc["shards_total"] == 2

    def test_round_trip_matches_direct_runner(self, fleet, tmp_path):
        from repro.runner import SweepRunner
        from repro.serve import JobSpec

        client = ServeClient(fleet.base_url, connect_retries=3)
        records = client.submit_and_wait([TINY], timeout=300)
        assert records[0]["status"] == "done"
        runner = SweepRunner(jobs=1, cache_dir=str(tmp_path / "ref"))
        direct = runner.run([JobSpec.from_dict(TINY).to_sweep_job()])[0]
        assert json.dumps(records[0]["result"], sort_keys=True) == (
            json.dumps(direct, sort_keys=True)
        )

    def test_metrics_document_shape(self, fleet):
        client = ServeClient(fleet.base_url)
        doc = client.metrics()
        assert doc["schema"] == FLEET_METRICS_SCHEMA
        assert doc["fleet"]["shards_total"] == 2
        assert len(doc["shards"]) == 2
        for shard in doc["shards"]:
            assert shard["journal"]["path"]

    def test_duplicate_specs_route_to_the_same_shard(self, fleet):
        client = ServeClient(fleet.base_url, connect_retries=3)
        first = client.submit([TINY])
        second = client.submit([TINY])
        client.wait([first[0]["id"], second[0]["id"]], timeout=300)
        assert (
            client.job(first[0]["id"])["shard"]
            == client.job(second[0]["id"])["shard"]
        )

    def test_sigkilled_shard_loses_no_accepted_jobs(self, fleet):
        client = ServeClient(fleet.base_url, connect_retries=5)
        accepted = client.submit(tiny_specs(6))
        ids = [doc["id"] for doc in accepted]
        victim = fleet.supervisor.shards[0]
        os.kill(victim.pid, signal.SIGKILL)
        records = client.wait(ids, timeout=300)
        assert all(
            records[job_id]["status"] == "done" for job_id in ids
        )
        # The supervisor must bring the dead shard back.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            doc = client.metrics()
            if all(s["state"] == "up" for s in doc["shards"]):
                break
            time.sleep(0.3)
        else:
            pytest.fail("killed shard was not restarted")
        fleet_doc = doc["fleet"]
        assert fleet_doc["restarts_total"] >= 1
        assert fleet_doc["recoveries"] >= 1
        assert fleet_doc["recovery_seconds_max"] > 0


class TestClientConnectRetry:
    def _free_port(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_no_retries_fails_fast_when_nothing_listens(self):
        port = self._free_port()
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=2.0)
        with pytest.raises(ServeClientError):
            client.healthz()

    def test_retries_exhausted_raises_serve_client_error(self):
        port = self._free_port()
        client = ServeClient(
            f"http://127.0.0.1:{port}", timeout=2.0,
            connect_retries=2, connect_backoff=0.01,
        )
        started = time.monotonic()
        with pytest.raises(ServeClientError, match="3 attempt"):
            client.healthz()
        # Two backoff sleeps must actually have happened.
        assert time.monotonic() - started >= 0.01

    def test_rejects_negative_retry_budget(self):
        with pytest.raises(ValueError):
            ServeClient("http://127.0.0.1:1", connect_retries=-1)

    def test_survives_server_arriving_late(self):
        """ECONNREFUSED during a shard restart window is retried."""
        port = self._free_port()
        server_box = []

        def bring_up():
            time.sleep(0.4)
            thread = ServerThread(port=port)
            thread.start()
            server_box.append(thread)

        starter = threading.Thread(target=bring_up)
        starter.start()
        try:
            client = ServeClient(
                f"http://127.0.0.1:{port}", timeout=30.0,
                connect_retries=10, connect_backoff=0.1,
            )
            doc = client.healthz()
            assert doc["status"] == "ok"
            reconnects = client.oplog.event_counts.get("client_reconnect", 0)
            assert reconnects >= 1
        finally:
            starter.join()
            for thread in server_box:
                thread.stop()


class TestLastHealthyAge:
    def _supervisor(self, tmp_path):
        from repro.serve.fleet import ShardSupervisor

        return ShardSupervisor(
            shards=1,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
        )

    def test_zero_monotonic_reading_is_a_real_age(self, tmp_path):
        # last_healthy == 0.0 is a legitimate monotonic timestamp (the
        # clock's epoch is arbitrary); only None means "never healthy".
        # The old truthiness test conflated the two and reported a
        # healthy shard as ageless.
        sup = self._supervisor(tmp_path)
        shard = sup.shards[0]
        shard.state = "up"
        shard.last_healthy = 0.0
        age = sup.metrics()["shards"][0]["last_healthy_age_s"]
        assert age is not None
        assert age > 0

    def test_never_healthy_reports_none(self, tmp_path):
        sup = self._supervisor(tmp_path)
        assert sup.shards[0].last_healthy is None
        assert sup.metrics()["shards"][0]["last_healthy_age_s"] is None

    def test_never_healthy_shard_misses_heartbeat_deadline(self, tmp_path):
        # A shard that never answered a single probe must be declared
        # down once probing starts failing — last_healthy=None cannot
        # be treated as "healthy at monotonic zero" (which, early after
        # boot, would sit inside the deadline window forever).
        sup = self._supervisor(tmp_path)
        shard = sup.shards[0]
        shard.state = "up"
        down = []
        sup._on_shard_down = lambda s, reason: down.append(reason)
        shard.proc_alive = lambda: True

        async def scenario():
            await sup._probe(shard)

        asyncio.run(scenario())
        assert down, "never-healthy shard survived a failed probe"


class TestAtomicFleetAdmission:
    def test_concurrent_oversize_submissions_cannot_both_pass(
        self, tmp_path, monkeypatch
    ):
        # submit() journals each job with an fsync on an executor
        # thread, so it yields between the admission check and the
        # record registrations.  Without reserve-before-await, two
        # concurrent 3-job submissions against admission_limit=4 both
        # read pending=0, both pass, and 6 jobs are admitted.  The
        # reservation makes exactly one lose.
        from repro.serve import JobSpec
        from repro.serve.fleet import (
            QueueFullError,
            ShardSupervisor,
            WriteAheadJournal,
        )

        sup = ShardSupervisor(
            shards=2,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
            admission_limit=4,
        )
        for shard in sup.shards:
            shard.state = "up"

        real_admit = WriteAheadJournal.admit

        def slow_admit(self, job, shard):
            time.sleep(0.05)  # a slow disk widens the race window
            return real_admit(self, job, shard)

        monkeypatch.setattr(WriteAheadJournal, "admit", slow_admit)

        def burst(base):
            return [
                JobSpec.from_dict(dict(TINY, seed=base + i))
                for i in range(3)
            ]

        async def scenario():
            return await asyncio.gather(
                sup.submit(burst(0)),
                sup.submit(burst(100)),
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        rejected = [r for r in results if isinstance(r, QueueFullError)]
        admitted = [r for r in results if isinstance(r, list)]
        assert len(rejected) == 1 and len(admitted) == 1, results
        assert len(sup.jobs.live) == 3
        assert sup.jobs_submitted == 3
        assert sup.jobs_rejected == 3


class TestFleetMonotonicDurations:
    def test_wall_clock_step_cannot_corrupt_retire_duration(
        self, tmp_path, monkeypatch
    ):
        # Same NTP-step scenario as the serve-layer test, at the fleet
        # layer: duration_ms in the retire oplog event must come from
        # the monotonic clock.  Pre-fix it was wall-clock and clamped
        # with max(0, ...) — a forward step inflated it by the step.
        import repro.serve.fleet as fleet_mod
        from repro.obs import OpLogger
        from repro.serve import JobSpec

        class SteppedTime:
            def __init__(self):
                self._real = time
                self.offset = 0.0

            def time(self):
                return self._real.time() + self.offset

            def monotonic(self):
                return self._real.monotonic()

            def __getattr__(self, name):
                return getattr(self._real, name)

        import repro.serve.service as service_mod

        clock = SteppedTime()
        # Admission stamps in the supervisor, finish stamps in JobTable.
        monkeypatch.setattr(fleet_mod, "time", clock)
        monkeypatch.setattr(service_mod, "time", clock)
        oplog_path = tmp_path / "fleet.oplog.jsonl"
        sup = fleet_mod.ShardSupervisor(
            shards=1,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
            oplog=OpLogger(path=str(oplog_path), component="fleet"),
        )
        sup.shards[0].state = "up"
        (record,) = asyncio.run(sup.submit([JobSpec.from_dict(TINY)]))
        clock.offset = 3600.0  # NTP steps +1h while the job is queued
        sup._finish(record, result={"final_cycle": 1})
        assert record.status == "done"
        assert not sup.jobs.live
        retires = [
            json.loads(line)
            for line in oplog_path.read_text().splitlines()
            if '"retire"' in line
        ]
        assert retires
        assert all(0 <= e["duration_ms"] < 60_000 for e in retires)
        # The journal/display stamp keeps wall time.
        assert record.finished_at - record.submitted_at >= 3600
