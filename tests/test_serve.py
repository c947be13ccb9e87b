"""Tests for the serving layer (repro.serve).

Unit tests drive :class:`BatchingService` directly on an event loop;
integration tests run a real :class:`ServerThread` on an ephemeral port
and talk to it over HTTP with :class:`ServeClient` — the same path the
``cohort submit`` CLI and the CI smoke script use.
"""

import asyncio
import json

import pytest

from repro.obs import SERVE_METRICS_SCHEMA, classify, summarise
from repro.runner import SweepRunner
from repro.serve import (
    BackpressureError,
    BatchingService,
    JobSpec,
    JobSpecError,
    QueueFullError,
    ServeClient,
    ServerThread,
)

TINY = dict(benchmark="fft", thetas=[60, 20, 20, 20], scale=0.05, seed=0)


def tiny_spec(**overrides):
    doc = dict(TINY)
    doc.update(overrides)
    return JobSpec.from_dict(doc)


class TestJobSpec:
    def test_round_trips_through_dict(self):
        spec = tiny_spec(protocol="timed_msi", record_latencies=True)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(JobSpecError):
            JobSpec.from_dict(dict(TINY, benchmark="linpack"))

    def test_rejects_bad_thetas(self):
        for bad in ([], "60", [60, "x"], [True, 20], None):
            with pytest.raises(JobSpecError):
                JobSpec.from_dict(dict(TINY, thetas=bad))

    def test_rejects_unknown_fields(self):
        with pytest.raises(JobSpecError):
            JobSpec.from_dict(dict(TINY, exfiltrate="yes"))

    def test_rejects_non_object(self):
        with pytest.raises(JobSpecError):
            JobSpec.from_dict([1, 2, 3])

    def test_spec_key_is_content_addressed(self):
        assert tiny_spec().spec_key() == tiny_spec().spec_key()
        assert tiny_spec().spec_key() != tiny_spec(seed=1).spec_key()

    def test_to_sweep_job_matches_direct_construction(self):
        from repro.params import cohort_config
        from repro.runner import SweepJob
        from repro.workloads import splash_traces

        job = tiny_spec().to_sweep_job()
        direct = SweepJob(
            cohort_config([60, 20, 20, 20]),
            tuple(splash_traces("fft", 4, scale=0.05, seed=0)),
        )
        assert job.digest() == direct.digest()


class TestBatchingService:
    def _service(self, **kwargs):
        kwargs.setdefault("max_batch", 4)
        kwargs.setdefault("queue_limit", 8)
        return BatchingService(SweepRunner(jobs=1, cache_dir=None), **kwargs)

    def test_submissions_coalesce_into_one_batch(self):
        async def scenario():
            service = self._service()
            await service.start()
            records = service.submit([tiny_spec(seed=s) for s in range(3)])
            while any(r.status != "done" for r in records):
                await asyncio.sleep(0.01)
            await service.drain()
            return service, records

        service, records = asyncio.run(scenario())
        assert service.batches == 1
        assert service.jobs.completed == 3
        assert {r.status for r in records} == {"done"}
        assert all(r.result["final_cycle"] > 0 for r in records)
        assert all(r.digest for r in records)

    def test_jobs_queued_during_a_batch_form_the_next_batches(self):
        # No timed window: a batch is whatever is queued, up to
        # max_batch.  Jobs submitted while a batch executes are drained
        # as the next batch, capped at max_batch, in admission order.
        import threading

        class GatedRunner:
            oplog = None

            def __init__(self):
                self.gate = threading.Event()
                self.batches = []

            def run(self, jobs, op_context=None):
                self.batches.append([c["job_id"] for c in op_context])
                self.gate.wait(30)
                return [{"final_cycle": 1} for _ in jobs]

            def telemetry(self):
                return {}

        runner = GatedRunner()

        async def scenario():
            service = BatchingService(runner, max_batch=3, queue_limit=8)
            await service.start()
            first = service.submit([tiny_spec()])
            while not runner.batches:
                await asyncio.sleep(0.005)
            # The first batch is executing; these five queue behind it.
            later = []
            for seed in range(1, 6):
                later += service.submit([tiny_spec(seed=seed)])
            runner.gate.set()
            await self._wait_done(first + later)
            await service.drain()
            return service, first, later

        service, first, later = asyncio.run(scenario())
        assert runner.batches == [
            [first[0].id],
            [r.id for r in later[:3]],
            [r.id for r in later[3:]],
        ]
        assert service.batches == 3
        assert service.jobs.completed == 6

    def test_queue_limit_rejects_with_retry_after(self):
        async def scenario():
            service = self._service(queue_limit=2)
            # Batcher NOT started: submissions stay queued.
            service.submit([tiny_spec(seed=1), tiny_spec(seed=2)])
            with pytest.raises(QueueFullError) as excinfo:
                service.submit([tiny_spec(seed=3)])
            return service, excinfo.value

        service, err = asyncio.run(scenario())
        assert err.retry_after == service.retry_after > 0
        assert service.jobs_rejected == 1
        assert service.jobs_submitted == 2

    def test_oversized_submission_is_all_or_nothing(self):
        async def scenario():
            service = self._service(queue_limit=3)
            with pytest.raises(QueueFullError):
                service.submit([tiny_spec(seed=s) for s in range(4)])
            return service

        service = asyncio.run(scenario())
        assert service.queue_depth == 0
        assert service.jobs_rejected == 4

    def test_duplicate_jobs_hit_the_runner_cache(self, tmp_path):
        async def scenario():
            runner = SweepRunner(jobs=1, cache_dir=str(tmp_path / "sweeps"))
            service = BatchingService(
                runner, max_batch=2, queue_limit=8
            )
            await service.start()
            first = service.submit([tiny_spec()])
            await self._wait_done(first)
            second = service.submit([tiny_spec(), tiny_spec()])
            await self._wait_done(second)
            await service.drain()
            return service, first + second

        service, records = asyncio.run(scenario())
        assert service.runner.cache_misses == 1
        assert service.runner.cache_hits == 2
        results = [r.result for r in records]
        assert results[0] == results[1] == results[2]

    @staticmethod
    async def _wait_done(records):
        while any(r.status not in ("done", "failed") for r in records):
            await asyncio.sleep(0.01)

    def test_drain_finishes_queued_jobs_then_refuses(self):
        async def scenario():
            service = self._service()
            await service.start()
            records = service.submit([tiny_spec()])
            await service.drain()
            assert records[0].status == "done"
            from repro.serve import DrainingError

            with pytest.raises(DrainingError):
                service.submit([tiny_spec(seed=9)])
            return service

        service = asyncio.run(scenario())
        assert service.draining

    def test_failed_batch_reports_per_job_error(self):
        async def scenario():
            service = self._service()
            await service.start()
            # Bypass from_dict validation to reach the execution path
            # with a spec the workload layer rejects.
            bad = JobSpec(benchmark="fft", thetas=(60, -7, 20, 20), scale=0.05)
            records = service.submit([bad])
            await self._wait_done(records)
            await service.drain()
            return records

        records = asyncio.run(scenario())
        assert records[0].status == "failed"
        assert records[0].error

    def test_oplog_covers_reject_and_drain(self, tmp_path):
        from repro.obs import read_oplog, OpLogger

        async def scenario():
            service = self._service(
                queue_limit=1,
                oplog=OpLogger(path=str(tmp_path / "op.jsonl")),
            )
            # Batcher not yet started: the queue slot stays taken.
            records = service.submit([tiny_spec()], trace_id="tr-ok")
            with pytest.raises(QueueFullError):
                service.submit([tiny_spec(seed=7)], trace_id="tr-full")
            await service.start()
            await self._wait_done(records)
            await service.drain()
            return service

        service = asyncio.run(scenario())
        service.oplog.close()
        events = read_oplog(service.oplog.path)
        by_event = {}
        for doc in events:
            by_event.setdefault(doc["event"], []).append(doc)
        assert by_event["admit"][0]["trace_id"] == "tr-ok"
        reject = by_event["reject"][0]
        assert reject["reason"] == "queue_full"
        assert reject["trace_id"] == "tr-full"
        assert "drain" in by_event and "drained" in by_event

    def test_metrics_shape_and_summary(self):
        async def scenario():
            service = self._service()
            await service.start()
            records = service.submit([tiny_spec()])
            await self._wait_done(records)
            await service.drain()
            return service.metrics()

        doc = json.loads(json.dumps(asyncio.run(scenario())))
        assert doc["schema"] == SERVE_METRICS_SCHEMA
        assert classify(doc) == "serve_metrics"
        assert doc["service"]["jobs_completed"] == 1
        assert doc["service"]["batches"] == 1
        assert doc["runner"]["cache_misses"] == 1
        text = summarise(doc)
        assert "serve metrics" in text and "completed=1" in text


class TestHTTPServer:
    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("serve-cache")
        runner = SweepRunner(jobs=1, cache_dir=str(cache))
        with ServerThread(
            runner=runner, max_batch=4, queue_limit=16
        ) as thread:
            yield thread

    @pytest.fixture(scope="class")
    def client(self, server):
        return ServeClient(server.base_url, timeout=30.0)

    def test_healthz(self, client):
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["queue_limit"] == 16

    def test_submit_and_poll_roundtrip(self, client):
        records = client.submit_and_wait([TINY], timeout=120)
        assert records[0]["status"] == "done"
        direct = SweepRunner(jobs=1, cache_dir=None).run(
            [tiny_spec().to_sweep_job()]
        )[0]
        assert records[0]["result"] == direct
        assert records[0]["digest"] == tiny_spec().to_sweep_job().digest()

    def test_invalid_spec_is_400(self, client):
        from repro.serve import ServeClientError

        with pytest.raises(ServeClientError) as excinfo:
            client.submit([dict(TINY, benchmark="nope")])
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, client):
        from repro.serve import ServeClientError

        with pytest.raises(ServeClientError) as excinfo:
            client.job("no-such-id")
        assert excinfo.value.status == 404

    def test_unknown_route_and_method(self, client):
        status, _, _ = client._request("GET", "/nope")
        assert status == 404
        status, _, _ = client._request("DELETE", "/jobs")
        assert status == 405

    def test_metrics_over_http(self, client):
        # Runs after submissions in this class: counters are live.
        doc = client.metrics()
        assert doc["schema"] == SERVE_METRICS_SCHEMA
        assert doc["service"]["jobs_submitted"] >= 1

    def test_malformed_json_is_400(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request(
                "POST", "/jobs", body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            response.read()
        finally:
            conn.close()


class TestTraceContextOverHTTP:
    @pytest.fixture()
    def traced_server(self, tmp_path):
        from repro.obs import OpLogger

        oplog = OpLogger(path=str(tmp_path / "op.jsonl"))
        runner = SweepRunner(jobs=1, cache_dir=str(tmp_path / "cache"))
        with ServerThread(
            runner=runner, max_batch=4,
            queue_limit=16, oplog=oplog,
        ) as thread:
            yield thread

    def test_one_trace_id_end_to_end(self, traced_server):
        """The acceptance path: one id in the HTTP response header and
        body, the result envelope, the oplog, and the exported trace."""
        from repro.obs import read_oplog

        client = ServeClient(traced_server.base_url, timeout=30.0)
        supplied = "trace-e2e-0001"
        records = client.submit_and_wait(
            [TINY], timeout=120, trace_id=supplied
        )
        assert records[0]["status"] == "done"
        assert records[0]["trace_id"] == supplied  # result envelope
        status, headers, doc = client._request(
            "GET", f"/jobs/{records[0]['id']}"
        )
        assert status == 200 and doc["trace_id"] == supplied
        service = traced_server.service
        service.oplog.close()
        events = read_oplog(service.oplog.path)
        chain = [e["event"] for e in events if e.get("trace_id") == supplied]
        assert "admit" in chain and "batch" in chain and "retire" in chain
        assert "execute" in chain or "cache_hit" in chain  # runner side
        trace_doc = service.service_trace()
        spans = [
            e for e in trace_doc["traceEvents"]
            if e.get("args", {}).get("trace_id") == supplied
        ]
        assert spans, "exported service trace lost the trace id"

    def test_response_header_echoes_trace_id(self, traced_server):
        client = ServeClient(traced_server.base_url, timeout=30.0)
        status, headers, doc = client._request(
            "POST", "/jobs", {"jobs": [TINY]},
            extra_headers={"X-Trace-Id": "my.trace-42"},
        )
        assert status == 202
        lower = {k.lower(): v for k, v in headers.items()}
        assert lower["x-trace-id"] == "my.trace-42"
        assert doc["trace_id"] == "my.trace-42"
        assert all(j["trace_id"] == "my.trace-42" for j in doc["jobs"])

    def test_invalid_header_gets_fresh_id_not_an_error(self, traced_server):
        from repro.obs import valid_trace_id

        client = ServeClient(traced_server.base_url, timeout=30.0)
        status, headers, doc = client._request(
            "POST", "/jobs", {"jobs": [TINY]},
            extra_headers={"X-Trace-Id": "bad id with spaces"},
        )
        assert status == 202
        minted = doc["trace_id"]
        assert minted != "bad id with spaces"
        assert valid_trace_id(minted)

    def test_error_responses_carry_trace_id(self, traced_server):
        client = ServeClient(traced_server.base_url, timeout=30.0)
        status, headers, doc = client._request(
            "POST", "/jobs", {"jobs": [dict(TINY, benchmark="nope")]},
            extra_headers={"X-Trace-Id": "err-trace"},
        )
        assert status == 400
        assert doc["trace_id"] == "err-trace"
        lower = {k.lower(): v for k, v in headers.items()}
        assert lower["x-trace-id"] == "err-trace"

    def test_per_job_trace_ids_fall_back_to_the_request(self, traced_server):
        # A forwarded chunk names each job's trace id; a missing or
        # invalid entry takes the request's X-Trace-Id instead.
        client = ServeClient(traced_server.base_url, timeout=30.0)
        status, _, doc = client._request(
            "POST", "/jobs",
            {"jobs": [TINY, dict(TINY, seed=1), dict(TINY, seed=2)],
             "trace_ids": ["job-a", "bad id"]},
            extra_headers={"X-Trace-Id": "request-1"},
        )
        assert status == 202
        assert doc["trace_id"] == "request-1"
        assert [j["trace_id"] for j in doc["jobs"]] == [
            "job-a", "request-1", "request-1",
        ]
        service = traced_server.service
        for job in doc["jobs"]:
            assert service.get(job["id"]).trace_id == job["trace_id"]

    def test_non_list_trace_ids_is_a_bad_request(self, traced_server):
        client = ServeClient(traced_server.base_url, timeout=30.0)
        status, _, doc = client._request(
            "POST", "/jobs", {"jobs": [TINY], "trace_ids": "job-a"},
        )
        assert status == 400
        assert "trace_ids" in doc["error"]

    def test_client_oplog_records_submission(self, traced_server, tmp_path):
        from repro.obs import OpLogger, read_oplog

        log_path = tmp_path / "client.jsonl"
        client = ServeClient(
            traced_server.base_url, timeout=30.0,
            oplog=OpLogger(path=str(log_path), component="client"),
        )
        client.submit([TINY], trace_id="client-side-1")
        client.oplog.close()
        events = read_oplog(str(log_path))
        kinds = [e["event"] for e in events]
        assert kinds == ["client_submit", "client_accepted"]
        assert all(e["trace_id"] == "client-side-1" for e in events)
        assert all(e["component"] == "client" for e in events)


class TestPrometheusOverHTTP:
    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("prom-cache")
        runner = SweepRunner(jobs=1, cache_dir=str(cache))
        with ServerThread(
            runner=runner, max_batch=4, queue_limit=16
        ) as thread:
            client = ServeClient(thread.base_url, timeout=30.0)
            client.submit_and_wait([TINY], timeout=120)
            yield thread

    @staticmethod
    def _get(server, path, accept=None):
        import http.client

        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        try:
            headers = {"Accept": accept} if accept else {}
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            body = response.read().decode()
            return response.status, dict(response.getheaders()), body
        finally:
            conn.close()

    def test_format_query_param_switches_to_exposition(self, server):
        from repro.obs import parse_prometheus_text

        status, headers, body = self._get(
            server, "/metrics?format=prometheus"
        )
        assert status == 200
        lower = {k.lower(): v for k, v in headers.items()}
        assert lower["content-type"].startswith("text/plain; version=0.0.4")
        families = parse_prometheus_text(body)
        labels, value = families["cohort_serve_jobs_completed_total"][0]
        assert value >= 1.0
        assert labels["service"]
        assert "cohort_serve_queue_wait_ms_bucket" in families

    def test_accept_header_negotiates_exposition(self, server):
        from repro.obs import parse_prometheus_text

        status, _, body = self._get(server, "/metrics", accept="text/plain")
        assert status == 200
        assert parse_prometheus_text(body)

    def test_json_stays_the_default_and_byte_compatible(self, server):
        status, headers, body = self._get(server, "/metrics")
        assert status == 200
        doc = json.loads(body)
        assert doc["schema"] == SERVE_METRICS_SCHEMA
        status, _, body = self._get(
            server, "/metrics", accept="application/json"
        )
        assert json.loads(body)["schema"] == SERVE_METRICS_SCHEMA

    def test_exposition_numbers_match_json(self, server):
        from repro.obs import parse_prometheus_text

        _, _, json_body = self._get(server, "/metrics")
        _, _, prom_body = self._get(server, "/metrics?format=prometheus")
        doc = json.loads(json_body)
        families = parse_prometheus_text(prom_body)
        assert (
            families["cohort_serve_jobs_submitted_total"][0][1]
            == float(doc["service"]["jobs_submitted"])
        )
        assert (
            families["cohort_runner_cache_misses_total"][0][1]
            == float(doc["runner"]["cache_misses"])
        )


class TestClientBackoff:
    def test_delay_doubles_with_attempts_within_jitter(self):
        for attempt, base in ((1, 1.0), (2, 2.0), (3, 4.0)):
            for _ in range(50):
                delay = ServeClient._backoff_delay(1.0, attempt, 30.0)
                assert 0.75 * base <= delay <= 1.25 * base

    def test_delay_clamped_to_max_backoff(self):
        for _ in range(50):
            assert ServeClient._backoff_delay(100.0, 5, 2.5) == 2.5

    def test_zero_hint_still_yields_positive_delay(self):
        delay = ServeClient._backoff_delay(0.0, 1, 30.0)
        assert 0.001 <= delay <= 0.00125 + 1e-9

    def test_jitter_actually_varies(self):
        draws = {
            round(ServeClient._backoff_delay(1.0, 1, 30.0), 6)
            for _ in range(50)
        }
        assert len(draws) > 1


class TestBackpressureOverHTTP:
    def test_full_queue_returns_429_then_recovers(self):
        # A server whose batcher can drain only slowly.  An oversized
        # all-or-nothing burst guarantees a 429 + Retry-After whatever
        # the drain speed; the per-spec loop then rides bounded retries
        # through any organic saturation until every job lands.
        runner = SweepRunner(jobs=1, cache_dir=None)
        with ServerThread(
            runner=runner, max_batch=1, queue_limit=2
        ) as thread:
            client = ServeClient(thread.base_url, timeout=30.0)
            with pytest.raises(BackpressureError) as excinfo:
                client.submit([dict(TINY, seed=90 + s) for s in range(3)])
            assert excinfo.value.retry_after > 0
            assert excinfo.value.status == 429
            specs = [dict(TINY, seed=s) for s in range(12)]
            accepted = []
            for spec in specs:
                accepted.extend(
                    client.submit([spec], max_retries=50, backoff=0.05)
                )
            records = client.wait(
                [doc["id"] for doc in accepted], timeout=300
            )
            assert all(r["status"] == "done" for r in records.values())
            metrics = client.metrics()
            assert metrics["service"]["jobs_rejected"] >= 3
            assert metrics["service"]["jobs_completed"] == len(specs)


class TestBatchPolling:
    """POST /jobs/poll and the batched client paths built on it."""

    def test_poll_jobs_returns_known_and_rejects_unknown(self):
        with ServerThread(runner=SweepRunner(jobs=1, cache_dir=None)) as t:
            client = ServeClient(t.base_url, timeout=30.0)
            accepted = client.submit([dict(TINY, seed=s) for s in range(3)])
            ids = [doc["id"] for doc in accepted]
            client.wait(ids, timeout=300)
            records = client.poll_jobs(ids)
            assert set(records) == set(ids)
            assert all(r["status"] == "done" for r in records.values())
            assert all("result" in r for r in records.values())
            slim = client.poll_jobs(ids, include_result=False)
            assert all("result" not in r for r in slim.values())
            from repro.serve import ServeClientError

            with pytest.raises(ServeClientError) as excinfo:
                client.poll_jobs(ids + ["nope"])
            assert excinfo.value.status == 404

    def test_wait_falls_back_when_batch_endpoint_is_missing(self):
        # A server that 404s /jobs/poll (an old deployment): wait must
        # still finish via per-job GETs.
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class OldServer(BaseHTTPRequestHandler):
            def _reply(self, status, doc):
                body = json.dumps(doc).encode()
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                self._reply(404, {"error": "no route"})

            def do_GET(self):
                job_id = self.path.rsplit("/", 1)[-1]
                self._reply(200, {"id": job_id, "status": "done"})

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), OldServer)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            client = ServeClient(
                f"http://127.0.0.1:{server.server_address[1]}", timeout=5.0
            )
            records = client.wait(["a", "b", "c"], timeout=10.0)
            assert set(records) == {"a", "b", "c"}
        finally:
            server.shutdown()


class TestWaitDeadline:
    def test_deadline_is_enforced_inside_one_pass(self):
        # Pre-fix, the deadline was only checked *between* full passes
        # over the pending list, and each pass issued one blocking GET
        # per job: 8 pending jobs at 0.15s each meant a 0.4s timeout
        # returned after ~1.2s.  The fix checks the deadline before
        # every HTTP round-trip, so the overrun is bounded by one
        # request, not by the fan-out.
        import threading
        import time as _time
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class SlowJobServer(BaseHTTPRequestHandler):
            def _reply(self, status, doc):
                body = json.dumps(doc).encode()
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):  # no batch endpoint: force per-job GETs
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                self._reply(404, {"error": "no route"})

            def do_GET(self):
                _time.sleep(0.15)
                job_id = self.path.rsplit("/", 1)[-1]
                self._reply(200, {"id": job_id, "status": "running"})

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), SlowJobServer)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            client = ServeClient(
                f"http://127.0.0.1:{server.server_address[1]}", timeout=5.0
            )
            start = _time.monotonic()
            with pytest.raises(TimeoutError) as excinfo:
                client.wait(
                    [f"job-{i}" for i in range(8)], timeout=0.4, poll=0.01
                )
            elapsed = _time.monotonic() - start
        finally:
            server.shutdown()
        assert "still pending" in str(excinfo.value)
        assert elapsed < 1.0, (
            f"wait overran its 0.4s deadline by {elapsed - 0.4:.2f}s — "
            "deadline not enforced inside the polling pass"
        )


class _SteppedTime:
    """``time``-module stand-in: steppable wall clock, real monotonic."""

    def __init__(self):
        import time as _real

        self._real = _real
        self.offset = 0.0

    def time(self):
        return self._real.time() + self.offset

    def monotonic(self):
        return self._real.monotonic()

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestMonotonicDurations:
    def test_wall_clock_step_cannot_corrupt_queue_wait_or_duration(
        self, tmp_path, monkeypatch
    ):
        # An NTP step of +1h between admission and execution must not
        # show up in queue-wait or duration_ms: both derive from the
        # monotonic clock; the wall clock is display/journal only.
        import repro.serve.service as service_mod
        from repro.obs import OpLogger

        clock = _SteppedTime()
        monkeypatch.setattr(service_mod, "time", clock)
        oplog_path = tmp_path / "serve.oplog.jsonl"

        async def scenario():
            service = BatchingService(
                SweepRunner(jobs=1, cache_dir=None),
                max_batch=4, queue_limit=8,
                oplog=OpLogger(path=str(oplog_path), component="serve"),
            )
            records = service.submit([tiny_spec()])
            clock.offset = 3600.0  # the NTP step lands mid-queue
            await service.start()
            while any(r.status not in ("done", "failed") for r in records):
                await asyncio.sleep(0.01)
            await service.drain()
            return service, records

        service, records = asyncio.run(scenario())
        assert records[0].status == "done"
        assert service._queue_wait_ms.max < 60_000
        assert service.metrics()["service"]["queue_wait_ms_p95"] < 60_000
        retires = [
            json.loads(line)
            for line in oplog_path.read_text().splitlines()
            if '"retire"' in line
        ]
        assert retires
        assert all(0 <= e["duration_ms"] < 60_000 for e in retires)
        # Wall-clock journal fields keep the stepped time (display).
        assert records[0].finished_at - records[0].submitted_at >= 3600


class TestAtomicAdmission:
    def test_concurrent_bursts_never_overshoot_queue_limit(self):
        # submit() is loop-atomic (no awaits between the limit check
        # and the final append), so interleaved oversize bursts admit
        # at most queue_limit jobs and reject the rest whole.
        async def scenario():
            service = BatchingService(
                SweepRunner(jobs=1, cache_dir=None),
                max_batch=4, queue_limit=8,
            )

            async def burst(seed0):
                await asyncio.sleep(0)
                try:
                    return service.submit(
                        [tiny_spec(seed=seed0 + i) for i in range(6)]
                    )
                except QueueFullError as exc:
                    return exc

            results = await asyncio.gather(burst(0), burst(100))
            return service, results

        service, results = asyncio.run(scenario())
        rejected = [r for r in results if isinstance(r, QueueFullError)]
        admitted = [r for r in results if isinstance(r, list)]
        assert len(rejected) == 1 and len(admitted) == 1
        assert service.max_queue_depth <= 8
        assert service.queue_depth == 6
