"""Load generator for ``cohort serve``: batching + caching amortisation.

Eight concurrent clients hammer one in-process serve instance with
overlapping sweep submissions and the test asserts the serving layer's
contract end to end:

* every result is byte-identical to a direct ``SweepRunner.run`` of the
  same jobs (the service adds batching, never noise);
* duplicate submissions are served from the shared result cache (hit
  rate asserted);
* submissions coalesce into multi-job batches (amortisation);
* a saturated admission queue answers with backpressure (429 +
  Retry-After) instead of accepting unbounded work.
"""

import json
import threading

from repro.runner import SweepRunner
from repro.serve import BackpressureError, ServeClient, ServerThread

from conftest import emit, run_once

#: Each client submits every one of these (overlapping) jobs.
N_CLIENTS = 8
THETA_SETS = [
    [60, 20, 20, 20],
    [120, 20, 20, 20],
    [120, 60, 20, 20],
    [120, 60, 60, 20],
    [120, 60, 60, 60],
    [300, 60, 60, 60],
]
SPEC_SCALE = 0.1


def specs():
    return [
        {"benchmark": "fft", "thetas": thetas, "scale": SPEC_SCALE, "seed": 0}
        for thetas in THETA_SETS
    ]


def test_serve_throughput(benchmark, tmp_path):
    cache = str(tmp_path / "serve-cache")
    runner = SweepRunner(jobs=2, cache_dir=cache, mp_context="fork")

    def drive():
        with ServerThread(
            runner=runner, max_batch=16, queue_limit=128
        ) as server:
            url = server.base_url
            results = [None] * N_CLIENTS
            errors = []

            def client_main(index):
                try:
                    client = ServeClient(url, timeout=60.0)
                    records = client.submit_and_wait(
                        specs(), max_retries=20, timeout=600
                    )
                    results[index] = [r["result"] for r in records]
                except Exception as exc:  # surfaced after join
                    errors.append((index, exc))

            threads = [
                threading.Thread(target=client_main, args=(i,))
                for i in range(N_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            assert not errors, f"client failures: {errors}"
            metrics = ServeClient(url, timeout=30.0).metrics()
        return results, metrics

    results, metrics = run_once(benchmark, drive)

    # 1. Byte-identical to a direct SweepRunner.run of the same jobs.
    from repro.serve import JobSpec

    direct_jobs = [JobSpec.from_dict(doc).to_sweep_job() for doc in specs()]
    direct = SweepRunner(jobs=1, cache_dir=None).run(direct_jobs)
    direct_bytes = json.dumps(direct, sort_keys=True)
    for client_results in results:
        assert json.dumps(client_results, sort_keys=True) == direct_bytes

    # 2. Duplicate submissions served from the shared cache: 48 jobs
    #    submitted, only the 6 distinct ones simulated.
    service = metrics["service"]
    runner_tel = metrics["runner"]
    total_jobs = N_CLIENTS * len(THETA_SETS)
    assert service["jobs_completed"] == total_jobs
    assert runner_tel["cache_misses"] == len(THETA_SETS)
    assert runner_tel["cache_hits"] == total_jobs - len(THETA_SETS)
    assert runner_tel["cache_hit_rate"] >= 0.8

    # 3. Batching amortisation: strictly fewer batches than jobs.
    assert service["batches"] < total_jobs
    assert service["jobs_dispatched"] == total_jobs

    emit(
        "serve_throughput",
        "\n".join(
            [
                f"serve throughput: {N_CLIENTS} clients x "
                f"{len(THETA_SETS)} jobs = {total_jobs} submissions",
                f"  batches={service['batches']} "
                f"(max_batch={service['max_batch']}) "
                f"p95_batch<={service['batch_size_p95']}",
                f"  cache: hits={runner_tel['cache_hits']} "
                f"misses={runner_tel['cache_misses']} "
                f"hit_rate={runner_tel['cache_hit_rate']:.3f}",
                f"  p95_queue_wait_ms<={service['queue_wait_ms_p95']}",
            ]
        ),
        payload={"service": service, "runner": runner_tel},
    )


def test_serve_backpressure(benchmark):
    # A deliberately tiny queue in front of a serial runner: flooding it
    # must produce 429s, and honouring Retry-After must land every job.
    runner = SweepRunner(jobs=1, cache_dir=None)

    def drive():
        with ServerThread(
            runner=runner, max_batch=1, queue_limit=2
        ) as server:
            client = ServeClient(server.base_url, timeout=60.0)
            rejections = 0
            accepted = []
            flood = [
                {"benchmark": "fft", "thetas": [60, 20, 20, 20],
                 "scale": SPEC_SCALE, "seed": seed}
                for seed in range(10)
            ]
            for spec in flood:
                try:
                    accepted.extend(client.submit([spec]))
                except BackpressureError as exc:
                    rejections += 1
                    assert exc.retry_after > 0
                    accepted.extend(
                        client.submit([spec], max_retries=100, backoff=0.05)
                    )
            records = client.wait(
                [doc["id"] for doc in accepted], timeout=600
            )
            metrics = client.metrics()
        return rejections, records, metrics

    rejections, records, metrics = run_once(benchmark, drive)
    assert rejections >= 1, "flood never saw backpressure"
    assert all(r["status"] == "done" for r in records.values())
    assert metrics["service"]["jobs_rejected"] >= rejections
    assert metrics["service"]["max_queue_depth"] <= 2
    emit(
        "serve_backpressure",
        f"serve backpressure: {rejections} rejection(s) while flooding a "
        f"queue_limit=2 server with 10 jobs; all jobs completed after "
        f"honouring Retry-After "
        f"(max_queue_depth={metrics['service']['max_queue_depth']})",
    )
