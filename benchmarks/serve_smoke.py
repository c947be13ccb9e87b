"""CI smoke test for ``cohort serve``: the real process, the real signal.

Starts ``python -m repro.cli serve`` as a subprocess (with the
operational log and service-trace export enabled), has two concurrent
clients submit the same batch (round 1), repeats the batch (round 2,
which must be >= 90% cache hits), sends one probe request with an
explicit ``X-Trace-Id`` and follows that id end to end (response
header, result envelope, oplog, exported Perfetto trace), saves a
``/metrics`` snapshot plus its Prometheus exposition, then sends
SIGTERM and requires a clean graceful drain (exit code 0, final
metrics snapshot written).

The assertions live in the shipped gate specs
(``repro/qa/specs/serve.json`` and ``repro/qa/specs/slo.json``): this
script only *measures* — request failures, cross-client mismatches,
the warm-round hit rate, the drain exit code, trace propagation — and
computes the SLO inputs from the oplog.  Manifests
(``serve_smoke.manifest.json``, ``serve_smoke.slo.manifest.json``) and
verdict reports (``*.verdict.json``) land in the artifact directory for
CI to archive and re-gate with ``cohort gate run``.

Exit code is the worst gate verdict — non-zero on any failing question.

    PYTHONPATH=src python benchmarks/serve_smoke.py [artifact_dir]
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs import compute_slo, parse_prometheus_text  # noqa: E402
from repro.obs import read_oplog  # noqa: E402
from repro.obs.ops import render_slo  # noqa: E402
from repro.obs.validate import validate_file  # noqa: E402
from repro.qa import build_manifest, evaluate_spec, load_spec  # noqa: E402
from repro.qa import write_manifest  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

PROBE_TRACE_ID = "serve-smoke-probe-trace"

PORT = int(os.environ.get("SERVE_SMOKE_PORT", "8791"))
ART_DIR = sys.argv[1] if len(sys.argv) > 1 else "serve-artifacts"

SPECS = [
    {"benchmark": "fft", "thetas": thetas, "scale": 0.1, "seed": 0}
    for thetas in (
        [60, 20, 20, 20],
        [120, 60, 20, 20],
        [300, 60, 60, 60],
    )
]


def fail(message):
    """Harness machinery broke — not a gate verdict, just die."""
    print(f"serve_smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def wait_healthy(client, deadline=30.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            doc = client.healthz()
            if doc["status"] == "ok":
                return
        except Exception:
            pass
        time.sleep(0.2)
    fail("server never became healthy")


def submit_round(client, label):
    """Two concurrent clients submit the same batch.

    Returns ``(failures, mismatches)`` — jobs that did not land, and
    whether the two clients disagreed on results — for the gate spec to
    judge; only harness breakage (a client thread never finishing)
    aborts directly.
    """
    outcomes = [None, None]

    def one_client(slot):
        local = ServeClient(f"http://127.0.0.1:{PORT}", timeout=60.0)
        outcomes[slot] = local.submit_and_wait(
            SPECS, max_retries=20, timeout=300
        )

    threads = [
        threading.Thread(target=one_client, args=(slot,)) for slot in (0, 1)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    failures = 0
    for slot, records in enumerate(outcomes):
        if records is None:
            fail(f"{label}: client {slot} did not finish")
        for record in records:
            if record["status"] != "done":
                print(
                    f"serve_smoke: {label}: job {record['id']} -> "
                    f"{record['status']} ({record['error']})",
                    file=sys.stderr,
                )
                failures += 1
    payloads = [
        json.dumps([r["result"] for r in records], sort_keys=True)
        for records in outcomes
    ]
    mismatches = 0 if payloads[0] == payloads[1] else 1
    if mismatches:
        print(f"serve_smoke: {label}: the two clients disagree on results",
              file=sys.stderr)
    print(f"serve_smoke: {label} measured "
          f"({2 * len(SPECS)} jobs across 2 clients, "
          f"{failures} failures, {mismatches} mismatches)")
    return failures, mismatches


def probe_trace(client):
    """Submit one job with an explicit trace id; measure propagation.

    Returns ``(header_ok, envelope_ok)`` — whether the 202 response
    echoed ``X-Trace-Id`` (header and body) and whether the final
    result envelope carried the same id.  The oplog/trace-file halves
    of the check run after drain, once those artefacts are flushed.
    """
    status, headers, doc = client._request(
        "POST", "/jobs", {"jobs": [SPECS[0]]},
        extra_headers={"X-Trace-Id": PROBE_TRACE_ID},
    )
    if status != 202 or not isinstance(doc, dict):
        fail(f"probe submission returned {status}")
    lower = {key.lower(): value for key, value in headers.items()}
    header_ok = (
        lower.get("x-trace-id") == PROBE_TRACE_ID
        and doc.get("trace_id") == PROBE_TRACE_ID
    )
    finished = client.wait([job["id"] for job in doc["jobs"]], timeout=120)
    envelope_ok = all(
        record["trace_id"] == PROBE_TRACE_ID
        for record in finished.values()
    )
    return header_ok, envelope_ok


def scrape_prometheus(client, out_path):
    """GET /metrics?format=prometheus, check it parses, archive it."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", PORT, timeout=30)
    try:
        conn.request("GET", "/metrics?format=prometheus")
        response = conn.getresponse()
        body = response.read().decode()
    finally:
        conn.close()
    if response.status != 200:
        fail(f"prometheus scrape returned {response.status}")
    try:
        families = parse_prometheus_text(body)
    except ValueError as exc:
        fail(f"prometheus exposition does not parse: {exc}")
    with open(out_path, "w") as fh:
        fh.write(body)
    print(f"serve_smoke: prometheus scrape OK ({len(families)} families)")


def main():
    os.makedirs(ART_DIR, exist_ok=True)
    final_metrics = os.path.join(ART_DIR, "final.metrics.json")
    oplog_path = os.path.join(ART_DIR, "serve.oplog.jsonl")
    trace_path = os.path.join(ART_DIR, "serve.trace.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", str(PORT), "--jobs", "2",
            "--max-batch", "8",
            "--queue-limit", "32",
            "--cache-dir", os.path.join(ART_DIR, "cache"),
            "--metrics-out", final_metrics,
            "--oplog", oplog_path,
            "--trace-out", trace_path,
        ],
        env=env,
    )
    try:
        client = ServeClient(f"http://127.0.0.1:{PORT}", timeout=30.0)
        wait_healthy(client)

        round1_failures, round1_mismatches = submit_round(client, "round 1")
        before = client.metrics()["runner"]
        round2_failures, round2_mismatches = submit_round(
            client, "round 2 (duplicate)"
        )
        after = client.metrics()

        delta_hits = after["runner"]["cache_hits"] - before["cache_hits"]
        delta_misses = (
            after["runner"]["cache_misses"] - before["cache_misses"]
        )
        round2_jobs = 2 * len(SPECS)
        hit_rate = delta_hits / round2_jobs
        print(f"serve_smoke: round-2 cache hits {delta_hits}/{round2_jobs} "
              f"(misses {delta_misses})")

        header_ok, envelope_ok = probe_trace(client)
        after = client.metrics()

        metrics_snapshot = os.path.join(ART_DIR, "metrics.json")
        with open(metrics_snapshot, "w") as fh:
            json.dump(after, fh, indent=2)
        scrape_prometheus(
            client, os.path.join(ART_DIR, "metrics.prom.txt")
        )

        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        snapshot_written = os.path.exists(final_metrics)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    # The probe id must also survive into the flushed artefacts: the
    # oplog (admit → retire) and the exported Perfetto service trace.
    for artefact in (oplog_path, trace_path):
        errors = validate_file(artefact)
        if errors:
            fail(f"artefact failed schema validation: {errors[:3]}")
    oplog_events = read_oplog(oplog_path)
    probe_events = {
        event["event"] for event in oplog_events
        if event.get("trace_id") == PROBE_TRACE_ID
    }
    oplog_ok = {"admit", "retire"} <= probe_events
    with open(trace_path) as fh:
        trace_doc = json.load(fh)
    trace_ok = any(
        event.get("args", {}).get("trace_id") == PROBE_TRACE_ID
        for event in trace_doc.get("traceEvents", [])
    )
    trace_propagation_ok = (
        header_ok and envelope_ok and oplog_ok and trace_ok
    )
    print(
        "serve_smoke: trace propagation "
        f"header={header_ok} envelope={envelope_ok} "
        f"oplog={oplog_ok} trace={trace_ok}"
    )

    artifacts = [metrics_snapshot, oplog_path, trace_path]
    if snapshot_written:
        artifacts.append(final_metrics)
    manifest = build_manifest(
        "serve_smoke", f"2 clients x {len(SPECS)} jobs x 2 rounds",
        metrics={
            "round1_failures": round1_failures,
            "round2_failures": round2_failures,
            "client_mismatches": round1_mismatches + round2_mismatches,
            "round2_hit_rate": hit_rate,
            "round2_cache_misses": delta_misses,
            "drain_exit_code": code,
            "final_snapshot_written": snapshot_written,
            "trace_propagation_ok": trace_propagation_ok,
        },
        engine=after["runner"]["engine"],
        artifact_paths=artifacts,
        environment={"port": PORT, "jobs": 2},
    )
    write_manifest(
        manifest, os.path.join(ART_DIR, "serve_smoke.manifest.json")
    )
    report = evaluate_spec(load_spec("serve"), manifest)
    with open(os.path.join(ART_DIR, "serve_smoke.verdict.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(report.render())

    # Second verdict: the SLO gate over the whole run's oplog.
    slo_metrics = compute_slo(oplog_events)
    print(render_slo(slo_metrics))
    slo_manifest = build_manifest(
        "slo", "serve_smoke oplog",
        metrics=slo_metrics,
        artifact_paths=[oplog_path],
        environment={"port": PORT, "jobs": 2},
    )
    write_manifest(
        slo_manifest, os.path.join(ART_DIR, "serve_smoke.slo.manifest.json")
    )
    slo_report = evaluate_spec(load_spec("slo"), slo_manifest)
    slo_verdict = os.path.join(ART_DIR, "serve_smoke.slo.verdict.json")
    with open(slo_verdict, "w") as fh:
        json.dump(slo_report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(slo_report.render())
    sys.exit(max(report.exit_code, slo_report.exit_code))


if __name__ == "__main__":
    main()
