"""Benchmark entry point: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--workload all`` runs every workload in
turn.  With ``--trace 0`` the result line carries the end-to-end
metrics; with ``--trace 1`` a separate traced run gives the per-layer
metrics.  Every run checks the program's outputs first and exits
non-zero, without a result line, if a check fails or the program is
missing.  Raw per-job spans and the full record of each run are written
under ``.perfbench_out/`` in the current directory.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import BenchError, RunResult, self_test  # noqa: E402

WORKLOADS = ("serve_warm", "serve_cold", "sweep")


def _src_dir() -> str:
    """The program's source tree, which must sit beside the benchmark."""
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise BenchError(f"program sources not found at {src}")
    return src


async def _serve(kind: str, seed: int, seconds: float, trace: bool,
                 src: str, work: str, out: str) -> RunResult:
    import serve
    from fleet import STOP_TIMEOUT, FleetProcess

    warm = kind == "serve_warm"
    population = serve.warm_population() if warm else None
    result = RunResult(workload=kind)
    fleets = []
    phases = result.details.setdefault("phases_s", [])
    clock = [time.perf_counter()]

    def mark(name: str) -> None:
        now = time.perf_counter()
        phases.append((name, round(now - clock[0], 3)))
        clock[0] = now

    async def start(name: str, oplog: bool) -> tuple:
        fleet_dir = os.path.join(work, name)
        fleet = FleetProcess(
            src, fleet_dir,
            oplog=os.path.join(fleet_dir, "router.oplog.jsonl") if oplog
            else None,
        )
        fleets.append(fleet)
        setup_s = await fleet.start()
        if warm:
            setup_s += await serve.warm_up(fleet, population)
        return fleet, setup_s

    async def measure(fleet, window: float):
        if warm:
            return await serve.warm_pass(fleet, window, seed, population)
        return await serve.cold_pass(fleet, window, seed)

    def stop(fleet) -> None:
        if fleet.proc is None:
            return
        forced = fleet.stop()
        if forced is not None:
            # A fleet that ignores SIGTERM is a finding about the
            # program, not about this run's measurements: keep the
            # evidence and say so, but do not fail the run for it.
            result.details.setdefault("forced_stops", []).append(forced)
            print(f"perfbench: {fleet.fleet_dir}: router did not drain "
                  f"within {STOP_TIMEOUT:.0f} s and was killed",
                  file=sys.stderr)
        mark("stop")

    try:
        if not trace:
            setups = []
            for k in range(serve.SETUPS):
                if fleets:
                    stop(fleets[-1])
                fleet, setup_s = await start(f"fleet-{k}", oplog=False)
                setups.append(setup_s)
                mark("setup")
            run = await measure(fleet, seconds)
            mark("window+drain")
            checked = await serve.check_pass(
                result, fleet, run, seed, kind, warm
            )
            mark("checks")
            serve.count_failures(result, run)
            serve.e2e_metrics(result, run, setups, warm)
            serve.traffic(result, run, checked)
            return result
        # Traced run: an untraced half window for the overhead baseline,
        # then a half window with the router oplog on.
        plain_fleet, setup_s = await start("plain", oplog=False)
        plain = await measure(plain_fleet, seconds / 2.0)
        await serve.check_pass(result, plain_fleet, plain, seed,
                               f"{kind} untraced", warm)
        serve.count_failures(result, plain)
        baseline = RunResult(workload=kind)
        serve.e2e_metrics(baseline, plain, [setup_s], warm)
        stop(plain_fleet)
        fleet, setup_s = await start("traced", oplog=True)
        run = await measure(fleet, seconds / 2.0)
        checked = await serve.check_pass(result, fleet, run, seed,
                                         f"{kind} traced", warm)
        serve.count_failures(result, run)
        traced = RunResult(workload=kind)
        serve.e2e_metrics(traced, run, [setup_s], warm)
        serve.traffic(result, run, checked)
        serve.layer_metrics(result, run, checked,
                            os.path.join(out, "spans.jsonl"), fleet)
        client_layers(result, run.jobs)
        headline = "e2e_p50_ms" if warm else "jobs_per_s"
        ratio = traced.metrics[headline][0] / baseline.metrics[headline][0]
        # Overhead as a cost: a slower traced run reads positive.
        result.put("trace.overhead",
                   ratio - 1.0 if warm else 1.0 / ratio - 1.0, "ratio")
        result.details["trace_overhead_base"] = {
            "metric": headline,
            "untraced": baseline.metrics[headline][0],
            "traced": traced.metrics[headline][0],
        }
        return result
    finally:
        for fleet in fleets:
            stop(fleet)


def client_layers(result: RunResult, jobs) -> None:
    """The benchmark's own client layer: offered jobs and failures."""
    offered = len(jobs)
    failed = sum(1 for j in jobs if j.status != "done")
    result.put("client.jobs_offered", offered, "count")
    result.put("client.fail_ratio", failed / offered if offered else 0.0,
               "ratio", offered)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: str) -> RunResult:
    src = _src_dir()
    sys.path.insert(0, src)
    out = os.path.join(root, ".perfbench_out", f"{name}-trace{int(trace)}")
    work = os.path.join(root, ".perfbench_run", f"{name}-{os.getpid()}")
    os.makedirs(out, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if name == "sweep":
            import sweep

            result = sweep.run(seed, seconds, trace, src)
            if trace:
                zero_layers(result, ("client.", "fleet.", "serve.", "hops."))
                result.put("client.jobs_offered", result.attempted, "count")
                result.put("client.fail_ratio",
                           result.failed / result.attempted, "ratio")
        else:
            result = asyncio.run(
                _serve(name, seed, seconds, trace, src, work, out)
            )
            if trace:
                zero_layers(result, ("analysis.", "opt."))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's directory is still there
    with open(os.path.join(out, "result.json"), "w") as handle:
        json.dump(
            {
                "workload": name, "seed": seed, "seconds": seconds,
                "trace": trace, "checks": result.checks,
                "metrics": result.metrics, "samples": result.samples,
                "traffic": result.traffic, "details": result.details,
            },
            handle, indent=1, sort_keys=True, default=str,
        )
    return result


#: Layer metrics a workload does not exercise read 0 (the layer did no
#: work); listed here so every traced run reports every name.
LAYER_UNITS = {
    "client.launch_lag_p99_ms": "ms", "client.poll_lag_ms": "ms",
    "fleet.admit_ms": "ms", "fleet.queue_p50_ms": "ms",
    "fleet.queue_p99_ms": "ms", "fleet.dispatch_ms": "ms",
    "fleet.collect_lag_p50_ms": "ms", "fleet.collect_lag_p99_ms": "ms",
    "fleet.rss_mb": "MB", "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms", "serve.exec_p50_ms": "ms",
    "serve.exec_p99_ms": "ms", "serve.batch_size_mean": "count",
    "serve.rss_mb": "MB", "hops.unaccounted_p50_ms": "ms",
    "hops.unaccounted_p99_ms": "ms", "hops.stitched_ratio": "ratio",
    "analysis.profile_s": "s", "analysis.c1_s": "s",
    "analysis.c1_calls": "count", "opt.ga_self_s": "s",
}


def zero_layers(result: RunResult, prefixes) -> None:
    for name, unit in LAYER_UNITS.items():
        if name.startswith(prefixes) and name not in result.metrics:
            result.put(name, 0.0, unit)


def _report(result: RunResult, trace: bool) -> dict:
    """Print the human-readable record; return the result-line object."""
    print(f"== {result.workload} ({'traced' if trace else 'untraced'})")
    for name, ok, detail in result.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, (value, unit) in sorted(result.metrics.items()):
        n = result.samples.get(name)
        print(f"  {name} = {value:.6g} {unit}" + (f"  (n={n})" if n else ""))
    print("  traffic: " + json.dumps(result.traffic, sort_keys=True))
    return {
        "correct": result.correct,
        "attempted": max(1, int(result.attempted)),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(result.metrics.items())
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    started = time.perf_counter()
    try:
        self_test()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        lines = {}
        ok = True
        for name in names:
            result = run_workload(
                name, args.seed, args.seconds, bool(args.trace), root
            )
            lines[name] = _report(result, bool(args.trace))
            ok = ok and result.correct
    except (BenchError, OSError, asyncio.TimeoutError,
            subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"  wall {time.perf_counter() - started:.1f} s", file=sys.stderr)
    if not ok:
        print("perfbench: an output check failed", file=sys.stderr)
        return 1
    if len(lines) == 1:
        line = next(iter(lines.values()))
    else:
        line = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, l in lines.items()
                for metric, value in l["metrics"].items()
            },
        }
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
