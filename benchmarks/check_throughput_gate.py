"""CI throughput gate: no silent slowdowns, no silent timing changes.

Re-runs the two reference systems of ``BENCH_throughput.json`` (the
checked-in artifact produced by ``benchmarks/test_sim_throughput.py``),
distils both the artifact and the fresh measurements into
:class:`repro.qa.RunManifest` documents, and evaluates the shipped
``throughput`` gate spec (``repro/qa/specs/throughput.json``) over the
(baseline, candidate) pair.  The spec asks, question by question:

* do the simulated cycle counts match the artifact exactly (timing
  changes must come with a deliberate artifact and
  ``tests/data/cycle_reference_ocean4.json`` update)?
* are accesses/second within ``1 - tolerance`` (default 20%) of the
  artifact's recorded rates?
* does attaching the full ``repro.obs`` telemetry stack leave the cycle
  count untouched and cost at most ``telemetry_tolerance`` of the
  telemetry-off throughput measured in the same run?
* does the 64-config θ-sweep through ``run_simulation`` (lock-step on
  this workload) keep its cycle identity, clear the ``min_speedup``
  floor over the per-event engine, and stay within the regression band
  of the artifact's rate?

The per-system rates and the telemetry-off side are measured on the
per-event ``System``, the engine the artifact recorded and the one
telemetry attaches to, so ``run_simulation``'s engine choice cannot
move them.

Usage::

    PYTHONPATH=src python benchmarks/check_throughput_gate.py
    PYTHONPATH=src python benchmarks/check_throughput_gate.py --tolerance 0.5
    PYTHONPATH=src python benchmarks/check_throughput_gate.py \
        --measure-only --manifests-out bench_manifests/

With ``--manifests-out DIR`` the baseline and candidate manifests are
written to ``DIR/baseline.manifest.json`` / ``DIR/candidate.manifest.json``
so CI can re-gate them (or archive them) with ``cohort gate run``;
``--measure-only`` skips the in-process verdict so the decision is made
exclusively by that separate ``cohort gate`` invocation.

Exit status 0 on pass, 1 on any gate failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

from repro.obs import Telemetry
from repro.params import cohort_config, msi_fcfs_config
from repro.qa import build_manifest, evaluate_spec, load_spec, write_manifest
from repro.sim.system import System
from repro.workloads import splash_traces

sys.path.insert(0, str(Path(__file__).parent))
from bench_workloads import measure_lockstep  # noqa: E402

ARTIFACT = Path(__file__).parent / "out" / "BENCH_throughput.json"

#: Interleaved measurement rounds for the telemetry-overhead gate.
TELEMETRY_ROUNDS = 5

SYSTEMS = {
    "cohort": lambda: cohort_config([60] * 4),
    "msi_fcfs": lambda: msi_fcfs_config(4),
}


def _cycles_digest(final_cycles) -> str:
    """Content digest of a lock-step per-config cycle-count list."""
    return hashlib.sha256(
        json.dumps(list(final_cycles)).encode()
    ).hexdigest()


def baseline_manifest(reference: dict, artifact_path: Path):
    """Distil the checked-in benchmark artifact into a run manifest."""
    metrics = {"total_accesses": reference["total_accesses"]}
    for key in SYSTEMS:
        ref = reference["systems"][key]
        metrics[f"{key}_cycles"] = ref["cycles"]
        metrics[f"{key}_accesses_per_second"] = ref["accesses_per_second"]
    telemetry = reference.get("telemetry")
    if telemetry is not None:
        metrics["telemetry_cycles"] = telemetry["cycles"]
    lockstep = reference.get("lockstep")
    if lockstep is not None:
        metrics["lockstep_cycles_digest"] = _cycles_digest(
            lockstep["final_cycles"]
        )
        metrics["lockstep_speedup"] = lockstep["speedup"]
        metrics["lockstep_accesses_per_second"] = \
            lockstep["batch"]["accesses_per_second"]
        metrics["lockstep_configs"] = lockstep["configs"]
    return build_manifest(
        "bench_throughput", f"artifact {reference['workload']}",
        metrics=metrics,
        artifact_paths=[str(artifact_path)],
        environment={"source": "BENCH_throughput.json"},
    )


def measure_candidate(traces, total: int):
    """Re-measure everything the artifact records; returns a manifest."""
    metrics = {"total_accesses": total}

    for key, make_config in SYSTEMS.items():
        started = time.perf_counter()
        stats = System(make_config(), traces).run()
        wall = time.perf_counter() - started
        rate = total / wall
        metrics[f"{key}_cycles"] = stats.final_cycle
        metrics[f"{key}_accesses_per_second"] = rate
        print(
            f"measured {key}: {stats.final_cycle} cycles, "
            f"{rate:,.0f} accesses/s"
        )

    # Telemetry overhead: the same cohort run with the full repro.obs
    # stack attached, compared against a telemetry-off run measured in
    # the same invocation.  Interleaved median-of-N rounds on CPU time:
    # shared CI runners drift in speed over seconds, so sequential
    # single-shot wall-clock comparisons are noisier than the few-%
    # real overhead being gated — a min-of-few run can even measure
    # *negative* overhead.  A negative median is clamped to 0
    # (telemetry cannot speed the engine up).
    off_cpu, on_cpu = [], []
    for _ in range(TELEMETRY_ROUNDS):
        started = time.process_time()
        System(SYSTEMS["cohort"](), traces).run()
        off_cpu.append(time.process_time() - started)
        system = System(SYSTEMS["cohort"](), traces)
        Telemetry.attach(system, sample_every=500)
        started = time.process_time()
        stats = system.run()
        on_cpu.append(time.process_time() - started)
    off_med = statistics.median(off_cpu)
    on_med = statistics.median(on_cpu)
    overhead = max(0.0, on_med / off_med - 1.0)
    metrics["telemetry_cycles"] = stats.final_cycle
    metrics["telemetry_on_rate"] = total / on_med
    metrics["telemetry_off_rate"] = total / off_med
    metrics["telemetry_overhead"] = overhead
    print(
        f"measured cohort+telemetry: {stats.final_cycle} cycles, "
        f"{total / on_med:,.0f} accesses/s cpu ({overhead:+.1%} vs "
        f"telemetry-off over median-of-{TELEMETRY_ROUNDS})"
    )

    # Lock-step: the pinned 64-config θ-sweep through run_simulation
    # against the per-event engine, same measurement discipline
    # (interleaved median-of-N rounds on CPU time — a single
    # sequential-then-batch pair swings the speedup by 20%+ on shared
    # runners).  Identity with the per-event runs is asserted inside
    # measure_lockstep; identity with the artifact is the gate's job.
    ls = measure_lockstep()
    metrics["lockstep_cycles_digest"] = _cycles_digest(ls["final_cycles"])
    metrics["lockstep_speedup"] = ls["speedup"]
    metrics["lockstep_accesses_per_second"] = \
        ls["batch"]["accesses_per_second"]
    metrics["lockstep_configs"] = ls["configs"]
    print(
        f"measured lockstep: {ls['configs']} configs, "
        f"{ls['speedup']:.2f}x over per-event (median-of-{ls['rounds']} "
        f"cpu), {ls['batch']['accesses_per_second']:,.0f} accesses/s swept"
    )

    return build_manifest(
        "bench_throughput", "candidate ocean x4",
        config=SYSTEMS["cohort"](), traces=traces,
        metrics=metrics, seed=0,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional accesses/s regression (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--telemetry-tolerance",
        type=float,
        default=0.2,
        help="allowed fractional slowdown from attaching repro.obs "
        "telemetry (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required speedup of run_simulation over the per-event "
        "engine on the 64-config benchmark (default 5.0)",
    )
    parser.add_argument(
        "--artifact", type=Path, default=ARTIFACT, help="reference JSON"
    )
    parser.add_argument(
        "--manifests-out", type=Path, metavar="DIR",
        help="write baseline.manifest.json and candidate.manifest.json "
        "to DIR (gate them with `cohort gate run --spec throughput`)",
    )
    parser.add_argument(
        "--report-out", type=Path, metavar="FILE",
        help="write the gate verdict report JSON to FILE",
    )
    parser.add_argument(
        "--measure-only", action="store_true",
        help="measure and write manifests but skip the in-process "
        "verdict (requires --manifests-out); the decision is then made "
        "by a separate `cohort gate run`",
    )
    args = parser.parse_args(argv)
    if args.measure_only and not args.manifests_out:
        parser.error("--measure-only requires --manifests-out")

    reference = json.loads(args.artifact.read_text())
    baseline = baseline_manifest(reference, args.artifact)
    traces = splash_traces("ocean", 4, scale=4.0, seed=0)
    total = sum(len(t) for t in traces)
    candidate = measure_candidate(traces, total)

    if args.manifests_out:
        args.manifests_out.mkdir(parents=True, exist_ok=True)
        write_manifest(
            baseline, str(args.manifests_out / "baseline.manifest.json")
        )
        write_manifest(
            candidate, str(args.manifests_out / "candidate.manifest.json")
        )
        print(f"manifests written to {args.manifests_out}/")
    if args.measure_only:
        return 0

    report = evaluate_spec(
        load_spec("throughput"), candidate, baseline,
        params={
            "tolerance": args.tolerance,
            "telemetry_tolerance": args.telemetry_tolerance,
            "min_speedup": args.min_speedup,
        },
    )
    print()
    print(report.render())
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"verdict report written to {args.report_out}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
