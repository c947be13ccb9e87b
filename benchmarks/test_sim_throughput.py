"""Simulator throughput: simulated cycles per wall-clock second.

Documents the performance claim in docs/simulator.md and guards against
order-of-magnitude regressions in the event engine: the kernel skips
idle cycles, so timer waits are free and contended workloads dominate.
"""

import statistics
import time

from repro.params import cohort_config, msi_fcfs_config
from repro.experiments import format_table
from repro.obs import Telemetry
from repro.sim.system import System
from repro.workloads import splash_traces

from bench_workloads import measure_lockstep
from conftest import emit, run_once

#: Interleaved measurement rounds for the telemetry-overhead number.
TELEMETRY_ROUNDS = 5


def test_simulator_throughput(benchmark):
    traces = splash_traces("ocean", 4, scale=4.0, seed=0)
    total_accesses = sum(len(t) for t in traces)

    def run():
        rows = []
        payload = {
            "workload": "ocean x4",
            "total_accesses": total_accesses,
            "systems": {},
        }
        for name, key, cfg in (
            ("CoHoRT θ=60", "cohort", cohort_config([60] * 4)),
            ("MSI-FCFS", "msi_fcfs", msi_fcfs_config(4)),
        ):
            # The per-event reference engine: run_simulation would send
            # ocean x4 to lock-step, which the lockstep section covers.
            started = time.perf_counter()
            stats = System(cfg, traces).run()
            wall = time.perf_counter() - started
            rows.append(
                [
                    name,
                    stats.final_cycle,
                    f"{wall:.2f}",
                    f"{stats.final_cycle / wall:,.0f}",
                    f"{total_accesses / wall:,.0f}",
                ]
            )
            payload["systems"][key] = {
                "cycles": stats.final_cycle,
                "wall_seconds": wall,
                "cycles_per_second": stats.final_cycle / wall,
                "accesses_per_second": total_accesses / wall,
            }

        # Telemetry overhead: the same CoHoRT run with the full repro.obs
        # stack attached (spans + histograms + samplers).  Cycle counts
        # must not move; wall-clock overhead is gated by
        # check_throughput_gate.py at 20%.  Interleaved median-of-N on
        # CPU time: shared runners drift in speed over seconds, so a
        # single sequential wall-clock pair is noisier than the few-%
        # real overhead — and can even come out *negative*.
        off_cpu, on_cpu = [], []
        for _ in range(TELEMETRY_ROUNDS):
            started = time.process_time()
            System(cohort_config([60] * 4), traces).run()
            off_cpu.append(time.process_time() - started)
            system = System(cohort_config([60] * 4), traces)
            Telemetry.attach(system, sample_every=500)
            started = time.process_time()
            stats = system.run()
            on_cpu.append(time.process_time() - started)
        assert stats.final_cycle == payload["systems"]["cohort"]["cycles"]
        off_med = statistics.median(off_cpu)
        on_med = statistics.median(on_cpu)
        raw_overhead = on_med / off_med - 1.0
        rows.append(
            [
                "CoHoRT θ=60 + telemetry",
                stats.final_cycle,
                f"{on_med:.2f}",
                f"{stats.final_cycle / on_med:,.0f}",
                f"{total_accesses / on_med:,.0f}",
            ]
        )
        payload["telemetry"] = {
            "system": "cohort",
            "sample_every": 500,
            "cycles": stats.final_cycle,
            "rounds": TELEMETRY_ROUNDS,
            "wall_seconds": on_med,
            "accesses_per_second": total_accesses / on_med,
            # A negative median means measurement noise still exceeded
            # the true overhead; clamp to 0 (telemetry cannot speed the
            # engine up) and keep the raw value for diagnosis.
            "overhead_fraction": max(0.0, raw_overhead),
            "raw_overhead_fraction": raw_overhead,
        }

        # Lock-step engine: one pinned 64-config θ-sweep population over
        # one shared timer_sweep trace set, through run_simulation (which
        # picks lock-step here) vs the same 64 runs on the per-event
        # engine (interleaved median-of-N on CPU time, cycle identity
        # asserted every round).  The speedup here is the headline claim
        # of docs/performance.md and is gated in CI.
        ls = measure_lockstep()
        rows.append(
            [
                f"lock-step sweep ({ls['configs']} configs)",
                "-",
                f"{ls['batch']['cpu_seconds']:.2f}",
                "-",
                f"{ls['batch']['accesses_per_second']:,.0f}",
            ]
        )
        payload["lockstep"] = ls
        assert ls["speedup"] >= 5.0, (
            f"lock-step speedup {ls['speedup']:.2f}x below the 5x "
            f"floor (rounds: {ls['speedups']})"
        )
        return rows, payload

    rows, payload = run_once(benchmark, run)
    emit(
        "sim_throughput",
        format_table(
            ["system", "cycles", "wall s", "cycles/s", "accesses/s"],
            rows,
            title=f"Simulator throughput (ocean x4, {total_accesses:,} accesses)",
        ),
    )
    emit(
        "BENCH_throughput",
        "machine-readable copy of sim_throughput.txt in BENCH_throughput.json",
        payload=payload,
    )
    for row in rows:
        # Guard: at least 10^4 simulated cycles per second.  (The
        # lock-step sweep row reports no single cycle count.)
        if row[3] != "-":
            assert float(row[3].replace(",", "")) > 10_000, row
