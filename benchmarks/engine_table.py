"""Per-engine cost across workloads: the evidence behind the engine rule.

For each workload, prints one markdown table row: accesses, the
estimated private miss ratio ``run_simulation`` routes on, the median
CPU milliseconds of ``System`` and ``LockstepSystem`` (interleaved,
after one untimed warm-up of each), and their ratio.  Cycle counts are
asserted identical every round.  docs/performance.md carries the table.

Usage::

    PYTHONPATH=src python benchmarks/engine_table.py [--rounds 5]
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.params import cohort_config
from repro.sim.lockstep import LockstepSystem, estimated_miss_ratio
from repro.sim.system import System
from repro.workloads import splash_traces, timer_sweep

KERNELS = ("fft", "lu", "radix", "barnes", "water")
KERNEL_SCALES = (0.3, 1, 4)
OCEAN_SCALES = (1, 4)
TIMER_SWEEP_ACCESSES = (500, 2000, 10_000, 40_000)


def workloads():
    """``(name, traces)`` for every measured case, 4 cores each."""
    for scale in OCEAN_SCALES:
        yield f"ocean x{scale:g}", splash_traces("ocean", 4, scale=scale, seed=0)
    for kernel in KERNELS:
        for scale in KERNEL_SCALES:
            yield (
                f"{kernel} x{scale:g}",
                splash_traces(kernel, 4, scale=scale, seed=0),
            )
    for n in TIMER_SWEEP_ACCESSES:
        yield f"timer_sweep 4x{n}", timer_sweep(4, n, seed=0)


def cpu_ms(engine, config, traces) -> "tuple[float, int]":
    started = time.process_time()
    stats = engine(config, traces).run()
    return 1000.0 * (time.process_time() - started), stats.final_cycle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    config = cohort_config([60] * 4)
    print("| workload | accesses | estimate | per-event ms | lock-step ms "
          "| speedup |")
    print("|---|---|---|---|---|---|")
    for name, traces in workloads():
        System(config, traces).run()
        LockstepSystem(config, traces).run()
        event, lock = [], []
        for _ in range(args.rounds):
            ms_event, cycles_event = cpu_ms(System, config, traces)
            ms_lock, cycles_lock = cpu_ms(LockstepSystem, config, traces)
            assert cycles_event == cycles_lock, name
            event.append(ms_event)
            lock.append(ms_lock)
        e, k = statistics.median(event), statistics.median(lock)
        print(
            f"| {name} | {sum(len(t) for t in traces)} "
            f"| {estimated_miss_ratio(config, traces):.4f} "
            f"| {e:.1f} | {k:.1f} | {e / k:.2f}x |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
