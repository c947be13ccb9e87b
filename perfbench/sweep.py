"""The offline θ-sweep to a LUT row, in process and without HTTP.

Traces (ocean at scale 4) go to ``build_profiles``, then a
measured-objective GA (``TimerProblem`` + ``SimulationFitness`` on a
cache-less lock-step ``SweepRunner``), then the LUT row.  The GA budget
and seed are fixed, so every sweep does the same work and must land on
the pinned row, objective and simulation count.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

from common import RunResult, median, peak_rss_mb, percentile

BENCHMARK = "ocean"
SCALE = 4.0
TRACE_SEED = 0
POPULATION = 8
GENERATIONS = 2
GA_SEED = 0
#: What this fixed budget must produce (LUT row, objective, simulations).
PINNED_THETAS = [1169, 19, 1, 1]
PINNED_OBJECTIVE = 2.1854248046875
PINNED_SIMULATIONS = 19
#: ocean×4 reference cycles: CoHoRT θ=60 and MSI-FCFS.
PINNED_CYCLES = {"cohort_theta60": 76904, "msi_fcfs": 66496}
#: Set-up repetitions per run; setup_s is their median.
SETUPS = 5
#: A set-up spawns a fresh interpreter, as ``cohort optimize`` starts.
SETUP_TIMEOUT_S = 60.0


def setup() -> Tuple[list, list, Any]:
    """Trace generation and isolation profiles: the sweep's set-up."""
    from repro.analysis import build_profiles
    from repro.params import cohort_config
    from repro.workloads import splash_traces

    traces = splash_traces(BENCHMARK, 4, scale=SCALE, seed=TRACE_SEED)
    config = cohort_config([1] * 4)
    profiles = build_profiles(traces, config.l1)
    return traces, profiles, config


def check_reference_cycles(result: RunResult, traces) -> None:
    """ocean×4 must reproduce the pinned reference cycle counts."""
    from repro.params import cohort_config, msi_fcfs_config
    from repro.runner import SweepRunner

    configs = {
        "cohort_theta60": cohort_config([60] * 4),
        "msi_fcfs": msi_fcfs_config(4),
    }
    runner = SweepRunner(cache_dir=None)
    got = {
        name: runner.run_one(cfg, traces)["final_cycle"]
        for name, cfg in configs.items()
    }
    result.check(
        "setup: ocean×4 reproduces 76904 / 66496 cycles",
        got == PINNED_CYCLES, str(got),
    )


class Probe:
    """Wall and CPU time spent inside wrapped callables, by layer name."""

    def __init__(self) -> None:
        self.wall: Dict[str, float] = {}
        self.cpu: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}

    def tally(self, results) -> None:
        """Add the simulated counts of a batch of runner results."""
        for res in results:
            cores = res["cores"]
            self.counts["cycles_sum"] = (
                self.counts.get("cycles_sum", 0) + res["final_cycle"]
            )
            for key in ("hits", "misses"):
                self.counts[key] = self.counts.get(key, 0) + sum(
                    c[key] for c in cores
                )

    def timed(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self.wall[name] = (
                    self.wall.get(name, 0.0) + time.perf_counter() - wall
                )
                self.cpu[name] = (
                    self.cpu.get(name, 0.0) + time.process_time() - cpu
                )
                self.calls[name] = self.calls.get(name, 0) + 1
        return wrapper


def _patch(probe: Probe) -> List[Tuple[Any, str, Any]]:
    """Wrap the public entry points of runner, sim and analysis."""
    import repro.runner as runner_mod
    from repro.opt.problem import TimerProblem

    targets = [
        (runner_mod.SweepRunner, "run", "runner"),
        (runner_mod, "run_lockstep_batch", "sim"),
        (runner_mod, "run_simulation", "sim"),
        (TimerProblem, "evaluate", "analysis.c1"),
    ]
    undo = []
    for owner, attr, name in targets:
        original = getattr(owner, attr, None)
        if original is None:
            continue
        undo.append((owner, attr, original))
        wrapped = probe.timed(name, original)
        if name == "runner":
            wrapped = _tallied(probe, wrapped)
        setattr(owner, attr, wrapped)
    return undo


def _tallied(probe: Probe, run: Callable) -> Callable:
    @functools.wraps(run)
    def wrapper(*args, **kwargs):
        results = run(*args, **kwargs)
        probe.tally(results)
        return results
    return wrapper


def one_sweep(traces, profiles, config, probe: Probe = None) -> Dict[str, Any]:
    """Traces in hand → LUT row; returns timings, outcome and counters."""
    from repro.opt import (
        GAConfig, GeneticAlgorithm, SimulationFitness, TimerProblem,
    )
    from repro.params import LatencyParams
    from repro.sim import trace as trace_mod

    # Each sweep starts as a fresh ``cohort optimize`` process would:
    # with an empty trace-decode memo.
    clear = getattr(trace_mod, "clear_decode_cache", None)
    if clear is not None:
        clear()
    calls: List[float] = []
    started = time.perf_counter()
    problem = TimerProblem(profiles, LatencyParams(), timed=[True] * 4)
    fit = SimulationFitness(problem, config, traces, engine="lockstep")

    def fitness_batch(batch):
        t = time.perf_counter()
        try:
            return fit(batch)
        finally:
            calls.append(time.perf_counter() - t)

    def fitness_one(genes):
        return fit.fitness(genes)

    ga = GeneticAlgorithm(
        problem.gene_bounds(),
        probe.timed("fitness", fitness_one) if probe else fitness_one,
        GAConfig(
            population_size=POPULATION, generations=GENERATIONS, seed=GA_SEED
        ),
        map_fn=probe.timed("fitness", fitness_batch) if probe
        else fitness_batch,
    )
    ga_started = time.perf_counter()
    outcome = ga.run()
    ga_s = time.perf_counter() - ga_started
    evaluation = problem.evaluate(outcome.best_genes)
    elapsed = time.perf_counter() - started
    return {
        "sweep_s": elapsed,
        "ga_s": ga_s,
        "calls": calls,
        "thetas": list(evaluation.thetas),
        "objective": outcome.best_fitness,
        "telemetry": fit.telemetry(),
    }


def _measure(seconds: float, data, probe: Probe = None
             ) -> List[Dict[str, Any]]:
    """Repeat whole sweeps until ``seconds`` have passed (at least two)."""
    sweeps = []
    deadline = time.perf_counter() + seconds
    while len(sweeps) < 2 or time.perf_counter() < deadline:
        sweeps.append(one_sweep(*data, probe=probe))
    return sweeps


def _check(result: RunResult, sweeps, label: str) -> None:
    bad = [
        s for s in sweeps
        if s["thetas"] != PINNED_THETAS
        or s["objective"] != PINNED_OBJECTIVE
        or s["telemetry"]["jobs_executed"] != PINNED_SIMULATIONS
    ]
    result.check(
        f"{label}: LUT row, objective and simulation count as pinned",
        not bad,
        f"{len(sweeps) - len(bad)} of {len(sweeps)} sweeps matched"
        + (f"; e.g. {bad[0]['thetas']} {bad[0]['objective']} "
           f"{bad[0]['telemetry']['jobs_executed']}" if bad else ""),
    )
    result.attempted += len(sweeps)
    result.failed += len(bad)


def timed_setup(src: str) -> float:
    """Seconds for a fresh interpreter to import the program, generate
    the traces and build the profiles: what a sweep pays before its GA."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__)], env=env, check=True,
        timeout=SETUP_TIMEOUT_S,
    )
    return time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool, src: str) -> RunResult:
    """The sweep workload.  ``seed`` does not change the sweep's inputs:
    the GA budget is pinned so every run does the same work."""
    del seed
    result = RunResult(workload="sweep")
    setups = [timed_setup(src) for _ in range(SETUPS)]
    data = setup()
    check_reference_cycles(result, data[0])
    # One untimed sweep first, so lazy imports and first-use set-up in
    # the program are not charged to the first measured sweep.
    _check(result, [one_sweep(*data)], "warm-up sweep")
    if not trace:
        sweeps = _measure(seconds, data)
        _check(result, sweeps, "sweep")
        _e2e(result, sweeps, setups)
        _traffic(result, sweeps)
        return result
    plain = _measure(seconds / 2.0, data)
    _check(result, plain, "untraced sweep")
    probe = Probe()
    undo = _patch(probe)
    try:
        traced = _measure(seconds / 2.0, data, probe)
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    _check(result, traced, "traced sweep")
    _traffic(result, traced)
    _layers(result, traced, probe, data)
    plain_s = median([s["sweep_s"] for s in plain])
    traced_s = median([s["sweep_s"] for s in traced])
    result.put("trace.overhead", traced_s / plain_s - 1.0, "ratio")
    return result


def _e2e(result: RunResult, sweeps, setups) -> None:
    """A client request here is one whole sweep: traces in hand → LUT row."""
    sweep_ms = [1000.0 * s["sweep_s"] for s in sweeps]
    sims = sum(s["telemetry"]["jobs_executed"] for s in sweeps)
    result.details["request_e2e_ms"] = sweep_ms
    result.details["generation_ms"] = [
        [1000.0 * seconds for seconds in s["calls"]] for s in sweeps
    ]
    result.put("e2e_p50_ms", percentile(sweep_ms, 0.50), "ms", len(sweep_ms))
    result.put("e2e_p90_ms", percentile(sweep_ms, 0.90), "ms", len(sweep_ms))
    result.put("jobs_per_s", sims / (sum(sweep_ms) / 1000.0), "1/s", sims)
    result.put("setup_s", median(setups), "s", len(setups))
    result.put("rss_mb", peak_rss_mb(), "MB", 1)


def _traffic(result: RunResult, sweeps) -> None:
    tele = sweeps[-1]["telemetry"]
    lookups = tele["cache_hits"] + tele["cache_misses"]
    result.traffic.update({
        "sweeps": len(sweeps),
        "hit_share": tele["cache_hits"] / lookups if lookups else 0.0,
        "hit_share_base": lookups,
        "simulations_per_sweep": tele["jobs_executed"],
        "batch_size_mean": (
            tele["lockstep_jobs"] / tele["lockstep_groups"]
            if tele["lockstep_groups"] else 0.0
        ),
        "generations": len(sweeps[-1]["calls"]),
        "launch_lag_ms": 0.0,
    })


def _layers(result: RunResult, sweeps, probe: Probe, data) -> None:
    """Per-layer metrics of the traced sweeps: times are totals over the
    traced sweeps divided by their count, i.e. per sweep."""
    from repro.analysis import build_profiles
    from repro.workloads import splash_traces

    n = len(sweeps)
    traces, _, config = data
    tele = [s["telemetry"] for s in sweeps]
    executed = sum(t["jobs_executed"] for t in tele)
    sim_wall = probe.wall.get("sim", 0.0)
    sim_cpu = probe.cpu.get("sim", 0.0)
    runner_wall = probe.wall.get("runner", 0.0)
    fitness_wall = probe.wall.get("fitness", 0.0)
    ga_wall = sum(s["ga_s"] for s in sweeps)
    last = tele[-1]
    # Simulated accesses: every simulation replays the full traces.
    accesses_per_sim = sum(len(t.ops) for t in traces)
    result.put("runner.hit_ratio", result.traffic["hit_share"], "ratio",
               result.traffic["hit_share_base"])
    result.put("runner.lookups", result.traffic["hit_share_base"], "count")
    result.put("runner.exec_s_per_job",
               sum(t["exec_seconds"] for t in tele) / executed, "s", executed)
    result.put("runner.lockstep_group_mean", result.traffic["batch_size_mean"],
               "count")
    result.put("runner.lockstep_peeled", last["lockstep_peeled"], "count")
    result.put("runner.self_s", (runner_wall - sim_wall) / n, "s", n)
    result.put("sim.engine_s", sim_wall / n, "s", n)
    result.put("sim.accesses_per_cpu_s",
               accesses_per_sim * executed / sim_cpu if sim_cpu else 0.0,
               "1/s")
    result.put("sim.simulations", last["jobs_executed"], "count")
    result.put("sim.decode_misses", last["trace_decode_misses"], "count")
    # Exact simulated counts over every result the runner returned in
    # one sweep (each sweep does identical work).
    for key in ("cycles_sum", "hits", "misses"):
        result.put(f"sim.{key}", probe.counts.get(key, 0) // n, "count")
    gen, profile = [], []
    for _ in range(SETUPS):
        t = time.perf_counter()
        splash_traces(BENCHMARK, 4, scale=SCALE, seed=TRACE_SEED)
        gen.append(time.perf_counter() - t)
        t = time.perf_counter()
        build_profiles(traces, config.l1)
        profile.append(time.perf_counter() - t)
    result.put("workloads.gen_ms_per_job",
               1000.0 * median(gen) / last["jobs_executed"], "ms")
    result.put("analysis.profile_s", median(profile), "s", len(profile))
    result.put("analysis.c1_s", probe.wall.get("analysis.c1", 0.0) / n, "s", n)
    result.put("analysis.c1_calls", probe.calls.get("analysis.c1", 0) // n,
               "count")
    result.put("opt.ga_self_s", (ga_wall - fitness_wall) / n, "s", n)


if __name__ == "__main__":
    setup()
