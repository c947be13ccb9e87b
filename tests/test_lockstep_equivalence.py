"""Cross-engine equivalence of the lock-step engine, and engine routing.

The lock-step engine (:mod:`repro.sim.lockstep`) retires runs of
private-cache hits in bulk; its contract is that every result is
*bit-identical* to the per-event :class:`~repro.sim.system.System`.
These tests check that contract property-style — randomized timer
vectors over all registered protocols and arbiters, compared as full
``stats_to_dict`` documents — plus the one engine choice,
:func:`repro.sim.system.run_simulation`, and how the sweep runner
reports it.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.params import (
    MSI_THETA,
    ArbiterKind,
    cohort_config,
    msi_fcfs_config,
)
from repro.runner import SweepJob, SweepRunner, stats_to_dict
from repro.sim.lockstep import (
    LOCKSTEP_MAX_MISS_RATIO,
    LockstepSystem,
    estimated_miss_ratio,
    lockstep_unsupported_reason,
)
from repro.sim.system import System, run_simulation
from repro.workloads import timer_sweep, uniform_shared_mix


@pytest.fixture(scope="module")
def traces():
    """Miss-heavy: ``run_simulation`` keeps these on the per-event engine."""
    return uniform_shared_mix(4, 400, seed=3)


@pytest.fixture(scope="module")
def hit_traces():
    """Hit-run-heavy: ``run_simulation`` sends these to lock-step."""
    return timer_sweep(4, 4000, seed=0)


def random_thetas(rng) -> list:
    grid = [MSI_THETA, 1, 3, 9, 27, 81, 243, 1000]
    return [int(grid[rng.integers(0, len(grid))]) for _ in range(4)]


class TestRandomizedCrossEngine:
    """System == LockstepSystem on randomized configurations."""

    @pytest.mark.parametrize("trial", range(6))
    def test_random_timer_vectors_all_engines_agree(self, traces, trial):
        rng = np.random.default_rng(100 + trial)
        config = cohort_config(random_thetas(rng))
        event = System(config, traces).run()
        lock = LockstepSystem(config, traces).run()
        assert stats_to_dict(event) == stats_to_dict(lock)

    @pytest.mark.parametrize("protocol", ["timed_msi", "msi", "pmsi"])
    @pytest.mark.parametrize(
        "arbiter", [ArbiterKind.RROF, ArbiterKind.FCFS, ArbiterKind.TDM]
    )
    def test_protocol_arbiter_matrix(self, traces, protocol, arbiter):
        thetas = [60, 20, MSI_THETA, 5]
        if protocol != "timed_msi":
            thetas = [MSI_THETA] * 4
        config = replace(
            cohort_config(thetas), protocol=protocol, arbiter=arbiter
        )
        event = System(config, traces).run()
        lock = LockstepSystem(config, traces).run()
        assert stats_to_dict(event) == stats_to_dict(lock)

    def test_record_latencies_survive_lockstep(self, traces):
        config = cohort_config([60, 20, 20, 20])
        event = System(config, traces, record_latencies=True).run()
        lock = LockstepSystem(config, traces, record_latencies=True).run()
        assert stats_to_dict(event) == stats_to_dict(lock)


class TestEngineRouting:
    def test_run_simulation_picks_the_engine(self, traces, hit_traces):
        """The miss-ratio estimate picks the engine; either way the
        result is the per-event engine's."""
        config = cohort_config([60, 20, 20, 20])
        assert lockstep_unsupported_reason(config) is None
        assert estimated_miss_ratio(config, traces) > LOCKSTEP_MAX_MISS_RATIO
        assert estimated_miss_ratio(config, hit_traces) < LOCKSTEP_MAX_MISS_RATIO
        assert "miss ratio" in lockstep_unsupported_reason(config, traces)
        assert lockstep_unsupported_reason(config, hit_traces) is None
        for trs, engine in [(traces, "seed"), (hit_traces, "lockstep")]:
            routed = run_simulation(config, trs)
            assert routed.engine == engine
            direct = System(config, trs).run()
            assert direct.engine == "seed"
            assert stats_to_dict(routed) == stats_to_dict(direct)


class TestBatchPeeling:
    """``run_simulation`` peels what lock-step cannot run to ``System``."""

    def test_batch_peels_unsupported_configs_in_slot(self, hit_traces):
        supported = cohort_config([60, 20, 20, 20])
        checked = replace(cohort_config([30] * 4), check_coherence=True)
        pmsi = replace(msi_fcfs_config(4), protocol="pmsi")
        assert lockstep_unsupported_reason(supported) is None
        assert lockstep_unsupported_reason(checked) is not None
        # PMSI keeps the standard hit predicate, so it is lock-steppable.
        assert lockstep_unsupported_reason(pmsi) is None
        cases = [
            (supported, "lockstep"),
            (checked, "seed"),
            (pmsi, "lockstep"),
        ]
        for config, engine in cases:
            routed = run_simulation(config, hit_traces)
            assert routed.engine == engine
            direct = System(config, hit_traces).run()
            assert stats_to_dict(routed) == stats_to_dict(direct)

    def test_fault_plans_peel_and_match_the_event_path(self, hit_traces):
        """FI campaign smoke: an armed plan runs per-event, same result."""
        from repro.fi import FaultPlan

        config = cohort_config([100, 20, 20, 20])
        clean = run_simulation(config, hit_traces)
        assert clean.engine == "lockstep"
        plan = FaultPlan.generate(
            seed=11, horizon=clean.final_cycle, num_cores=4, n_faults=2
        )
        faulted = run_simulation(config, hit_traces, fault_plan=plan)
        assert faulted.engine == "seed"
        assert stats_to_dict(clean) == stats_to_dict(
            System(config, hit_traces).run()
        )
        assert stats_to_dict(faulted) == stats_to_dict(
            System(config, hit_traces, fault_plan=plan).run()
        )


class _Oplog:
    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        self.events.append((event, fields))


class TestSweepRunnerRouting:
    def make_jobs(self, traces, thetas_list):
        return [
            SweepJob(cohort_config(th), tuple(traces)) for th in thetas_list
        ]

    def test_same_trace_group_runs_in_lockstep(self, hit_traces):
        oplog = _Oplog()
        runner = SweepRunner(jobs=1, cache_dir=None, oplog=oplog)
        assert runner.engine == "lockstep"
        jobs = self.make_jobs(
            hit_traces, [[60] * 4, [20] * 4, [5, 60, 200, MSI_THETA]]
        )
        results = runner.run(jobs)
        assert runner.lockstep_groups == 1
        assert runner.lockstep_jobs == 3
        assert runner.jobs_executed == 3
        tele = runner.telemetry()
        assert tele["engine"] == "lockstep"
        assert tele["trace_decode_misses"] >= 0
        assert [f["engine"] for e, f in oplog.events if e == "execute"] == [
            "lockstep"
        ] * 3
        for job, result in zip(jobs, results):
            direct = System(job.config, job.traces).run()
            assert result == stats_to_dict(direct)

    def test_unsupported_jobs_are_peeled_to_the_normal_path(
        self, traces, hit_traces
    ):
        oplog = _Oplog()
        runner = SweepRunner(jobs=1, cache_dir=None, oplog=oplog)
        checked = replace(cohort_config([30] * 4), check_coherence=True)
        jobs = self.make_jobs(hit_traces, [[60] * 4, [20] * 4])
        jobs.append(SweepJob(checked, tuple(hit_traces)))
        # Miss-heavy traces count as peeled too.
        jobs.append(SweepJob(cohort_config([60] * 4), tuple(traces)))
        runner.run(jobs)
        assert runner.lockstep_groups == 1
        assert runner.lockstep_jobs == 2
        assert runner.lockstep_peeled == 2
        assert runner.jobs_executed == 4
        assert [f["engine"] for e, f in oplog.events if e == "execute"] == [
            "lockstep", "lockstep", "seed", "seed",
        ]

    def test_engine_seed_forces_the_event_engine(self, hit_traces):
        runner = SweepRunner(jobs=1, cache_dir=None, engine="seed")
        results = runner.run(self.make_jobs(hit_traces, [[60] * 4, [20] * 4]))
        assert runner.lockstep_groups == 0
        assert runner.lockstep_jobs == 0
        assert runner.lockstep_peeled == 0
        for thetas, result in zip([[60] * 4, [20] * 4], results):
            direct = LockstepSystem(cohort_config(thetas), hit_traces).run()
            assert result == stats_to_dict(direct)

    def test_lockstep_results_fill_the_shared_cache(self, hit_traces, tmp_path):
        cache = str(tmp_path / "sweeps")
        first = SweepRunner(jobs=1, cache_dir=cache)
        jobs = self.make_jobs(hit_traces, [[60] * 4, [20] * 4])
        first.run(jobs)
        assert first.lockstep_jobs == 2
        second = SweepRunner(jobs=1, cache_dir=cache, engine="seed")
        second.run(jobs)
        assert second.cache_hits == 2
        assert second.jobs_executed == 0

    def test_invalid_engine_rejected(self):
        for engine in ("warp", "fast"):
            with pytest.raises(ValueError, match="engine"):
                SweepRunner(jobs=1, cache_dir=None, engine=engine)


class TestTimerSweepWorkload:
    """The benchmark workload has the regime it advertises."""

    def test_hit_dominated_and_deterministic(self):
        a = timer_sweep(2, 20_000, seed=5)
        b = timer_sweep(2, 20_000, seed=5)
        for ta, tb in zip(a, b):
            assert ta.content_digest() == tb.content_digest()
        stats = run_simulation(cohort_config([60, 60]), a)
        hits = sum(c.hits for c in stats.cores)
        misses = sum(c.misses for c in stats.cores)
        assert misses / (hits + misses) < 0.02
