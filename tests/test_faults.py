"""Tests for the fault-injection layer (repro.fi).

Covers plan determinism, the campaign driver's zero-silent-corruption
guarantee and bit-reproducibility, engine equivalence of campaign
reports, the post-run audit's ability to actually catch corruption, the
``degrade_to_msi`` self-healing response, and the zero-overhead
guarantee when no plan is armed.
"""

import json
from dataclasses import replace

import pytest

from repro.fi import (
    Fault,
    FaultKind,
    FaultPlan,
    audit_system,
    run_campaigns,
)
from repro.fi.plan import ALL_KINDS
from repro.params import cohort_config
from repro.sim.cache import LineState
from repro.sim.lockstep import LockstepSystem
from repro.sim.system import System, run_simulation
from repro.workloads import splash_traces

from conftest import empty_trace, quad_config, t


@pytest.fixture(scope="module")
def traces():
    return splash_traces("fft", 4, scale=0.2, seed=0)


@pytest.fixture(scope="module")
def config():
    return cohort_config([100, 20, 20, 20])


def report_bytes(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


class TestFaultPlan:
    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(7, 5000, 4, n_faults=5)
        b = FaultPlan.generate(7, 5000, 4, n_faults=5)
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        a = FaultPlan.generate(7, 5000, 4, n_faults=5)
        b = FaultPlan.generate(8, 5000, 4, n_faults=5)
        assert a.to_dict() != b.to_dict()

    def test_faults_sorted_and_in_horizon(self):
        plan = FaultPlan.generate(3, 400, 4, n_faults=8)
        cycles = [f.cycle for f in plan.faults]
        assert cycles == sorted(cycles)
        assert all(1 <= c <= 400 for c in cycles)
        assert all(0 <= f.core < 4 for f in plan.faults)

    def test_rejects_unknown_response(self):
        with pytest.raises(ValueError):
            FaultPlan(response="self_destruct")

    def test_injector_rejects_out_of_range_core(self, config, traces):
        plan = FaultPlan(
            faults=(Fault(FaultKind.TIMER_FLIP, cycle=5, core=9),)
        )
        with pytest.raises(ValueError):
            System(config, traces, fault_plan=plan)


class TestCampaigns:
    def test_zero_silent_corruptions_and_bit_identical_repeat(
        self, config, traces
    ):
        a = run_campaigns(config, traces, campaigns=7, seed=3)
        b = run_campaigns(config, traces, campaigns=7, seed=3)
        assert a.silent_corruptions() == []
        assert report_bytes(a) == report_bytes(b)

    def test_report_identical_across_engines(self, config, traces):
        """Campaigns run per-event, but the fault-free baseline that
        fixes every plan's horizon is what either engine simulates."""
        report = run_campaigns(config, traces, campaigns=7, seed=3)
        lock = LockstepSystem(config, traces).run()
        assert report.baseline_cycles == lock.final_cycle

    def test_seven_campaigns_cover_every_kind(self, config, traces):
        report = run_campaigns(config, traces, campaigns=7, seed=1)
        assert set(report.matrix()) == {k.value for k in ALL_KINDS}
        totals = report.totals()
        assert sum(totals.values()) == 7
        assert totals["silent_corruption"] == 0

    def test_matrix_rows_sum_to_totals(self, config, traces):
        report = run_campaigns(config, traces, campaigns=7, seed=5)
        summed = {v: 0 for v in ("detected", "survived", "silent_corruption")}
        for row in report.matrix().values():
            for verdict, n in row.items():
                summed[verdict] += n
        assert summed == report.totals()
        rendered = report.render()
        assert "fault kind" in rendered and "total" in rendered


class TestBusStallMidTransfer:
    def test_stall_during_transfer_injects_and_completes(self, config, traces):
        # Regression: a stall landing while the bus was busy used to be
        # skipped ("no_target") because releasing the in-flight job would
        # have tripped the single busy-until clock.  With separate job
        # and stall horizons the injector stalls unconditionally.
        plan = FaultPlan(
            faults=tuple(
                Fault(FaultKind.BUS_STALL, cycle=c, arg=25)
                for c in (10, 40, 70)
            )
        )
        cfg = replace(config, check_coherence=True)
        system = System(cfg, traces, fault_plan=plan)
        stalled = system.run()
        records = [
            r
            for r in system.injector.records
            if r.fault.kind is FaultKind.BUS_STALL
        ]
        assert len(records) == 3
        assert all(r.effect == "injected" for r in records)
        assert any("overlaps the in-flight transfer" in r.detail for r in records)
        baseline = System(cfg, traces).run()
        assert stalled.final_cycle > baseline.final_cycle


class TestAudit:
    def test_clean_run_audits_clean(self, config, traces):
        system = System(replace(config, check_coherence=True), traces)
        system.run()
        assert audit_system(system) == []

    def test_detects_unsanctioned_corruption(self):
        """Meta-test: the audit must catch what the oracle cannot.

        Poking a modified line's version behind the protocol's back is
        exactly the kind of mutation the injector is forbidden from
        making; the audit flagging it is what gives the empty
        silent-corruption bucket its meaning.
        """
        config = replace(quad_config([60] * 4), check_coherence=True)
        traces = [t([(0, "W", 0)])] + [empty_trace()] * 3
        system = System(config, traces)
        system.run()
        line = system.caches[0].lookup(0)
        assert line is not None and line.state == LineState.M
        assert audit_system(system) == []
        line.version += 1  # unsanctioned: no hardware path does this
        problems = audit_system(system)
        assert problems
        assert any("golden" in p for p in problems)


class TestDegradeResponse:
    def test_degrade_to_msi_restores_msi_register(self, config, traces):
        plan = FaultPlan(
            faults=(Fault(FaultKind.TIMER_FLIP, cycle=50, core=0, arg=15),),
            response="degrade_to_msi",
            detection_latency=20,
        )
        run_config = replace(
            config, check_coherence=True, max_cycles=500_000
        )
        system = System(run_config, traces, fault_plan=plan)
        system.run()
        assert system.caches[0].is_msi
        assert system.injector is not None
        (record,) = system.injector.records
        assert record.effect == "injected"
        assert record.responses == ["degrade_to_msi"]
        assert system.injector.summary()["responses"] == 1

    def test_no_response_leaves_flip_in_place(self, config, traces):
        plan = FaultPlan(
            faults=(Fault(FaultKind.TIMER_FLIP, cycle=50, core=0, arg=3),),
            response="none",
        )
        run_config = replace(
            config, check_coherence=True, max_cycles=500_000
        )
        system = System(run_config, traces, fault_plan=plan)
        system.run()
        assert system.caches[0].theta == 100 ^ (1 << 3)


class TestZeroOverhead:
    def test_no_plan_means_identical_cycles_and_no_injector(
        self, config, traces
    ):
        baseline = run_simulation(config, traces)
        system = System(config, traces, fault_plan=None)
        stats = system.run()
        assert system.injector is None
        assert stats.final_cycle == baseline.final_cycle
        assert stats.execution_time == baseline.execution_time

    def test_empty_plan_changes_nothing(self, config, traces):
        baseline = run_simulation(config, traces)
        system = System(config, traces, fault_plan=FaultPlan())
        stats = system.run()
        assert stats.final_cycle == baseline.final_cycle
