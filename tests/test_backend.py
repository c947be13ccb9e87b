"""Unit tests for the memory backend layer (repro.sim.backend)."""

from dataclasses import replace

import pytest

from repro.params import CacheGeometry, cohort_config, msi_fcfs_config
from repro.sim.backend import LLCWithDRAM, MemoryBackend, PerfectLLC, build_backend
from repro.sim.debug import ProtocolTracer
from repro.sim.dram import FixedLatencyDRAM
from repro.sim.lockstep import LockstepSystem
from repro.sim.system import System, run_simulation
from repro.workloads import splash_traces

from conftest import run_checked, t


def build(config):
    return build_backend(config, FixedLatencyDRAM(config.dram_latency))


def tiny_llc_config(**kwargs):
    """Non-perfect 2-line LLC: misses and inclusion victims galore."""
    kwargs.setdefault("perfect_llc", False)
    kwargs.setdefault(
        "llc", CacheGeometry(size_bytes=2 * 64, line_bytes=64, ways=2)
    )
    kwargs.setdefault("dram_latency", 20)
    return replace(cohort_config([60] * 2), **kwargs)


class TestBuildBackend:
    def test_perfect_config_builds_perfect_backend(self):
        backend = build(cohort_config([60] * 4))
        assert isinstance(backend, PerfectLLC)
        assert backend.name == "perfect_llc"
        assert backend.llc.perfect

    def test_nonperfect_config_builds_dram_backend(self):
        backend = build(tiny_llc_config())
        assert isinstance(backend, LLCWithDRAM)
        assert backend.name == "llc_with_dram"
        assert backend.dram.latency == 20

    def test_abstract_probe_is_abstract(self):
        config = cohort_config([60] * 2)
        backend = MemoryBackend(config, build(config).llc)
        with pytest.raises(NotImplementedError):
            backend.ready_for_read(0)


class TestPerfectBackend:
    def test_always_ready_and_versioned(self):
        backend = build(cohort_config([60] * 4))
        assert backend.ready_for_read(12345)
        assert backend.version(12345) == 0
        backend.snarf(12345, 7, cycle=3)
        assert backend.version(12345) == 7

    def test_pending_writeback_blocks_sourcing(self):
        """A buffered write-back holds the freshest data for its line."""
        config = cohort_config([60] * 2)
        system = System(config, [t([]), t([])])
        backend = system.backend
        backend.enqueue_writeback(0, line_addr=5, version=3)
        assert backend.has_pending_writeback(5)
        assert not backend.ready_for_read(5)
        assert backend.ready_for_read(6)
        system.kernel.run(max_cycles=1000, until=lambda: False)
        assert not backend.has_pending_writeback(5)
        assert backend.ready_for_read(5)
        assert backend.version(5) == 3

    def test_duplicate_writeback_asserts(self):
        system = System(cohort_config([60] * 2), [t([]), t([])])
        system.backend.enqueue_writeback(0, line_addr=5, version=1)
        with pytest.raises(AssertionError):
            system.backend.enqueue_writeback(1, line_addr=5, version=2)


class TestWritebackDisciplines:
    def _spill_traces(self):
        # Lines 0 and 4 collide in the 4-set direct-mapped L1 below, so
        # each store evicts the previous line dirty; the following read
        # of the evicted line then *depends* on the write-back draining
        # (the backend refuses to source a line with a buffered
        # write-back), keeping every drain inside the simulated window.
        return [
            t([(0, "W", 0), (1, "W", 4), (1, "R", 0), (1, "R", 4)]),
            t([]),
        ]

    def _config(self, wb_on_bus):
        # runahead_window=0: each access waits for the previous miss, so
        # the reads really observe the evictions (no runahead hits).
        return replace(
            msi_fcfs_config(2),
            l1=CacheGeometry(size_bytes=4 * 64, line_bytes=64, ways=1),
            wb_on_bus=wb_on_bus,
            runahead_window=0,
        )

    @pytest.mark.parametrize("wb_on_bus", [False, True])
    def test_dirty_eviction_emits_writeback_events(self, wb_on_bus):
        system = System(self._config(wb_on_bus), self._spill_traces())
        tracer = ProtocolTracer.attach(system)
        stats = system.run()
        wbs = tracer.filter(kind="writeback")
        dones = tracer.filter(kind="wb_done")
        assert stats.writebacks == len(wbs) > 0
        assert len(dones) == len(wbs)
        assert all(ev.payload["on_bus"] == wb_on_bus for ev in wbs)
        assert system.events.counts["writeback"] == len(wbs)

    def test_wb_on_bus_occupies_bus_slots(self):
        off = run_simulation(self._config(False), self._spill_traces())
        on = run_simulation(self._config(True), self._spill_traces())
        assert on.bus_grants.get("WRITEBACK", 0) > 0
        assert off.bus_grants.get("WRITEBACK", 0) == 0
        assert on.bus_busy_cycles > off.bus_busy_cycles


class TestDRAMBackend:
    def test_cold_miss_fetches_then_ready(self):
        config = tiny_llc_config()
        system = System(config, [t([]), t([])])
        backend = system.backend
        assert not backend.ready_for_read(0)  # starts the fetch
        assert system.events.counts["dram_fetch"] == 1
        assert not backend.ready_for_read(0)  # no duplicate fetch
        assert system.events.counts["dram_fetch"] == 1
        system.kernel.run(max_cycles=1000, until=lambda: False)
        assert backend.ready_for_read(0)

    def test_llc_eviction_back_invalidates_l1_copies(self):
        """Inclusion: an LLC victim's L1 copies are dropped, dirty data kept."""
        traces = [
            t([(0, "W", 0), (20, "R", 1), (20, "R", 2), (20, "R", 3)]),
            t([]),
        ]
        system, stats = run_checked(tiny_llc_config(), traces)
        counts = system.events.counts
        assert counts.get("back_invalidate", 0) > 0
        assert stats.back_invalidations == counts["back_invalidate"]
        assert stats.dram_fetches == counts["dram_fetch"]
        # The dirty line-0 version survived the back-invalidation to DRAM.
        assert system.backend.dram.peek_version(0) == 1

    def test_events_match_stats_on_real_workload(self):
        traces = splash_traces("ocean", 2, scale=0.25, seed=0)
        config = tiny_llc_config(
            llc=CacheGeometry(size_bytes=8 * 64, line_bytes=64, ways=2)
        )
        system, stats = run_checked(config, traces)
        counts = system.events.counts
        assert stats.dram_fetches == counts.get("dram_fetch", 0) > 0
        assert stats.back_invalidations == counts.get("back_invalidate", 0)
        assert stats.layer_counts().get("backend", 0) >= stats.dram_fetches

    @pytest.mark.parametrize("lockstep", [True, False])
    def test_dram_backend_engines_agree(self, lockstep):
        """Either engine, unchecked, matches an oracle-checked run."""
        traces = splash_traces("fft", 2, scale=0.25, seed=3)
        config = tiny_llc_config()
        engine = LockstepSystem if lockstep else System
        stats = engine(config, traces).run()
        reference = System(replace(config, check_coherence=True), traces).run()
        assert stats.final_cycle == reference.final_cycle
        assert [c.hits for c in stats.cores] == [
            c.hits for c in reference.cores
        ]
