"""Timer-expiry race tests (satellite of the layered-stack refactor).

A countdown-counter expiry is a scheduled kernel event; by the time it
fires, the world may have changed under it.  Two races matter:

* the expiry lands on the **same cycle as a mode switch** that
  reprograms (or disables) the very timer that armed it;
* the expiry lands on the **same cycle as an LLC back-invalidation**
  that destroys the pending copy it was armed for.

Both must stay coherent, live (no stuck requests) and cycle-identical
across the two engines (per-event and lock-step).  The tests
*construct* the same-cycle collision from a probe run instead of
hard-coding cycle numbers: the probe measures when the interfering
event happens, and the real run re-arms the timer (or schedules the
switch) to land exactly there.
"""

from dataclasses import replace

import pytest

from repro.params import MSI_THETA, CacheGeometry, cohort_config
from repro.sim.debug import ProtocolTracer
from repro.sim.lockstep import LockstepSystem
from repro.sim.system import System
from repro.workloads import splash_traces

from conftest import t


#: The event kinds the race assertions read.  Subscribing by kind (not
#: to every event) keeps per-hit events off, which lock-step requires.
TRACED_KINDS = ("fill", "back_invalidate", "timer_expiry", "mode_switch")


def run_traced(config, traces, lockstep=False, setup=None):
    """Run with a tracer: per-event with the coherence oracle on, or on
    the lock-step engine, which refuses the oracle (it reads every
    access)."""
    if lockstep:
        system = LockstepSystem(config, traces)
    else:
        system = System(replace(config, check_coherence=True), traces)
    tracer = ProtocolTracer()
    system.events.subscribe(tracer, kinds=TRACED_KINDS)
    if setup is not None:
        setup(system)
    stats = system.run()
    return system, stats, tracer


def core_snapshot(stats):
    return [
        (c.hits, c.misses, c.upgrades, c.total_memory_latency, c.finish_cycle)
        for c in stats.cores
    ]


class TestExpiryVsModeSwitch:
    CONFIG = cohort_config([60] * 4)

    def _traces(self):
        return splash_traces("ocean", 4, scale=0.5, seed=0)

    def _expiry_cycle(self):
        """Probe: the cycle of a mid-run timer expiry (no switch)."""
        _, _, tracer = run_traced(self.CONFIG, self._traces())
        expiries = tracer.filter(kind="timer_expiry")
        assert expiries, "probe workload must produce timer expiries"
        return expiries[len(expiries) // 2].cycle

    @pytest.mark.parametrize("lockstep", [True, False])
    @pytest.mark.parametrize("switch_phase", ["before", "after"])
    def test_switch_to_msi_on_expiry_cycle(self, lockstep, switch_phase):
        """All cores drop to MSI on the exact cycle an expiry fires.

        ``before`` lands the switch in the same kernel phase as the
        expiry but ahead of it (pre-run schedules order first);
        ``after`` uses a later phase of the same cycle, so the expiry
        handler runs first and the switch reprograms a just-fired timer.
        """
        at = self._expiry_cycle()

        def setup(system):
            for cache in system.caches:
                cache.lut.program(1, 60)
                cache.lut.program(2, MSI_THETA)
            phase = (
                system.PHASE_EFFECT
                if switch_phase == "before"
                else system.PHASE_ARBITRATE
            )
            system.kernel.schedule(at, phase, lambda: system.switch_mode(2))

        system, stats, tracer = run_traced(
            self.CONFIG, self._traces(), lockstep=lockstep, setup=setup
        )
        switches = tracer.filter(kind="mode_switch")
        assert [ev.cycle for ev in switches] == [at]
        assert switches[0].payload["thetas"] == [MSI_THETA] * 4
        # Liveness: every access of every core completed.
        for i, trace in enumerate(self._traces()):
            assert stats.core(i).accesses == len(trace)
        # The collision really happened: the prefix up to ``at`` matches
        # the probe, so the expiry armed before the switch still fires
        # on the switch cycle itself (timers already pending keep their
        # deadlines across a mode switch; only *new* snoops see MSI).
        expiry_cycles = [
            ev.cycle for ev in tracer.filter(kind="timer_expiry")
        ]
        assert at in expiry_cycles

    @pytest.mark.parametrize("switch_phase", ["before", "after"])
    def test_switch_race_is_engine_invariant(self, switch_phase):
        """Both engines agree cycle-for-cycle through the race."""
        at = self._expiry_cycle()

        def setup(system):
            for cache in system.caches:
                cache.lut.program(1, 60)
                cache.lut.program(2, MSI_THETA)
            phase = (
                system.PHASE_EFFECT
                if switch_phase == "before"
                else system.PHASE_ARBITRATE
            )
            system.kernel.schedule(at, phase, lambda: system.switch_mode(2))

        runs = [
            run_traced(self.CONFIG, self._traces(), lockstep=ls, setup=setup)[1]
            for ls in (True, False)
        ]
        assert runs[0].final_cycle == runs[1].final_cycle
        assert core_snapshot(runs[0]) == core_snapshot(runs[1])


class TestExpiryVsBackInvalidate:
    """An LLC inclusion victim dies on the cycle its timer expires.

    Scenario (probe-aligned): core 0 (timed) owns line 0 dirty; core 1
    requests it, arming core 0's countdown timer; core 2's misses on
    lines 1 and 2 overflow the one-set LLC, whose victim is line 0 —
    back-invalidating core 0's pending copy.  The probe runs with a
    huge θ (the timer never fires first) to measure the fill cycle F
    and the back-invalidation cycle B; the real run uses θ = B - F so
    the expiry lands exactly on the back-invalidation cycle.
    """

    HUGE_THETA = 60_000  # fits the 16-bit register, far past the probe run

    def _config(self, theta):
        return cohort_config(
            [theta, MSI_THETA, MSI_THETA],
            perfect_llc=False,
            llc=CacheGeometry(size_bytes=2 * 64, line_bytes=64, ways=2),
            dram_latency=30,
        )

    def _traces(self):
        return [
            t([(0, "W", 0)]),          # owner: dirty line 0
            t([(150, "R", 0)]),        # requester: arms the timer
            t([(160, "R", 1), (20, "R", 2)]),  # evictor: overflows the LLC
        ]

    def _probe(self):
        _, stats, tracer = run_traced(
            self._config(self.HUGE_THETA), self._traces()
        )
        fills = tracer.filter(kind="fill", core=0, line=0)
        backs = tracer.filter(kind="back_invalidate", core=0, line=0)
        assert fills and backs, "probe must back-invalidate the owned line"
        fill_cycle, back_cycle = fills[0].cycle, backs[0].cycle
        assert back_cycle > fill_cycle
        # The requester's fill is released *by* the back-invalidation,
        # i.e. the timer really was still pending when the victim died.
        requester_fills = tracer.filter(kind="fill", core=1, line=0)
        assert requester_fills and requester_fills[0].cycle >= back_cycle
        return fill_cycle, back_cycle

    @pytest.mark.parametrize("lockstep", [True, False])
    def test_expiry_on_back_invalidate_cycle(self, lockstep):
        fill_cycle, back_cycle = self._probe()
        theta = back_cycle - fill_cycle  # expiry at fill + θ == B
        system, stats, tracer = run_traced(
            self._config(theta), self._traces(), lockstep=lockstep
        )
        # Prefixes are identical up to B, so the collision still happens
        # there — now with the expiry scheduled for the very same cycle.
        backs = tracer.filter(kind="back_invalidate", core=0, line=0)
        assert backs and backs[0].cycle == back_cycle
        # Whichever side wins the intra-cycle order, any expiry that
        # still fires for the line fires on that cycle, not later.
        for ev in tracer.filter(kind="timer_expiry", core=0, line=0):
            assert ev.cycle == back_cycle
        # Liveness + coherence: every access completed (the oracle was
        # on for the per-event run).
        for i, trace in enumerate(self._traces()):
            assert stats.core(i).accesses == len(trace)

    def test_back_invalidate_race_is_engine_invariant(self):
        fill_cycle, back_cycle = self._probe()
        theta = back_cycle - fill_cycle
        runs = [
            run_traced(self._config(theta), self._traces(), lockstep=ls)[1]
            for ls in (True, False)
        ]
        assert runs[0].final_cycle == runs[1].final_cycle
        assert core_snapshot(runs[0]) == core_snapshot(runs[1])
