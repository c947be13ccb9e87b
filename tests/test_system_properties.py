"""Property-based validation of the protocol engine and the analysis.

Random traces and configurations drive the simulator with the
golden-value oracle enabled; the paper's key claims are then checked:

* coherence is never violated (single writer, reads see latest write);
* under RROF + CoHoRT, every measured per-request latency respects the
  Equation-1 bound;
* experimental hits dominate the statically guaranteed hits, and the
  measured task memory latency stays below the analytical WCML bound
  (predictability — the headline property of Figure 5).
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import MSI_THETA, MemOp, cohort_config, msi_fcfs_config
from repro.analysis import build_profiles, cohort_bounds, wcl_miss
from repro.sim.lockstep import LockstepSystem
from repro.sim.system import System
from repro.sim.trace import Trace

LINE = 64


def random_traces(seed, num_cores, n, shared_lines, private_lines, write_pct, gap_max):
    rng = np.random.default_rng(seed)
    traces = []
    for core in range(num_cores):
        gaps = rng.integers(0, gap_max + 1, size=n)
        is_shared = rng.random(n) < 0.5
        shared_idx = rng.integers(0, shared_lines, size=n)
        private_idx = rng.integers(0, private_lines, size=n)
        addrs = np.where(
            is_shared,
            shared_idx * LINE,
            (1000 + core * 512 + private_idx) * LINE,
        )
        ops = np.where(
            rng.random(n) < write_pct, int(MemOp.STORE), int(MemOp.LOAD)
        )
        traces.append(Trace.from_arrays(gaps, ops, addrs))
    return traces


theta_strategy = st.sampled_from([MSI_THETA, 1, 5, 20, 60, 150, 400])


@st.composite
def workload(draw):
    seed = draw(st.integers(0, 10_000))
    num_cores = draw(st.integers(2, 4))
    n = draw(st.integers(10, 80))
    shared_lines = draw(st.integers(1, 6))
    private_lines = draw(st.integers(1, 16))
    write_pct = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    gap_max = draw(st.sampled_from([0, 3, 10]))
    thetas = [draw(theta_strategy) for _ in range(num_cores)]
    return seed, num_cores, n, shared_lines, private_lines, write_pct, gap_max, thetas


@given(w=workload())
@settings(max_examples=120, deadline=None)
def test_cohort_random_traces_are_coherent_and_bounded(w):
    seed, num_cores, n, shared, private, wr, gap_max, thetas = w
    traces = random_traces(seed, num_cores, n, shared, private, wr, gap_max)
    config = replace(
        cohort_config(thetas), check_coherence=True
    )
    system = System(config, traces, record_latencies=True)
    stats = system.run()  # raises CoherenceViolationError on any violation

    sw = config.latencies.slot_width
    for i in range(num_cores):
        bound = wcl_miss(thetas, i, sw)
        core = stats.core(i)
        assert core.max_request_latency <= bound, (
            f"core {i}: measured {core.max_request_latency} > Eq.1 bound "
            f"{bound} (thetas={thetas}, seed={seed})"
        )
        assert core.accesses == len(traces[i])


@given(w=workload())
@settings(max_examples=80, deadline=None)
def test_guaranteed_hits_and_wcml_bound_dominate_measurement(w):
    seed, num_cores, n, shared, private, wr, gap_max, thetas = w
    traces = random_traces(seed, num_cores, n, shared, private, wr, gap_max)
    config = replace(cohort_config(thetas), check_coherence=True)
    stats = System(config, traces).run()

    profiles = build_profiles(traces, config.l1, config.latencies.hit)
    bounds = cohort_bounds(thetas, profiles, config.latencies)
    for i in range(num_cores):
        core = stats.core(i)
        # The static analysis is conservative: it never promises more hits
        # than any actual execution delivers...
        assert bounds[i].m_hit <= core.hits, (
            f"core {i}: guaranteed {bounds[i].m_hit} hits but measured "
            f"{core.hits} (thetas={thetas}, seed={seed})"
        )
        # ...and the analytical WCML dominates the measured memory latency.
        assert core.total_memory_latency <= bounds[i].wcml, (
            f"core {i}: measured WCML {core.total_memory_latency} > bound "
            f"{bounds[i].wcml} (thetas={thetas}, seed={seed})"
        )


@given(w=workload())
@settings(max_examples=50, deadline=None)
def test_msi_fcfs_random_traces_are_coherent(w):
    seed, num_cores, n, shared, private, wr, gap_max, _ = w
    traces = random_traces(seed, num_cores, n, shared, private, wr, gap_max)
    config = replace(msi_fcfs_config(num_cores), check_coherence=True)
    stats = System(config, traces).run()
    for i in range(num_cores):
        assert stats.core(i).accesses == len(traces[i])


@given(w=workload(), dram_latency=st.sampled_from([20, 100]))
@settings(max_examples=40, deadline=None)
def test_non_perfect_llc_random_traces_are_coherent(w, dram_latency):
    seed, num_cores, n, shared, private, wr, gap_max, thetas = w
    traces = random_traces(seed, num_cores, n, shared, private, wr, gap_max)
    from repro.params import CacheGeometry

    tiny_llc = CacheGeometry(size_bytes=64 * 64, line_bytes=64, ways=4)
    config = replace(
        cohort_config(thetas),
        check_coherence=True,
        perfect_llc=False,
        llc=tiny_llc,
        dram_latency=dram_latency,
    )
    stats = System(config, traces).run()
    assert stats.dram_fetches > 0
    for i in range(num_cores):
        assert stats.core(i).accesses == len(traces[i])


@given(w=workload(), dram_latency=st.sampled_from([20, 100]))
@settings(max_examples=40, deadline=None)
def test_non_perfect_llc_respects_extended_bound(w, dram_latency):
    """Our non-perfect-LLC extension of Equation 1 dominates measurement."""
    from repro.params import CacheGeometry
    from repro.analysis import wcl_miss_nonperfect

    seed, num_cores, n, shared, private, wr, gap_max, thetas = w
    traces = random_traces(seed, num_cores, n, shared, private, wr, gap_max)
    tiny_llc = CacheGeometry(size_bytes=64 * 64, line_bytes=64, ways=4)
    config = replace(
        cohort_config(thetas),
        check_coherence=True,
        perfect_llc=False,
        llc=tiny_llc,
        dram_latency=dram_latency,
    )
    stats = System(config, traces, record_latencies=True).run()
    sw = config.latencies.slot_width
    for i in range(num_cores):
        bound = wcl_miss_nonperfect(thetas, i, sw, dram_latency)
        assert stats.core(i).max_request_latency <= bound, (
            f"core {i}: {stats.core(i).max_request_latency} > {bound} "
            f"(thetas={thetas}, seed={seed}, D={dram_latency})"
        )


@given(w=workload())
@settings(max_examples=40, deadline=None)
def test_wb_on_bus_random_traces_are_coherent(w):
    seed, num_cores, n, shared, private, wr, gap_max, thetas = w
    traces = random_traces(seed, num_cores, n, shared, private, wr, gap_max)
    config = replace(cohort_config(thetas), check_coherence=True, wb_on_bus=True)
    stats = System(config, traces).run()
    for i in range(num_cores):
        assert stats.core(i).accesses == len(traces[i])


@given(w=workload())
@settings(max_examples=30, deadline=None)
def test_pcc_random_traces_are_coherent(w):
    seed, num_cores, n, shared, private, wr, gap_max, _ = w
    traces = random_traces(seed, num_cores, n, shared, private, wr, gap_max)
    from repro.params import pcc_config

    config = replace(pcc_config(num_cores), check_coherence=True)
    stats = System(config, traces).run()
    for i in range(num_cores):
        assert stats.core(i).accesses == len(traces[i])


@given(w=workload(), theta=st.sampled_from([20, 100, 300]))
@settings(max_examples=30, deadline=None)
def test_pendulum_random_traces_are_coherent_and_bounded(w, theta):
    seed, num_cores, n, shared, private, wr, gap_max, _ = w
    traces = random_traces(seed, num_cores, n, shared, private, wr, gap_max)
    from repro.params import pendulum_config
    from repro.analysis import wcl_miss_pendulum

    critical = [i % 2 == 0 for i in range(num_cores)]
    config = replace(
        pendulum_config(critical, theta=theta), check_coherence=True
    )
    stats = System(config, traces, record_latencies=True).run()
    n_cr = sum(critical)
    sw = config.latencies.slot_width
    bound = wcl_miss_pendulum(num_cores, n_cr, theta, sw, critical=True)
    for i in range(num_cores):
        assert stats.core(i).accesses == len(traces[i])
        if critical[i]:
            assert stats.core(i).max_request_latency <= bound, (
                f"Cr core {i}: {stats.core(i).max_request_latency} > "
                f"{bound} (critical={critical}, theta={theta}, seed={seed})"
            )


@given(w=workload())
@settings(max_examples=40, deadline=None)
def test_rrof_no_core_served_twice_over_a_waiting_elder(w):
    """RROF fairness, observable form: while one request is pending on a
    line, every other core completes at most two requests *on that line*
    (one possibly granted just before us plus one legal overtake — after
    completing, a core rotates behind every still-waiting requester, so
    it cannot leapfrog the same elder twice)."""
    from repro.sim.debug import ProtocolTracer

    seed, num_cores, n, shared, private, wr, gap_max, thetas = w
    traces = random_traces(seed, num_cores, n, shared, private, wr, gap_max)
    config = replace(cohort_config(thetas), check_coherence=True)
    system = System(config, traces)
    tracer = ProtocolTracer.attach(system)
    system.run()

    fills = tracer.filter(kind="fill")
    for fill in fills:
        latency = fill.payload["latency"]
        start = fill.cycle - latency
        for other in range(num_cores):
            if other == fill.core:
                continue
            other_fills = [
                ev
                for ev in fills
                if ev.core == other
                and ev.line == fill.line
                and start < ev.cycle < fill.cycle
            ]
            assert len(other_fills) <= 2, (
                f"core {other} filled line {fill.line} "
                f"{len(other_fills)} times while core {fill.core} waited "
                f"(thetas={thetas}, seed={seed})"
            )


@given(w=workload())
@settings(max_examples=30, deadline=None)
def test_determinism_same_seed_same_result(w):
    seed, num_cores, n, shared, private, wr, gap_max, thetas = w
    traces = random_traces(seed, num_cores, n, shared, private, wr, gap_max)
    config = cohort_config(thetas)
    a = System(config, traces).run()
    b = System(config, traces).run()
    assert a.final_cycle == b.final_cycle
    for x, y in zip(a.cores, b.cores):
        assert (x.hits, x.misses, x.total_memory_latency) == (
            y.hits,
            y.misses,
            y.total_memory_latency,
        )


@given(
    w=workload(),
    protocol=st.sampled_from(["cohort", "msi_fcfs"]),
    runahead=st.sampled_from([0, 4, 16]),
)
@settings(max_examples=80, deadline=None)
def test_lockstep_is_cycle_identical_to_event_per_access(w, protocol, runahead):
    """The lock-step engine must be indistinguishable from the per-event
    engine (one heap event per access): identical final cycle and
    per-core statistics.  The coherence oracle runs on the per-event
    side; the lock-step engine refuses it, so that side runs unchecked."""
    seed, num_cores, n, shared, private, wr, gap_max, thetas = w
    traces = random_traces(seed, num_cores, n, shared, private, wr, gap_max)
    if protocol == "cohort":
        config = replace(cohort_config(thetas), check_coherence=True)
    else:
        config = replace(msi_fcfs_config(num_cores), check_coherence=True)
    config = replace(config, runahead_window=runahead)
    lock = LockstepSystem(
        replace(config, check_coherence=False), traces, record_latencies=True
    ).run()
    event = System(config, traces, record_latencies=True).run()
    assert lock.final_cycle == event.final_cycle, (
        f"lockstep {lock.final_cycle} != per-event {event.final_cycle} "
        f"(protocol={protocol}, ra={runahead}, thetas={thetas}, seed={seed})"
    )
    for i in range(num_cores):
        f, s = lock.core(i), event.core(i)
        assert (
            f.accesses,
            f.hits,
            f.misses,
            f.upgrades,
            f.runahead_hits,
            f.total_memory_latency,
            f.max_request_latency,
            f.finish_cycle,
            f.request_latencies,
        ) == (
            s.accesses,
            s.hits,
            s.misses,
            s.upgrades,
            s.runahead_hits,
            s.total_memory_latency,
            s.max_request_latency,
            s.finish_cycle,
            s.request_latencies,
        ), f"core {i} diverged (protocol={protocol}, ra={runahead}, seed={seed})"


@given(w=workload())
@settings(max_examples=30, deadline=None)
def test_runahead_never_changes_correctness_only_timing(w):
    seed, num_cores, n, shared, private, wr, gap_max, thetas = w
    traces = random_traces(seed, num_cores, n, shared, private, wr, gap_max)
    base = replace(cohort_config(thetas), check_coherence=True)
    with_ra = System(replace(base, runahead_window=8), traces).run()
    without = System(replace(base, runahead_window=0), traces).run()
    for i in range(num_cores):
        assert with_ra.core(i).accesses == without.core(i).accesses == len(traces[i])
