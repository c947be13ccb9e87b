"""Seeded fault-injection campaigns and the end-of-run corruption audit.

A *campaign* is one simulation run with one generated
:class:`~repro.fi.plan.FaultPlan` armed and the golden-value oracle on.
:func:`run_campaigns` runs ``campaigns`` of them — campaign *i* focuses
on fault kind ``kinds[i % len(kinds)]`` with a seed derived from
``(seed, i)`` — and classifies each into the detection matrix:

``detected``
    The run terminated loudly: the oracle raised, the ``max_cycles``
    watchdog tripped, or the kernel drained with outstanding requests
    (a coherence deadlock).  The fault was *caught*.
``survived``
    The run completed, every result was oracle-clean, and the post-run
    :func:`audit_system` found the machine consistent.  The fault only
    perturbed timing — the paper's graceful-degradation story.
``silent_corruption``
    The run completed but the audit found an inconsistency the oracle
    missed.  The campaign driver exists to prove this bucket stays
    empty; ``cohort faults`` exits non-zero if it ever is not.

Everything in a :class:`CampaignReport` is derived from seeds and
cycle-deterministic state — no wall-clock times — so the same
``(config, traces, campaigns, seed)`` always produces a byte-identical
report.  Campaigns run on the per-event engine: the oracle and the
fault injector both need it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.params import MSI_THETA, SimConfig
from repro.sim.cache import LineState
from repro.sim.kernel import SimulationLimitError
from repro.sim.oracle import CoherenceViolationError
from repro.sim.system import System
from repro.sim.timer import MAX_THETA
from repro.sim.trace import Trace
from repro.fi.plan import ALL_KINDS, FaultKind, FaultPlan

#: The three buckets of the detection matrix, in reporting order.
VERDICTS = ("detected", "survived", "silent_corruption")


def audit_system(system: System) -> List[str]:
    """Post-run consistency audit; returns problem strings (empty = clean).

    Catches what the per-access oracle cannot: corruption that no
    subsequent load happened to observe.  Checks, for the final machine
    state, that (a) no line has two modified owners, (b) every modified
    copy holds its line's golden version, and (c) every golden version is
    still *reachable* — resident in some valid L1 copy, in the backend
    store, or in a still-buffered write-back.
    """
    problems: List[str] = []
    owners: Dict[int, List[int]] = {}
    for cache in system.caches:
        for line in cache.array.valid_lines():
            if line.state == LineState.M:
                owners.setdefault(line.line_addr, []).append(cache.core_id)
    for addr in sorted(owners):
        if len(owners[addr]) > 1:
            problems.append(
                f"line {addr} modified in cores {owners[addr]} at once"
            )
    for addr, golden in sorted(system.oracle.golden_versions().items()):
        reachable = set()
        for cache in system.caches:
            copy = cache.lookup(addr)
            if copy is None or not copy.valid:
                continue
            reachable.add(copy.version)
            if copy.state == LineState.M and copy.version != golden:
                problems.append(
                    f"line {addr} owner c{cache.core_id} holds version "
                    f"{copy.version}, golden is {golden}"
                )
        buffered = system.backend.buffered_version(addr)
        if buffered is not None:
            reachable.add(buffered)
        try:
            reachable.add(system.backend.version(addr))
        except KeyError:
            # Non-perfect LLC without the line resident: memory has it.
            reachable.add(system.dram.peek_version(addr))
        if golden not in reachable:
            problems.append(
                f"line {addr} golden version {golden} unreachable "
                f"(saw {sorted(reachable)})"
            )
    return problems


@dataclass
class CampaignOutcome:
    """Result of one campaign run."""

    index: int
    seed: int
    kind: str
    verdict: str
    detail: str
    final_cycle: Optional[int]
    plan: Dict[str, object]
    injections: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form for the detection-matrix artifact."""
        return {
            "index": self.index,
            "seed": self.seed,
            "kind": self.kind,
            "verdict": self.verdict,
            "detail": self.detail,
            "final_cycle": self.final_cycle,
            "plan": self.plan,
            "injections": self.injections,
        }


@dataclass
class CampaignReport:
    """Detection matrix plus per-campaign records (JSON-exportable)."""

    baseline_cycles: int
    response: str
    campaigns: List[CampaignOutcome] = field(default_factory=list)

    def matrix(self) -> Dict[str, Dict[str, int]]:
        """Fault kind → verdict → count."""
        out: Dict[str, Dict[str, int]] = {}
        for c in self.campaigns:
            row = out.setdefault(c.kind, {v: 0 for v in VERDICTS})
            row[c.verdict] += 1
        return out

    def totals(self) -> Dict[str, int]:
        """Verdict → count over all campaigns."""
        totals = {v: 0 for v in VERDICTS}
        for c in self.campaigns:
            totals[c.verdict] += 1
        return totals

    def silent_corruptions(self) -> List[CampaignOutcome]:
        """Campaigns that completed with an audit failure (must be empty)."""
        return [c for c in self.campaigns if c.verdict == "silent_corruption"]

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form of the full report (CI artifact)."""
        return {
            "baseline_cycles": self.baseline_cycles,
            "response": self.response,
            "totals": self.totals(),
            "matrix": self.matrix(),
            "campaigns": [c.to_dict() for c in self.campaigns],
        }

    def render(self) -> str:
        """Human-readable detection matrix for the CLI."""
        rows = sorted(self.matrix().items())
        width = max([len("fault kind")] + [len(k) for k, _ in rows])
        head = (
            f"{'fault kind':<{width}}  detected  survived  silent_corruption"
        )
        lines = [head, "-" * len(head)]
        for kind, row in rows:
            lines.append(
                f"{kind:<{width}}  {row['detected']:>8}  {row['survived']:>8}"
                f"  {row['silent_corruption']:>17}"
            )
        totals = self.totals()
        lines.append("-" * len(head))
        lines.append(
            f"{'total':<{width}}  {totals['detected']:>8}  "
            f"{totals['survived']:>8}  {totals['silent_corruption']:>17}"
        )
        return "\n".join(lines)


def _program_default_luts(system: System, config: SimConfig) -> None:
    """Simple criticality-driven LUTs so mode-switch storms have teeth.

    Mode ``m`` keeps a core's configured timer while its criticality is
    at least ``m`` and degrades it to MSI otherwise — the Section VI
    policy, without requiring a full mode-table optimization per
    campaign.
    """
    for core_id, cache in enumerate(system.caches):
        cc = config.core_config(core_id)
        for mode in range(1, 5):
            theta = cc.theta if cc.criticality >= mode else MSI_THETA
            cache.lut.program(mode, theta)


def run_campaigns(
    config: SimConfig,
    traces: Sequence[Trace],
    campaigns: int,
    seed: int = 0,
    kinds: Optional[Sequence[FaultKind]] = None,
    n_faults: int = 2,
    response: str = "degrade_to_msi",
    detection_latency: int = 50,
) -> CampaignReport:
    """Run ``campaigns`` seeded fault campaigns; return the report.

    A fault-free baseline run (oracle armed) establishes the injection
    horizon and proves the workload itself is clean; each campaign then
    re-runs the workload under one generated plan with a watchdog
    ``max_cycles`` tight enough to catch runaway timers quickly.
    """
    if campaigns < 1:
        raise ValueError("need at least one campaign")
    pool = tuple(kinds) if kinds else ALL_KINDS
    checked = replace(config, check_coherence=True)
    baseline = System(checked, traces).run()
    horizon = max(1, baseline.final_cycle)
    # Generous watchdog: several baselines plus the longest timer window a
    # flipped register can open.  Idle waiting costs no events, so a large
    # bound is cheap; an actual hang still terminates promptly.
    watchdog = replace(
        checked, max_cycles=horizon * 4 + 8 * MAX_THETA + 10_000
    )
    report = CampaignReport(baseline_cycles=horizon, response=response)
    for i in range(campaigns):
        kind = pool[i % len(pool)]
        plan_seed = seed * 1_000_003 + i
        plan = FaultPlan.generate(
            plan_seed,
            horizon,
            config.num_cores,
            kinds=(kind,),
            n_faults=n_faults,
            response=response,
            detection_latency=detection_latency,
        )
        system = System(watchdog, traces, fault_plan=plan)
        _program_default_luts(system, config)
        verdict, detail, final_cycle = _run_one(system)
        assert system.injector is not None
        report.campaigns.append(
            CampaignOutcome(
                index=i,
                seed=plan_seed,
                kind=kind.value,
                verdict=verdict,
                detail=detail,
                final_cycle=final_cycle,
                plan=plan.to_dict(),
                injections=system.injector.summary(),
            )
        )
    return report


def _run_one(system: System) -> "tuple[str, str, Optional[int]]":
    """Execute one armed system and classify the outcome."""
    try:
        stats = system.run()
    except CoherenceViolationError as exc:
        return "detected", f"oracle: {exc}", None
    except SimulationLimitError as exc:
        return "detected", f"watchdog: {exc}", None
    except (RuntimeError, AssertionError) as exc:
        # Outstanding-request deadlock or a tripped engine invariant:
        # loud, therefore caught.
        return "detected", f"{type(exc).__name__}: {exc}", None
    problems = audit_system(system)
    if problems:
        return "silent_corruption", "; ".join(problems), stats.final_cycle
    return "survived", f"completed at cycle {stats.final_cycle}", stats.final_cycle
