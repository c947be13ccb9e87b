"""Seeded, deterministic fault schedules.

A :class:`FaultPlan` is the complete description of every fault a run
will suffer: *what* (a :class:`FaultKind`), *when* (an exact cycle),
*where* (a core) and *how hard* (``arg``/``span``).  Plans are plain
frozen data — generating one consumes randomness exactly once, from a
:class:`random.Random` seeded by the caller, so the same seed always
yields the same schedule on every platform.  Armed plans run on the
per-event engine (:func:`repro.sim.system.run_simulation` never routes
a fault plan to the lock-step engine).

The fault models are *hardware-level*: they perturb timer registers, a
snoop response, the shared bus or the backend — never Python state the
real hardware would not have.  The injector (:mod:`repro.fi.injector`)
only ever mutates the simulated machine through the same sanctioned
entry points the protocol engine itself uses, which is what makes the
"zero silent corruption" property of the campaign driver meaningful:
any injected fault either perturbs timing only (survived), or is
caught by the oracle / watchdog / hang detection (detected).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.timer import TIMER_BITS


class FaultKind(str, enum.Enum):
    """Hardware fault models the injector implements."""

    #: Flip one bit of a core's 16-bit timer-threshold register
    #: (HourGlass's linchpin register).  ``arg`` is the bit index.
    TIMER_FLIP = "timer_flip"
    #: A snoop response is lost: one pending-invalidation marking on the
    #: target core's cache is dropped (the countdown never fires).
    DROP_SNOOP = "drop_snoop"
    #: A snoop response is duplicated: a resident line observes a
    #: conflicting request that was never broadcast.
    DUP_SNOOP = "dup_snoop"
    #: Transient bus stall: the shared bus accepts no grant for ``arg``
    #: cycles.
    BUS_STALL = "bus_stall"
    #: DRAM latency jitter: +``arg`` cycles on fetches for ``span``
    #: cycles (non-perfect LLC only; a no-op under a perfect LLC).
    DRAM_JITTER = "dram_jitter"
    #: Spurious inclusion back-invalidation of one resident L1 line
    #: (dirty data is merged into the backend, as real inclusion
    #: hardware does).
    BACK_INVALIDATE = "back_invalidate"
    #: Mode-switch storm: ``arg`` mode switches in quick succession
    #: (``span`` cycles apart), cycling through the programmed modes.
    MODE_SWITCH_STORM = "mode_switch_storm"


#: Default campaign mix: every implemented fault model.
ALL_KINDS: Tuple[FaultKind, ...] = tuple(FaultKind)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault."""

    kind: FaultKind
    cycle: int
    core: int = 0
    #: Kind-specific magnitude (bit index, stall cycles, jitter cycles,
    #: storm length).
    arg: int = 0
    #: Kind-specific extent (jitter window, storm spacing).
    span: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form for campaign artifacts."""
        return {
            "kind": self.kind.value,
            "cycle": self.cycle,
            "core": self.core,
            "arg": self.arg,
            "span": self.span,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults plus the response policy.

    ``response`` selects what the modelled fault-detection hardware does
    after an injected *timer* fault: ``"none"`` leaves the corrupted
    register in place, ``"degrade_to_msi"`` reprograms the affected
    core's register to the MSI value ``detection_latency`` cycles after
    the flip — the paper's graceful-degradation story (§III): the core
    keeps running, it merely loses its latency guarantee.
    """

    faults: Tuple[Fault, ...] = ()
    seed: int = 0
    response: str = "none"
    detection_latency: int = 50

    def __post_init__(self) -> None:
        if self.response not in ("none", "degrade_to_msi"):
            raise ValueError(f"unknown fault response {self.response!r}")
        if self.detection_latency < 0:
            raise ValueError("detection_latency must be non-negative")
        for fault in self.faults:
            if fault.cycle < 0:
                raise ValueError("fault cycles must be non-negative")

    def __len__(self) -> int:
        return len(self.faults)

    def kinds(self) -> List[str]:
        """Distinct fault-kind names scheduled by this plan, sorted."""
        return sorted({f.kind.value for f in self.faults})

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form (campaign artifacts, determinism tests)."""
        return {
            "seed": self.seed,
            "response": self.response,
            "detection_latency": self.detection_latency,
            "faults": [f.to_dict() for f in self.faults],
        }

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon: int,
        num_cores: int,
        kinds: Optional[Sequence[FaultKind]] = None,
        n_faults: int = 2,
        response: str = "none",
        detection_latency: int = 50,
    ) -> "FaultPlan":
        """Draw a deterministic plan of ``n_faults`` faults.

        ``horizon`` bounds the injection cycles (typically the fault-free
        run's final cycle); all randomness comes from
        ``random.Random(seed)`` so the schedule is bit-reproducible.
        """
        if horizon < 1:
            raise ValueError("horizon must be at least one cycle")
        if num_cores < 1:
            raise ValueError("need at least one core")
        rng = random.Random(seed)
        pool: Sequence[FaultKind] = tuple(kinds) if kinds else ALL_KINDS
        faults: List[Fault] = []
        for _ in range(n_faults):
            kind = pool[rng.randrange(len(pool))]
            cycle = rng.randrange(1, horizon + 1)
            core = rng.randrange(num_cores)
            if kind is FaultKind.TIMER_FLIP:
                arg, span = rng.randrange(TIMER_BITS), 0
            elif kind is FaultKind.BUS_STALL:
                arg, span = rng.randrange(10, 200), 0
            elif kind is FaultKind.DRAM_JITTER:
                arg, span = rng.randrange(10, 120), rng.randrange(200, 2000)
            elif kind is FaultKind.MODE_SWITCH_STORM:
                arg, span = rng.randrange(2, 6), rng.randrange(5, 60)
            else:  # snoop / back-invalidation faults need no magnitude
                arg, span = 0, 0
            faults.append(Fault(kind, cycle, core, arg, span))
        faults.sort(key=lambda f: (f.cycle, f.core, f.kind.value))
        return cls(
            faults=tuple(faults),
            seed=seed,
            response=response,
            detection_latency=detection_latency,
        )


@dataclass
class InjectionRecord:
    """What actually happened when one fault fired (injector output)."""

    fault: Fault
    cycle: int
    #: "injected", "no_target" (nothing to corrupt at that cycle) or
    #: "skipped_unsafe" (firing would have corrupted an in-flight
    #: transfer the real fault could not reach).
    effect: str
    detail: str = ""
    responses: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form for the injection ledger."""
        return {
            "fault": self.fault.to_dict(),
            "cycle": self.cycle,
            "effect": self.effect,
            "detail": self.detail,
            "responses": list(self.responses),
        }
