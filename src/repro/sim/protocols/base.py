"""The declarative coherence-protocol layer.

A :class:`CoherenceProtocol` packages every *per-line decision* of the
snooping engine as data — three transition tables consulted at the three
decision points of a line's life:

* **classify** — how a local access against the line's (effective)
  stable state is served: hit, GetS/GetM miss, or upgrade.  Consulted
  by the core-facing access path.
* **snoop** — what a resident copy does when a *conflicting* remote
  request is observed on the bus: invalidate at once, concede ownership
  at once (remaining only as the data source), or arm the CoHoRT
  countdown timer.  Keyed by ``(timed_core, state)``.
* **reader_handover** — what an owner does after sourcing data for a
  remote *reader*: keep a Shared copy (plain MSI) or invalidate
  (timed cores per Figure 3, and PMSI-style invalidate-on-share).

What is *not* in the tables is deliberately protocol-independent and
lives in :mod:`repro.sim.engine`: conflict detection (a waiting writer
conflicts with every copy, a waiting reader only with the owner),
same-line FIFO request ordering, and bus/backend mechanics.

Protocols are stateless singletons registered by name in
:mod:`repro.sim.protocols`; selecting one is configuration
(``SimConfig.protocol`` / ``cohort --protocol``), not code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Tuple

from repro.params import MemOp
from repro.sim.cache import LineState
from repro.sim.messages import ReqKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.private_cache import PrivateCache


class AccessOutcome(enum.Enum):
    """Classification of a local access against the private cache."""

    HIT = "hit"
    MISS_GETS = "gets"
    MISS_GETM = "getm"
    UPGRADE = "upg"

    @property
    def req_kind(self) -> ReqKind:
        if self is AccessOutcome.MISS_GETS:
            return ReqKind.GETS
        if self is AccessOutcome.MISS_GETM:
            return ReqKind.GETM
        if self is AccessOutcome.UPGRADE:
            return ReqKind.UPG
        raise ValueError("hits carry no request kind")


class SnoopAction(enum.Enum):
    """Reaction of a resident copy to a conflicting remote request."""

    IGNORE = "ignore"          #: the copy is unaffected.
    INVALIDATE = "invalidate"  #: drop the copy immediately (MSI S copy).
    CONCEDE = "concede"        #: owner concedes at once, stays as source.
    TIMER = "timer"            #: arm the countdown-counter expiry (Fig. 3).


class HandoverAction(enum.Enum):
    """What a data-sourcing owner does after a remote *reader* handover."""

    KEEP_SHARED = "keep_shared"  #: downgrade M→S and keep the copy (MSI).
    INVALIDATE = "invalidate"    #: invalidate-on-share (timed cores, PMSI).


ClassifyTable = Mapping[Tuple[LineState, MemOp], AccessOutcome]
SnoopTable = Mapping[Tuple[bool, LineState], SnoopAction]
HandoverTable = Mapping[bool, HandoverAction]

#: The classify entries every MSI-family protocol shares; protocols whose
#: HIT set equals this one are eligible for the engine's inlined hit path.
STANDARD_HIT_STATES: frozenset = frozenset(
    {
        (LineState.S, MemOp.LOAD),
        (LineState.M, MemOp.LOAD),
        (LineState.M, MemOp.STORE),
    }
)


@dataclass(frozen=True)
class TransitionTables:
    """The three decision tables of one protocol (see module docstring)."""

    classify: ClassifyTable
    snoop: SnoopTable
    reader_handover: HandoverTable

    def validate(self) -> None:
        """Check table completeness; raises ``ValueError`` on gaps."""
        for state in (LineState.I, LineState.S, LineState.M):
            for op in (MemOp.LOAD, MemOp.STORE):
                if (state, op) not in self.classify:
                    raise ValueError(
                        f"classify table misses ({state.name}, {op.name})"
                    )
        if self.classify[(LineState.I, MemOp.LOAD)] is AccessOutcome.HIT:
            raise ValueError("an invalid line cannot serve a load")
        if self.classify[(LineState.I, MemOp.STORE)] is AccessOutcome.HIT:
            raise ValueError("an invalid line cannot serve a store")
        for timed in (False, True):
            for state in (LineState.S, LineState.M):
                if (timed, state) not in self.snoop:
                    raise ValueError(
                        f"snoop table misses (timed={timed}, {state.name})"
                    )
            if timed not in self.reader_handover:
                raise ValueError(
                    f"reader_handover table misses timed={timed}"
                )


class CoherenceProtocol:
    """One pluggable coherence protocol: a name plus transition tables.

    ``heterogeneous`` selects CoHoRT's per-core timed/MSI mix: when True
    a core's behaviour follows its timer register (``θ == -1`` → MSI,
    ``θ >= 1`` → timed); when False every core takes the MSI
    (``timed=False``) rows of the tables regardless of its θ.

    ``force_via_llc`` routes dirty owner handovers through the LLC
    (write-back, then re-fetch) independent of
    ``SimConfig.via_llc_transfers`` — the PCC/PMSI family's transfer
    discipline.
    """

    __slots__ = ("name", "tables", "heterogeneous", "force_via_llc", "description")

    def __init__(
        self,
        name: str,
        tables: TransitionTables,
        heterogeneous: bool = True,
        force_via_llc: bool = False,
        description: str = "",
    ) -> None:
        tables.validate()
        self.name = name
        self.tables = tables
        self.heterogeneous = heterogeneous
        self.force_via_llc = force_via_llc
        self.description = description

    # -- per-core view -----------------------------------------------------

    def core_is_timed(self, cache: "PrivateCache") -> bool:
        """Whether ``cache``'s copies use the countdown-timer rows."""
        return self.heterogeneous and not cache.is_msi

    # -- decision points ---------------------------------------------------

    def classify(
        self, cache: "PrivateCache", op: MemOp, line_addr: int
    ) -> AccessOutcome:
        """Hit/miss classification of a local access, right now.

        A *frozen* copy (conceded to a remote writer, awaiting the data
        transfer) serves nothing and classifies as invalid.
        """
        line = cache.lookup(line_addr)
        state = (
            LineState.I if line is None or line.frozen else line.state
        )
        return self.tables.classify[(state, MemOp(op))]

    def snoop_action(
        self, cache: "PrivateCache", state: LineState
    ) -> SnoopAction:
        """Reaction of ``cache``'s copy in ``state`` to a conflict."""
        return self.tables.snoop[(self.core_is_timed(cache), state)]

    def reader_handover(self, cache: "PrivateCache") -> HandoverAction:
        """Post-handover fate of ``cache``'s owned copy after a GetS."""
        return self.tables.reader_handover[self.core_is_timed(cache)]

    # -- engine integration ------------------------------------------------

    def uses_standard_hits(self) -> bool:
        """True when the inlined hot-path hit predicate is valid.

        The engine's per-access hit path hardcodes the MSI-family hit
        set (S/M serve loads, only M serves stores).  A protocol whose
        classify table declares exactly that HIT set may use it; any
        other table forces the general :meth:`classify` call per access.
        """
        hits = {
            key
            for key, outcome in self.tables.classify.items()
            if outcome is AccessOutcome.HIT
        }
        return hits == set(STANDARD_HIT_STATES)

    def via_llc(self, config_via_llc: bool) -> bool:
        """Effective transfer routing given the system configuration."""
        return bool(config_via_llc or self.force_via_llc)

    def __repr__(self) -> str:
        kind = "heterogeneous" if self.heterogeneous else "homogeneous"
        return f"CoherenceProtocol({self.name!r}, {kind})"
