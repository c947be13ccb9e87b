"""Request-lifecycle spans: per-phase latency attribution.

A *span* is the full life of one coherence request, correlated from the
event stream (``miss`` → ``grant``(broadcast) → waiting → optional
``grant``(data) → ``fill``) into a single record whose **phases partition
the measured latency exactly**:

``arb_request``
    waiting for the bus slot that broadcasts the request,
``bus_request``
    the broadcast's own bus occupancy (``LatencyParams.request``),
``protection``
    stalled on remote countdown timers — ends at the *last*
    ``timer_expiry`` observed on the line while waiting (the paper's
    Σθ term of Equation 1),
``backend``
    waiting on the memory backend after protection released: a DRAM
    fetch in flight and/or a write-back of the line still draining,
``arb_data``
    ready, but waiting for the data-transfer bus slot (arbitration and
    same-line FIFO ordering behind other requests),
``bus_data``
    the data transfer itself (``LatencyParams.data``; zero for upgrades
    that complete in place).

The attribution invariant — ``sum(phases.values()) == latency`` for
every completed span, with ``latency`` exactly what
:meth:`repro.sim.stats.CoreStats.record_miss` saw — holds by
construction: each phase is a clamped segment of the request's
``[issue, complete]`` interval and ``arb_data`` takes the remainder of
the wait window.  ``tests/test_obs_spans.py`` asserts it on every span
of real workloads.

:class:`SpanCollector` is an ordinary by-kind subscriber of the
:class:`~repro.sim.events.EventBus`; it never touches ``hit`` events, so
the hot path stays exactly as fast as with no telemetry at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import EventBus
    from repro.sim.system import System

#: Phase names, in request-lifecycle order.
PHASES: Tuple[str, ...] = (
    "arb_request",
    "bus_request",
    "protection",
    "backend",
    "arb_data",
    "bus_data",
)


@dataclass(slots=True)
class RequestSpan:
    """One coherence request's correlated lifecycle."""

    core: int
    line: int
    req_id: int
    req_kind: str
    issue_cycle: int
    #: Operating mode at issue time (0 before any ``mode_switch``).
    mode: int = 0
    broadcast_grant: Optional[int] = None
    broadcast_done: Optional[int] = None
    data_grant: Optional[int] = None
    complete_cycle: Optional[int] = None
    #: The latency reported by the ``fill`` event — byte-identical to
    #: what :meth:`repro.sim.stats.CoreStats.record_miss` accounted.
    latency: Optional[int] = None
    upgrade: bool = False
    source: Optional[int] = None
    #: ``timer_expiry`` cycles observed on this line while in flight.
    expiries: List[int] = field(default_factory=list)
    #: ``dram_fetch`` start cycles observed on this line while in flight.
    dram_fetches: List[int] = field(default_factory=list)
    #: ``wb_done`` cycles observed on this line while in flight.
    wb_drains: List[int] = field(default_factory=list)
    #: Per-phase latency attribution, filled at completion.
    phases: Dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.complete_cycle is not None

    def phase_segments(self) -> List[Tuple[str, int, int]]:
        """``(phase, start_cycle, end_cycle)`` for each non-empty phase,
        in order; the segments tile ``[issue_cycle, complete_cycle]``."""
        segments: List[Tuple[str, int, int]] = []
        at = self.issue_cycle
        for phase in PHASES:
            width = self.phases.get(phase, 0)
            if width > 0:
                segments.append((phase, at, at + width))
                at += width
        return segments

    def attribute(self, dram_latency: int) -> None:
        """Compute :attr:`phases` from the recorded lifecycle marks."""
        assert self.complete_cycle is not None and self.latency is not None
        issue = self.issue_cycle
        end = self.complete_cycle
        b_grant = self.broadcast_grant if self.broadcast_grant is not None else issue
        b_done = self.broadcast_done if self.broadcast_done is not None else b_grant
        # Upgrades finish without a data-transfer slot.
        wait_end = self.data_grant if self.data_grant is not None else end

        protect_end = b_done
        for cycle in self.expiries:
            if b_done <= cycle <= wait_end and cycle > protect_end:
                protect_end = cycle
        backend_end = protect_end
        for started in self.dram_fetches:
            if started <= wait_end:
                candidate = min(started + dram_latency, wait_end)
                if candidate > backend_end:
                    backend_end = candidate
        for drained in self.wb_drains:
            if protect_end <= drained <= wait_end and drained > backend_end:
                backend_end = drained
        self.phases = {
            "arb_request": b_grant - issue,
            "bus_request": b_done - b_grant,
            "protection": protect_end - b_done,
            "backend": backend_end - protect_end,
            "arb_data": wait_end - backend_end,
            "bus_data": end - wait_end,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (used by the run report and exporter)."""
        return {
            "core": self.core,
            "line": self.line,
            "req_id": self.req_id,
            "req_kind": self.req_kind,
            "mode": self.mode,
            "issue_cycle": self.issue_cycle,
            "complete_cycle": self.complete_cycle,
            "latency": self.latency,
            "upgrade": self.upgrade,
            "source": self.source,
            "phases": dict(self.phases),
        }


class SpanCollector:
    """Correlates the event stream into completed :class:`RequestSpan`\\ s.

    Subscribes by kind only (never to ``hit``): attaching one leaves
    :attr:`EventBus.hot` false and the simulator's inlined hit path intact.
    """

    #: Event kinds this collector consumes.
    KINDS = (
        "miss",
        "grant",
        "timer_expiry",
        "dram_fetch",
        "wb_done",
        "fill",
        "mode_switch",
    )

    def __init__(self, dram_latency: int = 0, keep_spans: bool = True) -> None:
        self.dram_latency = dram_latency
        #: Keep every completed span (needed for trace export).  When
        #: False only the per-core aggregates and worst spans survive.
        self.keep_spans = keep_spans
        self.completed: List[RequestSpan] = []
        self.mode = 0
        #: Instant events worth exporting (timer expiries, mode switches).
        self.instants: List[Tuple[int, str, Dict[str, Any]]] = []
        self._open: Dict[int, RequestSpan] = {}
        self._by_line: Dict[int, List[RequestSpan]] = {}
        self._phase_totals: Dict[int, Dict[str, int]] = {}
        self._span_counts: Dict[int, int] = {}
        self._worst: Dict[int, RequestSpan] = {}

    @classmethod
    def attach(cls, system: "System", keep_spans: bool = True) -> "SpanCollector":
        """Create a collector subscribed to the system's event bus."""
        collector = cls(
            dram_latency=system.config.dram_latency, keep_spans=keep_spans
        )
        collector.subscribe(system.events)
        return collector

    def subscribe(self, bus: "EventBus") -> "SpanCollector":
        """Register for the span-relevant event kinds on ``bus``.

        Each kind gets its handler subscribed directly (rather than one
        dispatching callable) — grants and fills fire once per miss, so
        skipping a string-dispatch layer is a measurable share of the
        telemetry overhead the benchmark guard budgets."""
        bus.subscribe(self._on_miss, kinds=("miss",))
        bus.subscribe(self._on_grant, kinds=("grant",))
        bus.subscribe(self._on_fill, kinds=("fill",))
        bus.subscribe(self._on_mark, kinds=("timer_expiry", "dram_fetch",
                                            "wb_done", "mode_switch"))
        return self

    def __call__(self, cycle: int, kind: str, payload: Dict[str, Any]) -> None:
        """Dispatch one event by kind (the generic listener signature)."""
        if kind == "grant":
            self._on_grant(cycle, kind, payload)
        elif kind == "miss":
            self._on_miss(cycle, kind, payload)
        elif kind == "fill":
            self._on_fill(cycle, kind, payload)
        else:
            self._on_mark(cycle, kind, payload)

    # -- lifecycle handlers ------------------------------------------------

    def _on_mark(self, cycle: int, kind: str, payload: Dict[str, Any]) -> None:
        if kind == "mode_switch":
            self.mode = payload["mode"]
            self.instants.append((cycle, "mode_switch", dict(payload)))
            return
        # timer_expiry / dram_fetch / wb_done: line-keyed marks
        if kind == "timer_expiry":
            self.instants.append((cycle, "timer_expiry", dict(payload)))
        for span in self._by_line.get(payload["line"], ()):
            if kind == "timer_expiry":
                span.expiries.append(cycle)
            elif kind == "dram_fetch":
                span.dram_fetches.append(cycle)
            else:
                span.wb_drains.append(cycle)

    def _on_miss(self, cycle: int, kind: str, payload: Dict[str, Any]) -> None:
        span = RequestSpan(
            core=payload["core"],
            line=payload["line"],
            req_id=payload["req_id"],
            req_kind=payload["req_kind"],
            issue_cycle=cycle,
            mode=self.mode,
        )
        self._open[span.core] = span
        self._by_line.setdefault(span.line, []).append(span)

    def _on_grant(self, cycle: int, kind: str, payload: Dict[str, Any]) -> None:
        job = payload["job"]
        if job == "WRITEBACK":
            return
        span = self._open.get(payload["core"])
        if span is None:
            return
        if job == "BROADCAST":
            span.broadcast_grant = cycle
            span.broadcast_done = cycle + payload["duration"]
        else:  # DATA
            span.data_grant = cycle

    def _on_fill(self, cycle: int, kind: str, payload: Dict[str, Any]) -> None:
        span = self._open.pop(payload["core"], None)
        if span is None:
            return
        line_spans = self._by_line.get(span.line)
        if line_spans is not None:
            line_spans.remove(span)
            if not line_spans:
                del self._by_line[span.line]
        span.complete_cycle = cycle
        span.latency = payload["latency"]
        span.upgrade = payload["upgrade"]
        span.source = payload["source"]
        span.req_kind = payload["req_kind"]
        span.attribute(self.dram_latency)
        core = span.core
        totals = self._phase_totals.get(core)
        if totals is None:
            totals = self._phase_totals[core] = {phase: 0 for phase in PHASES}
        for phase, width in span.phases.items():
            totals[phase] += width
        self._span_counts[core] = self._span_counts.get(core, 0) + 1
        worst = self._worst.get(core)
        if worst is None or (span.latency or 0) > (worst.latency or 0):
            self._worst[core] = span
        if self.keep_spans:
            self.completed.append(span)

    # -- reports -----------------------------------------------------------

    def cores(self) -> List[int]:
        """Core ids that completed at least one span, ascending."""
        return sorted(self._span_counts)

    def span_count(self, core: int) -> int:
        """Number of completed spans recorded for ``core``."""
        return self._span_counts.get(core, 0)

    def phase_totals(self, core: int) -> Dict[str, int]:
        """Summed per-phase attribution over the core's completed spans."""
        return dict(
            self._phase_totals.get(core, {phase: 0 for phase in PHASES})
        )

    def worst_span(self, core: int) -> Optional[RequestSpan]:
        """The core's highest-latency completed span."""
        return self._worst.get(core)

    def wcml_blame(self) -> List[Dict[str, Any]]:
        """Per core: the worst span's phase breakdown — an explanation of
        ``CoreStats.max_request_latency`` as a sum of phases — plus the
        aggregate phase totals behind the experimental WCML."""
        out: List[Dict[str, Any]] = []
        for core in self.cores():
            worst = self._worst[core]
            out.append(
                {
                    "core": core,
                    "spans": self._span_counts[core],
                    "max_request_latency": worst.latency,
                    "worst_span": worst.to_dict(),
                    "phase_totals": self.phase_totals(core),
                }
            )
        return out

    def render_blame(self) -> str:
        """Human-readable WCML blame table."""
        lines = ["WCML blame (worst request per core, phase attribution):"]
        header = (
            f"{'core':>5} {'maxlat':>8} " +
            " ".join(f"{phase:>12}" for phase in PHASES)
        )
        lines.append(header)
        for entry in self.wcml_blame():
            phases = entry["worst_span"]["phases"]
            lines.append(
                f"c{entry['core']:>4} {entry['max_request_latency']:>8} "
                + " ".join(f"{phases.get(phase, 0):>12}" for phase in PHASES)
            )
        return "\n".join(lines)
