"""The one-call telemetry façade.

``Telemetry.attach(system)`` wires every collector of :mod:`repro.obs`
onto a built (not yet run) :class:`~repro.sim.system.System` purely
through :class:`~repro.sim.events.EventBus` subscriptions and one
self-scheduling kernel sampler — no engine-layer code changes, and the
per-access hit path stays untouched (nothing here subscribes to
``hit``, so ``EventBus.hot`` stays false).

After ``system.run()``, the façade turns the collected spans and
metrics into the two export artefacts::

    telemetry = Telemetry.attach(system, sample_every=500)
    system.run()
    telemetry.write_trace("run.trace.json")     # chrome://tracing / Perfetto
    telemetry.write_report("run.metrics.json")  # structured run report
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.obs.export import build_trace_events, write_trace
from repro.obs.metrics import MetricsCollector
from repro.obs.report import build_run_report
from repro.obs.spans import SpanCollector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import System


class Telemetry:
    """Spans + metrics collectors and their exporters, as one object."""

    def __init__(
        self,
        system: "System",
        spans: SpanCollector,
        metrics: MetricsCollector,
        label: str = "simulate",
    ) -> None:
        self.system = system
        self.spans = spans
        self.metrics = metrics
        self.label = label

    @classmethod
    def attach(
        cls,
        system: "System",
        sample_every: int = 0,
        keep_spans: bool = True,
        label: str = "simulate",
    ) -> "Telemetry":
        """Subscribe all collectors to a built, not-yet-run system.

        ``sample_every`` is the time-series cadence in cycles (0 turns
        the sampler off; histograms and spans are always collected).
        ``keep_spans=False`` drops per-span records after aggregation —
        blame reports still work, trace export degrades to instants only.
        """
        spans = SpanCollector.attach(system, keep_spans=keep_spans)
        metrics = MetricsCollector.attach(system, sample_every=sample_every)
        return cls(system, spans, metrics, label=label)

    # -- artefacts ---------------------------------------------------------

    def trace_events(self, name: Optional[str] = None) -> Dict[str, Any]:
        """The Chrome trace-event / Perfetto JSON document."""
        return build_trace_events(
            self.spans,
            metrics=self.metrics,
            num_cores=self.system.config.num_cores,
            name=name or f"cohort-{self.label}",
        )

    def run_report(self) -> Dict[str, Any]:
        """The structured JSON run report."""
        return build_run_report(
            self.system, self.spans, metrics=self.metrics, label=self.label
        )

    def write_trace(self, path: str) -> None:
        """Save the Chrome trace-event JSON document to ``path``."""
        write_trace(path, self.trace_events())

    def write_report(self, path: str) -> None:
        """Save the structured run report as JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.run_report(), fh, indent=2)

    def render_blame(self) -> str:
        """Human-readable WCML blame table (worst span per core)."""
        return self.spans.render_blame()
