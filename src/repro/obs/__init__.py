"""Telemetry layer: spans, metrics, exporters, optimizer logs.

Everything in this package observes the simulator exclusively through
:class:`~repro.sim.events.EventBus` subscriptions (plus one read-only
kernel sampler) — attaching telemetry never changes simulated cycle
counts, and nothing here subscribes to per-access ``hit`` events, so the
engine keeps its inlined per-access hit path.

Entry points:

* :class:`Telemetry` — one-call attach + trace/report export,
* :class:`SpanCollector` / :class:`RequestSpan` — request-lifecycle
  spans with exact per-phase latency attribution and WCML blame,
* :class:`MetricsCollector` / :class:`LatencyHistogram` — log2 latency
  histograms and windowed time-series samples,
* :func:`build_trace_events` / :func:`validate_trace_events` — Chrome
  trace-event (Perfetto-loadable) export and its in-repo schema check,
* :func:`build_run_report` / :func:`summarise` — structured run reports
  and the ``cohort metrics`` digest,
* :class:`GAGenerationLog` — per-generation JSONL for the optimizer,
* :class:`OpLogger` / :func:`compute_slo` /
  :func:`build_service_trace` — the *operational* half
  (:mod:`repro.obs.ops`): structured serving logs with trace-context
  propagation, service-lifecycle traces, SLO inputs,
* :func:`prometheus_from_serve_metrics` — Prometheus text exposition
  of the serve ``/metrics`` document.
"""

from repro.obs.export import build_trace_events, write_trace
from repro.obs.ga_log import GAGenerationLog, load_jsonl
from repro.obs.metrics import LatencyHistogram, MetricsCollector, log2_bucket
from repro.obs.ops import (
    OpLogger,
    build_service_trace,
    compute_slo,
    new_trace_id,
    read_oplog,
    valid_trace_id,
)
from repro.obs.promexport import (
    parse_prometheus_text,
    prometheus_from_serve_metrics,
)
from repro.obs.report import (
    build_run_report,
    classify,
    summarise,
)
from repro.obs.schema import (
    FLEET_METRICS_SCHEMA,
    GATE_REPORT_SCHEMA,
    INTAKE_JOURNAL_SCHEMA,
    OPLOG_SCHEMA,
    RUN_MANIFEST_SCHEMA,
    RUN_REPORT_SCHEMA,
    SCHEMA_REGISTRY,
    SERVE_METRICS_SCHEMA,
    SWEEP_METRICS_SCHEMA,
    TRACE_EVENT_SCHEMA,
    validate_document,
    validate_trace_events,
)
from repro.obs.spans import PHASES, RequestSpan, SpanCollector
from repro.obs.telemetry import Telemetry

__all__ = [
    "FLEET_METRICS_SCHEMA",
    "GATE_REPORT_SCHEMA",
    "INTAKE_JOURNAL_SCHEMA",
    "OPLOG_SCHEMA",
    "PHASES",
    "RUN_MANIFEST_SCHEMA",
    "RUN_REPORT_SCHEMA",
    "SCHEMA_REGISTRY",
    "SERVE_METRICS_SCHEMA",
    "SWEEP_METRICS_SCHEMA",
    "TRACE_EVENT_SCHEMA",
    "GAGenerationLog",
    "LatencyHistogram",
    "MetricsCollector",
    "OpLogger",
    "RequestSpan",
    "SpanCollector",
    "Telemetry",
    "build_run_report",
    "build_service_trace",
    "build_trace_events",
    "classify",
    "compute_slo",
    "load_jsonl",
    "log2_bucket",
    "new_trace_id",
    "parse_prometheus_text",
    "prometheus_from_serve_metrics",
    "read_oplog",
    "summarise",
    "valid_trace_id",
    "validate_document",
    "validate_trace_events",
    "write_trace",
]
