"""repro.obs — deterministic observability for the simulation stack.

The paper's KWO service lives on continuous telemetry and real-time
monitoring (§4.4); this package gives the *reproduction itself* the same
property: structured sim-time traces (spans + events), an in-process
metrics registry, and run manifests, all with byte-stable exports so two
runs of the same ``(scenario, seed)`` produce identical observability
output (docs/OBSERVABILITY.md).

Disabled by default; the whole module-level API is a no-op until a session
is opened::

    from repro import obs

    with obs.observed(manifest=scenario.manifest()) as rec:
        run_before_after(scenario)
    rec.sink.dump("trace.jsonl")
    print(rec.metrics.to_json())
"""

from repro.obs.alerts import NULL_ALERTS, AlertManager
from repro.obs.manifest import RunManifest, config_hash
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObservabilityError,
)
from repro.obs.profile import (
    Profile,
    SpanStats,
    critical_path,
    diff_profiles,
    folded_stacks,
    profile_records,
    to_folded,
)
from repro.obs.provenance import (
    PROVENANCE_SCHEMA_VERSION,
    UNATTRIBUTED,
    AttributionEntry,
    AttributionLedger,
    AttributionShare,
    AttributionSummary,
    CalibrationReport,
    CalibrationRow,
    CandidateEvaluation,
    DecisionContext,
    DecisionOutcome,
    DecisionRecord,
    ProvenanceLog,
    split_exact,
)
from repro.obs.series import DEFAULT_BUCKET_SECONDS, MetricSeries, SeriesRegistry
from repro.obs.store import STORE_SCHEMA_VERSION, FleetStore
from repro.obs.stream import (
    CHUNK_SCHEMA_VERSION,
    HEARTBEAT_SCHEMA_VERSION,
    NULL_PROBE,
    RESOURCES_SCHEMA_VERSION,
    ResourceProbe,
    SpillingTraceSink,
    campaign_progress,
    campaign_summary,
    payload_chunks,
    peak_rss_kb,
    read_heartbeats,
    write_heartbeat,
)
from repro.obs.watchtower import (
    WATCHTOWER_SCHEMA_VERSION,
    WatchtowerThresholds,
    fleet_baseline,
    run_watchtower,
)
from repro.obs.slo import (
    SLOReport,
    SLOResult,
    SLOSpec,
    SLOViolation,
    default_slos,
    evaluate_all,
)
from repro.obs.trace import (
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    Recorder,
    Span,
    TraceSink,
    alerts,
    counter,
    emit,
    enabled,
    gauge,
    histogram,
    observed,
    recorder,
    resume,
    span,
    start,
    stop,
)

__all__ = [
    "AlertManager",
    "CHUNK_SCHEMA_VERSION",
    "HEARTBEAT_SCHEMA_VERSION",
    "NULL_PROBE",
    "RESOURCES_SCHEMA_VERSION",
    "ResourceProbe",
    "SpillingTraceSink",
    "WATCHTOWER_SCHEMA_VERSION",
    "WatchtowerThresholds",
    "AttributionEntry",
    "AttributionLedger",
    "AttributionShare",
    "AttributionSummary",
    "CalibrationReport",
    "CalibrationRow",
    "CandidateEvaluation",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_BUCKET_SECONDS",
    "DecisionContext",
    "DecisionOutcome",
    "DecisionRecord",
    "FleetStore",
    "Gauge",
    "Histogram",
    "MetricSeries",
    "MetricsRegistry",
    "NULL_ALERTS",
    "NULL_SPAN",
    "ObservabilityError",
    "PROVENANCE_SCHEMA_VERSION",
    "Profile",
    "ProvenanceLog",
    "Recorder",
    "RunManifest",
    "SLOReport",
    "SLOResult",
    "SLOSpec",
    "SLOViolation",
    "STORE_SCHEMA_VERSION",
    "SeriesRegistry",
    "Span",
    "SpanStats",
    "TRACE_SCHEMA_VERSION",
    "TraceSink",
    "UNATTRIBUTED",
    "alerts",
    "campaign_progress",
    "campaign_summary",
    "config_hash",
    "counter",
    "critical_path",
    "default_slos",
    "diff_profiles",
    "emit",
    "enabled",
    "evaluate_all",
    "fleet_baseline",
    "folded_stacks",
    "gauge",
    "histogram",
    "observed",
    "payload_chunks",
    "peak_rss_kb",
    "profile_records",
    "read_heartbeats",
    "recorder",
    "resume",
    "run_watchtower",
    "span",
    "split_exact",
    "start",
    "stop",
    "to_folded",
    "write_heartbeat",
]
