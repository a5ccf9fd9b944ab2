"""``repro.obs`` — unified tracing, metrics and run records.

The measurement substrate of the repo.  The contest objective the
paper optimizes (Eqn. (3), Table 2) scores run time and peak memory
alongside overlay and density variation; this package is the one
implementation of those clocks:

* **spans** (:mod:`repro.obs.spans`) — hierarchical timed regions with
  exception tagging and mid-span counters; the engine's five stages,
  every baseline and the ECO flow report their ``seconds`` through
  spans,
* **metrics** (:mod:`repro.obs.metrics`) — process-wide counters,
  gauges and histograms (LP/dual-MCF alternation counts, candidates
  per Alg. 1 round, windows touched),
* **run records** (:mod:`repro.obs.record`) — one JSONL event stream
  plus summary (git sha, stage seconds, peak RSS, metric snapshots)
  per observed run, written by ``--trace-out`` and read back by
  ``python -m repro.obs summarize`` / ``repro trace``,
* **memory** (:mod:`repro.obs.rss`) — the only sanctioned home of
  RSS sampling (rule REP007 forbids raw
  ``time.perf_counter()``/``tracemalloc`` outside :mod:`repro.obs`),
* **live telemetry** — Prometheus exposition + rolling quantiles
  (:mod:`repro.obs.expose`), structured JSON events correlated to
  spans (:mod:`repro.obs.events`, the sanctioned diagnostics channel
  per rule REP014), and a thread-based sampling profiler with folded
  flamegraph export (:mod:`repro.obs.profile`).

See ``docs/OBSERVABILITY.md`` for the model and the JSONL schema.
"""

from . import events, expose, metrics, profile
from .events import emit
from .export import chrome_trace, chrome_trace_json, folded_stacks
from .expose import RollingQuantiles, TelemetryServer, render_prometheus
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    set_registry,
)
from .profile import ProfileCollector, SamplingProfiler, profiled
from .record import (
    Measurement,
    RecordError,
    RunRecord,
    RunRecorder,
    measure,
    read_record,
    record_run,
)
from .rss import PeakRssSampler, current_rss_bytes
from .spans import (
    Span,
    Tracer,
    active_tracer,
    adopt,
    annotate,
    count,
    current_offset,
    current_span,
    set_tracer,
    span,
)
from .summarize import diff_breaches, diff_records, format_metrics, format_record

__all__ = [
    "events",
    "expose",
    "metrics",
    "profile",
    "emit",
    "chrome_trace",
    "chrome_trace_json",
    "folded_stacks",
    "RollingQuantiles",
    "TelemetryServer",
    "render_prometheus",
    "ProfileCollector",
    "SamplingProfiler",
    "profiled",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "set_registry",
    "Measurement",
    "RecordError",
    "RunRecord",
    "RunRecorder",
    "measure",
    "read_record",
    "record_run",
    "PeakRssSampler",
    "current_rss_bytes",
    "Span",
    "Tracer",
    "active_tracer",
    "adopt",
    "annotate",
    "count",
    "current_offset",
    "current_span",
    "set_tracer",
    "span",
    "diff_breaches",
    "diff_records",
    "format_metrics",
    "format_record",
]
