"""repro.obs — lightweight observability: tracing, metrics, ledger.

The subsystem turns the paper's prose-level decision narratives (which
machine wins a Min-Min round, which way a tie breaks, which machine an
iteration freezes) into first-class, assertable data:

* :class:`Tracer` / :class:`CollectingTracer` / :data:`NULL_TRACER` —
  structured span/event records with a no-op default, so instrumented
  hot paths cost one attribute check when tracing is disabled;
* :class:`SpanRecord` / :class:`SpanContext` + :func:`build_span_tree`
  — hierarchical spans with cross-process trace identity: a parent
  ships its :class:`SpanContext` to workers, the merged snapshots form
  one trace tree, and ``repro obs timeline`` renders it
  (:func:`render_timeline` / :func:`render_timeline_html`);
* :class:`Counters` / :class:`Histograms` — monotonic,
  merge-deterministic metrics (durations live in spans);
* :class:`ObsSnapshot` + JSONL export — picklable state that the
  parallel experiment runner merges deterministically across workers
  (and :func:`records_to_snapshot` reads back);
* :class:`TimeSeriesLog` / :class:`GridSampler` — periodic
  ``repro-timeseries/1`` samples (throughput, cache hit rate, RSS,
  queue depth) streamed to JSONL while a grid run progresses;
* :class:`RunLedger` — the durable, append-only ``repro-ledger/1``
  record of every bench/study/compare/export/report invocation
  (``repro obs tail / summary / diff`` inspect it;
  :func:`follow_records` powers ``tail --follow``);
* :class:`ProgressReporter` — live stderr progress for long sweeps,
  rendered outside the event stream so traces stay byte-identical;
* ``python -m repro trace`` — replays a witness example and prints its
  decision trace.

See docs/observability.md for the event catalogue and all three JSONL
schemas (trace export, run ledger, time-series).
"""

from repro.obs.export import (
    event_to_dict,
    format_event,
    read_jsonl,
    records_to_snapshot,
    render_events,
    snapshot_to_jsonl,
    span_to_record,
    write_jsonl,
)
from repro.obs.ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_SCHEMA,
    RunLedger,
    build_record,
    config_hash,
    diff_records,
    follow_records,
    headline_metrics,
    summarize_records,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    TIME_BUCKETS,
    Counters,
    HistogramStat,
    Histograms,
)
from repro.obs.progress import (
    NULL_PROGRESS,
    NullProgress,
    ProgressReporter,
    make_progress,
)
from repro.obs.spans import (
    SpanContext,
    SpanNode,
    SpanRecord,
    build_span_tree,
    span_from_dict,
    span_to_dict,
    spans_from_records,
    tree_shape,
)
from repro.obs.timeline import (
    render_timeline,
    render_timeline_html,
    write_timeline_html,
)
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    GridSampler,
    TimeSeriesLog,
    read_timeseries,
    rss_bytes,
)
from repro.obs.tracer import (
    NULL_TRACER,
    CollectingTracer,
    NullTracer,
    ObsSnapshot,
    TraceEvent,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "CollectingTracer",
    "ObsSnapshot",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "SpanRecord",
    "SpanContext",
    "SpanNode",
    "build_span_tree",
    "tree_shape",
    "spans_from_records",
    "span_to_dict",
    "span_from_dict",
    "Counters",
    "Histograms",
    "HistogramStat",
    "DEFAULT_BUCKETS",
    "TIME_BUCKETS",
    "event_to_dict",
    "snapshot_to_jsonl",
    "span_to_record",
    "write_jsonl",
    "read_jsonl",
    "records_to_snapshot",
    "format_event",
    "render_events",
    "TIMESERIES_SCHEMA",
    "TimeSeriesLog",
    "GridSampler",
    "read_timeseries",
    "rss_bytes",
    "render_timeline",
    "render_timeline_html",
    "write_timeline_html",
    "LEDGER_SCHEMA",
    "DEFAULT_LEDGER_PATH",
    "RunLedger",
    "build_record",
    "config_hash",
    "diff_records",
    "follow_records",
    "headline_metrics",
    "summarize_records",
    "ProgressReporter",
    "NullProgress",
    "NULL_PROGRESS",
    "make_progress",
]
