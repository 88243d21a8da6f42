"""Hierarchical spans: cross-process trace identity and span trees.

A *span* is a timed region of work with a parent, so a whole run —
parent grid orchestration, store publish, per-cell worker compute,
iterative kernel phases — forms one tree per trace.  Spans complement
the existing event stream: events stay deterministic and
byte-comparable (no wall-clock), while spans carry the wall-clock
intervals the timeline view needs.  :class:`~repro.obs.tracer.CollectingTracer`
records spans for every ``span(...)`` region and for the new
event-free ``phase(...)`` regions.

Cross-process identity travels as a :class:`SpanContext` — a tiny
picklable ``(trace_id, span_id)`` pair shipped to pool workers next
to the ``(config, store_root)`` payloads.  A worker tracer built from
a context *adopts* it: the worker's root spans carry the parent's
trace id and point at the parent span, so merging the worker snapshots
back (in deterministic cell order) yields a single trace tree.

Span ids are ``<prefix>:<seq>`` where ``prefix`` is unique per tracer
instance, so ids never collide across workers and merges need no
rewriting.  Tree *structure* (kinds, fields, parent/child shape) is
deterministic across serial and pooled runs; ids and wall-clock
values are not, which is why :func:`tree_shape` exists — it is the
comparable fingerprint the property suite asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SpanRecord",
    "SpanContext",
    "SpanNode",
    "span_to_dict",
    "span_from_dict",
    "spans_from_records",
    "build_span_tree",
    "tree_shape",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span.

    ``seq`` is the *enter* order within the recording tracer (children
    therefore have larger seqs than their parents even though they
    finish first); merges re-sequence incoming spans so the invariant
    holds for the merged tree too.  ``start_unix`` is ``time.time()``
    at enter (a cross-process-comparable axis for the timeline);
    ``duration_s`` is measured with ``time.perf_counter`` so the
    interval itself is monotonic.
    """

    seq: int
    span_id: str
    parent_id: str | None
    trace_id: str
    kind: str
    fields: dict
    start_unix: float
    duration_s: float

    @property
    def end_unix(self) -> float:
        return self.start_unix + self.duration_s


@dataclass(frozen=True)
class SpanContext:
    """Picklable cross-process span identity: ``(trace_id, span_id)``.

    Costs a few dozen bytes on the wire; a worker
    :class:`~repro.obs.tracer.CollectingTracer` built with
    ``context=...`` adopts the trace id and parents its root spans
    under ``span_id``.
    """

    trace_id: str
    span_id: str | None = None


def span_to_dict(span: SpanRecord) -> dict:
    """Plain-dict form of one span (the JSONL ``"span"`` record body)."""
    return {
        "seq": span.seq,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "trace_id": span.trace_id,
        "kind": span.kind,
        "fields": dict(span.fields),
        "start_unix": span.start_unix,
        "duration_s": span.duration_s,
    }


def span_from_dict(record: dict) -> SpanRecord:
    """Inverse of :func:`span_to_dict` (tolerates the ``"type"`` key)."""
    return SpanRecord(
        seq=int(record["seq"]),
        span_id=record["span_id"],
        parent_id=record["parent_id"],
        trace_id=record["trace_id"],
        kind=record["kind"],
        fields=dict(record["fields"]),
        start_unix=float(record["start_unix"]),
        duration_s=float(record["duration_s"]),
    )


def spans_from_records(records) -> list[SpanRecord]:
    """The span records of an exported obs JSONL stream, in seq order."""
    spans = [
        span_from_dict(record)
        for record in records
        if isinstance(record, dict) and record.get("type") == "span"
    ]
    spans.sort(key=lambda span: span.seq)
    return spans


@dataclass
class SpanNode:
    """One node of a reconstructed span tree."""

    span: SpanRecord
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.span.kind

    def walk(self, depth: int = 0):
        """Yield ``(depth, node)`` pairs in depth-first (seq) order."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


def build_span_tree(spans) -> list[SpanNode]:
    """Reconstruct the span forest: roots in seq order, children too.

    A span whose ``parent_id`` does not appear in ``spans`` (for
    example the adopted parent lives in another process's snapshot)
    becomes a root — the tree is always buildable from a partial
    record set.
    """
    ordered = sorted(spans, key=lambda span: span.seq)
    nodes = {span.span_id: SpanNode(span) for span in ordered}
    roots: list[SpanNode] = []
    for span in ordered:
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id) if span.parent_id is not None else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


def _shape(node: SpanNode) -> tuple:
    fields = tuple(sorted((key, repr(value)) for key, value in node.span.fields.items()))
    return (node.span.kind, fields, tuple(_shape(child) for child in node.children))


def tree_shape(spans) -> tuple:
    """Wall-clock-free structural fingerprint of a span forest.

    Two runs that did the same work in the same deterministic order —
    e.g. a serial and a pooled grid over the same config — produce
    equal shapes even though span ids, trace ids and durations differ.
    """
    return tuple(_shape(root) for root in build_span_tree(spans))
