"""JSONL export/import and human-readable rendering of trace state.

JSONL schema (one JSON object per line, stable key order):

* ``{"type": "event", "seq": int, "kind": str, "fields": {...}}``
* ``{"type": "span", "seq": int, "span_id": str, "parent_id":
  str | null, "trace_id": str, "kind": str, "fields": {...},
  "start_unix": float, "duration_s": float}``
* ``{"type": "counter", "name": str, "value": int}``
* ``{"type": "histogram", "name": str, "buckets": [...], "counts":
  [...], "count": int, "sum": float, "min": float, "max": float}``

Events come first (in sequence order), then spans (in span-seq
order), then counters and histograms, each metric section in
sorted-name order, so exporting the same snapshot twice yields
byte-identical files.  Field values must be JSON-encodable; the
instrumentation emits only strings, numbers, booleans, ``None`` and
lists/tuples of those (tuples serialise as JSON arrays).
:func:`records_to_snapshot` inverts the export: events, counters
and histograms all round-trip exactly (property-tested in
``tests/properties/test_obs_properties.py``).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from pathlib import Path

from repro.obs.metrics import HistogramStat
from repro.obs.spans import SpanRecord, span_from_dict, span_to_dict
from repro.obs.tracer import CollectingTracer, ObsSnapshot, TraceEvent

__all__ = [
    "event_to_dict",
    "span_to_record",
    "snapshot_to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "records_to_snapshot",
    "format_event",
    "render_events",
]


#: Record types older exports carry for metric kinds that no longer
#: exist; :func:`records_to_snapshot` skips them so those files and
#: cell-cache entries still load.
_RETIRED_TYPES = frozenset({"timer", "gauge"})


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and math.isnan(value):
        return None  # JSON has no NaN; SWA's undefined BI exports as null
    return value


def event_to_dict(event: TraceEvent) -> dict:
    """The JSONL object for one event (see module docstring schema)."""
    return {
        "type": "event",
        "seq": event.seq,
        "kind": event.kind,
        "fields": {k: _jsonable(v) for k, v in event.fields.items()},
    }


def span_to_record(span: SpanRecord) -> dict:
    """The JSONL object for one span (see module docstring schema)."""
    record = span_to_dict(span)
    record["fields"] = {k: _jsonable(v) for k, v in record["fields"].items()}
    record["type"] = "span"
    return record


def snapshot_to_jsonl(snapshot: ObsSnapshot | CollectingTracer) -> str:
    """Serialise a snapshot (or live tracer) to JSONL text."""
    if isinstance(snapshot, CollectingTracer):
        snapshot = snapshot.snapshot()
    lines = [json.dumps(event_to_dict(e), sort_keys=True) for e in snapshot.events]
    for span in sorted(snapshot.spans, key=lambda s: s.seq):
        lines.append(json.dumps(span_to_record(span), sort_keys=True))
    for name, value in snapshot.counters.items():
        lines.append(
            json.dumps(
                {"type": "counter", "name": name, "value": value}, sort_keys=True
            )
        )
    for name, stat in snapshot.histograms.items():
        lines.append(
            json.dumps(
                {
                    "type": "histogram",
                    "name": name,
                    "buckets": list(stat.buckets),
                    "counts": list(stat.counts),
                    "count": stat.count,
                    "sum": stat.sum,
                    "min": stat.min,
                    "max": stat.max,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(snapshot: ObsSnapshot | CollectingTracer, path: str | Path) -> int:
    """Write the snapshot as JSONL; returns the number of lines written."""
    text = snapshot_to_jsonl(snapshot)
    Path(path).write_text(text, encoding="utf-8")
    return text.count("\n")


def read_jsonl(path: str | Path) -> list[dict]:
    """Parse a JSONL export back into a list of record dicts."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def records_to_snapshot(records: Iterable[dict]) -> ObsSnapshot:
    """Rebuild an :class:`ObsSnapshot` from parsed JSONL records.

    The inverse of :func:`snapshot_to_jsonl` (modulo JSON's tuple/list
    conflation: event fields that were tuples come back as lists, which
    matches how :func:`event_to_dict` compares streams).  Records of a
    retired type (``timer``, ``gauge``) are skipped; any other unknown
    type raises :class:`ValueError`.
    """
    events: list[TraceEvent] = []
    spans: list[SpanRecord] = []
    counters: dict[str, int] = {}
    histograms: dict[str, HistogramStat] = {}
    for record in records:
        kind = record.get("type")
        if kind == "event":
            events.append(
                TraceEvent(record["seq"], record["kind"], dict(record["fields"]))
            )
        elif kind == "span":
            spans.append(span_from_dict(record))
        elif kind == "counter":
            counters[record["name"]] = record["value"]
        elif kind == "histogram":
            histograms[record["name"]] = HistogramStat(
                buckets=tuple(record["buckets"]),
                counts=tuple(record["counts"]),
                count=record["count"],
                sum=record["sum"],
                min=record["min"],
                max=record["max"],
            )
        elif kind not in _RETIRED_TYPES:
            raise ValueError(f"unknown obs JSONL record type {kind!r}")
    events.sort(key=lambda e: e.seq)
    spans.sort(key=lambda s: s.seq)
    return ObsSnapshot(
        events=tuple(events),
        counters=counters,
        histograms=histograms,
        spans=tuple(spans),
    )


def format_event(event: TraceEvent) -> str:
    """One-line human rendering: ``[seq] kind  k=v k=v ...``."""
    parts = []
    for key, value in event.fields.items():
        if isinstance(value, float):
            rendered = "x" if math.isnan(value) else f"{value:g}"
        elif isinstance(value, (tuple, list)):
            rendered = ",".join(str(v) for v in value)
        else:
            rendered = str(value)
        parts.append(f"{key}={rendered}")
    fields = ("  " + " ".join(parts)) if parts else ""
    return f"[{event.seq:>4}] {event.kind:<28}{fields}"


def render_events(events: Iterable[TraceEvent]) -> str:
    """Multi-line rendering of an event stream (trace CLI output)."""
    return "\n".join(format_event(e) for e in events)
