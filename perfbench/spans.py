"""In-memory span recording and self-time aggregation for the benchmark.

Spans are recorded by the benchmark around its calls into ``repro``
(never inside ``repro``): each has a name, a start, an end and the id
of the span that was open when it started.  A span's *self time* is its
duration minus the part of its interval covered by its children (the
union of the child intervals, clipped to the parent), so overlapping or
out-of-bounds children are never counted twice.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; single-threaded (one open-span stack)."""

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str, **attrs):
        span = Span(
            id=len(self.spans),
            name=name,
            start=self._clock(),
            end=0.0,
            parent=self._stack[-1] if self._stack else None,
            attrs=attrs,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self._clock()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            **({"attrs": span.attrs} if span.attrs else {}),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


class NullRecorder:
    """Same interface, records nothing (the untraced twin of a pass)."""

    enabled = False
    spans: list[Span] = []

    def span(self, name: str, **attrs):
        return nullcontext()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - _covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


@dataclass(frozen=True)
class Row:
    name: str
    calls: int
    total_s: float
    self_s: float
    pct_root: float


def breakdown(spans: list[Span]) -> tuple[float, float, list[Row]]:
    """``(root_s, unattributed_s, rows)`` for a tree with one root.

    Rows aggregate every non-root span by name: calls, total time, self
    time and self time as a share of the root.  The root's own self time
    is the ``unattributed`` remainder, so for well-nested serial spans
    the row self times plus the remainder add up to the root duration.
    """
    roots = [span for span in spans if span.parent is None]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, got {len(roots)}")
    root = roots[0]
    selfs = self_times(spans)
    grouped: dict[str, list[Span]] = {}
    for span in spans:
        if span is not root:
            grouped.setdefault(span.name, []).append(span)
    root_s = root.duration
    rows = [
        Row(
            name=name,
            calls=len(group),
            total_s=sum(span.duration for span in group),
            self_s=sum(selfs[span.id] for span in group),
            pct_root=(
                100.0 * sum(selfs[span.id] for span in group) / root_s
                if root_s > 0
                else 0.0
            ),
        )
        for name, group in grouped.items()
    ]
    return root_s, selfs[root.id], rows


def format_breakdown(root_s: float, unattributed_s: float, rows: list[Row],
                     replayed: dict[str, str] | None = None) -> str:
    """The per-layer table; ``replayed`` marks rows (name -> note) whose
    numbers come, wholly or partly, from a replay."""
    replayed = replayed or {}
    lines = [
        f"{'span':<24} {'calls':>7} {'total_s':>10} {'self_s':>10} {'%root':>7}"
    ]
    for row in sorted(rows, key=lambda r: -r.self_s):
        mark = f"  ({replayed[row.name]})" if row.name in replayed else ""
        lines.append(
            f"{row.name:<24} {row.calls:>7} {row.total_s:>10.4f} "
            f"{row.self_s:>10.4f} {row.pct_root:>6.1f}%{mark}"
        )
    pct = 100.0 * unattributed_s / root_s if root_s > 0 else 0.0
    lines.append(
        f"{'unattributed':<24} {'':>7} {'':>10} {unattributed_s:>10.4f} {pct:>6.1f}%"
    )
    lines.append(f"{'root':<24} {1:>7} {root_s:>10.4f}")
    return "\n".join(lines)


def by_name(spans: list[Span], name: str) -> list[Span]:
    return [span for span in spans if span.name == name]
