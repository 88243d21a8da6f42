"""Structured decision tracing with a zero-cost disabled default.

The paper's argument is carried by *decisions* — which pair wins a
Min-Min round, which way a tie breaks, which machine an iteration
freezes — so the instrumented paths emit one structured
:class:`TraceEvent` per decision.  Heuristic kernels never read the
tracer: :meth:`repro.heuristics.base.Heuristic.map_tasks` emits a
mapping's decision events after its kernel returns.  Instrumentation
follows one idiom::

    tracer = get_tracer()
    ...
    if tracer.enabled:              # single attribute test when disabled
        tracer.event("iterative.freeze", iteration=index, ...)

The module-level current tracer defaults to the :data:`NULL_TRACER`
singleton (``enabled`` is ``False``), so uninstrumented callers pay one
truthiness check per decision and *nothing else* — no event objects, no
string formatting, no field dictionaries.  Enable collection with::

    with use_tracer(CollectingTracer()) as tracer:
        IterativeScheduler(MinMin()).run(etc)
    print(tracer.counters.get("decisions"))

Every :meth:`CollectingTracer.event` call also increments the counter
``events.<kind>``, so counter totals and event counts cannot drift
apart (asserted by the property suite).  Decision-level instrumentation
additionally increments the shared ``decisions`` counter.

Snapshots (:class:`ObsSnapshot`) are plain picklable dataclasses; the
parallel experiment runner ships one per worker process back to the
parent and merges them **in cell order**, which makes the merged stream
bit-identical to a serial run (see :mod:`repro.analysis.parallel`).
"""

from __future__ import annotations

import time
import uuid
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.metrics import Counters, HistogramStat, Histograms
from repro.obs.spans import SpanContext, SpanRecord

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "CollectingTracer",
    "ObsSnapshot",
    "SpanContext",
    "SpanRecord",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


@dataclass(frozen=True)
class TraceEvent:
    """One structured record: a monotonic sequence number, a dotted
    ``kind`` (e.g. ``"min-min.decision"``) and free-form ``fields``."""

    seq: int
    kind: str
    fields: dict[str, object] = field(default_factory=dict)

    def get(self, name: str, default=None):
        return self.fields.get(name, default)


class Tracer:
    """Interface shared by the no-op and collecting tracers.

    ``enabled`` is the hot-path gate: emitters must check it before
    building event fields so a disabled tracer costs one attribute
    lookup per decision.
    """

    enabled: bool = False

    def event(self, kind: str, /, **fields) -> None:
        """Record one structured event (no-op when disabled).

        ``kind`` is positional-only so events may carry a field that is
        itself named ``kind`` (e.g. ``sim.dispatch``)."""

    def count(self, name: str, n: int = 1) -> None:
        """Increment a named counter (no-op when disabled)."""

    def observe(
        self, name: str, value: float, buckets: tuple[float, ...] | None = None
    ) -> None:
        """Fold one value into a named histogram (no-op when disabled)."""

    def span(self, kind: str, /, **fields):
        """:meth:`phase` plus one event: on exit the block's
        :class:`~repro.obs.spans.SpanRecord` is recorded and one
        ``kind`` event is emitted (without the duration, keeping event
        streams deterministic)."""
        return _NULL_SPAN

    def phase(self, kind: str, /, **fields):
        """Context manager recording a *span-only* region under ``kind``.

        Unlike :meth:`span` it emits **no** event and no counter — only
        a :class:`~repro.obs.spans.SpanRecord` — so phase boundaries can
        be adopted inside code whose event stream is byte-compared
        across runs and processes."""
        return _NULL_SPAN


class _NullSpan:
    """Reusable do-nothing context manager (allocation-free)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The disabled default: every operation is a no-op."""

    enabled = False

    def __repr__(self) -> str:
        return "NullTracer()"


#: Shared disabled tracer (stateless, safe to reuse everywhere).
NULL_TRACER = NullTracer()


@dataclass(frozen=True)
class ObsSnapshot:
    """Picklable, immutable view of a tracer's state.

    This is the unit the parallel runner ships across process
    boundaries; ``events`` keep their origin-local sequence numbers and
    are re-sequenced on merge.
    """

    events: tuple[TraceEvent, ...]
    counters: dict[str, int]
    histograms: dict[str, HistogramStat] = field(default_factory=dict)
    spans: tuple[SpanRecord, ...] = ()


class _Span:
    __slots__ = (
        "_tracer",
        "_kind",
        "_fields",
        "_emit",
        "_start",
        "_start_unix",
        "_seq",
        "_span_id",
        "_parent_id",
    )

    def __init__(
        self,
        tracer: "CollectingTracer",
        kind: str,
        fields: dict,
        emit: bool = True,
    ) -> None:
        self._tracer = tracer
        self._kind = kind
        self._fields = fields
        self._emit = emit

    def __enter__(self):
        tracer = self._tracer
        self._seq = tracer._next_span_seq()
        stack = tracer._span_stack
        self._parent_id = stack[-1] if stack else tracer._adopted_parent
        self._span_id = f"{tracer._span_prefix}:{self._seq}"
        tracer._span_ids.add(self._span_id)
        stack.append(self._span_id)
        self._start_unix = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        duration = time.perf_counter() - self._start
        tracer = self._tracer
        tracer._span_stack.pop()
        tracer._spans.append(
            SpanRecord(
                seq=self._seq,
                span_id=self._span_id,
                parent_id=self._parent_id,
                trace_id=tracer.trace_id,
                kind=self._kind,
                fields=self._fields,
                start_unix=self._start_unix,
                duration_s=duration,
            )
        )
        if self._emit:
            tracer.event(self._kind, **self._fields)
        return False


class CollectingTracer(Tracer):
    """In-memory tracer: ordered events plus counters, histograms and spans.

    Pass ``context=``\\ :class:`~repro.obs.spans.SpanContext` to adopt a
    cross-process identity: the tracer reuses the context's trace id
    and parents its root spans under the context's span id, which is
    how pool workers join the parent run's trace tree.
    """

    enabled = True

    def __init__(self, *, context: SpanContext | None = None) -> None:
        self._events: list[TraceEvent] = []
        self.counters = Counters()
        self.histograms = Histograms()
        if context is not None:
            self.trace_id = context.trace_id
            self._adopted_parent = context.span_id
        else:
            self.trace_id = uuid.uuid4().hex[:16]
            self._adopted_parent = None
        self._span_prefix = uuid.uuid4().hex[:8]
        self._spans: list[SpanRecord] = []
        self._span_stack: list[str] = []
        self._span_ids: set[str] = set()
        self._span_seq = 0

    def _next_span_seq(self) -> int:
        seq = self._span_seq
        self._span_seq += 1
        return seq

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    def events_of(self, kind: str) -> tuple[TraceEvent, ...]:
        """All collected events of one ``kind``, in emission order."""
        return tuple(e for e in self._events if e.kind == kind)

    def event(self, kind: str, /, **fields) -> None:
        self._events.append(TraceEvent(len(self._events), kind, fields))
        self.counters.inc(f"events.{kind}")

    def count(self, name: str, n: int = 1) -> None:
        self.counters.inc(name, n)

    def observe(
        self, name: str, value: float, buckets: tuple[float, ...] | None = None
    ) -> None:
        self.histograms.observe(name, value, buckets=buckets)

    def span(self, kind: str, /, **fields):
        return _Span(self, kind, fields)

    def phase(self, kind: str, /, **fields):
        return _Span(self, kind, fields, emit=False)

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        """Completed spans in enter (seq) order."""
        return tuple(sorted(self._spans, key=lambda span: span.seq))

    def context(self) -> SpanContext:
        """The identity to ship to a worker: this trace id plus the
        currently-open span (the adopted parent when none is open)."""
        stack = self._span_stack
        span_id = stack[-1] if stack else self._adopted_parent
        return SpanContext(trace_id=self.trace_id, span_id=span_id)

    def snapshot(self) -> ObsSnapshot:
        return ObsSnapshot(
            events=tuple(self._events),
            counters=self.counters.as_dict(),
            histograms=self.histograms.as_dict(),
            spans=self.spans,
        )

    def merge_snapshot(self, snapshot: ObsSnapshot) -> None:
        """Fold a worker snapshot in, re-sequencing its events after the
        ones already collected (call in a deterministic order).

        Incoming spans are re-sequenced and rewritten onto this trace:
        their trace id becomes this tracer's, and any span whose parent
        is neither in the incoming snapshot nor a span this tracer
        issued (roots, or stale cross-run parents) is re-parented under
        the currently-open span.  Span ids are globally unique (each
        tracer stamps its own prefix), so internal parent links survive
        unchanged.
        """
        for event in snapshot.events:
            self._events.append(
                TraceEvent(len(self._events), event.kind, dict(event.fields))
            )
        self.counters.merge(snapshot.counters)
        self.histograms.merge(snapshot.histograms)
        if snapshot.spans:
            incoming = {span.span_id for span in snapshot.spans}
            stack = self._span_stack
            attach = stack[-1] if stack else self._adopted_parent
            for span in sorted(snapshot.spans, key=lambda s: s.seq):
                parent = span.parent_id
                if parent is None or (
                    parent not in incoming and parent not in self._span_ids
                ):
                    parent = attach
                self._span_ids.add(span.span_id)
                self._spans.append(
                    SpanRecord(
                        seq=self._next_span_seq(),
                        span_id=span.span_id,
                        parent_id=parent,
                        trace_id=self.trace_id,
                        kind=span.kind,
                        fields=dict(span.fields),
                        start_unix=span.start_unix,
                        duration_s=span.duration_s,
                    )
                )

    def clear(self) -> None:
        self._events.clear()
        self.counters = Counters()
        self.histograms = Histograms()
        self._spans.clear()
        self._span_ids.clear()
        del self._span_stack[:]
        self._span_seq = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __repr__(self) -> str:
        return (
            f"CollectingTracer(events={len(self._events)}, "
            f"counters={len(self.counters)}, spans={len(self._spans)})"
        )


# ----------------------------------------------------------------------
# Current-tracer plumbing
# ----------------------------------------------------------------------
_current: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-wide current tracer (default: :data:`NULL_TRACER`)."""
    return _current


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as current; returns the previous one."""
    global _current
    previous = _current
    _current = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer):
    """Install ``tracer`` for the duration of the block, then restore."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
