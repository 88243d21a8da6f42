"""Generic discrete-event simulation engine.

The engine owns the clock and the event queue; domain logic registers
per-kind handlers.  Time only moves forward — scheduling an event in the
past raises :class:`SimulationError`, which is how schedule bugs in the
HC system model surface immediately instead of silently corrupting
finishing times.

The queue is one binary heap of ``(time, priority, seq, kind, payload)``
tuples.  ``seq`` is a monotonically increasing tiebreaker, so events are
ordered by time, then priority, then FIFO among equals — the property
that makes simulator runs deterministic and reproducible — and the
comparison never reaches ``kind`` or ``payload``.  A handler receives
only the payload: the clock is :attr:`Simulator.now` and the kind is
the one it was registered for.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from typing import Any

from repro.exceptions import SimulationError
from repro.obs.tracer import get_tracer

__all__ = ["Simulator"]

Handler = Callable[[Any], None]


class Simulator:
    """Single-threaded deterministic discrete-event engine."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, str, Any]] = []
        self._seq = itertools.count()
        self._handlers: dict[str, list[Handler]] = {}
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events dispatched so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    def on(self, kind: str, handler: Handler) -> None:
        """Register ``handler(payload)`` for events of ``kind`` (multiple
        allowed, dispatched in registration order)."""
        self._handlers.setdefault(kind, []).append(handler)

    def schedule(
        self, delay: float, kind: str, payload=None, priority: int = 0
    ) -> None:
        """Schedule an event ``delay`` time units from now (``delay >= 0``)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        if not time >= 0:  # NaN
            raise SimulationError(f"invalid event time {time!r}")
        heapq.heappush(self._heap, (time, priority, next(self._seq), kind, payload))

    def schedule_at(
        self, time: float, kind: str, payload=None, priority: int = 0
    ) -> None:
        """Schedule an event at absolute ``time`` (``time >= now``)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        if not time >= 0:  # negative or NaN
            raise SimulationError(f"invalid event time {time!r}")
        heapq.heappush(self._heap, (time, priority, next(self._seq), kind, payload))

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        progress=None,
        progress_every: int = 1000,
    ) -> float:
        """Dispatch events in order; returns the final simulation time.

        Stops when the queue empties, when the next event lies beyond
        ``until`` (clock advances to ``until``), or after ``max_events``
        dispatches (a runaway-model guard).

        ``progress`` is an optional
        :class:`~repro.obs.progress.ProgressReporter` advanced every
        ``progress_every`` dispatches of *this* call with the current
        simulation time; the final partial batch is flushed before
        ``finish()``, so the reported total always equals the number of
        events this call dispatched.  It writes only to its own stream —
        never to the tracer — so enabling it cannot perturb the
        ``sim.dispatch`` event stream.
        """
        if progress_every < 1:
            raise SimulationError(
                f"progress_every must be >= 1, got {progress_every}"
            )
        tracer = get_tracer()
        traced = tracer.enabled
        heap = self._heap
        pop = heapq.heappop
        handlers_of = self._handlers
        stop = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        dispatched = 0
        try:
            # Span-only phase (no event emitted), so the ``sim.dispatch``
            # event stream stays byte-identical to pre-span releases
            # while the timeline shows one bar per ``run`` call.
            with tracer.phase("sim.run"):
                while heap:
                    if heap[0][0] > stop:
                        self._now = until
                        return until
                    if self._processed >= budget:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "runaway event loop?"
                        )
                    time, _, _, kind, payload = pop(heap)
                    self._now = time
                    self._processed += 1
                    dispatched += 1
                    handlers = handlers_of.get(kind)
                    if not handlers:
                        raise SimulationError(
                            f"no handler registered for event {kind!r}"
                        )
                    if traced:
                        tracer.event(
                            "sim.dispatch",
                            kind=kind,
                            time=time,
                            handlers=len(handlers),
                        )
                        tracer.count("sim.events")
                        tracer.count(f"sim.events.{kind}")
                    for handler in handlers:
                        handler(payload)
                    if progress is not None and dispatched % progress_every == 0:
                        progress.advance(f"t={self._now:g}", n=progress_every)
        finally:
            if progress is not None:
                remainder = dispatched % progress_every
                if remainder:
                    progress.advance(f"t={self._now:g}", n=remainder)
                progress.finish()
        if until is not None and until > self._now:
            self._now = until
        return self._now
