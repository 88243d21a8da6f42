"""Unit tests for the DES engine and its event queue."""

import pytest

from repro.exceptions import SimulationError
from repro.sim.engine import Simulator


def recording_sim(*kinds):
    """A simulator that appends each dispatched event's kind to ``.seen``."""
    sim = Simulator()
    sim.seen = []
    for kind in kinds:
        sim.on(kind, lambda payload, kind=kind: sim.seen.append(kind))
    return sim


class TestEvent:
    """Event times are validated when an event is scheduled."""

    def test_rejects_negative_time(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_at(-1.0, "x")

    def test_rejects_nan_time(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), "x")
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), "x")
        assert sim.pending_events == 0


class TestEventQueue:
    """Dispatch order of the simulator's event queue."""

    def test_time_order(self):
        sim = recording_sim("a", "b")
        sim.schedule_at(5.0, "b")
        sim.schedule_at(1.0, "a")
        sim.run()
        assert sim.seen == ["a", "b"]

    def test_fifo_among_simultaneous(self):
        kinds = [f"e{i}" for i in range(5)]
        sim = recording_sim(*kinds)
        for kind in kinds:
            sim.schedule_at(2.0, kind)
        sim.run()
        assert sim.seen == kinds

    def test_priority_before_seq(self):
        sim = recording_sim("late", "early")
        sim.schedule_at(1.0, "late", priority=5)
        sim.schedule_at(1.0, "early", priority=0)
        sim.run()
        assert sim.seen == ["early", "late"]

    def test_run_on_empty_queue_dispatches_nothing(self):
        sim = Simulator()
        assert sim.run() == 0.0
        assert sim.processed_events == 0

    def test_peek_and_len(self):
        sim = recording_sim("x")
        assert sim.pending_events == 0
        sim.schedule_at(3.0, "x")
        assert sim.pending_events == 1
        # The head of the queue lies past ``until``: nothing dispatches.
        assert sim.run(until=2.0) == 2.0
        assert sim.seen == [] and sim.pending_events == 1


class TestSimulator:
    def test_clock_advances_monotonically(self):
        sim = Simulator()
        times = []
        sim.on("tick", lambda e: times.append(sim.now))
        for t in (3.0, 1.0, 2.0):
            sim.schedule_at(t, "tick")
        sim.run()
        assert times == [1.0, 2.0, 3.0]
        assert sim.now == 3.0

    def test_schedule_relative(self):
        sim = Simulator()
        seen = []

        def chain(event):
            seen.append(sim.now)
            if len(seen) < 3:
                sim.schedule(2.0, "step")

        sim.on("step", chain)
        sim.schedule(1.0, "step")
        sim.run()
        assert seen == [1.0, 3.0, 5.0]

    def test_cannot_schedule_into_past(self):
        sim = Simulator()
        sim.on("x", lambda e: None)
        sim.schedule_at(5.0, "x")
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, "x")
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, "x")

    def test_missing_handler_raises(self):
        sim = Simulator()
        sim.schedule(0.0, "orphan")
        with pytest.raises(SimulationError):
            sim.run()

    def test_multiple_handlers_in_order(self):
        sim = Simulator()
        order = []
        sim.on("e", lambda ev: order.append("first"))
        sim.on("e", lambda ev: order.append("second"))
        sim.schedule(0.0, "e")
        sim.run()
        assert order == ["first", "second"]

    def test_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.on("x", lambda e: fired.append(sim.now))
        sim.schedule_at(1.0, "x")
        sim.schedule_at(10.0, "x")
        end = sim.run(until=5.0)
        assert fired == [1.0]
        assert end == 5.0
        # the future event is still pending and fires on the next run
        sim.run()
        assert fired == [1.0, 10.0]

    def test_until_advances_idle_clock(self):
        sim = Simulator()
        assert sim.run(until=7.5) == 7.5

    def test_max_events_guard(self):
        sim = Simulator()
        sim.on("loop", lambda e: sim.schedule(1.0, "loop"))
        sim.schedule(0.0, "loop")
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_processed_counter(self):
        sim = Simulator()
        sim.on("x", lambda e: None)
        for _ in range(4):
            sim.schedule(0.0, "x")
        sim.run()
        assert sim.processed_events == 4
        assert sim.pending_events == 0

    def test_payload_passthrough(self):
        sim = Simulator()
        got = []
        sim.on("x", got.append)
        sim.schedule(0.0, "x", payload={"k": 1})
        sim.run()
        assert got == [{"k": 1}]


class RecordingProgress:
    """Captures advance/finish calls for progress-accounting tests."""

    def __init__(self):
        self.advances = []
        self.finished = 0

    def advance(self, current="", n=1):
        self.advances.append(n)

    def finish(self):
        self.finished += 1


class TestRunProgressAccounting:
    @staticmethod
    def _sim_with(n_events):
        sim = Simulator()
        sim.on("x", lambda e: None)
        for i in range(n_events):
            sim.schedule_at(float(i), "x")
        return sim

    def test_final_partial_batch_is_flushed(self):
        progress = RecordingProgress()
        self._sim_with(25).run(progress=progress, progress_every=10)
        assert progress.advances == [10, 10, 5]
        assert progress.finished == 1

    def test_exact_multiple_has_no_extra_flush(self):
        progress = RecordingProgress()
        self._sim_with(20).run(progress=progress, progress_every=10)
        assert progress.advances == [10, 10]
        assert progress.finished == 1

    def test_fewer_events_than_batch(self):
        progress = RecordingProgress()
        self._sim_with(3).run(progress=progress, progress_every=10)
        assert progress.advances == [3]
        assert progress.finished == 1

    def test_empty_queue_still_finishes(self):
        progress = RecordingProgress()
        Simulator().run(progress=progress, progress_every=10)
        assert progress.advances == []
        assert progress.finished == 1

    def test_total_equals_dispatched_even_on_handler_error(self):
        sim = Simulator()
        count = [0]

        def handler(event):
            count[0] += 1
            if count[0] == 7:
                raise RuntimeError("boom")

        sim.on("x", handler)
        for i in range(10):
            sim.schedule_at(float(i), "x")
        progress = RecordingProgress()
        with pytest.raises(RuntimeError):
            sim.run(progress=progress, progress_every=5)
        assert sum(progress.advances) == 7
        assert progress.finished == 1

    def test_rejects_nonpositive_progress_every(self):
        with pytest.raises(SimulationError):
            Simulator().run(progress=RecordingProgress(), progress_every=0)
