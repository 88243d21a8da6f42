"""Min-Min's sorted-column kernel against the reference transcription.

The kernel decides without a row scan unless a second pair lies inside
a tie window of four tolerances above the global minimum, so its risk
lives in near ties.  The ETCs here are built to sit on that edge:

* cells drawn from a small base set and scaled by ``1 + k * 5e-10``,
  ``k`` in ``-3..3``, so neighbouring values straddle the 1e-9 relative
  tie tolerance (some pairs tie, some just miss);
* exact-duplicate rows and columns, and tasks forced to the head of
  several columns at once;
* ready times that are zero, shared, integer, or near-tied themselves.

Every example runs under both tie policies, with and without a live
tracer, and compares assignments, obs event streams and every
``IterationRecord`` of an :class:`IterativeScheduler` run with the
reference transcription (``get_backend("reference").make("min-min")``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iterative import IterativeScheduler
from repro.core.ties import DeterministicTieBreaker, RandomTieBreaker
from repro.etc.matrix import ETCMatrix
from repro.heuristics.backends import get_backend
from repro.obs.export import event_to_dict
from repro.obs.tracer import CollectingTracer, use_tracer
from tests.conftest import HYPOTHESIS_PROFILE

#: The deep profile (``make test-deep``) sweeps far more near ties.
DEEP = HYPOTHESIS_PROFILE == "deep"

TIE_POLICIES = {
    "deterministic": DeterministicTieBreaker,
    "random": lambda: RandomTieBreaker(4321),
}

#: Relative step between neighbouring straddled values: half the 1e-9
#: tie tolerance, so k and k + 2 differ by about one tolerance.
STEP = 5e-10


@st.composite
def near_tie_instances(draw):
    num_tasks = draw(st.integers(1, 64))
    num_machines = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (num_tasks, num_machines)
    mode = draw(st.sampled_from(["straddle", "integer", "continuous"]))
    base = np.array(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)), float)
    if mode == "continuous":
        values = rng.uniform(0.5, 50.0, shape)
    else:
        values = base[rng.integers(0, base.size, shape)]
        if mode == "straddle":
            values = values * (1.0 + rng.integers(-3, 4, shape) * STEP)
    if num_tasks > 1 and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 4))):
            values[rng.integers(num_tasks)] = values[rng.integers(num_tasks)]
    if num_machines > 1 and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            src, dst = rng.integers(num_machines, size=2)
            values[:, dst] = values[:, src]
    if draw(st.booleans()):
        # A few tasks take (nearly) the smallest value in several
        # columns, so one task heads many columns at once.
        low = values.min()
        for _ in range(draw(st.integers(1, 3))):
            cols = rng.random(num_machines) < 0.6
            k = rng.integers(-3, 1, int(cols.sum()))
            values[rng.integers(num_tasks), cols] = low * (1.0 + k * STEP)
    ready_mode = draw(st.sampled_from(["zero", "shared", "integer", "uniform", "near"]))
    if ready_mode == "zero":
        ready = np.zeros(num_machines)
    elif ready_mode == "shared":
        ready = np.full(num_machines, float(draw(st.integers(0, 5))))
    elif ready_mode == "integer":
        ready = rng.integers(0, 6, num_machines).astype(float)
    elif ready_mode == "uniform":
        ready = rng.uniform(0.0, 20.0, num_machines)
    else:
        ready = 3.0 * (1.0 + rng.integers(-3, 4, num_machines) * STEP)
    return ETCMatrix(values), ready.tolist()


def _map(backend, etc, ready, policy, traced):
    heuristic = get_backend(backend).make("min-min")
    breaker = TIE_POLICIES[policy]()
    tracer = CollectingTracer()
    if traced:
        with use_tracer(tracer):
            mapping = heuristic.map_tasks(etc, ready, breaker)
    else:
        mapping = heuristic.map_tasks(etc, ready, breaker)
    return (
        [
            (a.task, a.machine, a.start, a.completion, a.order)
            for a in mapping.assignments
        ],
        [event_to_dict(e) for e in tracer.events],
    )


def _record(record):
    return (
        record.index,
        record.etc.tasks,
        record.etc.machines,
        record.etc.values.tolist(),
        [
            (a.task, a.machine, a.start, a.completion, a.order)
            for a in record.mapping.assignments
        ],
        record.makespan,
        record.frozen_machine,
        record.frozen_tasks,
        record.trace,
    )


def _iterate(backend, etc, ready, policy, traced):
    scheduler = IterativeScheduler(
        get_backend(backend).make("min-min"), tie_breaker=TIE_POLICIES[policy]()
    )
    tracer = CollectingTracer()
    ready_map = dict(zip(etc.machines, ready))
    if traced:
        with use_tracer(tracer):
            result = scheduler.run(etc, ready_map)
    else:
        result = scheduler.run(etc, ready_map)
    return (
        [_record(record) for record in result.iterations],
        result.removal_order,
        result.final_finish_times,
        [event_to_dict(e) for e in tracer.events],
    )


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("policy", sorted(TIE_POLICIES))
@given(data=near_tie_instances())
@settings(max_examples=600 if DEEP else 60, deadline=None)
def test_minmin_near_ties_match_reference(policy, traced, data):
    etc, ready = data
    assert _map("incremental", etc, ready, policy, traced) == _map(
        "reference", etc, ready, policy, traced
    )


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("policy", sorted(TIE_POLICIES))
@given(data=near_tie_instances())
@settings(max_examples=150 if DEEP else 15, deadline=None)
def test_minmin_iteration_records_match_reference(policy, traced, data):
    etc, ready = data
    assert _iterate("incremental", etc, ready, policy, traced) == _iterate(
        "reference", etc, ready, policy, traced
    )


@pytest.mark.parametrize("policy", sorted(TIE_POLICIES))
def test_straddled_column_head_and_next_task(policy):
    """The winning column's head (task 2) ties with the next task in
    the same column (task 1, older), while every other column head is
    outside the window: the older task must win."""
    values = [
        [1.0 * (1 + 3 * STEP), 9.0],
        [1.0, 9.0],
        [1.0 * (1 - STEP), 9.0],
        [5.0, 1.0 * (1 + 10 * STEP)],
    ]
    etc = ETCMatrix(values)
    for traced in (False, True):
        assert _map("incremental", etc, [0.0, 0.0], policy, traced) == _map(
            "reference", etc, [0.0, 0.0], policy, traced
        )


@pytest.mark.parametrize("policy", sorted(TIE_POLICIES))
def test_equal_run_followed_by_near_tie(policy):
    """Every window head ties exactly, but the equal run in column 0
    (tasks 1, 2) is followed by a near tie from an older task (task 0):
    the equal-run shortcut must not apply."""
    values = [[2.0 * (1 + STEP), 4.0], [2.0, 4.0], [2.0, 4.0], [4.0, 2.0]]
    etc = ETCMatrix(values)
    for traced in (False, True):
        assert _map("incremental", etc, [0.0, 0.0], policy, traced) == _map(
            "reference", etc, [0.0, 0.0], policy, traced
        )
