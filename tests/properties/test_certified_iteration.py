"""Certified iterative runs against the full freeze/remap loop.

When the Min-Min, MCT or MET kernel certifies its original mapping
(``Mapping.certified``: every decision's near ties formed one cluster
within half a tolerance of its minimum, the rule in ``repro.core.ties``),
:class:`IterativeScheduler` derives
iterations 1..k by restricting that mapping instead of re-running the
heuristic.  The derived run must be indistinguishable from the full
loop of the paper-transcription oracles, which never certify: every
``IterationRecord`` (matrix, makespan, frozen machine and tasks, and
each assignment's timing and order), the final finishing times, the
removal order and the never-frozen survivors.  Under a tracer, a
derived run must also emit exactly the events, spans, counters and
histograms of a traced run that re-maps every iteration.

The inputs reuse the Min-Min sorted-column battery's near-tie ETCs,
plus nonzero ready times and ``max_iterations`` caps, and a tie-rich
battery: 2-decimal and integer-grid ETCs and constructed clusters that
must certify, and wider near ties that must not.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariance import (
    INVARIANT_HEURISTICS,
    _FullLoopScheduler,
    verify_invariance,
)
from repro.core.iterative import IterativeScheduler
from repro.core.seeding import SeededIterativeScheduler
from repro.core.ties import DeterministicTieBreaker, RandomTieBreaker
from repro.etc.generation import Consistency, Heterogeneity, generate_range_based
from repro.etc.matrix import ETCMatrix
from repro.heuristics.backends import get_backend
from repro.heuristics.base import heuristic_names
from repro.obs.export import event_to_dict
from repro.obs.tracer import CollectingTracer, use_tracer
from tests.conftest import HYPOTHESIS_PROFILE
from tests.properties.test_minmin_sorted_column import near_tie_instances

DEEP = HYPOTHESIS_PROFILE == "deep"

D = 1e-9

#: The tolerance-tie witness (see tests/integration/test_tolerance_tie_witness.py).
WITNESS = ETCMatrix([[1 + 1.5 * D, 1 + 0.9 * D, 1.0], [100.0, 100.0, 50.0]])


class CountingHeuristic:
    """Forwards ``map_tasks`` to ``inner`` and counts the calls."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def map_tasks(self, *args, **kwargs):
        self.calls += 1
        return self.inner.map_tasks(*args, **kwargs)


def _run_view(result):
    return (
        [
            (
                rec.index,
                rec.etc.tasks,
                rec.etc.machines,
                rec.etc.values.tolist(),
                [
                    (a.task, a.machine, a.start, a.completion, a.order)
                    for a in rec.mapping.assignments
                ],
                rec.mapping.machine_finish_times(),
                rec.makespan,
                rec.frozen_machine,
                rec.frozen_tasks,
                rec.trace,
            )
            for rec in result.iterations
        ],
        result.final_finish_times,
        result.removal_order,
        result.unfrozen,
        result.mapping_changed(),
        result.final_mapping().to_dict(),
    )


def _pair(name, etc, ready, cap):
    derived = IterativeScheduler(get_backend("incremental").make(name))
    full = IterativeScheduler(get_backend("reference").make(name))
    return (
        derived.run(etc, ready, max_iterations=cap),
        full.run(etc, ready, max_iterations=cap),
    )


@pytest.mark.parametrize("name", INVARIANT_HEURISTICS)
@given(
    data=near_tie_instances(),
    cap=st.sampled_from([None, 1, 2, 3]),
    nonzero_ready=st.booleans(),
)
@settings(max_examples=300 if DEEP else 30, deadline=None)
def test_derived_run_matches_full_loop(name, data, cap, nonzero_ready):
    etc, ready = data
    if nonzero_ready:
        ready = [r + 1.0 + 0.25 * j for j, r in enumerate(ready)]
    derived, full = _pair(name, etc, ready, cap)
    assert _run_view(derived) == _run_view(full)


@pytest.mark.parametrize("name", INVARIANT_HEURISTICS)
@pytest.mark.parametrize("cap", [None, 1, 2, 3])
def test_generated_instances_certify_and_match(name, cap):
    """Continuous ETCs certify: one heuristic call, same records."""
    for seed, het, cons in [
        (0, Heterogeneity.HIHI, Consistency.INCONSISTENT),
        (1, Heterogeneity.LOLO, Consistency.CONSISTENT),
        (2, Heterogeneity.HIHI, Consistency.CONSISTENT),
    ]:
        etc = generate_range_based(24, 5, heterogeneity=het, consistency=cons, rng=seed)
        ready = [0.5 * j for j in range(etc.num_machines)]
        heuristic = CountingHeuristic(get_backend("incremental").make(name))
        derived = IterativeScheduler(heuristic).run(etc, ready, max_iterations=cap)
        assert derived.original.mapping.certified
        assert heuristic.calls == 1
        full = IterativeScheduler(get_backend("reference").make(name)).run(
            etc, ready, max_iterations=cap
        )
        assert _run_view(derived) == _run_view(full)


@pytest.mark.parametrize("name", INVARIANT_HEURISTICS)
def test_witness_is_not_certified_and_runs_the_full_loop(name):
    heuristic = CountingHeuristic(get_backend("incremental").make(name))
    result = IterativeScheduler(heuristic).run(WITNESS)
    assert not result.original.mapping.certified
    assert heuristic.calls == result.num_iterations == 2
    assert result.mapping_changed()
    full = IterativeScheduler(get_backend("reference").make(name)).run(WITNESS)
    assert _run_view(result) == _run_view(full)


@pytest.mark.parametrize("name", INVARIANT_HEURISTICS)
def test_verify_invariance_never_derives(name):
    etc = generate_range_based(24, 5, rng=3)
    assert get_backend("incremental").make(name).map_tasks(etc).certified
    heuristic = CountingHeuristic(get_backend("incremental").make(name))
    report = verify_invariance(heuristic, instances=[etc])
    assert report.invariant
    assert heuristic.calls == etc.num_machines


def _freeze_makespan_machine(mapping, tie_breaker):
    return mapping.makespan_machine(tie_breaker)


@pytest.mark.parametrize("name", INVARIANT_HEURISTICS)
@pytest.mark.parametrize(
    "make",
    [
        lambda h: IterativeScheduler(h, tie_breaker=RandomTieBreaker(7)),
        lambda h: IterativeScheduler(h, makespan_tie_breaker=RandomTieBreaker(7)),
        lambda h: IterativeScheduler(h, freeze_policy=_freeze_makespan_machine),
        lambda h: SeededIterativeScheduler(h),
    ],
    ids=["random-ties", "random-makespan-ties", "freeze-policy", "seeded"],
)
def test_other_configurations_run_the_full_loop(name, make):
    etc = generate_range_based(24, 5, rng=4)
    heuristic = CountingHeuristic(get_backend("incremental").make(name))
    result = make(heuristic).run(etc)
    assert heuristic.calls == result.num_iterations == etc.num_machines


@pytest.mark.parametrize("backend", ["reference", "incremental"])
@pytest.mark.parametrize("name", heuristic_names())
def test_only_the_invariant_kernels_certify(name, backend):
    etc = generate_range_based(12, 4, rng=6)
    mapping = get_backend(backend).make(name).map_tasks(
        etc, tie_breaker=DeterministicTieBreaker()
    )
    expected = backend == "incremental" and name in INVARIANT_HEURISTICS
    assert mapping.certified is expected


@pytest.mark.parametrize("name", INVARIANT_HEURISTICS)
def test_exact_ties_still_certify(name):
    """Exact ties at a row minimum are allowed: every iteration keeps
    the lowest surviving index among equal values."""
    values = np.array([[2.0, 2.0, 3.0], [2.0, 2.0, 3.0], [5.0, 1.0, 1.0], [4.0, 4.0, 4.0]])
    etc = ETCMatrix(values)
    heuristic = CountingHeuristic(get_backend("incremental").make(name))
    result = IterativeScheduler(heuristic).run(etc)
    full = IterativeScheduler(get_backend("reference").make(name)).run(etc)
    assert _run_view(result) == _run_view(full)
    assert result.original.mapping.certified
    assert heuristic.calls == 1


#: Relative offsets, in units of ``D``, of the constructed cluster
#: families: spreads up to half a tie tolerance, and wider ones.
PURE_CLUSTER = (0.0, 0.2, 0.45)
WIDE_CLUSTER = (0.6, 0.9, 1.5)


@st.composite
def tie_rich_instances(draw):
    """ETCs full of exact and float-rounding ties, plus ε-clusters.

    ``decimal`` rounds to 0.01 like perfbench's ``serve-mixed`` bodies,
    ``integer`` is a small integer grid, ``cluster`` scales an integer
    grid by ``1 + k·D`` with ``k`` in ``PURE_CLUSTER``, and ``wide``
    does the same with ``k`` in ``{0} ∪ WIDE_CLUSTER`` and puts the
    oldest task at the global minimum with a spread of at least 0.6
    tolerances.  Ready times are zero or quarter steps.
    """
    family = draw(st.sampled_from(["decimal", "integer", "cluster", "wide"]))
    num_tasks = draw(st.integers(1, 40))
    num_machines = draw(st.integers(2 if family == "wide" else 1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (num_tasks, num_machines)
    if family == "decimal":
        values = np.round(rng.uniform(1.0, 100.0, shape), 2)
    elif family == "integer":
        values = rng.integers(1, 5, shape).astype(float)
    else:
        offsets = PURE_CLUSTER if family == "cluster" else (0.0, *WIDE_CLUSTER)
        values = rng.integers(1, 7, shape) * (1.0 + rng.choice(offsets, shape) * D)
        if family == "wide":
            k = rng.choice(offsets, num_machines)
            k[:2] = 0.0, rng.choice(WIDE_CLUSTER)
            values[0] = 0.5 * (1.0 + rng.permutation(k) * D)
    nonzero_ready = draw(st.booleans())
    ready = [1.0 + 0.25 * j if nonzero_ready else 0.0 for j in range(num_machines)]
    return family, ETCMatrix(values), ready


@pytest.mark.parametrize("name", INVARIANT_HEURISTICS)
@given(data=tie_rich_instances(), cap=st.sampled_from([None, 1, 2, 3]))
@settings(max_examples=300 if DEEP else 40, deadline=None)
def test_tie_rich_runs_match_full_loop(name, data, cap):
    """Derived runs on tie-rich ETCs equal the reference full loop, and a
    certified original mapping costs exactly one heuristic call."""
    family, etc, ready = data
    heuristic = CountingHeuristic(get_backend("incremental").make(name))
    derived = IterativeScheduler(heuristic).run(etc, ready, max_iterations=cap)
    full = IterativeScheduler(get_backend("reference").make(name)).run(
        etc, ready, max_iterations=cap
    )
    assert _run_view(derived) == _run_view(full)
    certified = derived.original.mapping.certified
    if certified:
        assert heuristic.calls == 1
    if family == "wide" and not any(ready):
        assert not certified
    elif family != "wide":
        # Exact ties, rounding-level clusters and constructed clusters
        # within half a tolerance all certify: the battery exercises
        # the derived path, not only the full loop.
        assert certified


def _traced(scheduler, etc, ready=None, cap=None):
    """Run ``scheduler`` under a collecting tracer: the result and every
    event, span (kind and fields, in order), counter and histogram."""
    tracer = CollectingTracer()
    with use_tracer(tracer):
        result = scheduler.run(etc, ready, max_iterations=cap)
    return result, (
        [event_to_dict(e) for e in tracer.events],
        [(span.kind, span.fields) for span in tracer.spans],
        tracer.counters.as_dict(),
        tracer.histograms.as_dict(),
    )


@pytest.mark.parametrize("name", INVARIANT_HEURISTICS)
@given(
    data=st.one_of(
        near_tie_instances(),
        tie_rich_instances().map(lambda drawn: drawn[1:]),
    ),
    cap=st.sampled_from([None, 1, 2, 3]),
)
@settings(max_examples=300 if DEEP else 30, deadline=None)
def test_traced_derived_run_matches_traced_full_loop(name, data, cap):
    """A traced run derives a certified mapping's iterations with one
    kernel call, and emits exactly what the traced full loop emits
    (events, spans, counters, histograms) with identical records; an
    uncertified traced run re-maps every iteration."""
    etc, ready = data
    heuristic = CountingHeuristic(get_backend("incremental").make(name))
    derived, derived_trace = _traced(IterativeScheduler(heuristic), etc, ready, cap)
    full, full_trace = _traced(
        _FullLoopScheduler(get_backend("incremental").make(name)), etc, ready, cap
    )
    assert derived_trace == full_trace
    assert _run_view(derived) == _run_view(full)
    if derived.original.mapping.certified:
        assert heuristic.calls == 1
    else:
        assert heuristic.calls == derived.num_iterations


@pytest.mark.parametrize("name", INVARIANT_HEURISTICS)
def test_traced_runs_derive_only_certified_mappings(name):
    etc = generate_range_based(24, 5, rng=5)
    heuristic = CountingHeuristic(get_backend("incremental").make(name))
    result, _ = _traced(IterativeScheduler(heuristic), etc)
    assert result.original.mapping.certified
    assert heuristic.calls == 1 < result.num_iterations
    # The tolerance-tie witness does not certify: a traced run re-maps
    # every iteration, as an untraced one does.
    heuristic = CountingHeuristic(get_backend("incremental").make(name))
    result, _ = _traced(IterativeScheduler(heuristic), WITNESS)
    assert not result.original.mapping.certified
    assert heuristic.calls == result.num_iterations == 2
