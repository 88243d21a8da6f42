"""Decision-identity of the incremental kernels vs the reference paths.

The optimised kernels (the ``incremental`` backend, the default) must be
decision-for-decision identical to the paper-transcription oracles the
``reference`` backend builds: same assignments (task, machine, start, completion,
order), same makespans (exact float equality, not approximate), same
tie-candidate sets and tie-breaker draw order, and byte-identical
``repro.obs`` event streams.  Random ETCs include an integer-grid mode
that makes genuine ties common, so the tolerance logic and the random
policy's draw-consumption discipline are both exercised hard.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iterative import IterativeScheduler
from repro.core.ties import DeterministicTieBreaker, RandomTieBreaker
from repro.etc.matrix import ETCMatrix
from repro.etc.witness import (
    KPB_EXAMPLE_PERCENT,
    SWA_EXAMPLE_HIGH_THRESHOLD,
    SWA_EXAMPLE_LOW_THRESHOLD,
    kpb_example_etc,
    mct_met_example_etc,
    minmin_example_etc,
    sufferage_example_etc,
    swa_example_etc,
)
from repro.heuristics.backends import get_backend
from repro.heuristics.kpb import KPBTrace, KPercentBest
from repro.heuristics.sufferage import Sufferage, SufferageTrace
from repro.obs.export import event_to_dict
from repro.obs.tracer import CollectingTracer, use_tracer

#: Heuristics whose default kernel differs from the paper transcription.
KERNELED = (
    "duplex", "k-percent-best", "max-min", "mct", "met", "min-min", "sufferage"
)

#: Kernel under test first, oracle second.
BACKENDS = ("incremental", "reference")

TIE_POLICIES = {
    "deterministic": DeterministicTieBreaker,
    # Same seed on both sides: identical draw sequences prove the
    # kernels consume random draws at exactly the same decisions.
    "random": lambda: RandomTieBreaker(1234),
}


@st.composite
def etc_and_ready(draw):
    num_tasks = draw(st.integers(1, 12))
    num_machines = draw(st.integers(1, 6))
    if draw(st.booleans()):
        # Integer grid: tolerance ties are the norm, not the exception.
        cell = st.integers(1, 4).map(float)
    else:
        cell = st.floats(0.5, 50.0, allow_nan=False, allow_infinity=False)
    values = draw(
        st.lists(
            st.lists(cell, min_size=num_machines, max_size=num_machines),
            min_size=num_tasks,
            max_size=num_tasks,
        )
    )
    ready = draw(
        st.lists(
            st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False),
            min_size=num_machines,
            max_size=num_machines,
        )
    )
    return ETCMatrix(values), ready


#: Relative perturbations straddling ``DEFAULT_REL_TOL`` (1e-9): the
#: first three stay inside the tie tolerance, the last two fall outside.
NEAR_TIE_EPSILONS = (0.0, 3e-10, 8e-10, 2e-9, 5e-9)


@st.composite
def near_tie_etc_and_ready(draw):
    """ETC entries and ready times of the form ``base * (1 + eps)``.

    Integer bases make exact ties common, and the epsilons put many
    pairs just inside or just outside the tolerance window, so the
    kernels' tolerance shortcuts meet their boundary.
    """
    num_tasks = draw(st.integers(1, 48))
    num_machines = draw(st.integers(1, 12))
    eps = st.sampled_from(NEAR_TIE_EPSILONS)

    def near(low, high):
        return st.builds(
            lambda base, e: float(base) * (1.0 + e), st.integers(low, high), eps
        )

    values = draw(
        st.lists(
            st.lists(near(1, 6), min_size=num_machines, max_size=num_machines),
            min_size=num_tasks,
            max_size=num_tasks,
        )
    )
    ready = draw(
        st.lists(near(0, 8), min_size=num_machines, max_size=num_machines)
    )
    return ETCMatrix(values), ready


def _iterative_outcome(backend, name, etc, ready, make_breaker, traced):
    tracer = CollectingTracer() if traced else None
    scheduler = IterativeScheduler(
        get_backend(backend).make(name), tie_breaker=make_breaker()
    )
    if tracer is None:
        result = scheduler.run(etc, dict(zip(etc.machines, ready)))
    else:
        with use_tracer(tracer):
            result = scheduler.run(etc, dict(zip(etc.machines, ready)))
    return (
        [
            (
                record.mapping.commit_order(),
                record.mapping.finish_time_vector().tolist(),
                record.trace,
            )
            for record in result.iterations
        ],
        result.removal_order,
        result.final_finish_times,
        None if tracer is None else [event_to_dict(e) for e in tracer.events],
    )


@pytest.mark.parametrize("name", ("k-percent-best", "sufferage"))
@pytest.mark.parametrize(
    "mode", ("deterministic-untraced", "deterministic-traced", "random-traced")
)
@given(data=near_tie_etc_and_ready())
@settings(max_examples=25, deadline=None)
def test_near_tie_iterative_runs_identical(name, mode, data):
    """Whole iterative runs on near-tie instances decide identically.

    Covers the untraced deterministic fast path, the traced path and
    the seeded random policy; every iteration's commit order, finishing
    times and trace must equal the reference's.
    """
    etc, ready = data
    policy, _, tracing = mode.partition("-")
    fast, slow = (
        _iterative_outcome(
            backend, name, etc, ready, TIE_POLICIES[policy], tracing == "traced"
        )
        for backend in BACKENDS
    )
    assert fast == slow
    for (_, _, kernel_trace), (_, _, reference_trace) in zip(fast[0], slow[0]):
        assert reference_trace == kernel_trace


def _traced_run(heuristic, etc, ready, tie_breaker):
    tracer = CollectingTracer()
    with use_tracer(tracer):
        mapping = heuristic.map_tasks(etc, list(ready), tie_breaker)
    return (
        [
            (a.task, a.machine, a.start, a.completion, a.order)
            for a in mapping.assignments
        ],
        mapping.makespan(),
        [event_to_dict(e) for e in tracer.events],
        getattr(heuristic, "last_trace", None),
    )


@pytest.mark.parametrize("name", KERNELED)
@pytest.mark.parametrize("policy", sorted(TIE_POLICIES))
@given(data=etc_and_ready())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference(name, policy, data):
    etc, ready = data
    runs = [
        _traced_run(
            get_backend(backend).make(name),
            etc,
            ready,
            TIE_POLICIES[policy](),
        )
        for backend in BACKENDS
    ]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", KERNELED)
@given(data=etc_and_ready())
@settings(max_examples=20, deadline=None)
def test_kernel_matches_reference_untraced(name, data):
    """The no-tracer deterministic fast paths decide identically too."""
    etc, ready = data
    mappings = [
        get_backend(backend).make(name).map_tasks(
            etc, list(ready), DeterministicTieBreaker()
        )
        for backend in BACKENDS
    ]
    assert [
        (a.task, a.machine, a.start, a.completion, a.order)
        for a in mappings[0].assignments
    ] == [
        (a.task, a.machine, a.start, a.completion, a.order)
        for a in mappings[1].assignments
    ]
    assert mappings[0].makespan() == mappings[1].makespan()


@pytest.mark.parametrize("policy", sorted(TIE_POLICIES))
@given(data=etc_and_ready())
@settings(max_examples=15, deadline=None)
def test_iterative_scheduler_equivalence(policy, data):
    """The full freeze/remap technique is invariant to the kernel choice."""
    etc, ready = data
    outcomes = []
    for backend in BACKENDS:
        tracer = CollectingTracer()
        with use_tracer(tracer):
            result = IterativeScheduler(
                get_backend(backend).make("min-min"),
                tie_breaker=TIE_POLICIES[policy](),
            ).run(etc, dict(zip(etc.machines, ready)))
        outcomes.append(
            (
                result.makespans(),
                result.removal_order,
                result.final_finish_times,
                [event_to_dict(e) for e in tracer.events],
            )
        )
    assert outcomes[0] == outcomes[1]


def _paper_examples():
    return {
        "min-min": ("min-min", {}, minmin_example_etc()),
        "mct": ("mct", {}, mct_met_example_etc()),
        "met": ("met", {}, mct_met_example_etc()),
        "swa": (
            "switching-algorithm",
            {"low": SWA_EXAMPLE_LOW_THRESHOLD, "high": SWA_EXAMPLE_HIGH_THRESHOLD},
            swa_example_etc(),
        ),
        "kpb": ("k-percent-best", {"percent": KPB_EXAMPLE_PERCENT}, kpb_example_etc()),
        "sufferage": ("sufferage", {}, sufferage_example_etc()),
    }


@pytest.mark.parametrize("example", sorted(_paper_examples()))
def test_paper_witness_examples_replay_identically(example):
    """All six paper worked examples run the same on either backend.

    MET and SWA have a single implementation, so for them this
    degenerates to an idempotence check, which keeps the example set
    complete.
    """
    name, kwargs, etc = _paper_examples()[example]
    outcomes = []
    for backend in BACKENDS:
        heuristic = get_backend(backend).make(name, **kwargs)
        tracer = CollectingTracer()
        with use_tracer(tracer):
            result = IterativeScheduler(heuristic).run(etc)
        outcomes.append(
            (
                result.makespans(),
                result.removal_order,
                result.final_finish_times,
                [event_to_dict(e) for e in tracer.events],
            )
        )
    assert outcomes[0] == outcomes[1]


@given(data=etc_and_ready())
@settings(max_examples=20, deadline=None)
def test_sufferage_last_trace_identical(data):
    """Pass/decision traces (paper Tables 16–17), assignments and event
    streams match across kernels, with a live tracer and under both tie
    policies."""
    etc, ready = data
    for make_breaker in TIE_POLICIES.values():
        runs = [
            _traced_run(
                get_backend(backend).make("sufferage"), etc, ready, make_breaker()
            )
            for backend in BACKENDS
        ]
        assert runs[0] == runs[1]
        assert runs[1][3] == runs[0][3]  # the reference tuple compares back


@pytest.mark.parametrize("policy", sorted(TIE_POLICIES))
@given(data=etc_and_ready())
@settings(max_examples=15, deadline=None)
def test_sufferage_iteration_traces_identical(policy, data):
    """Every iteration's recorded trace matches the reference's."""
    etc, ready = data
    results = [
        IterativeScheduler(
            get_backend(backend).make("sufferage"),
            tie_breaker=TIE_POLICIES[policy](),
        ).run(etc, dict(zip(etc.machines, ready)))
        for backend in BACKENDS
    ]
    fast, slow = ([r.trace for r in result.iterations] for result in results)
    assert len(fast) == len(slow)
    for kernel_trace, reference_trace in zip(fast, slow):
        assert isinstance(reference_trace, tuple)
        assert kernel_trace == reference_trace
        assert reference_trace == kernel_trace


@pytest.mark.parametrize("policy", sorted(TIE_POLICIES))
@given(data=etc_and_ready())
@settings(max_examples=15, deadline=None)
def test_kpb_iteration_traces_identical(policy, data):
    """Every iteration's recorded KPB trace matches the reference's."""
    etc, ready = data
    results = [
        IterativeScheduler(
            get_backend(backend).make("k-percent-best"),
            tie_breaker=TIE_POLICIES[policy](),
        ).run(etc, dict(zip(etc.machines, ready)))
        for backend in BACKENDS
    ]
    fast, slow = ([r.trace for r in result.iterations] for result in results)
    assert len(fast) == len(slow)
    for kernel_trace, reference_trace in zip(fast, slow):
        assert isinstance(reference_trace, tuple)
        assert kernel_trace == reference_trace
        assert reference_trace == kernel_trace


class TestSufferageTrace:
    """The lazy trace stands in for the tuple the reference builds."""

    @staticmethod
    def _traces(etc):
        out = []
        for backend in BACKENDS:
            heuristic = get_backend(backend).make("sufferage")
            heuristic.map_tasks(etc)
            out.append(heuristic.last_trace)
        return out

    def test_sequence_and_equality(self):
        lazy, reference = self._traces(sufferage_example_etc())
        assert isinstance(lazy, SufferageTrace)
        assert isinstance(reference, tuple)
        assert lazy == reference and reference == lazy
        assert not (lazy != reference)
        assert len(lazy) == len(reference) >= 2
        assert list(lazy) == list(reference)
        assert lazy[0] == reference[0] and lazy[-1] == reference[-1]
        assert lazy[1:] == reference[1:]
        assert reference[0] in lazy
        assert lazy != reference[:-1]

    def test_pickle_round_trip(self):
        lazy, reference = self._traces(sufferage_example_etc())
        unbuilt = pickle.loads(pickle.dumps(lazy))
        assert unbuilt == reference
        list(lazy)  # a built trace pickles the same way
        assert pickle.loads(pickle.dumps(lazy)) == reference

    def test_hashable_like_the_tuple(self):
        lazy, reference = self._traces(sufferage_example_etc())
        assert hash(lazy) == hash(reference)
        assert {lazy: "x"}[reference] == "x"

    def test_not_built_during_untraced_iterative_run(self, monkeypatch):
        import repro.heuristics.sufferage as sufferage_module

        built = []
        real = sufferage_module.SufferagePass

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sufferage_module, "SufferagePass", counting)
        result = IterativeScheduler(Sufferage()).run(sufferage_example_etc())
        assert built == []
        assert all(isinstance(r.trace, SufferageTrace) for r in result.iterations)
        assert len(result.original.trace) >= 2
        assert built == []  # len() reads the records, not the passes
        list(result.original.trace)
        assert len(built) == len(result.original.trace)


class TestKPBTrace:
    """The lazy KPB trace stands in for the tuple the reference builds."""

    @staticmethod
    def _traces(etc):
        out = []
        for backend in BACKENDS:
            heuristic = get_backend(backend).make(
                "k-percent-best", percent=KPB_EXAMPLE_PERCENT
            )
            heuristic.map_tasks(etc)
            out.append(heuristic.last_trace)
        return out

    def test_sequence_and_equality(self):
        lazy, reference = self._traces(kpb_example_etc())
        assert isinstance(lazy, KPBTrace)
        assert isinstance(reference, tuple)
        assert lazy == reference and reference == lazy
        assert not (lazy != reference)
        assert len(lazy) == len(reference) >= 2
        assert list(lazy) == list(reference)
        assert lazy[0] == reference[0] and lazy[-1] == reference[-1]
        assert lazy[1:] == reference[1:]
        assert reference[0] in lazy
        assert lazy != reference[:-1]

    def test_pickle_round_trip(self):
        lazy, reference = self._traces(kpb_example_etc())
        unbuilt = pickle.loads(pickle.dumps(lazy))
        assert isinstance(unbuilt, KPBTrace)
        assert unbuilt == reference
        list(lazy)  # a built trace pickles the same way
        assert pickle.loads(pickle.dumps(lazy)) == reference

    def test_hashable_like_the_tuple(self):
        lazy, reference = self._traces(kpb_example_etc())
        assert hash(lazy) == hash(reference)
        assert {lazy: "x"}[reference] == "x"

    def test_not_built_during_untraced_iterative_run(self, monkeypatch):
        import repro.heuristics.kpb as kpb_module

        built = []
        real = kpb_module.KPBStep

        def counting(*args, **kwargs):
            built.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(kpb_module, "KPBStep", counting)
        result = IterativeScheduler(
            KPercentBest(percent=KPB_EXAMPLE_PERCENT)
        ).run(kpb_example_etc())
        assert built == []
        assert all(isinstance(r.trace, KPBTrace) for r in result.iterations)
        assert len(result.original.trace) == kpb_example_etc().num_tasks
        assert built == []  # len() reads the picks, not the steps
        list(result.original.trace)
        assert len(built) == len(result.original.trace)
