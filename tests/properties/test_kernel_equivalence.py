"""Decision-identity of the incremental kernels vs the reference paths.

The optimised kernels (``incremental=True``, the default) must be
decision-for-decision identical to the retained reference
implementations: same assignments (task, machine, start, completion,
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
from repro.heuristics.kpb import KPercentBest
from repro.heuristics.mct import MCT
from repro.heuristics.minmin import Duplex, MaxMin, MinMin
from repro.heuristics.sufferage import Sufferage, SufferageTrace
from repro.obs.export import event_to_dict
from repro.obs.tracer import CollectingTracer, use_tracer

FACTORIES = {
    "min-min": MinMin,
    "max-min": MaxMin,
    "mct": MCT,
    "sufferage": Sufferage,
    "duplex": Duplex,
    "k-percent-best": lambda **kw: KPercentBest(70.0, **kw),
}

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


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("policy", sorted(TIE_POLICIES))
@given(data=etc_and_ready())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference(name, policy, data):
    etc, ready = data
    runs = [
        _traced_run(
            FACTORIES[name](incremental=incremental),
            etc,
            ready,
            TIE_POLICIES[policy](),
        )
        for incremental in (True, False)
    ]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", sorted(FACTORIES))
@given(data=etc_and_ready())
@settings(max_examples=20, deadline=None)
def test_kernel_matches_reference_untraced(name, data):
    """The no-tracer deterministic fast paths decide identically too."""
    etc, ready = data
    mappings = [
        FACTORIES[name](incremental=incremental).map_tasks(
            etc, list(ready), DeterministicTieBreaker()
        )
        for incremental in (True, False)
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
    for incremental in (True, False):
        tracer = CollectingTracer()
        with use_tracer(tracer):
            result = IterativeScheduler(
                MinMin(incremental=incremental),
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
    from repro.heuristics import get_heuristic
    from repro.heuristics.swa import SwitchingAlgorithm

    return {
        "min-min": (lambda **kw: MinMin(**kw), minmin_example_etc()),
        "mct": (lambda **kw: MCT(**kw), mct_met_example_etc()),
        "met": (lambda **kw: get_heuristic("met"), mct_met_example_etc()),
        "swa": (
            lambda **kw: SwitchingAlgorithm(
                low=SWA_EXAMPLE_LOW_THRESHOLD, high=SWA_EXAMPLE_HIGH_THRESHOLD
            ),
            swa_example_etc(),
        ),
        "kpb": (
            lambda **kw: KPercentBest(percent=KPB_EXAMPLE_PERCENT, **kw),
            kpb_example_etc(),
        ),
        "sufferage": (lambda **kw: Sufferage(**kw), sufferage_example_etc()),
    }


@pytest.mark.parametrize("example", sorted(_paper_examples()))
def test_paper_witness_examples_replay_identically(example):
    """All six paper worked examples run the same under either kernel.

    MET and SWA take no ``incremental`` flag (they have a single
    implementation); for them this degenerates to an idempotence check,
    which keeps the example set complete.
    """
    make, etc = _paper_examples()[example]
    outcomes = []
    for incremental in (True, False):
        try:
            heuristic = make(incremental=incremental)
        except TypeError:
            heuristic = make()
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
            _traced_run(Sufferage(incremental=incremental), etc, ready, make_breaker())
            for incremental in (True, False)
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
            Sufferage(incremental=incremental), tie_breaker=TIE_POLICIES[policy]()
        ).run(etc, dict(zip(etc.machines, ready)))
        for incremental in (True, False)
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
        for incremental in (True, False):
            heuristic = Sufferage(incremental=incremental)
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


# ----------------------------------------------------------------------
# Batch-vs-loop decision identity (the batched backend's contract).
#
# For every greedy-family heuristic and every registered backend, mapping
# a stacked batch must reproduce — byte for byte — the decision sequence
# of looping that backend's single-instance heuristic over the
# instances: same (task, machine, start, completion, order) tuples, same
# exact makespans.  The strategy stresses ties (integer grids, duplicate
# rows, duplicate instances) and degenerate shapes (batch of 1,
# tasks < machines, single machine).
# ----------------------------------------------------------------------
from tests.conftest import BATCH_MAX_EXAMPLES, stacked_batches  # noqa: E402

from repro.heuristics.backends import get_backend  # noqa: E402
from repro.heuristics.batched import (  # noqa: E402
    GREEDY_FAMILY,
    batch_ready_vector,
    map_batch,
)

BACKENDS = ("reference", "incremental", "batched")


def _batch_decisions(result):
    return [
        (result.assignment_tuples(index), result.makespans()[index])
        for index in range(len(result.batch))
    ]


def _looped_decisions(backend, name, batch, ready, breaker):
    """Ground truth: the backend's single-instance kernel, looped."""
    ready0 = batch_ready_vector(batch, ready)
    out = []
    for index in range(len(batch)):
        mapping = backend.make(name).map_tasks(
            batch.instance(index), list(ready0[index]), breaker
        )
        out.append(
            (
                [
                    (a.task, a.machine, a.start, a.completion, a.order)
                    for a in mapping.assignments
                ],
                mapping.makespan(),
            )
        )
    return out


@pytest.mark.parametrize("name", GREEDY_FAMILY)
@pytest.mark.parametrize("backend_name", BACKENDS)
@given(data=stacked_batches())
@settings(max_examples=BATCH_MAX_EXAMPLES, deadline=None)
def test_batch_matches_loop(name, backend_name, data):
    batch, ready = data
    backend = get_backend(backend_name)
    result = backend.map_batch(name, batch, ready)
    assert result.heuristic == name
    assert _batch_decisions(result) == _looped_decisions(
        backend, name, batch, ready, DeterministicTieBreaker()
    )


@pytest.mark.parametrize("name", GREEDY_FAMILY)
@given(data=stacked_batches())
@settings(max_examples=BATCH_MAX_EXAMPLES, deadline=None)
def test_batch_backends_agree(name, data):
    """All registered backends produce identical batch results."""
    batch, ready = data
    outcomes = [
        _batch_decisions(get_backend(backend_name).map_batch(name, batch, ready))
        for backend_name in BACKENDS
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("name", GREEDY_FAMILY)
@given(data=stacked_batches())
@settings(max_examples=BATCH_MAX_EXAMPLES, deadline=None)
def test_batch_mapping_replay(name, data):
    """BatchResult.mapping(i) rebuilds the exact single-instance Mapping."""
    batch, ready = data
    result = get_backend("batched").map_batch(name, batch, ready)
    for index in range(len(batch)):
        mapping = result.mapping(index)
        assert [
            (a.task, a.machine, a.start, a.completion, a.order)
            for a in mapping.assignments
        ] == result.assignment_tuples(index)
        assert mapping.makespan() == result.makespans()[index]


@given(data=stacked_batches())
@settings(max_examples=BATCH_MAX_EXAMPLES, deadline=None)
def test_batch_random_ties_fall_back_to_loop(data):
    """A non-deterministic breaker routes through the looped path with a
    single shared draw stream — identical to looping by hand."""
    batch, ready = data
    result = map_batch("min-min", batch, ready, RandomTieBreaker(99))
    ready0 = batch_ready_vector(batch, ready)
    breaker = RandomTieBreaker(99)
    heuristic = MinMin()
    expected = []
    for index in range(len(batch)):
        mapping = heuristic.map_tasks(
            batch.instance(index), list(ready0[index]), breaker
        )
        expected.append(
            (
                [
                    (a.task, a.machine, a.start, a.completion, a.order)
                    for a in mapping.assignments
                ],
                mapping.makespan(),
            )
        )
    assert _batch_decisions(result) == expected


@pytest.mark.parametrize("name", GREEDY_FAMILY)
@given(data=stacked_batches())
@settings(max_examples=BATCH_MAX_EXAMPLES // 2 or 1, deadline=None)
def test_batch_traced_fallback_identical(name, data):
    """Under a tracer the batched path falls back to the loop (so event
    streams keep their proven identity) yet decides identically, and the
    kernels.batch.* counters record the request."""
    batch, ready = data
    untraced = get_backend("batched").map_batch(name, batch, ready)
    tracer = CollectingTracer()
    with use_tracer(tracer):
        traced = get_backend("batched").map_batch(name, batch, ready)
    assert _batch_decisions(traced) == _batch_decisions(untraced)
    counters = tracer.counters.as_dict()
    assert counters.get("kernels.batch.requests") == 1
    assert counters.get("kernels.batch.instances") == len(batch)
    assert counters.get("kernels.batch.fallback") == 1
