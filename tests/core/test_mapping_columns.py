"""The columnar :class:`~repro.core.schedule.Mapping`: commits, restriction
and pickling.

``restrict`` copies start and finish floats instead of recomputing them,
so it must be bit-identical to re-committing the surviving tasks, in
commit order, on the restricted matrix.
"""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.iterative import IterativeScheduler
from repro.core.schedule import Mapping
from repro.etc.generation import generate_range_based
from repro.etc.matrix import ETCMatrix
from repro.exceptions import MappingError
from repro.heuristics.backends import get_backend


def _view(mapping):
    return (
        mapping.tasks,
        mapping.machines,
        [
            (a.task, a.machine, a.start, a.completion, a.order)
            for a in mapping.assignments
        ],
        mapping.to_dict(),
        mapping.machine_finish_times(),
        mapping.initial_ready_times().tolist(),
        {m: mapping.machine_tasks(m) for m in mapping.machines},
        mapping.unmapped_tasks(),
        mapping.assignment_vector().tolist(),
        mapping.certified,
    )


@st.composite
def partial_mappings(draw):
    """A random mapping (possibly partial) built in a random commit order."""
    num_tasks = draw(st.integers(1, 20))
    num_machines = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0.5, 50.0, (num_tasks, num_machines))
    if draw(st.booleans()):
        values = np.round(values)
    etc = ETCMatrix(values)
    ready = rng.uniform(0.0, 10.0, num_machines) * draw(st.integers(0, 1))
    mapping = Mapping(etc, ready.tolist())
    order = rng.permutation(num_tasks)[: draw(st.integers(0, num_tasks))]
    for ti in order.tolist():
        mapping.assign_index(ti, int(rng.integers(num_machines)))
    mapping.certified = draw(st.booleans())
    return mapping, int(rng.integers(num_machines))


def _recommit(mapping, etc, machine):
    """The reference for ``restrict``: replay the survivors in order."""
    drop = mapping.etc.machine_index(machine)
    ready = np.delete(mapping.initial_ready_times(), drop)
    fresh = Mapping(etc, ready.tolist())
    for a in mapping.assignments:
        if a.machine != machine:
            fresh.assign(a.task, a.machine)
    fresh.certified = mapping.certified
    return fresh


@given(data=partial_mappings())
@settings(max_examples=60, deadline=None)
def test_restrict_is_bit_identical_to_recommitting(data):
    mapping, drop = data
    machine = mapping.machines[drop]
    assume(len(mapping.machine_tasks(machine)) < mapping.etc.num_tasks)
    before = _view(mapping)
    etc = mapping.etc.without_machine(machine, mapping.machine_tasks(machine))
    restricted = mapping.restrict(etc, machine)
    assert _view(restricted) == _view(_recommit(mapping, etc, machine))
    assert _view(mapping) == before  # the source is untouched
    # The restricted mapping keeps accepting commits for unmapped tasks.
    for task in restricted.unmapped_tasks():
        restricted.assign(task, restricted.machines[0])
    assert restricted.is_complete()


def test_restrict_chains_like_the_iterative_loop():
    etc = generate_range_based(40, 6, rng=2)
    mapping = get_backend("incremental").make("min-min").map_tasks(etc)
    while mapping.etc.num_machines > 1:
        machine = mapping.makespan_machine()
        frozen = mapping.machine_tasks(machine)
        if len(frozen) == mapping.etc.num_tasks:
            break
        sub = mapping.etc.without_machine(machine, frozen)
        restricted = mapping.restrict(sub, machine)
        assert _view(restricted) == _view(_recommit(mapping, sub, machine))
        mapping = restricted


def test_restrict_rejects_a_foreign_matrix():
    etc = generate_range_based(8, 3, rng=1)
    mapping = get_backend("incremental").make("mct").map_tasks(etc)
    machine = mapping.makespan_machine()
    with pytest.raises(MappingError):
        mapping.restrict(etc, machine)  # nothing dropped
    bystander = next(m for m in etc.machines if m != machine)
    other = etc.without_machine(bystander, ())
    with pytest.raises(MappingError):
        mapping.restrict(other, machine)


def test_assign_index_and_assign_build_equal_mappings():
    etc = generate_range_based(30, 5, rng=7)
    rng = np.random.default_rng(7)
    ready = rng.uniform(0.0, 5.0, etc.num_machines).tolist()
    by_label, by_index = Mapping(etc, ready), Mapping(etc, ready)
    for ti in rng.permutation(etc.num_tasks).tolist():
        mi = int(rng.integers(etc.num_machines))
        assignment = by_label.assign(etc.tasks[ti], etc.machines[mi])
        finish = by_index.assign_index(ti, mi)
        assert type(finish) is float
        assert finish == assignment.completion
        assert by_index.assignment_of(etc.tasks[ti]) == assignment
    assert _view(by_label) == _view(by_index)


def test_assignments_are_cached_until_the_next_commit():
    etc = generate_range_based(4, 2, rng=1)
    mapping = Mapping(etc)
    mapping.assign_index(0, 0)
    first = mapping.assignments
    assert mapping.assignments is first
    mapping.assign_index(1, 1)
    assert len(mapping.assignments) == 2
    assert mapping.assignments[:1] == first


@pytest.mark.parametrize("name", ["min-min", "mct", "met", "sufferage"])
def test_mapping_and_result_survive_pickling(name):
    etc = generate_range_based(16, 4, rng=5)
    result = IterativeScheduler(get_backend("incremental").make(name)).run(
        etc, [1.0, 0.0, 2.0, 0.5]
    )
    for rec in result.iterations:
        clone = pickle.loads(pickle.dumps(rec.mapping))
        assert _view(clone) == _view(rec.mapping)
    clone = pickle.loads(pickle.dumps(result))
    assert clone.final_finish_times == result.final_finish_times
    assert clone.removal_order == result.removal_order
    assert [_view(r.mapping) for r in clone.iterations] == [
        _view(r.mapping) for r in result.iterations
    ]
    assert _view(clone.final_mapping()) == _view(result.final_mapping())


def _columns(mapping):
    """The internal state a bulk commit must reproduce bit for bit."""
    return (
        mapping.ready_times_view().tolist(),
        mapping._task,
        mapping._machine,
        mapping._start,
        mapping._finish,
        mapping._position,
        mapping._by_machine,
    )


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_assign_many_is_bit_identical_to_sequential_commits(data):
    num_tasks = data.draw(st.integers(1, 24))
    num_machines = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0.1, 1e4, (num_tasks, num_machines))
    if data.draw(st.booleans()):
        # Tie-rich; entries below 0.5 would round to an invalid 0.
        values = np.maximum(np.round(values), 1.0)
    etc = ETCMatrix(values)
    ready = rng.uniform(0.0, 1e3, num_machines) * data.draw(st.integers(0, 1))
    order = rng.permutation(num_tasks).tolist()
    machines = rng.integers(num_machines, size=num_tasks).tolist()
    # A prefix committed one by one, so the bulk commit starts mid-way.
    split = data.draw(st.integers(0, num_tasks))
    sequential = Mapping(etc, ready.tolist())
    bulk = Mapping(etc, ready.tolist())
    for ti, mi in zip(order[:split], machines[:split]):
        bulk.assign_index(ti, mi)
    bulk.assign_many(order[split:], machines[split:])
    for ti, mi in zip(order, machines):
        sequential.assign_index(ti, mi)
    assert _columns(bulk) == _columns(sequential)
    assert _view(bulk) == _view(sequential)


@pytest.mark.parametrize(
    ("tasks", "machines", "error"),
    [
        ([0, 2, 0], [0, 1, 1], MappingError),  # duplicate task
        ([0, 1], [0], MappingError),  # length mismatch
        ([0, -1], [0, 0], IndexError),  # negative task
        ([0, 1], [0, -1], IndexError),  # negative machine
        ([0, 4], [0, 0], IndexError),  # task out of range
        ([0, 1], [0, 2], IndexError),  # machine out of range
        ([0, 3], [1, 0], MappingError),  # task 3 is already assigned
        ([0.0, 1], [0, 0], TypeError),  # not an integer
    ],
)
def test_assign_many_rejects_bad_indices_without_committing(tasks, machines, error):
    etc = generate_range_based(4, 2, rng=3)
    mapping = Mapping(etc, [1.0, 2.0])
    mapping.assign_index(3, 1)
    before = (_columns(mapping), _view(mapping))
    with pytest.raises(error):
        mapping.assign_many(tasks, machines)
    assert (_columns(mapping), _view(mapping)) == before


def test_commit_order_is_the_index_view_of_assignments():
    etc = generate_range_based(5, 3, rng=4)
    mapping = Mapping(etc)
    mapping.assign_many([3, 0, 4], [2, 2, 0])
    tasks, machines = mapping.commit_order()
    assert (tasks, machines) == ((3, 0, 4), (2, 2, 0))
    assert [(a.task, a.machine) for a in mapping.assignments] == [
        (etc.tasks[t], etc.machines[m]) for t, m in zip(tasks, machines)
    ]
