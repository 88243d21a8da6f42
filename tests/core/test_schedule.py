"""Unit tests for repro.core.schedule (Mapping, Eq. 1, finish times)."""

import numpy as np
import pytest

from repro.core.schedule import (
    Mapping,
    finish_times_for_vector,
    ready_time_vector,
)
from repro.core.ties import DeterministicTieBreaker
from repro.etc.matrix import ETCMatrix
from repro.exceptions import MappingError, UnmappedTaskError


class TestReadyTimeVector:
    def test_none_is_zeros(self, tiny_etc):
        assert ready_time_vector(tiny_etc, None).tolist() == [0.0, 0.0]

    def test_mapping_form(self, tiny_etc):
        vec = ready_time_vector(tiny_etc, {"y": 5.0})
        assert vec.tolist() == [0.0, 5.0]

    def test_sequence_form(self, tiny_etc):
        assert ready_time_vector(tiny_etc, [1.0, 2.0]).tolist() == [1.0, 2.0]

    def test_unknown_machine_rejected(self, tiny_etc):
        with pytest.raises(MappingError):
            ready_time_vector(tiny_etc, {"zzz": 1.0})

    def test_wrong_length_rejected(self, tiny_etc):
        with pytest.raises(MappingError):
            ready_time_vector(tiny_etc, [1.0])

    def test_negative_rejected(self, tiny_etc):
        with pytest.raises(MappingError):
            ready_time_vector(tiny_etc, [-1.0, 0.0])

    def test_nan_rejected(self, tiny_etc):
        with pytest.raises(MappingError):
            ready_time_vector(tiny_etc, [float("nan"), 0.0])

    def test_input_not_aliased(self, tiny_etc):
        src = np.array([1.0, 2.0])
        vec = ready_time_vector(tiny_etc, src)
        src[0] = 99.0
        assert vec[0] == 1.0


class TestAssignment:
    def test_eq1_completion(self, tiny_etc):
        m = Mapping(tiny_etc)
        a = m.assign("a", "x")
        assert a.start == 0.0
        assert a.completion == 1.0
        assert a.order == 0

    def test_sequential_on_same_machine(self, tiny_etc):
        m = Mapping(tiny_etc)
        m.assign("a", "x")
        b = m.assign("b", "x")
        assert b.start == 1.0
        assert b.completion == 4.0

    def test_initial_ready_offsets(self, tiny_etc):
        m = Mapping(tiny_etc, {"x": 10.0})
        a = m.assign("a", "x")
        assert a.start == 10.0 and a.completion == 11.0

    def test_double_assign_rejected(self, tiny_etc):
        m = Mapping(tiny_etc)
        m.assign("a", "x")
        with pytest.raises(MappingError):
            m.assign("a", "y")

    def test_completion_time_if_matches_commit(self, square_etc):
        m = Mapping(square_etc)
        m.assign("t0", "m1")
        predicted = m.completion_time_if("t1", "m1")
        committed = m.assign("t1", "m1").completion
        assert predicted == committed

    def test_completion_times_if_vectorised(self, square_etc):
        m = Mapping(square_etc)
        m.assign("t0", "m0")
        vec = m.completion_times_if("t1")
        expected = [
            m.completion_time_if("t1", mm) for mm in square_etc.machines
        ]
        assert vec.tolist() == expected


class TestQueries:
    def test_unmapped_tasks_order(self, square_etc):
        m = Mapping(square_etc)
        m.assign("t2", "m0")
        assert m.unmapped_tasks() == ("t0", "t1", "t3")

    def test_is_complete(self, tiny_etc):
        m = Mapping(tiny_etc)
        assert not m.is_complete()
        m.assign("a", "x")
        m.assign("b", "y")
        assert m.is_complete()

    def test_machine_of_and_assignment_of(self, tiny_etc):
        m = Mapping(tiny_etc)
        m.assign("a", "y")
        assert m.machine_of("a") == "y"
        with pytest.raises(UnmappedTaskError):
            m.assignment_of("b")

    def test_machine_tasks_in_order(self, square_etc):
        m = Mapping(square_etc)
        m.assign("t3", "m1")
        m.assign("t0", "m1")
        assert m.machine_tasks("m1") == ("t3", "t0")

    def test_finish_times_idle_machine_keeps_ready(self, tiny_etc):
        m = Mapping(tiny_etc, {"y": 7.0})
        m.assign("a", "x")
        m.assign("b", "x")
        finish = m.machine_finish_times()
        assert finish["y"] == 7.0
        assert finish["x"] == 4.0

    def test_makespan_and_machine(self, tiny_etc):
        m = Mapping(tiny_etc)
        m.assign("a", "x")
        m.assign("b", "y")
        assert m.makespan() == 2.0
        assert m.makespan_machine() == "y"

    def test_makespan_machine_tie_goes_low_index(self):
        etc = ETCMatrix([[2.0, 2.0]], tasks=["t"], machines=["p", "q"])
        m = Mapping(etc, {"q": 2.0})
        m.assign("t", "p")
        # both machines finish at 2 -> deterministic pick is 'p'
        assert m.makespan_machine(DeterministicTieBreaker()) == "p"

    def test_assignment_vector(self, square_etc):
        m = Mapping(square_etc)
        m.assign("t1", "m3")
        vec = m.assignment_vector()
        assert vec.tolist() == [-1, 3, -1, -1]

    def test_to_dict_and_same_assignments(self, tiny_etc):
        m1 = Mapping(tiny_etc)
        m1.assign("a", "x")
        m1.assign("b", "y")
        m2 = Mapping(tiny_etc)
        m2.assign("b", "y")
        m2.assign("a", "x")
        assert m1.same_assignments(m2)  # order-insensitive

    def test_ready_times_copy(self, tiny_etc):
        m = Mapping(tiny_etc)
        vec = m.ready_times()
        vec[0] = 99.0
        assert m.ready_time("x") == 0.0

    def test_repr(self, tiny_etc):
        m = Mapping(tiny_etc)
        assert "assigned=0/2" in repr(m)


class TestIndexFastPath:
    """assign_index / ready_times_view — the kernels' zero-lookup API."""

    def test_assign_index_matches_assign(self, square_etc, rng):
        by_label = Mapping(square_etc)
        by_index = Mapping(square_etc)
        pairs = [
            (ti, int(rng.integers(square_etc.num_machines)))
            for ti in range(square_etc.num_tasks)
        ]
        for ti, mi in pairs:
            by_label.assign(square_etc.tasks[ti], square_etc.machines[mi])
            by_index.assign_index(ti, mi)
        assert by_label.same_assignments(by_index)
        assert by_label.makespan() == by_index.makespan()

    def test_assign_index_double_assign_rejected(self, tiny_etc):
        m = Mapping(tiny_etc)
        m.assign_index(0, 0)
        with pytest.raises(MappingError):
            m.assign_index(0, 1)

    def test_assign_index_out_of_range(self, tiny_etc):
        with pytest.raises(IndexError):
            Mapping(tiny_etc).assign_index(99, 0)

    @pytest.mark.parametrize(("task", "machine"), [(-1, -1), (-1, 0), (0, -1)])
    def test_assign_index_negative_rejected(self, tiny_etc, task, machine):
        # Python's negative indexing would silently commit the last
        # task/machine; the documented contract is IndexError.
        m = Mapping(tiny_etc)
        with pytest.raises(IndexError):
            m.assign_index(task, machine)
        assert m.num_assigned == 0
        assert list(m.ready_times()) == [0.0, 0.0]

    def test_ready_times_view_is_live(self, tiny_etc):
        m = Mapping(tiny_etc)
        view = m.ready_times_view()
        before = view.copy()
        a = m.assign("a", "x")
        assert view[0] == a.completion
        assert view[1] == before[1]

    def test_machine_tasks_tracks_assign_index(self, square_etc):
        m = Mapping(square_etc)
        m.assign_index(0, 1)
        m.assign_index(2, 1)
        m.assign_index(1, 0)
        assert m.machine_tasks(square_etc.machines[1]) == (
            square_etc.tasks[0],
            square_etc.tasks[2],
        )
        assert m.machine_tasks(square_etc.machines[0]) == (square_etc.tasks[1],)
        assert m.machine_tasks(square_etc.machines[2]) == ()


class TestFinishTimesForVector:
    def test_matches_incremental_mapping(self, square_etc, rng):
        for _ in range(10):
            vec = rng.integers(0, 4, size=4)
            m = Mapping(square_etc)
            for i, t in enumerate(square_etc.tasks):
                m.assign(t, square_etc.machines[int(vec[i])])
            fast = finish_times_for_vector(square_etc, vec)
            assert np.allclose(fast, m.finish_time_vector())

    def test_with_initial_ready(self, tiny_etc):
        out = finish_times_for_vector(tiny_etc, [0, 0], initial_ready=np.array([5.0, 1.0]))
        assert out.tolist() == [5.0 + 1.0 + 3.0, 1.0]

    def test_rejects_wrong_shape(self, tiny_etc):
        with pytest.raises(MappingError):
            finish_times_for_vector(tiny_etc, [0])

    def test_rejects_out_of_range(self, tiny_etc):
        with pytest.raises(MappingError):
            finish_times_for_vector(tiny_etc, [0, 5])
        with pytest.raises(MappingError):
            finish_times_for_vector(tiny_etc, [-1, 0])

    def test_rejects_bad_ready_shape(self, tiny_etc):
        with pytest.raises(MappingError):
            finish_times_for_vector(tiny_etc, [0, 1], initial_ready=np.zeros(3))
