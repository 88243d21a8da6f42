"""Unit tests for repro.core.iterative (the paper's technique)."""

import dataclasses
import pickle

import pytest

from repro.core.iterative import IterationRecord, IterativeScheduler
from repro.core.metrics import compare_iterative
from repro.core.schedule import Mapping
from repro.core.ties import DeterministicTieBreaker, RandomTieBreaker
from repro.core.validation import validate_iterative_result
from repro.etc.generation import generate_range_based
from repro.etc.matrix import ETCMatrix
from repro.exceptions import ConfigurationError
from repro.heuristics import MCT, MET, MinMin, Sufferage, get_heuristic
from repro.heuristics.minmin import ReferenceMinMin


@pytest.fixture
def scheduler():
    return IterativeScheduler(MCT())


class TestProtocol:
    def test_runs_until_one_machine_or_no_tasks(self, scheduler, square_etc):
        result = scheduler.run(square_etc)
        last = result.iterations[-1]
        exhausted = set(last.frozen_tasks) == set(last.etc.tasks)
        assert last.etc.num_machines == 1 or exhausted
        assert result.num_iterations <= square_etc.num_machines

    def test_original_is_iteration_zero(self, scheduler, square_etc):
        result = scheduler.run(square_etc)
        assert result.original is result.iterations[0]
        assert result.original.index == 0

    def test_every_machine_gets_final_finish_time(self, scheduler, square_etc):
        result = scheduler.run(square_etc)
        assert set(result.final_finish_times) == set(square_etc.machines)

    def test_frozen_machine_removed_next_iteration(self, scheduler, square_etc):
        result = scheduler.run(square_etc)
        for prev, cur in zip(result.iterations, result.iterations[1:]):
            assert prev.frozen_machine not in cur.etc.machines
            for task in prev.frozen_tasks:
                assert task not in cur.etc.tasks

    def test_ready_times_reset_each_iteration(self):
        """Survivors restart from their *initial* ready times."""
        etc = ETCMatrix(
            [[10.0, 1.0], [1.0, 10.0]], tasks=("a", "b"), machines=("m1", "m2")
        )
        scheduler = IterativeScheduler(MET())
        result = scheduler.run(etc, max_iterations=None)
        # m1 runs b (CT 1), m2 runs a (CT 1); tie -> m1 frozen; m2 re-runs
        # its task from ready time 0 again.
        second = result.iterations[1]
        assert second.mapping.initial_ready_times().tolist() == [0.0]

    def test_initial_ready_times_respected(self, scheduler, square_etc):
        result = scheduler.run(square_etc, ready_times=[5.0, 0.0, 0.0, 0.0])
        assert result.initial_ready_times["m0"] == 5.0
        # every iteration that still contains m0 must start it at 5
        for rec in result.iterations:
            if "m0" in rec.etc.machines:
                idx = rec.etc.machine_index("m0")
                assert rec.mapping.initial_ready_times()[idx] == 5.0

    def test_frozen_finish_time_recorded(self, scheduler, square_etc):
        result = scheduler.run(square_etc)
        for rec in result.iterations:
            assert result.final_finish_times[rec.frozen_machine] == pytest.approx(
                rec.mapping.ready_time(rec.frozen_machine)
            )

    def test_max_iterations_caps(self, scheduler, square_etc):
        result = scheduler.run(square_etc, max_iterations=2)
        assert result.num_iterations == 2
        # survivors keep the last iteration's finishing times
        assert set(result.final_finish_times) == set(square_etc.machines)

    def test_max_iterations_validation(self, scheduler, square_etc):
        with pytest.raises(ConfigurationError):
            scheduler.run(square_etc, max_iterations=0)

    @pytest.mark.parametrize("cap", [2.5, 1.0, True, False, "3", -1])
    def test_max_iterations_must_be_a_positive_int(self, scheduler, square_etc, cap):
        # 2.5 used to run 3 iterations and True 1: only an int counts.
        with pytest.raises(ConfigurationError, match="max_iterations"):
            scheduler.run(square_etc, max_iterations=cap)

    def test_single_machine_instance(self, scheduler):
        etc = ETCMatrix([[2.0], [3.0]])
        result = scheduler.run(etc)
        assert result.num_iterations == 1
        assert result.final_finish_times["m0"] == 5.0

    def test_fewer_tasks_than_machines(self, scheduler):
        etc = ETCMatrix([[5.0, 1.0, 2.0]])  # 1 task, 3 machines
        result = scheduler.run(etc)
        # the task lands on m1 (MCT), m1 frozen; remaining machines idle
        assert result.final_finish_times["m1"] == 1.0
        assert result.final_finish_times["m0"] == 0.0
        assert result.final_finish_times["m2"] == 0.0

    def test_task_pool_exhaustion_uses_initial_ready(self, scheduler):
        etc = ETCMatrix([[5.0, 1.0, 2.0]])
        result = scheduler.run(etc, ready_times={"m0": 3.0})
        assert result.final_finish_times["m0"] == 3.0

    def test_removal_order_prefix_matches_records(self, scheduler, square_etc):
        result = scheduler.run(square_etc)
        for machine, rec in zip(result.removal_order, result.iterations):
            assert rec.frozen_machine == machine

    def test_validates(self, scheduler, square_etc):
        validate_iterative_result(scheduler.run(square_etc))


class TestResultQueries:
    def test_makespans_tuple(self, scheduler, square_etc):
        result = scheduler.run(square_etc)
        assert len(result.makespans()) == result.num_iterations

    def test_improvements_keys(self, scheduler, square_etc):
        result = scheduler.run(square_etc)
        assert set(result.improvements()) == set(square_etc.machines)

    def test_original_makespan_machine_never_improves(self, scheduler, square_etc):
        result = scheduler.run(square_etc)
        frozen = result.original.frozen_machine
        assert result.improvements()[frozen] == pytest.approx(0.0)

    def test_invariant_heuristic_reports_unchanged(self, square_etc):
        result = IterativeScheduler(MinMin()).run(square_etc)
        assert not result.mapping_changed()
        assert not result.makespan_increased()

    def test_mapping_changed_detects_divergence(self, sufferage_etc):
        result = IterativeScheduler(Sufferage()).run(sufferage_etc)
        assert result.mapping_changed()
        assert result.makespan_increased()

    def test_makespans_nonincreasing_for_invariant_heuristics(self):
        for seed in range(5):
            etc = generate_range_based(20, 5, rng=seed)
            result = IterativeScheduler(MCT()).run(etc)
            spans = result.makespans()
            assert all(b <= a + 1e-9 for a, b in zip(spans, spans[1:]))

    def test_trace_captured_for_traced_heuristics(self, sufferage_etc):
        result = IterativeScheduler(Sufferage()).run(sufferage_etc)
        assert result.original.trace is not None
        assert result.original.trace != result.iterations[1].trace

    def test_trace_none_for_untraced_heuristics(self, square_etc):
        result = IterativeScheduler(MCT()).run(square_etc)
        assert result.original.trace is None


class TestDeterminism:
    def test_deterministic_reruns_identical(self, square_etc):
        r1 = IterativeScheduler(MCT(), DeterministicTieBreaker()).run(square_etc)
        r2 = IterativeScheduler(MCT(), DeterministicTieBreaker()).run(square_etc)
        assert r1.final_finish_times == r2.final_finish_times
        assert r1.removal_order == r2.removal_order

    def test_random_ties_seeded_reproducible(self, square_etc):
        r1 = IterativeScheduler(MCT(), RandomTieBreaker(rng=5)).run(square_etc)
        r2 = IterativeScheduler(MCT(), RandomTieBreaker(rng=5)).run(square_etc)
        assert r1.final_finish_times == r2.final_finish_times

    def test_heuristic_by_name(self, square_etc):
        result = IterativeScheduler(get_heuristic("sufferage")).run(square_etc)
        assert result.heuristic_name == "sufferage"

    def test_random_instances_validate(self):
        for seed in range(3):
            etc = generate_range_based(15, 4, rng=seed)
            for name in ("mct", "met", "min-min", "sufferage"):
                result = IterativeScheduler(get_heuristic(name)).run(etc)
                validate_iterative_result(result)


class TestLazyRecords:
    """Derived records build their matrix and mapping on first read."""

    @staticmethod
    def _certified_run():
        etc = generate_range_based(24, 5, rng=8)
        result = IterativeScheduler(MinMin()).run(etc, [0.5, 0.0, 1.0, 0.0, 2.0])
        assert result.original.mapping.certified
        return etc, result

    @staticmethod
    def _count_builds(monkeypatch):
        """Record every Mapping and ETCMatrix constructed from now on."""
        built = []

        def counting(kind, real):
            def wrapper(*args, **kwargs):
                built.append(kind)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            Mapping, "__init__", counting("Mapping", Mapping.__init__)
        )
        monkeypatch.setattr(
            Mapping, "_restricted", counting("Mapping", Mapping._restricted)
        )
        monkeypatch.setattr(
            ETCMatrix, "__init__", counting("ETCMatrix", ETCMatrix.__init__)
        )
        monkeypatch.setattr(
            ETCMatrix,
            "_from_trusted",
            classmethod(
                counting("ETCMatrix", ETCMatrix._from_trusted.__func__)
            ),
        )
        return built

    def test_reads_return_the_same_objects(self):
        _, result = self._certified_run()
        for rec in result.iterations:
            assert rec.etc is rec.etc
            assert rec.mapping is rec.mapping
            assert rec.mapping.etc is rec.etc

    def test_untraced_certified_run_builds_nothing_until_read(self, monkeypatch):
        etc = generate_range_based(24, 5, rng=8)
        built = self._count_builds(monkeypatch)
        result = IterativeScheduler(MinMin()).run(etc)
        # The original mapping is the only object the run builds.
        assert built == ["Mapping"]
        assert result.num_iterations == etc.num_machines
        compare_iterative(result)
        result.makespans()
        assert built == ["Mapping"]
        third = result.iterations[3]
        third.frozen_tasks, third.makespan, third.trace
        assert built == ["Mapping"]
        third.mapping
        assert built == ["Mapping", "ETCMatrix", "Mapping"]
        third.etc
        assert len(built) == 3

    def test_equality_hash_and_repr_match_eager_records(self):
        etc, result = self._certified_run()
        full = IterativeScheduler(ReferenceMinMin()).run(
            etc, [0.5, 0.0, 1.0, 0.0, 2.0]
        )
        for lazy, eager in zip(result.iterations[1:], full.iterations[1:]):
            assert repr(lazy) == repr(eager)
        for lazy in result.iterations[1:]:
            twin = IterationRecord(
                lazy.index,
                lazy.etc,
                lazy.mapping,
                lazy.makespan,
                lazy.frozen_machine,
                lazy.frozen_tasks,
                lazy.trace,
            )
            assert lazy == twin and twin == lazy
            assert hash(lazy) == hash(twin)
            assert dataclasses.replace(lazy, makespan=-1.0) != lazy

    def test_unread_records_survive_pickling(self):
        etc, result = self._certified_run()
        restored = pickle.loads(pickle.dumps(result))
        full = IterativeScheduler(ReferenceMinMin()).run(
            etc, [0.5, 0.0, 1.0, 0.0, 2.0]
        )
        for rec, eager in zip(restored.iterations, full.iterations):
            assert rec.etc == eager.etc
            assert rec.mapping.assignments == eager.mapping.assignments
            assert rec.mapping.machine_finish_times() == (
                eager.mapping.machine_finish_times()
            )
        assert restored.final_finish_times == full.final_finish_times
        assert restored.final_mapping().commit_order() == (
            full.final_mapping().commit_order()
        )
        assert not restored.mapping_changed()
