"""Edge cases of the iterative technique's removal_order/unfrozen contract.

Regression suite for the contract documented on
:class:`~repro.core.iterative.IterativeResult`: ``removal_order`` holds
exactly the frozen machines (one per iteration record), never-frozen
survivors land in ``unfrozen``, and the two partition the machine set.
"""

import pytest

from repro.core.iterative import IterativeScheduler
from repro.core.ties import RandomTieBreaker
from repro.core.validation import validate_iterative_result
from repro.etc.generation import generate_range_based
from repro.etc.matrix import ETCMatrix
from repro.heuristics import MinMin, get_heuristic


def assert_contract(result):
    """The removal_order/unfrozen contract, in one place."""
    assert len(result.removal_order) == result.num_iterations
    for machine, rec in zip(result.removal_order, result.iterations):
        assert machine == rec.frozen_machine
    assert not set(result.removal_order) & set(result.unfrozen)
    assert set(result.removal_order) | set(result.unfrozen) == set(
        result.etc.machines
    )
    validate_iterative_result(result)


class TestRemovalOrderContract:
    def test_full_run_freezes_every_machine(self):
        # Plenty of tasks per machine, so the pool never empties early
        # and the run terminates by freezing down to one machine.
        etc = generate_range_based(16, 3, rng=1)
        result = IterativeScheduler(MinMin()).run(etc)
        assert_contract(result)
        assert result.unfrozen == ()
        assert len(result.removal_order) == etc.num_machines

    def test_max_iterations_one_keeps_survivors_unfrozen(self, square_etc):
        result = IterativeScheduler(MinMin()).run(square_etc, max_iterations=1)
        assert_contract(result)
        assert result.num_iterations == 1
        assert len(result.removal_order) == 1
        assert len(result.unfrozen) == square_etc.num_machines - 1
        # Survivors keep the capped iteration's finishing times.
        finish = result.iterations[0].finish_times()
        for machine in result.unfrozen:
            assert result.final_finish_times[machine] == finish[machine]

    def test_pool_exhausted_mid_run(self):
        """Fewer tasks than machines: the pool empties before the
        machine set does, and idle survivors are unfrozen at their
        initial ready times."""
        etc = ETCMatrix(
            [[1.0, 50.0, 50.0, 50.0], [50.0, 2.0, 50.0, 50.0]],
            tasks=("a", "b"),
            machines=("m0", "m1", "m2", "m3"),
        )
        result = IterativeScheduler(MinMin()).run(etc)
        assert_contract(result)
        assert result.unfrozen  # someone survived
        for machine in result.unfrozen:
            assert result.final_finish_times[machine] == 0.0

    def test_unfrozen_preserves_input_machine_order(self):
        etc = ETCMatrix(
            [[1.0, 9.0, 9.0, 9.0, 9.0]],
            tasks=("only",),
            machines=("m0", "m1", "m2", "m3", "m4"),
        )
        result = IterativeScheduler(MinMin()).run(etc)
        assert_contract(result)
        assert result.unfrozen == ("m1", "m2", "m3", "m4")

    def test_random_makespan_tie_still_satisfies_contract(self):
        """A frozen-machine tie under RandomTieBreaker must pick exactly
        one machine per iteration — whichever it picks."""
        etc = ETCMatrix(
            [[2.0, 2.0], [2.0, 2.0]], tasks=("a", "b"), machines=("x", "y")
        )
        for seed in range(8):
            result = IterativeScheduler(
                MinMin(), makespan_tie_breaker=RandomTieBreaker(seed)
            ).run(etc)
            assert_contract(result)

    def test_contract_on_generated_instances(self):
        for seed in range(5):
            etc = generate_range_based(10, 4, rng=seed)
            result = IterativeScheduler(MinMin()).run(etc)
            assert_contract(result)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_final_mapping_reproduces_final_finish_times(self, cap):
        etc = generate_range_based(12, 4, rng=3)
        result = IterativeScheduler(MinMin()).run(etc, max_iterations=cap)
        assert_contract(result)
        composite = result.final_mapping()
        assert composite.is_complete()
        assert composite.machine_finish_times() == result.final_finish_times

    @pytest.mark.parametrize("name", ["min-min", "mct", "sufferage"])
    @pytest.mark.parametrize("cap", [None, 2])
    def test_final_mapping_is_bit_identical_at_64x8(self, name, cap):
        # Frozen machines must run their tasks in the order the
        # freezing iteration committed them; ETC row order drifts in
        # the last bits (and reorders what a simulator dispatches).
        heuristic = get_heuristic(name)
        for seed in range(30):
            etc = generate_range_based(64, 8, rng=seed)
            result = IterativeScheduler(heuristic).run(etc, max_iterations=cap)
            composite = result.final_mapping()
            assert composite.machine_finish_times() == result.final_finish_times
            for rec in result.iterations:
                assert composite.machine_tasks(rec.frozen_machine) == rec.frozen_tasks
