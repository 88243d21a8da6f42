"""Integration tests for the paper's Genitor claims (Section 3.1, E21).

"For each iteration, the mapping found by Genitor in the previous
iteration, excluding the makespan machine and the tasks assigned to it,
is seeded into the population of the current iteration.  The ranking in
Genitor guarantees that the final mapping is either the seeded mapping
or a mapping with a smaller makespan ... Thus, for Genitor the
iterative technique will result in either an improvement or no change."
"""

import pytest

from repro.core.iterative import IterativeScheduler
from repro.core.validation import validate_iterative_result
from repro.etc.generation import generate_range_based
from repro.heuristics import Genitor


def _genitor(seed, iterations=200):
    return Genitor(iterations=iterations, population_size=20, rng=seed)


class TestSeededIterations:
    @pytest.mark.parametrize("seed", range(4))
    def test_never_increases_makespan(self, seed):
        etc = generate_range_based(20, 5, rng=seed)
        scheduler = IterativeScheduler(_genitor(seed), seed_across_iterations=True)
        result = scheduler.run(etc)
        spans = result.makespans()
        assert all(b <= a + 1e-9 for a, b in zip(spans, spans[1:])), spans
        validate_iterative_result(result)

    @pytest.mark.parametrize("seed", range(4))
    def test_improvement_or_no_change_per_machine(self, seed):
        """Each iteration's restricted makespan never exceeds what the
        previous mapping already achieved on the same machine set."""
        etc = generate_range_based(18, 4, rng=seed + 10)
        result = IterativeScheduler(
            _genitor(seed), seed_across_iterations=True
        ).run(etc)
        for prev, cur in zip(result.iterations, result.iterations[1:]):
            # the previous mapping, restricted to cur's machines, has
            # makespan = the second-largest finishing time of prev
            survivors = [
                prev.mapping.ready_time(m) for m in cur.etc.machines
            ]
            assert cur.makespan <= max(survivors) + 1e-9

    def test_unseeded_iterations_can_increase(self):
        """Dropping the seeding removes the guarantee: across fresh GA
        runs the makespan can grow from one iteration to the next (the
        conclusion's motivation for seeding)."""
        increases = 0
        for seed in range(12):
            etc = generate_range_based(15, 5, rng=seed + 100)
            result = IterativeScheduler(
                Genitor(iterations=15, population_size=6, rng=seed),
                seed_across_iterations=False,
            ).run(etc)
            if result.makespan_increased():
                increases += 1
        assert increases > 0

    def test_seed_restriction_excludes_frozen_tasks(self):
        """The seed passed to iteration i+1 must cover exactly the
        surviving task set (paper: 'excluding the makespan machine and
        the tasks assigned to it')."""
        etc = generate_range_based(12, 4, rng=3)
        captured = []

        class Spy(Genitor):
            def evolve(self, mapping, seed=None):
                captured.append(None if seed is None else seed.copy())
                return super().evolve(mapping, seed)

        spy = Spy(iterations=30, population_size=10, rng=0)
        spy.name = "genitor"
        result = IterativeScheduler(spy, seed_across_iterations=True).run(etc)
        assert captured[0] is None  # original mapping is unseeded
        assert len(captured) == result.num_iterations > 1
        for seed, prev, rec in zip(
            captured[1:], result.iterations, result.iterations[1:]
        ):
            # One machine column per surviving task row, every one a
            # surviving machine ...
            assert seed is not None and seed.shape == (rec.etc.num_tasks,)
            assert ((seed >= 0) & (seed < rec.etc.num_machines)).all()
            # ... and, read back through labels, the previous mapping
            # restricted to the survivors.
            assert dict(
                zip(rec.etc.tasks, (rec.etc.machines[j] for j in seed))
            ) == {t: prev.mapping.machine_of(t) for t in rec.etc.tasks}
