"""Genitor steady-state genetic algorithm (Whitley) — paper Figure 1.

Procedure (verbatim structure):

1. An initial population of mappings is generated.
2. The mappings in the population are ordered based on makespan.
3. While the stopping criteria are not met:

   a. Two chromosomes are randomly selected to act as parents for
      crossover:

      i.   a random cut-off point is generated;
      ii.  the machine assignments of the tasks below the cut-off point
           are exchanged (producing two offspring);
      iii. the offspring are inserted into the sorted population based
           on their makespan, and the worst chromosomes are removed
           (population size stays fixed).

   b. A chromosome is randomly selected for mutation:

      i.  a random task is chosen and its machine assignment is
          arbitrarily modified;
      ii. the offspring is inserted into the sorted population and the
          worst chromosome is removed.

4. The best solution is output.

Chromosomes are dense machine-index vectors; fitness (makespan) is
evaluated with the vectorised kernel
:func:`repro.core.schedule.finish_times_for_vector` (hpc guide:
vectorise the hot loop — fitness evaluation dominates the run time).

**Seeding** (paper Section 3.1): "the mapping found by Genitor in the
previous iteration, excluding the makespan machine and the tasks
assigned to it, is seeded into the population of the current
iteration.  The ranking in Genitor guarantees that the final mapping is
either the seeded mapping or a mapping with a smaller makespan" — so
for Genitor the iterative technique yields an improvement or no change.
Because only the worst chromosomes are ever removed, the best makespan
is monotone non-increasing, which makes that guarantee structural.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import Mapping, finish_times_for_vector
from repro.core.ties import TieBreaker
from repro.exceptions import ConfigurationError
from repro.heuristics.base import Heuristic, register_heuristic

__all__ = ["Genitor"]


@register_heuristic
class Genitor(Heuristic):
    """Steady-state GA minimising makespan over assignment chromosomes.

    Parameters
    ----------
    population_size:
        Number of chromosomes kept (rank-sorted by makespan).
    iterations:
        Number of steady-state steps; each step performs one crossover
        (two offspring) and one mutation (one offspring).
    stall_limit:
        Optional early stop after this many steps without improvement
        of the best makespan (``None`` disables).
    rng:
        Seeded generator; all stochastic decisions flow through it.
    """

    name = "genitor"
    supports_seeding = True

    def __init__(
        self,
        population_size: int = 50,
        iterations: int = 1000,
        stall_limit: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if population_size < 2:
            raise ConfigurationError(
                f"population_size must be >= 2, got {population_size}"
            )
        if iterations < 0:
            raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
        if stall_limit is not None and stall_limit < 1:
            raise ConfigurationError(f"stall_limit must be >= 1, got {stall_limit}")
        self.population_size = int(population_size)
        self.iterations = int(iterations)
        self.stall_limit = stall_limit
        self._rng = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )

    # ------------------------------------------------------------------
    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        best = self.evolve(mapping, seed)
        mapping.assign_many(range(len(best)), best.tolist())

    def evolve(
        self,
        mapping: Mapping,
        seed: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run the GA and return the best chromosome (machine per task row).

        ``seed``, a machine column per task row, joins the initial
        population as its first chromosome.
        """
        etc = mapping.etc
        ready = mapping.initial_ready_times()
        num_tasks, num_machines = etc.shape
        rng = self._rng

        # Step 1: initial random population (plus the seed chromosome).
        population = rng.integers(
            0, num_machines, size=(self.population_size, num_tasks), dtype=np.int64
        )
        if seed is not None:
            population[0] = seed
        fitness = np.array(
            [self._makespan(etc, chrom, ready) for chrom in population]
        )
        # Step 2: order the population by makespan (rank sort, best first).
        order = np.argsort(fitness, kind="stable")
        population = population[order]
        fitness = fitness[order]

        stall = 0
        for _ in range(self.iterations):
            best_before = fitness[0]
            # Step 3a: crossover of two random parents at a random cut.
            pa, pb = rng.integers(0, self.population_size, size=2)
            cut = int(rng.integers(1, num_tasks)) if num_tasks > 1 else 0
            child1 = population[pa].copy()
            child2 = population[pb].copy()
            if cut > 0:
                child1[:cut], child2[:cut] = (
                    population[pb][:cut].copy(),
                    population[pa][:cut].copy(),
                )
            population, fitness = self._insert(
                etc, ready, population, fitness, (child1, child2)
            )
            # Step 3b: mutation of one random chromosome at one random task.
            pm = rng.integers(0, self.population_size)
            mutant = population[pm].copy()
            gene = int(rng.integers(0, num_tasks))
            mutant[gene] = rng.integers(0, num_machines)
            population, fitness = self._insert(etc, ready, population, fitness, (mutant,))

            if self.stall_limit is not None:
                stall = 0 if fitness[0] < best_before else stall + 1
                if stall >= self.stall_limit:
                    break
        # Step 4: the best solution is output.
        return population[0]

    # ------------------------------------------------------------------
    def _insert(
        self,
        etc,
        ready: np.ndarray,
        population: np.ndarray,
        fitness: np.ndarray,
        offspring: tuple[np.ndarray, ...],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rank-insert offspring; drop the worst to keep the size fixed."""
        child_fit = np.array([self._makespan(etc, c, ready) for c in offspring])
        merged = np.vstack([population, np.stack(offspring)])
        merged_fit = np.concatenate([fitness, child_fit])
        order = np.argsort(merged_fit, kind="stable")[: self.population_size]
        return merged[order], merged_fit[order]

    @staticmethod
    def _makespan(etc, chromosome: np.ndarray, ready: np.ndarray) -> float:
        return float(finish_times_for_vector(etc, chromosome, ready).max())

    def __repr__(self) -> str:
        return (
            f"Genitor(population_size={self.population_size}, "
            f"iterations={self.iterations}, stall_limit={self.stall_limit})"
        )
