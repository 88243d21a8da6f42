"""Genetic Simulated Annealing (GSA) mapper (Braun et al. suite).

GSA combines the GA's population operators with SA's probabilistic
acceptance: the search runs like Genitor (crossover + mutation on a
rank-sorted population), but an offspring competes against the *worst*
member of the population under a simulated-annealing test — a worse
offspring still replaces it with probability ``exp(-Δ/T)``, with the
system temperature cooling geometrically.  This lets the population
accept diversity early and converge late.

Supports seeding (like Genitor and SA), so it inherits the iterative
technique's "improvement or no change" guarantee when seeded — with the
caveat that GSA's *population* can degrade mid-run; the best-ever
chromosome is tracked separately and returned, which restores the
guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import Mapping, finish_times_for_vector
from repro.core.ties import TieBreaker
from repro.exceptions import ConfigurationError
from repro.heuristics.base import Heuristic, register_heuristic

__all__ = ["GeneticSimulatedAnnealing"]


@register_heuristic
class GeneticSimulatedAnnealing(Heuristic):
    """GA operators with SA acceptance against the worst member."""

    name = "gsa"
    supports_seeding = True

    def __init__(
        self,
        population_size: int = 30,
        iterations: int = 500,
        cooling: float = 0.99,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if population_size < 2:
            raise ConfigurationError(
                f"population_size must be >= 2, got {population_size}"
            )
        if iterations < 0:
            raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
        if not 0.0 < cooling < 1.0:
            raise ConfigurationError(f"cooling must be in (0, 1), got {cooling}")
        self.population_size = int(population_size)
        self.iterations = int(iterations)
        self.cooling = float(cooling)
        self._rng = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        etc = mapping.etc
        ready = mapping.initial_ready_times()
        rng = self._rng
        num_tasks, num_machines = etc.shape

        population = rng.integers(
            0, num_machines, size=(self.population_size, num_tasks), dtype=np.int64
        )
        if seed is not None:
            population[0] = seed
        fitness = np.array(
            [self._makespan(etc, chrom, ready) for chrom in population]
        )
        order = np.argsort(fitness, kind="stable")
        population, fitness = population[order], fitness[order]

        best_state = population[0].copy()
        best_energy = float(fitness[0])
        temperature = max(best_energy, 1e-9)

        for _ in range(self.iterations):
            # GA step: crossover of two random parents, then mutation.
            pa, pb = rng.integers(0, self.population_size, size=2)
            cut = int(rng.integers(1, num_tasks)) if num_tasks > 1 else 0
            child = population[pa].copy()
            if cut > 0:
                child[:cut] = population[pb][:cut]
            gene = int(rng.integers(0, num_tasks))
            child[gene] = rng.integers(0, num_machines)
            child_fit = self._makespan(etc, child, ready)
            # SA acceptance against the current worst member.
            worst = float(fitness[-1])
            accept = child_fit <= worst or rng.random() < np.exp(
                -(child_fit - worst) / max(temperature, 1e-12)
            )
            if accept:
                insert = int(np.searchsorted(fitness[:-1], child_fit))
                population = np.vstack(
                    [population[:insert], child[None, :], population[insert:-1]]
                )
                fitness = np.concatenate(
                    [fitness[:insert], [child_fit], fitness[insert:-1]]
                )
                if child_fit < best_energy:
                    best_state, best_energy = child.copy(), float(child_fit)
            temperature *= self.cooling

        mapping.assign_many(range(num_tasks), best_state.tolist())

    @staticmethod
    def _makespan(etc, chromosome: np.ndarray, ready: np.ndarray) -> float:
        return float(finish_times_for_vector(etc, chromosome, ready).max())

    def __repr__(self) -> str:
        return (
            f"GeneticSimulatedAnnealing(population_size={self.population_size}, "
            f"iterations={self.iterations}, cooling={self.cooling})"
        )
