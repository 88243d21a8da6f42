"""Tabu-search mapper (Braun et al. heuristic suite).

A short-hop local search with a tabu memory, following the Braun et al.
structure:

* state = complete assignment vector (random or seeded start);
* a *short hop* evaluates single-task reassignments in a fixed scan
  order and commits the first strict improvement found;
* when no improving short hop exists, the current (locally optimal)
  solution's machine-assignment pattern is added to the tabu list and a
  *long hop* restarts the search from a new random state whose pattern
  is not tabu;
* the search stops after ``max_hops`` total successful hops (short +
  long); the best local optimum encountered is returned.

Like Genitor and SA, supports seeding, so the iterative technique with
seeding never worsens.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import Mapping, finish_times_for_vector
from repro.core.ties import TieBreaker
from repro.exceptions import ConfigurationError
from repro.heuristics.base import Heuristic, register_heuristic

__all__ = ["TabuSearch"]


@register_heuristic
class TabuSearch(Heuristic):
    """Makespan-minimising tabu search over assignment vectors."""

    name = "tabu-search"
    supports_seeding = True

    def __init__(
        self,
        max_hops: int = 1000,
        tabu_size: int = 16,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if max_hops < 0:
            raise ConfigurationError(f"max_hops must be >= 0, got {max_hops}")
        if tabu_size < 1:
            raise ConfigurationError(f"tabu_size must be >= 1, got {tabu_size}")
        self.max_hops = int(max_hops)
        self.tabu_size = int(tabu_size)
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

        if seed is not None:
            state = seed
        else:
            state = rng.integers(0, num_machines, size=num_tasks, dtype=np.int64)

        best_state = state.copy()
        best_energy = self._energy(etc, state, ready)
        tabu: list[bytes] = []
        hops = 0

        while hops < self.max_hops:
            improved, state = self._short_hop(etc, state, ready)
            hops += 1
            if improved:
                energy = self._energy(etc, state, ready)
                if energy < best_energy:
                    best_state, best_energy = state.copy(), energy
                continue
            # local optimum: remember its pattern, then long hop
            tabu.append(state.tobytes())
            if len(tabu) > self.tabu_size:
                tabu.pop(0)
            state = self._long_hop(rng, num_tasks, num_machines, tabu)
            energy = self._energy(etc, state, ready)
            if energy < best_energy:
                best_state, best_energy = state.copy(), energy

        mapping.assign_many(range(num_tasks), best_state.tolist())

    # ------------------------------------------------------------------
    @staticmethod
    def _energy(etc, state: np.ndarray, ready: np.ndarray) -> float:
        return float(finish_times_for_vector(etc, state, ready).max())

    def _short_hop(
        self, etc, state: np.ndarray, ready: np.ndarray
    ) -> tuple[bool, np.ndarray]:
        """Commit the first improving single-task reassignment, if any."""
        finish = finish_times_for_vector(etc, state, ready)
        energy = float(finish.max())
        for task in range(etc.num_tasks):
            old_machine = int(state[task])
            for new_machine in range(etc.num_machines):
                if new_machine == old_machine:
                    continue
                new_old = finish[old_machine] - etc.values[task, old_machine]
                new_new = finish[new_machine] + etc.values[task, new_machine]
                others = np.delete(finish, [old_machine, new_machine])
                new_energy = max(
                    new_old, new_new, float(others.max()) if others.size else 0.0
                )
                if new_energy < energy - 1e-12:
                    out = state.copy()
                    out[task] = new_machine
                    return True, out
        return False, state

    @staticmethod
    def _long_hop(
        rng: np.random.Generator,
        num_tasks: int,
        num_machines: int,
        tabu: list[bytes],
    ) -> np.ndarray:
        """A fresh random state whose pattern is not in the tabu list."""
        for _ in range(64):
            candidate = rng.integers(0, num_machines, size=num_tasks, dtype=np.int64)
            if candidate.tobytes() not in tabu:
                return candidate
        return rng.integers(0, num_machines, size=num_tasks, dtype=np.int64)

    def __repr__(self) -> str:
        return f"TabuSearch(max_hops={self.max_hops}, tabu_size={self.tabu_size})"
