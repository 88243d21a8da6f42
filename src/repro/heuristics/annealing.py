"""Simulated Annealing mapper (Braun et al. heuristic suite).

The paper's heuristic pool comes from the eleven-heuristic comparison
of Braun et al. (JPDC 2001); SA is one of the iterative search members
of that suite and a useful mid-point between the greedy mappers and
Genitor.  This implementation follows the Braun et al. setup:

* the state is a complete assignment vector, initialised uniformly at
  random (or from a seed mapping);
* a *move* reassigns one uniformly-chosen task to a uniformly-chosen
  machine;
* a worse neighbour is accepted with probability
  ``exp(-(new - old) / T)``; the temperature starts at the initial
  makespan and is multiplied by ``cooling`` after every step;
* the search stops after ``steps`` moves or when the temperature
  underflows; the best state ever visited is returned (elitism — Braun
  et al. track the final state, but returning the best-so-far is the
  standard strengthening and never worse).

Like Genitor, SA supports seeding natively, so it slots into the
paper's iterative technique with the "improvement or no change"
guarantee when seeded.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import Mapping, finish_times_for_vector
from repro.core.ties import TieBreaker
from repro.exceptions import ConfigurationError
from repro.heuristics.base import Heuristic, register_heuristic

__all__ = ["SimulatedAnnealing"]


@register_heuristic
class SimulatedAnnealing(Heuristic):
    """Makespan-minimising simulated annealing over assignment vectors."""

    name = "simulated-annealing"
    supports_seeding = True

    def __init__(
        self,
        steps: int = 2000,
        cooling: float = 0.99,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {steps}")
        if not 0.0 < cooling < 1.0:
            raise ConfigurationError(f"cooling must be in (0, 1), got {cooling}")
        self.steps = int(steps)
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

        if seed is not None:
            state = seed.copy()
        else:
            state = rng.integers(0, num_machines, size=num_tasks, dtype=np.int64)

        finish = finish_times_for_vector(etc, state, ready)
        energy = float(finish.max())
        best_state, best_energy = state.copy(), energy
        temperature = max(energy, 1e-9)

        for _ in range(self.steps):
            task = int(rng.integers(0, num_tasks))
            new_machine = int(rng.integers(0, num_machines))
            old_machine = int(state[task])
            if new_machine == old_machine:
                temperature *= self.cooling
                continue
            # incremental finish-time update: only two machines change
            delta_old = finish[old_machine] - etc.values[task, old_machine]
            delta_new = finish[new_machine] + etc.values[task, new_machine]
            new_finish = finish.copy()
            new_finish[old_machine] = delta_old
            new_finish[new_machine] = delta_new
            new_energy = float(new_finish.max())
            accept = new_energy <= energy or rng.random() < np.exp(
                -(new_energy - energy) / max(temperature, 1e-12)
            )
            if accept:
                state[task] = new_machine
                finish = new_finish
                energy = new_energy
                if energy < best_energy:
                    best_state, best_energy = state.copy(), energy
            temperature *= self.cooling
            if temperature < 1e-12:
                break

        mapping.assign_many(range(num_tasks), best_state.tolist())

    def __repr__(self) -> str:
        return f"SimulatedAnnealing(steps={self.steps}, cooling={self.cooling})"
