"""Uniformly random mapping baseline.

Assigns each task to a machine drawn uniformly at random from a seeded
generator.  Serves as the statistical floor for the cross-heuristic
study and as the chromosome initialiser for Genitor's population.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import TieBreaker
from repro.heuristics.base import Heuristic, register_heuristic

__all__ = ["RandomMapper"]


@register_heuristic
class RandomMapper(Heuristic):
    """Each task to a uniformly random machine (seeded)."""

    name = "random"

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
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
        choices = self._rng.integers(0, etc.num_machines, size=etc.num_tasks)
        for task, machine_idx in zip(etc.tasks, choices):
            mapping.assign(task, etc.machines[int(machine_idx)])
