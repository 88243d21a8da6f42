"""Seeded iterative scheduling — the paper's proposed extension.

From the conclusions (Section 5):

    "Implementing a form of seeding similar to Genitor's seeding to
    other heuristics would guarantee that a heuristic can never increase
    makespan from one iteration to the next.  This would cause the best
    solutions to be preserved across iterations, thus changing the
    mapping only if a better mapping is found."

:class:`SeededIterativeScheduler` grafts exactly that onto *any*
heuristic: at every iteration it runs the heuristic fresh, then compares
the fresh mapping's makespan against the previous iteration's mapping
restricted to the surviving tasks/machines; the restriction is kept
unless the fresh mapping is strictly better.  Makespans across
iterations are therefore monotone non-increasing by construction (the
restriction of a mapping after removing its makespan machine can only
have a smaller-or-equal makespan).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.iterative import IterativeScheduler
from repro.core.schedule import Mapping
from repro.etc.matrix import ETCMatrix

__all__ = ["SeededIterativeScheduler", "replay_mapping"]


def replay_mapping(
    etc: ETCMatrix,
    ready_times: Sequence[float] | None,
    assignments: dict[str, str],
) -> Mapping:
    """Build a :class:`Mapping` over ``etc`` from a ``{task: machine}`` dict.

    Tasks are committed in ETC row order (per-machine finishing times do
    not depend on intra-machine order, so the restriction keeps the same
    finishing-time vector as the mapping it was derived from).  A utility
    for callers holding labels: the schedulers carry their incumbent as
    machine columns.
    """
    mapping = Mapping(etc, ready_times)
    mapping.assign_many(
        range(etc.num_tasks),
        [etc.machine_index(assignments[task]) for task in etc.tasks],
    )
    return mapping


class SeededIterativeScheduler(IterativeScheduler):
    """Iterative scheduler that never lets an iteration's makespan grow.

    Works with every heuristic (not just Genitor): the previous
    iteration's restricted mapping acts as the incumbent, and the
    heuristic's fresh proposal replaces it only on strict improvement.
    Ties keep the incumbent, so deterministic heuristics whose mappings
    are iteration-invariant (Min-Min/MCT/MET) behave identically with
    and without seeding.
    """

    def _map_iteration(
        self,
        current_etc: ETCMatrix,
        ready_vec: Sequence[float],
        incumbent: np.ndarray | None,
    ) -> Mapping:
        fresh = super()._map_iteration(current_etc, ready_vec, incumbent)
        if incumbent is None:
            return fresh
        # Replay the incumbent in ETC row order, as replay_mapping would.
        kept = Mapping(current_etc, ready_vec)
        kept.assign_many(range(current_etc.num_tasks), incumbent.tolist())
        return fresh if fresh.makespan() < kept.makespan() else kept
