"""Minimum Completion Time (MCT) heuristic — paper Figure 5.

Procedure (verbatim structure):

1. A task list is generated that includes all unmapped tasks in a given
   arbitrary order (we use ETC row order; "arbitrary but fixed between
   iterations" as the Section 3.3 proof requires).
2. The first task in the list is mapped to its minimum *completion*
   time machine (machine ready time plus estimated computation time of
   the task on that machine — Eq. 1).
3. The task is removed from the list.
4. The ready time of the machine on which the task is mapped is updated.
5. Steps 2–4 are repeated until all the tasks have been mapped.

The paper proves MCT's mapping never changes across iterations of the
iterative technique under deterministic ties (Theorem, Section 3.3) and
shows by example that random tie-breaking can increase makespan.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import (
    DeterministicTieBreaker,
    TieBreaker,
    first_tied_min_index,
    separated_min_index,
    tied_argmin,
    tied_min_indices,
)
from repro.heuristics.base import Heuristic, emit_commit_decisions, register_heuristic

__all__ = ["MCT", "ReferenceMCT"]


@register_heuristic
class MCT(Heuristic):
    """Minimum Completion Time: each task to the machine finishing it first."""

    name = "mct"

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        """Index-space kernel: no label lookups, live ready vector."""
        values = mapping.etc.values
        ready = mapping.ready_times_view()
        fast_ties = type(tie_breaker) is DeterministicTieBreaker
        # Certified while every row is separated (the rule in
        # repro.core.ties; see Mapping.certified).
        certified = fast_ties
        for ti in range(len(values)):
            completion = values[ti] + ready
            if fast_ties:
                machine_idx = separated_min_index(completion)
                if machine_idx < 0:
                    certified = False
                    machine_idx = first_tied_min_index(completion)
            else:
                machine_idx = tie_breaker.choose(tied_min_indices(completion))
            mapping.assign_index(ti, machine_idx)
        mapping.certified = certified

    def _emit(self, tracer, mapping: Mapping) -> None:
        emit_commit_decisions(tracer, mapping, "mct.decision")


class ReferenceMCT(MCT):
    """Label-space paper transcription of MCT: the test oracle."""

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        etc = mapping.etc
        for task in etc.tasks:
            completion = mapping.completion_times_if(task)
            machine_idx = tie_breaker.choose(tied_argmin(completion))
            mapping.assign(task, etc.machines[machine_idx])
