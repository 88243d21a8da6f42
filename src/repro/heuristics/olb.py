"""Opportunistic Load Balancing (OLB) baseline (Braun et al.).

OLB assigns each task, in task-list order, to the machine that becomes
*ready* soonest — regardless of the task's ETC on that machine.  It is
the classic load-balancing-without-heterogeneity-awareness baseline the
HC literature compares against; not analysed in the paper but included
for the cross-heuristic study (DESIGN.md E24).
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import TieBreaker
from repro.heuristics.base import Heuristic, register_heuristic

__all__ = ["OLB"]


@register_heuristic
class OLB(Heuristic):
    """Opportunistic Load Balancing: each task to the earliest-ready machine."""

    name = "olb"

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        etc = mapping.etc
        for task in etc.tasks:
            ready = mapping.ready_times()
            machine_idx = tie_breaker.argmin(ready)
            mapping.assign(task, etc.machines[machine_idx])
