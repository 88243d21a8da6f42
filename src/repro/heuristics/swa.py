"""Switching Algorithm (SWA) (Maheswaran et al.) — paper Figure 13.

Procedure (verbatim structure):

1. A task list is generated that includes all unmapped tasks in a given
   arbitrary order.
2. The first task in the list is mapped using the MCT heuristic.
3. The load balance index (BI) is calculated for the system
   (minimum ready time / maximum ready time).
4. The heuristic used to map the next task is determined as follows:

   i.   if BI > high threshold, the MET heuristic is selected for
        future tasks;
   ii.  if BI < low threshold, the MCT heuristic is selected for future
        tasks;
   iii. otherwise, the currently selected heuristic remains selected.

5. Steps 3–4 are repeated until all tasks have been mapped.

SWA cycles between MET (fast machines, unbalances load) while the
system is balanced and MCT (rebalances) when it drifts apart — a hybrid
designed for dynamic environments.

Threshold defaults: the paper's example states the high threshold is
0.49; the low-threshold digits are lost in the source text but its BI
trace (see DESIGN.md) pins it to the interval (4/13, 0.49) — we default
to 0.40 and make both configurable.  When the maximum ready time is 0
(all machines idle) the BI is undefined — shown as ``x`` in paper
Tables 10–11 — and the current heuristic is kept.

The per-task (BI, heuristic, machine) trace is kept on
:attr:`SwitchingAlgorithm.last_trace` for paper Tables 10–11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import TieBreaker, tied_argmin
from repro.exceptions import ConfigurationError
from repro.heuristics.base import Heuristic, register_heuristic

__all__ = ["SwitchingAlgorithm", "SWAStep", "balance_index"]


def balance_index(ready_times) -> float:
    """Load balance index: min ready time / max ready time.

    Returns ``nan`` when the maximum ready time is zero (undefined —
    the ``x`` entries of paper Tables 10–11).
    """
    lo = min(ready_times)
    hi = max(ready_times)
    if hi <= 0.0:
        return math.nan
    return lo / hi


@dataclass(frozen=True)
class SWAStep:
    """One task's decision: the BI observed and the heuristic applied.

    ``bi`` is the balance index computed *before* mapping the task
    (``nan`` while undefined), matching the row layout of paper
    Tables 10 and 11.
    """

    task: str
    bi: float
    heuristic: str  # "mct" or "met"
    machine: str
    completion: float


@register_heuristic
class SwitchingAlgorithm(Heuristic):
    """SWA: hybrid of MCT and MET driven by the load balance index."""

    name = "switching-algorithm"

    def __init__(self, low: float = 0.40, high: float = 0.49) -> None:
        if not 0.0 <= low < high <= 1.0:
            raise ConfigurationError(
                f"thresholds must satisfy 0 <= low < high <= 1, got "
                f"low={low}, high={high}"
            )
        self.low = float(low)
        self.high = float(high)
        self.last_trace: tuple[SWAStep, ...] = ()

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        etc = mapping.etc
        current = "mct"  # step 2: the first task is mapped using MCT
        trace: list[SWAStep] = []
        for i, task in enumerate(etc.tasks):
            if i == 0:
                bi = math.nan
            else:
                bi = balance_index(mapping.ready_times())
                if not math.isnan(bi):
                    if bi > self.high:
                        current = "met"
                    elif bi < self.low:
                        current = "mct"
            if current == "mct":
                scores = mapping.completion_times_if(task)
            else:
                scores = etc.task_row(task)
            machine_idx = tie_breaker.choose(tied_argmin(scores))
            assignment = mapping.assign(task, etc.machines[machine_idx])
            trace.append(
                SWAStep(
                    task=task,
                    bi=bi,
                    heuristic=current,
                    machine=assignment.machine,
                    completion=assignment.completion,
                )
            )
        self.last_trace = tuple(trace)

    def _emit(self, tracer, mapping: Mapping) -> None:
        """One event per step of :attr:`last_trace`, after a ``switch``
        event when its heuristic differs from the last one (first: MCT)."""
        previous = "mct"
        for step in self.last_trace:
            if step.heuristic != previous:
                tracer.event(
                    "switching-algorithm.switch",
                    task=step.task,
                    bi=step.bi,
                    selected=step.heuristic,
                )
            tracer.event(
                "switching-algorithm.decision",
                task=step.task,
                bi=step.bi,
                heuristic=step.heuristic,
                machine=step.machine,
                completion=step.completion,
            )
            tracer.count("decisions")
            previous = step.heuristic

    def __repr__(self) -> str:
        return f"SwitchingAlgorithm(low={self.low}, high={self.high})"
