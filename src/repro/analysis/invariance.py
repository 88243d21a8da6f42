"""Empirical checkers for the paper's invariance theorems.

The paper proves (Sections 3.2–3.4) that with deterministic
tie-breaking the mappings produced by **Min-Min**, **MCT** and **MET**
are identical across all iterations of the iterative technique — so the
technique cannot improve (or worsen) any machine's finishing time for
those heuristics.  The functions here validate that claim over large
random ETC ensembles and, dually, quantify how often the *other*
heuristics change their mappings (and increase makespan) even under
deterministic ties.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.iterative import IterativeResult, IterativeScheduler
from repro.core.ties import DeterministicTieBreaker, TieBreaker
from repro.etc.generation import Consistency, Heterogeneity, generate_ensemble
from repro.etc.matrix import ETCMatrix
from repro.heuristics.base import Heuristic, get_heuristic

__all__ = [
    "INVARIANT_HEURISTICS",
    "is_iteration_invariant",
    "makespans_monotone",
    "InvarianceViolation",
    "InvarianceReport",
    "verify_invariance",
]

#: Heuristics the paper proves iteration-invariant under deterministic ties.
INVARIANT_HEURISTICS: tuple[str, ...] = ("min-min", "mct", "met")


class _FullLoopScheduler(IterativeScheduler):
    """An :class:`IterativeScheduler` that re-runs the heuristic at every
    iteration, even on certified mappings: checking the theorems by
    restricting the original mapping would assume what is checked."""

    def _derivable(self, mapping) -> bool:
        return False


def is_iteration_invariant(result: IterativeResult) -> bool:
    """True when no iteration re-mapped any task (theorem conclusion)."""
    return not result.mapping_changed()


def makespans_monotone(result: IterativeResult, tol: float = 1e-9) -> bool:
    """True when per-iteration makespans never increase.

    For iteration-invariant heuristics this holds trivially (each
    iteration's makespan is the next order statistic of the original
    finishing times); for seeded schedulers it holds by construction.
    """
    return not result.makespan_increased(tol)


@dataclass(frozen=True)
class InvarianceViolation:
    """A concrete instance where invariance failed (a counterexample)."""

    etc: ETCMatrix
    result: IterativeResult

    def describe(self) -> str:
        spans = ", ".join(f"{s:.6g}" for s in self.result.makespans())
        return (
            f"{self.result.heuristic_name} changed its mapping on a "
            f"{self.etc.num_tasks}x{self.etc.num_machines} instance "
            f"(makespans per iteration: {spans})"
        )


@dataclass
class InvarianceReport:
    """Outcome of an ensemble invariance check."""

    heuristic: str
    instances_checked: int = 0
    mapping_changes: int = 0
    makespan_increases: int = 0
    violations: list[InvarianceViolation] = field(default_factory=list)

    @property
    def invariant(self) -> bool:
        """True when no instance changed its mapping."""
        return self.mapping_changes == 0

    @property
    def change_rate(self) -> float:
        if self.instances_checked == 0:
            return 0.0
        return self.mapping_changes / self.instances_checked

    @property
    def increase_rate(self) -> float:
        if self.instances_checked == 0:
            return 0.0
        return self.makespan_increases / self.instances_checked

    def __str__(self) -> str:
        return (
            f"{self.heuristic}: {self.instances_checked} instances, "
            f"{self.mapping_changes} mapping changes "
            f"({100 * self.change_rate:.1f}%), "
            f"{self.makespan_increases} makespan increases "
            f"({100 * self.increase_rate:.1f}%)"
        )


def verify_invariance(
    heuristic: Heuristic | str,
    instances: Iterable[ETCMatrix] | None = None,
    *,
    num_instances: int = 100,
    num_tasks: int = 30,
    num_machines: int = 8,
    heterogeneity: Heterogeneity = Heterogeneity.HIHI,
    consistency: Consistency = Consistency.INCONSISTENT,
    tie_breaker: TieBreaker | None = None,
    rng: np.random.Generator | int | None = None,
    keep_violations: int = 5,
) -> InvarianceReport:
    """Run the iterative technique over an ensemble and tally changes.

    ``instances`` overrides the generated ensemble when provided.  The
    default tie breaker is deterministic — the hypothesis of the
    theorems.  Up to ``keep_violations`` concrete counterexamples are
    retained in the report for inspection.  Every iteration re-runs
    the heuristic: the run never derives iterations from a certified
    original mapping.
    """
    h = get_heuristic(heuristic) if isinstance(heuristic, str) else heuristic
    breaker = tie_breaker or DeterministicTieBreaker()
    if instances is None:
        instances = generate_ensemble(
            num_instances,
            num_tasks,
            num_machines,
            heterogeneity=heterogeneity,
            consistency=consistency,
            rng=rng,
        )
    report = InvarianceReport(heuristic=h.name)
    scheduler = _FullLoopScheduler(h, tie_breaker=breaker)
    for etc in instances:
        result = scheduler.run(etc)
        report.instances_checked += 1
        changed = result.mapping_changed()
        if changed:
            report.mapping_changes += 1
            if len(report.violations) < keep_violations:
                report.violations.append(InvarianceViolation(etc=etc, result=result))
        if result.makespan_increased():
            report.makespan_increases += 1
    return report
