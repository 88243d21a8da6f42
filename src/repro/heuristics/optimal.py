"""Exact branch-and-bound makespan minimiser (the A*-role oracle).

Braun et al.'s eleventh heuristic is an A* tree search over partial
mappings.  This module provides the equivalent exact solver as a
depth-first branch-and-bound, intended as an **optimality oracle** for
small instances: the test suite uses it to certify that Genitor / SA /
Tabu reach the optimum on small instances, and the benches report
optimality gaps for the greedy heuristics.

Search design:

* tasks are branched in descending order of their minimum ETC (hardest
  first — tightens bounds early);
* machine children are visited in ascending completion-time order;
* incumbent initialised with Min-Min (a strong upper bound);
* lower bound for a partial state = max of

  - the largest committed machine finish,
  - per remaining task, its earliest possible completion,
  - the "perfect packing" bound: (committed load + sum of remaining
    minimum ETCs) averaged over all machines, relative to the smallest
    current finish;

* machine-symmetry pruning: among machines that are *empty and have
  identical columns and ready times*, only the first is branched.

``node_limit`` bounds the search; if it is hit the result is still a
valid mapping but :attr:`BranchAndBound.proven_optimal` is False.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import TieBreaker
from repro.exceptions import ConfigurationError
from repro.heuristics.base import Heuristic, register_heuristic
from repro.heuristics.minmin import MinMin

__all__ = ["BranchAndBound"]


@register_heuristic
class BranchAndBound(Heuristic):
    """Exact (or node-capped) minimum-makespan mapping."""

    name = "branch-and-bound"

    def __init__(self, node_limit: int = 2_000_000) -> None:
        if node_limit < 1:
            raise ConfigurationError(f"node_limit must be >= 1, got {node_limit}")
        self.node_limit = int(node_limit)
        #: True when the last run exhausted the search space.
        self.proven_optimal: bool = False
        #: Nodes expanded by the last run.
        self.nodes_expanded: int = 0

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        etc = mapping.etc
        values = etc.values
        num_tasks, num_machines = etc.shape
        ready0 = mapping.initial_ready_times()

        # Branch order: hardest tasks first.
        min_etc = values.min(axis=1)
        task_order = np.argsort(-min_etc, kind="stable")
        # suffix_min[i] = sum of min ETCs of tasks from position i on.
        suffix_min = np.zeros(num_tasks + 1)
        for pos in range(num_tasks - 1, -1, -1):
            suffix_min[pos] = suffix_min[pos + 1] + min_etc[task_order[pos]]

        # Incumbent: Min-Min.
        incumbent_map = MinMin().map_tasks(etc, ready0.tolist())
        best_vector = incumbent_map.assignment_vector()
        best_span = incumbent_map.makespan()

        assignment = np.full(num_tasks, -1, dtype=np.int64)
        finish = ready0.copy()
        self.nodes_expanded = 0
        self.proven_optimal = True

        def lower_bound(pos: int) -> float:
            committed = float(finish.max())
            remaining = suffix_min[pos]
            # perfect-packing average over machines
            average = (float(finish.sum()) + remaining) / num_machines
            return max(committed, average)

        def dfs(pos: int) -> None:
            nonlocal best_span, best_vector
            self.nodes_expanded += 1
            if self.nodes_expanded > self.node_limit:
                self.proven_optimal = False
                return
            if pos == num_tasks:
                span = float(finish.max())
                if span < best_span - 1e-12:
                    best_span = span
                    best_vector = assignment.copy()
                return
            if lower_bound(pos) >= best_span - 1e-12:
                return
            task = int(task_order[pos])
            completions = finish + values[task]
            children = np.argsort(completions, kind="stable")
            seen_empty_signature: set[bytes] = set()
            for machine in children:
                machine = int(machine)
                if completions[machine] >= best_span - 1e-12:
                    break  # sorted: every later child is at least as bad
                # symmetry pruning among identical empty machines
                if finish[machine] == ready0[machine] and not np.any(
                    assignment[assignment >= 0] == machine
                ):
                    signature = (
                        values[:, machine].tobytes()
                        + np.float64(ready0[machine]).tobytes()
                    )
                    if signature in seen_empty_signature:
                        continue
                    seen_empty_signature.add(signature)
                old = finish[machine]
                finish[machine] = completions[machine]
                assignment[task] = machine
                dfs(pos + 1)
                finish[machine] = old
                assignment[task] = -1
                if not self.proven_optimal:
                    return

        dfs(0)
        for task_idx, machine_idx in enumerate(best_vector):
            mapping.assign(etc.tasks[task_idx], etc.machines[int(machine_idx)])

    def __repr__(self) -> str:
        return f"BranchAndBound(node_limit={self.node_limit})"
