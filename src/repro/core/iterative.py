"""The paper's contribution: the iterative non-makespan minimisation technique.

From Section 2:

    "For each heuristic, the mapping it produces when all tasks and
    machines are available is called the *original mapping*.  After each
    iteration, the makespan machine and the tasks assigned to it are
    removed from consideration, and the ready times for all other
    machines are reset to their initial ready times.  The tasks that are
    available for mapping are mapped again, using the same heuristic to
    minimise makespan among the remaining machines; this mapping is
    called the *iterative mapping*.  This iterative process is repeated
    until only one machine remains."

Each machine's *final finishing time* under the technique is the
completion time it had in the iteration in which it was frozen (i.e.
was the makespan machine), or — for machines never frozen because the
task pool emptied — its initial ready time once no tasks remain.

The paper proves that with deterministic ties Min-Min, MCT and MET give
the same mapping at every iteration (Sections 3.2–3.4).  Under the
code's tolerance ties that holds only when no decision had a second
candidate near its minimum, which those kernels certify on the mapping
(:attr:`Mapping.certified`); :class:`IterativeScheduler` then derives
iterations 1..k from the original mapping by restriction instead of
re-running the heuristic (see :meth:`IterativeScheduler._derivable`).
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from collections.abc import Sequence
from dataclasses import dataclass, field


from repro.core.schedule import Mapping, ready_time_vector
from repro.core.ties import DeterministicTieBreaker, TieBreaker
from repro.etc.matrix import ETCMatrix
from repro.exceptions import ConfigurationError
from repro.heuristics.base import Heuristic
from repro.obs.tracer import get_tracer

__all__ = ["IterationRecord", "IterativeResult", "IterativeScheduler"]


@dataclass(frozen=True)
class IterationRecord:
    """One iteration of the technique.

    ``index`` 0 is the original mapping.  ``frozen_machine`` is the
    makespan machine of this iteration's mapping (removed before the
    next iteration, together with ``frozen_tasks``).
    """

    index: int
    etc: ETCMatrix
    mapping: Mapping
    makespan: float
    frozen_machine: str
    frozen_tasks: tuple[str, ...]
    #: Snapshot of the heuristic's decision trace for this iteration
    #: (``last_trace`` of SWA/KPB/Sufferage; ``None`` for others).
    trace: object | None = None

    @property
    def machines(self) -> tuple[str, ...]:
        """Machines considered in this iteration."""
        return self.etc.machines

    def finish_times(self) -> dict[str, float]:
        """Finishing times of the machines considered in this iteration."""
        return self.mapping.machine_finish_times()


@dataclass(frozen=True)
class IterativeResult:
    """Full trace of an iterative run.

    ``final_finish_times`` maps every machine of the input ETC matrix to
    its finishing time under the technique (see module docstring).

    ``removal_order`` lists machines in the order they were frozen —
    exactly one per iteration record, so
    ``removal_order[i] == iterations[i].frozen_machine`` and
    ``len(removal_order) == num_iterations`` always hold.

    ``unfrozen`` lists the machines that were *never* frozen, in input
    machine order: survivors of a run that stopped because the task pool
    emptied or because ``max_iterations`` capped it.  Together the two
    partition the machine set —
    ``set(removal_order) | set(unfrozen) == set(etc.machines)`` and the
    two are disjoint.  (Runs that freeze every machine have an empty
    ``unfrozen``.)
    """

    etc: ETCMatrix
    heuristic_name: str
    iterations: tuple[IterationRecord, ...]
    final_finish_times: dict[str, float]
    removal_order: tuple[str, ...]
    initial_ready_times: dict[str, float] = field(default_factory=dict)
    unfrozen: tuple[str, ...] = ()

    @property
    def original(self) -> IterationRecord:
        """Iteration 0 — the original mapping."""
        return self.iterations[0]

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    def finish_time(self, machine: str) -> float:
        return self.final_finish_times[machine]

    def makespans(self) -> tuple[float, ...]:
        """Makespan of each iteration's mapping, in iteration order."""
        return tuple(rec.makespan for rec in self.iterations)

    def makespan_increased(self, tol: float = 1e-9) -> bool:
        """True when some iteration's makespan exceeds its predecessor's.

        This is the phenomenon of the paper's examples: the first
        iterative mapping's makespan (over the remaining machines)
        exceeding the original mapping's makespan.
        """
        spans = self.makespans()
        return any(b > a + tol for a, b in zip(spans, spans[1:]))

    def original_finish_times(self) -> dict[str, float]:
        """Per-machine finishing times of the original mapping alone."""
        return self.original.finish_times()

    def improvements(self) -> dict[str, float]:
        """Per-machine improvement: original finish − iterative finish.

        Positive values mean the iterative technique made the machine
        available earlier (the paper's goal); negative values mean it
        got worse.
        """
        original = self.original_finish_times()
        return {
            m: original[m] - self.final_finish_times[m] for m in self.etc.machines
        }

    def final_mapping(self) -> Mapping:
        """The technique's outcome as one executable :class:`Mapping`.

        Each frozen machine runs exactly the tasks it was frozen with,
        in the order its freezing iteration committed them (from its
        initial ready time — iterations reset ready times, so the
        composite's per-machine finishing times are bit-identical to
        ``final_finish_times``); tasks still held by never-frozen
        survivors of a ``max_iterations``-capped run keep their
        last-iteration assignment and order.  Exhausted-pool survivors
        run nothing.  Commit order: each record's frozen tasks in
        iteration order, then the last iteration's survivors.
        """
        etc = self.etc
        ready = [self.initial_ready_times.get(m, 0.0) for m in etc.machines]
        task_index, machine_index = etc.task_index, etc.machine_index
        tasks: list[int] = []
        machines: list[int] = []
        for rec in self.iterations:
            tasks += map(task_index, rec.frozen_tasks)
            machines += [machine_index(rec.frozen_machine)] * len(rec.frozen_tasks)
        last = self.iterations[-1]
        for task, machine in last.mapping.to_dict().items():
            if machine != last.frozen_machine:
                tasks.append(task_index(task))
                machines.append(machine_index(machine))
        mapping = Mapping(etc, ready)
        mapping.assign_many(tasks, machines)
        return mapping

    def mapping_changed(self) -> bool:
        """Whether any iteration re-mapped a task differently.

        Compares each iteration's assignments against the original
        mapping restricted to that iteration's task set — false for
        every deterministic run of Min-Min/MCT/MET per the paper's
        theorems.
        """
        original = self.original.mapping.to_dict()
        for rec in self.iterations[1:]:
            for task, machine in rec.mapping.to_dict().items():
                if original[task] != machine:
                    return True
        return False


class IterativeScheduler:
    """Runs a heuristic under the iterative technique.

    Parameters
    ----------
    heuristic:
        Any :class:`~repro.heuristics.base.Heuristic`.
    tie_breaker:
        Tie policy forwarded to the heuristic at every iteration.
    makespan_tie_breaker:
        Policy for choosing the makespan machine itself when finishing
        times tie (default deterministic lowest index, so runs are
        reproducible; the paper never exercises this tie).
    freeze_policy:
        Which machine to freeze each iteration — a callable
        ``(mapping, tie_breaker) -> machine`` (see
        :mod:`repro.core.freezing`).  Default: the paper's makespan
        machine rule.
    seed_across_iterations:
        When true (default) and the heuristic supports seeding
        (Genitor), each iteration's population is seeded with the
        previous mapping restricted to the surviving tasks/machines —
        the mechanism behind the paper's "improvement or no change"
        guarantee for Genitor (Section 3.1).
    """

    def __init__(
        self,
        heuristic: Heuristic,
        tie_breaker: TieBreaker | None = None,
        makespan_tie_breaker: TieBreaker | None = None,
        seed_across_iterations: bool = True,
        freeze_policy=None,
    ) -> None:
        self.heuristic = heuristic
        self.tie_breaker = tie_breaker or DeterministicTieBreaker()
        self.makespan_tie_breaker = makespan_tie_breaker or DeterministicTieBreaker()
        self.seed_across_iterations = bool(seed_across_iterations)
        self.freeze_policy = freeze_policy

    def run(
        self,
        etc: ETCMatrix,
        ready_times: MappingABC[str, float] | Sequence[float] | None = None,
        max_iterations: int | None = None,
    ) -> IterativeResult:
        """Execute the technique until one machine remains (or no tasks).

        ``max_iterations`` optionally caps the number of iterations
        (including the original mapping); ``None`` runs to completion.
        """
        if max_iterations is not None and max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        initial_ready = ready_time_vector(etc, ready_times)
        ready_by_machine = dict(zip(etc.machines, initial_ready.tolist()))

        tracer = get_tracer()
        with tracer.span(
            "iterative.run",
            heuristic=self.heuristic.name,
            tasks=etc.num_tasks,
            machines=etc.num_machines,
        ):
            final_finish, removal_order, unfrozen, records = self._iterate(
                tracer, etc, ready_by_machine, max_iterations
            )

        return IterativeResult(
            etc=etc,
            heuristic_name=self.heuristic.name,
            iterations=tuple(records),
            final_finish_times=final_finish,
            removal_order=tuple(removal_order),
            initial_ready_times=dict(ready_by_machine),
            unfrozen=tuple(unfrozen),
        )

    def _iterate(
        self,
        tracer,
        current_etc: ETCMatrix,
        ready_by_machine: dict[str, float],
        max_iterations: int | None,
    ) -> tuple[dict[str, float], list[str], list[str], list[IterationRecord]]:
        """The freeze/remap loop of :meth:`run` (one call per run).

        Returns ``(final_finish, removal_order, unfrozen, records)``.
        ``removal_order`` holds exactly the frozen machines (one per
        record); never-frozen survivors land in ``unfrozen`` instead —
        see :class:`IterativeResult` for the contract.  When
        :meth:`_derivable` accepts the original mapping, each later
        iteration's mapping is the previous one restricted
        (:meth:`Mapping.restrict`), with no heuristic call.
        """
        records: list[IterationRecord] = []
        final_finish: dict[str, float] = {}
        removal_order: list[str] = []
        unfrozen: list[str] = []
        previous_mapping: Mapping | None = None
        derive = False

        while True:
            if derive:
                mapping = previous_mapping.restrict(
                    current_etc, records[-1].frozen_machine
                )
                trace = None
            else:
                ready_vec = [ready_by_machine[m] for m in current_etc.machines]
                # Span-only phase: one timeline row per freeze/remap
                # pass, without adding events (the freeze event below is
                # the byte-identity-tested record of this iteration).
                with tracer.phase(
                    "iterative.map",
                    iteration=len(records),
                    machines=current_etc.num_machines,
                ):
                    mapping = self._map_iteration(
                        current_etc, ready_vec, previous_mapping
                    )
                trace = getattr(self.heuristic, "last_trace", None)
                derive = not records and self._derivable(mapping)
            if self.freeze_policy is None:
                frozen_machine = mapping.makespan_machine(self.makespan_tie_breaker)
            else:
                frozen_machine = self.freeze_policy(
                    mapping, self.makespan_tie_breaker
                )
                current_etc.machine_index(frozen_machine)  # validate
            frozen_tasks = mapping.machine_tasks(frozen_machine)
            records.append(
                IterationRecord(
                    index=len(records),
                    etc=current_etc,
                    mapping=mapping,
                    makespan=mapping.makespan(),
                    frozen_machine=frozen_machine,
                    frozen_tasks=frozen_tasks,
                    trace=trace,
                )
            )
            final_finish[frozen_machine] = mapping.ready_time(frozen_machine)
            removal_order.append(frozen_machine)
            if tracer.enabled:
                tracer.event(
                    "iterative.freeze",
                    iteration=len(records) - 1,
                    frozen_machine=frozen_machine,
                    frozen_tasks=frozen_tasks,
                    makespan=records[-1].makespan,
                    machines_remaining=current_etc.num_machines - 1,
                )
                tracer.count("iterations")
                tracer.observe("iterative.freeze_depth", len(records) - 1)
                tracer.observe("iterative.frozen_tasks", len(frozen_tasks))

            survivors = tuple(
                m for m in current_etc.machines if m != frozen_machine
            )
            last_allowed = (
                max_iterations is not None and len(records) >= max_iterations
            )
            if current_etc.num_machines == 1 or last_allowed:
                # Never-frozen survivors keep this iteration's finishing
                # times; they were not frozen, so they do not join the
                # removal order.
                for m in survivors:
                    final_finish[m] = mapping.ready_time(m)
                unfrozen.extend(survivors)
                break

            # Build the membership set once per iteration, not once per
            # element — frozen_tasks grows every round, so the inline
            # ``set(...)`` made this comprehension O(T^2) per iteration.
            frozen = set(frozen_tasks)
            surviving_tasks = [t for t in current_etc.tasks if t not in frozen]
            if not surviving_tasks:
                # Task pool exhausted: survivors never run anything and
                # finish at their initial ready times.
                for m in survivors:
                    final_finish[m] = ready_by_machine[m]
                unfrozen.extend(survivors)
                if tracer.enabled and survivors:
                    tracer.event(
                        "iterative.exhausted",
                        iteration=len(records) - 1,
                        survivors=survivors,
                    )
                break

            previous_mapping = mapping
            # One trusted restriction per freeze step: drops the frozen
            # machine and its tasks in a single pass over the validated
            # parent buffer (no re-validation, no intermediate matrix).
            current_etc = current_etc.without_machine(frozen_machine, frozen_tasks)

        return final_finish, removal_order, unfrozen, records

    # ------------------------------------------------------------------
    def _derivable(self, mapping: Mapping) -> bool:
        """Whether later iterations may restrict the original ``mapping``.

        True only when the kernel certified it (:attr:`Mapping.certified`:
        no decision had a second candidate near its minimum, so the
        paper's invariance theorems hold under the tolerance ties), both
        tie breakers are exactly :class:`DeterministicTieBreaker`, the
        paper's makespan-machine freeze rule is in force, no tracer is
        listening (a traced run must emit every decision), and
        :meth:`_map_iteration` is not overridden (seeded variants remap
        on purpose).
        """
        return (
            mapping.certified
            and type(self.tie_breaker) is DeterministicTieBreaker
            and type(self.makespan_tie_breaker) is DeterministicTieBreaker
            and self.freeze_policy is None
            and not get_tracer().enabled
            and type(self)._map_iteration is IterativeScheduler._map_iteration
        )

    def _map_iteration(
        self,
        current_etc: ETCMatrix,
        ready_vec: Sequence[float],
        previous_mapping: Mapping | None,
    ) -> Mapping:
        """Produce one iteration's mapping (hook for seeded variants)."""
        seed = self._seed_for(previous_mapping, current_etc)
        return self.heuristic.map_tasks(
            current_etc,
            ready_vec,
            self.tie_breaker,
            seed_mapping=seed,
        )

    def _seed_for(
        self, previous: Mapping | None, current_etc: ETCMatrix
    ) -> dict[str, str] | None:
        """Previous mapping restricted to surviving tasks, if applicable."""
        if (
            previous is None
            or not self.seed_across_iterations
            or not self.heuristic.supports_seeding
        ):
            return None
        return {
            a.task: a.machine
            for a in previous.assignments
            if current_etc.has_task(a.task) and current_etc.has_machine(a.machine)
        }
