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
code's tolerance ties that holds when every decision's near ties form
one cluster within half a tolerance of its minimum (the rule in
:mod:`repro.core.ties`), which those kernels certify on the mapping
(:attr:`Mapping.certified`); :class:`IterativeScheduler` then derives
iterations 1..k from the original mapping instead of re-running the
heuristic (see :meth:`IterativeScheduler._derivable`).  A derived
iteration's mapping is the original one without the machines frozen
so far, so its finishing times are the original finish vector's
surviving entries: the driver reads each iteration's makespan machine
(same tie rule), makespan and frozen tasks from that vector and the
original per-machine task lists, and builds the iteration's matrix and
mapping only when a reader asks for them.

The driver works in index space: it keeps the input matrix's read-only
buffer and the active task-row and machine-column indices for the whole
run, and each re-mapped iteration's kernel input is one restriction of
that buffer.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.schedule import Mapping, ready_time_vector
from repro.core.ties import DeterministicTieBreaker, TieBreaker, tied_max_indices
from repro.etc.matrix import ETCMatrix
from repro.exceptions import ConfigurationError
from repro.heuristics.base import Heuristic
from repro.obs.tracer import get_tracer

__all__ = [
    "IterationRecord",
    "IterativeResult",
    "IterativeScheduler",
    "check_iteration_cap",
]


def check_iteration_cap(value: int | None, name: str = "max_iterations") -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is ``None`` or an
    ``int`` (not a ``bool``) of at least 1."""
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, int) or value < 1
    ):
        raise ConfigurationError(
            f"{name} must be an integer >= 1 or None, got {value!r}"
        )


@dataclass(frozen=True)
class IterationRecord:
    """One iteration of the technique.

    ``index`` 0 is the original mapping.  ``frozen_machine`` is the
    makespan machine of this iteration's mapping (removed before the
    next iteration, together with ``frozen_tasks``).

    A record made by :class:`IterativeScheduler` also knows its task
    rows and machine columns in the run's input matrix, and the frozen
    tasks' rows and the frozen machine's column there.  In a derived
    (certified) run, records 1..k store ``index``, ``makespan``,
    ``frozen_machine``, ``frozen_tasks`` and ``trace`` only: ``etc``
    and ``mapping`` are built from the input matrix, those indices and
    the original mapping's commit columns on first read, then kept, so
    every read returns the same objects.
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

    @classmethod
    def _in_run(
        cls,
        rows: np.ndarray,
        cols: list[int],
        frozen: tuple[list[int], int],
        original: Mapping | None = None,
        **fields,
    ) -> "IterationRecord":
        """A driver-made record over input ``rows`` x ``cols`` that froze
        input rows ``frozen[0]`` (in execution order) with input column
        ``frozen[1]``.

        Without ``etc`` and ``mapping`` in ``fields`` the record is
        derived: both are built from ``original`` (the certified mapping
        over the input matrix) when first read.
        """
        record = object.__new__(cls)
        record.__dict__.update(
            {"trace": None},
            **fields,
            _rows=rows,
            _cols=cols,
            _frozen=frozen,
            _original=original,
        )
        return record

    def __getattr__(self, name):
        # Reached only for attributes not stored yet: the lazy pair.
        original = self.__dict__.get("_original")
        if original is None or name not in ("etc", "mapping"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        etc = original.etc._restricted(self._rows, self._cols)
        self.__dict__.update(
            etc=etc, mapping=original._restricted(etc, self._rows.tolist(), self._cols)
        )
        return self.__dict__[name]

    @property
    def machines(self) -> tuple[str, ...]:
        """Machines considered in this iteration."""
        return self.etc.machines

    def finish_times(self) -> dict[str, float]:
        """Finishing times of the machines considered in this iteration."""
        return self.mapping.machine_finish_times()

    def _derived(self) -> bool:
        return self.__dict__.get("_original") is not None

    def _input_index(self, etc: ETCMatrix) -> tuple[np.ndarray, np.ndarray]:
        """This iteration's task rows and machine columns in the run's
        input matrix ``etc``."""
        rows = self.__dict__.get("_rows")
        if rows is None:  # a record built outside the driver
            rows = list(map(etc.task_index, self.etc.tasks))
            cols = list(map(etc.machine_index, self.etc.machines))
        else:
            cols = self._cols
        return np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)

    def _frozen_index(self, etc: ETCMatrix) -> tuple[list[int], int]:
        """The frozen tasks' rows (execution order) and the frozen
        machine's column in the run's input matrix ``etc``."""
        frozen = self.__dict__.get("_frozen")
        if frozen is None:  # a record built outside the driver
            return (
                list(map(etc.task_index, self.frozen_tasks)),
                etc.machine_index(self.frozen_machine),
            )
        return frozen


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
        run nothing.  Commit order: :meth:`commit_order`.
        """
        etc = self.etc
        mapping = Mapping(
            etc, [self.initial_ready_times.get(m, 0.0) for m in etc.machines]
        )
        mapping.assign_many(*self.commit_order())
        return mapping

    def commit_order(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(task rows, machine columns)`` of the input matrix in the
        commit order of :meth:`final_mapping`: each record's frozen
        tasks in iteration order, then the survivors of a capped run.

        Index space: frozen rows are the ones the driver kept on each
        record, and a derived last record's survivors are read from the
        original mapping's commits on the surviving columns, so no
        record's mapping is built and no label is looked up.
        """
        etc = self.etc
        tasks: list[int] = []
        machines: list[int] = []
        for rec in self.iterations:
            rows, column = rec._frozen_index(etc)
            tasks += rows
            machines += [column] * len(rows)
        if len(tasks) < etc.num_tasks:  # survivors of a capped run
            last = self.iterations[-1]
            if last._derived():
                order, columns = map(np.array, last._original.commit_order())
                alive = np.zeros(etc.num_machines, dtype=bool)
                alive[last._cols] = True
                alive[column] = False
                keep = alive[columns]
            else:
                rows, cols = last._input_index(etc)
                order, columns = map(np.array, last.mapping.commit_order())
                order, columns = rows[order], cols[columns]
                keep = columns != column
            tasks += order[keep].tolist()
            machines += columns[keep].tolist()
        return tuple(tasks), tuple(machines)

    def mapping_changed(self) -> bool:
        """Whether any iteration re-mapped a task differently.

        Compares each iteration's assignments against the original
        mapping restricted to that iteration's task set — false for
        every deterministic run of Min-Min/MCT/MET per the paper's
        theorems.  Derived iterations are restrictions of the original
        by construction and are not re-read.
        """
        etc = self.etc
        rows, cols = self.original._input_index(etc)
        original = np.full(etc.num_tasks, -1, dtype=np.intp)
        original[rows] = cols[self.original.mapping.assignment_vector()]
        for rec in self.iterations[1:]:
            if rec._derived():
                continue
            rows, cols = rec._input_index(etc)
            if (original[rows] != cols[rec.mapping.assignment_vector()]).any():
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
        (including the original mapping): an ``int`` of at least 1, or
        ``None`` to run to completion.
        """
        check_iteration_cap(max_iterations)
        initial_ready = ready_time_vector(etc, ready_times).tolist()

        tracer = get_tracer()
        with tracer.span(
            "iterative.run",
            heuristic=self.heuristic.name,
            tasks=etc.num_tasks,
            machines=etc.num_machines,
        ):
            final_finish, removal_order, unfrozen, records = self._iterate(
                tracer, etc, initial_ready, max_iterations
            )

        return IterativeResult(
            etc=etc,
            heuristic_name=self.heuristic.name,
            iterations=tuple(records),
            final_finish_times=final_finish,
            removal_order=tuple(removal_order),
            initial_ready_times=dict(zip(etc.machines, initial_ready)),
            unfrozen=tuple(unfrozen),
        )

    def _iterate(
        self,
        tracer,
        etc: ETCMatrix,
        initial_ready: list[float],
        max_iterations: int | None,
    ) -> tuple[dict[str, float], list[str], list[str], list[IterationRecord]]:
        """The freeze/remap loop of :meth:`run` (one call per run).

        Returns ``(final_finish, removal_order, unfrozen, records)``.
        ``removal_order`` holds exactly the frozen machines (one per
        record); never-frozen survivors land in ``unfrozen`` instead —
        see :class:`IterativeResult` for the contract.

        Index space: ``rows`` and ``cols`` are the active task rows and
        machine columns of ``etc``; each re-mapped iteration maps one
        restriction of its buffer.  When :meth:`_derivable` accepts the
        original mapping, later iterations make no heuristic call and
        build nothing: an iteration's finishing times are the original
        finish vector at ``cols``, and the frozen tasks are the original
        per-machine task lists.
        """
        tasks, machines = etc.tasks, etc.machines
        records: list[IterationRecord] = []
        final_finish: dict[str, float] = {}
        removal_order: list[str] = []
        unfrozen: list[str] = []
        rows = np.arange(etc.num_tasks)
        cols = list(range(etc.num_machines))
        alive = np.ones(etc.num_tasks, dtype=bool)
        # The previous mapping restricted to the survivors, as a machine
        # column per row of ``rows``, built only for a hook that may read
        # it: a seeded heuristic or an override (the seeded variant).
        incumbent: np.ndarray | None = None
        carry = (
            self.seed_across_iterations and self.heuristic.supports_seeding
        ) or type(self)._map_iteration is not IterativeScheduler._map_iteration
        original: Mapping | None = None  # set when iterations are derived

        while True:
            if original is not None:
                mapping = original
                finish = mapping.ready_times_view()[cols].tolist()
                record_fields = {}  # the record builds etc and mapping
            else:
                current_etc = etc._restricted(rows, cols) if records else etc
                # Span-only phase: one timeline row per freeze/remap
                # pass, without adding events (the freeze event below is
                # the byte-identity-tested record of this iteration).
                with tracer.phase(
                    "iterative.map", iteration=len(records), machines=len(cols)
                ):
                    mapping = self._map_iteration(
                        current_etc, [initial_ready[c] for c in cols], incumbent
                    )
                finish = mapping.ready_times_view().tolist()
                record_fields = {
                    "etc": current_etc,
                    "mapping": mapping,
                    "trace": getattr(self.heuristic, "last_trace", None),
                }
                if not records and self._derivable(mapping):
                    original = mapping
            if self.freeze_policy is None:
                column = self.makespan_tie_breaker.choose(tied_max_indices(finish))
            else:
                column = current_etc.machine_index(
                    self.freeze_policy(mapping, self.makespan_tie_breaker)
                )
            frozen_machine = machines[cols[column]]
            if original is not None:
                frozen_rows = list(original.column_tasks(cols[column]))
            else:
                frozen_rows = rows[list(mapping.column_tasks(column))].tolist()
            frozen_tasks = tuple(map(tasks.__getitem__, frozen_rows))
            record = IterationRecord._in_run(
                rows,
                cols,
                (frozen_rows, cols[column]),
                None if record_fields else original,
                index=len(records),
                makespan=max(finish),
                frozen_machine=frozen_machine,
                frozen_tasks=frozen_tasks,
                **record_fields,
            )
            records.append(record)
            final_finish[frozen_machine] = finish[column]
            removal_order.append(frozen_machine)
            if tracer.enabled:
                if not record_fields:
                    # Derived: under the certificate a re-map commits the
                    # restricted mapping's pairs in its order.
                    with tracer.phase(
                        "iterative.map", iteration=record.index, machines=len(cols)
                    ):
                        self.heuristic.emit_decisions(record.mapping)
                tracer.event(
                    "iterative.freeze",
                    iteration=record.index,
                    frozen_machine=frozen_machine,
                    frozen_tasks=frozen_tasks,
                    makespan=record.makespan,
                    machines_remaining=len(cols) - 1,
                )
                tracer.count("iterations")
                tracer.observe("iterative.freeze_depth", record.index)
                tracer.observe("iterative.frozen_tasks", len(frozen_tasks))

            last_allowed = (
                max_iterations is not None and len(records) >= max_iterations
            )
            if len(cols) == 1 or last_allowed:
                # Never-frozen survivors keep this iteration's finishing
                # times; they were not frozen, so they do not join the
                # removal order.
                for k, c in enumerate(cols):
                    if k != column:
                        final_finish[machines[c]] = finish[k]
                        unfrozen.append(machines[c])
                break

            alive[frozen_rows] = False
            rows = np.flatnonzero(alive)
            cols = cols[:column] + cols[column + 1 :]
            if not rows.size:
                # Task pool exhausted: survivors never run anything and
                # finish at their initial ready times.
                for c in cols:
                    final_finish[machines[c]] = initial_ready[c]
                    unfrozen.append(machines[c])
                if tracer.enabled:
                    tracer.event(
                        "iterative.exhausted",
                        iteration=record.index,
                        survivors=tuple(unfrozen),
                    )
                break
            if carry and original is None:
                # The frozen column leaves with all of its tasks (under
                # every freeze policy), so every surviving row keeps a
                # surviving column: drop its entries, close the gap.
                incumbent = mapping.assignment_vector()
                incumbent = incumbent[incumbent != column]
                incumbent[incumbent > column] -= 1

        return final_finish, removal_order, unfrozen, records

    # ------------------------------------------------------------------
    def _derivable(self, mapping: Mapping) -> bool:
        """Whether later iterations may restrict the original ``mapping``.

        True only when the kernel certified it (:attr:`Mapping.certified`:
        every decision kept the tie-cluster certificate of
        :mod:`repro.core.ties`, so the paper's invariance theorems hold
        under the tolerance ties), both tie breakers are exactly
        :class:`DeterministicTieBreaker`, the paper's makespan-machine
        freeze rule is in force, and :meth:`_map_iteration` is not
        overridden (seeded variants remap on purpose).  A listening
        tracer does not matter: a derived iteration emits its decisions
        from its restricted mapping (:meth:`Heuristic.emit_decisions`).
        """
        return (
            mapping.certified
            and type(self.tie_breaker) is DeterministicTieBreaker
            and type(self.makespan_tie_breaker) is DeterministicTieBreaker
            and self.freeze_policy is None
            and type(self)._map_iteration is IterativeScheduler._map_iteration
        )

    def _map_iteration(
        self,
        current_etc: ETCMatrix,
        ready_vec: Sequence[float],
        incumbent: np.ndarray | None,
    ) -> Mapping:
        """Produce one iteration's mapping (hook for seeded variants).

        ``incumbent`` is the previous iteration's mapping restricted to
        the surviving tasks and machines: a machine column of
        ``current_etc`` per task row, or ``None`` at the original
        mapping and when no seeding reads it.
        """
        seed = self._seed_for(incumbent)
        if seed is not None:
            machines = current_etc.machines
            seed = dict(zip(current_etc.tasks, [machines[j] for j in seed.tolist()]))
        return self.heuristic.map_tasks(
            current_etc, ready_vec, self.tie_breaker, seed_mapping=seed
        )

    def _seed_for(self, incumbent: np.ndarray | None) -> np.ndarray | None:
        """The heuristic's seed: ``incumbent``, or ``None`` unless
        seeding is on and the heuristic accepts a seed."""
        if self.seed_across_iterations and self.heuristic.supports_seeding:
            return incumbent
        return None
