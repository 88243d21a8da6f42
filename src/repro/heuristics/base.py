"""Heuristic interface and registry.

Every mapping heuristic of the paper (and every baseline) implements the
same contract: given an ETC matrix (possibly a restriction produced by
the iterative technique), initial machine ready times, and a
tie-breaking policy, produce a complete :class:`~repro.core.schedule.Mapping`.

Task ordering convention: heuristics that consume "a task list in a
given arbitrary order" (MCT, MET, SWA, K-percent Best) use the ETC row
order.  Because :meth:`ETCMatrix.submatrix` preserves relative row
order, the list is *arbitrary but fixed between iterations* exactly as
the paper's proofs require (Section 3.3).
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Mapping as MappingABC, Sequence

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DeterministicTieBreaker,
    TieBreaker,
)
from repro.etc.matrix import ETCMatrix
from repro.exceptions import MappingError, UnknownHeuristicError
from repro.obs.tracer import get_tracer

__all__ = [
    "Heuristic",
    "register_heuristic",
    "get_heuristic",
    "heuristic_names",
    "validate_complete",
    "emit_commit_decisions",
    "LazyTrace",
]

ReadyTimes = "MappingABC[str, float] | Sequence[float] | None"


class LazyTrace(Sequence):
    """A kernel's decision-trace tuple, built from its arrays when first read.

    Subclasses implement ``_build(*parts) -> tuple``; the constructor
    keeps ``parts`` as given, and the last part holds one entry per
    element, so ``len()`` reads no built element.  Indexing, iteration,
    comparison and hashing build the tuple once and cache it.  Compares
    and hashes equal to that tuple; pickles as its parts.
    """

    __slots__ = ("_parts", "_built")

    def __init__(self, *parts) -> None:
        self._parts = parts
        self._built: tuple | None = None

    @abc.abstractmethod
    def _build(self, *parts) -> tuple:
        """The decision-trace tuple of ``parts``."""

    def _tuple(self) -> tuple:
        if self._built is None:
            self._built = self._build(*self._parts)
        return self._built

    def __len__(self) -> int:
        return len(self._parts[-1])

    def __getitem__(self, index):
        return self._tuple()[index]

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyTrace):
            other = other._tuple()
        if isinstance(other, tuple):
            return self._tuple() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __reduce__(self):
        return (type(self), self._parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._tuple()!r})"


class Heuristic(abc.ABC):
    """Base class for makespan-minimising mapping heuristics.

    Subclasses set :attr:`name` and implement :meth:`_run`.  The public
    entry point :meth:`map_tasks` normalises arguments, runs the
    heuristic and verifies that the result maps every task.  Kernels
    never read the tracer: when one is listening, :meth:`map_tasks`
    emits the heuristic's decision events through :meth:`_emit` after
    :meth:`_run` returns, so a fast kernel and its reference share one
    emitter and one code path with or without a tracer.
    """

    #: Registry key and display name (e.g. ``"min-min"``).
    name: str = ""

    #: Whether the heuristic can exploit a seed mapping natively (only
    #: Genitor in the paper; see also
    #: :class:`repro.core.seeding.SeededIterativeScheduler` which grafts
    #: seeding onto any heuristic).
    supports_seeding: bool = False

    def map_tasks(
        self,
        etc: ETCMatrix,
        ready_times: MappingABC[str, float] | Sequence[float] | None = None,
        tie_breaker: TieBreaker | None = None,
        *,
        seed_mapping: MappingABC[str, str] | None = None,
    ) -> Mapping:
        """Map every task of ``etc`` onto a machine.

        Parameters
        ----------
        etc:
            The (possibly restricted) ETC matrix.
        ready_times:
            Initial machine ready times (default all zero).
        tie_breaker:
            Tie-breaking policy (default deterministic lowest index).
        seed_mapping:
            Optional ``{task: machine}`` seed.  Ignored unless
            :attr:`supports_seeding` is true.
        """
        breaker = tie_breaker or DeterministicTieBreaker()
        mapping = Mapping(etc, ready_times)
        tracer = get_tracer()
        with self._map_span(tracer, etc):
            seed = None
            if seed_mapping is not None and self.supports_seeding:
                self._validate_seed(etc, seed_mapping)
                seed = np.array(
                    [etc.machine_index(seed_mapping[t]) for t in etc.tasks],
                    dtype=np.int64,
                )
            self._run(mapping, breaker, seed)
            if tracer.enabled:
                self._emit(tracer, mapping)
        validate_complete(mapping)
        return mapping

    def emit_decisions(self, mapping: Mapping) -> None:
        """Trace a finished ``mapping`` of this heuristic as
        :meth:`map_tasks` traced the run that made it, with no kernel
        call (how a derived iteration's restricted mapping is traced)."""
        tracer = get_tracer()
        with self._map_span(tracer, mapping.etc):
            self._emit(tracer, mapping)

    def _map_span(self, tracer, etc: ETCMatrix):
        return tracer.span(
            "heuristic.map",
            heuristic=self.name,
            tasks=etc.num_tasks,
            machines=etc.num_machines,
        )

    def _emit(self, tracer, mapping: Mapping) -> None:
        """Emit the decision events of ``mapping``, just filled by
        :meth:`_run` (or restricted from such a mapping).  The default
        emits none."""

    @abc.abstractmethod
    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed: np.ndarray | None,
    ) -> None:
        """Fill ``mapping`` with one assignment per task; ``seed`` is the
        validated seed as an ``int64`` machine column per row, or ``None``."""

    @staticmethod
    def _validate_seed(etc: ETCMatrix, seed_mapping: MappingABC[str, str]) -> None:
        seed_tasks = set(seed_mapping)
        if seed_tasks != set(etc.tasks):
            missing = set(etc.tasks) - seed_tasks
            extra = seed_tasks - set(etc.tasks)
            raise MappingError(
                f"seed mapping does not cover the task set exactly "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )
        for task, machine in seed_mapping.items():
            etc.machine_index(machine)
            etc.task_index(task)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def emit_commit_decisions(
    tracer, mapping: Mapping, kind: str, *, execution: bool = False
) -> None:
    """One ``kind`` event per commit of ``mapping``, in commit order.

    Replays the commits from the initial ready times: ``completion`` is
    the commit's finish time and ``tied`` lists the machines that
    :func:`~repro.core.ties.tied_min_indices` returns for the task's
    completion-time row at that point (with ``execution``, for its ETC
    row, and the event also carries the chosen ``execution`` time).
    The tie rule runs vectorised over all commits at once.  The emitter
    of Min-Min, Max-Min, MCT and MET, whose kernels pick a machine from
    exactly that candidate set.
    """
    etc = mapping.etc
    tasks, machines = etc.tasks, etc.machines
    rows, columns = mapping.commit_order()
    scores = etc.values[list(rows)]
    chosen = scores[np.arange(len(rows)), list(columns)].tolist()
    ready = mapping.initial_ready_times()
    before = np.empty_like(scores)  # the ready times each commit saw
    finishes = []
    for k, (column, cost) in enumerate(zip(columns, chosen)):
        before[k] = ready
        # Mapping's commit arithmetic, so the finish times are its own.
        ready[column] = finish = float(ready[column]) + cost
        finishes.append(finish)
    if not execution:
        scores += before
    # tied_min_indices' rule: v - min <= max(rel_tol * v, abs_tol).
    tied = scores - scores.min(axis=1, initial=np.inf)[:, None] <= np.maximum(
        DEFAULT_REL_TOL * scores, DEFAULT_ABS_TOL
    )
    labels = [machines[j] for j in tied.nonzero()[1].tolist()]
    end = 0
    for row, column, cost, finish, count in zip(
        rows, columns, chosen, finishes, tied.sum(axis=1).tolist()
    ):
        extra = {"execution": cost} if execution else {}
        tracer.event(
            kind,
            task=tasks[row],
            machine=machines[column],
            **extra,
            completion=finish,
            tied=tuple(labels[end : end + count]),
        )
        tracer.count("decisions")
        tracer.observe("decision.tie_candidates", count)
        end += count


def validate_complete(mapping: Mapping) -> None:
    """Raise :class:`MappingError` unless every task is assigned once."""
    if not mapping.is_complete():
        raise MappingError(
            f"heuristic left {len(mapping.unmapped_tasks())} task(s) unmapped: "
            f"{mapping.unmapped_tasks()[:5]!r}..."
        )


_REGISTRY: dict[str, Callable[[], Heuristic]] = {}


def register_heuristic(factory: Callable[[], Heuristic] | type[Heuristic]):
    """Class decorator/registrar adding a heuristic factory by its name."""
    probe = factory()
    if not probe.name:
        raise ValueError(f"heuristic {factory!r} does not define a name")
    _REGISTRY[probe.name] = factory
    return factory


def get_heuristic(name: str, **kwargs) -> Heuristic:
    """Instantiate a registered heuristic by name.

    ``kwargs`` are forwarded to the factory, enabling e.g.
    ``get_heuristic("k-percent-best", percent=70.0)``.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownHeuristicError(
            f"unknown heuristic {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs) if kwargs else factory()


def heuristic_names() -> tuple[str, ...]:
    """All registered heuristic names, sorted."""
    return tuple(sorted(_REGISTRY))
