"""Tie-breaking policies.

Whether the iterative approach changes a mapping "often depends on how
ties are broken within a heuristic" (paper Section 2).  The paper studies
two families, both implemented here:

* **deterministic** — e.g. always the lowest-index (oldest) candidate,
  so re-running a heuristic on identical state reproduces the decision;
* **random** — each tied candidate is equally likely; decisions are
  drawn from a seeded :class:`numpy.random.Generator` so experiments
  stay reproducible.

Ties between floating-point completion times are detected with a
combined relative/absolute tolerance, matching the exact-decimal
arithmetic of the paper's examples while staying robust on generated
instances.

Certificates.  The paper proves that under deterministic ties Min-Min,
MCT and MET give the same mapping at every iteration (Sections
3.2–3.4).  The tolerance relation is not transitive, so under it the
proofs need one more condition per decision.  Let ``g`` be the minimum
a decision faces and ``tol = max(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * g)``.
The decision keeps the certificate when every candidate inside its tie
window (two tolerances above ``g`` for MCT and MET, Min-Min's four)
lies within ``CERTIFIED_SPREAD * tol`` (half a tolerance) of ``g``.
Such a cluster is an isolated clique of the tie predicate:

* every subset of it is tied to the subset's own minimum ``g' <= g +
  tol/2``, since ``v - g' <= tol/2`` and the tolerance only grows with
  the value;
* nothing above the window ties with any member of it: such a value
  ``v`` exceeds ``g + 2 * tol``, so ``v - g' > 1.5 * tol``, more than
  its own tolerance ``max(abs_tol, rel_tol * v)``.

A later iteration restricts a decision to a subset of its candidates
(fewer machines, the same ready times on the survivors) that still
holds the committed pair, so the reference again ties exactly the
surviving cluster and picks the same oldest task and the same lowest
surviving machine: the exact-tie argument of the paper's proofs.
Exact ties are the special case of spread 0.  The wide near ties of
the tolerance-tie witness (spread 1.5 tolerances) do not certify, and
there the iterative mapping does change.  The kernels set
:attr:`~repro.core.schedule.Mapping.certified` only when every decision
kept the certificate; :func:`separated_min_index` is the per-row check.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "DEFAULT_REL_TOL",
    "DEFAULT_ABS_TOL",
    "CERTIFIED_SPREAD",
    "tied_indices",
    "tied_argmin",
    "tied_argmax",
    "tied_min_indices",
    "tied_max_indices",
    "first_tied_min_index",
    "separated_min_index",
    "TieBreaker",
    "DeterministicTieBreaker",
    "RandomTieBreaker",
    "make_tie_breaker",
]

#: Default relative tolerance for declaring two times tied.
DEFAULT_REL_TOL = 1e-9
#: Default absolute tolerance for declaring two times tied.
DEFAULT_ABS_TOL = 1e-12
#: Widest spread, in tie tolerances of the minimum, of a tie cluster
#: that keeps a decision's certificate (see the module docstring).
CERTIFIED_SPREAD = 0.5


def tied_indices(
    values: np.ndarray | Sequence[float],
    target: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> np.ndarray:
    """Indices of ``values`` tied with ``target`` under the tolerance."""
    arr = np.asarray(values, dtype=np.float64)
    tol = np.maximum(abs_tol, rel_tol * np.maximum(np.abs(arr), abs(target)))
    return np.flatnonzero(np.abs(arr - target) <= tol)


def tied_argmin(
    values: np.ndarray | Sequence[float],
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> np.ndarray:
    """All indices attaining (within tolerance) the minimum of ``values``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("tied_argmin of empty array")
    return tied_indices(arr, float(arr.min()), rel_tol, abs_tol)


def tied_argmax(
    values: np.ndarray | Sequence[float],
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> np.ndarray:
    """All indices attaining (within tolerance) the maximum of ``values``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("tied_argmax of empty array")
    return tied_indices(arr, float(arr.max()), rel_tol, abs_tol)


def tied_min_indices(row: np.ndarray | list[float]) -> list[int]:
    """Exact :func:`tied_argmin` for short strictly positive rows.

    ``row`` is an array or a list of floats.  A plain Python scan over
    the list outruns the vectorised pipeline below ~100 elements (the
    machine axis is 32 at paper scale).  For strictly positive values
    the tolerance ``max(abs_tol, rel_tol * max(|v|, |target|))`` is exactly
    ``max(abs_tol, rel_tol * v)`` because ``v >= target > 0``, and
    ``|v - target|`` is exactly ``v - target``; both simplifications
    are value-identical, so the returned candidate list matches
    :func:`tied_argmin` element for element.
    """
    lst = row if type(row) is list else row.tolist()
    target = min(lst)
    out = []
    for j, v in enumerate(lst):
        tol = DEFAULT_REL_TOL * v
        if tol < DEFAULT_ABS_TOL:
            tol = DEFAULT_ABS_TOL
        if v - target <= tol:
            out.append(j)
    return out


def tied_max_indices(values: list[float]) -> list[int]:
    """Exact :func:`tied_argmax` for a short list of non-negative floats.

    With ``0 <= v <= target`` (the maximum), the tolerance
    ``max(abs_tol, rel_tol * max(|v|, |target|))`` is exactly
    ``max(abs_tol, rel_tol * target)`` and ``|v - target|`` is exactly
    ``target - v``, so the returned list matches :func:`tied_argmax`
    element for element.  Finishing times satisfy the precondition
    (non-negative ready times plus positive ETCs).
    """
    target = max(values)
    tol = DEFAULT_REL_TOL * target
    if tol < DEFAULT_ABS_TOL:
        tol = DEFAULT_ABS_TOL
    return [j for j, v in enumerate(values) if target - v <= tol]


def first_tied_min_index(row: np.ndarray | list[float]) -> int:
    """First index of :func:`tied_min_indices` without building the list.

    Exactly what ``DeterministicTieBreaker.choose(tied_min_indices(row))``
    returns (the candidate list ascends, so its minimum is its first
    element); used on the deterministic fast paths, which never need the
    full candidate set.  Early-exits at the first tied element.
    """
    lst = row if type(row) is list else row.tolist()
    target = min(lst)
    for j, v in enumerate(lst):
        tol = DEFAULT_REL_TOL * v
        if tol < DEFAULT_ABS_TOL:
            tol = DEFAULT_ABS_TOL
        if v - target <= tol:
            return j
    raise AssertionError("unreachable: the minimum always ties with itself")


def separated_min_index(row: np.ndarray) -> int:
    """First index of the minimum ``g`` of a separated row, else ``-1``.

    A strictly positive row is *separated* when no value lies in
    ``(g + CERTIFIED_SPREAD * tol, g + 2 * tol]`` with
    ``tol = max(abs_tol, rel_tol * g)``: the values near ``g`` form a
    tie cluster that keeps the certificate (module docstring).  Then
    the tolerance-tied set of :func:`tied_min_indices` is exactly that
    cluster, on the row and on every sub-row that keeps one of its
    members, so :func:`first_tied_min_index` returns the index returned
    here.  MCT checks every decision with it, MET every near-tied row.
    """
    lst = row.tolist()
    g = min(lst)
    tol = DEFAULT_REL_TOL * g
    if tol < DEFAULT_ABS_TOL:
        tol = DEFAULT_ABS_TOL
    limit = g + 2.0 * tol
    cluster = g + CERTIFIED_SPREAD * tol
    first = -1
    for j, v in enumerate(lst):
        if v <= limit:
            if v > cluster:
                return -1
            if first < 0:
                first = j
    return first


class TieBreaker(abc.ABC):
    """Strategy object selecting one index from a tied candidate set."""

    #: True when the policy always returns the same choice for the same
    #: candidate set — the property the paper's invariance theorems need.
    deterministic: bool = True

    @abc.abstractmethod
    def choose(self, candidates: np.ndarray | Sequence[int]) -> int:
        """Select one element from a non-empty candidate index set."""

    def argmin(
        self,
        values: np.ndarray | Sequence[float],
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> int:
        """Index of the minimum of ``values``, ties resolved by policy."""
        return self.choose(tied_argmin(values, rel_tol, abs_tol))

    def argmax(
        self,
        values: np.ndarray | Sequence[float],
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> int:
        """Index of the maximum of ``values``, ties resolved by policy."""
        return self.choose(tied_argmax(values, rel_tol, abs_tol))


class DeterministicTieBreaker(TieBreaker):
    """Always pick the lowest-index candidate ("the oldest is chosen").

    This is the paper's deterministic policy: with a fixed task list and
    fixed machine ordering, the lowest index is the oldest task / the
    machine with the lowest reference number.
    """

    deterministic = True

    def choose(self, candidates: np.ndarray | Sequence[int]) -> int:
        if isinstance(candidates, (list, tuple)):
            # Kernel candidate lists are short Python lists: the
            # built-in min skips the array round trip.
            if not candidates:
                raise ConfigurationError("cannot break a tie among zero candidates")
            return int(min(candidates))
        arr = np.asarray(candidates)
        if arr.size == 0:
            raise ConfigurationError("cannot break a tie among zero candidates")
        return int(arr.min())

    def __repr__(self) -> str:
        return "DeterministicTieBreaker()"


class RandomTieBreaker(TieBreaker):
    """Pick uniformly at random among tied candidates (seeded).

    With two tied machines "each will have a 0.5 probability of being
    chosen" (paper Section 2).
    """

    deterministic = False

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        self._rng = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    def choose(self, candidates: np.ndarray | Sequence[int]) -> int:
        arr = np.asarray(candidates)
        if arr.size == 0:
            raise ConfigurationError("cannot break a tie among zero candidates")
        if arr.size == 1:
            return int(arr[0])
        return int(self._rng.choice(arr))

    def __repr__(self) -> str:
        return "RandomTieBreaker()"


class ScriptedTieBreaker(TieBreaker):
    """Replay a fixed script of choices (testing/paper-example helper).

    Each time a *genuine* tie (two or more candidates) is met, the next
    scripted value is consumed; it may be an absolute index (must be
    among the candidates) and is validated loudly.  Singleton candidate
    sets do not consume script entries.  Once the script is exhausted,
    the lowest index is used.
    """

    deterministic = True

    def __init__(self, choices: Sequence[int]) -> None:
        self._choices = list(choices)
        self._cursor = 0

    def choose(self, candidates: np.ndarray | Sequence[int]) -> int:
        arr = np.asarray(candidates)
        if arr.size == 0:
            raise ConfigurationError("cannot break a tie among zero candidates")
        if arr.size == 1:
            return int(arr[0])
        if self._cursor < len(self._choices):
            pick = self._choices[self._cursor]
            self._cursor += 1
            if pick not in arr:
                raise ConfigurationError(
                    f"scripted choice {pick} not among tied candidates {arr.tolist()}"
                )
            return int(pick)
        return int(arr.min())

    @property
    def consumed(self) -> int:
        """How many scripted choices have been used so far."""
        return self._cursor

    def __repr__(self) -> str:
        return f"ScriptedTieBreaker(choices={self._choices!r}, consumed={self._cursor})"


__all__.append("ScriptedTieBreaker")


def make_tie_breaker(
    spec: str | TieBreaker,
    rng: np.random.Generator | int | None = None,
) -> TieBreaker:
    """Build a tie breaker from a spec string (``"deterministic"`` /
    ``"random"``) or pass an existing instance through."""
    if isinstance(spec, TieBreaker):
        return spec
    if spec == "deterministic":
        return DeterministicTieBreaker()
    if spec == "random":
        return RandomTieBreaker(rng)
    raise ConfigurationError(f"unknown tie breaker spec {spec!r}")
