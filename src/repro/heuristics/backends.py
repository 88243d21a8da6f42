"""Kernel backends for the heuristic family.

Two kernel generations coexist in this codebase: the *reference*
implementations that transcribe the paper's figures line by line (the
``Reference*`` classes beside each heuristic, kept as test oracles),
and the *incremental* single-instance kernels that the registered
heuristics run by default.  A :class:`Backend` names one of them, and
:func:`get_backend` resolves it by name — ``reference | incremental``,
with ``batched`` kept as an accepted alias of ``incremental`` so stored
configs and cache keys that name it keep working — so call sites
(experiment runner, study pipeline, CLI, serve) select kernels without
touching heuristic code.  Both build through
:func:`~repro.heuristics.base.build_heuristic`, so ``rng`` reaches a
heuristic exactly when its constructor takes one.

The backends are *decision-identical*: they differ only in how fast
they arrive at the same mappings, which the equivalence battery in
``tests/properties/test_kernel_equivalence.py`` enforces.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field

from repro.exceptions import UnknownBackendError
from repro.heuristics.base import Heuristic, build_heuristic, get_heuristic
from repro.heuristics.kpb import ReferenceKPercentBest
from repro.heuristics.mct import ReferenceMCT
from repro.heuristics.met import ReferenceMET
from repro.heuristics.minmin import ReferenceDuplex, ReferenceMaxMin, ReferenceMinMin
from repro.heuristics.sufferage import ReferenceSufferage

__all__ = [
    "DEFAULT_BACKEND",
    "REFERENCE_HEURISTICS",
    "Backend",
    "get_backend",
    "backend_names",
]

#: The default backend: the incremental single-instance kernels.
DEFAULT_BACKEND = "incremental"

#: Heuristic name -> paper-transcription oracle, for every heuristic
#: whose default kernel differs from the transcription.  The reference
#: classes are deliberately not in the heuristic registry.
REFERENCE_HEURISTICS: dict[str, type[Heuristic]] = {
    "min-min": ReferenceMinMin,
    "max-min": ReferenceMaxMin,
    "duplex": ReferenceDuplex,
    "mct": ReferenceMCT,
    "met": ReferenceMET,
    "k-percent-best": ReferenceKPercentBest,
    "sufferage": ReferenceSufferage,
}


@dataclass(frozen=True, eq=False)
class Backend:
    """One kernel generation: the registered heuristics, with
    ``oracles`` (name -> class) built in their place."""

    name: str
    oracles: MappingABC[str, type[Heuristic]] = field(repr=False)

    def make(self, heuristic: str, *, rng=None, **kwargs) -> Heuristic:
        """Build ``heuristic``; ``rng`` follows the registry's seeding rule."""
        oracle = self.oracles.get(heuristic)
        if oracle is None:
            return get_heuristic(heuristic, rng=rng, **kwargs)
        return build_heuristic(oracle, rng=rng, **kwargs)


_INCREMENTAL = Backend("incremental", {})
_BACKENDS: dict[str, Backend] = {
    "reference": Backend("reference", REFERENCE_HEURISTICS),
    "incremental": _INCREMENTAL,
    # The retired stacked-batch backend's name stays valid as an alias.
    "batched": _INCREMENTAL,
}


def get_backend(name: str | Backend) -> Backend:
    """Resolve a backend by name; instances pass through unchanged."""
    if isinstance(name, Backend):
        return name
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise UnknownBackendError(
            f"unknown kernel backend {name!r}; known backends: {known}"
        ) from None


def backend_names() -> tuple[str, ...]:
    """Backend names (aliases included), sorted."""
    return tuple(sorted(_BACKENDS))
