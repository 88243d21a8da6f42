"""Pluggable kernel backends for the heuristic family.

Two kernel generations coexist in this codebase: the *reference*
implementations that transcribe the paper's figures line by line (the
``Reference*`` classes beside each heuristic, kept as test oracles),
and the *incremental* single-instance kernels that the registered
heuristics run by default.  This module gives them one seam: a
:class:`KernelBackend` builds single-instance heuristics
(:meth:`KernelBackend.make`), and a registry resolves backends by name
— ``reference | incremental``, with ``batched`` kept as an accepted
alias of ``incremental`` so stored configs and cache keys that name it
keep working — so call sites (experiment runner, study pipeline, CLI,
serve) select kernels without touching heuristic code.

All backends are *decision-identical*: they differ only in how fast
they arrive at the same mappings, which the equivalence battery in
``tests/properties/test_kernel_equivalence.py`` enforces.
"""

from __future__ import annotations

import abc

from repro.exceptions import UnknownBackendError
from repro.heuristics.base import Heuristic, get_heuristic
from repro.heuristics.kpb import ReferenceKPercentBest
from repro.heuristics.mct import ReferenceMCT
from repro.heuristics.met import ReferenceMET
from repro.heuristics.minmin import ReferenceDuplex, ReferenceMaxMin, ReferenceMinMin
from repro.heuristics.sufferage import ReferenceSufferage

__all__ = [
    "DEFAULT_BACKEND",
    "REFERENCE_HEURISTICS",
    "KernelBackend",
    "ReferenceBackend",
    "IncrementalBackend",
    "register_backend",
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


class KernelBackend(abc.ABC):
    """One kernel generation: builds single-instance heuristics."""

    #: Registry name; set by concrete backends.
    name: str = ""

    @abc.abstractmethod
    def make(self, heuristic: str, **kwargs) -> Heuristic:
        """Build a single-instance heuristic wired to this backend."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ReferenceBackend(KernelBackend):
    """The paper-transcription kernels (the test oracles)."""

    name = "reference"

    def make(self, heuristic: str, **kwargs) -> Heuristic:
        reference = REFERENCE_HEURISTICS.get(heuristic)
        if reference is None:
            return get_heuristic(heuristic, **kwargs)
        return reference(**kwargs)


class IncrementalBackend(KernelBackend):
    """The default single-instance kernels (the registered heuristics)."""

    name = "incremental"

    def make(self, heuristic: str, **kwargs) -> Heuristic:
        return get_heuristic(heuristic, **kwargs)


_BACKENDS: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register ``backend`` under ``backend.name`` (latest wins)."""
    if not backend.name:
        raise UnknownBackendError("backend must define a non-empty name")
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str | KernelBackend) -> KernelBackend:
    """Resolve a backend by name; instances pass through unchanged."""
    if isinstance(name, KernelBackend):
        return name
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise UnknownBackendError(
            f"unknown kernel backend {name!r}; known backends: {known}"
        ) from None


def backend_names() -> tuple[str, ...]:
    """Registered backend names (aliases included), sorted."""
    return tuple(sorted(_BACKENDS))


register_backend(ReferenceBackend())
register_backend(IncrementalBackend())
# The retired stacked-batch backend's name stays valid as an alias.
_BACKENDS["batched"] = _BACKENDS["incremental"]
