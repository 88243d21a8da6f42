"""Request models and content-addressed identity for :mod:`repro.serve`.

A schedule request (schema ``repro-serve-request/1``) is a JSON object
naming a *kind* of work plus the inputs it needs:

* ``kind`` — ``"map"`` (one heuristic mapping), ``"iterate"`` (the
  paper's iterative technique with its full refinement trace), or
  ``"study"`` (the aggregate improvement statistics over a generated
  ensemble);
* exactly one of ``etc`` (an inline instance — ``{"values": [[...]],
  "tasks": [...], "machines": [...]}`` or ``{"csv": "..."}``) or
  ``ensemble`` (a generation spec — tasks/machines/instances/
  heterogeneity/consistency/method).  ``map``/``iterate`` take ``etc``,
  ``study`` takes ``ensemble``;
* ``heuristic`` / ``ties`` / ``seed`` / ``seeded`` / ``backend`` —
  the scheduling configuration, validated against the live registries;
* ``trace`` / ``request_id`` — *non-identity* fields: they change what
  a response carries, never what is computed.

Validation reuses the library contracts directly: inline matrices go
through :class:`~repro.etc.matrix.ETCMatrix` (shape/finiteness/
positivity → :class:`~repro.exceptions.ETCShapeError` /
:class:`~repro.exceptions.ETCValueError`) and CSV payloads through
:func:`repro.etc.io.from_csv` (label strip/duplicate rules).  Any such
failure surfaces as :class:`RequestValidationError` with the underlying
message preserved, so the HTTP layer can map it to a 400 without
inventing a second validation path.  The matrix is built once: the
:class:`ScheduleRequest` carries that validated, read-only float64
array from the body to the kernel.

:func:`request_key` is the service's cache address: the run ledger's
SHA-256 :func:`~repro.obs.ledger.config_hash` over
:func:`request_identity` — the canonical dict of every
*result-determining* field and nothing else.  An inline ETC enters it
as its shape, the SHA-256 of its C-order little-endian float64 bytes
and its labels; ETC values are finite and strictly positive, so equal
values always have equal bytes and the CSV, float JSON and integer
JSON forms of one matrix share a key.  The backend enters under its
resolved name, so an alias keys like its target.  Two requests that
differ only in ``trace`` verbosity or ``request_id`` share a key; any
change to the ETC values, labels, heuristic, tie policy, seed, backend
or ensemble spec misses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.etc import io as etc_io
from repro.etc.generation import Consistency, Heterogeneity
from repro.etc.matrix import ETCMatrix
from repro.exceptions import ReproError

__all__ = [
    "REQUEST_SCHEMA",
    "RESPONSE_SCHEMA",
    "REQUEST_KINDS",
    "GENERATION_METHODS",
    "ServeError",
    "RequestValidationError",
    "OverloadError",
    "ScheduleRequest",
    "etc_digest",
    "parse_request",
    "request_identity",
    "request_key",
]

#: Request format identifier; bump when the payload layout changes.
REQUEST_SCHEMA = "repro-serve-request/1"

#: Response format identifier; bump when the response layout changes.
RESPONSE_SCHEMA = "repro-serve-response/1"

#: The kinds of work the service executes.
REQUEST_KINDS = ("map", "iterate", "study")

#: Ensemble generation methods (mirrors ``repro generate --method``).
GENERATION_METHODS = ("range", "cvb")

#: Tie policies accepted by :func:`repro.core.ties.make_tie_breaker`.
_TIE_POLICIES = ("deterministic", "random")

#: Top-level payload keys the parser accepts.
_KNOWN_FIELDS = frozenset(
    {
        "schema",
        "kind",
        "etc",
        "ensemble",
        "heuristic",
        "ties",
        "seed",
        "seeded",
        "backend",
        "max_iterations",
        "trace",
        "request_id",
    }
)

_ENSEMBLE_FIELDS = frozenset(
    {"tasks", "machines", "instances", "heterogeneity", "consistency", "method"}
)


class ServeError(ReproError):
    """Base class for scheduling-service failures."""


class RequestValidationError(ServeError, ValueError):
    """A request payload failed validation (HTTP 400)."""


class OverloadError(ServeError):
    """The service is at its pending-request capacity (HTTP 503)."""


def etc_digest(etc: ETCMatrix) -> str:
    """SHA-256 hex digest of ``etc``'s values as C-order little-endian
    float64 bytes (labels and shape are not part of it)."""
    values = np.ascontiguousarray(etc.values, dtype="<f8")
    return hashlib.sha256(values.data).hexdigest()


@dataclass(frozen=True)
class ScheduleRequest:
    """One validated, canonicalised schedule request.

    An inline instance is kept as the one validated :class:`ETCMatrix`
    the parser built, whatever the wire encoding.  Equality and hashing
    see it only through ``etc_identity`` — shape, value digest and
    labels — never through ``ndarray ==``, so equality of requests is
    equality of the scheduling problem.  ``etc_identity`` is derived
    from ``etc`` on construction, which keeps
    ``dataclasses.replace`` and pickling working unchanged.
    """

    kind: str
    heuristic: str = "min-min"
    ties: str = "deterministic"
    seed: int = 0
    seeded: bool = False
    backend: str = "incremental"
    max_iterations: int | None = None
    #: The validated inline instance, or ``None`` when the request
    #: carries an ensemble spec.
    etc: ETCMatrix | None = field(default=None, compare=False, repr=False)
    #: Canonical ensemble spec, or ``None`` for inline-instance kinds.
    ensemble: dict | None = None
    # -- non-identity fields -------------------------------------------
    trace: bool = False
    request_id: str | None = field(default=None, compare=False)
    #: ``(shape, values SHA-256, task labels, machine labels)`` of
    #: ``etc``, or ``None`` without one.
    etc_identity: tuple | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.etc is not None:
            object.__setattr__(
                self,
                "etc_identity",
                (self.etc.shape, etc_digest(self.etc), self.etc.tasks,
                 self.etc.machines),
            )

    def etc_matrix(self) -> ETCMatrix:
        """The validated inline instance."""
        if self.etc is None:
            raise ServeError(f"request kind {self.kind!r} has no inline ETC")
        return self.etc


def _require(condition: bool, message: str, *args) -> None:
    """Raise a :class:`RequestValidationError` unless ``condition``.

    ``message`` is a :meth:`str.format` template filled from ``args``
    only on failure, so a valid request never pays for the ``repr`` of
    a large payload value.
    """
    if not condition:
        raise RequestValidationError(message.format(*args))


def _parse_int(payload: dict, name: str, default: int) -> int:
    value = payload.get(name, default)
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        "{!r} must be an integer, got {!r}", name, value,
    )
    return value


def _parse_bool(payload: dict, name: str, default: bool) -> bool:
    value = payload.get(name, default)
    _require(
        isinstance(value, bool), "{!r} must be a boolean, got {!r}", name, value
    )
    return value


def _parse_labels(spec: dict, name: str) -> list[str] | None:
    """Optional ``etc.tasks``/``etc.machines``: a JSON array of strings.

    Checked here because :class:`ETCMatrix` coerces any iterable of
    labels with ``str()`` (a string would split into characters, a
    number would alias its decimal string in the cache key).
    """
    if name not in spec:
        return None
    labels = spec[name]
    _require(
        isinstance(labels, list) and all(isinstance(x, str) for x in labels),
        "'etc.{}' must be an array of strings, got {!r}", name, labels,
    )
    return labels


def _parse_etc(spec) -> ETCMatrix:
    """Inline instance → validated :class:`ETCMatrix`.

    Accepts the JSON form (``values`` + optional ``tasks``/``machines``
    labels) or a CSV payload (``{"csv": "..."}``), each routed through
    the library's own validation so the 400 catalogue is exactly the
    :class:`~repro.exceptions.ETCError` contracts.
    """
    _require(isinstance(spec, dict), "'etc' must be an object, got {!r}", spec)
    has_csv = "csv" in spec
    has_values = "values" in spec
    _require(
        has_csv != has_values,
        "'etc' needs exactly one of 'csv' or 'values'",
    )
    try:
        if has_csv:
            _require(
                isinstance(spec["csv"], str), "'etc.csv' must be a CSV string"
            )
            unknown = set(spec) - {"csv"}
            _require(not unknown, "unknown 'etc' field(s): {}", sorted(unknown))
            return etc_io.from_csv(spec["csv"])
        unknown = set(spec) - {"values", "tasks", "machines"}
        _require(not unknown, "unknown 'etc' field(s): {}", sorted(unknown))
        return ETCMatrix(
            spec["values"],
            tasks=_parse_labels(spec, "tasks"),
            machines=_parse_labels(spec, "machines"),
        )
    except RequestValidationError:
        raise
    except ReproError as exc:
        raise RequestValidationError(f"invalid ETC payload: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise RequestValidationError(f"invalid ETC payload: {exc}") from exc


def _parse_ensemble(spec) -> dict:
    """Generation spec → canonical ensemble dict (enum values checked)."""
    _require(
        isinstance(spec, dict), "'ensemble' must be an object, got {!r}", spec
    )
    unknown = set(spec) - _ENSEMBLE_FIELDS
    _require(not unknown, "unknown 'ensemble' field(s): {}", sorted(unknown))
    tasks = _parse_int(spec, "tasks", 40)
    machines = _parse_int(spec, "machines", 8)
    instances = _parse_int(spec, "instances", 10)
    _require(tasks >= 1, "'ensemble.tasks' must be >= 1, got {}", tasks)
    _require(machines >= 1, "'ensemble.machines' must be >= 1, got {}", machines)
    _require(
        instances >= 1, "'ensemble.instances' must be >= 1, got {}", instances
    )
    heterogeneity = spec.get("heterogeneity", Heterogeneity.HIHI.value)
    try:
        heterogeneity = Heterogeneity(heterogeneity).value
    except ValueError:
        raise RequestValidationError(
            f"unknown heterogeneity {heterogeneity!r}; choose from "
            f"{[h.value for h in Heterogeneity]}"
        ) from None
    consistency = spec.get("consistency", Consistency.INCONSISTENT.value)
    try:
        consistency = Consistency(consistency).value
    except ValueError:
        raise RequestValidationError(
            f"unknown consistency {consistency!r}; choose from "
            f"{[c.value for c in Consistency]}"
        ) from None
    method = spec.get("method", "range")
    _require(
        method in GENERATION_METHODS,
        "unknown generation method {!r}; choose from {}",
        method, list(GENERATION_METHODS),
    )
    return {
        "tasks": tasks,
        "machines": machines,
        "instances": instances,
        "heterogeneity": heterogeneity,
        "consistency": consistency,
        "method": method,
    }


def parse_request(payload) -> ScheduleRequest:
    """Validate one JSON payload into a :class:`ScheduleRequest`.

    Raises :class:`RequestValidationError` on every malformed input —
    unknown fields are rejected rather than ignored, so a typoed knob
    cannot silently fall back to its default.
    """
    from repro.heuristics import heuristic_names
    from repro.heuristics.backends import backend_names

    _require(isinstance(payload, dict), "request body must be a JSON object")
    schema = payload.get("schema", REQUEST_SCHEMA)
    _require(
        schema == REQUEST_SCHEMA,
        "unsupported request schema {!r} (expected {!r})",
        schema, REQUEST_SCHEMA,
    )
    unknown = set(payload) - _KNOWN_FIELDS
    _require(not unknown, "unknown request field(s): {}", sorted(unknown))

    kind = payload.get("kind")
    _require(
        kind in REQUEST_KINDS,
        "'kind' must be one of {}, got {!r}", list(REQUEST_KINDS), kind,
    )

    heuristic = payload.get("heuristic", "min-min")
    heuristics = heuristic_names()
    _require(
        heuristic in heuristics,
        "unknown heuristic {!r}; known: {}", heuristic, list(heuristics),
    )
    ties = payload.get("ties", "deterministic")
    _require(
        ties in _TIE_POLICIES,
        "unknown tie policy {!r}; choose from {}", ties, list(_TIE_POLICIES),
    )
    backend = payload.get("backend", "incremental")
    backends = backend_names()
    _require(
        backend in backends,
        "unknown backend {!r}; known: {}", backend, list(backends),
    )
    seed = _parse_int(payload, "seed", 0)
    _require(seed >= 0, "'seed' must be >= 0, got {}", seed)
    seeded = _parse_bool(payload, "seeded", False)
    trace = _parse_bool(payload, "trace", False)

    max_iterations = payload.get("max_iterations")
    if max_iterations is not None:
        _require(
            isinstance(max_iterations, int)
            and not isinstance(max_iterations, bool)
            and max_iterations >= 1,
            "'max_iterations' must be an integer >= 1, got {!r}",
            max_iterations,
        )

    request_id = payload.get("request_id")
    _require(
        request_id is None or isinstance(request_id, str),
        "'request_id' must be a string, got {!r}", request_id,
    )

    has_etc = payload.get("etc") is not None
    has_ensemble = payload.get("ensemble") is not None
    if kind == "study":
        _require(has_ensemble, "'study' requests need an 'ensemble' spec")
        _require(not has_etc, "'study' requests take 'ensemble', not 'etc'")
        ensemble = _parse_ensemble(payload["ensemble"])
        etc = None
    else:
        _require(has_etc, "{!r} requests need an inline 'etc' instance", kind)
        _require(
            not has_ensemble, "{!r} requests take 'etc', not 'ensemble'", kind
        )
        ensemble = None
        etc = _parse_etc(payload["etc"])

    return ScheduleRequest(
        kind=kind,
        heuristic=heuristic,
        ties=ties,
        seed=seed,
        seeded=seeded,
        backend=backend,
        max_iterations=max_iterations,
        etc=etc,
        ensemble=ensemble,
        trace=trace,
        request_id=request_id,
    )


def request_identity(request: ScheduleRequest) -> dict:
    """The canonical result-determining dict of one request.

    Everything that changes the computed result is here; everything
    that only changes response presentation (``trace``, ``request_id``)
    is deliberately absent — the property the cache-keying test battery
    pins down.  An inline ETC appears as ``shape``, ``sha256`` (of the
    values' bytes, see :func:`etc_digest`), ``tasks`` and ``machines``.
    """
    from repro.heuristics.backends import get_backend

    identity = {
        "schema": REQUEST_SCHEMA,
        "kind": request.kind,
        "heuristic": request.heuristic,
        "ties": request.ties,
        "seed": request.seed,
        "seeded": request.seeded,
        "backend": get_backend(request.backend).name,
        "max_iterations": request.max_iterations,
    }
    if request.etc_identity is not None:
        shape, digest, tasks, machines = request.etc_identity
        identity["etc"] = {
            "shape": list(shape),
            "sha256": digest,
            "tasks": list(tasks),
            "machines": list(machines),
        }
    if request.ensemble is not None:
        identity["ensemble"] = dict(request.ensemble)
    return identity


def request_key(request: ScheduleRequest) -> str:
    """Content address of one request: the ledger's SHA-256 config hash."""
    from repro.obs.ledger import config_hash

    return config_hash(request_identity(request))
