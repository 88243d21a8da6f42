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
* ``scenarios`` — reserved for multi-scenario payloads (Bosman et al.,
  arXiv 2402.19259): structurally validated and part of the cache
  identity today, rejected as unimplemented when non-empty;
* ``trace`` / ``request_id`` — *non-identity* fields: they change what
  a response carries, never what is computed.

Validation reuses the library contracts directly: inline matrices go
through :class:`~repro.etc.matrix.ETCMatrix` (shape/finiteness/
positivity → :class:`~repro.exceptions.ETCShapeError` /
:class:`~repro.exceptions.ETCValueError`) and CSV payloads through
:func:`repro.etc.io.from_csv` (label strip/duplicate rules).  Any such
failure surfaces as :class:`RequestValidationError` with the underlying
message preserved, so the HTTP layer can map it to a 400 without
inventing a second validation path.

:func:`request_key` is the service's cache address: the run ledger's
SHA-256 :func:`~repro.obs.ledger.config_hash` over
:func:`request_identity` — the canonical dict of every
*result-determining* field and nothing else.  Two requests that differ
only in ``trace`` verbosity or ``request_id`` share a key; any change
to the ETC values, heuristic, tie policy, seed, backend or ensemble
spec misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

#: Heuristics whose factories require an ``rng`` (mirrors the CLI).
_STOCHASTIC_HEURISTICS = frozenset(
    {"genitor", "random", "simulated-annealing", "tabu-search"}
)

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
        "scenarios",
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


@dataclass(frozen=True)
class ScheduleRequest:
    """One validated, canonicalised schedule request.

    Inline matrices are stored in canonical label+values form (whatever
    the wire encoding — CSV text and JSON values canonicalise to the
    same tuple structure), so equality of the stored form is equality
    of the scheduling problem.
    """

    kind: str
    heuristic: str = "min-min"
    ties: str = "deterministic"
    seed: int = 0
    seeded: bool = False
    backend: str = "incremental"
    max_iterations: int | None = None
    #: Canonical inline instance: (values rows, task labels, machine
    #: labels), or ``None`` when the request carries an ensemble spec.
    etc_values: tuple[tuple[float, ...], ...] | None = None
    etc_tasks: tuple[str, ...] | None = None
    etc_machines: tuple[str, ...] | None = None
    #: Canonical ensemble spec, or ``None`` for inline-instance kinds.
    ensemble: dict | None = None
    #: Reserved multi-scenario payload (must be empty for now).
    scenarios: tuple = ()
    # -- non-identity fields -------------------------------------------
    trace: bool = False
    request_id: str | None = field(default=None, compare=False)

    def etc_matrix(self) -> ETCMatrix:
        """Rebuild the validated inline instance."""
        if self.etc_values is None:
            raise ServeError(f"request kind {self.kind!r} has no inline ETC")
        return ETCMatrix(
            [list(row) for row in self.etc_values],
            tasks=list(self.etc_tasks) if self.etc_tasks else None,
            machines=list(self.etc_machines) if self.etc_machines else None,
        )


def _fail(message: str) -> RequestValidationError:
    return RequestValidationError(message)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _fail(message)


def _parse_int(payload: dict, name: str, default: int) -> int:
    value = payload.get(name, default)
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name!r} must be an integer, got {value!r}",
    )
    return value


def _parse_bool(payload: dict, name: str, default: bool) -> bool:
    value = payload.get(name, default)
    _require(isinstance(value, bool), f"{name!r} must be a boolean, got {value!r}")
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
        f"'etc.{name}' must be an array of strings, got {labels!r}",
    )
    return labels


def _parse_etc(spec) -> ETCMatrix:
    """Inline instance → validated :class:`ETCMatrix`.

    Accepts the JSON form (``values`` + optional ``tasks``/``machines``
    labels) or a CSV payload (``{"csv": "..."}``), each routed through
    the library's own validation so the 400 catalogue is exactly the
    :class:`~repro.exceptions.ETCError` contracts.
    """
    _require(isinstance(spec, dict), f"'etc' must be an object, got {spec!r}")
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
            _require(not unknown, f"unknown 'etc' field(s): {sorted(unknown)}")
            return etc_io.from_csv(spec["csv"])
        unknown = set(spec) - {"values", "tasks", "machines"}
        _require(not unknown, f"unknown 'etc' field(s): {sorted(unknown)}")
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
    _require(isinstance(spec, dict), f"'ensemble' must be an object, got {spec!r}")
    unknown = set(spec) - _ENSEMBLE_FIELDS
    _require(not unknown, f"unknown 'ensemble' field(s): {sorted(unknown)}")
    tasks = _parse_int(spec, "tasks", 40)
    machines = _parse_int(spec, "machines", 8)
    instances = _parse_int(spec, "instances", 10)
    _require(tasks >= 1, f"'ensemble.tasks' must be >= 1, got {tasks}")
    _require(machines >= 1, f"'ensemble.machines' must be >= 1, got {machines}")
    _require(instances >= 1, f"'ensemble.instances' must be >= 1, got {instances}")
    heterogeneity = spec.get("heterogeneity", Heterogeneity.HIHI.value)
    try:
        heterogeneity = Heterogeneity(heterogeneity).value
    except ValueError:
        raise _fail(
            f"unknown heterogeneity {heterogeneity!r}; choose from "
            f"{[h.value for h in Heterogeneity]}"
        ) from None
    consistency = spec.get("consistency", Consistency.INCONSISTENT.value)
    try:
        consistency = Consistency(consistency).value
    except ValueError:
        raise _fail(
            f"unknown consistency {consistency!r}; choose from "
            f"{[c.value for c in Consistency]}"
        ) from None
    method = spec.get("method", "range")
    _require(
        method in GENERATION_METHODS,
        f"unknown generation method {method!r}; choose from "
        f"{list(GENERATION_METHODS)}",
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
        f"unsupported request schema {schema!r} (expected {REQUEST_SCHEMA!r})",
    )
    unknown = set(payload) - _KNOWN_FIELDS
    _require(not unknown, f"unknown request field(s): {sorted(unknown)}")

    kind = payload.get("kind")
    _require(
        kind in REQUEST_KINDS,
        f"'kind' must be one of {list(REQUEST_KINDS)}, got {kind!r}",
    )

    heuristic = payload.get("heuristic", "min-min")
    _require(
        heuristic in heuristic_names(),
        f"unknown heuristic {heuristic!r}; known: {list(heuristic_names())}",
    )
    ties = payload.get("ties", "deterministic")
    _require(
        ties in _TIE_POLICIES,
        f"unknown tie policy {ties!r}; choose from {list(_TIE_POLICIES)}",
    )
    backend = payload.get("backend", "incremental")
    _require(
        backend in backend_names(),
        f"unknown backend {backend!r}; known: {list(backend_names())}",
    )
    seed = _parse_int(payload, "seed", 0)
    seeded = _parse_bool(payload, "seeded", False)
    trace = _parse_bool(payload, "trace", False)

    max_iterations = payload.get("max_iterations")
    if max_iterations is not None:
        _require(
            isinstance(max_iterations, int)
            and not isinstance(max_iterations, bool)
            and max_iterations >= 1,
            f"'max_iterations' must be an integer >= 1, got {max_iterations!r}",
        )

    request_id = payload.get("request_id")
    _require(
        request_id is None or isinstance(request_id, str),
        f"'request_id' must be a string, got {request_id!r}",
    )

    scenarios = payload.get("scenarios", [])
    _require(
        isinstance(scenarios, list),
        f"'scenarios' must be a list, got {scenarios!r}",
    )
    _require(
        not scenarios,
        "multi-scenario payloads are reserved but not implemented yet "
        "(see ROADMAP.md: scenario-set scheduling)",
    )

    has_etc = payload.get("etc") is not None
    has_ensemble = payload.get("ensemble") is not None
    if kind == "study":
        _require(has_ensemble, "'study' requests need an 'ensemble' spec")
        _require(not has_etc, "'study' requests take 'ensemble', not 'etc'")
        ensemble = _parse_ensemble(payload["ensemble"])
        etc = None
    else:
        _require(has_etc, f"{kind!r} requests need an inline 'etc' instance")
        _require(
            not has_ensemble, f"{kind!r} requests take 'etc', not 'ensemble'"
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
        etc_values=(
            tuple(tuple(float(v) for v in row) for row in etc.values.tolist())
            if etc is not None
            else None
        ),
        etc_tasks=tuple(etc.tasks) if etc is not None else None,
        etc_machines=tuple(etc.machines) if etc is not None else None,
        ensemble=ensemble,
        scenarios=tuple(scenarios),
        trace=trace,
        request_id=request_id,
    )


def request_identity(request: ScheduleRequest) -> dict:
    """The canonical result-determining dict of one request.

    Everything that changes the computed result is here; everything
    that only changes response presentation (``trace``, ``request_id``)
    is deliberately absent — the property the cache-keying test battery
    pins down.
    """
    identity = {
        "schema": REQUEST_SCHEMA,
        "kind": request.kind,
        "heuristic": request.heuristic,
        "ties": request.ties,
        "seed": request.seed,
        "seeded": request.seeded,
        "backend": request.backend,
        "max_iterations": request.max_iterations,
        "scenarios": list(request.scenarios),
    }
    if request.etc_values is not None:
        identity["etc"] = {
            "values": [list(row) for row in request.etc_values],
            "tasks": list(request.etc_tasks),
            "machines": list(request.etc_machines),
        }
    if request.ensemble is not None:
        identity["ensemble"] = dict(request.ensemble)
    return identity


def request_key(request: ScheduleRequest) -> str:
    """Content address of one request: the ledger's SHA-256 config hash."""
    from repro.obs.ledger import config_hash

    return config_hash(request_identity(request))
