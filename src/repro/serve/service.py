"""The scheduling service core: validate → cache-lookup → compute.

:class:`SchedulingService` is transport-agnostic — the HTTP layer
(:mod:`repro.serve.http`), the tests and the bench harness all drive
the same ``await service.handle(payload)`` entry point, which returns
``(http_status, response_dict)`` without ever touching a socket.

Execution model
---------------
Requests compute on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
(``max_workers``), with an ``max_pending`` admission cap: a request
arriving while ``max_pending`` are already in flight is rejected with
503 instead of queueing unboundedly — the same shed-instead-of-drown
policy as the rolling loop's admission control.

When a :class:`~repro.obs.tracer.CollectingTracer` is installed the
service runs traced requests *serially on the event-loop thread* under
an :class:`asyncio.Lock`: the tracer's span stack is LIFO and
deliberately not thread-safe (see :mod:`repro.obs.tracer`), so traced
mode trades concurrency for a single well-nested trace tree —
``serve.request`` spans with a ``serve.compute`` child only on cache
misses, which is exactly the property the smoke gate asserts.  Untraced
requests (the production default) fan out over the pool.

Caching
-------
Responses are cached content-addressed by
:func:`~repro.serve.models.request_key` (the ledger's SHA-256 config
hash over the request identity) in a
:class:`~repro.serve.cache.ResponseCache`; repeat requests are served
from disk without recomputation and counted as ``serve.cache_hits``.

Ledger
------
:meth:`SchedulingService.ledger_record` summarises one service session
(request/hit/error counts, latency percentiles) as a standard
``repro-ledger/1`` record; the CLI appends it per request batch and on
clean shutdown.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

from repro.exceptions import ConfigurationError, ReproError
from repro.serve.cache import DEFAULT_RESPONSE_CACHE_DIR, ResponseCache
from repro.serve.models import (
    RESPONSE_SCHEMA,
    OverloadError,
    RequestValidationError,
    ScheduleRequest,
    parse_request,
    request_identity,
    request_key,
)

__all__ = [
    "HIT_INDEX_MAX_BYTES",
    "STATS_SCHEMA",
    "SchedulingService",
    "execute_request",
]

#: ``/v1/stats`` payload format identifier.
STATS_SCHEMA = "repro-serve-stats/1"

#: Latency samples kept for the percentile window (ring buffer bound).
_LATENCY_WINDOW = 10_000

#: Byte cap of the raw-body hit index (stored responses, LRU-evicted).
HIT_INDEX_MAX_BYTES = 64 * 1024 * 1024

_log = logging.getLogger(__name__)


def _entry_signature(path: str) -> tuple[int, int, int] | None:
    """``(st_ino, st_size, st_mtime_ns)`` of a cache entry file, or
    ``None`` when it is missing.  Atomic replacement changes the inode
    and an in-place edit the size or modification time."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


def _mapping_payload(mapping) -> dict:
    return {
        "assignments": mapping.to_dict(),
        "finish_times": {
            m: round(t, 10) for m, t in mapping.machine_finish_times().items()
        },
        "makespan": mapping.makespan(),
    }


def _execute_map(request: ScheduleRequest) -> dict:
    from repro.core.ties import make_tie_breaker
    from repro.heuristics.backends import get_backend

    etc = request.etc_matrix()
    heuristic = get_backend(request.backend).make(request.heuristic, rng=request.seed)
    breaker = make_tie_breaker(request.ties, rng=request.seed)
    mapping = heuristic.map_tasks(etc, tie_breaker=breaker)
    return {
        "kind": "map",
        "heuristic": request.heuristic,
        "tasks": etc.num_tasks,
        "machines": etc.num_machines,
        **_mapping_payload(mapping),
    }


def _execute_iterate(request: ScheduleRequest) -> dict:
    from repro.core.iterative import IterativeScheduler
    from repro.core.metrics import compare_iterative
    from repro.core.seeding import SeededIterativeScheduler
    from repro.core.ties import make_tie_breaker
    from repro.heuristics.backends import get_backend

    etc = request.etc_matrix()
    heuristic = get_backend(request.backend).make(request.heuristic, rng=request.seed)
    breaker = make_tie_breaker(request.ties, rng=request.seed)
    scheduler_cls = (
        SeededIterativeScheduler if request.seeded else IterativeScheduler
    )
    result = scheduler_cls(heuristic, tie_breaker=breaker).run(
        etc, max_iterations=request.max_iterations
    )
    comparison = compare_iterative(result)
    rows, columns = result.commit_order()
    # The technique maps every task, so every row gets a machine.
    final_machine = [0] * etc.num_tasks
    for row, column in zip(rows, columns):
        final_machine[row] = column
    return {
        "kind": "iterate",
        "heuristic": request.heuristic,
        "seeded": request.seeded,
        "iterations": result.num_iterations,
        "makespans": list(result.makespans()),
        "removal_order": list(result.removal_order),
        "unfrozen": list(result.unfrozen),
        "makespan_increased": comparison.makespan_increased,
        "mapping_changed": comparison.mapping_changed,
        "original_makespan": comparison.original_makespan,
        "final_makespan": comparison.final_makespan,
        "machines": [
            {
                "machine": m.machine,
                "original": m.original,
                "iterative": m.iterative,
                "delta": m.delta,
            }
            for m in comparison.machines
        ],
        # ETC row order (the technique commits frozen machines first).
        "final_mapping": {
            task: etc.machines[j] for task, j in zip(etc.tasks, final_machine)
        },
    }


def _execute_study(request: ScheduleRequest) -> dict:
    from repro.analysis.study import improvement_study
    from repro.etc.generation import Consistency, Heterogeneity

    ensemble = request.ensemble
    rows = improvement_study(
        heuristics=(request.heuristic,),
        num_tasks=ensemble["tasks"],
        num_machines=ensemble["machines"],
        instances=ensemble["instances"],
        heterogeneity=Heterogeneity(ensemble["heterogeneity"]),
        consistency=Consistency(ensemble["consistency"]),
        tie_policies=(request.ties,),
        seeded_iterations=request.seeded,
        seed=request.seed,
        backend=request.backend,
        generation_method=ensemble["method"],
    )
    return {
        "kind": "study",
        "ensemble": dict(ensemble),
        "rows": [
            {
                "heuristic": r.heuristic,
                "tie_policy": r.tie_policy,
                "runs": r.runs,
                "mapping_change_rate": r.mapping_change_rate,
                "makespan_increase_rate": r.makespan_increase_rate,
                "machine_improved_rate": r.machine_improved_rate,
                "machine_worsened_rate": r.machine_worsened_rate,
                "mean_improvement": {
                    "n": r.mean_improvement.n,
                    "mean": r.mean_improvement.mean,
                    "std": r.mean_improvement.std,
                    "ci_low": r.mean_improvement.ci_low,
                    "ci_high": r.mean_improvement.ci_high,
                },
            }
            for r in rows
        ],
    }


_EXECUTORS = {
    "map": _execute_map,
    "iterate": _execute_iterate,
    "study": _execute_study,
}


def execute_request(request: ScheduleRequest) -> dict:
    """Compute one validated request's result dict (synchronously).

    Pure with respect to the request identity: two requests with equal
    :func:`~repro.serve.models.request_key` produce equal results,
    which is what makes the response cache sound.
    """
    return _EXECUTORS[request.kind](request)


def _percentile(sorted_samples: list[float], q: float) -> float:
    """The ``q``-quantile of ascending samples by nearest rank (0.0 when
    empty); the service's stats and the load harness both report it."""
    if not sorted_samples:
        return 0.0
    index = min(len(sorted_samples) - 1, int(q * len(sorted_samples)))
    return sorted_samples[index]


class SchedulingService:
    """Transport-agnostic request handler with caching and stats.

    Parameters
    ----------
    cache_dir:
        Response cache directory, or ``None`` to disable caching (every
        request recomputes; used by the bench reference variant).
    max_workers:
        Worker threads computing untraced requests.
    max_pending:
        Admission cap — in-flight requests beyond this are shed (503).
    """

    def __init__(
        self,
        cache_dir: str | None = DEFAULT_RESPONSE_CACHE_DIR,
        *,
        max_workers: int = 4,
        max_pending: int = 64,
    ) -> None:
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self.cache = ResponseCache(cache_dir) if cache_dir is not None else None
        self.max_workers = max_workers
        self.max_pending = max_pending
        self._pool: ThreadPoolExecutor | None = None
        self._trace_lock = asyncio.Lock()
        self._inflight = 0
        self._started = time.perf_counter()
        self._ledger_mark = 0
        self.counts = {
            "requests": 0,
            "cache_hits": 0,
            "computed": 0,
            "validation_errors": 0,
            "execution_errors": 0,
            "shed": 0,
            "fast_hits": 0,
        }
        self.by_kind: dict[str, int] = {}
        self._latencies_ms: list[float] = []
        #: digest → (cache entry path, kind, response bytes, entry file
        #: signature), oldest use first.
        self._hit_index: OrderedDict[
            bytes, tuple[str, str, bytes, tuple[int, int, int]]
        ] = OrderedDict()
        self._hit_index_bytes = 0

    # -- internals -----------------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-serve"
            )
        return self._pool

    def _record_latency(self, elapsed_s: float) -> None:
        self._latencies_ms.append(elapsed_s * 1e3)
        if len(self._latencies_ms) > _LATENCY_WINDOW:
            del self._latencies_ms[: -_LATENCY_WINDOW]

    def _response(self, request: ScheduleRequest, key: str, result: dict,
                  *, cached: bool) -> dict:
        response = {
            "schema": RESPONSE_SCHEMA,
            "key": key,
            "cached": cached,
            "result": result,
        }
        if request.request_id is not None:
            response["request_id"] = request.request_id
        return response

    async def _compute(self, request: ScheduleRequest) -> dict:
        """Run :func:`execute_request` traced-serial or pooled."""
        from repro.obs.tracer import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            # The collecting tracer's span stack is not thread-safe;
            # traced mode serialises on the loop thread so every
            # request yields one well-nested serve.request tree.
            with tracer.span("serve.compute", kind=request.kind,
                             heuristic=request.heuristic):
                return execute_request(request)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor(), execute_request, request
        )

    def _index_digest(self, path: str, body: bytes) -> bytes | None:
        """Hit-index address of one POST, or ``None`` when the index is
        bypassed (no response cache, or a tracer is enabled)."""
        from repro.obs.tracer import get_tracer

        if self.cache is None or get_tracer().enabled:
            return None
        return hashlib.blake2b(path.encode("ascii") + b" " + body).digest()

    def _unindex(self, digest: bytes) -> None:
        entry = self._hit_index.pop(digest, None)
        if entry is not None:
            self._hit_index_bytes -= len(entry[2])

    # -- public surface ------------------------------------------------
    def fast_hit(self, path: str, body: bytes) -> bytes | None:
        """The stored response for an indexed repeat of ``body`` on
        ``path``, or ``None`` to take the normal path.

        A fast hit is accounted like any cache hit (``requests``,
        ``cache_hits``, ``by_kind``, the latency window) plus
        ``fast_hits``.  Unknown bytes, a service at its admission cap
        (the normal path then sheds it) and a cache entry deleted,
        replaced or edited since the bytes were indexed (one ``stat``
        against the recorded signature) all return ``None``.
        """
        started = time.perf_counter()
        digest = self._index_digest(path, body)
        entry = self._hit_index.get(digest)
        if entry is None or self._inflight >= self.max_pending:
            return None
        entry_path, kind, encoded, signature = entry
        if _entry_signature(entry_path) != signature:
            self._unindex(digest)
            return None
        self._hit_index.move_to_end(digest)
        self.counts["requests"] += 1
        self.counts["cache_hits"] += 1
        self.counts["fast_hits"] += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self._record_latency(time.perf_counter() - started)
        return encoded

    def remember(self, path: str, body: bytes, status: int, response: dict,
                 encoded: bytes) -> None:
        """Index ``encoded``, the bytes sent for ``body`` on ``path``,
        if they answered a ``cached: true`` 200; anything else is
        ignored."""
        if status != 200 or response.get("cached") is not True:
            return
        digest = self._index_digest(path, body)
        if digest is None:
            return
        self._unindex(digest)
        entry_path = os.fspath(self.cache.path_for(response["key"]))
        signature = _entry_signature(entry_path)
        if signature is None:
            return
        self._hit_index[digest] = (
            entry_path, response["result"]["kind"], encoded, signature
        )
        self._hit_index_bytes += len(encoded)
        while self._hit_index_bytes > HIT_INDEX_MAX_BYTES:
            _, (_, _, evicted, _) = self._hit_index.popitem(last=False)
            self._hit_index_bytes -= len(evicted)

    async def handle(self, payload) -> tuple[int, dict]:
        """Serve one request payload; returns ``(status, response)``.

        Never raises for request-level failures — validation problems
        come back as 400, execution failures as 500 and overload as
        503, each in the documented error envelope — so one broken
        request can never take down the connection loop.
        """
        from repro.obs.tracer import get_tracer

        tracer = get_tracer()
        started = time.perf_counter()
        if self._inflight >= self.max_pending:
            self.counts["shed"] += 1
            error = OverloadError(
                f"service at capacity ({self.max_pending} request(s) in "
                "flight); retry later"
            )
            return 503, _error_body("overload", error)
        self._inflight += 1
        self.counts["requests"] += 1
        tracer.count("serve.requests")
        try:
            if tracer.enabled:
                async with self._trace_lock:
                    with tracer.span("serve.request"):
                        status, response = await self._handle_inner(payload)
            else:
                status, response = await self._handle_inner(payload)
            return status, response
        finally:
            self._inflight -= 1
            self._record_latency(time.perf_counter() - started)

    async def _handle_inner(self, payload) -> tuple[int, dict]:
        from repro.obs.tracer import get_tracer

        tracer = get_tracer()
        try:
            request = parse_request(payload)
        except RequestValidationError as exc:
            self.counts["validation_errors"] += 1
            tracer.count("serve.validation_errors")
            return 400, _error_body("validation", exc)
        self.by_kind[request.kind] = self.by_kind.get(request.kind, 0) + 1
        key = request_key(request)
        if self.cache is not None:
            try:
                result = self.cache.load(key)
            except ConfigurationError as exc:
                self.counts["execution_errors"] += 1
                return 500, _error_body("execution", exc)
            if result is not None:
                self.counts["cache_hits"] += 1
                tracer.count("serve.cache_hits")
                return 200, self._response(request, key, result, cached=True)
        try:
            result = await self._compute(request)
        except Exception as exc:
            # Any compute failure, not only a ReproError, is the
            # documented 500: the connection must still get a body.
            self.counts["execution_errors"] += 1
            tracer.count("serve.execution_errors")
            if isinstance(exc, ReproError):
                return 500, _error_body("execution", exc)
            _log.exception("request %s failed unexpectedly", key)
            return 500, _error_body(
                "execution", f"{type(exc).__name__}: {exc}"
            )
        self.counts["computed"] += 1
        tracer.count("serve.computed")
        if self.cache is not None:
            self.cache.store(key, request_identity(request), result)
        return 200, self._response(request, key, result, cached=False)

    def stats(self) -> dict:
        """The ``/v1/stats`` payload (schema ``repro-serve-stats/1``)."""
        window = sorted(self._latencies_ms)
        return {
            "schema": STATS_SCHEMA,
            "uptime_s": round(time.perf_counter() - self._started, 3),
            "inflight": self._inflight,
            "max_pending": self.max_pending,
            "max_workers": self.max_workers,
            "cache_dir": str(self.cache.root) if self.cache else None,
            "counts": dict(self.counts),
            "by_kind": dict(self.by_kind),
            "latency_ms": {
                "count": len(window),
                "p50": round(_percentile(window, 0.50), 3),
                "p95": round(_percentile(window, 0.95), 3),
                "max": round(max(window), 3) if window else 0.0,
            },
        }

    def ledger_record(self, *, config: dict | None = None) -> dict | None:
        """One ``repro-ledger/1`` record for the requests since the last
        call, or ``None`` when no new request arrived (nothing to log).
        """
        from repro.obs.ledger import build_record

        if self.counts["requests"] == self._ledger_mark:
            return None
        self._ledger_mark = self.counts["requests"]
        stats = self.stats()
        metrics = {
            "serve.requests": stats["counts"]["requests"],
            "serve.cache_hits": stats["counts"]["cache_hits"],
            "serve.computed": stats["counts"]["computed"],
            "serve.errors": (
                stats["counts"]["validation_errors"]
                + stats["counts"]["execution_errors"]
            ),
            "serve.shed": stats["counts"]["shed"],
            "serve.latency_p50_ms": stats["latency_ms"]["p50"],
            "serve.latency_p95_ms": stats["latency_ms"]["p95"],
        }
        return build_record(
            "serve",
            config=dict(config or {}),
            metrics=metrics,
            duration_s=stats["uptime_s"],
            extra={"stats": stats},
        )

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def _error_body(error_type: str, exc: Exception | str) -> dict:
    """The documented error envelope (see docs/serving.md)."""
    return {"error": {"type": error_type, "message": str(exc)}}
