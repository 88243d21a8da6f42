"""Resumable experiment execution with on-disk result caching.

:func:`run_grid` is the one execution path for experiment grids: it
splits the grid into (heterogeneity, consistency) cells
(:func:`repro.analysis.parallel.split_into_cells`), runs them serially
or on a process pool, and — given a cache directory — keeps completed
work across interrupted runs:

* **Content-addressed cells.**  Every cell sub-config is hashed with
  the run ledger's :func:`~repro.obs.ledger.config_hash` scheme
  (SHA-256 over the canonical JSON of the ETC-instance seed, heuristic
  configuration and iterative parameters), so a cell's cache key is
  stable across processes, machines and grid shapes — the same cell in
  a bigger grid hits the same cache entry.
* **Persist-as-you-go.**  Completed cell results are written to an
  on-disk cache (default ``.repro/cells/``) the moment they finish,
  atomically (write-temp + rename), so a killed or crashed run leaves
  only whole cell entries behind.  Re-running with ``resume=True``
  serves those cells from cache and computes only the remainder;
  cached records are byte-identical to recomputed ones (asserted by
  the integration suite).
* **Work-stealing queue.**  The uncached cells are submitted in grid
  order to the process pool, whose shared queue lets idle workers take
  the next cell — heterogeneous cell costs cannot strand a worker on a
  long tail.
* **Timeouts and quarantine.**  A per-cell wall-clock timeout (pooled
  mode) and bounded retries turn a pathological cell into a *poisoned*
  cell — recorded in the cache as ``<key>.poison.json`` and skipped on
  resume — instead of hanging the whole grid.
* **Zero-copy store transport.**  With ``store_dir`` set, cell inputs
  flow through a memory-mapped :class:`~repro.etc.store.ETCStore`
  instead of being regenerated (or pickled) per worker: the parent
  *publishes* each pending cell's instance stack once — streamed in
  bounded windows via
  :func:`~repro.etc.generation.generate_ensemble_into`, so grid size is
  limited by disk, not RAM — and the pool ships only tiny
  ``(cell config, store root)`` descriptors.  Persistent workers attach
  the store once (module-level handle cache) and read every instance as
  a read-only ``numpy.memmap`` view through the trusted zero-copy
  constructors.  Entries are content-addressed with the cell cache's
  SHA-256 scheme over the *instance-generation* parameters alone
  (:func:`store_entry_key`), so published stacks are reused across
  resumes and by any grid sharing the ETC class — even when heuristics
  differ.  Records, cache entries and traced cell
  snapshots are byte-identical to the in-memory path (transport-only
  ``store.*`` / ``runner.ipc.*`` parent-side counters excepted) —
  asserted by the transport test battery.
* **Observability.**  The runner counts ``runner.cells.cached`` /
  ``runner.cells.computed`` / ``runner.cells.retried`` /
  ``runner.cells.quarantined`` and fills the ``runner.cell_wall_s``
  histogram on the caller's tracer; per-cell worker snapshots merge in
  cell order exactly like the old engine, so traced grid runs stay
  deterministic.  Cached cells store their worker snapshot in the
  cache (JSONL-export schema), so a resumed run under a tracer merges
  the same per-cell event streams a fresh run would produce (modulo
  JSON's tuple/list conflation in event fields — the documented export
  round-trip contract).
* **Span timelines and time-series.**  In cache mode the whole run
  executes under one ``runner.grid`` span whose
  :class:`~repro.obs.spans.SpanContext` rides to every worker in the
  submission payload, so the merged snapshots form a single trace tree
  (publish → worker attach → cell compute → persist) renderable with
  ``repro obs timeline``; ``timeseries=`` streams a
  ``repro-timeseries/1`` JSONL of throughput, cache-hit and queue-depth
  samples (:mod:`repro.obs.timeseries`) while the run progresses.

Typical use::

    from repro.analysis.runner import run_grid

    result = run_grid(config, cache_dir=".repro/cells", resume=True)
    result.records          # one RunRecord per (heuristic, instance), grid order
    result.cached_cells     # how many cells were served from cache

The ``repro run-grid`` CLI subcommand wraps this engine end to end.
"""

from __future__ import annotations

import functools
import json
import pickle
import time
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.analysis.experiments import (
    ExperimentConfig,
    RunRecord,
    cell_instance_rng,
    config_to_dict,
    run_experiment,
    run_record_from_dict,
    run_record_to_dict,
)
from repro.analysis.parallel import split_into_cells
from repro.etc.generation import DEFAULT_STREAM_WINDOW, generate_ensemble_into
from repro.etc.store import ETCStore
from repro.exceptions import ConfigurationError, ReproError
from repro.obs.export import records_to_snapshot, snapshot_to_jsonl
from repro.obs.ledger import EntryStore, config_hash
from repro.obs.metrics import BYTE_BUCKETS, TIME_BUCKETS
from repro.obs.progress import NULL_PROGRESS
from repro.obs.spans import SpanContext
from repro.obs.timeseries import GridSampler
from repro.obs.tracer import (
    CollectingTracer,
    ObsSnapshot,
    get_tracer,
    use_tracer,
)

__all__ = [
    "CELL_SCHEMA",
    "POISON_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "cell_key",
    "cell_label",
    "store_entry_key",
    "CellCache",
    "CellTimeoutError",
    "QuarantinedCell",
    "GridResult",
    "run_grid",
]

#: Cache entry format identifier; bump when the JSON layout changes.
CELL_SCHEMA = "repro-cell/1"

#: Poison marker format identifier.
POISON_SCHEMA = "repro-cell-poison/1"

#: Default cell cache location, next to the run ledger under ``.repro/``.
DEFAULT_CACHE_DIR = ".repro/cells"

#: Default bounded-retry budget per cell before it is quarantined.
DEFAULT_RETRIES = 1


class CellTimeoutError(ReproError):
    """A cell exceeded its per-cell wall-clock timeout."""


def cell_key(config: ExperimentConfig) -> str:
    """Content address of one cell: the ledger's SHA-256 config hash.

    The hash covers everything that determines the cell's records —
    the ETC-instance seed, grid shape, heuristic configuration and
    iterative parameters — and nothing that does not (worker counts,
    cache paths), so re-running the same science always
    hits the same entry.
    """
    return config_hash(config_to_dict(config))


def cell_label(config: ExperimentConfig) -> str:
    """Human label ``het/cons`` of a single-cell sub-config."""
    return (
        f"{config.heterogeneities[0].value}/{config.consistencies[0].value}"
        if config.heterogeneities and config.consistencies
        else "?"
    )


def store_entry_key(config: ExperimentConfig, het, cons) -> str:
    """Content address of one cell's instance ensemble in the ETC store.

    Hashes only what determines the generated instances — seed, matrix
    shape, instance count, generation method and the ETC class — with
    the same SHA-256 scheme as :func:`cell_key`.  Heuristic
    configuration is deliberately excluded: grids that differ only in
    heuristics or iterative parameters share published instance stacks.
    """
    return config_hash(
        {
            "kind": "etc-ensemble/1",
            "seed": config.seed,
            "num_tasks": config.num_tasks,
            "num_machines": config.num_machines,
            "count": config.instances_per_cell,
            "method": config.generation_method,
            "heterogeneity": het.value,
            "consistency": cons.value,
        }
    )


#: Worker-side store handle cache: root path -> attached read-only
#: :class:`~repro.etc.store.ETCStore`.  Persistent pool workers (and the
#: serial in-process path) attach each store at most once, however many
#: cells read from it.
_WORKER_STORES: dict[str, ETCStore] = {}


def _attached_store(root: str) -> ETCStore:
    store = _WORKER_STORES.get(root)
    if store is None:
        store = ETCStore(root, create=False)
        _WORKER_STORES[root] = store
    return store


def _detach_stores(root: str | None = None) -> None:
    """Close cached store attachments (one root, or all with ``None``).

    Releases the mmap windows held by this process; safe for roots that
    were never attached.  The parent calls this in ``run_grid``'s
    cleanup path so serial store-backed runs pin no mappings afterwards.
    """
    roots = [root] if root is not None else list(_WORKER_STORES)
    for key in roots:
        store = _WORKER_STORES.pop(key, None)
        if store is not None:
            store.close()


def _run_cell_from_store(
    config: ExperimentConfig, store_root: str
) -> list[RunRecord]:
    """Worker entry point of the store transport (module-level picklable).

    Attaches the store once per process (:data:`_WORKER_STORES`) and
    serves the cell's instances as read-only memmap views through
    ``run_experiment(instances_for=...)`` — nothing larger than the cell
    config and the store root ever crosses the process boundary.
    """
    tracer = get_tracer()
    with tracer.phase("store.attach"):
        store = _attached_store(store_root)

    def instances_for(het, cons):
        key = store_entry_key(config, het, cons)
        with tracer.phase("store.read", entry=key[:12]):
            if key not in store:
                # Published after this handle last read the manifest
                # (persistent worker or serial in-process reuse).
                store.reload()
            return store.instances(key)

    return run_experiment(config, instances_for=instances_for)


# ----------------------------------------------------------------------
# On-disk cell cache
# ----------------------------------------------------------------------
def _snapshot_to_records(snapshot: ObsSnapshot) -> list[dict]:
    """Snapshot → parsed JSONL-export records (the cacheable form)."""
    return [
        json.loads(line)
        for line in snapshot_to_jsonl(snapshot).splitlines()
        if line
    ]


@dataclass(frozen=True)
class CellEntry:
    """One deserialised cache hit."""

    key: str
    records: tuple[RunRecord, ...]
    snapshot: ObsSnapshot | None


class CellCache(EntryStore):
    """Content-addressed cell store under one directory.

    Entries are ``<key>.json`` (``repro-cell/1``); quarantined cells
    leave a ``<key>.poison.json`` marker instead.  All writes are
    atomic (temp file + ``os.replace``), so an interrupted run can
    never leave a torn entry for ``resume`` to trip over.
    """

    name = "cell cache"
    schema = CELL_SCHEMA
    body = "records"

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        super().__init__(root)

    def poison_path_for(self, key: str) -> Path:
        return self.root / f"{key}.poison.json"

    def store(
        self,
        key: str,
        config: ExperimentConfig,
        records: list[RunRecord],
        snapshot: ObsSnapshot | None,
    ) -> Path:
        """Persist one completed cell; returns the entry path.

        Spans are stripped from the persisted snapshot: they carry
        wall-clock values and run-local trace ids.  Without them the
        entries of two traced runs differ only in ``*_s`` histogram
        values (the convention documented beside ``TIME_BUCKETS``),
        and untraced entries are byte-identical across runs (the
        transport suite compares entry files from independent
        invocations).  A resumed run re-roots cached cells with a
        synthetic ``runner.cell.cached`` span instead.
        """
        if snapshot is not None and snapshot.spans:
            snapshot = replace(snapshot, spans=())
        payload = {
            "schema": CELL_SCHEMA,
            "key": key,
            "config": config_to_dict(config),
            "records": [run_record_to_dict(r) for r in records],
            "obs": _snapshot_to_records(snapshot) if snapshot is not None else None,
        }
        return self._write(self.path_for(key), payload)

    def load(self, key: str, *, need_obs: bool = False) -> CellEntry | None:
        """The cached entry for ``key``, or ``None`` on a miss.

        ``need_obs=True`` (a tracer is installed) additionally treats
        entries cached from an *untraced* run as misses, since they
        cannot replay the cell's event stream.
        """
        payload = self._read(key)
        if payload is None:
            return None
        obs = payload.get("obs")
        if need_obs and obs is None:
            return None
        return CellEntry(
            key=key,
            records=tuple(run_record_from_dict(d) for d in payload["records"]),
            snapshot=records_to_snapshot(obs) if obs is not None else None,
        )

    def poison(self, key: str, config: ExperimentConfig, error: str, attempts: int) -> Path:
        """Mark a cell quarantined so ``resume`` skips it."""
        return self._write(
            self.poison_path_for(key),
            {
                "schema": POISON_SCHEMA,
                "key": key,
                "config": config_to_dict(config),
                "error": error,
                "attempts": attempts,
            },
        )

    def is_poisoned(self, key: str) -> bool:
        return self.poison_path_for(key).is_file()

    def clear_poison(self, key: str) -> None:
        try:
            self.poison_path_for(key).unlink()
        except FileNotFoundError:
            pass

    def keys(self) -> list[str]:
        """All cached (non-poison) cell keys, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.stem
            for p in self.root.glob("*.json")
            if not p.name.endswith(".poison.json")
        )


# ----------------------------------------------------------------------
# The grid engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QuarantinedCell:
    """One cell the grid gave up on (timeout or repeated failure)."""

    label: str
    key: str
    error: str
    attempts: int


@dataclass(frozen=True)
class GridResult:
    """Outcome of one :func:`run_grid` invocation."""

    records: tuple[RunRecord, ...]
    total_cells: int
    cached_cells: int
    computed_cells: int
    retried: int
    quarantined: tuple[QuarantinedCell, ...] = ()
    #: Store transport bookkeeping (``store_dir`` runs only): ensembles
    #: streamed into the store this run vs served from existing entries.
    store_published: int = 0
    store_reused: int = 0
    #: Headline numbers of the time-series sampler (``timeseries``
    #: runs only): tasks_scheduled, tasks_per_s, cells_per_s, …
    timeseries_summary: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.quarantined


def _compute_cell(
    cell_fn: Callable[[ExperimentConfig], list[RunRecord]],
    config: ExperimentConfig,
    observed: bool,
    context: SpanContext | None = None,
) -> tuple[list[RunRecord], ObsSnapshot | None]:
    """Run one cell, optionally under a fresh isolated collector.

    This is the worker entry point (must stay module-level picklable);
    the serial cached path reuses it in-process so cache entries carry
    the same isolated snapshots either way.  ``context`` is the parent
    run's :class:`~repro.obs.spans.SpanContext` (cached mode only): the
    isolated collector adopts its trace id, and the cell runs under one
    ``runner.cell`` phase span parented at the grid root, so merged
    worker spans join the parent's trace tree.
    """
    if observed:
        tracer = CollectingTracer(context=context)
        with use_tracer(tracer):
            if context is not None:
                with tracer.phase("runner.cell", cell=cell_label(config)):
                    records = cell_fn(config)
            else:
                records = cell_fn(config)
        return records, tracer.snapshot()
    return cell_fn(config), None


@dataclass
class _CellWork:
    index: int
    config: ExperimentConfig
    key: str
    attempts: int = 0
    submitted_at: float = 0.0
    label: str = field(default="")

    def __post_init__(self) -> None:
        self.label = cell_label(self.config)


def run_grid(
    config: ExperimentConfig,
    *,
    max_workers: int | None = None,
    progress=None,
    cache_dir: str | Path | None = None,
    resume: bool = False,
    timeout_s: float | None = None,
    retries: int = DEFAULT_RETRIES,
    on_error: str = "quarantine",
    store_dir: str | Path | None = None,
    stream_chunk: int | None = None,
    timeseries: str | Path | None = None,
    sample_interval_s: float = 0.5,
    cell_fn: Callable[[ExperimentConfig], list[RunRecord]] = run_experiment,
) -> GridResult:
    """Execute an experiment grid cell-by-cell, resumably.

    Records come back in grid (cell) order regardless of completion
    order, so the output is bit-identical to a serial
    :func:`~repro.analysis.experiments.run_experiment` run.

    ``cache_dir=None`` disables persistence entirely (a one-shot run);
    with a cache directory, every completed cell is persisted as it
    finishes and ``resume=True`` serves previously completed cells from
    cache.  ``timeout_s`` bounds each cell attempt's wall clock in
    pooled mode (serial runs cannot be interrupted and ignore it).
    ``retries`` bounds re-attempts after a failure or timeout; what
    happens when the budget is exhausted depends on ``on_error``:

    * ``"quarantine"`` (default) — poison the cell (when a cache is
      configured), continue with the rest of the grid, and report it
      in :attr:`GridResult.quarantined`;
    * ``"raise"`` — re-raise the cell's original exception (what the
      ``study`` and ``export`` commands use).

    ``store_dir`` switches cell inputs onto the zero-copy store
    transport (see the module docstring): pending cells' ensembles are
    streamed into the :class:`~repro.etc.store.ETCStore` at that path
    once, and workers attach them as memmap views instead of
    regenerating instances.  ``stream_chunk`` bounds the publish
    window (instances held in RAM at a time; default
    ``DEFAULT_STREAM_WINDOW``) and requires ``store_dir``.  Records and
    cache entries are byte-identical to non-store runs.

    ``timeseries`` names a ``repro-timeseries/1`` JSONL file to stream
    run metrics into (throughput, cache hit rate, RSS, pool queue
    depth — see :mod:`repro.obs.timeseries`); ``sample_interval_s``
    throttles the sampling cadence (0 samples on every update).  The
    sampler writes only to its file, never to the tracer.

    When the caller's tracer is a cache-mode collector, the whole grid
    additionally runs under one ``runner.grid`` span whose
    :class:`~repro.obs.spans.SpanContext` is shipped to every worker,
    so the merged snapshots form a single trace tree — worker spans
    carry the parent's trace id, cached cells re-root as synthetic
    ``runner.cell.cached`` spans, and the merged tree is deterministic
    in cell order (serial and pooled runs produce the same
    :func:`~repro.obs.spans.tree_shape`).

    ``cell_fn`` is the per-cell executor (tests inject failing or
    sleeping stand-ins; it must stay picklable for pooled runs).  It
    cannot be combined with ``store_dir``, whose executor is fixed.
    """
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError(f"timeout_s must be > 0, got {timeout_s}")
    if on_error not in ("quarantine", "raise"):
        raise ConfigurationError(
            f"on_error must be 'quarantine' or 'raise', got {on_error!r}"
        )
    if store_dir is not None and cell_fn is not run_experiment:
        raise ConfigurationError(
            "store_dir fixes the cell executor to the store transport; "
            "it cannot be combined with a custom cell_fn"
        )
    if stream_chunk is not None:
        if store_dir is None:
            raise ConfigurationError("stream_chunk requires store_dir")
        if stream_chunk < 1:
            raise ConfigurationError(
                f"stream_chunk must be >= 1, got {stream_chunk}"
            )

    progress = progress if progress is not None else NULL_PROGRESS
    tracer = get_tracer()
    cache = CellCache(cache_dir) if cache_dir is not None else None
    # Uncached runs promise traced output byte-identical to a serial
    # run_experiment, so runner.* counters/histograms are only emitted
    # when the cache-backed engine is in use.
    count_obs = tracer.enabled and cache is not None
    cells = split_into_cells(config)
    keys = [cell_key(cell) for cell in cells]

    if progress.enabled:
        progress.total = len(cells)

    sampler = (
        GridSampler(
            timeseries,
            total_cells=len(cells),
            tasks_per_record=config.num_tasks,
            label="run-grid",
            interval_s=sample_interval_s,
        )
        if timeseries is not None
        else None
    )

    results: dict[int, tuple[list[RunRecord], ObsSnapshot | None]] = {}
    quarantined: list[QuarantinedCell] = []
    cached_cells = 0
    cached_indices: set[int] = set()
    retried = 0

    def persist_and_record(
        work: _CellWork,
        records: list[RunRecord],
        snapshot: ObsSnapshot | None,
        wall_s: float,
    ) -> None:
        if cache is not None:
            cache.store(work.key, work.config, records, snapshot)
        results[work.index] = (records, snapshot)
        if count_obs:
            tracer.count("runner.cells.computed")
            tracer.observe("runner.cell_wall_s", wall_s, buckets=TIME_BUCKETS)
        if sampler is not None:
            sampler.note_cell(records=len(records))
        progress.advance(work.label)

    def give_up(work: _CellWork, exc: BaseException) -> None:
        if on_error == "raise":
            raise exc
        if cache is not None:
            cache.poison(work.key, work.config, repr(exc), work.attempts)
        quarantined.append(
            QuarantinedCell(
                label=work.label,
                key=work.key,
                error=repr(exc),
                attempts=work.attempts,
            )
        )
        if count_obs:
            tracer.count("runner.cells.quarantined")
        if sampler is not None:
            sampler.note_cell(quarantined=True)
        progress.advance(f"{work.label} (quarantined)")

    store: ETCStore | None = None
    store_published = 0
    store_reused = 0
    # One ``runner.grid`` span covers the whole run.  Cache mode only
    # (``count_obs``) so uncached traced output stays byte-identical; ``phase`` spans never emit events, so the event
    # stream contract holds in cache mode too.  The span's context is
    # shipped to every worker so merged snapshots form one trace tree.
    grid_cm = (
        tracer.phase("runner.grid", cells=len(cells))
        if count_obs
        else nullcontext()
    )
    try:
        with grid_cm:
            ctx_fn = getattr(tracer, "context", None)
            grid_context = (
                ctx_fn() if count_obs and ctx_fn is not None else None
            )
            progress.start()

            # ----------------------------------------------------------
            # Phase 1: serve cached / skip poisoned cells.  Inside the
            # try so even a corrupt cache entry raising mid-scan still
            # flushes the progress line in the ``finally`` below.
            # ----------------------------------------------------------
            pending: list[_CellWork] = []
            for index, (cell, key) in enumerate(zip(cells, keys)):
                if cache is not None and resume:
                    if cache.is_poisoned(key):
                        quarantined.append(
                            QuarantinedCell(
                                label=cell_label(cell),
                                key=key,
                                error=(
                                    "previously quarantined "
                                    "(poison marker on disk)"
                                ),
                                attempts=0,
                            )
                        )
                        if count_obs:
                            tracer.count("runner.cells.quarantined")
                        if sampler is not None:
                            sampler.note_cell(quarantined=True)
                        progress.advance(f"{cell_label(cell)} (quarantined)")
                        continue
                    entry = cache.load(key, need_obs=tracer.enabled)
                    if entry is not None:
                        results[index] = (list(entry.records), entry.snapshot)
                        cached_cells += 1
                        cached_indices.add(index)
                        if count_obs:
                            tracer.count("runner.cells.cached")
                        if sampler is not None:
                            sampler.note_cell(
                                records=len(entry.records), cached=True
                            )
                        progress.advance(f"{cell_label(cell)} (cached)")
                        continue
                pending.append(_CellWork(index=index, config=cell, key=key))

            # ----------------------------------------------------------
            # Publish phase (store transport): stream each pending
            # cell's ensemble into the store exactly once, in bounded
            # windows; the pool then ships only (cell config, store
            # root) descriptors and workers attach the payload by
            # content key.  Inside the try so an interrupted publish
            # still releases the parent's store handle.
            # ----------------------------------------------------------
            if store_dir is not None:
                store = ETCStore(store_dir)
                # Transport-only parent-side counters: excluded from
                # the byte-identity contract (no-store runs never emit
                # them), so they are gated only on the tracer.
                ipc_obs = tracer.enabled
                window = (
                    stream_chunk
                    if stream_chunk is not None
                    else DEFAULT_STREAM_WINDOW
                )
                publish_cm = (
                    tracer.phase("runner.publish", cells=len(pending))
                    if count_obs
                    else nullcontext()
                )
                with publish_cm:
                    for work in pending:
                        cell = work.config
                        het = cell.heterogeneities[0]
                        cons = cell.consistencies[0]
                        entry_key = store_entry_key(cell, het, cons)
                        reused = entry_key in store
                        entry = generate_ensemble_into(
                            store,
                            entry_key,
                            cell.instances_per_cell,
                            cell.num_tasks,
                            cell.num_machines,
                            heterogeneity=het,
                            consistency=cons,
                            method=cell.generation_method,
                            rng=cell_instance_rng(cell, het, cons),
                            window=window,
                        )
                        if reused:
                            store_reused += 1
                        else:
                            store_published += 1
                        if ipc_obs:
                            if reused:
                                tracer.count("store.cells_reused")
                            else:
                                tracer.count("store.cells_published")
                                tracer.count("store.bytes_written", entry.nbytes)
                            # Payload served zero-copy vs what actually
                            # crosses the pipe per cell — the transport
                            # win in bytes.
                            tracer.observe(
                                "runner.ipc.payload_bytes",
                                entry.nbytes,
                                buckets=BYTE_BUCKETS,
                            )
                            tracer.observe(
                                "runner.ipc.descriptor_bytes",
                                len(pickle.dumps((cell, str(store.root)))),
                                buckets=BYTE_BUCKETS,
                            )
                if sampler is not None:
                    sampler.note_store(
                        published=store_published, reused=store_reused
                    )
                cell_fn = functools.partial(
                    _run_cell_from_store, store_root=str(store.root)
                )

            serial = len(pending) <= 1 or max_workers == 1
            if serial:
                # Isolate per-cell collection only when the cache needs
                # a snapshot to persist; otherwise run under the
                # caller's tracer directly, exactly like a serial
                # run_experiment.
                isolate = cache is not None and tracer.enabled
                for work in pending:
                    while True:
                        started = time.perf_counter()
                        try:
                            if isolate:
                                records, snapshot = _compute_cell(
                                    cell_fn,
                                    work.config,
                                    observed=True,
                                    context=grid_context,
                                )
                            else:
                                records, snapshot = cell_fn(work.config), None
                        except Exception as exc:
                            work.attempts += 1
                            if work.attempts <= retries:
                                retried += 1
                                if count_obs:
                                    tracer.count("runner.cells.retried")
                                continue
                            give_up(work, exc)
                            break
                        persist_and_record(
                            work, records, snapshot, time.perf_counter() - started
                        )
                        break
            else:
                retried += _run_pooled(
                    pending,
                    cell_fn=cell_fn,
                    max_workers=max_workers,
                    timeout_s=timeout_s,
                    retries=retries,
                    observed=tracer.enabled,
                    persist_and_record=persist_and_record,
                    give_up=give_up,
                    tracer=tracer,
                    count_obs=count_obs,
                    context=grid_context,
                    sampler=sampler,
                )

            # Merge every isolated snapshot (cached or freshly
            # computed) in cell order, so the caller's traced stream is
            # independent of completion order and of the cache hit
            # pattern.  Still inside the grid span, so merged worker
            # spans re-attach under ``runner.grid``; cached cells
            # (their spans are stripped before persisting, keeping
            # entry files byte-stable) re-enter the tree as synthetic
            # ``runner.cell.cached`` spans.
            if tracer.enabled:
                for index in sorted(results):
                    if count_obs and index in cached_indices:
                        with tracer.phase(
                            "runner.cell.cached", cell=cell_label(cells[index])
                        ):
                            pass
                    snapshot = results[index][1]
                    if snapshot is not None:
                        tracer.merge_snapshot(snapshot)
    finally:
        progress.finish()
        if sampler is not None:
            sampler.close()
        # Release the parent's transport handles whatever happened
        # above: the publisher's memmaps/manifest handle, and (serial
        # in-process runs) the attached worker-side cache — so aborted
        # runs leave no open mappings and no stale store state behind.
        if store is not None:
            store.close()
            _detach_stores(str(store.root))

    records: list[RunRecord] = []
    for index in range(len(cells)):
        if index in results:
            records.extend(results[index][0])
    return GridResult(
        records=tuple(records),
        total_cells=len(cells),
        cached_cells=cached_cells,
        computed_cells=len(results) - cached_cells,
        retried=retried,
        quarantined=tuple(quarantined),
        store_published=store_published,
        store_reused=store_reused,
        timeseries_summary=sampler.summary() if sampler is not None else None,
    )


def _run_pooled(
    works: list[_CellWork],
    *,
    cell_fn,
    max_workers: int | None,
    timeout_s: float | None,
    retries: int,
    observed: bool,
    persist_and_record,
    give_up,
    tracer,
    count_obs: bool,
    context=None,
    sampler=None,
) -> int:
    """Drive the process pool: grid-order submission, completion-order
    persistence, parent-side timeouts, bounded retries.

    Returns the retry count.  Snapshots are *not* merged here — the
    caller merges every snapshot in cell order afterwards so traced
    output stays deterministic.  ``context`` is the parent's
    :class:`~repro.obs.spans.SpanContext`, forwarded verbatim to worker
    tracers; ``sampler`` (a :class:`~repro.obs.timeseries.GridSampler`)
    gets queue-depth updates as pool occupancy changes.
    """
    retried = 0
    abandoned_timeouts = False
    pool = ProcessPoolExecutor(max_workers=max_workers)
    try:
        in_flight: dict = {}

        def submit(work: _CellWork) -> None:
            work.submitted_at = time.perf_counter()
            future = pool.submit(
                _compute_cell, cell_fn, work.config, observed, context
            )
            in_flight[future] = work
            if sampler is not None:
                sampler.set_queue_depth(len(in_flight))

        def retry_or_give_up(work: _CellWork, exc: BaseException) -> int:
            work.attempts += 1
            if work.attempts <= retries:
                if count_obs:
                    tracer.count("runner.cells.retried")
                submit(work)
                return 1
            give_up(work, exc)
            return 0

        for work in works:
            submit(work)

        while in_flight:
            tick = None
            if timeout_s is not None:
                tick = max(0.01, min(timeout_s / 4.0, 1.0))
            done, _ = wait(set(in_flight), timeout=tick, return_when=FIRST_COMPLETED)
            now = time.perf_counter()

            for future in done:
                work = in_flight.pop(future)
                try:
                    cell_records, snapshot = future.result()
                except Exception as exc:
                    retried += retry_or_give_up(work, exc)
                    continue
                persist_and_record(
                    work, cell_records, snapshot, now - work.submitted_at
                )
            if done and sampler is not None:
                sampler.set_queue_depth(len(in_flight))

            if timeout_s is None:
                continue
            for future, work in list(in_flight.items()):
                if now - work.submitted_at <= timeout_s:
                    continue
                # A running cell cannot be cancelled; abandon the future
                # (its eventual result is discarded) and either retry on
                # a free worker or quarantine the cell.
                del in_flight[future]
                future.cancel()
                abandoned_timeouts = True
                error = CellTimeoutError(
                    f"cell {work.label} exceeded the {timeout_s:g}s timeout "
                    f"(attempt {work.attempts + 1})"
                )
                retried += retry_or_give_up(work, error)
    finally:
        # Abandoned workers may still be crunching a timed-out cell;
        # don't block the parent on them.
        pool.shutdown(wait=not abandoned_timeouts, cancel_futures=True)
    return retried
