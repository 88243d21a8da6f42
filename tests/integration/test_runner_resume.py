"""Kill-and-resume round trip for the cached experiment runner.

The acceptance contract (docs/runner.md): interrupt a grid run partway,
re-run with ``resume=True``, and the resumed run must (a) produce
records identical to an uninterrupted run and (b) serve at least the
already-completed cells from cache, visible through the
``runner.cells.cached`` counter.
"""

import pytest

from repro.analysis.experiments import ExperimentConfig, run_experiment
from repro.analysis.runner import _WORKER_STORES, CellCache, cell_key, run_grid
from repro.analysis.parallel import split_into_cells
from repro.etc.generation import Consistency, Heterogeneity
from repro.etc.store import LOCK_NAME, ETCStore
from repro.obs import build_span_tree
from repro.obs.tracer import CollectingTracer, use_tracer


@pytest.fixture(scope="module")
def grid_config():
    return ExperimentConfig(
        heuristics=("mct", "sufferage"),
        num_tasks=8,
        num_machines=3,
        heterogeneities=(Heterogeneity.HIHI, Heterogeneity.LOLO),
        consistencies=(Consistency.CONSISTENT, Consistency.INCONSISTENT),
        instances_per_cell=2,
        seed=0,
    )


class KillAfter:
    """Progress reporter that dies after ``n`` completed cells.

    ``run_grid`` persists a finished cell *before* reporting progress,
    so raising from ``advance`` simulates a kill that leaves exactly
    the completed cells behind as whole cache entries.
    """

    enabled = True

    def __init__(self, n: int) -> None:
        self.n = n
        self.advances = 0
        self.total = 0

    def start(self):
        return self

    def advance(self, current: str = "", n: int = 1) -> None:
        self.advances += n
        if self.advances >= self.n:
            raise KeyboardInterrupt(f"simulated kill after {self.advances} cells")

    def finish(self) -> None:
        pass


class TestKillAndResume:
    def test_resumed_records_identical_and_served_from_cache(
        self, grid_config, tmp_path
    ):
        baseline = run_experiment(grid_config)
        kill = KillAfter(2)
        with pytest.raises(KeyboardInterrupt):
            run_grid(
                grid_config, cache_dir=tmp_path, max_workers=1, progress=kill
            )
        # The kill left exactly the completed cells behind, whole.
        cache = CellCache(tmp_path)
        assert len(cache.keys()) == kill.advances == 2

        resumed = run_grid(grid_config, cache_dir=tmp_path, resume=True)
        assert list(resumed.records) == baseline
        assert resumed.cached_cells == 2
        assert resumed.computed_cells == 2
        assert resumed.ok

    def test_traced_kill_and_resume_counts_cached_cells(
        self, grid_config, tmp_path
    ):
        # Interrupt under a tracer so cache entries carry their obs
        # snapshots (a traced resume refuses snapshot-less entries).
        with use_tracer(CollectingTracer()):
            with pytest.raises(KeyboardInterrupt):
                run_grid(
                    grid_config,
                    cache_dir=tmp_path,
                    max_workers=1,
                    progress=KillAfter(3),
                )
        completed = len(CellCache(tmp_path).keys())
        assert completed == 3

        with use_tracer(CollectingTracer()) as tracer:
            resumed = run_grid(grid_config, cache_dir=tmp_path, resume=True)
        assert tracer.counters.get("runner.cells.cached") >= completed
        assert resumed.cached_cells == completed
        assert list(resumed.records) == run_experiment(grid_config)

    def test_second_resume_is_fully_cached(self, grid_config, tmp_path):
        first = run_grid(grid_config, cache_dir=tmp_path, max_workers=2)
        second = run_grid(grid_config, cache_dir=tmp_path, resume=True)
        third = run_grid(grid_config, cache_dir=tmp_path, resume=True)
        assert list(first.records) == list(second.records) == list(third.records)
        assert third.cached_cells == third.total_cells
        assert third.computed_cells == 0

    def test_cache_entries_are_per_cell_addressable(self, grid_config, tmp_path):
        run_grid(grid_config, cache_dir=tmp_path, max_workers=1)
        cache = CellCache(tmp_path)
        for cell in split_into_cells(grid_config):
            entry = cache.load(cell_key(cell))
            assert entry is not None
            assert list(entry.records) == run_experiment(cell)

    def test_pooled_interrupt_then_pooled_resume(self, grid_config, tmp_path):
        kill = KillAfter(2)
        with pytest.raises(KeyboardInterrupt):
            run_grid(
                grid_config, cache_dir=tmp_path, max_workers=2, progress=kill
            )
        completed = len(CellCache(tmp_path).keys())
        assert completed >= 2  # in-flight cells may also have finished

        resumed = run_grid(
            grid_config, cache_dir=tmp_path, resume=True, max_workers=2
        )
        assert resumed.cached_cells >= completed
        assert resumed.cached_cells + resumed.computed_cells == resumed.total_cells
        assert list(resumed.records) == run_experiment(grid_config)


@pytest.mark.obs
class TestResumeSpanTree:
    """A resumed run's span tree re-parents under the *new* trace."""

    def test_resumed_cells_reparent_under_new_trace(
        self, grid_config, tmp_path
    ):
        with use_tracer(CollectingTracer()):
            with pytest.raises(KeyboardInterrupt):
                run_grid(
                    grid_config,
                    cache_dir=tmp_path,
                    max_workers=1,
                    progress=KillAfter(2),
                )
        with use_tracer(CollectingTracer()) as tracer:
            resumed = run_grid(grid_config, cache_dir=tmp_path, resume=True)
        assert resumed.cached_cells == 2
        spans = tracer.spans
        # nothing survives from the killed run's trace id
        assert spans
        assert all(s.trace_id == tracer.trace_id for s in spans)
        (root,) = build_span_tree(spans)
        assert root.kind == "runner.grid"
        kinds = sorted(child.kind for child in root.children)
        # cached cells re-enter the tree as synthetic markers, computed
        # cells as full worker subtrees — all under the one new root
        assert kinds.count("runner.cell.cached") == resumed.cached_cells
        assert kinds.count("runner.cell") == resumed.computed_cells


class TestStoreKillAndResume:
    """Kill-and-resume with the zero-copy store transport in play.

    Beyond record identity, an interrupted store run must leave no
    transport residue behind: no stale ``store.lock`` and no
    parent-side store handle still cached."""

    def test_killed_store_run_leaks_nothing_and_resumes(
        self, grid_config, tmp_path
    ):
        cache_dir = tmp_path / "cells"
        store_root = tmp_path / "store"
        baseline = run_experiment(grid_config)

        kill = KillAfter(2)
        with pytest.raises(KeyboardInterrupt):
            run_grid(
                grid_config,
                cache_dir=cache_dir,
                store_dir=store_root,
                max_workers=1,
                progress=kill,
            )
        # The kill hit mid-compute: nothing transport-side survives it.
        assert not (store_root / LOCK_NAME).exists()
        assert str(store_root) not in _WORKER_STORES
        # Publish-all runs before any compute, so every ensemble is
        # already committed and the store passes verification whole.
        store = ETCStore(store_root, create=False)
        assert len(store.keys()) == 4
        assert all(store.verify(key) for key in store.keys())
        store.close()

        resumed = run_grid(
            grid_config,
            cache_dir=cache_dir,
            store_dir=store_root,
            resume=True,
        )
        assert list(resumed.records) == baseline
        assert resumed.cached_cells == 2
        # Cached cells skip the publish phase; the rest reuse the
        # ensembles the killed run already committed.
        assert resumed.store_published == 0
        assert resumed.store_reused == 2
        assert not (store_root / LOCK_NAME).exists()

    def test_pooled_store_interrupt_then_resume(self, grid_config, tmp_path):
        cache_dir = tmp_path / "cells"
        store_root = tmp_path / "store"
        with pytest.raises(KeyboardInterrupt):
            run_grid(
                grid_config,
                cache_dir=cache_dir,
                store_dir=store_root,
                max_workers=2,
                progress=KillAfter(2),
            )
        assert not (store_root / LOCK_NAME).exists()

        resumed = run_grid(
            grid_config,
            cache_dir=cache_dir,
            store_dir=store_root,
            resume=True,
            max_workers=2,
        )
        assert list(resumed.records) == run_experiment(grid_config)
        assert resumed.store_published == 0
        assert not (store_root / LOCK_NAME).exists()
