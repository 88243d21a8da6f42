"""Zero-copy transport tests: the store-backed grid runner.

The contract under test (docs/architecture.md, "Transport & storage"):
store transport changes *how bytes move*, never *what is computed* —
records, cache entries and traced event streams must be byte-identical
to the in-memory path, transport-only parent-side counters excepted —
and no run, including aborted ones, may leak store locks or
parent-side mmap handles.
"""

import pytest

from repro.analysis.experiments import ExperimentConfig, run_experiment
from repro.analysis.runner import (
    _WORKER_STORES,
    CellCache,
    cell_key,
    run_grid,
    store_entry_key,
)
from repro.etc.generation import Consistency, Heterogeneity
from repro.etc.store import ETCStore
from repro.exceptions import ConfigurationError
from repro.obs.tracer import CollectingTracer, use_tracer

#: Counter/histogram prefixes the transport is allowed to add on the
#: parent tracer (the documented byte-identity carve-out).
TRANSPORT_PREFIXES = ("store.", "runner.ipc.")


@pytest.fixture(scope="module")
def grid_config():
    return ExperimentConfig(
        heuristics=("mct", "min-min"),
        num_tasks=10,
        num_machines=3,
        heterogeneities=(Heterogeneity.HIHI, Heterogeneity.LOLO),
        consistencies=(Consistency.CONSISTENT, Consistency.INCONSISTENT),
        instances_per_cell=2,
        seed=3,
    )


class TestStoreTransportIdentity:
    def test_records_match_serial_in_memory_run(self, grid_config, tmp_path):
        serial = run_experiment(grid_config)
        result = run_grid(
            grid_config,
            cache_dir=tmp_path / "cells",
            store_dir=tmp_path / "store",
            stream_chunk=1,
        )
        assert list(result.records) == serial
        assert result.store_published == result.total_cells == 4

    def test_cache_entries_byte_identical_to_non_store_run(
        self, grid_config, tmp_path
    ):
        run_grid(grid_config, cache_dir=tmp_path / "plain")
        run_grid(
            grid_config, cache_dir=tmp_path / "via-store",
            store_dir=tmp_path / "store",
        )
        plain = CellCache(tmp_path / "plain")
        via_store = CellCache(tmp_path / "via-store")
        assert plain.keys() == via_store.keys() != []
        for key in plain.keys():
            assert (
                plain.path_for(key).read_bytes()
                == via_store.path_for(key).read_bytes()
            )

    def test_traced_run_identical_modulo_transport_counters(
        self, grid_config, tmp_path
    ):
        with use_tracer(CollectingTracer()) as plain:
            run_grid(grid_config, cache_dir=tmp_path / "plain")
        with use_tracer(CollectingTracer()) as stored:
            run_grid(
                grid_config, cache_dir=tmp_path / "via-store",
                store_dir=tmp_path / "store",
            )
        assert [(e.kind, e.fields) for e in stored.events] == [
            (e.kind, e.fields) for e in plain.events
        ]

        def non_transport(counters):
            return {
                k: v
                for k, v in counters.as_dict().items()
                if not k.startswith(TRANSPORT_PREFIXES)
            }

        assert non_transport(stored.counters) == non_transport(plain.counters)
        assert stored.counters.get("store.cells_published") == 4
        assert stored.counters.get("store.bytes_written") == sum(
            e.nbytes
            for e in map(
                ETCStore(tmp_path / "store", create=False).entry,
                ETCStore(tmp_path / "store", create=False).keys(),
            )
        )
        histograms = stored.histograms.as_dict()
        assert "runner.ipc.descriptor_bytes" in histograms
        assert "runner.ipc.payload_bytes" in histograms

    def test_pooled_store_run_matches_serial(self, grid_config, tmp_path):
        serial = run_experiment(grid_config)
        result = run_grid(
            grid_config,
            cache_dir=tmp_path / "cells",
            store_dir=tmp_path / "store",
            max_workers=2,
        )
        assert list(result.records) == serial
        assert result.ok

    def test_resume_reuses_published_ensembles(self, grid_config, tmp_path):
        first = run_grid(
            grid_config, cache_dir=tmp_path / "a", store_dir=tmp_path / "store"
        )
        assert first.store_published == 4 and first.store_reused == 0
        # Fresh cache, same store: every ensemble is served from disk.
        second = run_grid(
            grid_config, cache_dir=tmp_path / "b", store_dir=tmp_path / "store"
        )
        assert second.store_published == 0 and second.store_reused == 4
        assert list(second.records) == list(first.records)
        # Cached resume never touches the publish path at all.
        third = run_grid(
            grid_config, cache_dir=tmp_path / "a",
            store_dir=tmp_path / "store", resume=True,
        )
        assert third.cached_cells == 4
        assert third.store_published == third.store_reused == 0

    def test_entries_shared_across_heuristic_variants(self, tmp_path):
        base = ExperimentConfig(
            heuristics=("mct",), num_tasks=6, num_machines=3,
            instances_per_cell=2, seed=5,
        )
        other = ExperimentConfig(
            heuristics=("min-min", "met"), num_tasks=6, num_machines=3,
            instances_per_cell=2, seed=5,
        )
        run_grid(base, cache_dir=tmp_path / "a", store_dir=tmp_path / "store")
        result = run_grid(
            other, cache_dir=tmp_path / "b", store_dir=tmp_path / "store"
        )
        assert result.store_reused == 1 and result.store_published == 0
        het = base.heterogeneities[0]
        cons = base.consistencies[0]
        assert store_entry_key(base, het, cons) == store_entry_key(
            other, het, cons
        )
        assert store_entry_key(base, het, cons) != cell_key(base)


class TestStoreTransportValidation:
    def test_stream_chunk_requires_store(self, grid_config):
        with pytest.raises(ConfigurationError, match="requires store_dir"):
            run_grid(grid_config, stream_chunk=4)

    def test_stream_chunk_must_be_positive(self, grid_config, tmp_path):
        with pytest.raises(ConfigurationError, match="stream_chunk"):
            run_grid(grid_config, store_dir=tmp_path / "s", stream_chunk=0)

    def test_store_rejects_custom_cell_fn(self, grid_config, tmp_path):
        with pytest.raises(ConfigurationError, match="cell_fn"):
            run_grid(
                grid_config,
                store_dir=tmp_path / "s",
                cell_fn=lambda config: [],
            )


class TestStoreTransportCleanup:
    def test_serial_run_releases_all_parent_handles(self, grid_config, tmp_path):
        store_root = tmp_path / "store"
        run_grid(grid_config, cache_dir=tmp_path / "cells", store_dir=store_root)
        assert str(store_root) not in _WORKER_STORES
        assert not (store_root / "store.lock").exists()

    def test_quarantined_store_cells_release_handles(self, grid_config, tmp_path):
        """A store whose payload is corrupted after publish fails every
        cell; the run must quarantine them all and still release the
        parent's store handles, lock and mmaps."""
        store_root = tmp_path / "store"
        # Publish by running once, then truncate the data file so every
        # memmap attach in the compute phase fails.
        run_grid(grid_config, cache_dir=tmp_path / "warm", store_dir=store_root)
        (store_root / "data.bin").write_bytes(b"")
        result = run_grid(
            grid_config,
            cache_dir=tmp_path / "cold",
            store_dir=store_root,
            retries=0,
        )
        assert len(result.quarantined) == result.total_cells == 4
        assert not result.records
        assert str(store_root) not in _WORKER_STORES
        assert not (store_root / "store.lock").exists()

    def test_timed_out_store_cells_release_handles(self, tmp_path):
        """Pooled store run where every attempt exceeds the per-cell
        timeout: cells are quarantined and the parent leaves no lock
        and no cached handle behind."""
        # Sufferage: a cell's work (~0.5 s) is ten times the timeout; a
        # certified Min-Min cell now finishes in about the timeout.
        config = ExperimentConfig(
            heuristics=("sufferage",),
            num_tasks=256,
            num_machines=8,
            heterogeneities=(Heterogeneity.HIHI, Heterogeneity.LOLO),
            instances_per_cell=24,
            seed=9,
        )
        store_root = tmp_path / "store"
        result = run_grid(
            config,
            cache_dir=tmp_path / "cells",
            store_dir=store_root,
            max_workers=2,
            timeout_s=0.05,
            retries=0,
        )
        assert len(result.quarantined) == result.total_cells == 2
        assert str(store_root) not in _WORKER_STORES
        assert not (store_root / "store.lock").exists()

    def test_interrupted_publish_releases_lock_and_handles(
        self, grid_config, tmp_path, monkeypatch
    ):
        """A crash mid-publish (first ensemble streamed, then death)
        must leave no lock and no parent handle; the next run publishes
        the remainder and completes byte-identically."""
        import repro.analysis.runner as runner_mod

        store_root = tmp_path / "store"
        calls = {"n": 0}
        real = runner_mod.generate_ensemble_into

        def dying(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt("simulated kill mid-publish")
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "generate_ensemble_into", dying)
        with pytest.raises(KeyboardInterrupt):
            run_grid(
                grid_config, cache_dir=tmp_path / "cells", store_dir=store_root
            )
        monkeypatch.setattr(runner_mod, "generate_ensemble_into", real)
        assert not (store_root / "store.lock").exists()
        assert str(store_root) not in _WORKER_STORES
        assert len(ETCStore(store_root, create=False).keys()) == 1

        resumed = run_grid(
            grid_config,
            cache_dir=tmp_path / "cells",
            store_dir=store_root,
            resume=True,
        )
        assert list(resumed.records) == run_experiment(grid_config)
        assert resumed.store_reused == 1
        assert resumed.store_published == 3
