"""Unit tests for the memory-mapped content-addressed ETC store."""

import json
import os

import numpy as np
import pytest

from repro.etc.generation import (
    generate_ensemble,
    generate_ensemble_into,
    stream_ensemble,
)
from repro.etc.matrix import ETCMatrix
from repro.etc.store import (
    DATA_NAME,
    LOCK_NAME,
    MANIFEST_NAME,
    ETCStore,
    ETCStoreWriter,
    StoreEntry,
)
from repro.exceptions import (
    ETCShapeError,
    ETCStoreError,
    ETCValueError,
)


def _matrices(count=3, tasks=4, machines=3, seed=7):
    return generate_ensemble(count, tasks, machines, rng=seed)


class TestWriteReadRoundTrip:
    def test_put_matrices_round_trips_values_exactly(self, tmp_path):
        matrices = _matrices()
        store = ETCStore(tmp_path / "s")
        entry = store.put_matrices("k1", matrices)
        assert entry.count == 3 and entry.shape == (3, 4, 3)
        batch = store.batch("k1")
        assert batch.values.dtype == np.float64
        for i, matrix in enumerate(matrices):
            assert np.array_equal(batch.values[i], matrix.values)
            got = store.instance("k1", i)
            assert isinstance(got, ETCMatrix)
            assert np.array_equal(got.values, matrix.values)
            assert got.tasks == matrix.tasks
            assert got.machines == matrix.machines
        store.close()

    def test_views_are_memmapped_and_read_only(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        store.put_matrices("k", _matrices())
        values = store.batch("k").values
        assert isinstance(values.base, np.memmap) or isinstance(
            values, np.memmap
        )
        assert not values.flags.writeable
        store.close()

    def test_chunked_writer_appends_accumulate(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        chunks = list(stream_ensemble(10, 4, 3, rng=1, window=3))
        with store.writer("k", 4, 3) as writer:
            for chunk in chunks:
                writer.append(chunk)
        assert store.entry("k").count == 10
        assert np.array_equal(
            store.batch("k").values, np.concatenate(chunks)
        )
        store.close()

    def test_single_matrix_append_accepts_2d(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        matrix = _matrices(count=1)[0]
        with store.writer("k", 4, 3) as writer:
            writer.append(matrix.values)
        assert store.entry("k").count == 1
        store.close()

    def test_verify_detects_intact_and_corrupt_payloads(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        store.put_matrices("k", _matrices())
        assert store.verify("k")
        with open(store.data_path, "r+b") as handle:
            handle.seek(8)
            handle.write(b"\xff" * 4)
        assert not store.verify("k")

    def test_entries_persist_across_handles(self, tmp_path):
        root = tmp_path / "s"
        ETCStore(root).put_matrices("k", _matrices())
        reopened = ETCStore(root, create=False)
        assert "k" in reopened
        assert reopened.keys() == ["k"]
        assert reopened.total_bytes() == 3 * 4 * 3 * 8
        reopened.close()

    def test_reload_sees_entries_committed_by_another_handle(self, tmp_path):
        root = tmp_path / "s"
        reader = ETCStore(root)
        ETCStore(root).put_matrices("k", _matrices())
        assert "k" not in reader
        reader.reload()
        assert "k" in reader
        reader.close()

    def test_custom_labels_round_trip(self, tmp_path):
        values = np.full((2, 3), 2.0)
        matrices = [
            ETCMatrix(values, tasks=("a", "b"), machines=("x", "y", "z"))
        ]
        store = ETCStore(tmp_path / "s")
        store.put_matrices("k", matrices)
        got = store.instance("k", 0)
        assert got.tasks == ("a", "b")
        assert got.machines == ("x", "y", "z")


class TestWriterContract:
    def test_aborted_writer_commits_nothing(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        with pytest.raises(RuntimeError):
            with store.writer("k", 4, 3) as writer:
                writer.append(_matrices(count=1)[0].values)
                raise RuntimeError("boom")
        assert "k" not in store
        assert not store.lock_path.exists()
        # The store stays writable: a clean retry under the same key works.
        store.put_matrices("k", _matrices())
        assert "k" in store

    def test_empty_commit_refused(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        with pytest.raises(ETCStoreError, match="empty"):
            with store.writer("k", 4, 3):
                pass
        assert "k" not in store
        assert not store.lock_path.exists()

    def test_duplicate_key_refused(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        store.put_matrices("k", _matrices())
        with pytest.raises(ETCStoreError, match="already committed"):
            store.writer("k", 4, 3)

    def test_shape_and_value_validation(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        with store.writer("k", 4, 3) as writer:
            with pytest.raises(ETCShapeError):
                writer.append(np.ones((2, 5, 3)))
            with pytest.raises(ETCValueError):
                writer.append(np.full((1, 4, 3), np.nan))
            with pytest.raises(ETCValueError):
                writer.append(np.zeros((1, 4, 3)))
            writer.append(np.ones((1, 4, 3)))

    def test_stale_lock_from_dead_pid_is_stolen(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        store.lock_path.write_text("999999999\n", encoding="utf-8")
        store.put_matrices("k", _matrices())
        assert "k" in store
        assert not store.lock_path.exists()

    def test_live_lock_times_out(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        store.lock_path.write_text(f"{os.getpid()}\n", encoding="utf-8")
        with pytest.raises(ETCStoreError, match="held by live pid"):
            with store.writer("k", 4, 3, lock_timeout_s=0.05):
                pass  # pragma: no cover - never entered
        store.lock_path.unlink()


class TestStoreErrors:
    def test_attach_missing_store_raises(self, tmp_path):
        with pytest.raises(ETCStoreError, match="no ETC store"):
            ETCStore(tmp_path / "absent", create=False)

    def test_unknown_key_raises(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        with pytest.raises(ETCStoreError, match="no entry"):
            store.entry("missing")

    def test_corrupt_manifest_raises(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(ETCStoreError, match="unreadable"):
            ETCStore(root)

    @pytest.mark.parametrize(
        "manifest",
        [
            [],
            "manifest",
            {"schema": "repro-etc-store/1", "entries": []},
            {"schema": "repro-etc-store/1", "entries": {"k": {}}},
            {"schema": "repro-etc-store/1", "entries": {"k": []}},
        ],
    )
    def test_malformed_manifest_raises(self, tmp_path, manifest):
        root = tmp_path / "s"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ETCStoreError, match="unreadable store manifest"):
            ETCStore(root)

    def test_wrong_schema_raises(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(
            json.dumps({"schema": "other/1", "entries": {}}), encoding="utf-8"
        )
        with pytest.raises(ETCStoreError, match="manifest"):
            ETCStore(root)

    def test_close_is_idempotent_and_releases_mmaps(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        store.put_matrices("k", _matrices())
        store.batch("k")
        assert store._mmaps
        store.close()
        assert not store._mmaps
        store.close()

    def test_context_manager_closes(self, tmp_path):
        with ETCStore(tmp_path / "s") as store:
            store.put_matrices("k", _matrices())
            store.batch("k")
        assert not store._mmaps


class TestStreamedGeneration:
    def test_stream_windows_concatenate_to_eager_ensemble(self):
        eager = generate_ensemble(7, 4, 3, rng=11)
        streamed = np.concatenate(list(stream_ensemble(7, 4, 3, rng=11, window=2)))
        assert streamed.shape == (7, 4, 3)
        for i, matrix in enumerate(eager):
            assert np.array_equal(streamed[i], matrix.values)

    def test_stream_windows_bounded(self):
        sizes = [c.shape[0] for c in stream_ensemble(10, 3, 2, rng=0, window=4)]
        assert sizes == [4, 4, 2]
        assert all(
            c.flags.c_contiguous and c.dtype == np.float64
            for c in stream_ensemble(5, 3, 2, rng=0, window=2)
        )

    def test_cvb_method_streams_identically(self):
        eager = generate_ensemble(4, 3, 2, method="cvb", rng=5)
        streamed = np.concatenate(
            list(stream_ensemble(4, 3, 2, method="cvb", rng=5, window=3))
        )
        for i, matrix in enumerate(eager):
            assert np.array_equal(streamed[i], matrix.values)

    def test_generate_into_matches_eager_and_is_idempotent(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        entry = generate_ensemble_into(store, "k", 6, 4, 3, rng=3, window=2)
        assert entry.count == 6
        eager = generate_ensemble(6, 4, 3, rng=3)
        for i, matrix in enumerate(eager):
            assert np.array_equal(store.batch("k").values[i], matrix.values)
        # Re-publishing the same key consumes no RNG and rewrites nothing.
        size_before = store.data_path.stat().st_size
        again = generate_ensemble_into(store, "k", 6, 4, 3, rng=99, window=2)
        assert again == entry
        assert store.data_path.stat().st_size == size_before
        store.close()

    def test_multiple_entries_share_one_data_file(self, tmp_path):
        store = ETCStore(tmp_path / "s")
        generate_ensemble_into(store, "a", 2, 4, 3, rng=1)
        generate_ensemble_into(store, "b", 3, 2, 5, rng=2)
        assert store.entry("a").shape == (2, 4, 3)
        assert store.entry("b").shape == (3, 2, 5)
        assert store.entry("b").offset == store.entry("a").nbytes
        assert store.verify("a") and store.verify("b")
        assert (tmp_path / "s" / DATA_NAME).stat().st_size == store.total_bytes()
        store.close()


class TestStoreEntrySerialisation:
    def test_entry_dict_round_trip(self):
        entry = StoreEntry(
            key="k",
            offset=96,
            count=2,
            num_tasks=3,
            num_machines=4,
            sha256="0" * 64,
            tasks=("a", "b", "c"),
            machines=None,
        )
        assert StoreEntry.from_dict("k", entry.to_dict()) == entry
        assert entry.nbytes == 2 * 3 * 4 * 8
        assert entry.machine_labels()[0].startswith("m")

    def test_writer_type_exported(self):
        assert ETCStoreWriter.__name__ == "ETCStoreWriter"
        assert LOCK_NAME == "store.lock"
