"""Atomic persistence contracts of the content-addressed JSON caches.

The runner's cell cache (:class:`repro.analysis.runner.CellCache`) and
the service's response cache (:class:`repro.serve.cache.ResponseCache`)
keep one ``<key>.json`` entry per content address.  Both are held to
the same contracts here: entries land via temp file + ``os.replace`` so
a crashed or concurrent writer can never leave a torn entry,
corrupt/foreign files fail loudly instead of serving garbage, and the
entry bytes are pinned so the on-disk layout cannot drift.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.experiments import ExperimentConfig, run_record_from_dict
from repro.analysis.runner import CellCache
from repro.exceptions import ConfigurationError
from repro.serve.cache import RESPONSE_CACHE_SCHEMA, ResponseCache

pytestmark = pytest.mark.serve

IDENTITY = {"kind": "map", "heuristic": "min-min"}
RESULT = {"kind": "map", "makespan": 9.0}

CELL_CONFIG = ExperimentConfig(
    heuristics=("mct",), num_tasks=2, num_machines=2, instances_per_cell=1, seed=5
)
CELL_RECORD = run_record_from_dict(
    {
        "heuristic": "mct",
        "heterogeneity": "hihi",
        "consistency": "inconsistent",
        "instance_index": 0,
        "tie_policy": "deterministic",
        "num_iterations": 2,
        "comparison": {
            "heuristic": "mct",
            "original_makespan": 3.5,
            "final_makespan": 3.5,
            "makespan_increased": False,
            "mapping_changed": False,
            "machines": [
                {"machine": "m0", "original": 3.5, "iterative": 3.5},
                {"machine": "m1", "original": 2.0, "iterative": 2.0},
            ],
        },
    }
)


class _Responses:
    """A :class:`ResponseCache` behind the contracts' common interface."""

    body = "result"

    def __init__(self, root) -> None:
        self.cache = ResponseCache(root)

    @staticmethod
    def value(i: int) -> dict:
        return {"kind": "map", "makespan": 9.0 + i}

    def store(self, key: str, value):
        return self.cache.store(key, IDENTITY, value)

    def load(self, key: str):
        return self.cache.load(key)

    def count(self) -> int:
        return len(self.cache)


class _Cells:
    """A :class:`CellCache` behind the contracts' common interface."""

    body = "records"

    def __init__(self, root) -> None:
        self.cache = CellCache(root)

    @staticmethod
    def value(i: int) -> tuple:
        return (dataclasses.replace(CELL_RECORD, instance_index=i),)

    def store(self, key: str, value):
        return self.cache.store(key, CELL_CONFIG, list(value), None)

    def load(self, key: str):
        entry = self.cache.load(key)
        return None if entry is None else entry.records

    def count(self) -> int:
        return len(self.cache.keys())


@pytest.fixture
def stores(tmp_path):
    """Both caches, each under its own directory: every contract below
    runs against each of them."""
    return [_Responses(tmp_path / "responses"), _Cells(tmp_path / "cells")]


def test_round_trip(stores):
    for store in stores:
        assert store.load("k0") is None
        path = store.store("k0", store.value(0))
        assert path == store.cache.path_for("k0")
        assert store.count() == 1
        assert store.load("k0") == store.value(0)


def test_response_cache_membership(tmp_path):
    cache = ResponseCache(tmp_path)
    assert "k0" not in cache
    cache.store("k0", IDENTITY, RESULT)
    assert "k0" in cache
    assert len(cache) == 1


def test_entry_is_self_describing(tmp_path):
    cache = ResponseCache(tmp_path)
    payload = json.loads(cache.store("k0", IDENTITY, RESULT).read_text())
    assert payload["schema"] == RESPONSE_CACHE_SCHEMA
    assert payload["key"] == "k0"
    assert payload["identity"] == IDENTITY
    assert payload["result"] == RESULT


def test_response_entry_bytes_are_pinned(tmp_path):
    path = ResponseCache(tmp_path).store("k0", IDENTITY, RESULT)
    assert path.read_bytes() == (
        b'{"identity":{"heuristic":"min-min","kind":"map"},"key":"k0",'
        b'"result":{"kind":"map","makespan":9.0},'
        b'"schema":"repro-serve-cache/2"}\n'
    )


def test_cell_entry_bytes_are_pinned(tmp_path):
    path = CellCache(tmp_path).store("k0", CELL_CONFIG, [CELL_RECORD], None)
    assert path.read_bytes() == (
        b'{"config":{"consistencies":["inconsistent"],'
        b'"generation_method":"range","heterogeneities":["hihi"],'
        b'"heuristic_kwargs":{},"heuristics":["mct"],'
        b'"instances_per_cell":1,"num_machines":2,"num_tasks":2,'
        b'"seed":5,"seeded_iterations":false,'
        b'"tie_policy":"deterministic"},"key":"k0","obs":null,'
        b'"records":[{"comparison":{"final_makespan":3.5,'
        b'"heuristic":"mct","machines":[{"iterative":3.5,"machine":"m0",'
        b'"original":3.5},{"iterative":2.0,"machine":"m1","original":2.0}],'
        b'"makespan_increased":false,"mapping_changed":false,'
        b'"original_makespan":3.5},"consistency":"inconsistent",'
        b'"heterogeneity":"hihi","heuristic":"mct","instance_index":0,'
        b'"num_iterations":2,"tie_policy":"deterministic"}],'
        b'"schema":"repro-cell/1"}\n'
    )


def test_store_overwrites_atomically(stores):
    for store in stores:
        store.store("k0", store.value(1))
        store.store("k0", store.value(2))
        assert store.load("k0") == store.value(2)
        assert store.count() == 1


def test_no_temp_files_left_behind(stores):
    for store in stores:
        for i in range(5):
            store.store(f"k{i}", store.value(i))
        assert not list(store.cache.root.glob("*.tmp"))


def test_corrupt_entry_fails_loudly(stores):
    for store in stores:
        path = store.cache.path_for("k0")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="unreadable"):
            store.load("k0")


def test_wrong_schema_entry_fails_loudly(stores):
    for store in stores:
        path = store.store("k0", store.value(0))
        payload = json.loads(path.read_text())
        payload["schema"] = "something-else/1"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="delete it to recompute"):
            store.load("k0")


@pytest.mark.parametrize("text", ["[]", '"entry"', "7", "null"])
def test_non_object_entry_fails_loudly(stores, text):
    for store in stores:
        path = store.cache.path_for("k0")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="delete it to recompute"):
            store.load("k0")


def test_entry_without_body_fails_loudly(stores):
    for store in stores:
        path = store.store("k0", store.value(0))
        payload = json.loads(path.read_text())
        del payload[store.body]
        path.write_text(json.dumps(payload))
        with pytest.raises(
            ConfigurationError, match=r"(cell|response) cache entry .* recompute"
        ):
            store.load("k0")


def test_key_mismatch_fails_loudly(stores):
    for store in stores:
        source = store.store("k0", store.value(0))
        # A file renamed to a different address must be rejected.
        source.rename(store.cache.path_for("k1"))
        with pytest.raises(ConfigurationError, match="delete it to recompute"):
            store.load("k1")


def test_concurrent_same_key_writes_never_tear(stores):
    """The acceptance race: N writers persisting the same key at once.

    The key is a content address, so every writer carries an identical
    payload — the last ``os.replace`` wins and *every* interleaving
    must leave one valid, complete entry plus zero temp files.
    """
    writers = 16
    for store in stores:
        value = store.value(0)

        def write_and_read(i: int, store=store, value=value):
            store.store("hot", value)
            return store.load("hot")

        with ThreadPoolExecutor(max_workers=8) as pool:
            seen = list(pool.map(write_and_read, range(writers)))

        # Every read that hit the file saw a complete entry, never a torn one.
        assert all(result == value for result in seen)
        assert store.load("hot") == value
        assert store.count() == 1
        assert not list(store.cache.root.glob("*.tmp"))


def test_concurrent_distinct_keys(stores):
    for store in stores:

        def write(i: int, store=store):
            store.store(f"k{i}", store.value(i))

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(write, range(32)))

        assert store.count() == 32
        assert all(store.load(f"k{i}") == store.value(i) for i in range(32))
        assert not list(store.cache.root.glob("*.tmp"))

