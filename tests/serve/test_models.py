"""Request parsing, canonicalisation and cache-key identity.

The load-bearing contract is :func:`repro.serve.models.request_key`:
it must ignore *presentation-only* fields (``trace``, ``request_id``)
and react to every *result-determining* one (ETC payload, heuristic,
tie policy, seed, backend, iteration cap, ensemble spec).  The
hypothesis battery at the bottom pins that down as a property rather
than a handful of examples.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.models import (
    REQUEST_SCHEMA,
    RequestValidationError,
    ServeError,
    etc_digest,
    parse_request,
    request_identity,
    request_key,
)
from repro.serve.service import SchedulingService, execute_request

pytestmark = pytest.mark.serve

VALUES = [[4.0, 5.0, 5.0], [6.0, 2.0, 2.0], [5.0, 6.0, 3.0], [4.0, 1.0, 3.0]]

#: ``request_key`` of ``map_payload()``.
PINNED_KEY = "521873ebb0e56f575c1560a24185fe978ec01f402acc39b7aef066437854874c"


def map_payload(**overrides) -> dict:
    payload = {"kind": "map", "etc": {"values": VALUES}}
    payload.update(overrides)
    return payload


# ----------------------------------------------------------------------
# Parsing and validation
# ----------------------------------------------------------------------


def test_parse_map_defaults():
    request = parse_request(map_payload())
    assert request.kind == "map"
    assert request.heuristic == "min-min"
    assert request.ties == "deterministic"
    assert request.seed == 0
    assert request.seeded is False
    assert request.backend == "incremental"
    assert request.max_iterations is None
    assert request.trace is False
    assert request.etc.values.tolist() == VALUES
    assert request.etc.tasks == ("t0", "t1", "t2", "t3")
    assert request.ensemble is None


def test_etc_matrix_round_trips():
    request = parse_request(map_payload())
    etc = request.etc_matrix()
    assert etc.num_tasks == 4
    assert etc.num_machines == 3
    assert etc.values.tolist() == VALUES
    # The parsed matrix itself: no rebuild, no second validation.
    assert etc is request.etc
    assert etc.values.dtype == np.float64
    assert not etc.values.flags.writeable


def test_study_has_no_inline_etc():
    request = parse_request(
        {"kind": "study", "ensemble": {"tasks": 4, "machines": 2, "instances": 1}}
    )
    with pytest.raises(ServeError):
        request.etc_matrix()


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("not a dict", "JSON object"),
        ({}, "'kind'"),
        (map_payload(kind="nonsense"), "'kind'"),
        (map_payload(schema="repro-serve-request/9"), "unsupported request schema"),
        (map_payload(bogus=1), "unknown request field"),
        (map_payload(heuristic="does-not-exist"), "unknown heuristic"),
        (map_payload(ties="coin-flip"), "unknown tie policy"),
        (map_payload(backend="quantum"), "unknown backend"),
        (map_payload(seed="zero"), "'seed'"),
        (map_payload(seed=True), "'seed'"),
        (map_payload(seeded="yes"), "'seeded'"),
        (map_payload(trace=1), "'trace'"),
        (map_payload(max_iterations=0), "'max_iterations'"),
        (map_payload(max_iterations=True), "'max_iterations'"),
        (map_payload(request_id=7), "'request_id'"),
        (map_payload(scenarios=[]), "unknown request field"),
        ({"kind": "map"}, "need an inline 'etc'"),
        ({"kind": "map", "etc": {"values": VALUES}, "ensemble": {}},
         "not 'ensemble'"),
        ({"kind": "study"}, "need an 'ensemble'"),
        ({"kind": "study", "ensemble": {"tasks": 4}, "etc": {"values": VALUES}},
         "not 'etc'"),
    ],
)
def test_malformed_payloads_rejected(payload, fragment):
    with pytest.raises(RequestValidationError) as excinfo:
        parse_request(payload)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize(
    "etc",
    [
        "csv-as-string",
        {},
        {"csv": "a,b\n1,2", "values": VALUES},
        {"values": VALUES, "bogus": 1},
        {"csv": "t,m0\nt0,1", "tasks": ["t0"]},
        {"values": [[1.0, -2.0]]},
        {"values": [[1.0], [1.0, 2.0]]},
        {"values": []},
        {"csv": 42},
        {"values": [[1.0, 10**400]]},  # beyond float range
    ],
)
def test_malformed_etc_rejected(etc):
    with pytest.raises(RequestValidationError):
        parse_request({"kind": "map", "etc": etc})


@pytest.mark.parametrize(
    "field, labels",
    [
        ("machines", "abc"),
        ("tasks", {"t0": 0, "t1": 1, "t2": 2, "t3": 3}),
        ("tasks", [0, 1, 2, 3]),
        ("tasks", ["t0", "t1", "t2", 3]),
        ("machines", ("m0", "m1", "m2")),
        ("machines", None),
        ("machines", 3),
    ],
)
def test_etc_labels_must_be_string_arrays(field, labels):
    """Labels are never coerced: ``"abc"`` is not machines a, b, c."""
    with pytest.raises(RequestValidationError) as excinfo:
        parse_request({"kind": "map", "etc": {"values": VALUES, field: labels}})
    assert f"'etc.{field}' must be an array of strings" in str(excinfo.value)


class _LoudDict(dict):
    def __repr__(self):
        raise AssertionError("repr of a valid payload value")


def test_valid_values_are_never_formatted():
    """Error messages are formatted only on failure: a valid payload
    whose values cannot be ``repr``'d still parses."""
    etc = _LoudDict(values=VALUES, tasks=["a", "b", "c", "d"])
    request = parse_request(map_payload(etc=etc))
    assert request.etc.tasks == ("a", "b", "c", "d")
    ensemble = _LoudDict(tasks=4, machines=2, instances=1)
    assert parse_request({"kind": "study", "ensemble": ensemble}).ensemble[
        "tasks"
    ] == 4


def test_numeric_labels_do_not_share_a_key_with_strings():
    with pytest.raises(RequestValidationError):
        parse_request(
            {"kind": "map", "etc": {"values": [[1.0]], "tasks": [7]}}
        )
    request = parse_request(
        {"kind": "map", "etc": {"values": [[1.0]], "tasks": ["7"]}}
    )
    assert request.etc.tasks == ("7",)


def test_explicit_string_labels_accepted():
    request = parse_request(
        map_payload(
            etc={"values": VALUES, "tasks": ["a", "b", "c", "d"],
                 "machines": ["x", "y", "z"]}
        )
    )
    assert request.etc.tasks == ("a", "b", "c", "d")
    assert request.etc.machines == ("x", "y", "z")


@pytest.mark.parametrize(
    "ensemble",
    [
        "spec",
        {"tasks": 0},
        {"machines": -1},
        {"instances": 0},
        {"tasks": 4.5},
        {"heterogeneity": "medium"},
        {"consistency": "mostly"},
        {"method": "magic"},
        {"bogus": 1},
    ],
)
def test_malformed_ensemble_rejected(ensemble):
    with pytest.raises(RequestValidationError):
        parse_request({"kind": "study", "ensemble": ensemble})


def test_scenarios_field_is_unknown():
    """The reserved ``scenarios`` field is gone: even ``[]``, which it
    used to accept, is a 400 like any other unknown field."""
    service = SchedulingService(cache_dir=None)
    try:
        for scenarios in ([], [{"name": "s0"}]):
            status, body = asyncio.run(
                service.handle(map_payload(scenarios=scenarios))
            )
            assert status == 400
            assert body["error"]["type"] == "validation"
            assert body["error"]["message"] == (
                "unknown request field(s): ['scenarios']"
            )
    finally:
        service.close()


def test_ensemble_defaults_canonicalised():
    request = parse_request({"kind": "study", "ensemble": {}})
    assert request.ensemble == {
        "tasks": 40,
        "machines": 8,
        "instances": 10,
        "heterogeneity": "hihi",
        "consistency": "inconsistent",
        "method": "range",
    }


# ----------------------------------------------------------------------
# Identity and cache keys
# ----------------------------------------------------------------------


def test_csv_and_values_forms_share_a_key():
    csv_text = "task,m0,m1,m2\n" + "\n".join(
        f"t{i}," + ",".join(str(v) for v in row) for i, row in enumerate(VALUES)
    )
    from_values = parse_request(map_payload())
    from_csv = parse_request({"kind": "map", "etc": {"csv": csv_text}})
    assert request_identity(from_values) == request_identity(from_csv)
    assert request_key(from_values) == request_key(from_csv)


def test_identity_excludes_presentation_fields():
    identity = request_identity(parse_request(map_payload()))
    assert "trace" not in identity
    assert "request_id" not in identity
    assert identity["schema"] == REQUEST_SCHEMA


@pytest.mark.parametrize(
    "change",
    [
        {"heuristic": "mct"},
        {"ties": "random"},
        {"seed": 7},
        {"seeded": True},
        {"backend": "reference"},
        {"max_iterations": 2},
        {"etc": {"values": [[4.0, 5.0, 5.0], [6.0, 2.0, 2.0],
                            [5.0, 6.0, 3.0], [4.0, 1.0, 3.5]]}},
        {"kind": "iterate"},
    ],
)
def test_result_determining_changes_miss(change):
    base = request_key(parse_request(map_payload()))
    assert request_key(parse_request(map_payload(**change))) != base


def test_ensemble_changes_miss():
    base = {"kind": "study", "ensemble": {"tasks": 8, "machines": 4}}
    key = request_key(parse_request(base))
    for change in ({"tasks": 9}, {"machines": 5}, {"instances": 3},
                   {"heterogeneity": "lolo"}, {"consistency": "consistent"},
                   {"method": "cvb"}):
        payload = {"kind": "study", "ensemble": {**base["ensemble"], **change}}
        assert request_key(parse_request(payload)) != key


# ----------------------------------------------------------------------
# The array key: shape, value bytes and labels
# ----------------------------------------------------------------------


def test_identity_names_the_etc_by_shape_digest_and_labels():
    request = parse_request(map_payload())
    assert request_identity(request)["etc"] == {
        "shape": [4, 3],
        "sha256": etc_digest(request.etc),
        "tasks": ["t0", "t1", "t2", "t3"],
        "machines": ["m0", "m1", "m2"],
    }
    assert etc_digest(request.etc) == hashlib.sha256(
        np.array(VALUES, dtype="<f8").tobytes(order="C")
    ).hexdigest()


def test_pinned_key():
    """One fixed request's key; a later accidental key change fails here."""
    assert request_key(parse_request(map_payload())) == PINNED_KEY


def test_one_ulp_change_misses():
    base = parse_request(map_payload())
    bumped = np.array(VALUES)
    bumped[2, 1] = np.nextafter(bumped[2, 1], np.inf)
    moved = parse_request(map_payload(etc={"values": bumped.tolist()}))
    assert request_key(moved) != request_key(base)
    assert moved != base


def test_equal_bytes_in_different_shapes_miss():
    flat = [1.0, 2.0, 3.0, 4.0]
    requests = [
        parse_request(
            {"kind": "map", "etc": {"values": np.reshape(flat, shape).tolist()}}
        )
        for shape in ((1, 4), (2, 2), (4, 1))
    ]
    assert len({etc_digest(r.etc) for r in requests}) == 1
    assert len({request_key(r) for r in requests}) == 3


@pytest.mark.parametrize("field", ["tasks", "machines"])
def test_reordered_labels_miss(field):
    labels = {"tasks": ["a", "b", "c", "d"], "machines": ["x", "y", "z"]}
    etc = {"values": VALUES, **labels}
    reordered = parse_request(
        map_payload(etc={**etc, field: labels[field][::-1]})
    )
    original = parse_request(map_payload(etc=etc))
    assert etc_digest(reordered.etc) == etc_digest(original.etc)
    assert request_key(reordered) != request_key(original)


def test_integer_and_float_json_share_a_key():
    as_ints = [[int(v) for v in row] for row in VALUES]
    from_ints = parse_request(map_payload(etc={"values": as_ints}))
    from_floats = parse_request(map_payload())
    assert request_key(from_ints) == request_key(from_floats)
    assert from_ints == from_floats


def test_backend_alias_shares_a_key_with_its_target():
    incremental = parse_request(map_payload(backend="incremental"))
    batched = parse_request(map_payload(backend="batched"))
    reference = parse_request(map_payload(backend="reference"))
    assert request_key(batched) == request_key(incremental)
    assert request_identity(batched)["backend"] == "incremental"
    assert request_key(reference) != request_key(incremental)


def test_request_equality_hash_replace_and_pickle():
    csv_text = "task,m0,m1,m2\n" + "\n".join(
        f"t{i}," + ",".join(str(v) for v in row) for i, row in enumerate(VALUES)
    )
    from_values = parse_request(map_payload(request_id="a"))
    from_csv = parse_request({"kind": "map", "etc": {"csv": csv_text}})
    assert from_values == from_csv
    assert hash(from_values) == hash(from_csv)
    assert from_values != parse_request(map_payload(heuristic="mct"))

    reference = dataclasses.replace(from_values, backend="reference")
    assert reference.backend == "reference"
    assert reference.etc is from_values.etc
    assert reference.etc_identity == from_values.etc_identity
    assert reference != from_values

    restored = pickle.loads(pickle.dumps(from_values))
    assert restored == from_values
    assert restored.request_id == "a"
    assert request_key(restored) == request_key(from_values)
    assert execute_request(restored) == execute_request(from_values)


# ----------------------------------------------------------------------
# Property battery: non-identity fields never change the key; every
# identity field does.
# ----------------------------------------------------------------------

small_etcs = st.lists(
    st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=2, max_size=4),
    min_size=1,
    max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)

configs = st.fixed_dictionaries(
    {
        "heuristic": st.sampled_from(["min-min", "max-min", "mct", "olb"]),
        "ties": st.sampled_from(["deterministic", "random"]),
        "seed": st.integers(0, 2**16),
        "seeded": st.booleans(),
    }
)

presentation = st.fixed_dictionaries(
    {
        "trace": st.booleans(),
        "request_id": st.one_of(st.none(), st.text(max_size=12)),
    }
)


@pytest.mark.properties
@settings(max_examples=50, deadline=None)
@given(values=small_etcs, config=configs, first=presentation, second=presentation)
def test_property_presentation_fields_share_a_cache_entry(
    values, config, first, second
):
    base = {"kind": "map", "etc": {"values": values}, **config}
    key_first = request_key(parse_request({**base, **first}))
    key_second = request_key(parse_request({**base, **second}))
    assert key_first == key_second


@pytest.mark.properties
@settings(max_examples=50, deadline=None)
@given(
    values=small_etcs,
    config=configs,
    mutation=st.sampled_from(["etc", "heuristic", "ties", "seed", "seeded"]),
    data=st.data(),
)
def test_property_identity_changes_always_miss(values, config, mutation, data):
    base = {"kind": "map", "etc": {"values": values}, **config}
    mutated = dict(base)
    if mutation == "etc":
        bumped = [list(row) for row in values]
        bumped[0][0] += 1.0
        mutated["etc"] = {"values": bumped}
    elif mutation == "heuristic":
        mutated["heuristic"] = data.draw(
            st.sampled_from(["min-min", "max-min", "mct", "olb"]).filter(
                lambda h: h != config["heuristic"]
            )
        )
    elif mutation == "ties":
        mutated["ties"] = (
            "random" if config["ties"] == "deterministic" else "deterministic"
        )
    elif mutation == "seed":
        mutated["seed"] = config["seed"] + 1
    else:
        mutated["seeded"] = not config["seeded"]
    assert request_key(parse_request(mutated)) != request_key(parse_request(base))
