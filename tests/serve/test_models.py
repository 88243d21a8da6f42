"""Request parsing, canonicalisation and cache-key identity.

The load-bearing contract is :func:`repro.serve.models.request_key`:
it must ignore *presentation-only* fields (``trace``, ``request_id``)
and react to every *result-determining* one (ETC payload, heuristic,
tie policy, seed, backend, iteration cap, ensemble spec).  The
hypothesis battery at the bottom pins that down as a property rather
than a handful of examples.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.models import (
    REQUEST_SCHEMA,
    RequestValidationError,
    ServeError,
    parse_request,
    request_identity,
    request_key,
)

pytestmark = pytest.mark.serve

VALUES = [[4.0, 5.0, 5.0], [6.0, 2.0, 2.0], [5.0, 6.0, 3.0], [4.0, 1.0, 3.0]]


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
    assert request.etc_values == tuple(tuple(row) for row in VALUES)
    assert request.etc_tasks == ("t0", "t1", "t2", "t3")
    assert request.ensemble is None


def test_etc_matrix_round_trips():
    request = parse_request(map_payload())
    etc = request.etc_matrix()
    assert etc.num_tasks == 4
    assert etc.num_machines == 3
    assert etc.values.tolist() == VALUES


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
        (map_payload(scenarios="all"), "'scenarios' must be a list"),
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


def test_numeric_labels_do_not_share_a_key_with_strings():
    with pytest.raises(RequestValidationError):
        parse_request(
            {"kind": "map", "etc": {"values": [[1.0]], "tasks": [7]}}
        )
    request = parse_request(
        {"kind": "map", "etc": {"values": [[1.0]], "tasks": ["7"]}}
    )
    assert request.etc_tasks == ("7",)


def test_explicit_string_labels_accepted():
    request = parse_request(
        map_payload(
            etc={"values": VALUES, "tasks": ["a", "b", "c", "d"],
                 "machines": ["x", "y", "z"]}
        )
    )
    assert request.etc_tasks == ("a", "b", "c", "d")
    assert request.etc_machines == ("x", "y", "z")


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


def test_scenarios_reserved_but_unimplemented():
    with pytest.raises(RequestValidationError, match="reserved"):
        parse_request(map_payload(scenarios=[{"name": "s0"}]))
    # The empty list (the default) is fine.
    assert parse_request(map_payload(scenarios=[])).scenarios == ()


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
