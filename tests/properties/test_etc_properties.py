"""Property-based tests for the ETC substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.etc.generation import (
    Consistency,
    Heterogeneity,
    RangeBasedParams,
    apply_consistency,
    generate_cvb,
    generate_range_based,
)
from repro.etc.io import from_csv, from_json, to_csv, to_json


@st.composite
def small_dims(draw):
    return draw(st.integers(1, 12)), draw(st.integers(1, 6))


@given(dims=small_dims(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_range_based_always_valid(dims, seed):
    tasks, machines = dims
    etc = generate_range_based(tasks, machines, rng=seed)
    assert etc.shape == (tasks, machines)
    assert np.all(etc.values > 0)
    assert np.all(np.isfinite(etc.values))


@given(dims=small_dims(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cvb_always_valid(dims, seed):
    tasks, machines = dims
    etc = generate_cvb(tasks, machines, rng=seed)
    assert np.all(etc.values > 0)
    assert np.all(np.isfinite(etc.values))


@given(
    dims=small_dims(),
    seed=st.integers(0, 2**32 - 1),
    task_range=st.floats(2.0, 1000.0),
    machine_range=st.floats(2.0, 1000.0),
)
@settings(max_examples=30, deadline=None)
def test_range_based_respects_bounds(dims, seed, task_range, machine_range):
    tasks, machines = dims
    params = RangeBasedParams(task_range=task_range, machine_range=machine_range)
    etc = generate_range_based(tasks, machines, params, rng=seed)
    assert etc.values.min() >= 1.0
    assert etc.values.max() <= task_range * machine_range


@given(
    dims=small_dims(),
    seed=st.integers(0, 2**32 - 1),
    consistency=st.sampled_from(list(Consistency)),
)
@settings(max_examples=30, deadline=None)
def test_consistency_preserves_row_multisets(dims, seed, consistency):
    tasks, machines = dims
    raw = np.random.default_rng(seed).uniform(1, 100, size=(tasks, machines))
    out = apply_consistency(raw, consistency)
    assert np.allclose(np.sort(raw, axis=1), np.sort(out, axis=1))


@given(
    dims=small_dims(),
    seed=st.integers(0, 2**32 - 1),
    heterogeneity=st.sampled_from(list(Heterogeneity)),
)
@settings(max_examples=20, deadline=None)
def test_generation_deterministic_in_seed(dims, seed, heterogeneity):
    tasks, machines = dims
    a = generate_range_based(tasks, machines, heterogeneity, rng=seed)
    b = generate_range_based(tasks, machines, heterogeneity, rng=seed)
    assert a == b


@given(dims=small_dims(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_io_roundtrips_preserve_everything(dims, seed):
    tasks, machines = dims
    etc = generate_range_based(tasks, machines, rng=seed)
    assert from_csv(to_csv(etc)) == etc
    assert from_json(to_json(etc)) == etc


@given(dims=small_dims(), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=25, deadline=None)
def test_restriction_then_restriction_composes(dims, seed, data):
    """Restricting twice equals restricting once with the intersection."""
    tasks, machines = dims
    etc = generate_range_based(tasks, machines, rng=seed)
    keep_tasks = data.draw(
        st.lists(st.sampled_from(list(etc.tasks)), min_size=1, unique=True)
    )
    sub = etc.submatrix(tasks=keep_tasks)
    if len(keep_tasks) > 1:
        nested = sub.submatrix(tasks=keep_tasks[:-1])
        direct = etc.submatrix(tasks=keep_tasks[:-1])
        assert nested == direct


@st.composite
def ascending_selection(draw, size):
    """Ascending, duplicate-free indices into ``range(size)``: a random
    subset, a contiguous run, or a single index."""
    shape = draw(st.sampled_from(["subset", "run", "single"]))
    if shape == "single":
        return [draw(st.integers(0, size - 1))]
    if shape == "run":
        start = draw(st.integers(0, size - 1))
        stop = draw(st.integers(start + 1, size))
        return list(range(start, stop))
    return sorted(
        draw(st.lists(st.integers(0, size - 1), min_size=1, unique=True))
    )


@given(dims=small_dims(), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=60, deadline=None)
def test_restriction_selects_values_and_parent_labels(dims, seed, data):
    """``ETCMatrix._restricted`` (the iterative driver's restriction)
    is a read-only C-contiguous ``values[np.ix_(rows, cols)]`` with
    the parent's labels."""
    tasks, machines = dims
    etc = generate_range_based(tasks, machines, rng=seed)
    rows = data.draw(ascending_selection(tasks))
    cols = data.draw(ascending_selection(machines))
    sub = etc._restricted(np.asarray(rows), cols)
    np.testing.assert_array_equal(sub.values, etc.values[np.ix_(rows, cols)])
    assert sub.tasks == tuple(etc.tasks[i] for i in rows)
    assert sub.machines == tuple(etc.machines[j] for j in cols)
    assert sub.values.flags.c_contiguous
    assert not sub.values.flags.writeable
