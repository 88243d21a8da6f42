"""ETCBatch: the store's zero-copy read-only view of stacked instances."""

import numpy as np
import pytest

from repro.etc import ETCBatch, ETCMatrix
from repro.exceptions import ETCShapeError


@pytest.fixture
def matrices():
    return [
        ETCMatrix([[1.0, 4.0], [3.0, 2.0]], tasks=("a", "b"), machines=("x", "y")),
        ETCMatrix([[2.0, 2.0], [1.0, 6.0]], tasks=("a", "b"), machines=("x", "y")),
        ETCMatrix([[5.0, 1.0], [2.0, 2.0]], tasks=("a", "b"), machines=("x", "y")),
    ]


@pytest.fixture
def batch(matrices):
    return ETCBatch._from_trusted(
        np.stack([m.values for m in matrices]), ("a", "b"), ("x", "y")
    )


class TestConstruction:
    def test_from_trusted_adopts_values_and_labels(self, matrices):
        block = np.stack([m.values for m in matrices])
        batch = ETCBatch._from_trusted(block, ("a", "b"), ("x", "y"))
        assert batch.values is block
        assert batch.shape == (3, 2, 2)
        assert len(batch) == 3
        assert batch.num_tasks == 2
        assert batch.num_machines == 2
        assert batch.tasks == ("a", "b")
        assert batch.machines == ("x", "y")

    def test_from_trusted_rejects_non_3d(self):
        with pytest.raises(ETCShapeError):
            ETCBatch._from_trusted(np.ones((2, 2)), ("a", "b"), ("x", "y"))

    def test_no_public_constructor(self):
        # Batches are store views; single instances go through ETCMatrix.
        with pytest.raises(TypeError):
            ETCBatch(np.ones((1, 2, 2)))

    def test_values_are_read_only(self, batch):
        with pytest.raises(ValueError):
            batch.values[0, 0, 0] = 9.0


class TestInstances:
    def test_instance_is_a_zero_copy_view(self, matrices, batch):
        inst = batch.instance(1)
        assert isinstance(inst, ETCMatrix)
        assert np.shares_memory(inst.values, batch.values)
        assert inst.values.flags.c_contiguous
        np.testing.assert_array_equal(inst.values, matrices[1].values)
        assert inst.tasks == batch.tasks and inst.machines == batch.machines

    def test_instance_range_checked(self, matrices, batch):
        with pytest.raises(IndexError):
            batch.instance(3)
        with pytest.raises(IndexError):
            batch.instance(-4)
        assert batch.instance(-1).values[0, 0] == matrices[-1].values[0, 0]

    def test_instances_iterates_in_order(self, matrices, batch):
        for inst, src in zip(batch.instances(), matrices):
            np.testing.assert_array_equal(inst.values, src.values)


class TestFromTrustedStrides:
    """Regression: _from_trusted must never adopt mis-strided slices."""

    def test_non_contiguous_slice_is_copied_to_c_order(self):
        block = np.arange(1.0, 25.0).reshape(2, 3, 4)
        # A machine-axis slice of a stacked block: 2-D but strided.
        view = block[:, :, 0]
        assert not view.flags.c_contiguous
        etc = ETCMatrix._from_trusted(view, ("a", "b"), ("x", "y", "z"))
        assert etc.values.flags.c_contiguous
        assert not np.shares_memory(etc.values, block)
        np.testing.assert_array_equal(etc.values, view)

    def test_leading_axis_slice_still_zero_copy(self):
        block = np.ascontiguousarray(np.arange(1.0, 25.0).reshape(2, 3, 4))
        etc = ETCMatrix._from_trusted(
            block[1], ("a", "b", "c"), ("w", "x", "y", "z")
        )
        assert np.shares_memory(etc.values, block)

    def test_non_2d_trusted_values_rejected(self):
        block = np.ones((2, 3, 4))
        with pytest.raises(ETCShapeError):
            ETCMatrix._from_trusted(block, ("a", "b"), ("x", "y"))
