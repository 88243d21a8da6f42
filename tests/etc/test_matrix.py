"""Unit tests for repro.etc.matrix.ETCMatrix."""

import numpy as np
import pytest

from repro.etc.matrix import (
    ETCMatrix,
    default_machine_labels,
    default_task_labels,
)
from repro.exceptions import ETCShapeError, ETCValueError, LabelError


class TestConstruction:
    def test_basic_shape_and_labels(self):
        etc = ETCMatrix([[1, 2], [3, 4], [5, 6]])
        assert etc.shape == (3, 2)
        assert etc.num_tasks == 3
        assert etc.num_machines == 2
        assert etc.tasks == ("t0", "t1", "t2")
        assert etc.machines == ("m0", "m1")

    def test_custom_labels(self):
        etc = ETCMatrix([[1, 2]], tasks=["job"], machines=["fast", "slow"])
        assert etc.tasks == ("job",)
        assert etc.machines == ("fast", "slow")

    def test_values_are_float64_and_readonly(self):
        etc = ETCMatrix([[1, 2]])
        assert etc.values.dtype == np.float64
        with pytest.raises(ValueError):
            etc.values[0, 0] = 9.0

    def test_input_array_not_aliased(self):
        src = np.array([[1.0, 2.0]])
        etc = ETCMatrix(src)
        src[0, 0] = 99.0
        assert etc.values[0, 0] == 1.0

    def test_rejects_1d(self):
        with pytest.raises(ETCShapeError):
            ETCMatrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ETCShapeError):
            ETCMatrix(np.empty((0, 3)))
        with pytest.raises(ETCShapeError):
            ETCMatrix(np.empty((3, 0)))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(ETCValueError):
            ETCMatrix([[1.0, bad]])

    def test_rejects_wrong_label_count(self):
        with pytest.raises(ETCShapeError):
            ETCMatrix([[1, 2]], tasks=["a", "b"])
        with pytest.raises(ETCShapeError):
            ETCMatrix([[1, 2]], machines=["only"])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ETCShapeError):
            ETCMatrix([[1, 2], [3, 4]], tasks=["same", "same"])

    def test_from_dict_roundtrip(self):
        table = {"a": {"x": 1.0, "y": 2.0}, "b": {"x": 3.0, "y": 4.0}}
        etc = ETCMatrix.from_dict(table)
        assert etc.to_dict() == table

    def test_from_dict_inconsistent_machines(self):
        with pytest.raises(ETCShapeError):
            ETCMatrix.from_dict({"a": {"x": 1.0}, "b": {"y": 1.0}})

    def test_from_dict_empty(self):
        with pytest.raises(ETCShapeError):
            ETCMatrix.from_dict({})


class TestAccess:
    def test_etc_lookup(self, tiny_etc):
        assert tiny_etc.etc("a", "x") == 1.0
        assert tiny_etc.etc("b", "y") == 2.0

    def test_unknown_labels_raise(self, tiny_etc):
        with pytest.raises(LabelError):
            tiny_etc.etc("zzz", "x")
        with pytest.raises(LabelError):
            tiny_etc.etc("a", "zzz")
        with pytest.raises(LabelError):
            tiny_etc.task_index("nope")
        with pytest.raises(LabelError):
            tiny_etc.machine_index("nope")

    def test_has_task_machine(self, tiny_etc):
        assert tiny_etc.has_task("a") and not tiny_etc.has_task("q")
        assert tiny_etc.has_machine("y") and not tiny_etc.has_machine("q")

    def test_row_and_column_views(self, tiny_etc):
        row = tiny_etc.task_row("b")
        col = tiny_etc.machine_column("y")
        assert row.tolist() == [3.0, 2.0]
        assert col.tolist() == [4.0, 2.0]
        # views of the read-only backing array
        with pytest.raises(ValueError):
            row[0] = 0.0

    def test_index_lookup(self, tiny_etc):
        assert tiny_etc.task_index("b") == 1
        assert tiny_etc.machine_index("x") == 0


class TestRestriction:
    def test_submatrix_preserves_labels_and_values(self, square_etc):
        sub = square_etc.submatrix(tasks=["t1", "t3"], machines=["m0", "m2"])
        assert sub.tasks == ("t1", "t3")
        assert sub.machines == ("m0", "m2")
        assert sub.etc("t3", "m2") == square_etc.etc("t3", "m2")

    def test_submatrix_caller_order_respected(self, square_etc):
        sub = square_etc.submatrix(tasks=["t3", "t1"])
        assert sub.tasks == ("t3", "t1")
        assert sub.values[0].tolist() == square_etc.task_row("t3").tolist()

    def test_submatrix_none_keeps_axis(self, square_etc):
        sub = square_etc.submatrix(machines=["m1"])
        assert sub.tasks == square_etc.tasks
        assert sub.machines == ("m1",)

    def test_submatrix_rejects_empty(self, square_etc):
        with pytest.raises(ETCShapeError):
            square_etc.submatrix(tasks=[])
        with pytest.raises(ETCShapeError):
            square_etc.submatrix(machines=[])

    def test_submatrix_unknown_label(self, square_etc):
        with pytest.raises(LabelError):
            square_etc.submatrix(tasks=["nope"])

    def test_without_machine(self, square_etc):
        sub = square_etc.without_machine("m1", ["t0", "t2"])
        assert sub.machines == ("m0", "m2", "m3")
        assert sub.tasks == ("t1", "t3")

    def test_without_machine_unknown_raises(self, square_etc):
        with pytest.raises(LabelError):
            square_etc.without_machine("nope", [])
        with pytest.raises(LabelError):
            square_etc.without_machine("m0", ["nope"])

    def test_without_machine_keeps_relative_order(self, square_etc):
        sub = square_etc.without_machine("m0", ["t1"])
        assert sub.tasks == ("t0", "t2", "t3")
        assert sub.machines == ("m1", "m2", "m3")


class TestDunder:
    def test_equality_and_hash(self):
        a = ETCMatrix([[1, 2]])
        b = ETCMatrix([[1, 2]])
        c = ETCMatrix([[1, 3]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_equality_label_sensitive(self):
        a = ETCMatrix([[1, 2]], tasks=["a"])
        b = ETCMatrix([[1, 2]], tasks=["b"])
        assert a != b

    def test_equality_other_type(self):
        assert ETCMatrix([[1, 2]]) != "not-a-matrix"

    def test_repr_mentions_shape(self, tiny_etc):
        assert "shape=(2, 2)" in repr(tiny_etc)

    def test_pretty_contains_all_labels(self, tiny_etc):
        text = tiny_etc.pretty()
        for label in ("a", "b", "x", "y"):
            assert label in text


def test_default_labels():
    assert default_task_labels(3) == ("t0", "t1", "t2")
    assert default_machine_labels(2) == ("m0", "m1")


class TestTrustedRestriction:
    """The trusted fast path: read-only copies, no re-validation, eager label checks."""

    def test_contiguous_restriction_is_readonly_view(self, square_etc):
        sub = square_etc.submatrix(
            tasks=square_etc.tasks[1:], machines=square_etc.machines[:2]
        )
        assert not sub.values.flags.writeable

    def test_noncontiguous_restriction_copies_once(self, square_etc):
        sub = square_etc.submatrix(tasks=[square_etc.tasks[0], square_etc.tasks[2]])
        assert not np.shares_memory(sub.values, square_etc.values)
        assert not sub.values.flags.writeable

    def test_restriction_labels_are_parent_objects(self, square_etc):
        sub = square_etc.submatrix(machines=square_etc.machines[1:])
        for label in sub.machines:
            assert any(label is parent for parent in square_etc.machines)

    def test_without_machine_typo_fails_before_restriction(
        self, square_etc, monkeypatch
    ):
        """A typo'd dropped-task label raises before any submatrix is built."""
        calls = []

        def spy(self, rows, cols):
            calls.append((tuple(rows), tuple(cols)))
            raise AssertionError("restriction must not run for bad labels")

        monkeypatch.setattr(ETCMatrix, "_restricted", spy)
        with pytest.raises(LabelError):
            square_etc.without_machine(square_etc.machines[0], ["no-such-task"])
        assert calls == []

    def test_hash_is_memoized(self):
        etc = ETCMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert etc._hash is None
        first = hash(etc)
        assert etc._hash == first
        assert hash(etc) == first

    def test_restricted_hash_matches_fresh_equal_matrix(self, square_etc):
        sub = square_etc.submatrix(tasks=square_etc.tasks[:2])
        rebuilt = ETCMatrix(
            np.asarray(sub.values), tasks=sub.tasks, machines=sub.machines
        )
        assert sub == rebuilt
        assert hash(sub) == hash(rebuilt)
