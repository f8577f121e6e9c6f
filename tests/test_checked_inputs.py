"""The rules the frozen input types share: stored arrays, validation order and messages."""

import re

import numpy as np
import pytest

from catdcor import (
    CardinalityError,
    DegenerateEncodingError,
    DistanceMatrix,
    Encoding,
    InternalConsistencyError,
    JointDistribution,
    JointTable,
    SettingSpec,
    ShapeError,
    distance_matrix,
    one_hot,
)
from catdcor.inference import spectrum


# Each case builds one type from float arrays it owns and names the field each is stored in.
FROZEN = {
    "Encoding": (lambda a: Encoding(labels=("a", "b", "c"), points=a[0]),
                 [np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 3.0]])], ["points"]),
    "DistanceMatrix": (lambda a: DistanceMatrix(d=a[0], scale=2.0),
                       [1.0 - np.eye(3)], ["d"]),
    "JointTable": (lambda a: JointTable(counts=a[0]),
                   [np.array([[3.0, 1.0], [2.5, 4.0]])], ["counts"]),
    "JointDistribution": (lambda a: JointDistribution(pi=a[0]),
                          [np.array([[0.25, 0.25], [0.125, 0.375]])], ["pi"]),
    "SettingSpec": (lambda a: SettingSpec(setting_id=1, n_rows=3, n_cols=2, row_marginal=a[0],
                                          col_marginal=a[1], delta=0.01, cells=((0, 0),),
                                          n_features=10, relevant_count=2, n=50),
                    [np.array([0.5, 0.25, 0.25]), np.array([0.5, 0.5])],
                    ["row_marginal", "col_marginal"]),
}


@pytest.mark.parametrize("name", FROZEN)
def test_fields_are_read_only_copies(name):
    build, arrays, fields = FROZEN[name]
    obj = build(arrays)
    for array, field in zip(arrays, fields, strict=True):
        stored = getattr(obj, field)
        assert array.flags.writeable
        assert not np.shares_memory(array, stored)
        assert not stored.flags.writeable
        np.testing.assert_array_equal(stored, array)


def one_entry_changed(size, i, j, value):
    """The one-hot distances of ``size`` categories with entry ``(i, j)`` set to ``value``."""
    d = 1.0 - np.eye(size)
    d[i, j] = value
    return d


@pytest.mark.parametrize("d, scale, error, message", [
    (np.ones((2, 3)), 1.0, ShapeError, "distance matrix must be square"),
    (np.ones(3), 1.0, ShapeError, "distance matrix must be square"),
    (np.zeros((1, 1)), 1.0, CardinalityError, "distance matrix needs at least two categories"),
    ([[0.0, np.inf], [np.inf, 0.0]], 1.0, ShapeError, "distances must be finite"),
    # A non-finite entry is reported before the asymmetry it also causes.
    (one_entry_changed(3, 0, 2, np.nan), 1.0, ShapeError, "distances must be finite"),
    ([[0.0, 1.0], [1.0, 0.5]], 1.0, ShapeError, "distance matrix must have a zero diagonal"),
    (one_entry_changed(300, 290, 5, 0.5), 1.0, ShapeError, "distance matrix must be symmetric"),
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], 1.0, DegenerateEncodingError,
     "off-diagonal distances must be positive"),
    (1.0 - np.eye(3), 0.0, ShapeError, "scale must be positive"),
    (1.0 - np.eye(3), -1.0, ShapeError, "scale must be positive"),
], ids=["non-square", "one-dimensional", "one-by-one", "non-finite", "non-finite-first",
        "nonzero-diagonal", "asymmetric-290-5", "zero-off-diagonal", "zero-scale",
        "negative-scale"])
def test_distance_matrix_validation(d, scale, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        DistanceMatrix(d=d, scale=scale)
    assert type(caught.value) is error


def test_structural_zero_message_formats_plain_floats():
    # Margins that do not sum to 1 lose the structural zero of the surrogate.
    message = ("expected one structural zero eigenvalue, smallest magnitude is "
               "0.18749999999999997 against spectral radius 0.7499999999999999")
    with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
        spectrum([0.75, 0.75], distance_matrix(one_hot(2)))
