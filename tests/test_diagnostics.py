"""Every diagnostic leaves the package as a RuntimeWarning at the caller's line.

Zero-count categories dropped before a null spectrum, degenerate features
scored 0 and a clamped population dcor2 are reported through one helper,
which attributes the warning to the innermost frame outside the package:
the line that called the public function, however deeply the warning was
raised inside it.
"""

import warnings

import numpy as np
import pytest

import catdcor.measures
from catdcor import (
    JointDistribution,
    JointTable,
    dcor2,
    distance_matrix,
    independence_test,
    null_pvalue_mle,
    null_pvalue_unbiased,
    null_spectrum,
    one_hot,
    run_benchmark,
    screen,
)

D2 = distance_matrix(one_hot(2))
D3 = distance_matrix(one_hot(3))
DROPPED = "dropping 1 zero-count category before building the null spectrum"
# Level 2 of x never occurs: the row margin drops one category.
TABLE = JointTable.from_codes(np.array([0, 1, 0, 1, 0, 1, 1, 0]),
                              np.array([0, 0, 1, 1, 0, 1, 0, 1]), 3, 2)
FEATURES = np.array([[0, 1], [1, 1], [2, 1], [0, 1], [1, 1], [2, 1]])


CASES = {
    "null_spectrum": (lambda: null_spectrum([0.5, 0.5, 0.0], [0.4, 0.6], D3, D2), DROPPED),
    "independence_test": (lambda: independence_test(TABLE, D3, D2), DROPPED),
    "null_pvalue_mle": (lambda: null_pvalue_mle(TABLE, D3, D2), DROPPED),
    "null_pvalue_unbiased": (lambda: null_pvalue_unbiased(TABLE, D3, D2), DROPPED),
    "screen": (lambda: screen(FEATURES, np.array([0, 1, 2, 0, 1, 2]), [D3, D2], D3),
               "1 feature(s) with degenerate margins scored 0"),
    "run_benchmark": (lambda: run_benchmark(4, n=4, encoding_kinds=("onehot",),
                                            n_features=30, relevant_count=3, replicates=1,
                                            seed=2),
                      "2 feature(s) with degenerate margins scored 0 "
                      "(replicate 0, onehot encoding)"),
    "dcor2_clamp": (lambda: dcor2(JointDistribution(np.diag([0.5, 0.5])), D2, D2),
                    "clamping dcor2 = 1.0000000000000002 to 1"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_warning_names_the_calling_file(name, monkeypatch):
    call, text = CASES[name]
    if name == "dcor2_clamp":  # the kernel's covariance puts a population dcor2 just above 1
        dcov2_many = catdcor.measures._dcov2_many
        monkeypatch.setattr(catdcor.measures, "_dcov2_many",
                            lambda *args: dcov2_many(*args) * (1.0 + 2.0**-52))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert [(w.category, str(w.message), w.filename) for w in caught] == [
        (RuntimeWarning, text, __file__)]
