"""Permutation p-values against the exact conditional law of the table.

Shuffling one variable's labels keeps both margins of the table, and each
table with those margins then has its multiple hypergeometric probability
``prod r_i! prod c_j! / (n! prod n_ij!)``.  On small samples every such
table can be listed, so the exact p-value ``P(score >= observed)`` is a
finite sum, whatever the sampler draws the permutations with.
"""

import itertools
import math

import numpy as np
import pytest

from catdcor import distance_matrix, encoding_for_kind, permutation_test
from catdcor.measures import _score_pairs

REPS = 9999


def tables_with_margins(rows, cols):
    """Every table of nonnegative integers with row sums ``rows`` and column sums ``cols``."""
    free = [range(min(r, c) + 1) for r in rows[:-1] for c in cols[:-1]]
    shape = (len(rows) - 1, len(cols) - 1)
    for cells in itertools.product(*free):
        inner = np.array(cells, dtype=int).reshape(shape)
        last_col = np.array(rows[:-1]) - inner.sum(axis=1)
        top = np.column_stack([inner, last_col])
        table = np.vstack([top, np.array(cols) - top.sum(axis=0)])
        if table.min() >= 0:
            yield table


def hypergeometric(table, rows, cols, n):
    numerator = math.prod(map(math.factorial, rows)) * math.prod(map(math.factorial, cols))
    denominator = math.factorial(n) * math.prod(math.factorial(int(c)) for c in table.flat)
    return numerator / denominator


def design(seed):
    """Seeded codes with n = 8-12, I, J in {2, 3} and both margins spread over two levels.

    About half of ``y`` copies ``x``, so the p-values spread over (0, 1).
    """
    rng = np.random.default_rng(seed)
    n, size_x, size_y = int(rng.integers(8, 13)), int(rng.choice([2, 3])), int(rng.choice([2, 3]))
    while True:
        x = rng.integers(0, size_x, n)
        y = np.where(rng.random(n) < 0.5, x % size_y, rng.integers(0, size_y, n))
        if len(set(x)) >= 2 and len(set(y)) >= 2:
            break
    kinds = ["onehot", "ordinal", "semicircle"]
    dx, dy = (distance_matrix(encoding_for_kind(kinds[int(rng.integers(3))], size))
              for size in (size_x, size_y))
    return x, y, dx, dy


def exact_pvalue(x, y, dx, dy, estimator):
    rows = np.bincount(x, minlength=dx.n_categories).tolist()
    cols = np.bincount(y, minlength=dy.n_categories).tolist()
    n = len(x)
    tables = list(tables_with_margins(rows, cols))
    observed = np.zeros((dx.n_categories, dy.n_categories))
    np.add.at(observed, (x, y), 1.0)
    stack = np.array([observed] + tables, dtype=float)
    (scores, _), = _score_pairs(stack, float(n), [(dx, dy, estimator)])
    weights = np.array([hypergeometric(t, rows, cols, n) for t in tables])
    assert math.isclose(weights.sum(), 1.0, rel_tol=1e-12)
    return float(weights[scores[1:] >= scores[0]].sum())


@pytest.mark.parametrize("estimator", ["mle", "unbiased"])
@pytest.mark.parametrize("seed", range(12))
def test_pvalue_follows_exact_conditional_law(seed, estimator):
    x, y, dx, dy = design(seed)
    exact = exact_pvalue(x, y, dx, dy, estimator)
    expected = (1.0 + REPS * exact) / (REPS + 1.0)
    error = math.sqrt(REPS * exact * (1.0 - exact)) / (REPS + 1.0)
    got = permutation_test(x, y, dx, dy, estimator=estimator, reps=REPS, seed=seed)
    assert abs(got - expected) <= 4.0 * error, (got, expected, error)
