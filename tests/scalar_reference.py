"""Single-table references for the batched tabulate→score kernel.

The package computes every estimate, one table or a stack, with
``catdcor.estimators._score_many`` and its helpers.  These are the
scalar formulas it used before, one table at a time, and the
per-replicate permutation loop, kept here so that tests compare the
kernel with a separate implementation rather than with itself.  The
floating-point operations are the old ones, so on the tested platform
the kernel matches them bit for bit; tests hold it to 1e-12.  The
Kronecker quadratic form is a second route to the population squared
distance covariance.
"""

import numpy as np

from catdcor import DegenerateMarginError

DEGENERATE_TOL = 1e-14


def t_stats(counts, dx, dy):
    """(T1, T2, T3) of one table by bilinear contractions."""
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    t1 = float(np.sum(counts * (dx.d @ counts @ dy.d)))
    a = dx.d @ row
    b = dy.d @ col
    t2 = float(a @ counts @ b)
    t3 = float((row @ dx.d @ row) * (col @ dy.d @ col))
    return t1, t2, t3


def dvar_t_stats(margin, d):
    """The single-margin sums behind the distance variance estimates."""
    m = np.asarray(margin, dtype=float)
    t1 = float(m @ (d.d * d.d) @ m)
    a = d.d @ m
    t2 = float(m @ (a * a))
    t3 = float(m @ a) ** 2
    return t1, t2, t3


def v_statistic(t1, t2, t3, n):
    return t1 / n**2 - 2.0 * t2 / n**3 + t3 / n**4


def u_statistic(t1, t2, t3, n):
    return (
        t1 / (n * (n - 3.0))
        - 2.0 * t2 / (n * (n - 2.0) * (n - 3.0))
        + t3 / (n * (n - 1.0) * (n - 2.0) * (n - 3.0))
    )


def dcov2_mle(counts, dx, dy):
    """Population formula on the observed proportions, clamped at 0."""
    pi_hat = counts / float(counts.sum())
    delta = pi_hat - np.outer(pi_hat.sum(axis=1), pi_hat.sum(axis=0))
    return max(float(np.sum(delta * (dx.d @ delta @ dy.d))), 0.0)


def dcov2_kronecker(p, dx, dy):
    """Population dcov2 of a JointDistribution as ``delta^T (DX kron DY) delta``.

    ``delta`` is the row-wise vectorization of the centered table.
    """
    vec = p.delta().ravel(order="C")
    return float(vec @ np.kron(dx.d, dy.d) @ vec)


def dcov2_unbiased(counts, dx, dy):
    return u_statistic(*t_stats(counts, dx, dy), float(counts.sum()))


def dvar2_mle(counts, d, axis=0):
    margin = counts.sum(axis=1) if axis == 0 else counts.sum(axis=0)
    return max(v_statistic(*dvar_t_stats(margin, d), float(counts.sum())), 0.0)


def dvar2_unbiased(counts, d, axis=0):
    margin = counts.sum(axis=1) if axis == 0 else counts.sum(axis=0)
    return u_statistic(*dvar_t_stats(margin, d), float(counts.sum()))


ESTIMATES = {"mle": (dcov2_mle, dvar2_mle), "unbiased": (dcov2_unbiased, dvar2_unbiased)}


def dcor2(counts, dx, dy, estimator):
    """Covariance over the geometric mean of the variances; raises on a degenerate margin."""
    dcov, dvar = ESTIMATES[estimator]
    var_x = dvar(counts, dx, axis=0)
    var_y = dvar(counts, dy, axis=1)
    if var_x <= DEGENERATE_TOL or var_y <= DEGENERATE_TOL:
        raise DegenerateMarginError("estimated distance variance is zero on a margin")
    return float(dcov(counts, dx, dy) / np.sqrt(var_x * var_y))


def crosstab(x, y, n_rows, n_cols):
    return np.bincount(x * n_cols + y, minlength=n_rows * n_cols).reshape(
        n_rows, n_cols).astype(float)


def screen_scores(x, y, dists, dy, estimator):
    """One table and one :func:`dcor2` per feature column; degenerate ones score 0."""
    values = []
    for s, dist in enumerate(dists):
        counts = crosstab(x[:, s], y, dist.n_categories, dy.n_categories)
        try:
            values.append(dcor2(counts, dist, dy, estimator))
        except DegenerateMarginError:
            values.append(0.0)
    return np.array(values)


def permutation_pvalues(x, y, dx, dy, observed, reps, seed):
    """Replicate by replicate: permute ``y`` with ``default_rng((seed, rep))``,
    tabulate, and score each estimator in ``observed`` with :func:`dcor2`.

    Also returns how many replicates tied the observed statistic exactly.
    """
    exceed = dict.fromkeys(observed, 0)
    ties = 0
    for rep in range(reps):
        rng = np.random.default_rng((seed, rep))
        counts = crosstab(x, rng.permutation(y), dx.n_categories, dy.n_categories)
        for kind, value in observed.items():
            stat = dcor2(counts, dx, dy, kind)
            exceed[kind] += stat >= value
            ties += stat == value
    return {kind: (1.0 + c) / (reps + 1.0) for kind, c in exceed.items()}, ties
