"""Single-table references for the batched tabulate→score kernel.

The package computes every estimate, one table or a stack, with
``catdcor.estimators._score_many`` and its helpers.  These are the
scalar formulas it used before, one table at a time, and the
per-replicate permutation loop, kept here so that tests compare the
kernel with a separate implementation rather than with itself.  The
floating-point operations are the old ones, so on the tested platform
the kernel matches them bit for bit; tests hold it to 1e-12.  The
Kronecker quadratic form is a second route to the population squared
distance covariance.  The centered form of the population squared
distance variance and the term-by-term bias limits are the formulas the
population side used before it took the kernel's sums at total 1.  The
delta-method variance is the dense ``g^T Sigma g`` with the (IJ, IJ)
multinomial covariance, one table at a time, as the interval was scored
before it took ``sum pi g^2 - (sum pi g)^2`` on a stack.  The
linear program behind
``catdcor.simulate._exact_pin_lp`` is kept as it was first built, one
constraint row at a time.
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


def dvar2_centered(marginal, d):
    """``sum pi_i pi_k (d_ik - dbar_i)(d_ik - dbar_k)``, clamped at 0."""
    m = np.asarray(marginal, dtype=float)
    dbar = d.d @ m
    value = float(m @ ((d.d - dbar[:, None]) * (d.d - dbar[None, :])) @ m)
    return max(value, 0.0)


def bias_limit(pi, dx, dy):
    """Limit of n (plug-in - bias-corrected) dcov2, expanded term by term."""
    row = pi.sum(axis=1)
    col = pi.sum(axis=0)
    term_cross = 10.0 * float((dx.d @ row) @ pi @ (dy.d @ col))
    term_joint = -3.0 * float(np.sum(pi * (dx.d @ pi @ dy.d)))
    term_indep = -6.0 * float((row @ dx.d @ row) * (col @ dy.d @ col))
    return term_cross + term_joint + term_indep


def dvar2_bias_limit(marginal, d):
    """Limit of n (plug-in - bias-corrected) dvar2, expanded term by term."""
    m = np.asarray(marginal, dtype=float)
    dbar = d.d @ m
    mean_dist = float(m @ dbar)
    term1 = 10.0 * float(m @ (dbar * dbar))
    term2 = -3.0 * float(m @ (d.d * d.d) @ m)
    term3 = -6.0 * mean_dist**2
    return term1 + term2 + term3


def asymp_var_dense(pi, dx, dy):
    """Delta-method variance of sqrt(n) dcor2 as ``g^T Sigma g``, ``Sigma = diag(pi) - pi pi^T``."""
    row, col = pi.sum(axis=1), pi.sum(axis=0)
    delta = pi - np.outer(row, col)
    dbar_x, dbar_y = dx.d @ row, dy.d @ col
    core = dx.d @ delta @ dy.d
    dprime = core - (dx.d @ (delta @ dbar_y))[:, None] - (dy.d @ (delta.T @ dbar_x))[None, :]

    def dvar_gradient(m, d):
        dbar = d.d @ m
        return (2.0 * ((d.d * d.d) @ m) - 2.0 * dbar**2 - 4.0 * (d.d @ (m * dbar))
                + 4.0 * float(m @ dbar) * dbar)

    var_x, var_y = dvar2_centered(row, dx), dvar2_centered(col, dy)
    denom = np.sqrt(var_x * var_y)
    ratio = max(float(np.sum(delta * core)), 0.0) / denom
    grad = (2.0 * dprime / denom
            - ratio * (dvar_gradient(row, dx)[:, None] / (2.0 * var_x)
                       + dvar_gradient(col, dy)[None, :] / (2.0 * var_y))).ravel()
    vec = pi.ravel()
    return max(float(grad @ (np.diag(vec) - np.outer(vec, vec)) @ grad), 0.0)


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


def exact_pin_lp_args(product, bump, capped):
    """The ``linprog`` arguments of ``_exact_pin_lp``, built cell by cell.

    Variables are the cells in row-major order, then the bound on the
    largest non-listed departure.  Equalities: row sums, column sums,
    then each listed cell pinned at ``product + bump``.  Inequalities: a
    ``pi - bound <= product``, ``-pi - bound <= -product`` pair per
    non-listed cell.
    """
    n_rows, n_cols = product.shape
    n_cells = n_rows * n_cols
    listed = bump > 0.0
    nvar = n_cells + 1
    a_eq = np.zeros((n_rows + n_cols + int(listed.sum()), nvar))
    b_eq = np.zeros(a_eq.shape[0])
    for i in range(n_rows):
        a_eq[i, i * n_cols:(i + 1) * n_cols] = 1.0
        b_eq[i] = product[i].sum()
    for j in range(n_cols):
        a_eq[n_rows + j, j:n_cells:n_cols] = 1.0
        b_eq[n_rows + j] = product[:, j].sum()
    pin_row = n_rows + n_cols
    for (i, j) in np.argwhere(listed):
        a_eq[pin_row, i * n_cols + j] = 1.0
        b_eq[pin_row] = product[i, j] + bump[i, j]
        pin_row += 1
    rows_ub = []
    rhs_ub = []
    for k in range(n_cells):
        i, j = divmod(k, n_cols)
        if listed[i, j]:
            continue
        upper = np.zeros(nvar)
        upper[k] = 1.0
        upper[n_cells] = -1.0
        rows_ub.append(upper)
        rhs_ub.append(product[i, j])
        lower = np.zeros(nvar)
        lower[k] = -1.0
        lower[n_cells] = -1.0
        rows_ub.append(lower)
        rhs_ub.append(-product[i, j])
    objective = np.zeros(nvar)
    objective[n_cells] = 1.0
    bounds = [(0.0, product[i, j] if capped and not listed[i, j] else None)
              for i in range(n_rows) for j in range(n_cols)]
    return dict(c=objective, A_eq=a_eq, b_eq=b_eq, A_ub=np.array(rows_ub),
                b_ub=np.array(rhs_ub), bounds=bounds + [(0.0, None)], method="highs")
