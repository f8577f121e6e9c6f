"""Sample estimates of squared distance covariance, variance, and correlation.

Two estimators are provided for each quantity.  The plug-in estimator
("mle") replaces the joint probabilities with observed cell proportions
and is a V-statistic: it equals ``T1/n^2 - 2 T2/n^3 + T3/n^4`` for the
contingency sums

    T1 = sum n_ij n_kl  dX_ik dY_jl
    T2 = sum n_ij n_k. n_.l dX_ik dY_jl
    T3 = sum n_i. n_.j n_k. n_.l dX_ik dY_jl

The bias-corrected estimator ("unbiased") is the fourth-order U-statistic

    T1/(n(n-3)) - 2 T2/(n(n-2)(n-3)) + T3/(n(n-1)(n-2)(n-3))

which has expectation exactly equal to the population value and may be
negative.  Both are strongly consistent under rescaled distances.  The
``n``-scaled gap between the two estimators converges to a computable
limit, exposed here as :func:`bias_limit` (joint) and
:func:`dvar2_bias_limit` (single margin).

Tables may hold fractional counts: plugging ``n_ij = n * pi_ij`` turns
the almost-sure limit statements into exact finite-``n`` algebra, which
the tests exploit for deterministic verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encodings import DistanceMatrix
from .exceptions import (
    DegenerateMarginError,
    DistributionError,
    InsufficientSampleError,
    ShapeError,
)
from .measures import JointDistribution, _check_shapes, _dcov2_raw

__all__ = [
    "JointTable",
    "EstimatePair",
    "t_stats",
    "dvar_t_stats",
    "dcov2_mle",
    "dcov2_unbiased",
    "dvar2_mle",
    "dvar2_unbiased",
    "dcor2_mle",
    "dcor2_unbiased",
    "dcov2_estimates",
    "dcor2_estimates",
    "bias_limit",
    "dvar2_bias_limit",
]

_DEGENERATE_TOL = 1e-14


@dataclass(frozen=True)
class JointTable:
    """Observed (possibly fractional) counts over an ``I x J`` grid.

    ``n`` is the grand total; row and column sums are exposed as
    ``row_counts`` and ``col_counts``.  Fractional entries are accepted so
    that deterministic plug-in tables ``n * pi`` can be analyzed.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 2:
            raise ShapeError("counts must form a 2-d table")
        if counts.shape[0] < 2 or counts.shape[1] < 2:
            raise ShapeError("counts need at least two levels per margin")
        if not np.all(np.isfinite(counts)):
            raise DistributionError("counts must be finite")
        if counts.min() < 0.0:
            raise DistributionError("counts must be nonnegative")
        if counts.sum() <= 0.0:
            raise DistributionError("the table must contain at least one observation")
        counts = counts.copy()
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_codes(cls, x, y, n_rows: int, n_cols: int) -> "JointTable":
        """Cross-tabulate two integer-coded samples of equal length."""
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape != y.shape or x.ndim != 1:
            raise ShapeError("x and y must be 1-d arrays of equal length")
        if x.size == 0:
            raise DistributionError("empty sample")
        if x.min() < 0 or x.max() >= n_rows or y.min() < 0 or y.max() >= n_cols:
            raise ShapeError("codes fall outside the declared level ranges")
        flat = np.bincount(x * n_cols + y, minlength=n_rows * n_cols)
        return cls(flat.reshape(n_rows, n_cols).astype(float))

    @classmethod
    def _unchecked(cls, counts: np.ndarray) -> "JointTable":
        """Wrap float counts known to form a valid table, skipping the checks."""
        table = object.__new__(cls)
        object.__setattr__(table, "counts", counts)
        return table

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    @property
    def n(self) -> float:
        return float(self.counts.sum())

    @property
    def row_counts(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_counts(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def to_distribution(self) -> JointDistribution:
        """Observed cell proportions as a JointDistribution."""
        return JointDistribution(self.counts / self.n)


@dataclass(frozen=True)
class EstimatePair:
    """Plug-in and bias-corrected estimates of one quantity, with the sample size."""

    mle: float
    unbiased: float
    n: float


def t_stats(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> tuple[float, float, float]:
    """The three contingency sums (T1, T2, T3) behind both joint estimators.

    Each is a four-index sum over category pairs, evaluated with bilinear
    contractions.  All three are linear in either distance matrix.
    """
    _check_shapes(t, dx, dy)
    counts = t.counts
    row = t.row_counts
    col = t.col_counts
    t1 = float(np.sum(counts * (dx.d @ counts @ dy.d)))
    a = dx.d @ row
    b = dy.d @ col
    t2 = float(a @ counts @ b)
    t3 = float((row @ dx.d @ row) * (col @ dy.d @ col))
    return t1, t2, t3


def dvar_t_stats(margin_counts, d: DistanceMatrix) -> tuple[float, float, float]:
    """Single-margin analogues of :func:`t_stats` built from marginal counts."""
    m = np.asarray(margin_counts, dtype=float)
    if m.ndim != 1 or m.shape[0] != d.n_categories:
        raise ShapeError("margin length must match the distance matrix")
    t1 = float(m @ (d.d * d.d) @ m)
    a = d.d @ m
    t2 = float(m @ (a * a))
    t3 = float(m @ a) ** 2
    return t1, t2, t3


def _v_statistic(t1: float, t2: float, t3: float, n: float) -> float:
    return t1 / n**2 - 2.0 * t2 / n**3 + t3 / n**4


def _u_statistic(t1: float, t2: float, t3: float, n: float) -> float:
    return (
        t1 / (n * (n - 3.0))
        - 2.0 * t2 / (n * (n - 2.0) * (n - 3.0))
        + t3 / (n * (n - 1.0) * (n - 2.0) * (n - 3.0))
    )


def _require_u_sample(n: float) -> None:
    if n < 4.0:
        raise InsufficientSampleError(
            f"the bias-corrected estimator needs n >= 4 observations, got n = {n!r}"
        )


def dcov2_mle(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Plug-in estimate of squared distance covariance.

    Equals the population formula applied to the observed proportions and,
    identically, the V-statistic combination of (T1, T2, T3).
    """
    _check_shapes(t, dx, dy)
    pi_hat = t.counts / t.n
    delta = pi_hat - np.outer(pi_hat.sum(axis=1), pi_hat.sum(axis=0))
    return max(_dcov2_raw(delta, dx.d, dy.d), 0.0)


def dcov2_unbiased(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Bias-corrected (U-statistic) estimate of squared distance covariance.

    Unbiased for the population value; may be negative.  Requires n >= 4.
    """
    _require_u_sample(t.n)
    t1, t2, t3 = t_stats(t, dx, dy)
    return _u_statistic(t1, t2, t3, t.n)


def dvar2_mle(t: JointTable, d: DistanceMatrix, axis: int = 0) -> float:
    """Plug-in estimate of squared distance variance for one margin.

    ``axis=0`` uses the row variable, ``axis=1`` the column variable.
    """
    margin = t.row_counts if axis == 0 else t.col_counts
    t1, t2, t3 = dvar_t_stats(margin, d)
    return max(_v_statistic(t1, t2, t3, t.n), 0.0)


def dvar2_unbiased(t: JointTable, d: DistanceMatrix, axis: int = 0) -> float:
    """Bias-corrected estimate of squared distance variance for one margin."""
    _require_u_sample(t.n)
    margin = t.row_counts if axis == 0 else t.col_counts
    t1, t2, t3 = dvar_t_stats(margin, d)
    return _u_statistic(t1, t2, t3, t.n)


def dcor2_mle(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Plug-in estimate of squared distance correlation.

    Raises :class:`DegenerateMarginError` when either margin's estimated
    distance variance vanishes (for example a constant column).
    """
    _check_shapes(t, dx, dy)
    var_x = dvar2_mle(t, dx, axis=0)
    var_y = dvar2_mle(t, dy, axis=1)
    if var_x <= _DEGENERATE_TOL or var_y <= _DEGENERATE_TOL:
        raise DegenerateMarginError(
            "estimated distance variance is zero on at least one margin"
        )
    return float(dcov2_mle(t, dx, dy) / np.sqrt(var_x * var_y))


def dcor2_unbiased(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Bias-corrected estimate of squared distance correlation.

    The ratio of the U-statistic covariance to the geometric mean of the
    U-statistic variances.  Deliberately not clamped: values slightly
    outside [0, 1] carry ranking information near independence.
    """
    _check_shapes(t, dx, dy)
    _require_u_sample(t.n)
    var_x = dvar2_unbiased(t, dx, axis=0)
    var_y = dvar2_unbiased(t, dy, axis=1)
    if var_x <= _DEGENERATE_TOL or var_y <= _DEGENERATE_TOL:
        raise DegenerateMarginError(
            "estimated distance variance is zero on at least one margin"
        )
    return float(dcov2_unbiased(t, dx, dy) / np.sqrt(var_x * var_y))


def _tabulate_many(codes: np.ndarray, y: np.ndarray, n_rows: int,
                   n_cols: int) -> np.ndarray:
    """Cross-tabulate every column of ``codes`` (n, S) against ``y``.

    Returns float counts of shape ``(S, n_rows, n_cols)`` from one
    ``np.bincount``.  The codes are not checked: callers validate them
    once, up front.
    """
    n_slices = codes.shape[1]
    cells = n_rows * n_cols
    index = np.multiply(codes, n_cols, dtype=np.intp)
    index += y[:, None]
    index += np.arange(0, n_slices * cells, cells)
    flat = np.bincount(index.ravel(order="K"), minlength=n_slices * cells)
    return flat.reshape(n_slices, n_rows, n_cols).astype(float)


def _quad_many(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``m[s] @ d @ m[s]`` for every row of ``m``."""
    return (m[:, None, :] @ d @ m[:, :, None])[:, 0, 0]


def _dvar_t_stats_many(margins: np.ndarray, d: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`dvar_t_stats` for every row of ``margins`` (S, K).

    Stacked ``@`` runs the same BLAS call per slice as the scalar
    function, and ``t3`` squares with Python's float power as it does
    (numpy's square can differ from it in the last bit), so the sums are
    the scalar ones.
    """
    t1 = _quad_many(margins, d * d)
    a = d @ margins[:, :, None]
    t2 = (margins[:, None, :] @ (a * a))[:, 0, 0]
    ma = (margins[:, None, :] @ a)[:, 0, 0]
    t3 = np.array([v**2 for v in ma.tolist()])
    return t1, t2, t3


def _score_many(counts: np.ndarray, n: float, dx: DistanceMatrix,
                dy: DistanceMatrix, estimator: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dcor2_mle` or :func:`dcor2_unbiased` of every table in a stack.

    ``counts`` has shape ``(S, I, J)`` and every table the total ``n``.
    Returns the estimates and a mask of the tables with a degenerate
    margin, which are scored 0 instead of raising.  Each slice goes
    through the scalar estimator's floating-point operations.  Neither
    the codes nor ``n >= 4`` for the bias-corrected estimator is checked.
    """
    stat = _v_statistic if estimator == "mle" else _u_statistic
    rows = counts.sum(axis=2)
    cols = counts.sum(axis=1)
    var_x = stat(*_dvar_t_stats_many(rows, dx.d), n)
    var_y = stat(*_dvar_t_stats_many(cols, dy.d), n)
    if estimator == "mle":
        pi_hat = counts / n
        delta = pi_hat - pi_hat.sum(axis=2)[:, :, None] * pi_hat.sum(axis=1)[:, None, :]
        cov = np.maximum(np.sum(delta * (dx.d @ delta @ dy.d), axis=(1, 2)), 0.0)
    else:
        t1 = np.sum(counts * (dx.d @ counts @ dy.d), axis=(1, 2))
        a = (dx.d @ rows[:, :, None])[:, :, 0]
        b = dy.d @ cols[:, :, None]
        t2 = (a[:, None, :] @ counts @ b)[:, 0, 0]
        t3 = _quad_many(rows, dx.d) * _quad_many(cols, dy.d)
        cov = _u_statistic(t1, t2, t3, n)
    # A variance at or below the tolerance, negative included, is degenerate,
    # so dvar2_mle's clamp at 0 would change no score.
    degenerate = (var_x <= _DEGENERATE_TOL) | (var_y <= _DEGENERATE_TOL)
    scale = np.sqrt(np.where(degenerate, 1.0, var_x * var_y))
    return np.where(degenerate, 0.0, cov / scale), degenerate


def dcov2_estimates(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> EstimatePair:
    """Both squared distance covariance estimates for one table."""
    return EstimatePair(mle=dcov2_mle(t, dx, dy), unbiased=dcov2_unbiased(t, dx, dy), n=t.n)


def dcor2_estimates(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> EstimatePair:
    """Both squared distance correlation estimates for one table."""
    return EstimatePair(mle=dcor2_mle(t, dx, dy), unbiased=dcor2_unbiased(t, dx, dy), n=t.n)


def bias_limit(p: JointDistribution, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Limit of ``n * (plug-in - bias-corrected)`` for squared distance covariance.

    Evaluates ``sum (10 pi_ij pi_k. pi_.l - 3 pi_ij pi_kl
    - 6 pi_i. pi_.j pi_k. pi_.l) dX_ik dY_jl``.  Under independence this
    reduces to the product of the two mean within-margin distances.
    """
    _check_shapes(p, dx, dy)
    pi = p.pi
    row = p.row_marginal
    col = p.col_marginal
    dbar_x = dx.d @ row
    dbar_y = dy.d @ col
    term_cross = 10.0 * float(dbar_x @ pi @ dbar_y)
    term_joint = -3.0 * float(np.sum(pi * (dx.d @ pi @ dy.d)))
    term_indep = -6.0 * float((row @ dx.d @ row) * (col @ dy.d @ col))
    return term_cross + term_joint + term_indep


def dvar2_bias_limit(marginal, d: DistanceMatrix) -> float:
    """Limit of ``n * (plug-in - bias-corrected)`` for squared distance variance.

    Evaluates ``sum pi_i pi_k (10 d_ik dbar_i - 3 d_ik^2 - 6 dbar_i dbar_k)``.
    """
    m = np.asarray(marginal, dtype=float)
    if m.ndim != 1 or m.shape[0] != d.n_categories:
        raise ShapeError("marginal length must match the distance matrix")
    dbar = d.d @ m
    mean_dist = float(m @ dbar)
    term1 = 10.0 * float(m @ (dbar * dbar))
    term2 = -3.0 * float(m @ (d.d * d.d) @ m)
    term3 = -6.0 * mean_dist**2
    return term1 + term2 + term3
