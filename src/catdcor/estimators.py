"""Sample estimates of squared distance covariance, variance, and correlation.

Two estimators are provided for each quantity, both built from the
contingency sums (T1, T2, T3) of :mod:`catdcor.measures`, which holds the
kernel under this module.  The plug-in estimator ("mle") replaces the
joint probabilities with observed cell proportions and is the
V-statistic ``T1/n^2 - 2 T2/n^3 + T3/n^4``.  The bias-corrected estimator
("unbiased") is the fourth-order U-statistic

    T1/(n(n-3)) - 2 T2/(n(n-2)(n-3)) + T3/(n(n-1)(n-2)(n-3))

which has expectation exactly equal to the population value and may be
negative.  Both are strongly consistent under rescaled distances.  The
``n``-scaled gap between the two estimators converges to
``10 T2 - 3 T1 - 6 T3`` taken at total 1, exposed here as
:func:`bias_limit` (joint) and :func:`dvar2_bias_limit` (single margin).

Tables may hold fractional counts: plugging ``n_ij = n * pi_ij`` turns
the almost-sure limit statements into exact finite-``n`` algebra, which
the tests exploit for deterministic verification.  Each function here
checks its table against the distance matrices and calls the kernel on
a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encodings import DistanceMatrix
from .exceptions import DistributionError, ShapeError
from .measures import (JointDistribution, _check_codes, _check_shapes, _checked_marginal,
                       _dcov2_many, _dvar2_many, _dvar_t_stats_many, _require_nondegenerate,
                       _require_u_sample, _score_many, _t_stats_many, _tabulate)

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
        for codes, levels in ((x, n_rows), (y, n_cols)):
            _check_codes(codes[:, None], levels, ShapeError,
                         "codes fall outside the declared level ranges")
        return cls(_tabulate(x[None], n_cols, y, (n_rows, n_cols))[0])

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
    return tuple(float(v[0]) for v in _t_stats_many(t.counts[None], dx.d, dy.d))


def dvar_t_stats(margin_counts, d: DistanceMatrix) -> tuple[float, float, float]:
    """Single-margin analogues of :func:`t_stats` built from marginal counts."""
    m = _checked_marginal(margin_counts, d)
    return tuple(float(v[0]) for v in _dvar_t_stats_many(m[None], d.d))


def dcov2_mle(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Plug-in estimate of squared distance covariance.

    Equals the population formula applied to the observed proportions and,
    identically, the V-statistic combination of (T1, T2, T3).
    """
    _check_shapes(t, dx, dy)
    return float(np.maximum(_dcov2_many(t.counts[None], t.n, dx.d, dy.d, "mle"), 0.0)[0])


def dcov2_unbiased(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Bias-corrected (U-statistic) estimate of squared distance covariance.

    Unbiased for the population value; may be negative.  Requires n >= 4.
    """
    _require_u_sample(t.n)
    _check_shapes(t, dx, dy)
    return float(_dcov2_many(t.counts[None], t.n, dx.d, dy.d, "unbiased")[0])


def _dvar2(t: JointTable, d: DistanceMatrix, axis: int, estimator: str) -> float:
    m = _checked_marginal(t.row_counts if axis == 0 else t.col_counts, d)
    return float(_dvar2_many(m[None], t.n, d.d, estimator)[0])


def dvar2_mle(t: JointTable, d: DistanceMatrix, axis: int = 0) -> float:
    """Plug-in estimate of squared distance variance for one margin.

    ``axis=0`` uses the row variable, ``axis=1`` the column variable.
    """
    return _dvar2(t, d, axis, "mle")


def dvar2_unbiased(t: JointTable, d: DistanceMatrix, axis: int = 0) -> float:
    """Bias-corrected estimate of squared distance variance for one margin."""
    _require_u_sample(t.n)
    return _dvar2(t, d, axis, "unbiased")


def _dcor2(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix, estimator: str) -> float:
    _check_shapes(t, dx, dy)
    if estimator == "unbiased":
        _require_u_sample(t.n)
    values, degenerate = _score_many(t.counts[None], t.n, dx, dy, estimator)
    _require_nondegenerate(degenerate[0])
    return float(values[0])


def dcor2_mle(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Plug-in estimate of squared distance correlation.

    Raises :class:`DegenerateMarginError` when either margin's estimated
    distance variance vanishes (for example a constant column).
    """
    return _dcor2(t, dx, dy, "mle")


def dcor2_unbiased(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Bias-corrected estimate of squared distance correlation.

    The ratio of the U-statistic covariance to the geometric mean of the
    U-statistic variances.  Deliberately not clamped: values slightly
    outside [0, 1] carry ranking information near independence.
    """
    return _dcor2(t, dx, dy, "unbiased")


def dcov2_estimates(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> EstimatePair:
    """Both squared distance covariance estimates for one table."""
    return EstimatePair(mle=dcov2_mle(t, dx, dy), unbiased=dcov2_unbiased(t, dx, dy), n=t.n)


def dcor2_estimates(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> EstimatePair:
    """Both squared distance correlation estimates for one table."""
    return EstimatePair(mle=dcor2_mle(t, dx, dy), unbiased=dcor2_unbiased(t, dx, dy), n=t.n)


def bias_limit(p: JointDistribution, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Limit of ``n * (plug-in - bias-corrected)`` for squared distance covariance.

    ``10 T2 - 3 T1 - 6 T3`` at total 1, that is ``sum (10 pi_ij pi_k. pi_.l
    - 3 pi_ij pi_kl - 6 pi_i. pi_.j pi_k. pi_.l) dX_ik dY_jl``.  Under
    independence this is the product of the two mean within-margin distances.
    """
    _check_shapes(p, dx, dy)
    t1, t2, t3 = (float(v[0]) for v in _t_stats_many(p.pi[None], dx.d, dy.d))
    return 10.0 * t2 - 3.0 * t1 - 6.0 * t3


def dvar2_bias_limit(marginal, d: DistanceMatrix) -> float:
    """Limit of ``n * (plug-in - bias-corrected)`` for squared distance variance.

    ``10 T2 - 3 T1 - 6 T3`` for the single-margin sums at total 1:
    ``sum pi_i pi_k (10 d_ik dbar_i - 3 d_ik^2 - 6 dbar_i dbar_k)``.
    """
    t1, t2, t3 = dvar_t_stats(marginal, d)
    return 10.0 * t2 - 3.0 * t1 - 6.0 * t3
