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
``n``-scaled gap between the two estimators converges to
``10 T2 - 3 T1 - 6 T3`` taken at total 1, exposed here as
:func:`bias_limit` (joint) and :func:`dvar2_bias_limit` (single margin).

Tables may hold fractional counts: plugging ``n_ij = n * pi_ij`` turns
the almost-sure limit statements into exact finite-``n`` algebra, which
the tests exploit for deterministic verification.  At total 1 the sums
give the population values: :mod:`catdcor.measures` and both bias limits
take them on the joint probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .encodings import DistanceMatrix
from .exceptions import (
    ConfigurationError,
    DegenerateMarginError,
    DistributionError,
    InsufficientSampleError,
    ShapeError,
)
from .measures import _DEGENERATE_TOL, JointDistribution, _check_shapes, _checked_marginal

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

# Tables tabulated per batch, features in screening or replicates in a
# permutation test: an (n, 128) int index array, about 1 MB at n = 1000.
_BLOCK = 128


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
        return cls(_tabulate_many(x[:, None], y[:, None], n_rows, n_cols)[0])

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


def _v_statistic(t1, t2, t3, n: float):
    return t1 / n**2 - 2.0 * t2 / n**3 + t3 / n**4


def _u_statistic(t1, t2, t3, n: float):
    return (
        t1 / (n * (n - 3.0))
        - 2.0 * t2 / (n * (n - 2.0) * (n - 3.0))
        + t3 / (n * (n - 1.0) * (n - 2.0) * (n - 3.0))
    )


def _require_estimator(estimator: str) -> None:
    if estimator not in ("mle", "unbiased"):
        raise ConfigurationError("estimator must be 'mle' or 'unbiased'")


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


def _require_nondegenerate(degenerate: bool) -> None:
    """Raise for a table that :func:`_score_many` flagged as degenerate."""
    if degenerate:
        raise DegenerateMarginError(
            "estimated distance variance is zero on at least one margin"
        )


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


def _tabulate_many(x: np.ndarray, y: np.ndarray, n_rows: int,
                   n_cols: int) -> np.ndarray:
    """Cross-tabulate column ``s`` of ``x`` against column ``s`` of ``y``.

    ``x`` and ``y`` are 2-d and broadcast to one ``(n, S)`` shape, so one
    side may be a single ``(n, 1)`` column shared by every slice: one
    response against a block of features, or one feature against a block
    of permuted responses.  Returns float counts of shape
    ``(S, n_rows, n_cols)`` from one ``np.bincount``.  The codes are not
    checked: callers validate them once, up front.
    """
    shape = np.broadcast_shapes(x.shape, y.shape)
    cells = n_rows * n_cols
    index = np.multiply(np.broadcast_to(x, shape), n_cols, dtype=np.intp)
    index += y
    index += np.arange(0, shape[1] * cells, cells)
    flat = np.bincount(index.ravel(order="K"), minlength=shape[1] * cells)
    return flat.reshape(shape[1], n_rows, n_cols).astype(float)


def _tabulated(x: np.ndarray, y: np.ndarray, dists: Sequence[DistanceMatrix],
               n_cols: int) -> Iterator[tuple[DistanceMatrix, list[int], np.ndarray]]:
    """Cross-tabulate every column of ``x`` against ``y``, a block at a time.

    Columns sharing one ``DistanceMatrix`` object in ``dists`` are cut into
    blocks of at most ``_BLOCK``; yields each block's matrix, its column
    indices and its counts ``(len(block), I, n_cols)``.
    """
    groups: dict[int, list[int]] = {}
    for s, dist in enumerate(dists):
        groups.setdefault(id(dist), []).append(s)
    for columns in groups.values():
        dist = dists[columns[0]]
        for start in range(0, len(columns), _BLOCK):
            block = columns[start:start + _BLOCK]
            yield dist, block, _tabulate_many(x[:, block], y[:, None],
                                              dist.n_categories, n_cols)


def _quad_many(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``m[s] @ d @ m[s]`` for every row of ``m``."""
    return (m[:, None, :] @ d @ m[:, :, None])[:, 0, 0]


def _t_stats_many(counts: np.ndarray, dx: np.ndarray, dy: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T1, T2, T3) of every table in a stack ``(S, I, J)``."""
    rows = counts.sum(axis=2)
    cols = counts.sum(axis=1)
    t1 = np.sum(counts * (dx @ counts @ dy), axis=(1, 2))
    a = (dx @ rows[:, :, None])[:, :, 0]
    b = dy @ cols[:, :, None]
    t2 = (a[:, None, :] @ counts @ b)[:, 0, 0]
    t3 = _quad_many(rows, dx) * _quad_many(cols, dy)
    return t1, t2, t3


def _dvar_t_stats_many(margins: np.ndarray, d: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The single-margin sums of every row of ``margins`` (S, K).

    ``t3`` squares with Python's float power (numpy's square can differ
    from it in the last bit).
    """
    t1 = _quad_many(margins, d * d)
    a = d @ margins[:, :, None]
    t2 = (margins[:, None, :] @ (a * a))[:, 0, 0]
    ma = (margins[:, None, :] @ a)[:, 0, 0]
    t3 = np.array([v**2 for v in ma.tolist()])
    return t1, t2, t3


def _dvar2_many(margins: np.ndarray, n: float, d: np.ndarray,
                estimator: str) -> np.ndarray:
    """Squared distance variance estimates of every row of ``margins``.

    The plug-in estimate is clamped at 0; the bias-corrected one is not.
    """
    if estimator == "mle":
        return np.maximum(_v_statistic(*_dvar_t_stats_many(margins, d), n), 0.0)
    return _u_statistic(*_dvar_t_stats_many(margins, d), n)


def _dcov2_many(counts: np.ndarray, n: float, dx: np.ndarray, dy: np.ndarray,
                estimator: str) -> np.ndarray:
    """Squared distance covariance estimates of every table in a stack.

    The plug-in estimate is the population formula on the observed
    proportions, not clamped: its callers clamp it at 0, and
    ``measures.dcov2`` checks it first.  The bias-corrected one is the
    U-statistic of (T1, T2, T3).
    """
    if estimator == "mle":
        pi_hat = counts / n
        delta = pi_hat - pi_hat.sum(axis=2)[:, :, None] * pi_hat.sum(axis=1)[:, None, :]
        return np.sum(delta * (dx @ delta @ dy), axis=(1, 2))
    return _u_statistic(*_t_stats_many(counts, dx, dy), n)


def _margin_dvar2(margins: np.ndarray, n: float, d: np.ndarray,
                  estimator: str) -> np.ndarray:
    """``_dvar2_many``, computed once when every row of ``margins`` is the same."""
    if len(margins) > 1 and (margins == margins[0]).all():
        return np.broadcast_to(_dvar2_many(margins[:1], n, d, estimator), len(margins))
    return _dvar2_many(margins, n, d, estimator)


def _score_many(counts: np.ndarray, n: float, dx: DistanceMatrix,
                dy: DistanceMatrix, estimator: str) -> tuple[np.ndarray, np.ndarray]:
    """Squared distance correlation estimate of every table in a stack.

    ``counts`` has shape ``(S, I, J)`` and every table the total ``n``.
    Returns the estimates and a mask of the tables with a degenerate
    margin, which are scored 0 instead of raising.  This is the one
    implementation behind :func:`dcor2_mle` / :func:`dcor2_unbiased`
    (a stack of one), ``screen`` and the permutation tests.  Neither the
    codes nor ``n >= 4`` for the bias-corrected estimator is checked.
    """
    var_x = _margin_dvar2(counts.sum(axis=2), n, dx.d, estimator)
    var_y = _margin_dvar2(counts.sum(axis=1), n, dy.d, estimator)
    cov = _dcov2_many(counts, n, dx.d, dy.d, estimator)
    if estimator == "mle":
        cov = np.maximum(cov, 0.0)
    # A variance at or below the tolerance, negative included, is degenerate.
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
