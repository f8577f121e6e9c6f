"""The kernel under both table APIs: contingency sums, estimates and population values.

For a table of (possibly fractional) counts ``n_ij`` with total ``n``
and two distance matrices, the contingency sums are

    T1 = sum n_ij n_kl  dX_ik dY_jl
    T2 = sum n_ij n_k. n_.l dX_ik dY_jl
    T3 = sum n_i. n_.j n_k. n_.l dX_ik dY_jl

Their V- and U-statistic combinations are the two estimators of
:mod:`catdcor.estimators`.  At total 1 the plug-in combination is the
population squared distance covariance of a known joint distribution,

    sum_{i,j,k,l} (pi_ij - pi_i. pi_.j)(pi_kl - pi_k. pi_.l) dX_ik dY_jl

which is zero exactly when the joint factorizes into its marginals, for
any embedding with pairwise distinct points; :func:`dcov2`, :func:`dvar2`
and :func:`dcor2` are stacks of one at total 1.  The private kernel
scores stacks of tables ``(S, I, J)`` by nested bilinear contractions,
``O(I^2 J + I J^2)`` per table instead of the ``O(I^2 J^2)`` of the
Kronecker form, beside the input rules its callers share.  Every module
that tabulates or scores imports it from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .encodings import DistanceMatrix
from .exceptions import (ConfigurationError, DegenerateMarginError, DistributionError,
                         InsufficientSampleError, InternalConsistencyError, ShapeError, _warn)

__all__ = [
    "JointDistribution",
    "dcov2",
    "dvar2",
    "dcor2",
]

# Population dcov2 is nonnegative; anything below this is treated as a bug
# rather than rounding noise.
_NEGATIVE_TOL = 1e-9
# A margin whose distance variance is at most this is degenerate.
_DEGENERATE_TOL = 1e-14
# Tables tabulated per batch, features in screening or replicates in a
# permutation test: an (n, 128) int index array, about 1 MB at n = 1000.
_BLOCK = 128


@dataclass(frozen=True)
class JointDistribution:
    """Joint probability table over category pairs, with its marginals.

    Parameters
    ----------
    pi : numpy.ndarray
        Nonnegative array of shape ``(I, J)`` summing to 1 (within 1e-12).
    """

    pi: np.ndarray

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi, dtype=float)
        if pi.ndim != 2:
            raise ShapeError("joint distribution must be a 2-d table")
        if pi.shape[0] < 2 or pi.shape[1] < 2:
            raise ShapeError("joint distribution needs at least two levels per margin")
        if not np.all(np.isfinite(pi)):
            raise DistributionError("probabilities must be finite")
        if pi.min() < -1e-12:
            raise DistributionError("probabilities must be nonnegative")
        total = pi.sum()
        if abs(total - 1.0) > 1e-12:
            raise DistributionError(f"probabilities sum to {float(total)!r}, not 1")
        pi = np.clip(pi, 0.0, None)
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)

    @property
    def shape(self) -> tuple[int, int]:
        return self.pi.shape

    @property
    def row_marginal(self) -> np.ndarray:
        return self.pi.sum(axis=1)

    @property
    def col_marginal(self) -> np.ndarray:
        return self.pi.sum(axis=0)

    def delta(self) -> np.ndarray:
        """Departure from independence: ``pi - outer(row_marginal, col_marginal)``."""
        return self.pi - np.outer(self.row_marginal, self.col_marginal)

    @classmethod
    def independent(cls, row_marginal, col_marginal) -> "JointDistribution":
        """Product distribution with the given marginals."""
        return cls(np.outer(np.asarray(row_marginal, float), np.asarray(col_marginal, float)))


def _check_shapes(p, dx: DistanceMatrix, dy: DistanceMatrix) -> None:
    """Check the distance matrices against the shape of ``p``.

    ``p`` is any table with a ``shape``: a JointDistribution or a JointTable.
    """
    n_rows, n_cols = p.shape
    if dx.n_categories != n_rows:
        raise ShapeError(
            f"row distance matrix has {dx.n_categories} categories, table has {n_rows}"
        )
    if dy.n_categories != n_cols:
        raise ShapeError(
            f"column distance matrix has {dy.n_categories} categories, table has {n_cols}"
        )


def _checked_marginal(marginal, d: DistanceMatrix) -> np.ndarray:
    """The marginal as a float vector, checked to have one entry per category of ``d``."""
    m = np.asarray(marginal, dtype=float)
    if m.ndim != 1 or m.shape[0] != d.n_categories:
        raise ShapeError("marginal length must match the distance matrix")
    return m


def _check_codes(codes: np.ndarray, levels, error: type, outside: str,
                 labels: Sequence = ()) -> None:
    """Raise ``error`` unless column ``s`` of 2-d ``codes`` holds integers in ``range(levels[s])``.

    ``outside`` is formatted with the ``labels`` entry of the first column out of range.
    """
    if codes.dtype.kind not in "biu":
        raise error(f"codes must be integers, got dtype {codes.dtype}")
    bad = (codes.min(axis=0) < 0) | (codes.max(axis=0) >= levels)
    if bad.any():
        s = int(np.argmax(bad))
        raise error(outside.format(labels[s] if labels else s))


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


def _require_scorable(n: int, estimator: str) -> None:
    """Check the estimator name and that ``n`` observations can be scored by it."""
    _require_estimator(estimator)
    if estimator == "unbiased":
        _require_u_sample(float(n))
    if n <= 0:
        raise DistributionError("empty sample")


def _require_nondegenerate(degenerate: bool) -> None:
    """Raise for a table that :func:`_score_many` flagged as degenerate."""
    if degenerate:
        raise DegenerateMarginError(
            "estimated distance variance is zero on at least one margin"
        )


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
    np.add(index, y, out=index, dtype=np.intp)  # intp + uint64 is float64
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
    row, col = margins[:, None, :], margins[:, :, None]
    t1 = (row @ (d * d) @ col)[:, 0, 0]
    a = d @ col
    t2 = (row @ (a * a))[:, 0, 0]
    ma = (row @ a)[:, 0, 0]
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


def _centered(counts: np.ndarray, n: float) -> np.ndarray:
    """The proportions of every table in a stack less the outer product of their margins."""
    pi_hat = counts / n
    return pi_hat - pi_hat.sum(axis=2)[:, :, None] * pi_hat.sum(axis=1)[:, None, :]


def _dcov2_many(counts: np.ndarray, n: float, dx: np.ndarray, dy: np.ndarray,
                estimator: str, delta: np.ndarray | None = None) -> np.ndarray:
    """Squared distance covariance estimates of every table in a stack.

    The plug-in estimate is the population formula on ``delta``, the
    centered tables (computed unless given), not clamped: its callers
    clamp it at 0, and :func:`dcov2` checks it first.  The bias-corrected
    one is the U-statistic of (T1, T2, T3).
    """
    if estimator == "mle":
        delta = _centered(counts, n) if delta is None else delta
        return np.sum(delta * (dx @ delta @ dy), axis=(1, 2))
    return _u_statistic(*_t_stats_many(counts, dx, dy), n)


def _score_pairs(counts: np.ndarray, n: float, pairs: Sequence[tuple]) -> list:
    """Per pair ``(dx, dy, estimator)``, dcor2 estimates of a stack ``(S, I, J)`` of total ``n``.

    Tables with a degenerate margin score 0 and are flagged in a mask.
    The margins, their equality check and the centered tables are shared
    by all pairs.  Neither the codes nor ``n >= 4`` is checked.
    """
    # A margin whose rows all agree (fixed by permutations) is scored once.
    rows, cols = [m[:1] if len(m) > 1 and (m == m[0]).all() else m
                  for m in (counts.sum(axis=2), counts.sum(axis=1))]
    delta, scores = None, []
    for dx, dy, estimator in pairs:
        var_x = _dvar2_many(rows, n, dx.d, estimator)
        var_y = _dvar2_many(cols, n, dy.d, estimator)
        if estimator == "mle" and delta is None:
            delta = _centered(counts, n)
        cov = _dcov2_many(counts, n, dx.d, dy.d, estimator, delta)
        if estimator == "mle":
            cov = np.maximum(cov, 0.0)
        # At or below the tolerance (negative included) is degenerate; one flag per table.
        degenerate = np.logical_or(var_x <= _DEGENERATE_TOL, var_y <= _DEGENERATE_TOL,
                                   out=np.empty(len(counts), dtype=bool))
        scale = np.sqrt(np.where(degenerate, 1.0, var_x * var_y))
        scores.append((np.where(degenerate, 0.0, cov / scale), degenerate))
    return scores


def _score_many(counts: np.ndarray, n: float, dx: DistanceMatrix,
                dy: DistanceMatrix, estimator: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_score_pairs` of one pair, for dcor2, dcor2_mle, dcor2_unbiased and screen."""
    return _score_pairs(counts, n, [(dx, dy, estimator)])[0]


def dcov2(p: JointDistribution, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Squared distance covariance of a known joint distribution.

    Returns the bilinear form of the centered table against the two
    distance matrices.  The population value is nonnegative; rounding
    noise in ``(-1e-9, 0)`` is clamped to zero, while anything more
    negative raises :class:`InternalConsistencyError`.
    """
    _check_shapes(p, dx, dy)
    value = float(_dcov2_many(p.pi[None], 1.0, dx.d, dy.d, "mle")[0])
    if value < 0.0:
        if value < -_NEGATIVE_TOL:
            raise InternalConsistencyError(
                f"population dcov2 evaluated to {value!r}; the quantity is nonnegative"
            )
        value = 0.0
    return value


def dvar2(marginal, d: DistanceMatrix) -> float:
    """Squared distance variance of one margin.

    With ``dbar_i`` the probability-weighted average distance from
    category ``i``, this is
    ``sum_{i,k} pi_i pi_k (d_ik - dbar_i)(d_ik - dbar_k)``, evaluated as
    the plug-in estimate at total 1 and clamped at 0.  Zero exactly when
    the marginal is degenerate (all mass on one category).
    """
    m = _checked_marginal(marginal, d)
    if m.min() < -1e-12:
        raise DistributionError("marginal probabilities must be nonnegative")
    if abs(m.sum() - 1.0) > 1e-9:
        raise DistributionError("marginal must sum to 1")
    return float(_dvar2_many(m[None], 1.0, d.d, "mle")[0])


def dcor2(p: JointDistribution, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Squared distance correlation of a known joint distribution.

    Ratio of :func:`dcov2` to the geometric mean of the two margins'
    :func:`dvar2`.  Scale-invariant: multiplying either distance matrix by
    a positive constant leaves the value unchanged.  Raises
    :class:`DegenerateMarginError` when either margin has (numerically)
    zero distance variance.
    """
    _check_shapes(p, dx, dy)
    values, degenerate = _score_many(p.pi[None], 1.0, dx, dy, "mle")
    if degenerate[0]:
        raise DegenerateMarginError(
            "distance variance is zero on at least one margin; "
            "distance correlation is undefined"
        )
    dcov2(p, dx, dy)  # raises for a covariance below rounding noise
    value = values[0]
    if value > 1.0:
        _warn(f"clamping dcor2 = {float(value)!r} to 1")
        value = 1.0
    return float(value)
