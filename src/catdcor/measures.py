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
Kronecker form, beside the input rules its callers share.  Every table
comes from one tabulation function, :func:`_tabulate`, which crosses a
stack of code rows with one shared code row.  Every module that tabulates
or scores imports them from here.
"""

from __future__ import annotations

import math
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
# Tables per np.bincount of _tabulate and per table-sized scoring step: the
# (128, n) intp index is about 1 MB at n = 1000.
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


def _tabulate(rows: np.ndarray, scale: int, shared: np.ndarray, shape: tuple,
              take: Sequence[int] | None = None) -> np.ndarray:
    """Float tables ``(S, *shape)``: table ``s`` counts the flat cells ``scale * rows[s] + shared``.

    ``rows`` is ``(S, n)``, or with ``take`` the ``S`` rows it lists; ``shared`` is one code
    row ``(n,)``, the same for every table.  Codes of the first axis against a shared last
    axis take ``scale = shape[-1]``; codes of the last axis against a shared flat code of the
    others take ``scale = 1``.  Up to ``_BLOCK`` tables share one ``np.bincount`` through one
    reused intp index, and no more than ``_BLOCK`` rows are copied at a time.  The codes are
    not checked: callers validate them once, up front.
    """
    count, cells = len(rows) if take is None else len(take), math.prod(shape)
    tables = np.empty((count, cells))
    index = np.empty((min(count, _BLOCK), len(shared)), dtype=np.intp)
    for start in range(0, count, _BLOCK):
        block = rows[start:start + _BLOCK] if take is None else rows[take[start:start + _BLOCK]]
        at = index[:len(block)]
        scaled = block if scale == 1 else np.multiply(block, scale, out=at, dtype=np.intp)
        np.add(scaled, shared, out=at, dtype=np.intp)  # intp + uint64 is float64
        at += cells * np.arange(len(block))[:, None]  # each table's own cells
        tables[start:start + len(block)] = np.bincount(
            at.ravel(), minlength=len(block) * cells).reshape(len(block), cells)
    return tables.reshape(count, *shape)


def _tabulated(x: np.ndarray, y: np.ndarray, dists: Sequence[DistanceMatrix],
               n_cols: int) -> Iterator[tuple[DistanceMatrix, list[int], np.ndarray]]:
    """Cross-tabulate every column of ``x`` against ``y``, an encoding group at a time.

    Columns sharing one ``DistanceMatrix`` object in ``dists`` form a group, tabulated
    together by :func:`_tabulate`; yields each group whole, for one :func:`_score_pairs`
    call, with its matrix, its column indices and its counts ``(len(columns), I, n_cols)``.
    """
    groups: dict[int, list[int]] = {}
    for s, dist in enumerate(dists):
        groups.setdefault(id(dist), []).append(s)
    for columns in groups.values():
        dist = dists[columns[0]]
        # One group holds every column in order: its rows need no copy.
        yield dist, columns, _tabulate(x.T, n_cols, y, (dist.n_categories, n_cols),
                                       None if len(columns) == len(dists) else columns)


def _quad_many(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``m[s] @ d @ m[s]`` for every row of ``m``."""
    return (m[:, None, :] @ d @ m[:, :, None])[:, 0, 0]


def _t_stats_many(counts: np.ndarray, dx: np.ndarray, dy: np.ndarray, margins: Sequence = ()
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T1, T2, T3) of every table in a stack ``(S, I, J)``.

    ``margins`` are the stack's row and column sums, ``(S, I)`` and ``(S, J)``
    or one row shared by every table; they are summed from ``counts`` unless given.
    """
    rows, cols = margins or (counts.sum(axis=2), np.einsum("sij->sj", counts))
    t1 = np.sum(counts * (dx @ counts @ dy), axis=(1, 2))
    a = (dx @ rows[:, :, None])[:, :, 0]
    b = dy @ cols[:, :, None]
    t2 = (a[:, None, :] @ counts @ b)[:, 0, 0]
    t3 = _quad_many(rows, dx) * _quad_many(cols, dy)
    return t1, t2, t3


def _dvar_t_stats_many(margins: np.ndarray, d: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The single-margin sums of every row of ``margins`` (S, K).

    ``t3`` squares with ``np.float_power``, which calls libm's ``pow`` as
    Python's float ``**`` does and agrees with it bit for bit; numpy's
    square and its ``power`` by 2 multiply and can differ in the last bit.
    """
    row, col = margins[:, None, :], margins[:, :, None]
    t1 = (row @ (d * d) @ col)[:, 0, 0]
    a = d @ col
    t2 = (row @ (a * a))[:, 0, 0]
    t3 = np.float_power((row @ a)[:, 0, 0], 2.0)
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
    pi_hat -= np.einsum("si,sj->sij", pi_hat.sum(axis=2), np.einsum("sij->sj", pi_hat))
    return pi_hat


def _dcov2_many(counts: np.ndarray, n: float, dx: np.ndarray, dy: np.ndarray, estimator: str,
                delta: np.ndarray | None = None, margins: Sequence = ()) -> np.ndarray:
    """Squared distance covariance estimates of every table in a stack.

    The plug-in estimate is the population formula on ``delta``, the
    centered tables (computed unless given), not clamped: its callers
    clamp it at 0, and :func:`dcov2` checks it first.  The bias-corrected
    one is the U-statistic of (T1, T2, T3), from ``margins`` if given
    (see :func:`_t_stats_many`).
    """
    if estimator == "mle":
        delta = _centered(counts, n) if delta is None else delta
        return np.sum(delta * (dx @ delta @ dy), axis=(1, 2))
    return _u_statistic(*_t_stats_many(counts, dx, dy, margins), n)


def _score_pairs(counts: np.ndarray, n: float, pairs: Sequence[tuple]) -> list:
    """Per pair ``(dx, dy, estimator)``, dcor2 estimates of a stack ``(S, I, J)`` of total ``n``.

    Tables with a degenerate margin score 0 and are flagged in a mask.
    The margins, their equality check, each pair's distance variances and
    the ratio step run once per stack, on arrays of ``S`` rows; the
    table-sized work runs on slices of at most ``_BLOCK`` tables, whose
    centered tables all pairs share and whose rows of the margins the
    bias-corrected covariance reads.  Each step acts on one table at a
    time, so a table's score does not depend on its stack.  Neither the
    codes nor ``n >= 4`` is checked.
    """
    # A margin whose rows all agree (fixed by permutations) is scored once.
    rows, cols = [m[:1] if len(m) > 1 and (m == m[0]).all() else m
                  for m in (counts.sum(axis=2), np.einsum("sij->sj", counts))]
    covs = np.empty((len(pairs), len(counts)))
    for start in range(0, len(counts), _BLOCK):
        block = counts[start:start + _BLOCK]
        delta = _centered(block, n) if any(pair[2] == "mle" for pair in pairs) else None
        margins = [m if len(m) == 1 else m[start:start + _BLOCK] for m in (rows, cols)]
        for cov, (dx, dy, estimator) in zip(covs, pairs):
            cov[start:start + _BLOCK] = _dcov2_many(block, n, dx.d, dy.d, estimator, delta,
                                                    margins)
    scores = []
    for cov, (dx, dy, estimator) in zip(covs, pairs):
        var_x = _dvar2_many(rows, n, dx.d, estimator)
        var_y = _dvar2_many(cols, n, dy.d, estimator)
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
    """:func:`_score_pairs` of one pair, for dcor2_mle, dcor2_unbiased and screen."""
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
    # dcov2 checks the shapes and the covariance against rounding noise.
    value = dcov2(p, dx, dy)
    var_x, var_y = dvar2(p.row_marginal, dx), dvar2(p.col_marginal, dy)
    if var_x <= _DEGENERATE_TOL or var_y <= _DEGENERATE_TOL:
        raise DegenerateMarginError("distance variance is zero on at least one margin; "
                                    "distance correlation is undefined")
    value = max(0.0, float(value / np.sqrt(var_x * var_y)))  # max turns -0.0 into 0.0
    if value > 1.0:
        _warn(f"clamping dcor2 = {value!r} to 1")
        value = 1.0
    return value
