"""Population squared distance covariance, variance, and correlation.

These operate on a known joint distribution over an ``I x J`` grid of
category pairs together with the two rescaled distance matrices.  The
squared distance covariance is the double sum

    sum_{i,j,k,l} (pi_ij - pi_i. pi_.j)(pi_kl - pi_k. pi_.l) dX_ik dY_jl

which is zero exactly when the joint factorizes into its marginals, for
any embedding with pairwise distinct points.  Each quantity here is the
plug-in estimate of :mod:`catdcor.estimators` on the table ``pi`` of
total 1, whose four-index sums are nested bilinear contractions costing
``O(I^2 J + I J^2)`` instead of the naive ``O(I^2 J^2)`` of the
Kronecker quadratic form.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .encodings import DistanceMatrix
from .exceptions import (
    DegenerateMarginError,
    DistributionError,
    InternalConsistencyError,
    ShapeError,
)

__all__ = [
    "JointDistribution",
    "dcov2",
    "dvar2",
    "dcor2",
]

logger = logging.getLogger(__name__)

# Population dcov2 is nonnegative; anything below this is treated as a bug
# rather than rounding noise.
_NEGATIVE_TOL = 1e-9
# A margin whose distance variance is at most this is degenerate.
_DEGENERATE_TOL = 1e-14


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
            raise DistributionError(f"probabilities sum to {total!r}, not 1")
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


def dcov2(p: JointDistribution, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Squared distance covariance of a known joint distribution.

    Returns the bilinear form of the centered table against the two
    distance matrices.  The population value is nonnegative; rounding
    noise in ``(-1e-9, 0)`` is clamped to zero, while anything more
    negative raises :class:`InternalConsistencyError`.
    """
    from .estimators import _dcov2_many  # estimators imports this module

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
    from .estimators import _dvar2_many  # estimators imports this module

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
    var_x = dvar2(p.row_marginal, dx)
    var_y = dvar2(p.col_marginal, dy)
    if var_x <= _DEGENERATE_TOL or var_y <= _DEGENERATE_TOL:
        raise DegenerateMarginError(
            "distance variance is zero on at least one margin; "
            "distance correlation is undefined"
        )
    value = dcov2(p, dx, dy) / np.sqrt(var_x * var_y)
    if value > 1.0:
        logger.warning("clamping dcor2 = %r to 1", value)
        value = 1.0
    return float(value)
