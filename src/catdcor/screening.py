"""High-dimensional feature screening against a categorical response.

Each candidate feature is scored by its estimated squared distance
correlation with the response; features are then ranked in descending
order and a data-driven cutoff is placed where the ranked sequence
changes slope, found by an exhaustive two-piece least-squares fit.  The
selected set keeps exactly the features scoring strictly above the
cutoff.  An explicit finite-sample exceedance bound on the maximal
estimation error across all features is provided for sample-size
planning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .encodings import DistanceMatrix
from .exceptions import (
    ConfigurationError,
    InsufficientFeaturesError,
    InvalidThresholdError,
    LabelError,
    ShapeError,
    _warn,
)
from .measures import _check_codes, _require_scorable, _score_many, _tabulated

__all__ = [
    "ScreeningReport",
    "BoundParams",
    "ChangepointResult",
    "screen",
    "changepoint_threshold",
    "select",
    "apply_changepoint",
    "screening_bound",
]


@dataclass
class ScreeningReport:
    """Per-feature dependence scores and, once thresholded, the selected set.

    ``order`` sorts scores in descending order with ties broken by
    ascending feature id.  ``threshold``, ``changepoint_index``,
    ``selected``, and ``low_confidence`` stay None until
    :func:`apply_changepoint` (or a manual :func:`select`) fills them.
    """

    feature_ids: list
    values: np.ndarray
    order: np.ndarray
    estimator: str
    degenerate: list = field(default_factory=list)
    threshold: float | None = None
    changepoint_index: int | None = None
    selected: list | None = None
    low_confidence: bool | None = None

    def sorted_values(self) -> np.ndarray:
        return self.values[self.order]

    def sorted_ids(self) -> list:
        return [self.feature_ids[i] for i in self.order]


class ChangepointResult(NamedTuple):
    """Cutoff from the two-piece fit: threshold, first-segment length, tie flag."""

    threshold: float
    index: int
    low_confidence: bool


def screen(features, response, feature_dists: Sequence[DistanceMatrix],
           response_dist: DistanceMatrix, estimator: str = "mle",
           feature_ids: Sequence | None = None) -> ScreeningReport:
    """Score every feature's dependence on the response.

    Parameters
    ----------
    features : array_like
        Integer-coded matrix of shape ``(n, S)``; column ``s`` takes values
        in ``range(feature_dists[s].n_categories)``.
    response : array_like
        Integer-coded response of length ``n``.
    feature_dists : sequence of DistanceMatrix
        One rescaled distance matrix per feature column.
    response_dist : DistanceMatrix
        Distance matrix of the response levels.
    estimator : {"mle", "unbiased"}
        Which squared distance correlation estimate to rank by.  The
        bias-corrected values are ranked raw (they may be negative).
    feature_ids : sequence, optional
        Identifiers reported per column; defaults to ``0..S-1``.

    All codes are checked before any scoring; codes of a non-integer dtype,
    or the first column (in column order) with a code outside its level
    set, raise :class:`LabelError`.
    Features sharing one ``DistanceMatrix`` object are tabulated and
    scored together in blocks of at most 128, one call per block of the
    kernel behind :func:`dcor2_mle`, sharing the margins and centered
    tables.  An empty sample raises :class:`DistributionError`.

    Features whose margin carries no distance variation (for example a
    constant column) receive the score 0 and are listed in
    ``report.degenerate`` (in column order) with one warning instead of
    aborting the run.
    """
    x = np.asarray(features)
    y = np.asarray(response)
    if x.ndim != 2:
        raise ShapeError("features must form an (n, S) matrix")
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ShapeError("response length must match the number of rows")
    n, n_features = x.shape
    if len(feature_dists) != n_features:
        raise ConfigurationError(
            f"{n_features} feature columns but {len(feature_dists)} distance matrices"
        )
    if feature_ids is None:
        ids = list(range(n_features))
    else:
        ids = list(feature_ids)
        if len(ids) != n_features:
            raise ConfigurationError("feature_ids length must match the feature count")
    _require_scorable(n, estimator)
    n_response_levels = response_dist.n_categories
    _check_codes(y[:, None], n_response_levels, LabelError,
                 "response codes fall outside the declared level set")
    _check_codes(x, [dist.n_categories for dist in feature_dists], LabelError,
                 "feature {!r} contains codes outside its declared level set", ids)

    values = np.zeros(n_features)
    is_degenerate = np.zeros(n_features, dtype=bool)
    for dist, block, counts in _tabulated(x, y, feature_dists, n_response_levels):
        values[block], is_degenerate[block] = _score_many(
            counts, float(n), dist, response_dist, estimator)
    return _ranked_report(ids, values, is_degenerate, estimator)


def _ranked_report(ids: list, values: np.ndarray, is_degenerate: np.ndarray,
                   estimator: str, where: str = "") -> ScreeningReport:
    """Report of scored features, ranked in descending order.

    Lists the degenerate features (in column order) with one warning
    ending in ``where``, and breaks ties in the order by ascending id.
    """
    degenerate = [ids[s] for s in np.flatnonzero(is_degenerate)]
    if degenerate:
        _warn(f"{len(degenerate)} feature(s) with degenerate margins scored 0{where}")
    order = np.lexsort((np.arange(values.size), -values))
    return ScreeningReport(
        feature_ids=ids,
        values=values,
        order=order,
        estimator=estimator,
        degenerate=degenerate,
    )


def _segment_rss(sum_w: np.ndarray, sum_x: np.ndarray, sum_xx: np.ndarray,
                 sum_y: np.ndarray, sum_yy: np.ndarray, sum_xy: np.ndarray
                 ) -> np.ndarray:
    """Least-squares residual sums for line fits from accumulated moments."""
    mean_x = sum_x / sum_w
    mean_y = sum_y / sum_w
    sxx = sum_xx - sum_w * mean_x**2
    syy = sum_yy - sum_w * mean_y**2
    sxy = sum_xy - sum_w * mean_x * mean_y
    with np.errstate(invalid="ignore", divide="ignore"):
        rss = syy - np.where(sxx > 0.0, sxy**2 / np.where(sxx > 0.0, sxx, 1.0), 0.0)
    return np.maximum(rss, 0.0)


def changepoint_threshold(sorted_values) -> ChangepointResult:
    """Slope-break cutoff for a descending sequence of scores.

    Fits two independent least-squares lines on the index-value pairs to
    the left and right of every interior break position (each segment at
    least two points), takes the break minimizing the total residual sum
    of squares, and returns the midpoint between the two scores straddling
    it.  When several breaks tie (for example a perfectly linear
    sequence), the smallest break wins and the result is flagged low
    confidence.
    """
    y = np.asarray(sorted_values, dtype=float)
    if y.ndim != 1:
        raise ShapeError("sorted_values must be one-dimensional")
    m = y.shape[0]
    if m < 4:
        raise InsufficientFeaturesError(
            "the two-piece fit needs at least 4 values"
        )
    x = np.arange(1.0, m + 1.0)
    cum_w = np.arange(1.0, m + 1.0)
    cum_x = np.cumsum(x)
    cum_xx = np.cumsum(x * x)
    cum_y = np.cumsum(y)
    cum_yy = np.cumsum(y * y)
    cum_xy = np.cumsum(x * y)

    # Break after position b (1-based), b in [2, m-2]: left = 1..b.
    b = np.arange(2, m - 1)
    left = _segment_rss(cum_w[b - 1], cum_x[b - 1], cum_xx[b - 1],
                        cum_y[b - 1], cum_yy[b - 1], cum_xy[b - 1])
    right = _segment_rss(cum_w[-1] - cum_w[b - 1],
                         cum_x[-1] - cum_x[b - 1],
                         cum_xx[-1] - cum_xx[b - 1],
                         cum_y[-1] - cum_y[b - 1],
                         cum_yy[-1] - cum_yy[b - 1],
                         cum_xy[-1] - cum_xy[b - 1])
    total = left + right
    best_pos = int(np.argmin(total))
    best_rss = float(total[best_pos])
    tie_tol = 1e-9 * (1.0 + abs(best_rss))
    ties = np.flatnonzero(total <= best_rss + tie_tol)
    low_confidence = ties.size > 1
    break_index = int(b[ties[0]])
    threshold = 0.5 * (y[break_index - 1] + y[break_index])
    return ChangepointResult(threshold=float(threshold), index=break_index,
                             low_confidence=low_confidence)


def select(report: ScreeningReport, threshold: float) -> list:
    """Feature ids scoring strictly above a positive threshold."""
    if not threshold > 0.0:
        raise InvalidThresholdError("the selection threshold must be positive")
    return [fid for fid, value in zip(report.feature_ids, report.values)
            if value > threshold]


def apply_changepoint(report: ScreeningReport) -> ScreeningReport:
    """Fill a report's threshold, change point, and selected set in place."""
    result = changepoint_threshold(report.sorted_values())
    report.threshold = result.threshold
    report.changepoint_index = result.index
    report.low_confidence = result.low_confidence
    # The strict rule of :func:`select`, also when an all-noise panel
    # pushes the midpoint to zero or below.
    report.selected = [fid for fid, value in zip(report.feature_ids, report.values)
                       if value > result.threshold]
    return report


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the uniform-error exceedance bound.

    epsilon : allowed estimation error, in (0, 1].
    n : sample size.
    n_features : number of screened features.
    max_levels : upper bound on any feature's category count.
    response_levels : category count of the response.
    sigma2_min : lower bound on every margin's distance variance.
    """

    epsilon: float
    n: float
    n_features: float
    max_levels: float
    response_levels: float
    sigma2_min: float

    def __post_init__(self) -> None:
        for name in ("epsilon", "n", "n_features", "max_levels",
                     "response_levels", "sigma2_min"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.epsilon > 1.0:
            raise ValueError("epsilon cannot exceed 1 for rescaled distances")


def screening_bound(params: BoundParams) -> float:
    """Upper bound on the chance any feature's score errs by more than epsilon.

    Evaluates
    ``2 Imax J exp[log S - 6 n eps^2 / (4 eps Imax J kappa + 3 Imax^2 J^2 kappa^2)]``
    with ``kappa = 4 / sigma2_min^4 + 2 / sigma2_min^5``, clamped to [0, 1].
    Decreasing in ``n`` and increasing in ``S``; vacuous (1) for small
    samples.
    """
    kappa = 4.0 / params.sigma2_min**4 + 2.0 / params.sigma2_min**5
    imax_j = params.max_levels * params.response_levels
    denom = 4.0 * params.epsilon * imax_j * kappa + 3.0 * imax_j**2 * kappa**2
    exponent = np.log(params.n_features) - 6.0 * params.n * params.epsilon**2 / denom
    value = 2.0 * imax_j * np.exp(exponent)
    return float(min(max(value, 0.0), 1.0))
