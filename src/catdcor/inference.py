"""Null distributions, p-values, and delta-method inference.

Under independence, ``n`` times the bias-corrected squared distance
correlation converges to a weighted sum of centered chi-squared variables

    ( sum_{i,j} lambda_i mu_j (Z_ij^2 - 1) ) / sqrt(sum lambda^2 sum mu^2)

whose weights come from the eigenvalues of two small margin-weighted,
row-centered distance matrices (one per variable).  The plug-in
estimator obeys the same law shifted by a constant ``B``, the product of
the two mean within-margin distances.  Tail probabilities of the weighted
sum are exact for one weight (a chi-squared tail, ``erfc`` of the square
root of half the quantile).  Two or more weights, of any signs, take one
trapezoid rule along a contour through the saddle point (Rice 1980):
about 1e-12 relative accuracy down to tails near 1e-300, and on the side
of the mean where p is near 1 it computes 1 - p directly, so p keeps full
accuracy there.  Every spectrum built here has positive weights (the
encodings' distances are conditionally negative definite, so every
lambda and mu is <= 0); mixed signs reach the tail only through direct
calls.  A permutation test is the distribution-free alternative.  No
scipy is loaded.

Under a fixed alternative the estimators are asymptotically normal; the
variance here is the full delta-method variance of the correlation ratio,
including the contribution of the variance estimates in the denominator.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .encodings import DistanceMatrix
from .estimators import (
    _BLOCK,
    JointTable,
    _dcor2 as _statistic,  # the unscaled estimate named by ``estimator``
    _score_many,
    _tabulate_many,
)
from .exceptions import (
    ConfigurationError,
    DegenerateCategoryError,
    DegenerateDistributionError,
    DegenerateMarginError,
    DistributionError,
    InsufficientReplicatesError,
    InternalConsistencyError,
)
from .measures import JointDistribution, _checked_marginal, dcov2, dvar2

__all__ = [
    "NullSpectrum",
    "AltInference",
    "TestResult",
    "q_matrix",
    "spectrum",
    "null_spectrum",
    "weighted_chisq_sf",
    "independence_test",
    "null_pvalue_mle",
    "null_pvalue_unbiased",
    "permutation_test",
    "alt_inference",
    "confidence_interval",
]

# Relative threshold below which an eigenvalue counts as the structural zero.
_EIG_ZERO_REL = 1e-9


# ---------------------------------------------------------------------------
# Null spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NullSpectrum:
    """Eigenvalue weights of the null law plus the plug-in shift.

    ``lambdas`` has length I-1 and ``mus`` length J-1, each sorted by
    decreasing magnitude; the sums of their squares equal the two squared
    distance variances.  ``bias_shift`` is the constant added to the
    plug-in statistic's null law.
    """

    lambdas: np.ndarray
    mus: np.ndarray
    bias_shift: float
    dvar_x: float
    dvar_y: float

    def normalizer(self) -> float:
        """``sqrt(sum lambda^2 sum mu^2)``, the scale of the null law.

        Raises :class:`DegenerateMarginError` when the spectrum has zero
        total weight.
        """
        norm_const = float(np.sqrt(np.sum(self.lambdas**2) * np.sum(self.mus**2)))
        if norm_const <= 0.0:
            raise DegenerateMarginError("null spectrum has zero total weight")
        return norm_const


def _positive_marginal(marginal, d: DistanceMatrix) -> np.ndarray:
    """The marginal as a float vector, checked to match ``d`` and be strictly positive."""
    m = _checked_marginal(marginal, d)
    if m.min() <= 0.0:
        raise DegenerateCategoryError(
            "null spectrum requires strictly positive category probabilities; "
            "drop zero-probability categories first"
        )
    return m


def q_matrix(marginal, d: DistanceMatrix) -> np.ndarray:
    """Margin-weighted row-centered distance matrix driving the null law.

    Entry ``(i, k)`` is ``(d_ik - dbar_i) sqrt(pi_i pi_k)`` with ``dbar_i``
    the weighted average distance from category ``i``; on the diagonal this
    reduces to ``-dbar_i pi_i``.  Requires a strictly positive marginal.
    """
    m = _positive_marginal(marginal, d)
    dbar = d.d @ m
    sqrt_m = np.sqrt(m)
    return (d.d - dbar[:, None]) * np.outer(sqrt_m, sqrt_m)


def _surrogate(marginal: np.ndarray, d: DistanceMatrix) -> np.ndarray:
    """Symmetric matrix sharing the nonzero eigenvalues of the Q matrix.

    Double-centers the distances under the marginal weights and symmetrizes
    with sqrt-probability scaling; the rank-one difference from Q lies in
    Q's kernel, so the nonzero spectra coincide while this form is
    guaranteed real-diagonalizable.
    """
    dbar = d.d @ marginal
    grand = float(marginal @ dbar)
    centered = d.d - dbar[:, None] - dbar[None, :] + grand
    sqrt_m = np.sqrt(marginal)
    return centered * np.outer(sqrt_m, sqrt_m)


def spectrum(marginal, d: DistanceMatrix) -> np.ndarray:
    """The I-1 informative eigenvalues of the Q matrix for one margin.

    Computed from the symmetric surrogate (real spectrum, deterministic
    ordering); the structural zero eigenvalue is identified as the
    smallest-magnitude one, verified against ``1e-9`` times the spectral
    radius, and dropped.  Returned sorted by decreasing magnitude, signs
    preserved.
    """
    m = _positive_marginal(marginal, d)
    eigvals = np.linalg.eigvalsh(_surrogate(m, d))
    order = np.argsort(np.abs(eigvals))
    radius = float(np.abs(eigvals).max())
    zero_candidate = eigvals[order[0]]
    if abs(zero_candidate) > _EIG_ZERO_REL * radius:
        raise InternalConsistencyError(
            f"expected one structural zero eigenvalue, smallest magnitude is "
            f"{zero_candidate!r} against spectral radius {radius!r}"
        )
    kept = eigvals[order[1:]]
    return kept[np.argsort(-np.abs(kept), kind="stable")]


def _positive_part(marginal: np.ndarray, d: DistanceMatrix) -> tuple[np.ndarray, DistanceMatrix]:
    """Drop zero-probability categories, warning when any are removed."""
    keep = marginal > 0.0
    if np.all(keep):
        return marginal, d
    n_dropped = int((~keep).sum())
    warnings.warn(
        f"dropping {n_dropped} zero-count categor{'y' if n_dropped == 1 else 'ies'} "
        "before building the null spectrum",
        RuntimeWarning,
        stacklevel=3,
    )
    if keep.sum() < 2:
        raise DegenerateMarginError("fewer than two observed categories on a margin")
    sub = d.d[np.ix_(keep, keep)]
    return marginal[keep], DistanceMatrix(d=sub, scale=d.scale)


def _margin_law(marginal: np.ndarray, d: DistanceMatrix) -> tuple[np.ndarray, float, float]:
    """Spectrum, mean distance and distance variance of a :func:`_positive_part`."""
    return spectrum(marginal, d), float(marginal @ d.d @ marginal), dvar2(marginal, d)


def _null_law(row_part: tuple, col_law: tuple) -> NullSpectrum:
    """The null spectrum of a row :func:`_positive_part` and a column :func:`_margin_law`."""
    (lambdas, mean_x, dvar_x), (mus, mean_y, dvar_y) = _margin_law(*row_part), col_law
    return NullSpectrum(lambdas, mus, mean_x * mean_y, dvar_x, dvar_y)


def null_spectrum(row_marginal, col_marginal,
                  dx: DistanceMatrix, dy: DistanceMatrix) -> NullSpectrum:
    """Null-law ingredients for given marginals and distance matrices.

    Zero-probability categories are dropped (with a warning) before the
    eigenvalue computation, which requires strictly positive mass.
    """
    row = _positive_part(np.asarray(row_marginal, dtype=float), dx)
    col = _positive_part(np.asarray(col_marginal, dtype=float), dy)
    return _null_law(row, _margin_law(*col))


# ---------------------------------------------------------------------------
# Weighted chi-squared tail probabilities
# ---------------------------------------------------------------------------

# Tail for two or more weights: trapezoid rule in v along a path through
# the saddle point, t = sigma _SP_SINH sinh(v / _SP_SINH), step halved from
# _SP_H until two successive estimates agree to _SP_RTOL relative.  The
# first pass runs over [0, _SP_V], doubled up to _SP_V_MAX while its last
# node exceeds _SP_TRIM times the sum; later passes stop one node past the
# last first-pass node above that.  The path starts as a parabola of
# curvature at least _SP_CURVE_MIN / sigma and bends toward the rays
# Re(s - c) = _SP_SLOPE |Im s|.
_SP_CURVE_MIN = 0.1
_SP_SLOPE = 8.0
_SP_SINH = 4.0
_SP_V = 10.0
_SP_V_MAX = 320.0
_SP_H = 0.3
_SP_RTOL = 1e-12
_SP_TRIM = 1e-17
_SP_MAX_HALVINGS = 6
# The contour integral is the same through any point of the interval, so
# the saddle only has to be close: Newton stops within this many saddle
# widths sigma of the root, where exp(phi) is still within 0.5% of its
# value at the saddle.
_SP_SADDLE_TOL = 0.1
_SP_MAX_NEWTON = 50
# Below exp(_LOG_UNDERFLOW), half the smallest subnormal, a tail rounds to 0.
_LOG_UNDERFLOW = -746.0


def _saddle(w: np.ndarray, quantile: float, upper: bool) -> float:
    """Root of ``g(s) = sum_k w_k s / (1 - 2 w_k s) - quantile s - 1``, above or below 0.

    ``g(s) = s (K'(s) - quantile) - 1`` vanishes where ``K(s) - s quantile
    - log|s|`` is stationary; ``K`` is the cumulant generating function,
    finite between the poles ``1 / (2 w_min)`` (for a negative weight) and
    ``1 / (2 w_max)``.  There ``g`` is convex, ``g'' = sum 4 w_k^2 / (1 -
    2 w_k s)^3``, with ``g(0) = -1``, so it has at most one root on each
    side of 0 (the caller asks for a side that has one), and Newton's
    method started where ``g >= 0`` moves monotonically onto the root
    without leaving the interval.  The chord from ``(s, g(s))`` to ``(0,
    -1)`` lies above ``g``, so the root is within ``|s| g / (1 + g)`` of
    ``s``; Newton stops when that is at most ``_SP_SADDLE_TOL`` times the
    width ``phi''^(-1/2)``, with ``phi'' = g' / s`` as at the root.

    Above 0 the start is the smaller positive root of ``a s^2 + b s - 1``
    for two lower bounds of ``g``: the largest weight's term plus ``w s``
    for every other weight, and, when every weight is positive, Jensen's
    inequality ``sum w_k / (1 - 2 w_k s) >= sum w / (1 - 2 wbar s)`` for
    the mean weight ``wbar = sum w^2 / sum w``.  Below 0 every term is at
    least -1/2, so ``g >= 0`` at ``-(K/2 + 1) / quantile``; when that
    point lies past the negative pole, or the quantile is 0, the start
    moves from halfway to the pole toward it until ``g >= 0``.  Each step
    evaluates ``g`` and ``g'`` from one pass over the weights.
    """
    w2 = w + w

    def g_and_slope(s: float) -> tuple[float, float]:
        inv = 1.0 / (1.0 - w2 * s)
        return s * (float(w @ inv) - quantile) - 1.0, float((w * inv) @ inv) - quantile

    if upper:
        total, top = float(w.sum()), float(w.max())
        rest = quantile - total + top
        bounds = [(2.0 * top * rest, 3.0 * top - rest)]
        if w.min() > 0.0:
            wbar = float(w @ w) / total
            bounds.append((2.0 * wbar * quantile, total + 2.0 * wbar - quantile))
        s = math.inf
        for a, b in bounds:
            root = math.hypot(b, 2.0 * math.sqrt(a))
            s = min(s, (root - b) / (2.0 * a) if b < 0.0 else 2.0 / (b + root))
    else:
        pole = 0.5 / float(w.min()) if w.min() < 0.0 else -math.inf
        s = -(0.5 * w.size + 1.0) / quantile if quantile > 0.0 else -math.inf
        if s <= pole:
            s = 0.5 * pole
            while g_and_slope(s)[0] < 0.0:
                s = 0.5 * (s + pole)
    for _ in range(_SP_MAX_NEWTON):
        g, slope = g_and_slope(s)
        if g * g * s * slope <= _SP_SADDLE_TOL * _SP_SADDLE_TOL:
            break
        s -= g / slope
    return s


def _contour_sf(w: np.ndarray, quantile: float) -> float | None:
    """P(sum w_k Z_k^2 > quantile) for ``max|w| = 1``, ``quantile >= 0``, through the saddle point.

    With ``K(s) = -1/2 sum log(1 - 2 w_k s)``, the integral
    ``(1/(2 pi i)) int exp(K(s) - s quantile) ds / s`` up the line
    ``Re s = c`` is the tail for ``0 < c < 1/(2 w_max)`` and the tail minus
    one for ``1/(2 w_min) < c < 0``, whatever the signs of the weights
    (Rice 1980).  ``c`` is the saddle point (:func:`_saddle`) above 0 when
    ``quantile`` exceeds the mean ``sum w`` and below 0 otherwise, so the
    lower tail comes out as the complement without cancellation.  The line
    is bent into ``s = c + alpha t^2 / sqrt(1 + (alpha t / m)^2) + i t``,
    ``m = _SP_SLOPE``: a parabola near ``c`` and rays far out.  It meets
    the real axis, where the singularities lie, only at ``c``, and the
    rays keep it at a fixed angle from the branch points of small weights
    far to the right, which a parabola approaches.  With ``phi(s) = K(s)
    - s quantile - log|s|``, ``sigma = phi''(c)^(-1/2)`` is the saddle's
    width and ``alpha`` the curvature ``phi'''(c) / (6 phi''(c))`` of the
    steepest-descent path at ``c``, raised to the floor above.  The map
    ``t = sigma a sinh(v / a)`` is linear near the saddle and exponential
    far out, where the integrand of a quantile near 0 decays only like a
    power of ``t`` (Takahasi & Mori 1974).  By conjugate symmetry the
    integral is ``(1/pi) int_0^inf Im[...] dt``.
    ``exp(K(c) - c quantile)`` is factored out, so tails near 1e-300 keep
    their relative accuracy; a tail whose Chernoff bound at ``s = 1/4``
    underflows is 0.  Returns None when the saddle point leaves the
    floating-point range, the integrand has not decayed by ``v =
    _SP_V_MAX`` or the step halvings do not converge.
    """
    upper = quantile > float(w.sum())
    if upper and 0.25 * quantile > w.size - _LOG_UNDERFLOW:
        return 0.0  # Chernoff: the tail is below exp(K(1/4) - quantile / 4), K(1/4) < w.size
    c = _saddle(w, quantile, upper)
    d = 1.0 - 2.0 * w * c
    if not (math.isfinite(c) and (c > 0.0) == upper and d.min() > 0.0):
        return None
    beta = 2.0 * w / d  # K^(n)(c) = (n - 1)! / 2 * sum beta^n
    phi2 = 0.5 * float(beta @ beta) + 1.0 / (c * c)
    phi3 = float(beta @ (beta * beta)) - 2.0 / (c * c * c)
    if not (0.0 < phi2 < math.inf and math.isfinite(phi3)):
        return None  # a quantile at the edge of the floating-point range
    sigma = 1.0 / math.sqrt(phi2)
    alpha = max(phi3 / (6.0 * phi2), _SP_CURVE_MIN / sigma)
    log_scale = -0.5 * float(np.log(d).sum()) - c * quantile

    def integrand(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Im and modulus of ``exp(K(s) - K(c) - (s - c) quantile) s'(t) / s``.

        Times the Jacobian ``dt / (sigma dv)``, in real arithmetic: each
        ``1 - beta_k (s - c)`` is ``re - i im``.
        """
        grow = np.exp(v / _SP_SINH)
        shrink = 1.0 / grow
        t = (0.5 * sigma * _SP_SINH) * (grow - shrink)
        at = alpha * t
        unbend = _SP_SLOPE / np.hypot(_SP_SLOPE, at)
        lean = at * unbend
        shift = lean * t  # Re(s - c)
        slope = lean * (1.0 + unbend * unbend)  # d Re(s) / dt
        im = np.multiply.outer(t, beta)
        re = 1.0 - lean[:, None] * im
        log_mod = np.log(re * re + im * im).sum(axis=1)
        phase = 0.5 * np.arctan2(im, re).sum(axis=1) - quantile * t
        # s'(t) / s = (slope + i) / (x + i t) = (num_re + i num_im) / |s|^2
        x = c + shift
        num_re = slope * x + t
        num_im = x - slope * t
        scale = (0.5 * (grow + shrink) * np.exp(-0.25 * log_mod - quantile * shift)
                 / (x * x + t * t))
        return (scale * (num_re * np.sin(phase) + num_im * np.cos(phase)),
                scale * np.hypot(num_re, num_im))

    h = 0.5 * _SP_H
    n = round(_SP_V / h)
    values, modulus = integrand(h * np.arange(1, n + 1))
    total = 0.5 / c + float(values.sum())
    while modulus[-1] > _SP_TRIM * abs(total) and n * h < _SP_V_MAX:
        more, more_modulus = integrand(h * np.arange(n + 1, 2 * n + 1))
        values = np.concatenate([values, more])
        modulus = np.concatenate([modulus, more_modulus])
        total += float(more.sum())
        n *= 2
    live = np.flatnonzero(modulus > _SP_TRIM * abs(total))
    if live.size and live[-1] == n - 1:
        return None
    end = h * (live[-1] + 2 if live.size else 1)
    # The first pass holds the rules with steps _SP_H and _SP_H / 2.
    estimate = 2.0 * h * (0.5 / c + float(values[1::2].sum()))
    for halving in range(_SP_MAX_HALVINGS):
        if halving:
            h *= 0.5
            total += float(integrand(h * np.arange(1, int(end / h) + 1, 2))[0].sum())
        previous, estimate = estimate, h * total
        if abs(estimate - previous) <= _SP_RTOL * abs(estimate):
            break
    else:
        return None
    if not estimate * c > 0.0:  # the sign of the tail, or of the tail minus one
        return None
    tail = math.exp(log_scale + math.log(abs(estimate) * sigma / math.pi))
    return min(tail, 1.0) if upper else max(1.0 - tail, 0.0)


def weighted_chisq_sf(weights, x: float) -> float:
    """P(sum_k w_k (Z_k^2 - 1) > x) for independent standard normals.

    Weights may be signed; zero weights are dropped, and a weight, their
    sum or ``x`` that is not finite raises :class:`DistributionError`.
    One weight gives the exact chi-squared tail, ``erfc(sqrt(q / 2))`` at
    ``q = 1 + x / w`` (``erf`` for a negative weight).  Two or more
    weights, of any signs, take a trapezoid rule on a contour through the
    saddle point (:func:`_contour_sf`), stopped when successive estimates
    agree to 1e-12 relative: about 1e-12 relative accuracy down to tails
    near 1e-300, and on the side of the mean where p is near 1 it
    computes 1 - p directly, so p keeps full accuracy there.  A negative
    uncentered quantile ``q = x + sum w`` is mirrored, ``P(S > q) = 1 -
    P(-S > -q)``; a tail below the floating-point range is 0.  An input
    the rule cannot resolve raises :class:`InternalConsistencyError`.
    """
    w = np.asarray(weights, dtype=float).ravel()
    w = w[w != 0.0]
    x = float(x)
    quantile = x + float(w.sum())
    if not math.isfinite(quantile):
        raise DistributionError(
            f"weights, their sum and x must be finite, got {w.tolist()!r} and {x!r}"
        )
    if w.size == 0:
        raise DegenerateDistributionError(
            "the weighted chi-squared law needs at least one nonzero weight"
        )
    if w.size == 1:
        # Single component: exact chi-squared tail.
        scale = w[0]
        quantile = 1.0 + x / scale
        if scale > 0.0:
            return 1.0 if quantile <= 0.0 else math.erfc(math.sqrt(0.5 * quantile))
        return 0.0 if quantile <= 0.0 else math.erf(math.sqrt(0.5 * quantile))
    # Same-sign weights pin the support to a half line; outside it the
    # answer is exact and no integral is needed.
    low, high = float(w.min()), float(w.max())
    if low > 0.0 and quantile <= 0.0:
        return 1.0
    if high < 0.0 and quantile >= 0.0:
        return 0.0
    mirror = quantile < 0.0
    scale = max(high, -low)  # the tail is scale-free
    if mirror:
        scale = -scale
    p = _contour_sf(w / scale, quantile / scale)
    if p is None:
        raise InternalConsistencyError(
            f"the saddle-point contour did not converge for weights {w.tolist()!r} "
            f"at quantile {quantile!r}"
        )
    return 1.0 - p if mirror else p


# ---------------------------------------------------------------------------
# Independence tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    """Outcome of an independence test on one contingency table.

    ``method`` is ``"imhof"``, the tag of the exact analytic tail.
    """

    statistic: float
    estimator: str
    p_value: float
    method: str
    lambdas: np.ndarray
    mus: np.ndarray
    bias_shift: float
    n: float


def _test_result(ns: NullSpectrum, statistic: float, estimator: str,
                 n: float) -> TestResult:
    """Analytic p-value of ``statistic`` (``n`` times the estimate) under ``ns``."""
    norm_const = ns.normalizer()
    weights = np.outer(ns.lambdas, ns.mus).ravel() / norm_const
    if estimator == "unbiased":
        threshold = statistic
    else:
        threshold = statistic - ns.bias_shift / norm_const
    return TestResult(
        statistic=float(statistic),
        estimator=estimator,
        p_value=weighted_chisq_sf(weights, threshold),
        method="imhof",
        lambdas=ns.lambdas,
        mus=ns.mus,
        bias_shift=ns.bias_shift,
        n=n,
    )


def independence_test(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix,
                      estimator: str = "unbiased") -> TestResult:
    """Analytic independence test based on the asymptotic null law.

    The statistic is ``n`` times the chosen squared distance correlation
    estimate.  Its null distribution is the normalized weighted sum of
    centered chi-squares with weights ``lambda_i mu_j`` estimated from the
    sample marginals; the plug-in variant adds the shift ``B``.
    """
    if estimator not in ("mle", "unbiased"):
        raise ValueError("estimator must be 'mle' or 'unbiased'")
    ns = null_spectrum(t.row_counts / t.n, t.col_counts / t.n, dx, dy)
    ns.normalizer()  # zero total weight fails before the statistic
    return _test_result(ns, t.n * _statistic(t, dx, dy, estimator), estimator, t.n)


def null_pvalue_unbiased(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Analytic p-value for the bias-corrected statistic."""
    return independence_test(t, dx, dy, estimator="unbiased").p_value


def null_pvalue_mle(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Analytic p-value for the plug-in statistic (shifted null law)."""
    return independence_test(t, dx, dy, estimator="mle").p_value


def _require_replicates(reps: int) -> None:
    if reps < 99:
        raise InsufficientReplicatesError(
            f"permutation test needs at least 99 replicates, got {reps}"
        )


def _require_seed(seed) -> None:
    """Seeds key ``numpy.random.default_rng``: a non-negative integer or a tuple of them."""
    entries = seed if isinstance(seed, tuple) else (seed,)
    if not entries or not all(isinstance(v, numbers.Integral) and v >= 0 for v in entries):
        what = ("a tuple of non-negative integers" if isinstance(seed, tuple)
                else "a non-negative integer")
        raise ConfigurationError(f"seed must be {what}, got {seed!r}")


def _permutation_pvalues(y: np.ndarray, dy: DistanceMatrix, variables: list,
                         reps: int, seed: int) -> list[dict[str, float]]:
    """Permutation p-values of several variables against one response.

    ``variables`` holds one ``(x, dx, observed)`` per variable: its codes
    (checked, like ``y``, by the caller, at ingest or by its tabulation)
    and a map from each estimator to its unscaled estimate on the
    unpermuted table.  Replicate
    ``rep`` permutes ``y`` with ``default_rng((seed, rep))``.  The draws
    of up to ``_BLOCK`` replicates are made once and shared by every
    variable, which tabulates that block with one ``np.bincount`` and
    scores it with ``_score_many``, the kernel that computed ``observed``.
    Permuting keeps both margins, so no replicate table is degenerate.
    """
    n = float(len(y))
    exceed = [dict.fromkeys(observed, 0) for _, _, observed in variables]
    for start in range(0, reps, _BLOCK):
        drawn = np.stack([np.random.default_rng((seed, rep)).permutation(y)
                          for rep in range(start, min(start + _BLOCK, reps))])
        for (x, dx, observed), counts in zip(variables, exceed):
            tables = _tabulate_many(x[:, None], drawn.T, dx.n_categories, dy.n_categories)
            for kind, value in observed.items():
                counts[kind] += int(np.count_nonzero(
                    _score_many(tables, n, dx, dy, kind)[0] >= value))
    return [{kind: (1.0 + c) / (reps + 1.0) for kind, c in counts.items()}
            for counts in exceed]


def permutation_test(x, y, dx: DistanceMatrix, dy: DistanceMatrix,
                     estimator: str = "unbiased", reps: int = 999,
                     seed: int = 0) -> float:
    """Permutation p-value from shuffling the second variable's labels.

    ``x`` and ``y`` are integer-coded samples.  Each replicate draws an
    independent uniform permutation from a generator keyed by
    ``(seed, replicate index)``, so results are reproducible and do not
    depend on any execution ordering; ``seed`` must be non-negative.  The
    p-value is ``(1 + #{permuted statistic >= observed}) / (reps + 1)``.
    """
    _require_replicates(reps)
    _require_seed(seed)
    if estimator not in ("mle", "unbiased"):
        raise ValueError("estimator must be 'mle' or 'unbiased'")
    x = np.asarray(x)
    y = np.asarray(y)
    table = JointTable.from_codes(x, y, dx.n_categories, dy.n_categories)
    observed = {estimator: _statistic(table, dx, dy, estimator)}
    return _permutation_pvalues(y, dy, [(x, dx, observed)], reps, seed)[0][estimator]


# ---------------------------------------------------------------------------
# Inference under alternatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AltInference:
    """Delta-method ingredients under a fixed alternative.

    ``dprime`` holds the partial derivatives of the squared distance
    covariance with respect to each cell probability, divided by two (the
    half-gradient form in which the derivative is usually quoted; the
    centered table enters the covariance quadratically, hence the factor).
    ``sigma`` is the multinomial covariance of the scaled cell proportions.
    ``asymp_var`` is the variance of ``sqrt(n)`` times the estimated
    squared distance correlation around its population value, from the
    full delta method applied to the covariance-over-variances ratio
    (both the numerator and the two variance estimates contribute).
    """

    dprime: np.ndarray
    sigma: np.ndarray
    asymp_var: float


def _dcov2_half_gradient(p: JointDistribution, dx: DistanceMatrix,
                         dy: DistanceMatrix) -> np.ndarray:
    """Half the gradient of dcov2 with respect to the cell probabilities."""
    delta = p.delta()
    dbar_x = dx.d @ p.row_marginal
    dbar_y = dy.d @ p.col_marginal
    core = dx.d @ delta @ dy.d
    row_part = dx.d @ (delta @ dbar_y)
    col_part = dy.d @ (delta.T @ dbar_x)
    return core - row_part[:, None] - col_part[None, :]


def _dvar2_marginal_gradient(marginal: np.ndarray, d: DistanceMatrix) -> np.ndarray:
    """Gradient of dvar2 with respect to the marginal probabilities."""
    dbar = d.d @ marginal
    mean_dist = float(marginal @ dbar)
    sq_term = 2.0 * ((d.d * d.d) @ marginal)
    return sq_term - 2.0 * dbar**2 - 4.0 * (d.d @ (marginal * dbar)) + 4.0 * mean_dist * dbar


def multinomial_sigma(p: JointDistribution) -> np.ndarray:
    """Covariance matrix of the scaled cell proportions, row-major order.

    Diagonal ``pi_ij (1 - pi_ij)``, off-diagonal ``-pi_ij pi_km``; every
    row sums to zero because the proportions sum to one.
    """
    vec = p.pi.ravel(order="C")
    return np.diag(vec) - np.outer(vec, vec)


def alt_inference(p: JointDistribution, dx: DistanceMatrix, dy: DistanceMatrix) -> AltInference:
    """Asymptotic variance of the squared distance correlation estimators.

    Both estimators share one limit variance.  Under exact independence
    every derivative vanishes and the variance is zero (the estimators are
    then degenerate at root-n scale and follow the weighted chi-squared
    law instead).
    """
    var_x = dvar2(p.row_marginal, dx)
    var_y = dvar2(p.col_marginal, dy)
    if var_x <= 1e-14 or var_y <= 1e-14:
        raise DegenerateMarginError(
            "distance variance is zero on at least one margin"
        )
    dprime = _dcov2_half_gradient(p, dx, dy)
    sigma = multinomial_sigma(p)

    denom = np.sqrt(var_x * var_y)
    cov = dcov2(p, dx, dy)
    ratio = cov / denom
    grad_vx = _dvar2_marginal_gradient(p.row_marginal, dx)
    grad_vy = _dvar2_marginal_gradient(p.col_marginal, dy)
    # d/dpi_ij of cov/sqrt(VX VY): the covariance gradient is 2*dprime and
    # each variance enters through its own marginal.
    grad = (
        2.0 * dprime / denom
        - ratio * (grad_vx[:, None] / (2.0 * var_x) + grad_vy[None, :] / (2.0 * var_y))
    )
    grad_vec = grad.ravel(order="C")
    asymp_var = float(grad_vec @ sigma @ grad_vec)
    return AltInference(dprime=dprime, sigma=sigma, asymp_var=max(asymp_var, 0.0))


def confidence_interval(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix,
                        level: float = 0.95, estimator: str = "mle"
                        ) -> tuple[float, float]:
    """Normal-approximation confidence interval for squared distance correlation.

    Centered at the chosen estimate with half-width
    ``z_{(1+level)/2} sqrt(asymp_var / n)``, the variance evaluated at the
    observed proportions.  The plug-in interval is intersected with
    [0, 1]; the bias-corrected one is left unclipped.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie strictly between 0 and 1")
    if estimator not in ("mle", "unbiased"):
        raise ValueError("estimator must be 'mle' or 'unbiased'")
    return _interval(_statistic(t, dx, dy, estimator), t.counts, t.n, dx, dy, level, estimator)


def _interval(point: float, counts: np.ndarray, n: float, dx: DistanceMatrix,
              dy: DistanceMatrix, level: float, estimator: str) -> tuple[float, float]:
    """:func:`confidence_interval` around ``point``, the estimate on ``counts`` (total ``n``)."""
    info = alt_inference(JointDistribution(counts / n), dx, dy)
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) * np.sqrt(info.asymp_var / n)
    lo, hi = point - half, point + half
    if estimator == "mle":
        lo, hi = max(lo, 0.0), min(hi, 1.0)
    return float(lo), float(hi)
