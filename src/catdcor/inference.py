"""Null distributions, p-values, and delta-method inference.

Under independence, ``n`` times the bias-corrected squared distance
correlation converges to a weighted sum of centered chi-squared variables

    ( sum_{i,j} lambda_i mu_j (Z_ij^2 - 1) ) / sqrt(sum lambda^2 sum mu^2)

whose weights come from the eigenvalues of two small margin-weighted,
row-centered distance matrices (one per variable).  The plug-in
estimator obeys the same law shifted by a constant ``B``, the product of
the two mean within-margin distances.  Tail probabilities of the weighted
sum are exact for one weight (a chi-squared tail, ``erfc`` of the square
root of half the quantile) and a finite polar-angle integral for two (the
2 x k tables of binary variables).  Three or more positive weights, the
case of every spectrum built here (the encodings' distances are
conditionally negative definite, so every lambda and mu is <= 0), take a
trapezoid rule along a contour through the saddle point: about 1e-12
relative accuracy down to tails near 1e-300, and below the mean it
computes 1 - p directly, so p keeps full accuracy next to 1.  Mixed
signs, or a contour that does not converge, fall back to numerical
inversion of the characteristic function (Imhof-type oscillatory
integration, truncated by a vectorized log-grid search, about 1e-9
absolute), then to a three-cumulant moment match flagged in the result;
a permutation test is the distribution-free alternative.  Only the
moment match loads scipy.

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
    _score_many,
    _tabulate_many,
    dcor2_mle,
    dcor2_unbiased,
)
from .exceptions import (
    ConfigurationError,
    DegenerateCategoryError,
    DegenerateDistributionError,
    DegenerateMarginError,
    InsufficientReplicatesError,
    InternalConsistencyError,
    ShapeError,
)
from .measures import JointDistribution, dcov2, dvar2

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
    m = np.asarray(marginal, dtype=float)
    if m.ndim != 1 or m.shape[0] != d.n_categories:
        raise ShapeError("marginal length must match the distance matrix")
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


def null_spectrum(row_marginal, col_marginal,
                  dx: DistanceMatrix, dy: DistanceMatrix) -> NullSpectrum:
    """Null-law ingredients for given marginals and distance matrices.

    Zero-probability categories are dropped (with a warning) before the
    eigenvalue computation, which requires strictly positive mass.
    """
    row = np.asarray(row_marginal, dtype=float)
    col = np.asarray(col_marginal, dtype=float)
    row, dx_pos = _positive_part(row, dx)
    col, dy_pos = _positive_part(col, dy)
    lambdas = spectrum(row, dx_pos)
    mus = spectrum(col, dy_pos)
    bias_shift = float((row @ dx_pos.d @ row) * (col @ dy_pos.d @ col))
    return NullSpectrum(
        lambdas=lambdas,
        mus=mus,
        bias_shift=bias_shift,
        dvar_x=dvar2(row, dx_pos),
        dvar_y=dvar2(col, dy_pos),
    )


# ---------------------------------------------------------------------------
# Weighted chi-squared tail probabilities
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_MAX_PANELS = 2000000
# Target absolute accuracy of the inversion integral.
_IMHOF_EPS_ABS = 1e-9

# Truncation search on the log-u scale: a coarse pass over the integer
# grid 0..390, then one refinement of the bracketing cell in steps of
# _CUTOFF_STEP, so a cutoff overshoots its crossing by at most ~3%.
_CUTOFF_GRID = np.arange(391.0)
_CUTOFF_REFINE = 32
_CUTOFF_STEP = 1.0 / _CUTOFF_REFINE


def _envelope_log(log_u, weights: np.ndarray) -> np.ndarray:
    """Log of the Imhof integrand's envelope ``u^-1 prod_k (1 + w_k^2 u^2)^(-1/4)``.

    Vectorized over ``log_u``.  Each ``log1p(w^2 u^2)`` is evaluated as
    ``logaddexp(0, 2 log|w u|)``, which cannot overflow for any ``u``.
    """
    log_u = np.asarray(log_u, dtype=float)
    log_wu = np.log(np.abs(weights)) + log_u[..., None]
    return -(log_u + 0.25 * np.logaddexp(0.0, 2.0 * log_wu).sum(axis=-1))


def _find_cutoff(weights: np.ndarray, target_log: float,
                 coarse: np.ndarray | None = None) -> float:
    """Smallest grid point ``u >= 1`` where the envelope is at or below ``exp(target_log)``.

    The envelope decreases in ``u``, so the points above the target form a
    prefix of each grid.  ``coarse`` may carry the envelope already
    evaluated on ``_CUTOFF_GRID``.  The returned point is the upper end of
    the refined bracket: never below the exact crossing, at most a factor
    ``exp(_CUTOFF_STEP)`` above it.  Returns 1.0 when the envelope starts
    at or below the target and inf when it has not reached it by
    ``u = e^390``.
    """
    if coarse is None:
        coarse = _envelope_log(_CUTOFF_GRID, weights)
    above = int(np.count_nonzero(coarse > target_log))
    if above == 0:
        return 1.0
    if above == coarse.size:
        return float("inf")
    fine = _CUTOFF_GRID[above - 1] + _CUTOFF_STEP * np.arange(1, _CUTOFF_REFINE + 1)
    j = int(np.count_nonzero(_envelope_log(fine, weights) > target_log))
    return float(np.exp(fine[min(j, _CUTOFF_REFINE - 1)]))


def _imhof_sf(weights: np.ndarray, quantile: float) -> float | None:
    """P(sum w_k Z_k^2 > quantile) by characteristic-function inversion.

    Evaluates ``1/2 + (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du``
    with panel-wise Gauss-Legendre quadrature, panels a quarter of the
    fastest oscillation period, truncated where the envelope undercuts
    both 1e-12 and the integration-by-parts tail bound for
    ``_IMHOF_EPS_ABS`` (:func:`_find_cutoff`, one vectorized grid pass
    shared by both targets).  Absolute accuracy is about
    ``_IMHOF_EPS_ABS``.  Returns None when the truncation point would
    require more panels than the cap (extremely slow envelope decay),
    signalling the caller to use the moment-matching fallback.
    """
    w = weights
    coarse = _envelope_log(_CUTOFF_GRID, w)
    cutoff = _find_cutoff(w, np.log(1e-12), coarse)
    if abs(quantile) > 1e-12:
        # Oscillation cancels the tail: |∫_U^inf| <= 4 envelope(U) / |q|.
        target = np.log(_IMHOF_EPS_ABS * abs(quantile) / 8.0)
        cutoff = min(cutoff, _find_cutoff(w, target, coarse))
    if not np.isfinite(cutoff):
        return None

    rate = 0.5 * float(np.sum(np.abs(w))) + 0.5 * abs(quantile)
    width = 0.5 * np.pi / max(rate, 1e-12)
    n_panels = int(np.ceil(cutoff / width))
    n_panels = max(n_panels, 8)
    if n_panels > _MAX_PANELS:
        return None

    edges = np.linspace(0.0, cutoff, n_panels + 1)
    total = 0.0
    block = 20000
    for start in range(0, n_panels, block):
        end = min(start + block, n_panels)
        lo = edges[start:end]
        hi = edges[start + 1:end + 1]
        half = 0.5 * (hi - lo)
        u = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES[None, :]
        flat = u.ravel()
        theta = 0.5 * np.arctan(flat[:, None] * w[None, :]).sum(axis=1) \
            - 0.5 * quantile * flat
        log_rho = 0.25 * np.log1p((flat[:, None] * w[None, :]) ** 2).sum(axis=1)
        vals = (np.sin(theta) / (flat * np.exp(log_rho))).reshape(u.shape)
        total += float(np.sum((vals * _GL_WEIGHTS[None, :]).sum(axis=1) * half))
    p = 0.5 + total / np.pi
    return float(min(max(p, 0.0), 1.0))


# Two-weight tail: trapezoid rule in the tanh-sinh variable t on
# [-_K2_T, _K2_T], step halved from 1/2 until two successive estimates
# agree to _K2_RTOL relative.  Node weights at |t| = _K2_T are below 1e-20.
_K2_T = 3.5
_K2_RTOL = 1e-12
_K2_MAX_HALVINGS = 8


def _two_weight_sf(w0: float, w1: float, quantile: float) -> float | None:
    """P(w0 Z0^2 + w1 Z1^2 > quantile) without the oscillatory integral.

    In polar coordinates the sum is ``R^2 g(theta)`` with ``g = w0 cos^2 +
    w1 sin^2``, ``R^2 ~ Exp(mean 2)`` and ``theta`` uniform and independent,
    so for ``quantile >= 0``

        P = (2/pi) int_0^end exp(-quantile / (2 g(theta))) dtheta,

    where ``end`` is pi/2 for two positive weights and the zero of ``g``
    when the signs differ (larger weight first).  A negative quantile uses
    ``P(S > q) = 1 - P(-S > -q)``.  The integrand is smooth and every
    sharp feature (the extremes and the zero of ``g``) sits at an end of
    the interval, where tanh-sinh nodes cluster; skewed weights such as
    ``[1, 1e-6]`` therefore cost a few hundred evaluations.  Both ends are
    evaluated from their distance ``d`` to the node, so ``g`` keeps full
    relative precision near them.  The caller guarantees that the event
    has positive probability on one side (a weight of the right sign).
    Returns None when the halvings do not converge.
    """
    flip = quantile < 0.0
    if flip:
        w0, w1, quantile = -w0, -w1, -quantile
    w0, w1 = max(w0, w1), min(w0, w1)
    same_sign = w1 > 0.0
    end = 0.5 * np.pi if same_sign else float(np.arctan(np.sqrt(w0 / -w1)))
    if quantile == 0.0:  # P(g > 0); never flipped
        return end / (0.5 * np.pi)
    half = 0.5 * end

    def mirrored_sum(t: np.ndarray) -> float:
        """Integrand times Jacobian at the nodes -t (near 0) and +t (near end)."""
        e = np.exp(-np.pi * np.sinh(t))
        d = half * 2.0 * e / (1.0 + e)
        jacobian = half * 2.0 * np.pi * np.cosh(t) * e / (1.0 + e) ** 2
        cos2, sin2 = np.cos(d) ** 2, np.sin(d) ** 2
        g_lo = w0 * cos2 + w1 * sin2
        if same_sign:
            g_hi = w0 * sin2 + w1 * cos2
        else:
            g_hi = (w0 - w1) * np.sin(2.0 * end - d) * np.sin(d)
        # g underflows only at nodes whose integrand is exp(-inf) = 0.
        with np.errstate(divide="ignore", over="ignore"):
            f = np.exp(-quantile / (2.0 * g_lo)) + np.exp(-quantile / (2.0 * g_hi))
        return float(jacobian @ f)

    g_mid = w0 * np.cos(half) ** 2 + w1 * np.sin(half) ** 2
    h = 0.5
    total = 0.5 * np.pi * half * float(np.exp(-quantile / (2.0 * g_mid)))
    total += mirrored_sum(h * np.arange(1, int(_K2_T / h) + 1))
    estimate = h * total
    for _ in range(_K2_MAX_HALVINGS):
        h *= 0.5
        total += mirrored_sum(h * np.arange(1, int(_K2_T / h) + 1, 2))
        previous, estimate = estimate, h * total
        if abs(estimate - previous) <= _K2_RTOL * estimate:
            p = min(estimate / (0.5 * np.pi), 1.0)
            return 1.0 - p if flip else p
    return None


# Positive-weight tail: trapezoid rule in v on [0, _SP_V] along a parabola
# through the saddle point, step halved from _SP_H until two successive
# estimates agree to _SP_RTOL relative.  Later passes stop one node past
# the last first-pass node whose integrand exceeds _SP_TRIM times the sum.
# The parabola's curvature is at least _SP_CURVE_MIN / sigma, and large
# enough that exp(-quantile Re(s - c)) alone falls to exp(-_SP_DECAY) by
# v = _SP_V.
_SP_CURVE_MIN = 0.1
_SP_DECAY = 60.0
_SP_V = 20.0
_SP_H = 0.4
_SP_RTOL = 1e-12
_SP_TRIM = 1e-17
_SP_MAX_HALVINGS = 6
# The contour integral is the same through any point of the interval, so
# the saddle only has to be close: Newton stops after a step this small
# relative to the point, which leaves an error of about its square.
_SP_SADDLE_RTOL = 1e-5
_SP_MAX_NEWTON = 50


def _saddle(w: np.ndarray, quantile: float, upper: bool) -> float:
    """Root of ``g(s) = sum_k w_k s / (1 - 2 w_k s) - quantile s - 1``, above or below 0.

    ``g(s) = s (K'(s) - quantile) - 1`` vanishes where ``K(s) - s quantile
    - log|s|`` is stationary; ``K`` is the cumulant generating function.
    ``g`` is convex on ``s < 1 / (2 w_max)`` with ``g(0) = -1``, so it has
    one root on each side of 0, and Newton's method started where
    ``g >= 0`` moves monotonically onto the root without leaving the
    interval.  The start is the root of a lower bound of ``g``.  Above 0
    there are two, each zero at the positive root of ``a s^2 + b s - 1``:
    the largest weight's term plus ``w s`` for every other weight, and
    Jensen's inequality, ``sum w_k / (1 - 2 w_k s) >= sum w / (1 - 2 wbar
    s)`` for the mean weight ``wbar = sum w^2 / sum w``; the smaller root
    is the tighter start.  Below 0 every term is at least -1/2.  Each step
    evaluates ``g`` and ``g'`` from one pass over the weights.
    """
    if upper:
        total, top = float(w.sum()), float(w.max())
        wbar = float(w @ w) / total
        rest = quantile - total + top
        s = math.inf
        for a, b in ((2.0 * top * rest, 3.0 * top - rest),
                     (2.0 * wbar * quantile, total + 2.0 * wbar - quantile)):
            root = math.sqrt(b * b + 4.0 * a)
            s = min(s, (root - b) / (2.0 * a) if b < 0.0 else 2.0 / (b + root))
    else:
        s = -(0.5 * w.size + 1.0) / quantile
    w2 = w + w
    for _ in range(_SP_MAX_NEWTON):
        inv = 1.0 / (1.0 - w2 * s)
        g = s * (float(w @ inv) - quantile) - 1.0
        if g <= 0.0:  # on the root to rounding
            break
        step = g / (float((w * inv) @ inv) - quantile)
        s -= step
        if abs(step) <= _SP_SADDLE_RTOL * abs(s):
            break
    return s


def _contour_sf(w: np.ndarray, quantile: float) -> float | None:
    """P(sum w_k Z_k^2 > quantile) for positive weights, along a path through the saddle point.

    With ``K(s) = -1/2 sum log(1 - 2 w_k s)``, the integral
    ``(1/(2 pi i)) int exp(K(s) - s quantile) ds / s`` up the line
    ``Re s = c`` is the tail for ``0 < c < 1/(2 w_max)`` and the tail minus
    one for ``c < 0`` (Rice 1980).  ``c`` is the saddle point
    (:func:`_saddle`) above 0 when ``quantile`` exceeds the mean
    ``sum w`` and below 0 otherwise, so the lower tail comes out as the
    complement without cancellation.  The line is bent into the parabola
    ``s = c + alpha t^2 + i t``, ``t = sigma v``.  With ``phi(s) = K(s) -
    s quantile - log|s|``, ``sigma = phi''(c)^(-1/2)`` is the saddle's
    width and ``alpha`` the curvature ``phi'''(c) / (6 phi''(c))`` of the
    steepest-descent path at ``c``, raised to the floors above.  By
    conjugate symmetry the integral is ``(1/pi) int_0^inf Im[...] dt``.
    ``exp(K(c) - c quantile)`` is factored out, so tails near 1e-300 keep
    their relative accuracy.  Returns None when the saddle point leaves
    the floating-point range, the integrand has not decayed by
    ``v = _SP_V`` or the step halvings do not converge.
    """
    top = float(w.max())
    w, quantile = w / top, quantile / top  # the tail is scale-free
    upper = quantile > float(w.sum())
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
    alpha = max(phi3 / (6.0 * phi2), _SP_CURVE_MIN / sigma,
                _SP_DECAY / (quantile * (sigma * _SP_V) ** 2))
    log_scale = -0.5 * float(np.log(d).sum()) - c * quantile

    def integrand(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Im and modulus of ``exp(K(s) - K(c) - (s - c) quantile) s'(t) / s``, ``t = sigma v``.

        In real arithmetic: each ``1 - beta_k (s - c)`` is ``re - i im``.
        """
        t = sigma * v
        at = alpha * t
        shift = at * t  # Re(s - c)
        im = np.multiply.outer(t, beta)
        re = 1.0 - at[:, None] * im
        log_mod = np.log(re * re + im * im).sum(axis=1)
        phase = 0.5 * np.arctan2(im, re).sum(axis=1) - quantile * t
        # s'(t) / s = (2 alpha t + i) / (x + i t) = (num_re + i num_im) / |s|^2
        x = c + shift
        num_re = (2.0 * at) * x + t
        num_im = x - 2.0 * shift
        scale = np.exp(-0.25 * log_mod - quantile * shift) / (x * x + t * t)
        return (scale * (num_re * np.sin(phase) + num_im * np.cos(phase)),
                scale * np.hypot(num_re, num_im))

    h = 0.5 * _SP_H
    values, modulus = integrand(h * np.arange(1, int(_SP_V / h) + 1))
    total = 0.5 / c + float(values.sum())
    live = np.flatnonzero(modulus > _SP_TRIM * abs(total))
    if live.size and live[-1] == values.size - 1:
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


def _moment_match_sf(weights: np.ndarray, x: float) -> float:
    """Moment-matched chi-squared approximation to the tail.

    Matches the mean, variance and skewness of ``sum w_k (Z_k^2 - 1)`` to
    a location-scale chi-squared, mirroring the distribution when the
    skewness is negative.  Used only when the oscillatory integral is
    unavailable, so its scipy import is local.
    """
    from scipy.stats import chi2, norm

    w = weights
    c2 = 2.0 * np.sum(w**2)
    c3 = 8.0 * np.sum(w**3)
    sd = np.sqrt(c2)
    t = x / sd
    s1 = c3 / c2**1.5
    if s1 < 0.0:
        # Mirror: the tail of the sum equals the lower tail of the flipped sum.
        return 1.0 - _moment_match_sf(-w, -x)
    if s1 < 1e-12:
        return float(norm.sf(t))
    # No noncentral fit: Cauchy-Schwarz gives s1^2 <= (2/3) c4 / c2^2 for c4 = 48 sum w^4.
    df = max((1.0 / s1)**2, 1e-8)
    return float(chi2.sf(t * np.sqrt(2.0 * df) + df, df))


def _weighted_chisq_sf_impl(weights, x: float) -> tuple[float, str]:
    """Tail probability plus the method tag ('imhof' or 'moment-match').

    The tag 'imhof' covers every exact route: the chi-squared tail for one
    weight, :func:`_two_weight_sf` for two, :func:`_contour_sf` for three
    or more positive weights, and the inversion integral
    (:func:`_imhof_sf`) for mixed signs or when the other rules do not
    converge.  Only when that gives up too does the moment match run.
    """
    w = np.asarray(weights, dtype=float).ravel()
    w = w[w != 0.0]
    if w.size == 0:
        raise DegenerateDistributionError(
            "the weighted chi-squared law needs at least one nonzero weight"
        )
    x = float(x)
    if w.size == 1:
        # Single component: exact chi-squared tail.
        scale = w[0]
        quantile = 1.0 + x / scale
        if scale > 0.0:
            return (1.0 if quantile <= 0.0 else math.erfc(math.sqrt(0.5 * quantile))), "imhof"
        return (0.0 if quantile <= 0.0 else math.erf(math.sqrt(0.5 * quantile))), "imhof"
    quantile = x + float(w.sum())
    positive = w.min() > 0.0
    # Same-sign weights pin the support to a half line; outside it the
    # answer is exact and no integral is needed.
    if positive and quantile <= 0.0:
        return 1.0, "imhof"
    if w.max() < 0.0 and quantile >= 0.0:
        return 0.0, "imhof"
    if w.size == 2:
        p = _two_weight_sf(float(w[0]), float(w[1]), quantile)
    else:
        p = _contour_sf(w, quantile) if positive else None
    if p is None:
        p = _imhof_sf(w, quantile)
    if p is not None:
        return p, "imhof"
    return float(min(max(_moment_match_sf(w, x), 0.0), 1.0)), "moment-match"


def weighted_chisq_sf(weights, x: float) -> float:
    """P(sum_k w_k (Z_k^2 - 1) > x) for independent standard normals.

    Weights may be signed; zero weights are dropped.  One weight gives the
    exact chi-squared tail, ``erfc(sqrt(q / 2))`` at ``q = 1 + x / w``
    (``erf`` for a negative weight).  Two weights use a finite polar-angle
    integral (tanh-sinh rule, stopped when successive estimates agree to 1e-12
    relative, so the absolute error is below 1e-12 and far-tail values keep
    their relative accuracy).  Three or more positive weights use a
    trapezoid rule on a contour through the saddle point, stopped the same
    way: about 1e-12 relative accuracy down to tails near 1e-300, and
    below the mean it computes 1 - p directly, so p keeps full accuracy
    next to 1.  Mixed signs use characteristic-function inversion with
    absolute accuracy about 1e-9, falling back to a three-cumulant moment
    match (flagged via :func:`independence_test`) if the integral cannot
    be resolved.
    """
    return _weighted_chisq_sf_impl(weights, x)[0]


# ---------------------------------------------------------------------------
# Independence tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    """Outcome of an independence test on one contingency table."""

    statistic: float
    estimator: str
    p_value: float
    method: str
    lambdas: np.ndarray
    mus: np.ndarray
    bias_shift: float
    n: float


def _statistic(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix,
               estimator: str) -> float:
    """The unscaled squared distance correlation estimate named by ``estimator``."""
    return (dcor2_mle if estimator == "mle" else dcor2_unbiased)(t, dx, dy)


def _test_result(ns: NullSpectrum, statistic: float, estimator: str,
                 n: float) -> TestResult:
    """Analytic p-value of ``statistic`` (``n`` times the estimate) under ``ns``."""
    norm_const = ns.normalizer()
    weights = np.outer(ns.lambdas, ns.mus).ravel() / norm_const
    if estimator == "unbiased":
        threshold = statistic
    else:
        threshold = statistic - ns.bias_shift / norm_const
    p, method = _weighted_chisq_sf_impl(weights, threshold)
    return TestResult(
        statistic=float(statistic),
        estimator=estimator,
        p_value=p,
        method=method,
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
    (checked, like ``y``, by the caller's tabulation) and a map from each
    estimator to its unscaled estimate on the unpermuted table.  Replicate
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
    point = _statistic(t, dx, dy, estimator)
    info = alt_inference(t.to_distribution(), dx, dy)
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) * np.sqrt(info.asymp_var / t.n)
    lo, hi = point - half, point + half
    if estimator == "mle":
        lo, hi = max(lo, 0.0), min(hi, 1.0)
    return float(lo), float(hi)
