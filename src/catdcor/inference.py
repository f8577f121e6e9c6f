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

The spectra, tails and variances are computed on stacks, as the
estimators are: margins with equal numbers of categories share one
``eigvalsh`` call (:func:`_margin_laws`), tails with equal numbers of
weights share each pass of the contour (:func:`_tails`), and the
variances of a stack of tables come from one pass (:func:`_alt_many`).
The stacks do not raise; each entry carries its value or its error, and
the public functions are stacks of one that raise it.  :func:`_test_many`
runs them all for ``catdcor test`` and raises each variable's error.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterator

import numpy as np

from .encodings import DistanceMatrix
from .estimators import JointTable
from .estimators import _dcor2 as _statistic  # the unscaled estimate named by ``estimator``
from .exceptions import (
    ConfigurationError,
    DegenerateCategoryError,
    DegenerateDistributionError,
    DegenerateMarginError,
    DistributionError,
    InsufficientReplicatesError,
    InternalConsistencyError,
    ShapeError,
    _warn,
)
from .measures import (_BLOCK, _DEGENERATE_TOL, JointDistribution, _checked_marginal,
                       _dvar2_many, _require_estimator, _require_nondegenerate,
                       _require_u_sample, _score_pairs, _tabulate, _tabulated, dcov2)

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


def _surrogate(marginal: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Symmetric matrices sharing the nonzero eigenvalues of the Q matrices.

    One for each row of ``marginal`` (S, M), against one distance matrix
    ``d`` (M, M) or a stack of them (S, M, M).  Double-centers the
    distances under the marginal weights and symmetrizes with
    sqrt-probability scaling; the rank-one difference from Q lies in Q's
    kernel, so the nonzero spectra coincide while this form is guaranteed
    real-diagonalizable.
    """
    dbar = (d @ marginal[..., None])[..., 0]
    grand = np.vecdot(marginal, dbar)
    centered = d - dbar[..., :, None] - dbar[..., None, :] + grand[..., None, None]
    sqrt_m = np.sqrt(marginal)
    return centered * (sqrt_m[..., :, None] * sqrt_m[..., None, :])


def spectrum(marginal, d: DistanceMatrix) -> np.ndarray:
    """The I-1 informative eigenvalues of the Q matrix for one margin.

    Computed from the symmetric surrogate (real spectrum, deterministic
    ordering); the structural zero eigenvalue is identified as the
    smallest-magnitude one, verified against ``1e-9`` times the spectral
    radius, and dropped.  Returned sorted by decreasing magnitude, signs
    preserved.
    """
    return _raised(_margin_laws([_positive_marginal(marginal, d)], [d.d])[0])[0]


def _margin_laws(marginals: list, dists: list) -> list:
    """The law of each marginal against its distance matrix, without warning or raising.

    ``marginals`` hold checked vectors and ``dists`` the arrays of their
    distance matrices.  Each entry is ``(dropped, law)``: the number of
    zero categories dropped, and the spectrum and mean distance of the
    kept ones or the error :func:`_raised` raises.
    """
    kept, sizes = [], {}
    for s, (m, d) in enumerate(zip(marginals, dists)):
        dropped = 0
        if not m.min() > 0.0:
            keep = m > 0.0
            m, d, dropped = m[keep], d[np.ix_(keep, keep)], len(m) - int(keep.sum())
        kept.append((dropped, m, d))
        sizes.setdefault(len(m), []).append(s)
    laws = [(dropped, DegenerateMarginError("fewer than two observed categories on a margin"))
            for dropped, _, _ in kept]
    for members in (members for size, members in sizes.items() if size >= 2):
        m = np.array([kept[s][1] for s in members])
        d = np.array([kept[s][2] for s in members])
        eigvals = np.linalg.eigvalsh(_surrogate(m, d))
        magnitude = np.abs(eigvals)
        # Decreasing magnitude, ties in eigvalsh order: the last is the structural zero.
        ranked = eigvals[np.arange(len(members))[:, None],
                         np.argsort(-magnitude, axis=1, kind="stable")]
        means = np.vecdot(m, (m[:, None, :] @ d)[:, 0, :]).tolist()
        for s, values, zero, radius, mean in zip(members, ranked[:, :-1], ranked[:, -1],
                                                 magnitude.max(axis=1).tolist(), means):
            laws[s] = (kept[s][0], (values, mean) if abs(zero) <= _EIG_ZERO_REL * radius else
                       InternalConsistencyError(
                           f"expected one structural zero eigenvalue, smallest magnitude is "
                           f"{float(zero)!r} against spectral radius {radius!r}"))
    return laws


def _raised(entry: tuple):
    """The law of a :func:`_margin_laws` entry, after its warning, or its error raised."""
    dropped, law = entry
    if dropped:
        _warn(f"dropping {dropped} zero-count categor{'y' if dropped == 1 else 'ies'} "
              "before building the null spectrum")
    if isinstance(law, Exception):
        raise law
    return law


def _null_law(row_law: tuple, col_law: tuple) -> NullSpectrum:
    """The null spectrum of a row and a column margin's law."""
    (lambdas, mean_x), (mus, mean_y) = row_law, col_law
    return NullSpectrum(lambdas, mus, mean_x * mean_y,
                        float(np.sum(lambdas**2)), float(np.sum(mus**2)))


def null_spectrum(row_marginal, col_marginal,
                  dx: DistanceMatrix, dy: DistanceMatrix) -> NullSpectrum:
    """Null-law ingredients for given marginals and distance matrices.

    Zero-probability categories are dropped (with a warning) before the
    eigenvalue computation, which requires strictly positive mass.  Both
    sides are one :func:`_margin_laws` call; the row side warns and fails
    first.
    """
    row = _checked_marginal(row_marginal, dx)
    try:
        col = _checked_marginal(col_marginal, dy)
    except ShapeError:
        _raised(_margin_laws([row], [dx.d])[0])
        raise
    row_law, col_law = _margin_laws([row, col], [dx.d, dy.d])
    return _null_law(_raised(row_law), _raised(col_law))


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


def _sinh_nodes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``2 sinh(v / _SP_SINH)`` and ``cosh(v / _SP_SINH)``, the map's Jacobian, at the points ``v``."""
    grow = np.exp(v / _SP_SINH)
    shrink = 1.0 / grow
    return grow - shrink, 0.5 * (grow + shrink)


# The first pass's nodes: (0, _SP_V] at step _SP_H / 2.
_FIRST_PASS = _sinh_nodes(0.5 * _SP_H * np.arange(1, round(_SP_V / (0.5 * _SP_H)) + 1))


def _saddle(w: np.ndarray, quantile: list, upper: list) -> list:
    """Root of ``g(s) = sum_k w_k s / (1 - 2 w_k s) - quantile s - 1`` for each row of ``w``.

    ``w`` is a stack (T, K) with a quantile each; the root is above 0 where
    ``upper`` holds and below 0 elsewhere.  ``g(s) = s (K'(s) - quantile)
    - 1`` vanishes where ``K(s) - s quantile - log|s|`` is stationary;
    ``K`` is the cumulant generating function, finite between the poles
    ``1 / (2 w_min)`` (for a negative weight) and ``1 / (2 w_max)``.
    There ``g`` is convex, ``g'' = sum 4 w_k^2 / (1 - 2 w_k s)^3``, with
    ``g(0) = -1``, so it has at most one root on each side of 0 (the
    caller asks for a side that has one), and Newton's method started
    where ``g >= 0`` moves monotonically onto the root without leaving the
    interval.  The chord from ``(s, g(s))`` to ``(0, -1)`` lies above
    ``g``, so the root is within ``|s| g / (1 + g)`` of ``s``; a row stops
    when that is at most ``_SP_SADDLE_TOL`` times the width
    ``phi''^(-1/2)``, with ``phi'' = g' / s`` as at the root.  Each Newton
    step evaluates ``g`` and ``g'`` of every row in one pass over the
    stack; a row that has stopped is frozen, so it takes the steps it
    would take alone.

    Above 0 the start is the smaller positive root of ``a s^2 + b s - 1``
    for two lower bounds of ``g``: the largest weight's term plus ``w s``
    for every other weight, and, when every weight is positive, Jensen's
    inequality ``sum w_k / (1 - 2 w_k s) >= sum w / (1 - 2 wbar s)`` for
    the mean weight ``wbar = sum w^2 / sum w``.  Below 0 every term is at
    least -1/2, so ``g >= 0`` at ``-(K/2 + 1) / quantile``; when that
    point lies past the negative pole, or the quantile is 0, the start
    moves from halfway to the pole toward it until ``g >= 0``.
    """
    w2 = w + w
    s = []
    for i, (q, up, total, top, low, sq) in enumerate(zip(quantile, upper, *(
            v.tolist() for v in (np.add.reduce(w, 1), np.maximum.reduce(w, 1),
                                 np.minimum.reduce(w, 1), np.vecdot(w, w))))):
        if up:
            rest = q - total + top
            bounds = [(2.0 * top * rest, 3.0 * top - rest)]
            if low > 0.0:
                wbar = sq / total
                bounds.append((2.0 * wbar * q, total + 2.0 * wbar - q))
            start = math.inf
            for a, b in bounds:
                root = math.hypot(b, 2.0 * math.sqrt(a))
                start = min(start, (root - b) / (2.0 * a) if b < 0.0 else 2.0 / (b + root))
        else:
            pole = 0.5 / low if low < 0.0 else -math.inf
            start = -(0.5 * w.shape[1] + 1.0) / q if q > 0.0 else -math.inf
            if start <= pole:
                start = 0.5 * pole
                while start * (float(w[i] @ (1.0 / (1.0 - w2[i] * start))) - q) < 1.0:
                    start = 0.5 * (start + pole)
        s.append(start)
    live = range(len(s))
    for _ in range(_SP_MAX_NEWTON):
        if not live:
            break
        inv = 1.0 / (1.0 - w2 * np.array([s]).T)
        sums, slopes = np.vecdot(w, inv).tolist(), np.vecdot(w * inv, inv).tolist()
        stepped = []
        for i in live:
            g, slope = s[i] * (sums[i] - quantile[i]) - 1.0, slopes[i] - quantile[i]
            if not g * g * s[i] * slope <= _SP_SADDLE_TOL * _SP_SADDLE_TOL:
                s[i] -= g / slope
                stepped.append(i)
        live = stepped
    return s


def _contour_sf(w: np.ndarray, quantile: list, upper: list) -> list:
    """P(sum w_k Z_k^2 > quantile) for each row of ``w`` (max|w| = 1, quantile >= 0), through the saddle point.

    ``w`` is a stack (T, K) of tails with K weights each, and ``upper``
    says whether a row's quantile exceeds its mean ``sum w``.  With
    ``K(s) = -1/2 sum log(1 - 2 w_k s)``, the integral ``(1/(2 pi i)) int
    exp(K(s) - s quantile) ds / s`` up the line ``Re s = c`` is the tail
    for ``0 < c < 1/(2 w_max)`` and the tail minus one for ``1/(2 w_min) <
    c < 0``, whatever the signs of the weights (Rice 1980).  ``c`` is the
    saddle point (:func:`_saddle`), above 0 for an upper tail, so the lower
    tail comes out as the complement without cancellation.  The line is
    bent into ``s = c + alpha t^2 / sqrt(1 + (alpha t / m)^2) + i t``, ``m
    = _SP_SLOPE``: a parabola near ``c`` and rays far out.  It meets the
    real axis, where the singularities lie, only at ``c``, and the rays
    keep it at a fixed angle from the branch points of small weights far
    to the right, which a parabola approaches.  With ``phi(s) = K(s) - s
    quantile - log|s|``, ``sigma = phi''(c)^(-1/2)`` is the saddle's width
    and ``alpha`` the curvature ``phi'''(c) / (6 phi''(c))`` of the
    steepest-descent path at ``c``, raised to the floor above.  The map
    ``t = sigma a sinh(v / a)`` is linear near the saddle and exponential
    far out, where the integrand of a quantile near 0 decays only like a
    power of ``t`` (Takahasi & Mori 1974).  By conjugate symmetry the
    integral is ``(1/pi) int_0^inf Im[...] dt``.  ``exp(K(c) - c
    quantile)`` is factored out, so tails near 1e-300 keep their relative
    accuracy.  Each row keeps its own stop rule, so no row depends on
    the others.  A row is NaN where the saddle point leaves the
    floating-point range, the integrand has not decayed by ``v =
    _SP_V_MAX`` or the step halvings do not converge.
    """
    p = [math.nan] * len(w)
    c = _saddle(w, quantile, upper)
    d = 1.0 - 2.0 * w * np.array([c]).T
    # Off the floating-point range the saddle has the wrong sign or passes a pole.
    rows = [i for i, (ci, d_min) in enumerate(zip(c, np.minimum.reduce(d, 1).tolist()))
            if math.isfinite(ci) and (ci > 0.0) == upper[i] and d_min > 0.0]
    w, d = w[rows], d[rows]
    beta = 2.0 * w / d  # K^(n)(c) = (n - 1)! / 2 * sum beta^n
    kept, sigma, alpha, log_scale = [], [], [], []
    for j, (i, b2, b3, log_d) in enumerate(zip(rows, np.vecdot(beta, beta).tolist(),
                                               np.vecdot(beta, beta * beta).tolist(),
                                               np.add.reduce(np.log(d), 1).tolist())):
        ci = c[i]
        phi2 = 0.5 * b2 + 1.0 / (ci * ci)
        phi3 = b3 - 2.0 / (ci * ci * ci)
        if 0.0 < phi2 < math.inf and math.isfinite(phi3):  # else a quantile at the range's edge
            kept.append(j)
            sigma.append(1.0 / math.sqrt(phi2))
            alpha.append(max(phi3 / (6.0 * phi2), _SP_CURVE_MIN / sigma[-1]))
            log_scale.append(-0.5 * log_d - ci * quantile[i])
    rows, beta = [rows[j] for j in kept], beta[kept]
    c, quantile = [c[i] for i in rows], [quantile[i] for i in rows]
    x0, q0, t0, a0 = np.array([c, quantile, [0.5 * v * _SP_SINH for v in sigma], alpha])[..., None]

    def integrand(nodes: tuple, of) -> tuple[np.ndarray, np.ndarray]:
        """Im and modulus of ``exp(K(s) - K(c) - (s - c) quantile) s'(t) / s`` at ``nodes``, rows ``of``.

        Times the Jacobian ``dt / (sigma dv)``, in real arithmetic: each
        ``1 - beta_k (s - c)`` is ``re - i im``.
        """
        spread, jacobian = nodes
        t = t0[of] * spread
        at = a0[of] * t
        unbend = _SP_SLOPE / np.hypot(_SP_SLOPE, at)
        lean = at * unbend
        shift = lean * t  # Re(s - c)
        slope = lean * (1.0 + unbend * unbend)  # d Re(s) / dt
        im = t[:, :, None] * beta[of, None, :]
        re = 1.0 - lean[:, :, None] * im
        log_mod = np.add.reduce(np.log(re * re + im * im), 2)
        phase = 0.5 * np.add.reduce(np.arctan2(im, re), 2) - q0[of] * t
        # s'(t) / s = (slope + i) / (x + i t) = (num_re + i num_im) / |s|^2
        x = x0[of] + shift
        num_re = slope * x + t
        num_im = x - slope * t
        scale = jacobian * np.exp(-0.25 * log_mod - q0[of] * shift) / (x * x + t * t)
        return (scale * (num_re * np.sin(phase) + num_im * np.cos(phase)),
                scale * np.hypot(num_re, num_im))

    h = 0.5 * _SP_H
    n = round(_SP_V / h)
    values, modulus = integrand(_FIRST_PASS, slice(None))
    total = [0.5 / cj + v for cj, v in zip(c, np.add.reduce(values, 1).tolist())]
    odd = np.add.reduce(values[:, 1::2], 1).tolist()  # the rule with step _SP_H
    longer = [j for j, m in enumerate(modulus[:, -1].tolist()) if m > _SP_TRIM * abs(total[j])]
    while longer and n * h < _SP_V_MAX:
        more, more_modulus = integrand(_sinh_nodes(h * np.arange(n + 1, 2 * n + 1)), longer)
        modulus = np.concatenate([modulus, np.zeros_like(modulus)], axis=1)
        modulus[longer, n:] = more_modulus
        for j, v, v_odd in zip(longer, np.add.reduce(more, 1).tolist(),
                               np.add.reduce(more[:, (n + 1) % 2::2], 1).tolist()):
            total[j] += v
            odd[j] += v_odd
        n *= 2
        longer = [j for j, m in zip(longer, more_modulus[:, -1].tolist())
                  if m > _SP_TRIM * abs(total[j])]
    # The rows left in ``longer`` have not decayed by _SP_V_MAX.
    estimate = [2.0 * h * (0.5 / cj + v) for cj, v in zip(c, odd)]
    halving = [j for j in range(len(rows)) if j not in longer]
    for step in range(_SP_MAX_HALVINGS):
        if not halving:
            break
        if step == 1:  # later passes stop one node past the last node above the trim
            end = {}
            for j in halving:
                live = np.flatnonzero(modulus[j] > _SP_TRIM * abs(total[j]))
                end[j] = h * (live[-1] + 2 if live.size else 1)
        if step:
            h *= 0.5
            count = {j: int(end[j] / h) for j in halving}
            for m in set(count.values()):  # the rows with m nodes, as one stack
                group = [j for j in halving if count[j] == m]
                more = integrand(_sinh_nodes(h * np.arange(1, m + 1, 2)), group)[0]
                for j, v in zip(group, np.add.reduce(more, 1).tolist()):
                    total[j] += v
        previous = [estimate[j] for j in halving]
        for j in halving:
            estimate[j] = h * total[j]
        halving = [j for j, old in zip(halving, previous)
                   if not abs(estimate[j] - old) <= _SP_RTOL * abs(estimate[j])]
    for j, i in enumerate(rows):
        # The sign of the tail, or of the tail minus one; the rows left in
        # ``halving`` have not converged.
        if j not in halving and j not in longer and estimate[j] * c[j] > 0.0:
            tail = math.exp(log_scale[j] + math.log(abs(estimate[j]) * sigma[j] / math.pi))
            p[i] = min(tail, 1.0) if upper[i] else max(1.0 - tail, 0.0)
    return p


def _tails(cases: list) -> list:
    """:func:`weighted_chisq_sf` of each ``(weights, x)`` pair, without raising.

    Each entry is the tail or the error the public call raises.  Tails
    that take the contour run in one stack per weight count.
    """
    out: list = [None] * len(cases)
    stacks: dict[int, list] = {}
    for i, (weights, x) in enumerate(cases):
        w = np.asarray(weights, dtype=float).ravel()
        w = w[w != 0.0]
        x = float(x)
        quantile = x + float(w.sum())
        if not math.isfinite(quantile):
            out[i] = DistributionError(
                f"weights, their sum and x must be finite, got {w.tolist()!r} and {x!r}")
        elif w.size == 0:
            out[i] = DegenerateDistributionError(
                "the weighted chi-squared law needs at least one nonzero weight")
        elif w.size == 1:
            # Single component: exact chi-squared tail.
            q = 1.0 + x / w[0]
            if w[0] > 0.0:
                out[i] = 1.0 if q <= 0.0 else math.erfc(math.sqrt(0.5 * q))
            else:
                out[i] = 0.0 if q <= 0.0 else math.erf(math.sqrt(0.5 * q))
        else:
            low, high = float(w.min()), float(w.max())
            # The tail is scale-free; a negative quantile is mirrored,
            # P(S > q) = 1 - P(-S > -q).
            scale = -max(high, -low) if quantile < 0.0 else max(high, -low)
            w_scaled, q = w / scale, quantile / scale
            upper = q > float(w_scaled.sum())
            # Same-sign weights pin the support to a half line; outside it
            # the answer is exact.  Beyond its Chernoff bound at s = 1/4,
            # exp(K(1/4) - q / 4) with K(1/4) < K, a tail underflows.
            if low > 0.0 and quantile <= 0.0:
                out[i] = 1.0
            elif high < 0.0 and quantile >= 0.0:
                out[i] = 0.0
            elif upper and 0.25 * q > w.size - _LOG_UNDERFLOW:
                out[i] = 1.0 if scale < 0.0 else 0.0
            else:
                stacks.setdefault(w.size, []).append((i, w, quantile, scale, w_scaled, q, upper))
    for stack in stacks.values():
        index, w, quantile, scale, w_scaled, q, upper = zip(*stack)
        for i, w_i, q_i, scale_i, p in zip(index, w, quantile, scale,
                                           _contour_sf(np.array(w_scaled), q, upper)):
            if math.isnan(p):
                out[i] = InternalConsistencyError(
                    f"the saddle-point contour did not converge for weights {w_i.tolist()!r} "
                    f"at quantile {q_i!r}")
            else:
                out[i] = 1.0 - p if scale_i < 0.0 else p
    return out


def weighted_chisq_sf(weights, x: float) -> float:
    """P(sum_k w_k (Z_k^2 - 1) > x) for independent standard normals.

    Weights may be signed; zero weights are dropped, and a weight, their
    sum or ``x`` that is not finite raises :class:`DistributionError`.
    One weight gives the exact chi-squared tail, ``erfc(sqrt(q / 2))`` at
    ``q = 1 + x / w`` (``erf`` for a negative weight).  Two or more
    weights, of any signs, take a trapezoid rule on a contour through the
    saddle point (:func:`_contour_sf`, here on a stack of one), stopped
    when successive estimates agree to 1e-12 relative: about 1e-12
    relative accuracy down to tails near 1e-300, and on the side of the
    mean where p is near 1 it computes 1 - p directly, so p keeps full
    accuracy there.  A negative uncentered quantile ``q = x + sum w`` is
    mirrored, ``P(S > q) = 1 - P(-S > -q)``; a tail below the
    floating-point range is 0.  An input the rule cannot resolve raises
    :class:`InternalConsistencyError`.
    """
    (p,) = _tails([(weights, x)])
    if isinstance(p, Exception):
        raise p
    return p


# ---------------------------------------------------------------------------
# Independence tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    """Outcome of an independence test on one contingency table.

    ``method`` is ``"imhof"`` for every analytic tail, whichever route
    :func:`weighted_chisq_sf` took: the ``erfc`` of one weight, the
    support bound of same-sign weights, the Chernoff zero or the contour.
    The tag is fixed, so report bytes do not depend on the route.
    """

    statistic: float
    estimator: str
    p_value: float
    method: str
    lambdas: np.ndarray
    mus: np.ndarray
    bias_shift: float
    n: float


def _tail_cases(ns: NullSpectrum, statistics: dict[str, float]) -> dict[str, tuple]:
    """The ``(weights, x)`` of each estimator's analytic tail under ``ns``.

    ``statistics`` maps each estimator to ``n`` times its estimate.  The
    estimators share one weight vector; the plug-in threshold is shifted
    by ``B``.
    """
    norm_const = ns.normalizer()
    weights = np.outer(ns.lambdas, ns.mus).ravel() / norm_const
    return {kind: (weights, value if kind == "unbiased" else value - ns.bias_shift / norm_const)
            for kind, value in statistics.items()}


def independence_test(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix,
                      estimator: str = "unbiased") -> TestResult:
    """Analytic independence test based on the asymptotic null law.

    The statistic is ``n`` times the chosen squared distance correlation
    estimate.  Its null distribution is the normalized weighted sum of
    centered chi-squares with weights ``lambda_i mu_j`` estimated from the
    sample marginals; the plug-in variant adds the shift ``B``.
    """
    _require_estimator(estimator)
    ns = null_spectrum(t.row_counts / t.n, t.col_counts / t.n, dx, dy)
    ns.normalizer()  # zero total weight fails before the statistic
    statistic = t.n * _statistic(t, dx, dy, estimator)
    return TestResult(
        statistic=float(statistic),
        estimator=estimator,
        p_value=weighted_chisq_sf(*_tail_cases(ns, {estimator: statistic})[estimator]),
        method="imhof",
        lambdas=ns.lambdas,
        mus=ns.mus,
        bias_shift=ns.bias_shift,
        n=t.n,
    )


def null_pvalue_unbiased(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Analytic p-value for the bias-corrected statistic."""
    return independence_test(t, dx, dy, estimator="unbiased").p_value


def null_pvalue_mle(t: JointTable, dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Analytic p-value for the plug-in statistic (shifted null law)."""
    return independence_test(t, dx, dy, estimator="mle").p_value


def _require_replicates(reps: int) -> None:
    if not isinstance(reps, numbers.Integral):
        raise ConfigurationError(f"permutation test replicates must be an integer, got {reps!r}")
    if reps < 99:
        raise InsufficientReplicatesError(
            f"permutation test needs at least 99 replicates, got {reps}"
        )
    if reps > 2**32:
        raise ConfigurationError(f"permutation test takes at most 2**32 replicates, got {reps}")


def _require_seed(seed) -> None:
    """Seeds key ``numpy.random.default_rng``: a non-negative integer or a tuple of them."""
    entries = seed if isinstance(seed, tuple) else (seed,)
    if not entries or not all(isinstance(v, numbers.Integral) and v >= 0 for v in entries):
        what = ("a tuple of non-negative integers" if isinstance(seed, tuple)
                else "a non-negative integer")
        raise ConfigurationError(f"seed must be {what}, got {seed!r}")


# Replicates drawn and scored together: at most _CELLS cells of draws (chunk, n)
# and 128 x n cells of one run's joint tables, but never under _BLOCK
# replicates; test_permutation's 999 x 500 draws are one chunk.
_CELLS = 1 << 19
# Runs of permuted variables share one bincount while their joint has at most this many cells.
_JOINT = 64
# Replicates whose fixed-margin value is within this share of the largest T1 of
# the observed one are rescored: the two forms differ by about 1e-15 of it.
_BAND = 1e-9
# numpy's SeedSequence constants (hash A, hash B, mix) and PCG64's multiplier.
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX = (0xCA01F9DD, 0x4973F715)
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _hashmix(value: np.ndarray, hashing: list) -> np.ndarray:
    """SeedSequence's hash of uint32 ``value``; advances ``hashing = [constant, multiplier]``."""
    value = value ^ hashing[0]
    hashing[0] = hashing[0] * hashing[1] & 0xFFFFFFFF
    value = value * hashing[0]
    return value ^ value >> 16


def _seed_words(seed, start: int, stop: int) -> list[list[int]]:
    """``SeedSequence((seed, r)).generate_state(4, np.uint64)`` for ``start <= r < stop``.

    numpy's algorithm on uint32 arrays, one entry per replicate; ``r < 2**32`` is one word.
    """
    words = [int(v) >> shift & 0xFFFFFFFF for v in (seed if isinstance(seed, tuple) else (seed,))
             for shift in range(0, max(int(v).bit_length(), 1), 32)]
    rep = np.arange(start, stop, dtype=np.uint32)
    entropy, hashing = [np.full_like(rep, w) for w in words] + [rep], list(_HASH_A)
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0 * rep, hashing) for i in range(4)]
    # Each pool word into every other, then each entropy word past the pool into all four.
    sources = [(pool, src, dst) for src in range(4) for dst in range(4) if src != dst]
    sources += [(entropy, src, dst) for src in range(4, len(entropy)) for dst in range(4)]
    for source, src, dst in sources:
        mixed = pool[dst] * _MIX[0] - _hashmix(source[src], hashing) * _MIX[1]
        pool[dst] = mixed ^ mixed >> 16
    hashing = list(_HASH_B)
    state = np.array([_hashmix(pool[i % 4], hashing) for i in range(8)], dtype=np.uint64)
    return (state[0::2] | state[1::2] << 32).T.tolist()


def _keyed_draws(y: np.ndarray, seed, start: int, stop: int) -> np.ndarray:
    """Rows ``default_rng((seed, r)).permutation(y)`` for ``start <= r < stop``.

    One ``PCG64``, seeded from each replicate's words as ``pcg64_set_seed`` does, shuffles
    a copy of ``y``.  The draws do not depend on the item size, so the rows are stored in
    the smallest unsigned type that holds ``y``.
    """
    bits = np.random.PCG64(0)
    shuffle = np.random.Generator(bits).shuffle
    row = np.empty(len(y), dtype=np.int64)  # 8-byte items take the fastest shuffle
    drawn = np.empty((stop - start, len(y)), dtype=np.min_scalar_type(int(y.max(initial=0))))
    for out, (s_hi, s_lo, i_hi, i_lo) in zip(drawn, _seed_words(seed, start, stop)):
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        row[:] = y
        shuffle(row)
        out[:] = row
    return drawn


def _fixed_margin_sums(tables: np.ndarray, dx: np.ndarray,
                       dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T1, T2) of a stack ``(R, I, J)`` sharing both margins, without an ``(IJ)^2`` matrix."""
    flat = tables.reshape(len(tables), -1)
    weights = np.outer(dx @ tables[0].sum(axis=1), dy @ tables[0].sum(axis=0))
    inner = dx @ (tables.reshape(-1, tables.shape[2]) @ dy).reshape(tables.shape)
    return np.einsum("ri,ri->r", flat, inner.reshape(flat.shape)), flat @ weights.ravel()


def _grouped_tables(groups: list, cols: int, rows: np.ndarray) -> Iterator[np.ndarray]:
    """Each variable's tables ``(R, I, cols)`` against the rows ``(R, n)`` of ``rows``, in order.

    A run in ``groups``, a list of ``(x, dx, observed)``, is tabulated once by
    :func:`_tabulate`, its joint code shared by every row.  Each variable sums out the
    others of the run by einsum; alone, it is a view of the run's tables.
    """
    for group in groups:
        sizes = [dx.n_categories for _, dx, _ in group]
        code = np.ravel_multi_index([x for x, _, _ in group], sizes) * cols
        joint = _tabulate(rows, 1, code, (*sizes, cols))
        yield from (np.einsum(joint, [*range(joint.ndim)], [0, v, joint.ndim - 1])
                    for v in range(1, joint.ndim - 1))


def _permutation_pvalues(y: np.ndarray, dy: DistanceMatrix, variables: list,
                         reps: int, seed: int) -> list[dict[str, float]]:
    """Permutation p-values of several variables against one response.

    ``variables`` holds one ``(x, dx, observed)`` per variable: its codes
    (checked, like ``y``, by the caller, at ingest or by its tabulation)
    and a map from each estimator to its unscaled estimate on the
    unpermuted table, which is not degenerate.  Replicate ``rep`` permutes
    ``y`` with ``default_rng((seed, rep))``.  Runs of variables whose joint
    table has at most ``_JOINT`` cells (or one wider variable) share one
    ``np.bincount`` per ``_BLOCK`` draws; the unpermuted tables are made once.
    Permuting keeps both margins, so each replicate's estimate is an
    increasing affine function of ``T1 - 2 T2 / m``, with ``m = n`` for the
    plug-in estimator and ``n - 2`` for the other (the sums of
    :mod:`catdcor.measures`).  A replicate whose value is clearly above or
    below the observed table's is counted from it.  The rest, inside
    ``_BAND`` times the largest T1, and every replicate when the plug-in
    observed estimate is clamped at 0, are rescored by ``_score_pairs``,
    the kernel that computed ``observed``, so it decides every close call.
    """
    n, cols = float(len(y)), dy.n_categories
    exceed = [dict.fromkeys(observed, 0) for _, _, observed in variables]
    groups, cells = [], []  # runs of variables, the cells of each run's joint table
    for variable in variables:
        if not groups or cells[-1] * variable[1].n_categories > _JOINT:
            groups.append([])
            cells.append(cols)
        groups[-1].append(variable)
        cells[-1] *= variable[1].n_categories
    chunk = max(_BLOCK, min(_CELLS // len(y), _BLOCK * len(y) // max(cells, default=1)))
    sums = [_fixed_margin_sums(table, dx.d, dy.d) for (_, dx, _), table
            in zip(variables, _grouped_tables(groups, cols, y[None]))]
    for first in range(0, reps, chunk):
        drawn = _keyed_draws(y, seed, first, min(first + chunk, reps))
        for (_, dx, observed), counts, (t1_obs, t2_obs), tables in zip(
                variables, exceed, sums, _grouped_tables(groups, cols, drawn)):
            t1, t2 = _fixed_margin_sums(tables, dx.d, dy.d)
            band = _BAND * max(t1.max(), t1_obs[0])
            gaps, near = {}, np.zeros(len(tables), dtype=bool)
            for kind, value in observed.items():
                gaps[kind] = t1 - t1_obs - 2.0 * (t2 - t2_obs) / (n if kind == "mle" else n - 2.0)
                near |= (np.abs(gaps[kind]) <= band) | (kind == "mle" and value <= 0.0)
            for kind, gap in gaps.items():
                counts[kind] += int(np.count_nonzero(gap[~near] > 0.0))
            if near.any():
                scores = _score_pairs(tables[near], n, [(dx, dy, kind) for kind in observed])
                for (kind, value), (values, _) in zip(observed.items(), scores):
                    counts[kind] += int(np.count_nonzero(values >= value))
    return [{kind: (1.0 + c) / (reps + 1.0) for kind, c in counts.items()}
            for counts in exceed]


def permutation_test(x, y, dx: DistanceMatrix, dy: DistanceMatrix,
                     estimator: str = "unbiased", reps: int = 999,
                     seed: int = 0) -> float:
    """Permutation p-value from shuffling the second variable's labels.

    ``x`` and ``y`` are integer-coded samples.  Each replicate draws an
    independent uniform permutation from a generator keyed by
    ``(seed, replicate index)``, so results are reproducible and do not
    depend on any execution ordering; ``seed`` must be non-negative and
    ``reps`` from 99 to 2**32.  The p-value is
    ``(1 + #{permuted statistic >= observed}) / (reps + 1)``.
    """
    _require_replicates(reps)
    _require_seed(seed)
    _require_estimator(estimator)
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
    ``asymp_var`` is the variance of ``sqrt(n)`` times the estimated
    squared distance correlation around its population value, from the
    full delta method applied to the covariance-over-variances ratio
    (both the numerator and the two variance estimates contribute).
    ``p`` is the joint distribution they were evaluated at; ``sigma``, the
    multinomial covariance of its scaled cell proportions, an (IJ, IJ)
    matrix, is built when read.
    """

    dprime: np.ndarray
    p: JointDistribution
    asymp_var: float

    @property
    def sigma(self) -> np.ndarray:
        return multinomial_sigma(self.p)


def _dvar2_gradients(marginal: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Gradient of dvar2 with respect to the marginal probabilities, for each row of ``marginal``."""
    dbar = (d @ marginal[..., None])[..., 0]
    sq_term = 2.0 * ((d * d) @ marginal[..., None])[..., 0]
    return (sq_term - 2.0 * dbar**2 - 4.0 * (d @ (marginal * dbar)[..., None])[..., 0]
            + 4.0 * np.vecdot(marginal, dbar)[:, None] * dbar)


def _alt_many(pi: np.ndarray, dx: DistanceMatrix, dy: DistanceMatrix
              ) -> tuple[np.ndarray, np.ndarray]:
    """Half gradients of dcov2 and delta-method variances of a stack of joint tables (S, I, J).

    Computed without raising: the variance of a table with a degenerate
    margin is NaN.  With ``g`` the gradient of the correlation ratio and
    ``Sigma = diag(pi) - pi pi^T``, the variance ``g^T Sigma g`` is
    ``sum pi g^2 - (sum pi g)^2``, clamped at 0.
    """
    row, col = pi.sum(axis=2), pi.sum(axis=1)
    var_x = _dvar2_many(row, 1.0, dx.d, "mle")
    var_y = _dvar2_many(col, 1.0, dy.d, "mle")
    degenerate = (var_x <= _DEGENERATE_TOL) | (var_y <= _DEGENERATE_TOL)
    var_x, var_y = (np.where(degenerate, 1.0, v)[:, None, None] for v in (var_x, var_y))
    delta = pi - row[:, :, None] * col[:, None, :]
    dbar_x = (dx.d @ row[..., None])[..., 0]
    dbar_y = (dy.d @ col[..., None])[..., 0]
    core = dx.d @ delta @ dy.d
    row_part = dx.d @ (delta @ dbar_y[..., None])
    col_part = dy.d @ (delta.transpose(0, 2, 1) @ dbar_x[..., None])
    dprime = core - row_part - col_part.transpose(0, 2, 1)
    denom = np.sqrt(var_x * var_y)
    ratio = np.maximum(np.sum(delta * core, axis=(1, 2)), 0.0)[:, None, None] / denom
    # d/dpi_ij of cov/sqrt(VX VY): the covariance gradient is 2*dprime and
    # each variance enters through its own marginal.
    grad = 2.0 * dprime / denom - ratio * (_dvar2_gradients(row, dx.d)[:, :, None] / (2.0 * var_x)
                                           + _dvar2_gradients(col, dy.d)[:, None, :] / (2.0 * var_y))
    mean = np.sum(pi * grad, axis=(1, 2))
    asymp_var = np.maximum(np.sum(pi * grad * grad, axis=(1, 2)) - mean * mean, 0.0)
    return dprime, np.where(degenerate, np.nan, asymp_var)


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
    law instead).  A stack of one of the variances ``catdcor test``
    scores per encoding group.
    """
    _checked_marginal(p.row_marginal, dx)
    _checked_marginal(p.col_marginal, dy)
    dprime, asymp_var = _alt_many(p.pi[None], dx, dy)
    if np.isnan(asymp_var[0]):
        raise DegenerateMarginError("distance variance is zero on at least one margin")
    dcov2(p, dx, dy)  # raises for a covariance below rounding noise
    return AltInference(dprime=dprime[0], p=p, asymp_var=float(asymp_var[0]))


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
        raise ConfigurationError("confidence level must lie strictly between 0 and 1")
    _require_estimator(estimator)
    point = _statistic(t, dx, dy, estimator)
    info = alt_inference(JointDistribution(t.counts / t.n), dx, dy)
    return _interval(point, info.asymp_var, t.n, level, estimator)


def _interval(point: float, asymp_var: float, n: float, level: float,
              estimator: str) -> tuple[float, float]:
    """:func:`confidence_interval` around ``point`` for the variance ``asymp_var`` at total ``n``.

    A NaN variance, that of a degenerate margin, raises.
    """
    if math.isnan(asymp_var):
        raise DegenerateMarginError("distance variance is zero on at least one margin")
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) * np.sqrt(asymp_var / n)
    lo, hi = point - half, point + half
    if estimator == "mle":
        lo, hi = max(lo, 0.0), min(hi, 1.0)
    return float(lo), float(hi)


def _test_many(x: np.ndarray, y: np.ndarray, dists: list, dy: DistanceMatrix, estimator: str,
               pvalue: str, reps: int, seed: int) -> list[dict]:
    """``catdcor test``: each column of ``x`` against ``y``, its report entry without its name.

    Variables are tabulated and scored per encoding group, as in ``screen``:
    the variables that share a distance matrix are tabulated together, then
    scored under both estimators by one call per group, which shares the
    margins and their variances across the group and the centered tables
    across each block of at most 128; the intervals' delta-method
    variances take blocks of at most 128 too.  The variables' sides of the
    null spectrum and the response's come from one :func:`_margin_laws`
    call, one ``eigvalsh`` per matrix size; the analytic tails of all
    variables run in one stack per weight count.  The permutation p-values
    of all variables that need them come after the loop, from one set of
    response permutations, scored once per chunk and variable.  All of this is computed without raising; each
    variable then warns and fails in its turn, in a fixed order: spectrum
    (with its zero-category warning), zero total weight, the ``estimator``
    statistic, the replicate count (permutation only), the other statistic,
    the tail (analytic only), the interval.
    """
    if not dists:
        return []
    n = float(len(y))
    if not n:
        raise DistributionError("empty sample")
    other = "unbiased" if estimator == "mle" else "mle"
    # The bias-corrected stack divides by n - 3, so below n = 4 it is not scored.
    scored = {kind: (np.zeros(len(dists)), np.zeros(len(dists), dtype=bool))
              for kind in (estimator, other) if kind == "mle" or n >= 4}
    rows: list = [None] * len(dists)
    asymp_var = np.zeros(len(dists))
    for dx, group, counts in _tabulated(x, y, dists, dy.n_categories):
        for kind, score in zip(scored, _score_pairs(counts, n, [(dx, dy, k) for k in scored])):
            scored[kind][0][group], scored[kind][1][group] = score
        for s, row in zip(group, counts.sum(axis=2) / n):
            rows[s] = row
        for start in range(0, len(group), _BLOCK):
            block = slice(start, start + _BLOCK)
            asymp_var[group[block]] = _alt_many(counts[block] / n, dx, dy)[1]
    col = np.bincount(y, minlength=dy.n_categories) / n
    *laws, response_law = _margin_laws(rows + [col], [dx.d for dx in dists] + [dy.d])
    # Small-sample guard: the asymptotic law is unreliable when any
    # observed category is rarer than 5/n.
    methods = [pvalue if pvalue == "permutation" or min(row.min(), col.min()) >= 5.0 / n
               else "permutation" for row in rows]
    # The analytic tails of every variable whose earlier steps pass, stacked.
    nulls, cases = [], {}
    for s, (_, law) in enumerate(laws):
        sides = (law, response_law[1])
        nulls.append(None if any(isinstance(v, Exception) for v in sides) else _null_law(*sides))
        if (methods[s] == "analytic" and nulls[s] and nulls[s].dvar_x * nulls[s].dvar_y > 0.0
                and all(kind in scored and not scored[kind][1][s] for kind in (estimator, other))):
            cases[s] = _tail_cases(nulls[s], {kind: n * scored[kind][0][s]
                                              for kind in (estimator, other)})
    found = iter(_tails([case for per in cases.values() for case in per.values()]))
    tails = {s: {kind: next(found) for kind in per} for s, per in cases.items()}

    results = []
    permuted: list[tuple[dict, tuple]] = []  # (p-values to fill, variable)
    for s, dx in enumerate(dists):
        # The variable's side, then the response's.
        _raised(laws[s])
        if s == 0:
            _raised(response_law)
        ns = nulls[s]
        ns.normalizer()
        dcor2 = {}
        for kind in (estimator, other):
            if kind == other and methods[s] == "permutation":
                _require_replicates(reps)
            if kind == "unbiased":
                _require_u_sample(n)
            values, degenerate = scored[kind]
            _require_nondegenerate(degenerate[s])
            dcor2[kind] = float(values[s])
        if methods[s] == "permutation":
            p_values = {}
            permuted.append((p_values, (x[:, s], dx, dcor2)))
        else:
            p_values = tails[s]
            for p in p_values.values():
                if isinstance(p, Exception):
                    raise p
        lo, hi = _interval(dcor2[estimator], asymp_var[s], n, 0.95, estimator)
        results.append({
            "n": n,
            "statistic": {kind: n * value for kind, value in dcor2.items()},
            "p_values": p_values,
            "method": "imhof" if methods[s] == "analytic" else "permutation",
            "lambdas": ns.lambdas,
            "mus": ns.mus,
            "bias_shift": ns.bias_shift,
            "confidence_interval": {"level": 0.95, "estimator": estimator, "lo": lo, "hi": hi},
        })
    if permuted:
        found = _permutation_pvalues(y, dy, [v for _, v in permuted], reps, seed)
        for (p_values, _), values in zip(permuted, found):
            p_values.update(values)
    for entry in results:
        entry["p_value"] = entry["p_values"][estimator]
    return results
