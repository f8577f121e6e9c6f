"""Exact and scalar references for tails of weighted sums of chi-squares.

The package computes the tail of ``sum_k w_k Z_k^2`` for two or more
weights of any signs with a contour integral through the saddle point
(``catdcor.inference._contour_sf``), on stacks of tails that share a
weight count.  ``scalar_chisq_sf`` is the one-tail-at-a-time rule it
replaced (``saddle`` and ``contour_sf``, with the same constants), kept
as the reference the stacked rule must match within 1e-13 relative.  The
other references reach the same
probabilities another way, by one-dimensional convolution with
``scipy.integrate.quad`` and the chi-squared functions of
``scipy.special``, so tests compare the contour with a separate
implementation.  The positive-weight ones return the upper tail, or with
``lower=True`` the lower tail ``P(sum <= q)``, which keeps its relative
accuracy where the upper tail rounds to 1.  All are accurate to about
1e-13 relative, far into the tail.
"""

import math

import numpy as np
from scipy import integrate, special

from catdcor.exceptions import (
    DegenerateDistributionError,
    DistributionError,
    InternalConsistencyError,
)
from catdcor.inference import (
    _LOG_UNDERFLOW,
    _SP_CURVE_MIN,
    _SP_H,
    _SP_MAX_HALVINGS,
    _SP_MAX_NEWTON,
    _SP_RTOL,
    _SP_SADDLE_TOL,
    _SP_SINH,
    _SP_SLOPE,
    _SP_TRIM,
    _SP_V,
    _SP_V_MAX,
)


def _quad(f, end):
    """Integral of ``f`` over [0, end], split at the powers of ten below ``end``.

    The splits let ``quad`` find mass that sits on scales from 1e-12 up,
    and ``epsabs=0`` makes its tolerance relative.
    """
    edges = [0.0] + [10.0 ** k for k in range(-12, 6) if 10.0 ** k < end] + [end]
    return sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


def _chi2_pdf(y, n):
    return math.exp((0.5 * n - 1.0) * math.log(y) - 0.5 * y
                    - 0.5 * n * math.log(2.0) - math.lgamma(0.5 * n))


def two_group_sf(a, m, b, n, q, lower=False):
    """P(a X + b Y > q) for independent X ~ chi2_m, Y ~ chi2_n, a, b > 0.

    Integrates the density of ``Y`` against the exact tail of ``a X`` at
    ``q - b y``; beyond ``y = q / b`` the event is certain, and past
    ``y = 1e5`` the density is below 1e-10000.
    """
    end = q / b
    if lower:
        return _quad(lambda y: _chi2_pdf(y, n) * special.chdtr(m, (q - b * y) / a), end)
    body = _quad(lambda y: _chi2_pdf(y, n) * special.chdtrc(m, (q - b * y) / a),
                 min(end, 1e5))
    return body + special.chdtrc(n, end)


def _pair_density(b, c):
    """Density of ``b Y + c Z`` for independent chi2_1 ``Y``, ``Z`` and ``b >= c > 0``.

    ``exp(-r (b + c) / (4 b c)) I0(r (b - c) / (4 b c)) / (2 sqrt(b c))``,
    written with the scaled Bessel function so that it cannot overflow.
    """
    scale = (b - c) / (4.0 * b * c)
    norm = 2.0 * math.sqrt(b * c)
    return lambda r: math.exp(-r / (2.0 * b)) * special.i0e(r * scale) / norm


def three_weight_sf(a, b, c, q, lower=False):
    """P(a X + b Y + c Z > q) for independent chi2_1 ``X``, ``Y``, ``Z``, ``b >= c > 0``.

    Integrates the closed-form density of ``b Y + c Z`` against the exact
    tail of ``a X`` at ``q - r``.
    """
    density = _pair_density(b, c)
    if lower:
        return _quad(lambda r: density(r) * special.chdtr(1, (q - r) / a), q)
    body = _quad(lambda r: density(r) * special.chdtrc(1, (q - r) / a), q)
    beyond = integrate.quad(density, q, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return body + beyond


def mixed_sf(a, b, c, q):
    """P(a X + b Y - c Z > q) for independent chi2_1 ``X``, ``Y``, ``Z``.

    Needs ``a >= b > 0`` and ``c > 0``.  Integrates the closed-form
    density of ``a X + b Y`` at ``r`` against the chi2_1 distribution
    function of ``Z`` at ``(r - q) / c``, over ``r >= max(q, 0)``; the
    integrand has a square-root edge at ``r = q``, the lower end, and past
    ``r - max(q, 0) = 2000 a`` it is below 1e-400.
    """
    density = _pair_density(a, b)
    start = max(q, 0.0)
    offset = start - q  # exact, so small r - q keep their relative precision
    return _quad(lambda u: density(start + u) * special.chdtr(1, (u + offset) / c),
                 2000.0 * a)


def saddle(w: np.ndarray, quantile: float, upper: bool) -> float:
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


def contour_sf(w: np.ndarray, quantile: float) -> float | None:
    """P(sum w_k Z_k^2 > quantile) for ``max|w| = 1``, ``quantile >= 0``, through the saddle point.

    With ``K(s) = -1/2 sum log(1 - 2 w_k s)``, the integral
    ``(1/(2 pi i)) int exp(K(s) - s quantile) ds / s`` up the line
    ``Re s = c`` is the tail for ``0 < c < 1/(2 w_max)`` and the tail minus
    one for ``1/(2 w_min) < c < 0``, whatever the signs of the weights
    (Rice 1980).  ``c`` is the saddle point (:func:`saddle`) above 0 when
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
    c = saddle(w, quantile, upper)
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


def scalar_chisq_sf(weights, x: float) -> float:
    """P(sum_k w_k (Z_k^2 - 1) > x) for independent standard normals.

    Weights may be signed; zero weights are dropped, and a weight, their
    sum or ``x`` that is not finite raises :class:`DistributionError`.
    One weight gives the exact chi-squared tail, ``erfc(sqrt(q / 2))`` at
    ``q = 1 + x / w`` (``erf`` for a negative weight).  Two or more
    weights, of any signs, take a trapezoid rule on a contour through the
    saddle point (:func:`contour_sf`), stopped when successive estimates
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
    p = contour_sf(w / scale, quantile / scale)
    if p is None:
        raise InternalConsistencyError(
            f"the saddle-point contour did not converge for weights {w.tolist()!r} "
            f"at quantile {quantile!r}"
        )
    return 1.0 - p if mirror else p
