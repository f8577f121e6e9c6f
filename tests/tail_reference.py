"""Exact references for tails of weighted sums of chi-squares.

The package computes the tail of ``sum_k w_k Z_k^2`` for two or more
weights of any signs with a contour integral through the saddle point
(``catdcor.inference._contour_sf``).  These references reach the same
probabilities another way, by one-dimensional convolution with
``scipy.integrate.quad`` and the chi-squared functions of
``scipy.special``, so tests compare the contour with a separate
implementation.  The positive-weight ones return the upper tail, or with
``lower=True`` the lower tail ``P(sum <= q)``, which keeps its relative
accuracy where the upper tail rounds to 1.  All are accurate to about
1e-13 relative, far into the tail.
"""

import math

from scipy import integrate, special


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
