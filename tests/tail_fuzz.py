"""Seeded adversarial spectra for the weighted chi-squared tail, and their pinned values.

``cases()`` draws 150 spectra, 50 for each sign pattern (all positive,
all negative, mixed), with K = 2-30 weights whose magnitudes are
log-uniform over 12 decades, and pairs each with the uncentered
quantiles 0 and +-1e-12 max|w|, where the density of a mixed or tiny
spectrum is most singular.  ``cases_by_k()`` groups them by weight
count, the stacks in which the package evaluates its tails.
``tail_fuzz_pins.json`` holds one entry per case: the value and method tag that ``weighted_chisq_sf`` gave at commit
1a287f1, before the contour took every spectrum, and, where that value
came from the moment match or the current value differed from it by
more than 1e-9, a 30-digit value computed with mpmath on another path
(``_rays_30_digits``).  Run this
file with the path of that commit's ``src`` directory to rebuild the
pins (needs mpmath)::

    python tests/tail_fuzz.py OLD_SRC
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np

PINS = Path(__file__).with_name("tail_fuzz_pins.json")
SEED = 2026
N_SPECTRA = 150
PATTERNS = ("positive", "negative", "mixed")


def cases():
    """``(pattern, weights, quantile)`` triples; the centered ``x`` is ``quantile - sum w``."""
    rng = np.random.default_rng(SEED)
    for i in range(N_SPECTRA):
        k = int(rng.integers(2, 31))
        magnitude = 10.0 ** rng.uniform(-12.0, 0.0, k)
        pattern = PATTERNS[i % 3]
        if pattern == "mixed":
            sign = rng.choice([-1.0, 1.0], k)
            sign[:2] = (1.0, -1.0)
        else:
            sign = np.full(k, 1.0 if pattern == "positive" else -1.0)
        weights = sign * magnitude
        top = float(np.abs(weights).max())
        for quantile in (0.0, 1e-12 * top, -1e-12 * top):
            yield pattern, weights, quantile


def cases_by_k():
    """The cases grouped by weight count, as the stacks the contour runs.

    Yields ``(k, stack)`` in increasing ``k``; ``stack`` lists ``(index,
    pattern, weights, quantile)`` with ``index`` the case's position in
    :func:`cases` and in the pins.
    """
    stacks = {}
    for index, (pattern, weights, quantile) in enumerate(cases()):
        stacks.setdefault(weights.size, []).append((index, pattern, weights, quantile))
    yield from sorted(stacks.items())


def load_pins():
    return json.loads(PINS.read_text())


def _rays_30_digits(weights, x):
    """P(sum w (Z^2 - 1) > x) in 30-digit arithmetic, along two rays.

    The same inversion integral as the library's (Rice 1980), on another
    path and with another rule: from ``c = 1 / (4 w_max)`` along ``c + r
    exp(+-i pi/4)``, by mpmath's tanh-sinh quadrature with breakpoints at
    each weight's scale.  A negative quantile is mirrored.
    """
    import mpmath as mp

    mp.mp.dps = 30
    q = float(x + weights.sum())  # the quantile the library forms
    w = [float(v) for v in weights]
    mirror = q < 0.0
    if mirror:
        w, q = [-v for v in w], -q
    if max(w) < 0.0:
        tail = 0.0
    else:
        w = [mp.mpf(v) for v in w]
        c = 1 / (4 * max(w))
        turn = mp.expjpi(mp.mpf(1) / 4)

        def integrand(r):
            s = c + r * turn
            log_mgf = -sum(mp.log(1 - 2 * v * s) for v in w) / 2
            return mp.im(mp.exp(log_mgf - s * q) / s * turn)

        scales = sorted({abs(1 / (2 * v)) * k for v in w for k in (mp.mpf(1) / 10, 1, 10)})
        tail = float(mp.quad(integrand, [mp.mpf(0)] + scales + [mp.inf]) / mp.pi)
    return 1.0 - tail if mirror else tail


def rebuild(old_src: str) -> None:
    sys.path.insert(0, old_src)
    old = importlib.import_module("catdcor.inference")
    sys.path[0] = str(Path(__file__).resolve().parent.parent / "src")
    for name in [m for m in sys.modules if m == "catdcor" or m.startswith("catdcor.")]:
        del sys.modules[name]
    new = importlib.import_module("catdcor.inference")
    pins = [None] * len(list(cases()))
    for _, stack in cases_by_k():
        current = new._tails([(weights, quantile - weights.sum())
                              for _, _, weights, quantile in stack])
        for (index, _, weights, quantile), p in zip(stack, current):
            x = quantile - weights.sum()
            value, tag = old._weighted_chisq_sf_impl(weights, x)
            exact = None
            if tag != "imhof" or abs(p - value) > 1e-9:
                exact = _rays_30_digits(weights, x)
            pins[index] = {"parent": value, "parent_method": tag, "exact": exact}
    PINS.write_text("[\n" + ",\n".join(json.dumps(pin) for pin in pins) + "\n]\n")


if __name__ == "__main__":
    rebuild(sys.argv[1])
