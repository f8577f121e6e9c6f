"""A fixed CPU kernel that measures how fast the host runs right now.

On a shared host the speed of a core drifts by up to 2x over seconds to
minutes (other tenants, clock changes); CPU time drifts with it, so it
does not help.  The worker times this kernel right after the import and
between CLI calls, and the benchmark multiplies each call's time by
``NOMINAL_S`` over the mean kernel time just before and just after it
(an import's time by ``NOMINAL_S`` over the kernel time right after
it): the result estimates the time on a host running at the speed where
the kernel takes ``NOMINAL_S`` seconds.

The kernel mixes what catdcor spends its time on: interpreted loops over
strings and dicts (CSV ingest, argument handling), many numpy calls on
small arrays (tabulating, scoring, small matrix products) and a pass over
a larger array.  It never changes, so its own cost is the yardstick.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's median time on a 2-core VM with Python 3.11 and
# numpy 2.4.  Only ratios matter: the same constant scales the parent's
# and a change's numbers alike.
NOMINAL_S = 0.15

_LINE = ",".join(f"L{k % 7}" for k in range(40))
_SMALL = np.linspace(0.0, 1.0, 36).reshape(6, 6)
_CODES = (np.arange(200_000) * 7919) % 1013


def kernel() -> float:
    """Run the kernel once; return a checksum so no part can be skipped."""
    counts: dict[str, int] = {}
    for _ in range(6000):
        for cell in _LINE.split(","):
            counts[cell] = counts.get(cell, 0) + 1
    total = float(sum(counts.values()))
    a = _SMALL
    for _ in range(4000):
        b = a @ a.T
        total += float(np.sqrt(b + 1.0).sum()) + float(np.bincount(_CODES[:64] % 6).max())
    for _ in range(8):
        total += float(np.unique(_CODES).size) + float(np.sort(_CODES)[-1])
    total += float(np.linalg.eigvalsh(_SMALL @ _SMALL.T).sum())
    return total


def time_kernel() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
