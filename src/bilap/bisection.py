"""Lockstep bisection of many sign-changing brackets at once."""

import numpy as np


def bisect_rows(f, lo, hi, tol: float) -> np.ndarray:
    """Midpoints of the brackets [lo[i], hi[i]] after bisecting each on the sign of f.

    ``f(rows, x)`` returns the values of the functions of rows ``rows[j]`` at
    the points ``x[j]``.  Every unfinished row halves its bracket in each
    round, keeping the left half when the signs of f(lo) and f(mid) differ
    or either is zero, until hi - lo <= tol * (1 + |mid|).
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f_lo = np.asarray(f(np.arange(lo.size), lo), dtype=float)
    while True:
        mid = 0.5 * (lo + hi)
        active = np.flatnonzero(hi - lo > tol * (1.0 + np.abs(mid)))
        if not active.size:
            return mid
        f_mid = np.asarray(f(active, mid[active]), dtype=float)
        left = np.sign(f_lo[active]) * np.sign(f_mid) <= 0.0  # no overflow of f * f
        hi[active[left]] = mid[active[left]]
        right = active[~left]
        lo[right], f_lo[right] = mid[right], f_mid[~left]
