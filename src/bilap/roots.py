"""Lockstep root search of many sign-changing brackets at once."""

import numpy as np

# steps a row may take beyond bisection's ceil(log2((hi - lo) / tol))
_SPARE_STEPS = 7
# the smallest tol: two adjacent floats a < b always meet
# b - a <= tol * (1 + |mid|) from here on, so every search stops
_TOL_MIN = 2.0 ** -52


def bracketed_roots(f, lo, hi, tol: float) -> np.ndarray:
    """Roots of f in the brackets [lo[i], hi[i]], all rows searched in lockstep.

    ``f(rows, x)`` returns the values of the functions of rows ``rows[j]`` at
    the points ``x[j]``; f(lo[i]) and f(hi[i]) differ in sign or one is zero.
    Each step is Chandrupatla's (Adv. Eng. Software 28, 1997): inverse
    quadratic interpolation through the two bracket ends and the end dropped
    last, or a bisection where Chandrupatla's test rejects the interpolant.
    The point lands at least tol * (1 + |mid|) / 4 inside the bracket, and
    close enough to its midpoint that after k steps the bracket is at most
    2**(7 - k) (hi - lo) wide, so no row takes more than 7 steps beyond
    ceil(log2((hi - lo) / tol)) (the worst-case guard of Oliveira and
    Takahashi's ITP method, ACM TOMS 47, 2020).  The bracket keeps the side
    where the signs of f differ, until hi - lo <= tol * (1 + |mid|); the
    result is then its midpoint, or the point where f is exactly zero when
    the search meets one.  Steps work on the rows still searched, packed anew
    only when some stop, and bound each bracket by one scalar 2**(7 - k)
    times its hi - lo.  A row's arithmetic never depends on the other rows
    of the call, and no rows means no call of f.  ValueError unless tol is at
    least 2**-52: below it two adjacent floats need not meet the stop rule,
    and the search would never end.
    """
    if not tol >= _TOL_MIN:  # a nan tol fails too
        raise ValueError(f"tol must be at least 2**-52, got {tol!r}")
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if not (n := lo.size):
        return lo
    f_ends = np.asarray(f(np.arange(2 * n) % n, np.concatenate([lo, hi])), dtype=float)
    root = np.where(f_ends[:n] == 0.0, lo, np.where(f_ends[n:] == 0.0, hi, np.nan))
    with np.errstate(all="ignore"):
        # the rows still searched; a: the newest end, b: the other end, c: the end dropped last
        rows = np.flatnonzero(np.isnan(root))
        a, fa, b, fb = hi[rows], f_ends[n:][rows], lo[rows], f_ends[:n][rows]
        c, fc, width, k, miss = a, fa, a - b, 0, True  # miss: f(a) is not exactly zero
        while True:
            mid, d = 0.5 * (a + b), b - a
            w, s = np.abs(d), 1.0 + np.abs(mid)
            keep = (w > tol * s) & miss
            if np.count_nonzero(keep) < rows.size:
                root[rows[~keep]] = np.where(miss, mid, a)[~keep]
                rows, width, a, fa, b, fb, c, fc, mid, d, w, s = (
                    v[keep] for v in (rows, width, a, fa, b, fb, c, fc, mid, d, w, s))
            if not rows.size:
                return root
            k += 1
            # c = a before the first step makes xi = phi = 1: a bisection
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = (np.where(iqi, fa / (fb - fa) * fc / (fb - fc)
                          + (c - a) / d * fa / (fc - fa) * fb / (fc - fb), 0.5)
                 if np.count_nonzero(iqi) else 0.5)
            margin = 0.25 * tol * s / w
            x = a + np.minimum(np.maximum(t, margin), 1.0 - margin) * d
            reach = np.maximum(width * 2.0 ** (_SPARE_STEPS - k) - 0.5 * w, 0.0)
            x = np.minimum(np.maximum(x, mid - reach), mid + reach)
            fx = np.asarray(f(rows, x), dtype=float)
            # f(x) of the sign of f(a): a is dropped, else b is, and a takes its place
            keep_b = np.sign(fx) == np.sign(fa)
            c, fc = np.where(keep_b, a, b), np.where(keep_b, fa, fb)
            b, fb = np.where(keep_b, b, a), np.where(keep_b, fb, fa)
            a, fa, miss = x, fx, fx != 0.0
