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
    the search meets one.  A row's arithmetic never depends on the other rows
    of the call, and no rows means no call of f.  ValueError unless tol is at
    least 2**-52: below it two adjacent floats need not meet the stop rule,
    and the search would never end.
    """
    if not tol >= _TOL_MIN:  # a nan tol fails too
        raise ValueError(f"tol must be at least 2**-52, got {tol!r}")
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    n = lo.size
    if not n:
        return lo
    rows = np.arange(n)
    f_ends = np.asarray(f(np.concatenate([rows, rows]), np.concatenate([lo, hi])), dtype=float)
    # a: the newest end, b: the other end, c: the end dropped last (beyond a)
    a, fa, b, fb = hi, f_ends[n:], lo, f_ends[:n]
    c, fc = a.copy(), fa.copy()
    root = np.where(fb == 0.0, b, np.where(fa == 0.0, a, np.nan))
    live = np.isnan(root)
    budget = (hi - lo) * 2.0 ** _SPARE_STEPS
    with np.errstate(all="ignore"):
        while True:
            mid = 0.5 * (a + b)
            active = np.flatnonzero(live & (np.abs(b - a) > tol * (1.0 + np.abs(mid))))
            if not active.size:
                return np.where(live, mid, root)
            ar, br, cr, m = a[active], b[active], c[active], mid[active]
            far, fbr, fcr = fa[active], fb[active], fc[active]
            # c = a before the first step makes xi = phi = 1: a bisection
            xi = (ar - br) / (cr - br)
            phi = (far - fbr) / (fcr - fbr)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = np.where(iqi, far / (fbr - far) * fcr / (fbr - fcr)
                         + (cr - ar) / (br - ar) * far / (fcr - far) * fbr / (fcr - fbr), 0.5)
            margin = 0.25 * tol * (1.0 + np.abs(m)) / np.abs(br - ar)
            x = ar + np.clip(t, margin, 1.0 - margin) * (br - ar)
            budget[active] *= 0.5
            reach = np.maximum(budget[active] - 0.5 * np.abs(br - ar), 0.0)
            x = np.clip(x, m - reach, m + reach)
            fx = np.asarray(f(active, x), dtype=float)
            # f(x) of the sign of f(a): a is dropped, else b is, and a takes its place
            keep_b = np.sign(fx) == np.sign(far)
            c[active], fc[active] = np.where(keep_b, ar, br), np.where(keep_b, far, fbr)
            b[active], fb[active] = np.where(keep_b, br, ar), np.where(keep_b, fbr, far)
            a[active], fa[active] = x, fx
            hit = fx == 0.0
            root[active[hit]] = x[hit]
            live[active[hit]] = False
