"""Checks of bilap outputs computed apart from the program.

Nothing here imports bilap.  The spectral checks evaluate the corner
dispersion function and Ferrers functions in mpmath; the kernel1d check
fits exact cubics through the emitted samples; the solve checks rebuild the
domain masks, the node average of 1/sigma, the five-point stencil, the
corner polar frames and the trapezoid pairing weights from their
definitions.  A check returns a reason, None when the output passes; the
ones for the spectral rows return (failed, reason), failed meaning the
program owed a result it did not give.
"""

from __future__ import annotations

import io
import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40

EPS = np.finfo(float).eps
# eta0 and the Legendre degree come out of bisections polished to ~1e-14
# relative; a sign change across +-1e-8 relative is far outside that error.
ROOT_BRACKET = 1e-8
# The fitted r^(2/3) sin(2 theta/3) coefficient of a corrected solve must be
# at most this share of the uncorrected one (about 0.21 at n=256 and 0.12 at
# n=512 on the corner domains).
CORRECTION_SHARE = 1.0 / 3.0
CORNER_APERTURE = 1.5 * math.pi
EXCLUSION_RADIUS_CELLS = 4.0


# -- corner dispersion --------------------------------------------------------


def dispersion(alpha: float, kappa: float, eta) -> mp.mpf:
    """The corner dispersion function, even in eta, evaluated in mpmath."""
    a, k, e = mp.mpf(alpha), mp.mpf(kappa), mp.mpf(eta)
    return (
        2 * k * mp.sinh(mp.pi * e) ** 2
        + 2 * k * (k - 1) * mp.sinh(a * e) ** 2
        - 2 * (k - 1) * mp.sinh((mp.pi - a) * e) ** 2
        + e * e * (1 - k) ** 2 * (mp.cos(2 * a) - 1)
    )


def eta2_coefficient(alpha: float, kappa: float) -> float:
    """Coefficient of eta^2 in the dispersion function, by mpmath differentiation."""
    return float(mp.diff(lambda e: dispersion(alpha, kappa, e), 0, 2) / 2)


def critical_interval(alpha: float) -> tuple:
    """(ell_minus, ell_plus): the roots in kappa of the eta^2 coefficient."""
    s = math.sin(alpha)
    return -(math.pi - alpha + s) / (alpha - s), -(math.pi - alpha - s) / (alpha + s)


def check_corner_row(alpha, kappa, g, membership, eta0) -> tuple:
    """Check one (alpha, kappa) row of eta0 or region-map output.

    Returns (failed, reason): failed when an Inside point carries no eta0,
    so the program did not deliver the exponent that exists there; reason is
    set when a delivered value contradicts the mpmath evaluation.
    """
    c2 = eta2_coefficient(alpha, kappa)
    tol = 1e-9 * (1.0 + kappa * kappa) * math.pi ** 2
    if abs(g - c2) > tol:
        return False, f"g={g!r} but mpmath eta^2 coefficient is {c2!r}"
    expected = "Inside" if c2 > 1e-9 else "Outside" if c2 < -1e-9 else "Boundary"
    if membership != expected and abs(c2) > 1e-9 + tol:
        return False, f"membership {membership} but eta^2 coefficient {c2!r}"
    if eta0 is None:
        return membership == "Inside", None
    if membership == "Outside":
        return False, f"Outside point carries eta0={eta0!r}"
    lo = dispersion(alpha, kappa, eta0 * (1.0 - ROOT_BRACKET))
    hi = dispersion(alpha, kappa, eta0 * (1.0 + ROOT_BRACKET))
    if not eta0 > 0.0 or mp.sign(lo) * mp.sign(hi) >= 0:
        return False, f"dispersion does not change sign across eta0={eta0!r}"
    return False, None


def parse_csv_rows(text: str, header: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}, got {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _opt_float(field: str):
    return float(field) if field else None


def check_eta0(text: str, alpha: float, kappa: float) -> tuple:
    rows = parse_csv_rows(text, "alpha,kappa,g,membership,eta0,residual")
    if len(rows) != 1:
        return False, f"{len(rows)} rows, expected 1"
    a, k, g, member, eta0, _ = rows[0]
    if float(a) != alpha or float(k) != kappa:
        return False, "row does not echo the query"
    return check_corner_row(alpha, kappa, float(g), member, _opt_float(eta0))


def check_region_map(text: str, alphas, kappas) -> tuple:
    """Every cell of a region map, in alpha-major order over the given axes."""
    rows = parse_csv_rows(text, "alpha,kappa,g,ell_minus,ell_plus,membership,eta0,residual")
    if len(rows) != len(alphas) * len(kappas):
        return False, f"{len(rows)} cells, expected {len(alphas) * len(kappas)}"
    failed = False
    for row, (a, k) in zip(rows, ((a, k) for a in alphas for k in kappas)):
        alpha, kappa = float(row[0]), float(row[1])
        if abs(alpha - a) > 1e-12 or abs(kappa - k) > 1e-12 * (1 + abs(k)):
            return False, f"cell ({row[0]}, {row[1]}) is not on the requested grid"
        lm, lp = critical_interval(alpha)
        if abs(float(row[3]) - lm) > 1e-9 * abs(lm) or abs(float(row[4]) - lp) > 1e-9 * abs(lp):
            return False, f"critical interval at alpha={row[0]} disagrees"
        if row[6] == "nan":
            failed = True
            continue
        cell_failed, reason = check_corner_row(
            alpha, kappa, float(row[2]), row[5], _opt_float(row[6]))
        if reason:
            return False, f"cell ({row[0]}, {row[1]}): {reason}"
        failed |= cell_failed
    return failed, None


# -- cones ----------------------------------------------------------------------


def check_cone(text: str, alpha: float) -> tuple:
    """mu1 = nu(nu+1) with nu the first positive degree where P_nu(cos alpha) = 0."""
    rows = parse_csv_rows(text, "alpha,mu1,lambda_plus,classification")
    if len(rows) != 1:
        return False, f"{len(rows)} rows, expected 1"
    a, mu1, lam, cls = rows[0]
    mu1, lam = float(mu1), float(lam)
    if float(a) != alpha:
        return False, "row does not echo the aperture"
    nu = (-1 + mp.sqrt(1 + 4 * mp.mpf(mu1))) / 2
    z = mp.cos(mp.mpf(alpha))
    p = lambda deg: mp.legenp(deg, 0, z)
    if mp.sign(p(nu * (1 - ROOT_BRACKET))) * mp.sign(p(nu * (1 + ROOT_BRACKET))) >= 0:
        return False, f"P_nu(cos alpha) does not vanish at nu={float(nu)!r}"
    for j in range(64):
        if p(nu * j / 64) <= 0:
            return False, f"P changes sign before nu={float(nu)!r}: not the first root"
    lam_ref = -0.5 + math.sqrt(0.25 + mu1)
    if abs(lam - lam_ref) > 1e-12 * lam_ref:
        return False, f"lambda_plus={lam!r}, expected {lam_ref!r}"
    # basic index (beta, l, d) = (0, 1, 3): beta - l + d/2 = 1/2 against the
    # band (1 - lambda_plus, 2 + lambda_plus)
    expected = "Isomorphism" if lam > 0.5 else "InjectiveNotOnto"
    if cls != expected:
        return False, f"classification {cls}, expected {expected}"
    return False, None


# -- kernel1d -------------------------------------------------------------------


def two_segment_contrasts(t: float) -> list:
    t = mp.mpf(t)
    base = 2 - 3 * t + 2 * t * t
    root = 2 * abs(t - 1) * mp.sqrt(t * t - t + 1)
    return sorted(float(x * t) for x in (base + root, base - root))


def three_segment_contrasts(delta: float) -> list:
    d = mp.mpf(delta)
    return sorted(float(x) for x in (d ** 3 / (d ** 3 - 1), d / (d - 1)))


def check_roots(roots, expected) -> str | None:
    if len(roots) != len(expected):
        return f"{len(roots)} contrasts, expected {len(expected)}"
    for r, e in zip(sorted(roots), expected):
        if abs(r - e) > 1e-9 * abs(e):
            return f"contrast {r!r}, expected {e!r}"
    return None


def check_kernel1d(text: str, breakpoints, kappa: float, expected_roots, samples: int) -> tuple:
    """Closed-form contrasts, then a clamped, C1 kernel field at kappa.

    Segments alternate coefficient 1 and kappa from the left
    (two segments: 1 | kappa; three: 1 | kappa | 1).  Each segment's cubic
    is refitted from the emitted samples; at every interface the value and
    slope must agree and so must coefficient * v'' and coefficient * v'''.
    """
    head, _, tail = text.partition("x,v,v1,v2\n")
    rows = parse_csv_rows(head, "root_index,critical_contrast")
    reason = check_roots([float(r[1]) for r in rows], expected_roots)
    if reason:
        return False, reason
    data = np.loadtxt(io.StringIO(tail), delimiter=",", ndmin=2)
    if data.shape != (samples, 4):
        return False, f"sample table shape {data.shape}, expected ({samples}, 4)"
    x, v = data[:, 0], data[:, 1]
    scale = np.abs(v).max()
    if not scale > 0.0:
        return False, "kernel field is identically zero"
    for end in (0, -1):
        if abs(v[end]) > 1e-12 * scale or abs(data[end, 2]) > 1e-10 * scale:
            return False, "clamped end condition fails"
    fits = []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        inside = (x > lo) & (x < hi)
        if inside.sum() < 8:
            return False, "too few samples inside a segment"
        c = np.polynomial.polynomial.polyfit(x[inside], v[inside], 3)
        fits.append(np.polynomial.Polynomial(c))
        if np.abs(fits[-1](x[inside]) - v[inside]).max() > 1e-9 * scale:
            return False, "samples are not one cubic per segment"
        if np.abs(fits[-1].deriv()(x[inside]) - data[inside, 2]).max() > 1e-7 * scale:
            return False, "v1 column is not the slope of the samples"
    coeff = [1.0 if s % 2 == 0 else kappa for s in range(len(fits))]
    for s, xi in enumerate(breakpoints[1:-1]):
        for order in range(4):
            lv, rv = fits[s].deriv(order)(xi), fits[s + 1].deriv(order)(xi)
            if order >= 2:
                lv, rv = coeff[s] * lv, coeff[s + 1] * rv
            if abs(lv - rv) > 1e-6 * max(abs(lv), abs(rv), scale):
                return False, f"order-{order} interface condition fails at x={xi}"
    return False, None


# -- masked grids and the two-step solve -----------------------------------------


class Domain:
    """Cell mask, interior nodes and reentrant corners of a unit-box polygon.

    Corners are (x, y, orientation): theta = 0 lies on the +y edge and sweeps
    counterclockwise (orientation +1) or clockwise (-1) through the domain.
    """

    def __init__(self, kind: str, n: int):
        self.kind, self.n, self.h = kind, n, 1.0 / n
        mask = np.ones((n, n), dtype=bool)
        idx = np.arange(n)
        if kind == "lshape":
            mask[np.ix_(idx >= n // 2, idx >= n // 2)] = False
            self.corners = ((0.5, 0.5, 1.0),)
        elif kind == "notched":
            mask[np.ix_((idx >= 3 * n // 8) & (idx < 5 * n // 8), idx >= n // 2)] = False
            self.corners = ((3 / 8, 0.5, 1.0), (5 / 8, 0.5, -1.0))
        elif kind == "rectangle":
            self.corners = ()
        else:
            raise ValueError(kind)
        self.mask = mask
        count = self._node_sum(mask.astype(float))
        self.interior = count == 4
        self.node = np.arange(n + 1) * self.h
        self.X, self.Y = np.meshgrid(self.node, self.node, indexing="ij")
        c = (idx + 0.5) * self.h
        self.CX, self.CY = np.meshgrid(c, c, indexing="ij")

    def _node_sum(self, cell_values: np.ndarray) -> np.ndarray:
        n = self.n
        out = np.zeros((n + 1, n + 1))
        for di in (0, 1):
            for dj in (0, 1):
                out[di:di + n, dj:dj + n] += cell_values
        return out

    def node_average(self, cell_values: np.ndarray) -> np.ndarray:
        """Mean over the touching cells inside the mask; zero off the domain."""
        acc = self._node_sum(np.where(self.mask, cell_values, 0.0))
        cnt = self._node_sum(self.mask.astype(float))
        return np.divide(acc, cnt, out=np.zeros_like(acc), where=cnt > 0)

    def trapezoid_weights(self) -> np.ndarray:
        """Cellwise trapezoid weights without the cells within four widths of a corner."""
        keep = self.mask.copy()
        for cx, cy, _ in self.corners:
            keep &= np.hypot(self.CX - cx, self.CY - cy) >= EXCLUSION_RADIUS_CELLS * self.h
        return self._node_sum(keep * (self.h * self.h / 4.0))

    def polar(self, corner) -> tuple:
        cx, cy, orient = corner
        r = np.hypot(self.X - cx, self.Y - cy)
        phi = np.arctan2(self.Y - cy, self.X - cx)
        return r, np.mod(orient * (phi - 0.5 * math.pi), 2.0 * math.pi)

    def laplacian(self, F: np.ndarray) -> np.ndarray:
        """Five-point Laplacian at interior nodes, zero elsewhere."""
        out = np.zeros_like(F)
        out[1:-1, 1:-1] = (F[2:, 1:-1] + F[:-2, 1:-1] + F[1:-1, 2:] + F[1:-1, :-2]
                           - 4.0 * F[1:-1, 1:-1]) / (self.h * self.h)
        return np.where(self.interior, out, 0.0)

    def corner_laplacians(self) -> list:
        """Stencil Laplacians of r^(-2/3) sin(2 theta/3), one per corner."""
        out = []
        for corner in self.corners:
            r, th = self.polar(corner)
            mu = math.pi / CORNER_APERTURE
            with np.errstate(divide="ignore"):
                term = np.where(r > 0.0, r ** -mu * np.sin(mu * th), 0.0)
            out.append(self.laplacian(term))
        return out

    def singular_coefficients(self, v: np.ndarray) -> list:
        """Least-squares r^(2/3) sin(2 theta/3) coefficient of v near each corner.

        Fitted on 4h <= r <= 1/8 against the edge-vanishing harmonics
        r^(2k/3) sin(2k theta/3), k <= 6, plus the terms a corrected
        intermediate and a smooth source put into v.
        """
        out = []
        for corner in self.corners:
            r, th = self.polar(corner)
            sel = self.interior & (r >= 4.0 * self.h) & (r <= 0.125)
            R, T = r[sel], th[sel]
            cols = [R ** (2 * k / 3) * np.sin(2 * k * T / 3) for k in range(1, 7)]
            cols += [R ** (4 / 3) * np.sin(2 * T / 3), R ** (8 / 3) * np.sin(2 * T / 3),
                     R ** 2 * np.log(R) * np.sin(2 * T), R ** 2 * np.cos(2 * T), R ** 2]
            coef = np.linalg.lstsq(np.array(cols).T, v[sel], rcond=None)[0]
            out.append(float(coef[0]))
        return out

    def parse_solution(self, text: str):
        """Nodal field from x,y,value CSV; None when the node set is not the interior."""
        lines = text.split("\n", 1)
        if lines[0] != "x,y,value":
            return None
        data = np.loadtxt(io.StringIO(lines[1]), delimiter=",", ndmin=2)
        i = np.rint(data[:, 0] * self.n).astype(int)
        j = np.rint(data[:, 1] * self.n).astype(int)
        emitted = np.zeros_like(self.interior)
        emitted[i, j] = True
        if len(i) != self.interior.sum() or not np.array_equal(emitted, self.interior):
            return None
        V = np.zeros(self.interior.shape)
        V[i, j] = data[:, 2]
        return V


def corner_fit_residual(dom: Domain, residual: np.ndarray) -> tuple:
    """Max |residual - sum_c a_c L_c| over interior nodes after a least-squares
    fit with the corner-term stencil Laplacians L_c; also the max before it."""
    b = residual[dom.interior]
    before = float(np.abs(b).max())
    cols = [L[dom.interior] for L in dom.corner_laplacians()]
    if cols:
        A = np.array(cols).T
        b = b - A @ np.linalg.lstsq(A, b, rcond=None)[0]
    return float(np.abs(b).max()), before


def check_two_step_output(dom: Domain, V: np.ndarray, sinv: np.ndarray, f: np.ndarray) -> str | None:
    """Difference v twice: p = Lap v / s, then Lap p must give back f up to corner terms.

    Rounding in two stencil applications grows like n^4 * eps * |v| / min|s|;
    the bound allows a factor 1e3 above that model.
    """
    if V is None:
        return "emitted nodes are not the interior nodes of the domain"
    s = np.where(dom.interior, sinv, 1.0)
    P = np.where(dom.interior, dom.laplacian(V) / s, 0.0)
    left, before = corner_fit_residual(dom, dom.laplacian(P) - f)
    tol = 1e3 * EPS * dom.n ** 4 * np.abs(V).max() / np.abs(sinv[dom.interior]).min()
    if not left <= tol:
        return f"Lap(Lap v / s) - f leaves {left:.3e} after the corner fit (bound {tol:.3e}, {before:.3e} before)"
    return None


def check_sigma_solution(dom: Domain, p, v, sinv, f, duals) -> str | None:
    """v solves Lap v = s p; p solves Lap p = f up to corner terms and is
    sigma-orthogonal to every dual field under the trapezoid weights."""
    sp = np.where(dom.interior, sinv * p, 0.0)
    res_v = np.linalg.norm(dom.laplacian(v) - sp) / np.linalg.norm(sp)
    if not res_v <= 1e-9:
        return f"Lap v - s p has relative residual {res_v:.3e}"
    left, before = corner_fit_residual(dom, dom.laplacian(p) - np.where(dom.interior, f, 0.0))
    tol = 1e3 * EPS * dom.n ** 2 * np.abs(p).max() + 1e-9 * np.linalg.norm(f[dom.interior])
    if not left <= tol:
        return f"Lap p - f leaves {left:.3e} after the corner fit (bound {tol:.3e}, {before:.3e} before)"
    w = dom.trapezoid_weights()
    for i, d in enumerate(duals):
        num = abs(float(np.sum(w * sinv * p * d)))
        den = float(np.sum(w * np.abs(sinv * p) * np.abs(d)))
        if not num <= 1e-9 * den:
            return f"<p/sigma, dual_{i}> = {num:.3e} against {den:.3e}"
    return None
