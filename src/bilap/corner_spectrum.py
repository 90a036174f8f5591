"""Singular exponents at a sign-changing boundary corner.

A half-plane corner of opening ``alpha`` carries a coefficient contrast
``kappa < 0`` across the internal interface.  Exponents of the form
``lambda = 1 + i*eta`` exist exactly at the positive zeros of a real
transcendental dispersion function; this module evaluates that function,
classifies ``(alpha, kappa)`` pairs against the ill-posedness region where
such a zero exists, locates the zero by bracketing and bisection, and
assembles the 4x4 angular interface system whose determinant shares the
same zero set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .bisection import bisect_rows
from .errors import NotSingular, NumericalFailure

__all__ = [
    "CornerProblem",
    "Membership",
    "RegionReport",
    "SingularExponentResult",
    "AngularProfile",
    "RegionCell",
    "dispersion",
    "scaled_dispersion",
    "taylor_coefficient",
    "critical_interval",
    "classify_region",
    "find_singular_exponent",
    "even_derivative_at_zero",
    "transmission_matrix",
    "transmission_determinant",
    "normalized_determinant",
    "angular_profile",
    "region_map",
    "region_map_csv",
    "growth_factor",
    "singular_sequence_lower_bound",
]

REGION_MAP_CSV_HEADER = "alpha,kappa,g,ell_minus,ell_plus,membership,eta0,residual"
# below this angle alpha - sin(alpha) loses more than 6.7e-14 relative to cancellation
_SERIES_ANGLE = 0.1
# cells per lockstep block of the exponent search: about 2 MB of scan arrays
_SEARCH_BLOCK = 128
# relative size below which a scaled dispersion value has no trusted sign
_SIGN_FLOOR = 4e-15


@dataclass(frozen=True)
class CornerProblem:
    """Corner of opening ``alpha`` in (0, pi) with negative contrast ``kappa``."""

    alpha: float
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.alpha < math.pi:
            raise ValueError(f"alpha must lie in (0, pi), got {self.alpha}")
        if not self.kappa < 0.0:
            raise ValueError(f"kappa must be negative, got {self.kappa}")


class Membership(Enum):
    INSIDE = "Inside"
    OUTSIDE = "Outside"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class RegionReport:
    g_value: float
    ell_minus: float
    ell_plus: float
    membership: Membership


@dataclass(frozen=True)
class SingularExponentResult:
    """A located dispersion zero ``eta0 > 0``, housing the pair ``1 +- i*eta0``."""

    eta0: float
    residual: float
    bracket: tuple
    sign_changes_found: int


def dispersion(p: CornerProblem, eta):
    """Dispersion function of the corner problem, even in ``eta``.

    Grouped through cosh(x) - 1 = 2 sinh^2(x/2) so the value at eta = 0 is
    exactly zero and small-eta cancellation is avoided.  Total function:
    overflows to +-inf for very large eta instead of raising.
    """
    a, k = p.alpha, p.kappa
    scalar = np.isscalar(eta)
    e = np.asarray(eta, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = (
            2.0 * k * np.sinh(math.pi * e) ** 2
            + 2.0 * k * (k - 1.0) * np.sinh(a * e) ** 2
            - 2.0 * (k - 1.0) * np.sinh((math.pi - a) * e) ** 2
            + e * e * (1.0 - k) ** 2 * (math.cos(2.0 * a) - 1.0)
        )
    return float(out) if scalar else out


def _scaled_terms(alpha, kappa, eta):
    """Terms of dispersion/cosh(2*pi*eta), broadcast over alpha, kappa and eta.

    Each sinh(x)^2 / cosh(2*pi*eta) is formed so that it neither overflows at
    large eta nor cancels at small eta, where every term is O(eta^2).
    """
    a, k = alpha, kappa
    e = np.abs(eta)
    b = 2.0 * math.pi * e
    den = 2.0 + 2.0 * np.exp(-2.0 * b)

    def ratio(x, gap):  # sinh(x)^2 / cosh(b); gap = b - 2x, given without cancellation
        return np.exp(-gap) * np.expm1(-2.0 * x) ** 2 / den

    return (e * e * (1.0 - k) ** 2 * (np.cos(2.0 * a) - 1.0) * (4.0 * np.exp(-b) / den),
            2.0 * k * ratio(math.pi * e, 0.0),
            2.0 * k * (k - 1.0) * ratio(a * e, 2.0 * (math.pi - a) * e),
            -2.0 * (k - 1.0) * ratio((math.pi - a) * e, 2.0 * a * e))


def scaled_dispersion(p: CornerProblem, eta):
    """dispersion(p, eta) / cosh(2*pi*eta): same zero set on (0, inf), no overflow."""
    return sum(_scaled_terms(p.alpha, p.kappa, eta))


def _x_minus_sin(x: float) -> float:
    """x - sin(x); below _SERIES_ANGLE the series x^3/3! - ... - x^11/11!,
    whose next term is under 1e-19 relative."""
    if x >= _SERIES_ANGLE:
        return x - math.sin(x)
    y = x * x
    return x * y / 6.0 * (1.0 - y / 20.0 * (1.0 - y / 42.0 * (1.0 - y / 72.0 * (1.0 - y / 110.0))))


def _pi_minus(alpha: float) -> float:
    """pi - alpha; below _SERIES_ANGLE it keeps the low part of pi that
    math.pi drops (pi - math.pi = 1.2246467991473532e-16)."""
    b = math.pi - alpha
    return b + 1.2246467991473532e-16 if b < _SERIES_ANGLE else b


def taylor_coefficient(p: CornerProblem) -> float:
    """Coefficient of eta^2 in the small-eta expansion of the dispersion function."""
    a, k = p.alpha, p.kappa
    s = math.sin(a)
    b = _pi_minus(a)
    # a^2 - sin^2 a = (a - sin a)(a + sin a), which keeps small angles accurate.
    # Above pi/2 the forms in a and pi cancel by a factor of about pi / b, so
    # there a0 = b^2 - sin^2 b = (b - sin b)(b + sin b) and a1 = -a b - sin^2 a
    a2 = a * a - s * s if a >= _SERIES_ANGLE else _x_minus_sin(a) * (a + s)
    if a <= 0.5 * math.pi:
        a1 = a2 - a * math.pi
        a0 = a2 + (math.pi * math.pi - 2.0 * a * math.pi)
    else:
        a1 = -a * b - s * s
        a0 = _x_minus_sin(b) * (b + s)
    return 2.0 * a2 * k * k - 4.0 * a1 * k + 2.0 * a0


def critical_interval(alpha: float) -> tuple:
    """Roots (ell_minus, ell_plus) of the eta^2 coefficient, both negative.

    The coefficient is positive exactly for kappa below ell_minus or between
    ell_plus and zero.
    """
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"alpha must lie in (0, pi), got {alpha}")
    b = _pi_minus(alpha)
    sb = math.sin(b)
    ell_minus = -(b + sb) / _x_minus_sin(alpha)
    ell_plus = -_x_minus_sin(b) / (alpha + math.sin(alpha))
    return ell_minus, ell_plus


def classify_region(p: CornerProblem, eps_boundary: float = 1e-9) -> RegionReport:
    """Place (alpha, kappa) relative to the ill-posedness region by the sign of g."""
    if not eps_boundary > 0.0:
        raise ValueError("eps_boundary must be positive")
    g = taylor_coefficient(p)
    lm, lp = critical_interval(p.alpha)
    if g > eps_boundary:
        member = Membership.INSIDE
    elif g < -eps_boundary:
        member = Membership.OUTSIDE
    else:
        member = Membership.BOUNDARY
    return RegionReport(g_value=g, ell_minus=lm, ell_plus=lp, membership=member)


def _search(alpha, kappa, eta_min=1e-4, ratio=1.1, eta_max=10.0, max_doublings=60):
    """find_singular_exponent on the rows (alpha[i], kappa[i]) in lockstep:
    (result or None per row, flags of the rows whose tail stayed positive)."""
    # the terms hold (1 - kappa)^2: beyond |kappa| ~ 1e154 they overflow, no
    # tail value is negative and the row fails; below it only far rungs of the
    # ladder overflow, after the first negative one
    with np.errstate(over="ignore", invalid="ignore"):
        # tail: the first eta_max * 2**j at which the scaled dispersion is negative
        ladder = eta_max * 2.0 ** np.arange(max_doublings)
        negative = sum(_scaled_terms(alpha[:, None], kappa[:, None], ladder)) < 0.0
        failed = ~negative.any(axis=1)
        tail = np.where(failed, eta_max, ladder[negative.argmax(axis=1)])

        # geometric grid below each row's tail, then the tail itself, repeated so
        # that every row of the block has the same length
        n = int(math.ceil(math.log(tail.max() / eta_min) / math.log(ratio))) + 1
        etas = np.minimum(eta_min * ratio ** np.arange(n + 1), tail[:, None])
        terms = _scaled_terms(alpha[:, None], kappa[:, None], etas)
        vals = sum(terms)
        # a value within rounding of zero, relative to the sum of the absolute
        # terms (the scale of `residual`), does not count for its sign
        keep = np.abs(vals) > _SIGN_FLOOR * sum(np.abs(t) for t in terms)
    # sign changes between consecutive kept values: carry each kept column's
    # index and sign forward over the dropped ones
    last = np.maximum.accumulate(np.where(keep, np.arange(n + 1), 0), axis=1)
    signs = np.take_along_axis(np.where(keep, np.sign(vals), 0.0), last, axis=1)
    flips = signs[:, :-1] * signs[:, 1:] < 0.0

    rows = np.flatnonzero(flips.any(axis=1) & ~failed)
    col = flips[rows].argmax(axis=1)
    lo, hi = etas[rows, last[rows, col]], etas[rows, col + 1]
    f = lambda i, x: sum(_scaled_terms(alpha[rows[i]], kappa[rows[i]], x))
    eta0 = bisect_rows(f, lo, hi, 1e-14)
    terms = _scaled_terms(alpha[rows], kappa[rows], eta0)
    residual = np.abs(sum(terms)) / sum(np.abs(t) for t in terms)
    results = [None] * len(alpha)
    for j, r in enumerate(rows):
        results[r] = SingularExponentResult(float(eta0[j]), float(residual[j]),
                                            (float(lo[j]), float(hi[j])), int(flips[r].sum()))
    return results, failed


def find_singular_exponent(
    p: CornerProblem,
    eta_min: float = 1e-4,
    ratio: float = 1.1,
    eta_max: float = 10.0,
    max_doublings: int = 60,
) -> Optional[SingularExponentResult]:
    """Locate the positive dispersion zero by geometric scan plus bisection.

    One row of the lockstep search that region_map runs over blocks of cells.
    The scan runs over a geometric grid eta_min * ratio**j up to an adaptive
    eta_max, doubled until the (cosh-dominated) tail is confirmed negative;
    the first sign change is bisected to 1e-14 * (1 + eta).  Returns None when
    the scan shows no sign change; the scan works on the cosh-scaled
    dispersion, whose zeros on (0, inf) are the same.
    """
    results, failed = _search(np.array([p.alpha]), np.array([p.kappa]),
                              eta_min, ratio, eta_max, max_doublings)
    if failed[0]:
        raise NumericalFailure(
            f"tail sign not confirmed after {max_doublings} doublings of eta_max")
    return results[0]


def even_derivative_at_zero(p: CornerProblem, k: int) -> float:
    """Derivative of order 2k of the dispersion function at eta = 0 (closed form)."""
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    if k == 0:
        return 0.0
    if k == 1:
        return 2.0 * taylor_coefficient(p)
    a, kp = p.alpha, p.kappa
    return (
        kp * (2.0 * math.pi) ** (2 * k)
        + kp * (kp - 1.0) * (2.0 * a) ** (2 * k)
        - (kp - 1.0) * (2.0 * (math.pi - a)) ** (2 * k)
    )


# ---------------------------------------------------------------------------
# angular interface system


def _basis(lam: complex, theta: float):
    """Derivative stack (value, d1, d2, d3, d4) of the two clamped basis
    functions at the angle or array of angles ``theta``.

    Basis one is cos(lam*t) - cos((lam-2)*t); basis two is
    (lam-2)*sin(lam*t) - lam*sin((lam-2)*t).  Both vanish together with their
    first derivative at t = 0.
    """
    l = lam
    m = lam - 2.0
    c1, c2 = np.cos(l * theta), np.cos(m * theta)
    s1, s2 = np.sin(l * theta), np.sin(m * theta)
    b1 = (c1 - c2, -l * s1 + m * s2, -l * l * c1 + m * m * c2,
          l ** 3 * s1 - m ** 3 * s2, l ** 4 * c1 - m ** 4 * c2)
    b2 = (m * s1 - l * s2, l * m * (c1 - c2),
          -l * l * m * s1 + l * m * m * s2,
          -l ** 3 * m * c1 + l * m ** 3 * c2,
          l ** 4 * m * s1 - l * m ** 4 * s2)
    return b1, b2


def _check_lambda(lam: complex) -> complex:
    lam = complex(lam)
    for excluded in (0.0, 1.0, 2.0):
        if lam == excluded:
            raise ValueError(f"lambda = {excluded} is excluded from the angular system")
    return lam


def transmission_matrix(p: CornerProblem, lam: complex) -> np.ndarray:
    """4x4 complex interface system at theta = alpha, rows scaled to unit max entry.

    Rows: continuity of the angular profile and its derivative, continuity of
    the weighted second Laplacian trace d2 + lam^2, and of its tangential
    derivative d3 + lam^2 d1.  Columns follow the four basis coefficients;
    the clamped conditions at theta = 0 and pi hold by construction.
    """
    lam = _check_lambda(lam)
    k = p.kappa
    B1, B2 = _basis(lam, p.alpha)
    C1, C2 = _basis(lam, p.alpha - math.pi)

    def lap(B):
        return B[2] + lam * lam * B[0]

    def dlap(B):
        return B[3] + lam * lam * B[1]

    M = np.array(
        [
            [B1[0], B2[0], -C1[0], -C2[0]],
            [B1[1], B2[1], -C1[1], -C2[1]],
            [lap(B1), lap(B2), -k * lap(C1), -k * lap(C2)],
            [dlap(B1), dlap(B2), -k * dlap(C1), -k * dlap(C2)],
        ],
        dtype=complex,
    )
    scale = np.abs(M).max(axis=1)
    scale[scale == 0.0] = 1.0
    return M / scale[:, None]


def transmission_determinant(p: CornerProblem, lam: complex) -> complex:
    """Determinant of the row-scaled interface system (pivoted elimination)."""
    return complex(np.linalg.det(transmission_matrix(p, lam)))


def normalized_determinant(p: CornerProblem, lam: complex) -> float:
    """|det| divided by the product of row norms; O(1) scale for conditioning tests."""
    M = transmission_matrix(p, lam)
    d = np.linalg.det(M)
    return float(abs(d) / np.prod(np.linalg.norm(M, axis=1)))


@dataclass(frozen=True)
class AngularProfile:
    """Normalized angular null profile at a singular exponent.

    ``coeffs`` are the four basis coefficients with the largest-magnitude one
    scaled to exactly 1.  The profile is the inner basis combination for
    theta <= alpha and the outer one beyond.
    """

    lam: complex
    alpha: float
    kappa: float
    coeffs: np.ndarray

    def derivatives(self, theta):
        """(value, d1, d2, d3, d4) of the profile at angles theta in [0, pi]."""
        inner = theta <= self.alpha
        B1, B2 = _basis(self.lam, theta)
        C1, C2 = _basis(self.lam, theta - math.pi)
        a, b, c, d = self.coeffs
        return tuple(np.where(inner, a * B1[i] + b * B2[i], c * C1[i] + d * C2[i])[()]
                     for i in range(5))

    def value(self, theta) -> complex:
        return self.derivatives(theta)[0]

    def interface_residual(self) -> float:
        """Max-norm residual of the four row-scaled interface conditions."""
        M = transmission_matrix(CornerProblem(self.alpha, self.kappa), self.lam)
        return float(np.abs(M @ self.coeffs).max())

    def biharmonic_residual(self, nodes_per_segment: int = 64) -> float:
        """L2 norm of d2(psi) + (lam-2)^2 psi with psi = d2(phi) + lam^2 phi.

        Composite Gauss-Legendre on (0, alpha) and (alpha, pi); the closed
        forms satisfy the angular factorization exactly, so this measures
        assembly error only.
        """
        lam = self.lam
        return math.sqrt(_profile_norm2(
            self, lambda d: d[4] + lam * lam * d[2] + (lam - 2.0) ** 2 * (d[2] + lam * lam * d[0]),
            nodes_per_segment))


def _profile_norm2(profile: AngularProfile, integrand, nodes_per_segment: int) -> float:
    """Squared L2 norm of integrand(profile derivatives): composite
    Gauss-Legendre on (0, alpha) and (alpha, pi)."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_segment)
    total = 0.0
    for lo, hi in ((0.0, profile.alpha), (profile.alpha, math.pi)):
        t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * float(np.sum(w * np.abs(integrand(profile.derivatives(t))) ** 2))
    return total


def angular_profile(p: CornerProblem, lam: complex, singular_tol: float = 1e-6) -> AngularProfile:
    """Null coefficients of the interface system at a detected exponent.

    Inverse iteration on the 4x4 normal system with a fixed deterministic
    seed; raises NotSingular when the normalized determinant is not small.
    """
    lam = _check_lambda(lam)
    nd = normalized_determinant(p, lam)
    if nd > singular_tol:
        raise NotSingular(
            f"normalized determinant {nd:.3e} exceeds tolerance {singular_tol:.1e} at {lam}"
        )
    M = transmission_matrix(p, lam)
    H = M.conj().T @ M
    A = H + (np.trace(H).real * 1e-16) * np.eye(4)
    x = np.full(4, 0.5, dtype=complex)
    for _ in range(5):
        x = np.linalg.solve(A, x)
        x = x / np.linalg.norm(x)
    pivot = int(np.argmax(np.abs(x)))
    coeffs = x / x[pivot]
    return AngularProfile(lam=lam, alpha=p.alpha, kappa=p.kappa, coeffs=coeffs)


# ---------------------------------------------------------------------------
# region map


@dataclass(frozen=True)
class RegionCell:
    alpha: float
    kappa: float
    report: RegionReport
    result: Optional[SingularExponentResult]
    failed: bool = False


def region_map(
    alpha_range: tuple,
    kappa_range: tuple,
    n_alpha: int,
    n_kappa: int,
    eps_boundary: float = 1e-9,
) -> list:
    """Exponent search over a rectangular (alpha, kappa) grid.

    Cells come in alpha-major order.  Blocks of _SEARCH_BLOCK cells run the
    exponent search in lockstep, each row as find_singular_exponent would; a
    cell whose tail is not confirmed negative is flagged failed.
    """
    a_lo, a_hi = alpha_range
    k_lo, k_hi = kappa_range
    if not (0.0 < a_lo < a_hi < math.pi):
        raise ValueError("alpha_range must satisfy 0 < lo < hi < pi")
    if not (k_lo < k_hi < 0.0):
        raise ValueError("kappa_range must satisfy lo < hi < 0")
    if n_alpha < 2 or n_kappa < 2:
        raise ValueError("grid sizes must be at least 2")
    alphas = np.linspace(a_lo, a_hi, n_alpha)
    kappas = np.linspace(k_lo, k_hi, n_kappa)
    A, K = (m.ravel() for m in np.meshgrid(alphas, kappas, indexing="ij"))
    cells = []
    for start in range(0, A.size, _SEARCH_BLOCK):
        a, k = A[start:start + _SEARCH_BLOCK], K[start:start + _SEARCH_BLOCK]
        results, failed = _search(a, k)
        for ai, ki, result, bad in zip(a.tolist(), k.tolist(), results, failed.tolist()):
            report = classify_region(CornerProblem(ai, ki), eps_boundary)
            cells.append(RegionCell(ai, ki, report, result, bad))
    return cells


def _fmt(x: float) -> str:
    return format(x, ".17g")


def region_map_csv(cells: list) -> str:
    """CSV emission: one row per cell, floats at 17 significant digits.

    The eta0/residual fields are empty when no exponent exists and 'nan'
    for cells whose scan failed.
    """
    lines = [REGION_MAP_CSV_HEADER]
    for c in cells:
        r = c.report
        if c.failed:
            eta0, res = "nan", "nan"
        elif c.result is None:
            eta0, res = "", ""
        else:
            eta0, res = _fmt(c.result.eta0), _fmt(c.result.residual)
        lines.append(
            f"{_fmt(c.alpha)},{_fmt(c.kappa)},{_fmt(r.g_value)},{_fmt(r.ell_minus)},"
            f"{_fmt(r.ell_plus)},{r.membership.value},{eta0},{res}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# norm-growth lower bound


def growth_factor(m: int, delta: float) -> float:
    """The bare factor (m/2) * delta**(2/m) multiplying the profile norm."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    return 0.5 * m * delta ** (2.0 / m)


def singular_sequence_lower_bound(
    profile: AngularProfile, eta0: float, m: int, delta: float,
    nodes_per_segment: int = 64,
) -> float:
    """Lower bound on the energy of the m-th truncated singular field.

    Computes ||(1 + i*eta0 + 1/m)^2 phi + phi''||^2 over (0, pi) by composite
    Gauss-Legendre quadrature and multiplies by (m/2) * delta**(2/m).  The
    sequence grows without bound in m whenever the profile exists.
    """
    factor = growth_factor(m, delta)
    lam_m = 1.0 + 1j * eta0 + 1.0 / m
    norm2 = _profile_norm2(profile, lambda d: d[2] + lam_m * lam_m * d[0], nodes_per_segment)
    return norm2 * factor
