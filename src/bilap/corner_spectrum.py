"""Singular exponents at a sign-changing boundary corner.

A half-plane corner of opening ``alpha`` carries a coefficient contrast
``kappa < 0`` across the internal interface.  Exponents of the form
``lambda = 1 + i*eta`` exist exactly at the positive zeros of a real
transcendental dispersion function; this module evaluates that function,
classifies ``(alpha, kappa)`` pairs against the ill-posedness region where
such a zero exists, locates the zero in the one bracket that the function
itself gives (it is g * eta^2 as eta -> 0+, negative at its tail), and
assembles the 4x4 angular interface system whose determinant shares the
same zero set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import NotSingular, NumericalFailure
from .roots import bracketed_roots

__all__ = [
    "CornerProblem",
    "Membership",
    "RegionReport",
    "SingularExponentResult",
    "AngularProfile",
    "RegionMap",
    "dispersion",
    "scaled_dispersion",
    "critical_interval",
    "classify_region",
    "find_singular_exponent",
    "even_derivative_at_zero",
    "transmission_matrix",
    "normalized_determinant",
    "angular_profile",
    "region_map",
]

# below this angle x - sin(x) comes from its series, above it from x - math.sin(x),
# which cancels by at most a factor of 6.3 there; both stay within 4e-16 relative
_SERIES_ANGLE = 1.0
# the low part of pi that math.pi drops: pi - a is formed as math.pi - a + _PI_LO
_PI_LO = 1.2246467991473532e-16
# relative size below which a scaled dispersion value has no trusted sign
_SIGN_FLOOR = 4e-15
# |g| relative to the scale of its factors up to which a corner problem is
# reported on the Boundary
_BOUNDARY_EPS = 1e-9
# below this eta (pi * eta = 1/4) the scaled dispersion comes from its Taylor
# series in eta up to eta^(2 * _SERIES_TERMS), whose next term is under 1e-17
# of the sum of the absolute terms
_SERIES_ETA, _SERIES_TERMS = 0.25 / math.pi, 7
# (2n)! and pi^(2n - 2) for the terms past the first, n = 2.._SERIES_TERMS
_FACTORIALS = np.array([[math.factorial(2 * n)] for n in range(2, _SERIES_TERMS + 1)], dtype=float)
_PI_POWERS = np.array([[math.pi ** (2 * n - 2)] for n in range(2, _SERIES_TERMS + 1)])
# exponent search: the bracket's low end, where the O(eta^4) part of the scaled
# dispersion is about 1e-400, so that it is g * eta^2 to every digit, and a
# tail found by doubling _ETA_MAX at most _MAX_DOUBLINGS times
_ETA_LO, _ETA_MAX, _MAX_DOUBLINGS = 1e-100, 10.0, 60
# normalized determinant up to which the angular system counts as singular
_SINGULAR_TOL = 1e-6
# Gauss-Legendre nodes per angular segment of the profile norms
_PROFILE_NODES = 64


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
    """A located dispersion zero ``eta0 > 0``, housing the pair ``1 +- i*eta0``;
    ``bracket`` is the searched (1e-100, tail), ``residual`` is relative to
    the sum of the absolute terms of the scaled dispersion."""

    eta0: float
    residual: float
    bracket: tuple


def dispersion(p: CornerProblem, eta):
    """Dispersion function of the corner problem, even in ``eta``: the scaled
    form times cosh(2*pi*eta), so exactly zero at eta = 0 and free of small-eta
    cancellation.  Overflows to +-inf at very large eta instead of raising."""
    with np.errstate(over="ignore"):
        out = scaled_dispersion(p, eta) * np.cosh(2.0 * math.pi * np.asarray(eta, dtype=float))
    return float(out) if np.isscalar(eta) else out


def _scaled_terms(alpha, kappa, eta):
    """Terms of dispersion/cosh(2*pi*eta), broadcast over alpha, kappa and eta.

    Each sinh(x)^2 / cosh(2*pi*eta) is formed so that it neither overflows at
    large eta nor cancels at small eta, where every term is O(eta^2); the
    eta^2 term takes exp(-b) before (1 - kappa)^2, and 1 - cos(2a) as
    2 sin(a)^2, so it neither overflows nor cancels either, and pi - a keeps
    the low part of pi.  The kappa sinh^2 terms are grouped as
    2k (sinh(pi eta)^2 - sinh(a eta)^2) + 2k^2 sinh(a eta)^2, the difference
    as sinh((pi + a) eta) sinh((pi - a) eta), so they do not cancel to
    O(kappa (pi - a)) as alpha -> pi.
    """
    a, k, c = alpha, kappa, math.pi - alpha + _PI_LO
    e = np.abs(eta)
    b = 2.0 * math.pi * e
    den = 2.0 + 2.0 * np.exp(-2.0 * b)

    def ratio(x, gap):  # sinh(x)^2 / cosh(b); gap = b - 2x, given without cancellation
        return np.exp(-gap) * np.expm1(-2.0 * x) ** 2 / den

    return (4.0 * np.exp(-b) / den * e * e * (1.0 - k) ** 2 * (-2.0 * np.sin(a) ** 2),
            2.0 * k * np.expm1(-2.0 * (math.pi + a) * e) * np.expm1(-2.0 * c * e) / den,
            2.0 * k * k * ratio(a * e, 2.0 * c * e),
            -2.0 * (k - 1.0) * ratio(c * e, 2.0 * a * e))


def _series(alpha, kappa) -> np.ndarray:
    """Taylor coefficients w of the dispersion at the rows (alpha[i], kappa[i]):
    dispersion = (1 - kappa)^2 sum_n w[n - 1] (2 eta)^(2n), n = 1.._SERIES_TERMS.

    w_n = t_n / ((2n)! (1 - kappa)^2), t_1 = g / 2 and, for n >= 2,
    t_n = kappa (pi^2n - alpha^2n) + kappa^2 alpha^2n - (kappa - 1) (pi - alpha)^2n,
    the first part summed as pi^2n - alpha^2n = (pi - alpha) (pi + alpha)
    (pi^(2n-2) + ... + alpha^(2n-2)), so no coefficient cancels as alpha -> pi.
    Near ell_minus and ell_plus one factor of g cancels to O(d) at relative
    distance d, and the rounding of its terms in double would move eta0 by
    about 1e-16 / d; so t_1 is the product of the factors formed in
    np.longdouble, which is 80-bit on x86 Linux (double on platforms
    without a wider type, where the double bound holds).
    """
    alpha, kappa = np.asarray(alpha, dtype=float), np.asarray(kappa, dtype=float)
    # the parts in alpha alone are formed once per distinct alpha
    a, column = np.unique(alpha, return_inverse=True)
    c, d, e, f = (v[column] for v in _factors(a.astype(np.longdouble), np.sin))
    k = kappa.astype(np.longdouble)
    t1 = ((c * k + d) / (1 - k) * ((e * k + f) / (1 - k))).astype(float)
    b = math.pi - a + _PI_LO

    def powers(y):  # y^j for j = 1.._SERIES_TERMS
        out = [y]
        for _ in range(_SERIES_TERMS - 1):
            out.append(out[-1] * y)
        return np.array(out)

    # pi^2n - alpha^2n = (pi - alpha) (pi + alpha) pi^(2n-2) sum_{j<n} (alpha / pi)^2j
    h = b * (math.pi + a) * _PI_POWERS * (1.0 + np.cumsum(powers((a / math.pi) ** 2)[:-1], axis=0))
    m = 1.0 - kappa
    q = kappa / m
    t = (q * h[:, column] + powers(b * b)[1:, column]) / m + q * q * powers(a * a)[1:, column]
    return np.concatenate([t1[None] / 2.0, t / _FACTORIALS])


def _scaled(alpha, kappa, w, eta):
    """The scaled dispersion at rows with Taylor coefficients w = _series(alpha,
    kappa): from the series up to _SERIES_ETA, where the sum of _scaled_terms
    cancels to g * eta^2, and from _scaled_terms beyond."""
    e = np.abs(eta)
    small = e <= _SERIES_ETA
    if not small.any():
        return sum(_scaled_terms(alpha, kappa, e))
    x = np.minimum(e, _SERIES_ETA)
    u = 4.0 * x * x
    acc = w[-1]
    for wn in w[-2::-1]:
        acc = acc * u + wn
    series = u * acc / np.cosh(2.0 * math.pi * x) * (1.0 - kappa) ** 2
    return series if small.all() else np.where(small, series, sum(_scaled_terms(alpha, kappa, e)))


def scaled_dispersion(p: CornerProblem, eta):
    """dispersion(p, eta) / cosh(2*pi*eta): same zero set on (0, inf), no
    overflow; below eta = 1 / (4 pi) from the Taylor series of _series."""
    w = _series([p.alpha], [p.kappa])[:, 0]
    return _scaled(p.alpha, p.kappa, w, eta)[()]


def _x_minus_sin(x, sin=math.sin):
    """x - sin(x), for a float, or with sin=np.sin for an np.longdouble or
    an array of them, elementwise; below _SERIES_ANGLE the series
    x^3/3! - ... + x^19/19!, whose next term is under 1.2e-19 relative."""
    array = isinstance(x, np.ndarray)
    if not array and x >= _SERIES_ANGLE:
        return x - sin(x)
    y, t = x * x, 1.0
    for d in (342.0, 272.0, 210.0, 156.0, 110.0, 72.0, 42.0, 20.0):  # (2j)(2j+1), j = 9..2
        t = 1.0 - y / d * t
    series = x * y / 6.0 * t
    return np.where(x < _SERIES_ANGLE, series, x - sin(x)) if array else series


def _factors(alpha, sin=math.sin) -> tuple:
    """(c, d, e, f) with g = 2 (c k + d)(e k + f), the eta^2 coefficient at
    contrast k: c = a - sin a, d = b + sin a, e = a + sin a and
    f = b - sin a = b - sin b, where a = alpha and b = pi - a; in the
    precision of alpha, a float or, with sin=np.sin, an np.longdouble or an
    array of them."""
    s = sin(alpha)
    b = math.pi - alpha + _PI_LO
    return _x_minus_sin(alpha, sin), b + s, alpha + s, _x_minus_sin(b, sin)


def _g(factors: tuple, kappa):
    """The eta^2 coefficient g = 2 (c k + d)(e k + f) from _factors(alpha), at a
    contrast or an array of them; inf, not an overflow warning, at huge |k|."""
    c, d, e, f = factors
    with np.errstate(over="ignore"):
        return 2.0 * (c * kappa + d) * (e * kappa + f)


def _roots(factors: tuple) -> tuple:
    """(ell_minus, ell_plus), the roots of the two factors of g."""
    c, d, e, f = factors
    # c is 0 below alpha ~ 1e-108; |ell_minus| ~ 6 pi / alpha^3 overflows below 4.7e-103
    return (-d / c if c > 0.0 else -math.inf), -f / e


def critical_interval(alpha: float) -> tuple:
    """Roots (ell_minus, ell_plus) of the eta^2 coefficient, both negative.

    The coefficient is positive exactly for kappa below ell_minus or between
    ell_plus and zero.
    """
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"alpha must lie in (0, pi), got {alpha}")
    return _roots(_factors(alpha))


def _relative_factor(x, y, k) -> np.ndarray:
    """(x k + y) / (|x k| + |y|) for k < 0, with y divided by max(-k, 1) and k
    clipped to -1 so that nothing overflows; 0 where both terms vanish."""
    y, k = y / np.maximum(-k, 1.0), np.maximum(k, -1.0)
    scale = np.abs(x * k) + np.abs(y)
    return np.divide(x * k + y, scale, out=np.zeros_like(scale), where=scale > 0.0)


def _membership(factors: tuple, kappa: np.ndarray) -> np.ndarray:
    """Membership values, as strings, at the contrasts kappa given the
    _factors of their alpha, as classify_region states them."""
    c, d, e, f = factors
    rel = _relative_factor(c, d, kappa) * _relative_factor(e, f, kappa)
    return np.where(rel > _BOUNDARY_EPS, Membership.INSIDE.value,
                    np.where(rel < -_BOUNDARY_EPS, Membership.OUTSIDE.value,
                             Membership.BOUNDARY.value))


def classify_region(p: CornerProblem) -> RegionReport:
    """Place (alpha, kappa) relative to the ill-posedness region by the sign of g;
    Boundary where |g| <= 1e-9 of the scale 2 (|c k| + |d|)(|e k| + |f|) of
    its factors g = 2 (c k + d)(e k + f), tested factor by factor (the one
    formula, _membership, that region_map applies to every cell)."""
    factors = _factors(p.alpha)
    member = _membership(factors, np.array([p.kappa], dtype=float))[0]
    return RegionReport(_g(factors, p.kappa), *_roots(factors), Membership(member))


def _search(alpha, kappa):
    """find_singular_exponent on the rows (alpha[i], kappa[i]), with one
    lockstep root search over every row's bracket: arrays eta0 and residual
    (nan where no exponent is found), tail (nan where none is negative) and
    failed (the rows whose tail stayed positive)."""
    # the terms hold (1 - kappa)^2: beyond |kappa| ~ 1e154 they overflow, no
    # tail value is negative and the row fails
    with np.errstate(over="ignore", invalid="ignore"):
        # tail: the first _ETA_MAX * 2**j at which the scaled dispersion is negative
        tail = np.full(len(alpha), np.nan)
        for eta in _ETA_MAX * 2.0 ** np.arange(_MAX_DOUBLINGS):
            rows = np.flatnonzero(np.isnan(tail))
            if not rows.size:
                break
            tail[rows[sum(_scaled_terms(alpha[rows], kappa[rows], eta)) < 0.0]] = eta
        failed = np.isnan(tail)
        # a value within rounding of zero, relative to the sum of the absolute
        # terms (the scale of `residual`), does not count for its sign
        terms = _scaled_terms(alpha, kappa, _ETA_LO)
        found = (sum(terms) > _SIGN_FLOOR * sum(np.abs(t) for t in terms)) & ~failed
    eta0, residual = np.full(len(alpha), np.nan), np.full(len(alpha), np.nan)
    rows = np.flatnonzero(found)
    if rows.size:
        a, k = alpha[rows], kappa[rows]
        w = _series(a, k)
        eta0[rows] = bracketed_roots(lambda i, x: _scaled(a[i], k[i], w[:, i], x),
                                     np.full(rows.size, _ETA_LO), tail[rows], 1e-14)
        terms = _scaled_terms(a, k, eta0[rows])
        residual[rows] = np.abs(sum(terms)) / sum(np.abs(t) for t in terms)
    return eta0, residual, tail, failed


def find_singular_exponent(p: CornerProblem) -> Optional[SingularExponentResult]:
    """Locate the positive dispersion zero in one bracket.

    One row of the search that region_map runs over every cell of a map, on
    the cosh-scaled dispersion, whose zeros on (0, inf) are the same.  Its
    tail is the first 10 * 2**j (j < 60) at which that is negative
    (NumericalFailure when there is none).  At eta = 1e-100 it is g * eta^2
    to every digit; where it is positive there beyond rounding (4e-15 of the
    sum of its absolute terms), (1e-100, tail) is narrowed by
    bracketed_roots (Chandrupatla's method) to 1e-14 * (1 + eta).  Otherwise
    None: also where g is within rounding of zero, so a Boundary point
    carries an eta0 only when g > 0 is trusted.

    Near ell_minus, ell_plus the terms cancel to g * eta^2, eta0 is small
    and the search reads the Taylor series, whose g comes from np.longdouble
    factors: at relative distance d = |kappa / ell - 1| from the nearer edge,
    eta0 is within 1e-14 * (1 + eta0) (the stop width) plus 2e-19 * eta0 / d
    of the mpmath root for alpha in [0.1, pi - 0.1] (largest of 1,300 random
    points, d from 1e-12 to 0.1, 80-bit longdouble: 9.5e-20 * eta0 / d), and
    within 3e-12 / d (relative) for alpha in [0.01, pi - 0.01].  Where
    np.longdouble is double, as on some platforms, the rounding of g is
    about 1e-16 / d instead.

    Below alpha = 0.01 no accuracy is claimed.  For kappa far below ell_minus
    (~ -6 pi / alpha^3), g * eta^2 at eta = 1e-100 is alpha^2 / 6 of the sum
    of the absolute terms: below alpha = sqrt(6 * 4e-15) ~ 1.5e-7 the result
    is None, never a wrong eta0, though classify_region says Inside (alpha =
    1e-9, kappa = -1e100 or -1e150); eta0 is 8.6e-6 off at (2e-7, -1e100).

    Above alpha = pi - 0.01 at tiny kappa in (ell_plus, 0), where kappa ~
    (pi - alpha)^4, no accuracy is claimed either: the eta^2 term and the
    (pi - alpha) sinh^2 term cancel to O((pi - alpha)^4 eta^2).  At kappa =
    ell_plus / 2, against an 80-digit mpmath root, eta0 is 7.5e-10 off
    (relative) at alpha = pi - 1e-3, 1.7e-5 at pi - 1e-5 and 9.6e-6 at
    pi - 1e-6 (1.6e-4 there at kappa = ell_plus / 10); from pi - 1e-7 to
    pi - 1e-9 the result was None.
    """
    eta0, residual, tail, failed = _search(np.array([p.alpha]), np.array([p.kappa]))
    if failed[0]:
        raise NumericalFailure(
            f"tail sign not confirmed after {_MAX_DOUBLINGS} doublings of eta_max")
    if np.isnan(eta0[0]):
        return None
    return SingularExponentResult(float(eta0[0]), float(residual[0]), (_ETA_LO, float(tail[0])))


def even_derivative_at_zero(p: CornerProblem, k: int) -> float:
    """Derivative of order 2k of the dispersion function at eta = 0, for
    0 <= k <= 7 (_SERIES_TERMS): 4^k t_k, with t_k the Taylor coefficient
    that _series forms without cancelling as alpha -> pi (t_0 = 0)."""
    if not 0 <= k <= _SERIES_TERMS:
        raise ValueError(f"k must be an integer in [0, {_SERIES_TERMS}]")
    if k == 0:
        return 0.0
    w = float(_series([p.alpha], [p.kappa])[k - 1, 0])
    return 4.0 ** k * math.factorial(2 * k) * (1.0 - p.kappa) ** 2 * w


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
    # the products that complex ** forms, which at huge |lam| give inf, not OverflowError
    l3, m3, l4, m4 = l * (l * l), m * (m * m), (l * l) * (l * l), (m * m) * (m * m)
    c1, c2 = np.cos(l * theta), np.cos(m * theta)
    s1, s2 = np.sin(l * theta), np.sin(m * theta)
    b1 = (c1 - c2, -l * s1 + m * s2, -l * l * c1 + m * m * c2,
          l3 * s1 - m3 * s2, l4 * c1 - m4 * c2)
    b2 = (m * s1 - l * s2, l * m * (c1 - c2),
          -l * l * m * s1 + l * m * m * s2,
          -l3 * m * c1 + l * m3 * c2,
          l4 * m * s1 - l * m4 * s2)
    return b1, b2


def _check_lambda(lam: complex) -> complex:
    lam = complex(lam)
    for excluded in (0.0, 1.0, 2.0):
        if lam == excluded:
            raise ValueError(f"lambda = {excluded} is excluded from the angular system")
    return lam


@np.errstate(over="ignore", invalid="ignore")  # non-finite entries are rejected below
def transmission_matrix(p: CornerProblem, lam: complex) -> np.ndarray:
    """4x4 complex interface system at theta = alpha, rows scaled to unit max entry.

    Rows: continuity of the angular profile and its derivative, continuity of
    the weighted second Laplacian trace d2 + lam^2, and of its tangential
    derivative d3 + lam^2 d1.  Columns follow the four basis coefficients;
    the clamped conditions at theta = 0 and pi hold by construction.
    Raises NumericalFailure when an entry is not finite (the entries grow
    like cosh(pi * Im lam)).
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
    if not np.isfinite(scale).all():
        raise NumericalFailure(f"interface system overflows at lambda = {lam}")
    scale[scale == 0.0] = 1.0
    return M / scale[:, None]


def normalized_determinant(M: np.ndarray) -> float:
    """|det M| over the product of its row norms; O(1) scale for conditioning tests."""
    return float(abs(np.linalg.det(M)) / np.prod(np.linalg.norm(M, axis=1)))


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

    def interface_residual(self) -> float:
        """Max-norm residual of the four row-scaled interface conditions."""
        M = transmission_matrix(CornerProblem(self.alpha, self.kappa), self.lam)
        return float(np.abs(M @ self.coeffs).max())

    def biharmonic_residual(self) -> float:
        """L2 norm of d2(psi) + (lam-2)^2 psi with psi = d2(phi) + lam^2 phi.

        Composite Gauss-Legendre on (0, alpha) and (alpha, pi); the closed
        forms satisfy the angular factorization exactly, so this measures
        assembly error only.
        """
        lam = self.lam
        return math.sqrt(_profile_norm2(self, lambda d: d[4] + lam * lam * d[2]
                                        + (lam - 2.0) ** 2 * (d[2] + lam * lam * d[0])))


def _profile_norm2(profile: AngularProfile, integrand) -> float:
    """Squared L2 norm of integrand(profile derivatives): composite
    Gauss-Legendre on (0, alpha) and (alpha, pi)."""
    x, w = np.polynomial.legendre.leggauss(_PROFILE_NODES)
    total = 0.0
    for lo, hi in ((0.0, profile.alpha), (profile.alpha, math.pi)):
        t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * float(np.sum(w * np.abs(integrand(profile.derivatives(t))) ** 2))
    return total


def angular_profile(p: CornerProblem, lam: complex) -> AngularProfile:
    """Null coefficients of the interface system at a detected exponent: the
    right singular vector of its smallest singular value.

    Raises NotSingular when the normalized determinant exceeds 1e-6.
    """
    lam = complex(lam)
    M = transmission_matrix(p, lam)  # rejects the excluded lambdas
    nd = normalized_determinant(M)
    if nd > _SINGULAR_TOL:
        raise NotSingular(
            f"normalized determinant {nd:.3e} exceeds tolerance {_SINGULAR_TOL:.1e} at {lam}"
        )
    x = np.linalg.svd(M)[2][-1].conj()
    pivot = int(np.argmax(np.abs(x)))
    coeffs = x / x[pivot]
    return AngularProfile(lam=lam, alpha=p.alpha, kappa=p.kappa, coeffs=coeffs)


# ---------------------------------------------------------------------------
# region map


@dataclass(frozen=True)
class RegionMap:
    """The cells of a region map as columns, one entry per cell, alpha-major.

    ``membership`` holds Membership values as strings; ``eta0`` and
    ``residual`` are nan where no exponent is found, failed cells included,
    and ``failed`` flags the cells whose tail was not confirmed negative."""

    alpha: np.ndarray
    kappa: np.ndarray
    g: np.ndarray
    ell_minus: np.ndarray
    ell_plus: np.ndarray
    membership: np.ndarray
    eta0: np.ndarray
    residual: np.ndarray
    failed: np.ndarray


def region_map(alpha_range: tuple, kappa_range: tuple, n_alpha: int, n_kappa: int) -> RegionMap:
    """Exponent search over a rectangular (alpha, kappa) grid, as one RegionMap.

    One search runs over the whole map, each cell as find_singular_exponent
    would, with one lockstep root search over every cell's bracket.  The
    factors of g and (ell_minus, ell_plus) are formed once per alpha column;
    g and the membership are _g and _membership over the cells, so each cell
    reads as classify_region says.
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
    columns = np.array([(*f, *_roots(f)) for f in map(_factors, alphas.tolist())])
    *factors, ell_minus, ell_plus = np.repeat(columns, n_kappa, axis=0).T
    eta0, residual, _, failed = _search(A, K)
    return RegionMap(A, K, _g(factors, K), ell_minus, ell_plus, _membership(factors, K),
                     eta0, residual, failed)

