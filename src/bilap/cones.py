"""Conical-tip exponents and weighted-space solvability in dimension d >= 3.

The radial exponents at a conical boundary tip are algebraic in the first
Dirichlet eigenvalue of the cross-section's spherical Laplacian.  For
spherical caps that eigenvalue reduces to a Legendre-function root in the
degree; the classification of the weighted Laplacian then follows from one
double inequality in (beta, l, d) against the leading exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import BracketFailure, NoConvergence
from .roots import bracketed_roots

__all__ = [
    "ConeSpectrum",
    "WeightedIndex",
    "Classification",
    "exponent_pair",
    "legendre_p",
    "cap_first_eigenvalue",
    "fredholm_classify",
    "isomorphism_in_dimension",
    "classify_cap",
    "classify_spectrum",
]

_SERIES_CAP = 10 ** 5
_CAP_ALPHA_MAX = 0.9 * math.pi
# distance from a band edge within which the range is not closed
_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class ConeSpectrum:
    """Cross-section eigenvalues 0 < mu_1 < mu_2 <= ..., first one simple."""

    d: int
    mu: tuple

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("dimension must be at least 2")
        mu = tuple(float(m) for m in self.mu)
        if not mu or mu[0] <= 0.0:
            raise ValueError("need a nonempty list with mu_1 > 0")
        if len(mu) > 1 and not mu[0] < mu[1]:
            raise ValueError("the first eigenvalue must be simple (mu_1 < mu_2)")
        if any(b < a for a, b in zip(mu[1:], mu[2:])):
            raise ValueError("eigenvalues beyond the first must be nondecreasing")
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class WeightedIndex:
    """Weight/order/dimension triple (beta, l, d) of the weighted Laplacian."""

    beta: float
    l: int
    d: int

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("order l must be a positive integer")
        if self.d < 2:
            raise ValueError("dimension must be at least 2")


class Classification(Enum):
    ISOMORPHISM = "Isomorphism"
    INJECTIVE_NOT_ONTO = "InjectiveNotOnto"
    ONTO_NOT_INJECTIVE = "OntoNotInjective"
    NOT_FREDHOLM = "NotFredholm"


def exponent_pair(d: int, mu: float) -> tuple:
    """Radial exponents (lambda_minus, lambda_plus) for eigenvalue mu.

    lambda_plus > 0 > lambda_minus, their sum is 2 - d and their product -mu.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    half = 1.0 - 0.5 * d
    root = math.sqrt(half * half + mu)
    return half - root, half + root


def legendre_p(nu: float, x: float) -> float:
    """Legendre function of the first kind, real degree nu >= 0, on (-1, 1].

    Hypergeometric series in (1 - x)/2, accumulated to relative 1e-14.  The
    series terminates exactly at integer degree; near x = -1 convergence slows
    and the term cap may trip.
    """
    if nu < 0.0:
        raise ValueError("degree nu must be non-negative")
    if not -1.0 < x <= 1.0:
        raise ValueError("argument must lie in (-1, 1]")
    z = 0.5 * (1.0 - x)
    term, total = 1.0, 1.0
    for j in range(_SERIES_CAP):
        term *= (j - nu) * (j + nu + 1.0) / ((j + 1.0) * (j + 1.0)) * z
        total += term
        if abs(term) <= 1e-14 * abs(total):
            return total
    raise NoConvergence(f"Legendre series cap {_SERIES_CAP} hit at nu={nu}, x={x}")


def cap_first_eigenvalue(alpha: float) -> float:
    """First Dirichlet eigenvalue mu_1 of the spherical cap of half-angle alpha.

    The ground mode is axisymmetric, so mu_1 = nu (nu + 1) with nu the smallest
    positive degree at which P_nu(cos alpha) vanishes; nu is bracketed by a
    0.05-step scan on (0, 50] and polished by bracketed_roots (Chandrupatla's
    method) to 1e-14 * (1 + nu).
    """
    if not 0.0 < alpha <= _CAP_ALPHA_MAX:
        raise ValueError(f"alpha must lie in (0, {_CAP_ALPHA_MAX:.6f}]")
    x = math.cos(alpha)
    f = lambda nu: legendre_p(nu, x)
    prev_nu, prev_val = 1e-3, f(1e-3)
    nu = prev_nu
    while nu < 50.0:
        nu = min(nu + 0.05, 50.0)
        val = f(nu)
        if prev_val * val <= 0.0:
            # legendre_p sums its series on Python floats, one degree at a time
            root = bracketed_roots(lambda _, nus: [f(float(v)) for v in nus], [prev_nu], [nu], 1e-14)[0]
            return float(root * (root + 1.0))
        prev_nu, prev_val = nu, val
    raise BracketFailure(f"no degree bracket found on (0, 50] for alpha={alpha}")


def fredholm_classify(w: WeightedIndex, lambda1_plus: float) -> Classification:
    """Four-way classification of the weighted Laplacian at index (beta, l, d).

    The operator is an isomorphism iff beta - l + d/2 lies strictly between
    1 - lambda1_plus and d - 1 + lambda1_plus; below the band it is injective
    with non-dense range, above it onto with kernel, and on either edge
    (within 1e-12) the range is not closed.
    """
    if lambda1_plus <= 0.0:
        raise ValueError("lambda1_plus must be positive")
    x = w.beta - w.l + 0.5 * w.d
    lower = 1.0 - lambda1_plus
    upper = w.d - 1.0 + lambda1_plus
    if abs(x - lower) <= _EDGE_TOL or abs(x - upper) <= _EDGE_TOL:
        return Classification.NOT_FREDHOLM
    if x < lower:
        return Classification.INJECTIVE_NOT_ONTO
    if x > upper:
        return Classification.ONTO_NOT_INJECTIVE
    return Classification.ISOMORPHISM


def isomorphism_in_dimension(d: int, lambda1_plus: float) -> bool:
    """True iff d > 4 - 2*lambda1_plus, the basic-index isomorphism criterion.

    Agrees with fredholm_classify at (beta, l) = (0, 1); holds for every
    d >= 4 since lambda1_plus > 0.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if lambda1_plus <= 0.0:
        raise ValueError("lambda1_plus must be positive")
    return d > 4.0 - 2.0 * lambda1_plus


def classify_cap(alpha: float, beta: float = 0.0, l: int = 1) -> tuple:
    """(mu1, lambda_plus, classification) for a 3D cap of half-angle alpha."""
    mu1 = cap_first_eigenvalue(alpha)
    _, lam_plus = exponent_pair(3, mu1)
    cls = fredholm_classify(WeightedIndex(beta=beta, l=l, d=3), lam_plus)
    return mu1, lam_plus, cls


def classify_spectrum(spec: ConeSpectrum, beta: float = 0.0, l: int = 1) -> tuple:
    """(lambda_plus, classification) from a user-supplied cross-section spectrum."""
    _, lam_plus = exponent_pair(spec.d, spec.mu[0])
    cls = fredholm_classify(WeightedIndex(beta=beta, l=l, d=spec.d), lam_plus)
    return lam_plus, cls
