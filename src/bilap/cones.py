"""Conical-tip exponents and weighted-space solvability in dimension d >= 3.

The radial exponents at a conical boundary tip are algebraic in the first
Dirichlet eigenvalue of the cross-section's spherical Laplacian.  For
spherical caps that eigenvalue reduces to a Legendre-function root in the
degree; the classification of the weighted Laplacian then follows from one
double inequality in (beta, l, d) against the leading exponent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import NumericalFailure
from .roots import bracketed_roots

__all__ = [
    "WeightedIndex",
    "Classification",
    "exponent_pair",
    "cap_first_eigenvalue",
    "fredholm_classify",
    "isomorphism_in_dimension",
    "classify_spectrum",
]

_SERIES_CAP = 10 ** 5
_CAP_ALPHA_MAX = 0.9 * math.pi
_J0_MID = 3.962451833991042  # (j01 + j02) / 2, midway between J_0's first two zeros
# distance from a band edge within which the range is not closed
_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class WeightedIndex:
    """Weight/order/dimension triple (beta, l, d) of the weighted Laplacian."""

    beta: float
    l: int
    d: int

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("order l must be a positive integer")
        if self.l > sys.float_info.max:
            raise ValueError("order l must not exceed the largest float")
        _check_dimension(self.d)


def _check_dimension(d: int):
    """ValueError unless 2 <= d <= the largest float: the exponent and band
    formulas take d as a float."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if d > sys.float_info.max:
        raise ValueError("dimension must not exceed the largest float")


class Classification(Enum):
    ISOMORPHISM = "Isomorphism"
    INJECTIVE_NOT_ONTO = "InjectiveNotOnto"
    ONTO_NOT_INJECTIVE = "OntoNotInjective"
    NOT_FREDHOLM = "NotFredholm"


def exponent_pair(d: int, mu: float) -> tuple:
    """Radial exponents (lambda_minus, lambda_plus) for eigenvalue mu.

    lambda_plus > 0 > lambda_minus, their sum is 2 - d and their product -mu.
    With half = 1 - d/2 <= 0, lambda_minus = half - root and lambda_plus =
    mu / (root - half), root = hypot(half, sqrt(mu)): neither form cancels,
    so both hold to a few ulps however small mu is, and root never overflows.
    """
    _check_dimension(d)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    half = 1.0 - 0.5 * d
    root = math.hypot(half, math.sqrt(mu))
    return half - root, mu / (root - half)


def _series(nu: float, z: float) -> float:
    """P_nu(1 - 2z) as the hypergeometric series 2F1(-nu, nu + 1; 1; z),
    accumulated to relative 1e-14; it terminates exactly at integer degree.
    Near z = 1 convergence slows, and the term cap may trip
    (NumericalFailure)."""
    term, total = 1.0, 1.0
    for j in range(_SERIES_CAP):
        term *= (j - nu) * (j + nu + 1.0) / ((j + 1.0) * (j + 1.0)) * z
        total += term
        if abs(term) <= 1e-14 * abs(total):
            return total
    raise NumericalFailure(f"Legendre series cap {_SERIES_CAP} hit at nu={nu}, z={z}")


def cap_first_eigenvalue(alpha: float) -> float:
    """First Dirichlet eigenvalue mu_1 of the spherical cap of half-angle alpha.

    The ground mode is axisymmetric, so mu_1 = nu (nu + 1) with nu the smallest
    positive degree at which P_nu(cos alpha) vanishes.  Sturm comparison with
    J_0((nu + 1/2) alpha) (Szego, Orthogonal Polynomials, 6.21) puts nu below
    j01 / alpha - 1/2, and the one bracket (0, h], h = (j01 + j02) / (2 alpha)
    - 1/2 midway to the next degree, holds it alone: the series in
    z = sin^2(alpha / 2) (no cancellation for small caps) is 1 at 0 and at most
    -0.39 at h.  bracketed_roots polishes nu to 1e-15 * (1 + nu).  ValueError
    outside (0, 0.9 pi]; NumericalFailure below alpha ~ 2.96e-154, where h^2
    overflows, so the caps answered are alpha in [2.96e-154, 0.9 pi].
    """
    if not 0.0 < alpha <= _CAP_ALPHA_MAX:
        raise ValueError(f"alpha must lie in (0, {_CAP_ALPHA_MAX:.6f}]")
    hi = _J0_MID / alpha - 0.5
    if math.isinf(hi * (hi + 1.0)):
        raise NumericalFailure(f"cap too narrow: the degree bracket end {hi:.6g} squared overflows")
    z = math.sin(0.5 * alpha) ** 2
    # _series sums on Python floats, one degree at a time
    nu = bracketed_roots(lambda _, nus: [_series(float(v), z) for v in nus], [0.0], [hi], 1e-15)[0]
    return float(nu * (nu + 1.0))


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
    """True iff fredholm_classify says Isomorphism at the basic index
    (beta, l) = (0, 1): d > 4 - 2*lambda1_plus, off its edge."""
    return fredholm_classify(WeightedIndex(0.0, 1, d), lambda1_plus) is Classification.ISOMORPHISM


def classify_spectrum(d: int, mu1: float, beta: float = 0.0, l: int = 1) -> tuple:
    """(lambda_plus, classification) in dimension d from the first
    cross-section eigenvalue mu1 > 0."""
    _, lam_plus = exponent_pair(d, mu1)
    return lam_plus, fredholm_classify(WeightedIndex(beta=beta, l=l, d=d), lam_plus)
