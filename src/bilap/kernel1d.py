"""Kernel detection for 1D piecewise-constant fourth-order configurations.

On an interval split by one or two material interfaces, a clamped field whose
weighted fourth-order operator vanishes is piecewise cubic.  Interface
matching reduces the kernel question to a small dense determinant in the
contrast; the critical contrasts have closed forms, and an independent
determinant scan recovers them without consulting those forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .bisection import bisect_rows
from .errors import NumericalFailure

__all__ = [
    "TwoSegmentDomain",
    "ThreeSegmentDomain",
    "PiecewiseCubic",
    "ContrastRoots",
    "RootSource",
    "quadratic_coefficients",
    "critical_contrasts_two_segment",
    "critical_contrasts_three_segment",
    "build_kernel_system",
    "kernel_determinant",
    "kernel_basis",
    "scan_critical_contrasts",
]

# contrasts per stacked determinant call of the scan: about 0.5 MB of 8x8 systems
_KAPPA_CHUNK = 1000


@dataclass(frozen=True)
class TwoSegmentDomain:
    """Interval (a, b) with the material interface fixed at 0."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < 0.0 < self.b:
            raise ValueError(f"need a < 0 < b, got a={self.a}, b={self.b}")

    @property
    def ratio(self) -> float:
        return self.b / self.a


@dataclass(frozen=True)
class ThreeSegmentDomain:
    """Interval (-1, 1) with inner segment (-delta, delta)."""

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


class RootSource(Enum):
    CLOSED_FORM = "ClosedForm"
    DETERMINANT_SCAN = "DeterminantScan"


@dataclass(frozen=True)
class ContrastRoots:
    roots: tuple
    source: RootSource


def quadratic_coefficients(t: float) -> tuple:
    """(p, q) of the contrast quadratic kappa^2 + p*kappa + q for ratio t = b/a < 0.

    The discriminant p^2 - 4q factors as 16 t^2 (t-1)^2 (t^2 - t + 1), which is
    positive for every t < 0.  NumericalFailure when doubles cannot show it:
    p*p underflows below |t| ~ 1e-162, p*p and 4q overflow above |t| ~ 1e77.
    """
    if not t < 0.0:
        raise ValueError(f"segment ratio must be negative, got {t}")
    p = -4.0 * t + 6.0 * t * t - 4.0 * t * t * t
    q = t * t * t * t
    if not p * p - 4.0 * q > 0.0:  # false too when the powers overflow to inf - inf
        raise NumericalFailure(f"contrast quadratic shows no positive discriminant at t={t}")
    return p, q


def critical_contrasts_two_segment(t: float) -> ContrastRoots:
    """Both closed-form critical contrasts for ratio t < 0, strictly negative."""
    if not t < 0.0:
        raise ValueError(f"segment ratio must be negative, got {t}")
    base = 2.0 - 3.0 * t + 2.0 * t * t
    root = 2.0 * abs(t - 1.0) * math.sqrt(t * t - t + 1.0)
    r1 = (base + root) * t
    r2 = (base - root) * t
    return ContrastRoots(roots=tuple(sorted((r1, r2))), source=RootSource.CLOSED_FORM)


def critical_contrasts_three_segment(delta: float) -> ContrastRoots:
    """Critical contrasts delta^3/(delta^3 - 1) and delta/(delta - 1) for 0 < delta < 1."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    r1 = delta ** 3 / (delta ** 3 - 1.0)
    r2 = delta / (delta - 1.0)
    return ContrastRoots(roots=tuple(sorted((r1, r2))), source=RootSource.CLOSED_FORM)


Domain = Union[TwoSegmentDomain, ThreeSegmentDomain]


def build_kernel_system(dom: Domain, kappa) -> np.ndarray:
    """Interface-condition matrix whose null vectors are kernel fields.

    Two segments: 4x4 in the clamped-basis coefficients (A1, B1, A2, B2),
    matching value, slope, weighted curvature and weighted third derivative
    at 0.  Three segments: 8x8 in (outer-left, middle monomial, outer-right)
    coefficients with the same four conditions at each of x = -delta, delta.
    Clamped end conditions are built into the outer bases.  An array of
    contrasts gives the stack of their matrices, contrast axes first.
    """
    k = np.asarray(kappa, dtype=float)
    if np.any(k == 0.0):
        raise ValueError("kappa must be nonzero")
    if isinstance(dom, TwoSegmentDomain):
        a, b = dom.a, dom.b
        rows = [
            [-a ** 3, a * a, b ** 3, -b * b],
            [3.0 * a * a, -2.0 * a, -3.0 * b * b, 2.0 * b],
            [-6.0 * a, 2.0, 6.0 * k * b, -2.0 * k],
            [6.0, 0.0, -6.0 * k, 0.0],
        ]
    else:
        d = dom.delta
        xl = 1.0 - d   # (x + 1) at x = -delta
        xr = d - 1.0   # (x - 1) at x = +delta
        rows = [
            # x = -delta: value, slope, kappa-weighted curvature, weighted 3rd
            [xl ** 3, xl * xl, -1.0, d, -d * d, d ** 3, 0.0, 0.0],
            [3.0 * xl * xl, 2.0 * xl, 0.0, -1.0, 2.0 * d, -3.0 * d * d, 0.0, 0.0],
            [6.0 * xl, 2.0, 0.0, 0.0, -2.0 * k, 6.0 * k * d, 0.0, 0.0],
            [6.0, 0.0, 0.0, 0.0, 0.0, -6.0 * k, 0.0, 0.0],
            # x = +delta
            [0.0, 0.0, 1.0, d, d * d, d ** 3, -xr ** 3, -xr * xr],
            [0.0, 0.0, 0.0, 1.0, 2.0 * d, 3.0 * d * d, -3.0 * xr * xr, -2.0 * xr],
            [0.0, 0.0, 0.0, 0.0, 2.0 * k, 6.0 * k * d, -6.0 * xr, -2.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 6.0 * k, -6.0, 0.0],
        ]
    entries = np.broadcast_arrays(*(entry for row in rows for entry in row))
    return np.stack(entries, axis=-1).reshape(k.shape + (len(rows), len(rows)))


def kernel_determinant(dom: Domain, kappa):
    """Determinant of the interface system (an array of them for an array of
    contrasts); zero exactly at critical contrasts."""
    det = np.linalg.det(build_kernel_system(dom, kappa))
    return float(det) if np.ndim(kappa) == 0 else det


@dataclass(frozen=True)
class PiecewiseCubic:
    """Per-segment cubics (coefficients in powers of x - ref), clamped ends exact."""

    breakpoints: tuple            # segment edges, length nseg + 1
    refs: tuple                   # expansion point of each segment
    coeffs: tuple                 # nseg tuples (c0, c1, c2, c3)

    def derivative(self, x, order: int = 0):
        """Derivative of the given order at x, a point or an array of points.

        A point on an inner breakpoint belongs to the segment on its left.
        """
        x = np.asarray(x, dtype=float)
        s = np.searchsorted(self.breakpoints[1:-1], x)
        c0, c1, c2, c3 = np.moveaxis(np.asarray(self.coeffs)[s], -1, 0)
        u = x - np.asarray(self.refs)[s]
        if order == 0:
            out = c0 + u * (c1 + u * (c2 + u * c3))
        elif order == 1:
            out = c1 + u * (2.0 * c2 + 3.0 * u * c3)
        elif order == 2:
            out = 2.0 * c2 + 6.0 * u * c3
        elif order == 3:
            out = 6.0 * c3
        else:
            out = np.zeros_like(x)
        return out[()]

    def value(self, x):
        return self.derivative(x, 0)

    def sample(self, n: int = 1001) -> np.ndarray:
        """Columns x, v, v', v'' on a uniform n-point grid over the domain."""
        xs = np.linspace(self.breakpoints[0], self.breakpoints[-1], n)
        return np.column_stack([xs] + [self.derivative(xs, order) for order in (0, 1, 2)])


def _null_vector(M: np.ndarray) -> np.ndarray:
    _, _, vt = np.linalg.svd(M)
    v = vt[-1]
    pivot = int(np.argmax(np.abs(v)))
    return v / v[pivot]


def kernel_basis(dom: Domain, kappa: float, tol: float = 1e-8) -> Optional[PiecewiseCubic]:
    """Kernel field at a critical contrast, or None when the system is regular.

    Regularity is judged by |det| against tol times the Hadamard row-norm
    bound.  The returned cubic is normalized to unit largest coefficient.
    """
    M = build_kernel_system(dom, kappa)
    scale = float(np.prod(np.linalg.norm(M, axis=1)))
    if abs(np.linalg.det(M)) > tol * scale:
        return None
    v = _null_vector(M)
    if isinstance(dom, TwoSegmentDomain):
        a, b = dom.a, dom.b
        return PiecewiseCubic(
            breakpoints=(a, 0.0, b),
            refs=(a, b),
            coeffs=((0.0, 0.0, v[1], v[0]), (0.0, 0.0, v[3], v[2])),
        )
    d = dom.delta
    return PiecewiseCubic(
        breakpoints=(-1.0, -d, d, 1.0),
        refs=(-1.0, 0.0, 1.0),
        coeffs=(
            (0.0, 0.0, v[1], v[0]),
            (v[2], v[3], v[4], v[5]),
            (0.0, 0.0, v[7], v[6]),
        ),
    )


def scan_critical_contrasts(
    dom: Domain,
    kappa_lo: float = -1e4,
    kappa_hi: float = -1e-4,
    n: int = 10_000,
) -> ContrastRoots:
    """Brute-force oracle: determinant sign changes on a geometric contrast grid.

    The determinants of the n-point grid come from stacked systems,
    _KAPPA_CHUNK contrasts per call; every sign change is then bisected in
    lockstep with the others, to 1e-12 * (1 + |kappa|).  The kernel reduction
    to the interface system is exact, so this recovers each critical contrast
    to machine accuracy without touching the closed forms.
    """
    if not kappa_lo < kappa_hi < 0.0:
        raise ValueError("need kappa_lo < kappa_hi < 0")
    grid = -np.geomspace(-kappa_lo, -kappa_hi, n)
    vals = np.concatenate([kernel_determinant(dom, grid[i:i + _KAPPA_CHUNK])
                           for i in range(0, n, _KAPPA_CHUNK)])
    signs = np.sign(vals)
    i = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    roots = bisect_rows(lambda _, k: kernel_determinant(dom, k), grid[i], grid[i + 1], 1e-12)
    return ContrastRoots(roots=tuple(sorted(roots.tolist())), source=RootSource.DETERMINANT_SCAN)
