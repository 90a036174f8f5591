"""Kernel detection for 1D piecewise-constant fourth-order configurations.

On an interval split by one or two material interfaces, a clamped field whose
weighted fourth-order operator vanishes is piecewise cubic.  One segment model
serves both domains: the segments alternate coefficient 1 and kappa from the
left, and value, slope, sigma v'' and sigma v''' are continuous at each inner
breakpoint.  An end segment is spanned by (x - end)^3 and (x - end)^2, so it
is clamped at that end; an inner segment by 1 up to (x - mid)^3 about its
midpoint.  Interface matching reduces the kernel question to a small dense
system M0 + kappa M1, singular exactly at a critical contrast; the contrasts
have closed forms, and an independent eigenvalue oracle recovers them without
those forms.  A domain class gives only its breakpoints and closed forms.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import NumericalFailure

__all__ = [
    "TwoSegmentDomain",
    "ThreeSegmentDomain",
    "PiecewiseCubic",
    "ContrastRoots",
    "build_kernel_system",
    "kernel_basis",
    "scan_critical_contrasts",
]

# relative distance to a closed-form critical contrast within which a
# contrast is critical
_CRITICAL_TOL = 1e-6


@dataclass(frozen=True)
class TwoSegmentDomain:
    """Interval (a, b) with the material interface fixed at 0."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < 0.0 < self.b:
            raise ValueError(f"need a < 0 < b, got a={self.a}, b={self.b}")

    @property
    def breakpoints(self) -> tuple:
        return (self.a, 0.0, self.b)

    def critical_contrasts(self) -> ContrastRoots:
        """Both closed-form critical contrasts of the ratio t = b/a < 0, sorted;
        NumericalFailure when one is not a finite, normal float."""
        t = self.b / self.a
        base = 2.0 - 3.0 * t + 2.0 * t * t
        root = 2.0 * abs(t - 1.0) * math.sqrt(t * t - t + 1.0)
        # (base - root) t without the cancellation as t -> 0: base^2 - root^2 = t^2;
        # the larger, about 4 t^3, overflows once |t| passes about 3.5e102, and the
        # smaller, about t^3 / 4, is subnormal once |t| drops below about 4.47e-103
        return _closed_form((base + root) * t, t * t / (base + root) * t, f"t = {t}")


@dataclass(frozen=True)
class ThreeSegmentDomain:
    """Interval (-1, 1) with inner segment (-delta, delta)."""

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    @property
    def breakpoints(self) -> tuple:
        return (-1.0, -self.delta, self.delta, 1.0)

    def critical_contrasts(self) -> ContrastRoots:
        """Critical contrasts delta^3/(delta^3 - 1) and delta/(delta - 1), sorted;
        NumericalFailure when one is not a finite, normal float."""
        d = self.delta
        # delta^3 is subnormal once delta drops below about 2.81e-103
        return _closed_form(d ** 3 / (d ** 3 - 1.0), d / (d - 1.0), f"delta = {d}")


@dataclass(frozen=True)
class ContrastRoots:
    roots: tuple


def _closed_form(r1: float, r2: float, where: str) -> ContrastRoots:
    """The two closed-form contrasts, sorted; NumericalFailure unless each is a
    finite, normal float."""
    for r in (r1, r2):
        if not (math.isfinite(r) and abs(r) >= sys.float_info.min):
            raise NumericalFailure(f"a critical contrast at {where} is not a finite, normal float: {r}")
    return ContrastRoots(roots=tuple(sorted((r1, r2))))


Domain = Union[TwoSegmentDomain, ThreeSegmentDomain]


def _segments(breakpoints: tuple) -> list:
    """(ref, powers) of each segment's basis (x - ref)^p, in column order: an
    end segment has powers (3, 2) about that end, an inner one 0 to 3 about
    its midpoint."""
    last = len(breakpoints) - 2
    return [(lo, (3, 2)) if s == 0 else (hi, (3, 2)) if s == last else (0.5 * (lo + hi), (0, 1, 2, 3))
            for s, (lo, hi) in enumerate(zip(breakpoints[:-1], breakpoints[1:]))]


def build_kernel_system(dom: Domain, kappa) -> np.ndarray:
    """Interface-condition matrix whose null vectors are kernel fields.

    Columns are the coefficients of each segment's basis, segment by segment
    from the left; rows are the jumps (left minus right) of v, v', sigma v''
    and sigma v''' at each inner breakpoint in turn, sigma being 1 on the
    even segments and kappa on the odd ones.  The system is M0 + kappa M1,
    M1 holding the sigma-weighted entries of the odd segments.  An array of
    contrasts gives the stack of their matrices, contrast axes first.
    """
    k = np.asarray(kappa, dtype=float)
    if np.any(k == 0.0):
        raise ValueError("kappa must be nonzero")
    M0, M1 = _pencil(dom)
    # in place: one stack-sized array, not a second one for the sum
    out = k[..., None, None] * M1
    out += M0
    return out


def _pencil(dom: Domain) -> tuple:
    """(M0, M1) of the interface system M0 + kappa M1 of build_kernel_system."""
    bps = dom.breakpoints
    segs = _segments(bps)
    first = list(itertools.accumulate((len(powers) for _, powers in segs), initial=0))
    M0, M1 = np.zeros((2, first[-1], first[-1]))
    for i, x in enumerate(bps[1:-1]):
        for s, sign in ((i, 1.0), (i + 1, -1.0)):
            ref, powers = segs[s]
            for order in range(4):
                part = M1 if s % 2 and order >= 2 else M0
                for j, p in enumerate(powers):
                    if order <= p:
                        part[4 * i + order, first[s] + j] = sign * math.perm(p, order) * (x - ref) ** (p - order)
    return M0, M1


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

    def sample(self, n: int = 1001) -> np.ndarray:
        """Columns x, v, v', v'' on a uniform n-point grid over the domain."""
        xs = np.linspace(self.breakpoints[0], self.breakpoints[-1], n)
        return np.column_stack([xs] + [self.derivative(xs, order) for order in (0, 1, 2)])


def _null_vector(M: np.ndarray) -> np.ndarray:
    _, _, vt = np.linalg.svd(M)
    v = vt[-1]
    pivot = int(np.argmax(np.abs(v)))
    return v / v[pivot]


def kernel_basis(dom: Domain, kappa: float) -> Optional[PiecewiseCubic]:
    """Kernel field at a critical contrast, or None at any other contrast.

    kappa is critical when it lies within 1e-6, relative, of one of the
    domain's closed-form contrasts; a closed form that is not a finite,
    normal float raises NumericalFailure.  The field is the SVD null vector
    of the interface system at kappa itself, a piecewise cubic normalized to
    unit largest coefficient.
    """
    if not any(abs(kappa - r) <= _CRITICAL_TOL * abs(r) for r in dom.critical_contrasts().roots):
        return None
    v = iter(_null_vector(build_kernel_system(dom, kappa)).tolist())
    segs = _segments(dom.breakpoints)
    terms = [dict(zip(powers, v)) for _, powers in segs]  # {power: coefficient}
    return PiecewiseCubic(breakpoints=dom.breakpoints, refs=tuple(ref for ref, _ in segs),
                          coeffs=tuple(tuple(t.get(p, 0.0) for p in range(4)) for t in terms))


def scan_critical_contrasts(dom: Domain) -> ContrastRoots:
    """Eigenvalue oracle: every critical contrast, from the interface system
    alone, never the closed forms.

    kappa is critical exactly when -1/kappa is an eigenvalue mu of M0^-1 M1;
    the roots are -1/mu for the real mu > 0, sorted.  M0 is invertible on
    every domain: the sigma v'' and sigma v''' rows fix the even segments,
    then the value and slope rows the rest.  M1, so M0^-1 M1, is zero off the
    odd segment's squared and cubed columns, so its 2x2 block on those
    columns holds every nonzero eigenvalue.  The power basis limits accuracy:
    against a 60-digit closed form the worst relative error seen was 7.4e-13
    for |t| = |b/a| in [0.01, 10], 1.3e-11 in [10, 50], 5.4e-11 in [50, 100]
    and 2.8e-9 at t = -1000, and under 7 ulps on three segments with delta
    in [0.01, 0.99].
    """
    M0, M1 = _pencil(dom)
    cols = np.flatnonzero(M1.any(axis=0))
    mu = np.linalg.eigvals(np.linalg.solve(M0, M1[:, cols])[cols])
    mu = mu.real[(mu.imag == 0.0) & (mu.real > 0.0)]
    return ContrastRoots(roots=tuple(sorted((-1.0 / mu).tolist())))
