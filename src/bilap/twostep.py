"""Two-step resolution of the mixed-condition fourth-order problem.

The mixed problem, with sigma * Lap v = 0 on the boundary, splits into two
Dirichlet Poisson solves: an intermediate field from the source, then the
solution from the coefficient-weighted intermediate.  On non-convex polygons
the naive split lands in the relaxed space and misses the finite-energy
solution; adding the right multiple of the corner dual singular fields to the
intermediate restores it.  The pairing matrix of those dual fields decides
solvability: when it is rank deficient, the corrected solve does not apply
and raises SingularPairingMatrix.  The uncorrected and corrected solves both
run through one split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import SingularPairingMatrix
from .grid import REENTRANT_APERTURE, Grid2D, corner_polar, solve_poisson_dirichlet

__all__ = [
    "SigmaField",
    "FieldSolution",
    "CornerSingularity",
    "PairingMatrix",
    "two_step_solve",
    "compute_dual_singularity",
    "pairing_weights",
    "corrected_two_step_solve",
    "assemble_pairing_matrix",
]

EXCLUSION_RADIUS_CELLS = 4.0
_RANK_TOL = 1e-8
_SIGMA_MIN = 1e-12


@dataclass(frozen=True)
class SigmaField:
    """Cellwise coefficient, finite and bounded away from zero in absolute value."""

    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=float)
        object.__setattr__(self, "cells", cells)
        if not np.all(np.isfinite(cells) & (np.abs(cells) >= _SIGMA_MIN)):
            raise ValueError(f"sigma must be finite with |sigma| >= {_SIGMA_MIN:g} everywhere")

    @classmethod
    def constant(cls, grid: Grid2D, value: float = 1.0) -> "SigmaField":
        return cls(np.full(grid.cell_mask.shape, value))

    def inverse_at_nodes(self, grid: Grid2D) -> np.ndarray:
        """1/sigma transferred cell-to-node by arithmetic mean over touching
        cells, 0 at nodes off the mask: the one way sigma reaches the nodes."""
        total = grid.node_sum(1.0 / self.cells)
        return np.divide(total, grid.touching, out=np.zeros_like(total), where=grid.touching > 0)


@dataclass(frozen=True)
class FieldSolution:
    """Intermediate and final fields of a two-step solve with solver residuals:
    Lap v = (1/sigma) p, and a corrected solve has p = p0 + sum_i correction[i]
    * dual_i with Lap p0 = f (uncorrected: p = p0 and correction is None)."""

    p: np.ndarray
    v: np.ndarray
    residual_p: float
    residual_v: float
    correction: Optional[np.ndarray] = None


def two_step_solve(grid: Grid2D, sigma: SigmaField, f: np.ndarray) -> FieldSolution:
    """Uncorrected split: Lap p = f, then Lap v = (1/sigma) p.

    On a non-convex mask this yields the relaxed-space solution, which need
    not coincide with the finite-energy one.
    """
    return _split(grid, sigma.inverse_at_nodes(grid), f)


def _split(grid: Grid2D, sinv: np.ndarray, f: np.ndarray, pm=None) -> FieldSolution:
    """Lap p0 = f; given a PairingMatrix ``pm``, p = p0 + sum_i c_i dual_i with c
    zeroing each sum(pm.ws * p * dual_i); then Lap v = sinv * p."""
    p, res_p = solve_poisson_dirichlet(grid, f)
    coeff = None
    if pm is not None:
        rhs = np.array([-_pair(pm.ws, d, p) for d in pm.duals])
        coeff = np.linalg.solve(pm.matrix, rhs)
        p = p + sum(a * d for a, d in zip(coeff, pm.duals))
    v, res_v = solve_poisson_dirichlet(grid, sinv * p)
    return FieldSolution(p=p, v=v, residual_p=res_p, residual_v=res_v, correction=coeff)


# -- corner dual singular fields ---------------------------------------------


@dataclass(frozen=True)
class CornerSingularity:
    """Dual singular field of one reentrant corner.

    ``dual`` spans the obstruction to solving the intermediate Poisson step in
    full strength: it vanishes on the boundary, is discrete-harmonic away from
    its corner, and decays like r^(-2/3) into the domain.  It does not depend
    on sigma; the sigma-weighted pairings of dual fields form the PairingMatrix.
    """

    dual: np.ndarray


def compute_dual_singularity(grid: Grid2D, corner_index: int) -> CornerSingularity:
    """Dual field of the given corner: singular leading term plus harmonic lift.

    The leading term r^(-mu) sin(mu*theta), mu = pi/(3*pi/2) = 2/3, vanishes
    on the two corner edges; its trace on the remaining boundary is lifted by a
    discrete harmonic field so the total vanishes on the whole boundary.  The
    lift is one zero-data solve whose rhs is the stencil's share of that trace
    at each interior node.  (The zero-data solve with rhs Lap(leading) gives
    the same field in exact arithmetic, but its rhs is of order h^(-8/3) at
    the corner, and in doubles it is about ten times less accurate.)

    The leading term is formed in place over corner_polar's two arrays.  The
    corner node, the only node with r = 0, where r^(-mu) is inf, is set
    to 0.
    """
    corner = grid.corners[corner_index]
    mu = math.pi / REENTRANT_APERTURE
    leading, theta = corner_polar(grid, corner)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.power(leading, -mu, out=leading)
        theta *= mu
        leading *= np.sin(theta, out=theta)
    leading[corner.i, corner.j] = 0.0
    rhs = grid.apply_laplacian(np.where(grid.boundary, leading, 0.0))
    dual, _ = solve_poisson_dirichlet(grid, rhs)
    np.add(dual, leading, out=dual, where=grid.interior)
    return CornerSingularity(dual=dual)


def _pair(ws: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """sum(ws * a * b) over three nodal arrays in one pass, with no product
    array, summed by numpy itself: a dot would run in numpy's BLAS, whose
    thread pool oversubscribes the cores with the one of scipy's BLAS that
    the Poisson solves run in, and can stall for milliseconds."""
    return float(np.einsum("ij,ij,ij->", ws, a, b))


def pairing_weights(grid: Grid2D) -> np.ndarray:
    """Nodal weights of the cellwise trapezoid rule over the mask, less the
    cells whose centers fall within R = EXCLUSION_RADIUS_CELLS mesh widths of
    a registered corner, decided on cell indices as one pattern at every n:
    near corner node (i, j), cell (a, b) goes when (2(a - i) + 1)^2 +
    (2(b - j) + 1)^2 < (2R)^2, its center's distance in half widths squared.

    Each kept cell gives a quarter of its area to each of its four nodes: the
    weights are the kept-cell count per node, scattered as int8, times h^2/4,
    in a new array on every call.  They do not depend on sigma.
    Integrands built from dual fields behave like r^(-4/3) near a corner; the
    exclusion keeps every evaluation finite, and its error vanishes under
    refinement.  On an lshape grid with n <= 6 every cell is dropped, so the
    pairing matrix is zero and a corrected solve raises SingularPairingMatrix.
    """
    keep = grid.cell_mask.astype(np.int8)
    # a dropped cell lies within this many indices of its corner node
    reach = math.ceil(EXCLUSION_RADIUS_CELLS)
    for c in grid.corners:
        si = slice(max(c.i - reach, 0), min(c.i + reach, grid.n))
        sj = slice(max(c.j - reach, 0), min(c.j + reach, grid.n))
        # each cell center's offset from the corner, in half mesh widths
        a = 2 * (np.arange(si.start, si.stop) - c.i) + 1
        b = 2 * (np.arange(sj.start, sj.stop) - c.j) + 1
        keep[si, sj] &= a[:, None] ** 2 + b ** 2 >= (2.0 * EXCLUSION_RADIUS_CELLS) ** 2
    return grid.node_sum(keep) * (grid.h * grid.h / 4.0)


# -- corrected solve ----------------------------------------------------------


@dataclass(frozen=True)
class PairingMatrix:
    """Symmetric matrix of sigma-weighted dual-field pairings with rank data,
    and the arrays it pairs: ``sinv`` (1/sigma at the nodes), ``ws`` (the
    grid's corner-excluded pairing weights times sinv, formed once per
    assembly) and ``duals`` (the dual fields, in order).  Entry (i, j) is
    sum(ws * duals[i] * duals[j])."""

    matrix: np.ndarray
    singular_values: np.ndarray
    kernel_dim: int
    sinv: np.ndarray
    ws: np.ndarray
    duals: tuple


def assemble_pairing_matrix(
    grid: Grid2D,
    sigma: SigmaField,
    singularities: Sequence[CornerSingularity],
) -> PairingMatrix:
    """Pairings (1/sigma * dual_i, dual_j) with an SVD rank estimate.

    Entries are computed once per unordered pair so the matrix is symmetric to
    the last bit.  The kernel dimension counts singular values below 1e-8 times
    the attainable pairing magnitude, the largest of the same sums with
    absolute-value integrands; by Cauchy-Schwarz that is a diagonal one, so a
    1x1 matrix near zero is correctly flagged singular.
    """
    n = len(singularities)
    if n < 1:
        raise ValueError("need at least one singularity")
    sinv = sigma.inverse_at_nodes(grid)
    ws = pairing_weights(grid) * sinv
    duals = tuple(s.dual for s in singularities)
    M = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            M[i, j] = M[j, i] = _pair(ws, duals[i], duals[j])
    abs_ws = np.abs(ws)
    scale = max(_pair(abs_ws, d, d) for d in duals)
    svals = np.linalg.svd(M, compute_uv=False)
    kernel = svals <= _RANK_TOL * scale if scale > 0.0 else np.ones_like(svals, bool)
    return PairingMatrix(matrix=M, singular_values=svals, kernel_dim=int(np.sum(kernel)),
                         sinv=sinv, ws=ws, duals=duals)


def corrected_two_step_solve(
    grid: Grid2D,
    sigma: SigmaField,
    f: np.ndarray,
    singularities: Sequence[CornerSingularity],
) -> FieldSolution:
    """Two-step solve with the intermediate corrected along the dual fields.

    The correction coefficients solve the pairing system so the corrected
    intermediate is sigma-orthogonal to every dual field, which is exactly the
    membership condition for the finite-energy space.  Raises
    SingularPairingMatrix when the pairing matrix is rank deficient.
    """
    if not singularities:
        return two_step_solve(grid, sigma, f)
    pm = assemble_pairing_matrix(grid, sigma, singularities)
    if pm.kernel_dim > 0:
        raise SingularPairingMatrix(f"pairing matrix has kernel dimension {pm.kernel_dim}")
    return _split(grid, pm.sinv, f, pm)

