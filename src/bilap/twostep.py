"""Two-step resolution of the mixed-condition fourth-order problem.

The mixed problem splits into two Dirichlet Poisson solves: an intermediate
field from the source, then the solution from the coefficient-weighted
intermediate.  On non-convex polygons the naive split lands in the relaxed
space and misses the finite-energy solution; adding the right multiple of the
corner dual singular field to the intermediate restores it.  The pairing
matrix of those dual fields decides solvability: when it degenerates, kernel
fields appear and sources must satisfy compatibility conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

from .errors import NotSolvable, SingularPairingMatrix
from .grid import Grid2D, corner_polar, solve_poisson_dirichlet

__all__ = [
    "SigmaField",
    "FieldSolution",
    "CornerSingularity",
    "PairingMatrix",
    "two_step_solve",
    "solve_poisson_dirichlet_1d",
    "two_step_solve_1d",
    "compute_dual_singularity",
    "complete_singularity",
    "pairing_weights",
    "singular_pairing",
    "duality_pairing",
    "singular_coefficient",
    "corrected_two_step_solve",
    "assemble_pairing_matrix",
    "kernel_fields",
    "kernel_residual",
    "constrained_solve",
]

EXCLUSION_RADIUS_CELLS = 4.0
_RANK_TOL = 1e-8


@dataclass(frozen=True)
class SigmaField:
    """Cellwise coefficient, bounded away from zero in absolute value."""

    cells: np.ndarray
    sigma_min: float = 1e-12

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=float)
        object.__setattr__(self, "cells", cells)
        if not np.all(np.abs(cells) >= self.sigma_min):
            raise ValueError("sigma must satisfy |sigma| >= sigma_min everywhere")

    @classmethod
    def constant(cls, grid: Grid2D, value: float = 1.0) -> "SigmaField":
        return cls(np.full((grid.nx, grid.ny), value))

    def inverse_at_nodes(self, grid: Grid2D) -> np.ndarray:
        """1/sigma transferred cell-to-node by arithmetic mean over touching cells."""
        return _node_mean(grid, 1.0 / self.cells)

    def at_nodes(self, grid: Grid2D) -> np.ndarray:
        return _node_mean(grid, self.cells)


def _node_sum(grid: Grid2D, cell_values: np.ndarray) -> np.ndarray:
    """Per node, the sum of the values of the mask cells touching it; each node
    takes its additions in a fixed order and cells off the mask add 0.0."""
    vals = np.where(grid.cell_mask, cell_values, 0.0)
    out = np.zeros((grid.nx + 1, grid.ny + 1))
    for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
        out[di:di + grid.nx, dj:dj + grid.ny] += vals
    return out


def _node_mean(grid: Grid2D, cell_values: np.ndarray) -> np.ndarray:
    count = _node_sum(grid, np.ones((grid.nx, grid.ny)))
    total = _node_sum(grid, cell_values)
    return np.divide(total, count, out=np.zeros_like(total), where=count > 0)


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


def _split(grid: Grid2D, sinv: np.ndarray, f: np.ndarray, duals=(), matrix=None,
           w=None) -> FieldSolution:
    """Lap p0 = f; given the pairing ``matrix`` of ``duals``, p = p0 + sum_i c_i dual_i
    with c zeroing each sum(w * sinv * p * dual_i); then Lap v = sinv * p."""
    p, res_p = solve_poisson_dirichlet(grid, f)
    coeff = None
    if matrix is not None:
        rhs = np.array([-np.sum(w * (sinv * p) * d) for d in duals])
        coeff = np.linalg.solve(matrix, rhs)
        p = p + sum(a * d for a, d in zip(coeff, duals))
    v, res_v = solve_poisson_dirichlet(grid, sinv * p)
    return FieldSolution(p=p, v=v, residual_p=res_p, residual_v=res_v, correction=coeff)


# -- 1D twin (clamped interval, same two-step split) -------------------------


def solve_poisson_dirichlet_1d(n: int, rhs_interior: np.ndarray) -> np.ndarray:
    """Second-difference solve of u'' = rhs on (0,1), u(0) = u(1) = 0."""
    h2 = (1.0 / n) ** 2
    m = n - 1
    A = sparse.diags(
        [np.ones(m - 1), np.full(m, -2.0), np.ones(m - 1)], [-1, 0, 1]
    ) / h2
    return splinalg.spsolve(A.tocsc(), rhs_interior)


def two_step_solve_1d(n: int, sigma_cells: np.ndarray, f_interior: np.ndarray):
    """1D two-step split on (0,1); sigma given per cell, averaged to nodes."""
    sigma_cells = np.asarray(sigma_cells, dtype=float)
    if sigma_cells.shape != (n,):
        raise ValueError(f"sigma_cells must have shape ({n},)")
    sinv_nodes = 0.5 * (1.0 / sigma_cells[:-1] + 1.0 / sigma_cells[1:])
    p = solve_poisson_dirichlet_1d(n, f_interior)
    v = solve_poisson_dirichlet_1d(n, sinv_nodes * p)
    return p, v


# -- corner dual singular fields ---------------------------------------------


@dataclass(frozen=True)
class CornerSingularity:
    """Dual singular field of one reentrant corner, plus sigma-dependent extras.

    ``dual`` spans the obstruction to solving the intermediate Poisson step in
    full strength: it vanishes on the boundary, is discrete-harmonic away from
    its corner, and decays like r^(-2/3) into the domain.  ``kernel_candidate``
    solves Lap psi = (1/sigma) dual and ``pairing`` is the sigma-weighted
    self-pairing; both are filled by complete_singularity.
    """

    corner_index: int
    dual: np.ndarray
    kernel_candidate: Optional[np.ndarray] = None
    pairing: Optional[float] = None


def compute_dual_singularity(grid: Grid2D, corner_index: int) -> CornerSingularity:
    """Dual field of the given corner: singular leading term plus harmonic lift.

    The leading term r^(-pi/aperture) sin(pi*theta/aperture) vanishes on the
    two corner edges; its trace on the remaining boundary is lifted by a
    discrete harmonic solve so the total vanishes on the whole boundary.
    """
    corner = grid.corners[corner_index]
    mu = math.pi / corner.aperture
    r, theta = corner_polar(grid, corner)
    with np.errstate(divide="ignore"):
        leading = np.where(r > 0.0, r ** (-mu) * np.sin(mu * theta), 0.0)
    lift_data = -leading
    lift, _ = solve_poisson_dirichlet(
        grid, np.zeros_like(leading), boundary_values=lift_data
    )
    dual = lift + leading
    dual[~grid.interior] = 0.0
    return CornerSingularity(corner_index=corner_index, dual=dual)


def complete_singularity(
    grid: Grid2D, sigma: SigmaField, s: CornerSingularity
) -> CornerSingularity:
    """Attach the sigma-weighted kernel candidate and self-pairing."""
    sinv = sigma.inverse_at_nodes(grid)
    psi, _ = solve_poisson_dirichlet(grid, sinv * s.dual)
    pairing = singular_pairing(grid, sinv * s.dual, s.dual)
    return replace(s, kernel_candidate=psi, pairing=pairing)


def pairing_weights(grid: Grid2D, exclude_corners: bool = True) -> np.ndarray:
    """Nodal weights of the cellwise trapezoid rule over the mask.

    Each kept cell gives a quarter of its area to each of its four nodes.  A
    corrected solve builds them once, for its pairing matrix and its correction.
    With ``exclude_corners`` the cells whose centers fall within four mesh
    widths of a registered corner are dropped: integrands built from dual
    fields behave like r^(-4/3) there and the exclusion error vanishes under
    refinement while keeping every evaluation finite.
    """
    h = grid.h
    keep = grid.cell_mask.copy()
    if exclude_corners and grid.corners:
        cx = (np.arange(grid.nx) + 0.5) * h
        cy = (np.arange(grid.ny) + 0.5) * h
        CX, CY = np.meshgrid(cx, cy, indexing="ij")
        for c in grid.corners:
            keep &= np.hypot(CX - c.x, CY - c.y) >= EXCLUSION_RADIUS_CELLS * h
    return _node_sum(grid, np.where(keep, h * h / 4.0, 0.0))


def singular_pairing(grid: Grid2D, a: np.ndarray, b: np.ndarray) -> float:
    """Corner-excluded trapezoid pairing, for integrands carrying dual fields."""
    return float(np.sum(pairing_weights(grid, exclude_corners=True) * a * b))


def duality_pairing(grid: Grid2D, a: np.ndarray, b: np.ndarray) -> float:
    """Plain cellwise trapezoid pairing for regular integrands."""
    return float(np.sum(pairing_weights(grid, exclude_corners=False) * a * b))


def singular_coefficient(
    grid: Grid2D, g: np.ndarray, singularity: CornerSingularity
) -> float:
    """Strength of the corner singularity excited by the source g.

    Quadrature of g times the dual field, scaled by -1/pi; drops to the
    quadrature floor exactly when the corrected intermediate is used.
    """
    return -singular_pairing(grid, g, singularity.dual) / math.pi


# -- corrected solve ----------------------------------------------------------


@dataclass(frozen=True)
class PairingMatrix:
    """Symmetric matrix of sigma-weighted dual-field pairings with rank data."""

    matrix: np.ndarray
    singular_values: np.ndarray
    kernel_dim: int
    kernel_basis: np.ndarray  # (kernel_dim, N) rows spanning the kernel
    tol: float


def assemble_pairing_matrix(
    grid: Grid2D,
    sigma: SigmaField,
    singularities: Sequence[CornerSingularity],
    tol: float = _RANK_TOL,
) -> PairingMatrix:
    """Pairings (1/sigma * dual_i, dual_j) with an SVD rank estimate.

    Entries are computed once per unordered pair so the matrix is symmetric to
    the last bit.  The kernel dimension counts singular values below tol times
    the attainable pairing magnitude (the same sums with absolute-value
    integrands), so a 1x1 matrix near zero is correctly flagged singular.
    """
    return _pairing_matrix(sigma.inverse_at_nodes(grid), pairing_weights(grid),
                           [s.dual for s in singularities], tol)


def _pairing_matrix(sinv: np.ndarray, w: np.ndarray, duals, tol: float) -> PairingMatrix:
    n = len(duals)
    if n < 1:
        raise ValueError("need at least one singularity")
    M = np.empty((n, n))
    scale = 0.0
    for i in range(n):
        for j in range(i, n):
            prod = w * sinv * duals[i] * duals[j]
            M[i, j] = M[j, i] = float(np.sum(prod))
            scale = max(scale, float(np.sum(np.abs(prod))))
    _, svals, vt = np.linalg.svd(M)
    kernel = svals <= tol * scale if scale > 0.0 else np.ones_like(svals, bool)
    kdim = int(np.sum(kernel))
    basis = vt[n - kdim:] if kdim else np.empty((0, n))
    return PairingMatrix(
        matrix=M, singular_values=svals, kernel_dim=kdim, kernel_basis=basis, tol=tol
    )


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
    SingularPairingMatrix when the pairing matrix is rank deficient; the
    constrained path applies there instead.
    """
    if not singularities:
        return two_step_solve(grid, sigma, f)
    sinv = sigma.inverse_at_nodes(grid)
    w = pairing_weights(grid)
    duals = [s.dual for s in singularities]
    pm = _pairing_matrix(sinv, w, duals, _RANK_TOL)
    if pm.kernel_dim > 0:
        raise SingularPairingMatrix(f"pairing matrix has kernel dimension {pm.kernel_dim}")
    return _split(grid, sinv, f, duals, pm.matrix, w)


def kernel_fields(
    grid: Grid2D,
    sigma: SigmaField,
    singularities: Sequence[CornerSingularity],
    pairing: PairingMatrix,
) -> list:
    """One discrete kernel field per pairing-matrix kernel vector.

    Each field solves Lap psi = (1/sigma) * combination, with the combination
    taken along a kernel basis vector of the pairing matrix.
    """
    sinv = sigma.inverse_at_nodes(grid)
    fields = []
    for vec in pairing.kernel_basis:
        combo = sum(c * s.dual for c, s in zip(vec, singularities))
        psi, _ = solve_poisson_dirichlet(grid, sinv * combo)
        fields.append(psi)
    return fields


def kernel_residual(
    grid: Grid2D, sigma: SigmaField, psi: np.ndarray, test_field: np.ndarray
) -> float:
    """Normalized weak-form residual |(sigma Lap psi, Lap w)| of a kernel candidate.

    Both Laplacians are the discrete five-point ones; the scaling makes the
    value comparable across grids and test fields.
    """
    sig = sigma.at_nodes(grid)
    lap_psi = grid.apply_laplacian(psi)
    lap_w = grid.apply_laplacian(test_field)
    num = abs(grid.inner(sig * lap_psi, lap_w))
    den = math.sqrt(grid.inner(sig * lap_psi, sig * lap_psi)) * math.sqrt(
        grid.inner(lap_w, lap_w)
    )
    return num / max(den, 1e-300)


def constrained_solve(
    grid: Grid2D,
    sigma: SigmaField,
    f: np.ndarray,
    singularities: Sequence[CornerSingularity],
    pairing: PairingMatrix,
    solvability_tol: float = 1e-6,
) -> FieldSolution:
    """Corrected solve that also serves a rank-deficient pairing, modulo kernel fields.

    The complement of the pairing kernel is picked by column-pivoted QR; dual
    coefficients are solved on that complement only, and ``correction`` holds
    them in the order of the kept fields, with the sign convention of
    FieldSolution.  Sources must be orthogonal to every kernel field within
    solvability_tol (relative), else NotSolvable.
    """
    psis = kernel_fields(grid, sigma, singularities, pairing)
    w = pairing_weights(grid, exclude_corners=False)  # the weights of duality_pairing
    fnorm = math.sqrt(abs(float(np.sum(w * f * f))))
    for m, psi in enumerate(psis):
        val = float(np.sum(w * f * psi))
        scale = fnorm * math.sqrt(abs(float(np.sum(w * psi * psi)))) + 1e-300
        if abs(val) > solvability_tol * scale:
            raise NotSolvable(
                f"source pairs with kernel field {m}: |<f, psi>| = {abs(val):.3e}"
            )

    keep = len(singularities) - pairing.kernel_dim
    # column-pivoted QR of the pairing matrix picks a well-conditioned complement;
    # pairings along the kernel are already below the rank tolerance
    c = sorted(scipy.linalg.qr(pairing.matrix, mode="r", pivoting=True)[1][:keep])
    duals = [singularities[i].dual for i in c]
    return _split(grid, sigma.inverse_at_nodes(grid), f, duals, pairing.matrix[np.ix_(c, c)],
                  pairing_weights(grid))
