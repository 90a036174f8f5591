"""Two-step resolution of the mixed-condition fourth-order problem.

The mixed problem, with sigma * Lap v = 0 on the boundary, splits into two
Dirichlet Poisson solves: an intermediate field from the source, then the
solution from the coefficient-weighted intermediate.  On non-convex polygons
the naive split lands in the relaxed space and misses the finite-energy
solution; adding the right multiple of the corner dual singular fields to the
intermediate restores it.  The pairing matrix of those dual fields decides
solvability: when it degenerates, kernel fields appear and sources must
satisfy compatibility conditions.  The uncorrected, corrected and constrained
solves all run through one split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .errors import NotSolvable, SingularPairingMatrix
from .grid import REENTRANT_APERTURE, Grid2D, corner_polar, solve_poisson_dirichlet

__all__ = [
    "SigmaField",
    "FieldSolution",
    "CornerSingularity",
    "PairingMatrix",
    "two_step_solve",
    "compute_dual_singularity",
    "pairing_weights",
    "singular_coefficient",
    "corrected_two_step_solve",
    "assemble_pairing_matrix",
    "kernel_fields",
    "kernel_residual",
    "constrained_solve",
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


# -- corner dual singular fields ---------------------------------------------


@dataclass(frozen=True)
class CornerSingularity:
    """Dual singular field of one reentrant corner.

    ``dual`` spans the obstruction to solving the intermediate Poisson step in
    full strength: it vanishes on the boundary, is discrete-harmonic away from
    its corner, and decays like r^(-2/3) into the domain.  It does not depend
    on sigma; the sigma-weighted pairings of dual fields form the PairingMatrix.
    """

    corner_index: int
    dual: np.ndarray


def compute_dual_singularity(grid: Grid2D, corner_index: int) -> CornerSingularity:
    """Dual field of the given corner: singular leading term plus harmonic lift.

    The leading term r^(-mu) sin(mu*theta), mu = pi/(3*pi/2) = 2/3, vanishes
    on the two corner edges; its trace on the remaining boundary is lifted by a
    discrete harmonic solve so the total vanishes on the whole boundary.
    """
    corner = grid.corners[corner_index]
    mu = math.pi / REENTRANT_APERTURE
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


def singular_coefficient(
    grid: Grid2D, g: np.ndarray, singularity: CornerSingularity
) -> float:
    """Strength of the corner singularity excited by the source g.

    Corner-excluded quadrature of g times the dual field, scaled by -1/pi;
    drops to the quadrature floor exactly when the corrected intermediate is
    used.
    """
    return float(-np.sum(pairing_weights(grid) * g * singularity.dual) / math.pi)


# -- corrected solve ----------------------------------------------------------


@dataclass(frozen=True)
class PairingMatrix:
    """Symmetric matrix of sigma-weighted dual-field pairings with rank data,
    and the arrays it pairs: ``sinv`` (1/sigma at the nodes), ``weights`` (the
    corner-excluded pairing weights) and ``duals`` (the dual fields, in order).
    Entry (i, j) is sum(weights * sinv * duals[i] * duals[j]); ``tol`` is the
    relative rank tolerance behind ``kernel_dim``."""

    matrix: np.ndarray
    singular_values: np.ndarray
    kernel_dim: int
    kernel_basis: np.ndarray  # (kernel_dim, N) rows spanning the kernel
    tol: float
    sinv: np.ndarray
    weights: np.ndarray
    duals: tuple


def assemble_pairing_matrix(
    grid: Grid2D,
    sigma: SigmaField,
    singularities: Sequence[CornerSingularity],
) -> PairingMatrix:
    """Pairings (1/sigma * dual_i, dual_j) with an SVD rank estimate.

    Entries are computed once per unordered pair so the matrix is symmetric to
    the last bit.  The kernel dimension counts singular values below 1e-8 times
    the attainable pairing magnitude (the same sums with absolute-value
    integrands), so a 1x1 matrix near zero is correctly flagged singular.
    """
    n = len(singularities)
    if n < 1:
        raise ValueError("need at least one singularity")
    sinv = sigma.inverse_at_nodes(grid)
    w = pairing_weights(grid)
    duals = tuple(s.dual for s in singularities)
    M = np.empty((n, n))
    scale = 0.0
    for i in range(n):
        for j in range(i, n):
            prod = w * sinv * duals[i] * duals[j]
            M[i, j] = M[j, i] = float(np.sum(prod))
            scale = max(scale, float(np.sum(np.abs(prod))))
    _, svals, vt = np.linalg.svd(M)
    kernel = svals <= _RANK_TOL * scale if scale > 0.0 else np.ones_like(svals, bool)
    kdim = int(np.sum(kernel))
    basis = vt[n - kdim:] if kdim else np.empty((0, n))
    return PairingMatrix(matrix=M, singular_values=svals, kernel_dim=kdim, kernel_basis=basis,
                         tol=_RANK_TOL, sinv=sinv, weights=w, duals=duals)


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
    pm = assemble_pairing_matrix(grid, sigma, singularities)
    if pm.kernel_dim > 0:
        raise SingularPairingMatrix(f"pairing matrix has kernel dimension {pm.kernel_dim}")
    return _split(grid, pm.sinv, f, pm.duals, pm.matrix, pm.weights)


def kernel_fields(grid: Grid2D, pairing: PairingMatrix) -> list:
    """One discrete kernel field per pairing-matrix kernel vector.

    Each field solves Lap psi = (1/sigma) * combination, with the combination
    of the pairing's dual fields taken along a kernel basis vector, and 1/sigma
    the one the pairing was assembled with.
    """
    combos = (sum(c * d for c, d in zip(vec, pairing.duals)) for vec in pairing.kernel_basis)
    return [solve_poisson_dirichlet(grid, pairing.sinv * combo)[0] for combo in combos]


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
    f: np.ndarray,
    pairing: PairingMatrix,
    solvability_tol: float = 1e-6,
) -> FieldSolution:
    """Corrected solve that also serves a rank-deficient pairing, modulo kernel fields.

    Sigma and the dual fields are those the pairing was assembled from.  The
    complement of the pairing kernel is picked by column-pivoted QR; dual
    coefficients are solved on that complement only, and ``correction`` holds
    them in the order of the kept fields, with the sign convention of
    FieldSolution.  Sources must be orthogonal to every kernel field within
    solvability_tol (relative), else NotSolvable.
    """
    psis = kernel_fields(grid, pairing)
    w = pairing_weights(grid, exclude_corners=False)  # f and psi are regular
    fnorm = math.sqrt(abs(float(np.sum(w * f * f))))
    for m, psi in enumerate(psis):
        val = float(np.sum(w * f * psi))
        scale = fnorm * math.sqrt(abs(float(np.sum(w * psi * psi)))) + 1e-300
        if abs(val) > solvability_tol * scale:
            raise NotSolvable(
                f"source pairs with kernel field {m}: |<f, psi>| = {abs(val):.3e}"
            )

    keep = len(pairing.duals) - pairing.kernel_dim
    # column-pivoted QR of the pairing matrix picks a well-conditioned complement;
    # pairings along the kernel are already below the rank tolerance
    c = sorted(scipy.linalg.qr(pairing.matrix, mode="r", pivoting=True)[1][:keep])
    duals = [pairing.duals[i] for i in c]
    return _split(grid, pairing.sinv, f, duals, pairing.matrix[np.ix_(c, c)], pairing.weights)
