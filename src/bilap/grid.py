"""Masked uniform grids and the five-point Dirichlet Laplacian.

Domains are grid-aligned polygons given as cell masks over a unit bounding
box.  Nodes with all four touching cells inside are interior unknowns; nodes
touching at least one inside cell otherwise are boundary nodes carrying
Dirichlet data.  Every reentrant corner of such a polygon opens 3*pi/2 and is
registered with a local polar frame for the singular-function machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

from .errors import FrameError, NumericalFailure

__all__ = [
    "ReentrantCorner",
    "Grid2D",
    "rectangle_grid",
    "lshape_grid",
    "notched_grid",
    "solve_poisson_dirichlet",
    "corner_polar",
]

REENTRANT_APERTURE = 1.5 * math.pi
# relative residual that a factored Poisson solve must reach
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ReentrantCorner:
    """Vertex of interior angle 3*pi/2 (REENTRANT_APERTURE) with a local polar frame.

    ``frame_angle`` is the absolute direction of the boundary edge carrying
    theta = 0; ``orientation`` +1 sweeps counterclockwise into the domain,
    -1 clockwise.  The opposite edge then sits at theta = 3*pi/2.  Grid2D
    rejects a corner whose frame does not place its edges so.
    """

    x: float
    y: float
    frame_angle: float
    orientation: float


class Grid2D:
    """Uniform square-cell grid over [0,1]^2 masked to a grid-aligned polygon;
    the (nx, ny) cells are those of the mask."""

    def __init__(self, cell_mask: np.ndarray, corners=()):
        cell_mask = self.cell_mask = np.asarray(cell_mask, dtype=bool)
        nx, ny = self.nx, self.ny = cell_mask.shape
        if nx != ny:
            raise ValueError("square cells over the unit box require nx == ny")
        self._check_connected()  # also rejects an empty mask
        self.h = 1.0 / nx
        self.corners = tuple(corners)

        padded = np.zeros((nx + 2, ny + 2), dtype=bool)
        padded[1:-1, 1:-1] = cell_mask
        touching = (
            padded[:-1, :-1].astype(np.int8) + padded[1:, :-1]
            + padded[:-1, 1:] + padded[1:, 1:]
        )
        self.interior = touching == 4
        self.boundary = (touching > 0) & ~self.interior
        self.node_x = np.arange(nx + 1) * self.h
        self.node_y = np.arange(ny + 1) * self.h

        self.index = -np.ones((nx + 1, ny + 1), dtype=np.int64)
        self.ii, self.jj = np.nonzero(self.interior)
        self.index[self.ii, self.jj] = np.arange(len(self.ii))
        self.n_interior = len(self.ii)
        self._validate_corners()
        self._laplacian = None
        self._factor = None

    def _check_connected(self):
        from scipy.ndimage import label

        labels, count = label(self.cell_mask)
        if count != 1:
            raise ValueError(f"cell mask must be one connected region, found {count} components")

    def _validate_corners(self):
        for c in self.corners:
            i = round(c.x / self.h)
            j = round(c.y / self.h)
            if abs(i * self.h - c.x) > 1e-12 or abs(j * self.h - c.y) > 1e-12:
                raise ValueError(f"corner ({c.x}, {c.y}) is not a grid node")
            cells = [
                self.cell_mask[i + di, j + dj]
                for di, dj in ((-1, -1), (0, -1), (-1, 0), (0, 0))
                if 0 <= i + di < self.nx and 0 <= j + dj < self.ny
            ]
            if len(cells) != 4 or sum(cells) != 3:
                raise ValueError(
                    f"corner ({c.x}, {c.y}) does not open 3*pi/2 on this mask"
                )
            _frame_check(self, c)

    # -- linear algebra -----------------------------------------------------

    def laplacian(self) -> sparse.csr_matrix:
        """Five-point Laplacian on interior unknowns (boundary rows eliminated)."""
        if self._laplacian is None:
            h2 = self.h * self.h
            n = self.n_interior
            rows = [np.arange(n)]
            cols = [np.arange(n)]
            vals = [np.full(n, -4.0 / h2)]
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nbr = self.index[self.ii + di, self.jj + dj]
                ok = nbr >= 0
                rows.append(np.arange(n)[ok])
                cols.append(nbr[ok])
                vals.append(np.full(ok.sum(), 1.0 / h2))
            self._laplacian = sparse.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(n, n),
            )
        return self._laplacian

    def factor(self):
        """Sparse LU factor of ``laplacian()``, computed once per grid.

        The five-point matrix is symmetric, so the column ordering is minimum
        degree on A^T + A with SymmetricMode (pivots taken from the diagonal,
        the row order following the columns).  SuperLU's default COLAMD
        ignores the symmetry: on notched n=512 it fills L+U with 24.0M entries
        against 13.3M here, and factors and solves accordingly slower.
        """
        if self._factor is None:
            self._factor = splinalg.splu(
                self.laplacian().tocsc(), permc_spec="MMD_AT_PLUS_A",
                options=dict(SymmetricMode=True),
            )
        return self._factor

    def restrict(self, nodal: np.ndarray) -> np.ndarray:
        return nodal[self.ii, self.jj]

    def extend(self, interior_values: np.ndarray,
               boundary_values: Optional[np.ndarray] = None) -> np.ndarray:
        out = np.zeros((self.nx + 1, self.ny + 1))
        out[self.ii, self.jj] = interior_values
        if boundary_values is not None:
            out[self.boundary] = boundary_values[self.boundary]
        return out

    def apply_laplacian(self, nodal: np.ndarray) -> np.ndarray:
        """Five-point Laplacian of a full nodal field, at interior nodes."""
        h2 = self.h * self.h
        i, j = self.ii, self.jj
        lap = (
            nodal[i + 1, j] + nodal[i - 1, j] + nodal[i, j + 1] + nodal[i, j - 1]
            - 4.0 * nodal[i, j]
        ) / h2
        out = np.zeros_like(nodal)
        out[i, j] = lap
        return out

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Discrete L2 pairing h^2 * sum over interior nodes."""
        return float(self.h * self.h * np.sum(a[self.ii, self.jj] * b[self.ii, self.jj]))


def corner_polar(grid: Grid2D, corner: ReentrantCorner):
    """Nodal polar coordinates (r, theta) in the corner's local frame."""
    X, Y = np.meshgrid(grid.node_x, grid.node_y, indexing="ij")
    dx, dy = X - corner.x, Y - corner.y
    r = np.hypot(dx, dy)
    phi = np.arctan2(dy, dx)
    theta = np.mod(corner.orientation * (phi - corner.frame_angle), 2.0 * math.pi)
    return r, theta


def _frame_check(grid: Grid2D, corner: ReentrantCorner):
    """The two boundary edges at the corner must map to theta = 0 and 3*pi/2."""
    r, theta = corner_polar(grid, corner)
    near = (r > 0) & (r <= 2.5 * grid.h) & grid.boundary
    th = theta[near]
    ok0 = np.minimum(th, 2.0 * math.pi - th) < 1e-9
    oka = np.abs(th - REENTRANT_APERTURE) < 1e-9
    if not (np.any(ok0) and np.any(oka) and np.all(ok0 | oka)):
        raise FrameError(
            f"corner frame at ({corner.x}, {corner.y}) does not place its edges "
            "at theta = 0 and theta = 3*pi/2"
        )


def solve_poisson_dirichlet(
    grid: Grid2D,
    rhs: np.ndarray,
    boundary_values: Optional[np.ndarray] = None,
):
    """Solve the five-point system Lap u = rhs with Dirichlet data on the boundary.

    ``rhs`` and the optional ``boundary_values`` are full nodal arrays; the
    returned field carries the boundary data and zeros outside the domain.
    Raises NumericalFailure when the factored solve misses the residual target
    1e-10 relative to ||rhs||, or when the residual is not a number.
    """
    b = grid.restrict(rhs).astype(float).copy()
    if boundary_values is not None:
        h2 = grid.h * grid.h
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = grid.ii + di, grid.jj + dj
            is_bnd = grid.boundary[ni, nj]
            b[is_bnd] -= boundary_values[ni[is_bnd], nj[is_bnd]] / h2
    u = grid.factor().solve(b)
    scale = max(float(np.linalg.norm(b)), 1e-300)
    residual = float(np.linalg.norm(grid.laplacian() @ u - b)) / scale
    if not residual <= _RESIDUAL_TOL:  # a nan residual fails too
        raise NumericalFailure(f"Poisson residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e}")
    return grid.extend(u, boundary_values), residual


# -- domain constructors ----------------------------------------------------


def rectangle_grid(n: int) -> Grid2D:
    """Unit square, no reentrant corners."""
    return Grid2D(np.ones((n, n), dtype=bool))


def lshape_grid(n: int) -> Grid2D:
    """Unit square minus the closed quadrant [1/2,1] x [1/2,1]; one corner.

    At the corner (1/2, 1/2) the boundary edges run along +y and +x; theta = 0
    lies on the +y edge and sweeps counterclockwise through the domain.
    """
    if n % 2:
        raise ValueError("lshape grid needs even n")
    mask = np.ones((n, n), dtype=bool)
    idx = np.arange(n)
    mask[np.ix_(idx >= n // 2, idx >= n // 2)] = False
    corner = ReentrantCorner(x=0.5, y=0.5, frame_angle=0.5 * math.pi, orientation=1.0)
    return Grid2D(mask, corners=(corner,))


def notched_grid(n: int) -> Grid2D:
    """Unit square minus the slot [3/8,5/8] x [1/2,1]; two mirrored corners.

    The left corner's frame matches the lshape convention; the right corner
    sweeps clockwise from its +y edge, so both frames are mirror images under
    x -> 1 - x.
    """
    if n % 8 or n < 16:
        raise ValueError("notched grid needs n divisible by 8 and at least 16")
    mask = np.ones((n, n), dtype=bool)
    idx = np.arange(n)
    mask[np.ix_((idx >= 3 * n // 8) & (idx < 5 * n // 8), idx >= n // 2)] = False
    corners = (
        ReentrantCorner(x=3.0 / 8.0, y=0.5, frame_angle=0.5 * math.pi, orientation=1.0),
        ReentrantCorner(x=5.0 / 8.0, y=0.5, frame_angle=0.5 * math.pi, orientation=-1.0),
    )
    return Grid2D(mask, corners=corners)
