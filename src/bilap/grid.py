"""Masked uniform grids and the five-point Dirichlet Laplacian.

Domains are grid-aligned polygons given as cell masks over a unit bounding
box.  Nodes with all four touching cells inside are interior unknowns; nodes
touching at least one inside cell otherwise are boundary nodes, where every
solve takes zero Dirichlet data.  Every reentrant corner of such a polygon
opens 3*pi/2 and is a node touched by exactly three mask cells; Grid2D finds
each one in its mask and registers it by its node index (i, j), with a
local polar frame: theta = 0 lies on the corner's vertical edge (+y when the
missing cell is above the node, -y when below) and theta sweeps from there
into the domain, reaching the horizontal edge at 3*pi/2.

Fields are nodal arrays of shape (n + 1, n + 1), in and out of every solve;
the five-point operator acts on them as a slice stencil (``apply_laplacian``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import NumericalFailure

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

    The corner is node (i, j) of its grid, at (nodes[i], nodes[j]).
    ``frame_angle`` is the absolute direction of the boundary edge carrying
    theta = 0, the corner's vertical edge: pi/2 (+y) when the cell missing at
    the node lies above it, -pi/2 (-y) when below.  ``orientation`` +1 sweeps
    counterclockwise into the domain, -1 clockwise; the horizontal edge then
    sits at theta = 3*pi/2.
    """

    frame_angle: float
    orientation: float
    i: int
    j: int


class Grid2D:
    """Uniform square-cell grid over [0,1]^2 masked to a grid-aligned polygon;
    the (n, n) cells are those of the mask, ``nodes`` is the node axis in x
    and y, and ``corners`` the mask's reentrant corners, in ``np.nonzero`` node order."""

    def __init__(self, cell_mask: np.ndarray):
        cell_mask = self.cell_mask = np.asarray(cell_mask, dtype=bool)
        n = self.n = math.isqrt(cell_mask.size)
        if cell_mask.shape != (n, n):
            raise ValueError("square cells over the unit box require an n x n mask")
        self._check_connected()  # also rejects an empty mask
        self.h = 1.0 / n

        # per node, the number of mask cells touching it
        touching = self.touching = self.node_sum(cell_mask.astype(np.int8))
        self.interior = touching == 4
        if not self.interior.any():
            raise ValueError(f"cell mask over {n}x{n} cells has no interior node")
        self.boundary = (touching > 0) & ~self.interior
        self.nodes = np.arange(n + 1) * self.h
        self.corners = tuple(map(self._corner, *np.nonzero(touching == 3)))
        self._factor = None

    def _check_connected(self):
        from scipy.ndimage import label

        labels, count = label(self.cell_mask)
        if count != 1:
            raise ValueError(f"cell mask must be one connected region, found {count} components")

    def _corner(self, i, j) -> ReentrantCorner:
        """The corner at node (i, j), which three of its four cells touch; a
        node on the box's edge touches at most two, so all four are cells."""
        i, j = int(i), int(j)
        above = not (self.cell_mask[i - 1, j] and self.cell_mask[i, j])
        right = not (self.cell_mask[i, j - 1] and self.cell_mask[i, j])
        # from the vertical edge, counterclockwise leads away from the missing
        # cell when it lies above and right, or below and left
        return ReentrantCorner(frame_angle=(0.5 if above else -0.5) * math.pi,
                               orientation=1.0 if above == right else -1.0, i=i, j=j)

    def node_sum(self, cell_values: np.ndarray) -> np.ndarray:
        """Per node, the sum of the values of the mask cells touching it, in
        the values' dtype; each node takes its additions in a fixed order and
        cells off the mask add 0.  The one cell-to-node scatter."""
        pad = np.zeros((self.n + 2, self.n + 2), dtype=cell_values.dtype)
        np.copyto(pad[1:-1, 1:-1], cell_values, where=self.cell_mask)
        # node (i, j) adds cells (i, j), (i-1, j), (i, j-1), (i-1, j-1), in that order
        out = pad[1:, 1:] + pad[:-1, 1:]
        out += pad[1:, :-1]
        out += pad[:-1, :-1]
        return out

    # -- linear algebra -----------------------------------------------------

    def laplacian(self):
        """Five-point Laplacian on the interior unknowns, in ``np.nonzero(interior)``
        order, as a scipy.sparse CSR matrix (boundary rows eliminated).

        No solve path uses it: it is the tests' sparse reference, and a name
        the benchmark tracer wraps.  Built anew on every call.
        """
        import scipy.sparse

        # second differences along each axis over all nodes; keeping only the
        # interior rows and columns eliminates the boundary nodes
        m = self.n + 1
        d2 = scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m))
        eye = scipy.sparse.identity(m)
        lap = (scipy.sparse.kron(d2, eye) + scipy.sparse.kron(eye, d2)).tocsr() / (self.h * self.h)
        keep = np.flatnonzero(self.interior)
        return lap[keep][:, keep]

    def factor(self):
        """Solver for the Dirichlet Laplacian, built once per grid:
        ``factor().solve(b)`` takes a nodal array b, zero off the interior
        nodes, and returns the nodal u, zero off them, with
        ``apply_laplacian(u) = b`` at every interior node.

        A capacitance method (Buzbee, Dorr, George and Golub 1971; Proskurowski
        and Widlund 1976): a DST-I solve on the unit square's (n-1)^2 interior
        nodes, corrected to vanish on Gamma, the mask's boundary nodes strictly
        inside the square.  Its dense K x K capacitance matrix, K = |Gamma|,
        is read from one 2D DCT-I of the square's inverse eigenvalues, one
        table per grid line that holds Gamma, in O(n^2 log n + K^2) work on
        a Gamma of a few lines, and Cholesky-factored.  A solve takes two
        2D DST-I transforms, and reads the fast solve on Gamma, and spreads
        its correction, along the few grid lines that hold Gamma.
        """
        if self._factor is None:
            self._factor = _CapacitanceSolver(self)
        return self._factor

    def apply_laplacian(self, nodal: np.ndarray) -> np.ndarray:
        """Five-point Laplacian of a full nodal field, at interior nodes (zero elsewhere)."""
        return np.pad(np.where(self.interior[1:-1, 1:-1], self._stencil(nodal), 0.0), 1)

    def _stencil(self, nodal: np.ndarray) -> np.ndarray:
        """The five-point Laplacian at the square's (n-1)^2 inner nodes, in a new array."""
        lap = nodal[2:, 1:-1] + nodal[:-2, 1:-1]
        lap += nodal[1:-1, 2:]
        lap += nodal[1:-1, :-2]
        lap -= 4.0 * nodal[1:-1, 1:-1]
        lap /= self.h * self.h
        return lap


class _CapacitanceSolver:
    """Dirichlet Poisson solves on a masked grid through fast solves on the
    unit square.

    Lap_R, the five-point Laplacian on the square's (n-1)^2 interior nodes,
    is S D S with S the orthonormal DST-I, s_k(i) = sqrt(2/n) sin(k pi i/n),
    and D = ``inv_eig`` = -h^2/(lam_k + lam_l), lam_k = 4 sin^2(k pi/2n).
    A solve places b on the mask's interior nodes and returns
    u = S (y + D S P^T q), y = D S b, with C q = -P S y, C = P Lap_R^-1 P^T
    and P the restriction to Gamma, held in (line, along) order (below).
    Then u vanishes on Gamma, and on the mask's interior nodes, whose
    neighbours lie in the mask, on Gamma or on the square's edge, it solves
    the masked system.  One correction round suffices: C is exact to
    rounding, so what is left on Gamma is the fast solves' own rounding,
    which a second round does not reduce.

    S is a DST-I along each axis.  Gamma is covered by grid lines: each of
    its nodes goes to its row (fixed x index) when that row holds more of
    Gamma than the node's column, else to its column, which gives 2 lines on
    the L and 3 on the notched square at every n.  Along row i, S y is the
    DST of s(i)^T y, and along column j the DST of y s(j), with s(i) the
    vector s_k(i) over k; so P S y is one product per line and a 1D DST of
    each.  With q_m the part of q on line m, S P^T q is the sum of
    s(i) (S q_m)^T over the rows and (S q_m) s(j)^T over the columns, one
    product of rank the number of lines.  A solve takes two 2D transforms,
    where the fast solves of y and of P^T q would take four.  A staircase
    Gamma needs about as many lines as it has columns, and its products
    then cost about what the transforms they replace do.

    C is read one line at a time, each line's rows from one table of up to
    (n+1)^2 values (``_capacitance``); a Gamma of many lines pays for a
    table each.  All of its dense algebra, the products along the lines,
    the Cholesky factor and the solves with it, runs in scipy's BLAS (the
    transforms and C's reads call none).  numpy's and scipy's wheels each
    bundle an OpenBLAS with a thread pool of its own; a product in numpy's
    next to a factorisation in scipy's puts both pools' threads on the same
    cores, and they oversubscribe them.
    """

    def __init__(self, grid: Grid2D):
        from scipy.fft import dst, dstn
        from scipy.linalg import cho_factor, cho_solve
        from scipy.linalg.blas import dgemm

        self.dst, self.dstn, self.cho_solve, self.dgemm = dst, dstn, cho_solve, dgemm
        n = grid.n
        self.shape = grid.interior.shape
        self.inside = grid.interior[1:-1, 1:-1]
        theta = np.arange(1, n) * (math.pi / (2 * n))
        lam = 4.0 * np.sin(theta) ** 2
        self.inv_eig = -(grid.h * grid.h) / (lam[:, None] + lam[None, :])
        gi, gj = self.gi, self.gj = np.nonzero(grid.boundary[1:-1, 1:-1])
        self.chol = None
        if len(gi):
            # each node of Gamma goes to its row (fixed x index) when that
            # holds more of Gamma than its column, else to its column
            on_row = np.bincount(gi)[gi] > np.bincount(gj)[gj]
            rows, cols = np.unique(gi[on_row]), np.unique(gj[~on_row])
            self.rows = len(rows)
            # per node, its line, rows first, and its place along that line;
            # Gamma is held in (line, along) order
            line = np.where(on_row, np.searchsorted(rows, gi), len(rows) + np.searchsorted(cols, gj))
            along = np.where(on_row, gj, gi)
            order = np.lexsort((along, line))
            self.gi, self.gj, self.line, self.along = gi[order], gj[order], line[order], along[order]
            at = np.concatenate([rows, cols])
            # s_k at each line, one F-contiguous column per line
            self.sines = np.asfortranarray(_sines(n, at + 1))
            self.chol = cho_factor(_capacitance(self.inv_eig, self.rows, self.gi, self.gj, self.line),
                                   overwrite_a=True)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Nodal u, zero off the interior nodes, from b zero off them, as
        solve_poisson_dirichlet passes it.  (Gamma parts the interior nodes
        from the rest, so b there would move u only by rounding.)"""
        dst, dstn, dgemm = self.dst, self.dstn, self.dgemm
        t = dstn(b[1:-1, 1:-1], type=1, norm="ortho")
        if self.chol is not None:
            y = t * self.inv_eig
            r, sines = self.rows, self.sines
            # S y along each line: s(i)^T y along row i, y s(j) along column
            # j, each then a DST along the line; y.T is y's F-contiguous view
            on_lines = np.empty_like(sines)
            on_lines[:, :r] = dgemm(1.0, y.T, sines[:, :r])
            on_lines[:, r:] = dgemm(1.0, y.T, sines[:, r:], trans_a=True)
            on_lines = dst(on_lines, type=1, norm="ortho", axis=0, overwrite_x=True)
            # check_finite=False spares a scan of the K x K factor per solve
            q = self.cho_solve(self.chol, on_lines[self.along, self.line], check_finite=False)
            spread = np.zeros_like(sines)
            spread[self.along, self.line] = q
            spread = dst(spread, type=1, norm="ortho", axis=0, overwrite_x=True)
            # S P^T q = [s_rows | S q_cols] [S q_rows | s_cols]^T, added to t
            # in place as its transpose, whose F-contiguous view is t.T; then
            # D t = y + D S P^T q
            left = sines.copy(order="F")
            left[:, r:] = spread[:, r:]
            spread[:, r:] = sines[:, r:]
            dgemm(1.0, spread, left, beta=1.0, c=t.T, trans_b=True, overwrite_c=True)
        t *= self.inv_eig
        u = np.zeros(self.shape)
        np.copyto(u[1:-1, 1:-1], dstn(t, type=1, norm="ortho", overwrite_x=True),
                  where=self.inside)
        return u


def _sines(n: int, i: np.ndarray) -> np.ndarray:
    """s_k(i) = sqrt(2/n) sin(k pi i/n), k = 1 .. n - 1 down the rows, one
    column per index in i: the orthonormal DST-I's columns at i."""
    table = np.sin(np.arange(2 * n) * (math.pi / n))
    return math.sqrt(2.0 / n) * table[np.outer(np.arange(1, n), i) % (2 * n)]


def _capacitance(inv_eig: np.ndarray, rows: int, gi: np.ndarray, gj: np.ndarray,
                 line: np.ndarray) -> np.ndarray:
    """-C = -P Lap_R^-1 P^T over Gamma's nodes in (line, along) order: node p
    is inner node (gi[p], gj[p]) of the square, on line line[p], a row (fixed
    x index) for the first ``rows`` lines and a column for the rest.

    With s_k(a) s_k(b) = (cos(k pi (a - b)/n) - cos(k pi (a + b)/n))/n along
    each axis, -Lap_R^-1 between nodes (x, y) and (x', y') is

        F(|x - x'|, |y - y'|) - F(|x - x'|, sy) - F(sx, |y - y'|) + F(sx, sy),

    sx = x + x', sy = y + y', with F the 2D DCT-I of D = ``inv_eig`` padded
    with a zero border, times -1/(4 n^2), held for 0 <= a, b <= n; a sum
    past n is read at 2n - sum, as F(2n - a, b) = F(a, b).  A row at x = c
    takes, over the distinct x' = u of the nodes from its first on, one
    table T(u, .) = F(|c - u|, .) - F(c + u, .), and its node at y against
    node (x', y') reads T(x', |y - y'|) - T(x', y + y').  D is symmetric,
    so F is too, and a column reads F as a row does, x and y swapped.  The
    entries below a line's block are the mirror of those beside it, so -C is
    symmetric to the last bit.
    """
    from scipy.fft import dctn

    n = len(inv_eig) + 1
    F = np.zeros((n + 1, n + 1))
    np.multiply(inv_eig, -0.25 / (n * n), out=F[1:-1, 1:-1])
    F = dctn(F, type=1, overwrite_x=True)

    def fold(s):  # n - |n - s|, in place of the sums s
        s -= n
        np.abs(s, out=s)
        return np.subtract(n, s, out=s)

    x, y = gi + 1, gj + 1
    ends = np.searchsorted(line, np.arange(line[-1] + 2))
    C = np.empty((len(line), len(line)))
    for m, (p0, p1) in enumerate(zip(ends[:-1], ends[1:])):
        across, along = (x, y) if m < rows else (y, x)
        c = across[p0]
        u, at = np.unique(across[p0:], return_inverse=True)
        T = F[np.abs(c - u)]
        T -= F[fold(c + u)]
        # flat indices into T of |a - a'| and a + a' at the row of node a'
        a, a2, row = along[p0:p1, None], along[p0:], at * (n + 1)
        diff, summ = np.abs(a - a2), fold(a + a2)
        diff += row
        summ += row
        np.subtract(T.take(diff), T.take(summ), out=C[p0:p1, p0:])
        C[p1:, p0:p1] = C[p0:p1, p1:].T
    return C


def corner_polar(grid: Grid2D, corner: ReentrantCorner):
    """Nodal polar coordinates (r, theta) in the corner's local frame: r = 0
    at the corner node, and theta in [0, 2*pi) with +0.0 on its vertical
    edge, both exactly.

    theta = orientation * (phi - frame_angle), phi from np.arctan2, lies in
    [-3*pi/2, 3*pi/2]; adding 2*pi where it is negative and +0.0 elsewhere
    is np.mod(theta, 2*pi) to the last bit, and turns the -0.0 that a
    clockwise frame gives on its vertical edge into +0.0, as np.mod does."""
    nodes = grid.nodes
    dx, dy = nodes[:, None] - nodes[corner.i], nodes[None, :] - nodes[corner.j]
    r = np.hypot(dx, dy)
    theta = np.arctan2(dy, dx)
    theta -= corner.frame_angle
    theta *= corner.orientation
    theta += np.where(theta < 0.0, 2.0 * math.pi, 0.0)
    return r, theta


def _norm(values: np.ndarray, scale: float) -> float:
    """Euclidean norm of values / scale, summed by numpy itself: np.linalg.norm
    calls numpy's BLAS, whose thread pool is not the one of scipy's BLAS that
    the solve runs in; the two pools' threads oversubscribe the cores, and a
    call can stall for milliseconds.  No square overflows when scale is at
    least max|values|."""
    scaled = values.ravel() / scale
    return math.sqrt(float(np.einsum("i,i->", scaled, scaled)))


def _residual(grid: Grid2D, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """b - Lap u at the interior nodes, in np.nonzero(grid.interior) order."""
    lap = grid._stencil(u)
    return np.subtract(b[1:-1, 1:-1], lap, out=lap)[grid.interior[1:-1, 1:-1]]


def solve_poisson_dirichlet(grid: Grid2D, rhs: np.ndarray):
    """Solve the five-point system Lap u = rhs with zero Dirichlet data.

    ``rhs`` is a full nodal array, read at the interior nodes; the returned
    (u, residual) has u zero on the boundary and outside the domain.  A
    solve that misses the residual target 1e-10 relative to ||rhs|| is
    refined once with its residual; NumericalFailure is raised when rhs
    holds a nan or an inf at an interior node, when the refined solve still
    misses the target, or when the residual is not a number.
    """
    b = np.where(grid.interior, rhs, 0.0)
    # both norms over one scale, max|b|, so that no square overflows; b = 0
    # leaves r = 0
    scale = float(np.abs(b).max()) or 1.0
    if not math.isfinite(scale):
        raise NumericalFailure("Poisson right-hand side holds a nan or an inf")
    solver = grid.factor()
    u = solver.solve(b)
    r = _residual(grid, b, u)
    bnorm = max(_norm(b, scale), 1e-300)
    residual = _norm(r, scale) / bnorm
    if not residual <= _RESIDUAL_TOL:
        # one step of iterative refinement: the fast solves' rounding leaves
        # a residual that grows about 4x per doubling of n and crosses the
        # target near n = 2048
        step = np.zeros_like(b)
        step[grid.interior] = r
        u += solver.solve(step)
        residual = _norm(_residual(grid, b, u), scale) / bnorm
    if not residual <= _RESIDUAL_TOL:  # a nan residual fails too
        raise NumericalFailure(f"Poisson residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e}")
    return u, residual


# -- domain constructors ----------------------------------------------------


def rectangle_grid(n: int) -> Grid2D:
    """Unit square, no reentrant corners."""
    return Grid2D(np.ones((n, n), dtype=bool))


def lshape_grid(n: int) -> Grid2D:
    """Unit square minus the closed quadrant [1/2,1] x [1/2,1]; one corner.

    Grid2D finds the corner at node (n/2, n/2), (1/2, 1/2) up to the rounding
    of the node axis.  Its missing cell lies above and right, so theta = 0
    lies on the +y edge and sweeps counterclockwise through the domain to the
    +x edge (frame_angle pi/2, orientation +1).
    """
    if n % 2:
        raise ValueError("lshape grid needs even n")
    mask = np.ones((n, n), dtype=bool)
    idx = np.arange(n)
    mask[np.ix_(idx >= n // 2, idx >= n // 2)] = False
    return Grid2D(mask)


def notched_grid(n: int) -> Grid2D:
    """Unit square minus the slot [3/8,5/8] x [1/2,1]; two mirrored corners.

    Grid2D finds them at nodes (3n/8, n/2) and (5n/8, n/2), left first.  Both
    take theta = 0 on their +y edge; the left corner sweeps counterclockwise
    (orientation +1, as on the lshape), the right one clockwise (-1), so the
    two frames are mirror images under x -> 1 - x.
    """
    if n % 8 or n < 16:
        raise ValueError("notched grid needs n divisible by 8 and at least 16")
    mask = np.ones((n, n), dtype=bool)
    idx = np.arange(n)
    mask[np.ix_((idx >= 3 * n // 8) & (idx < 5 * n // 8), idx >= n // 2)] = False
    return Grid2D(mask)
