"""Tests for the masked-grid Poisson solver, dual singular fields, the
corrected two-step solve and the pairing-matrix machinery."""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg as splinalg
from scipy.fft import dstn

from bilap.errors import NumericalFailure, SingularPairingMatrix
from bilap.grid import (
    Grid2D,
    corner_polar,
    lshape_grid,
    notched_grid,
    rectangle_grid,
    solve_poisson_dirichlet,
)
import bilap.grid
import bilap.twostep
from bilap.twostep import (
    SigmaField,
    assemble_pairing_matrix,
    compute_dual_singularity,
    corrected_two_step_solve,
    pairing_weights,
    two_step_solve,
)


def nodal(grid, func):
    X, Y = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    return func(X, Y)


def patch_sigma(grid, t, radius=0.25, center=(0.5, 0.5)):
    """+1 outside a disk of cells around the corner, -t inside."""
    cx = (np.arange(grid.n) + 0.5) * grid.h
    cy = (np.arange(grid.n) + 0.5) * grid.h
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    inside = np.hypot(CX - center[0], CY - center[1]) < radius
    return SigmaField(np.where(inside, -t, 1.0))


def pair(grid, a, b, exclude_corners=True):
    """Trapezoid pairing of two nodal fields, corner-excluded by default;
    otherwise each mask cell gives a quarter of its area to each of its nodes."""
    if exclude_corners:
        return float(np.sum(pairing_weights(grid) * a * b))
    quarter = np.full((grid.n, grid.n), grid.h * grid.h / 4.0)
    return float(np.sum(scatter_reference(grid, grid.cell_mask, quarter) * a * b))


def kernel_candidate(grid, sigma, s):
    """(psi, self-pairing) of one dual field: Lap psi = (1/sigma) dual, and the
    sigma-weighted pairing of the dual field with itself."""
    psi, _ = solve_poisson_dirichlet(grid, sigma.inverse_at_nodes(grid) * s.dual)
    return psi, assemble_pairing_matrix(grid, sigma, [s]).matrix[0, 0]


def square_solve(solver, w):
    """Lap_R^-1 w on the unit square's (n-1)^2 inner nodes: a DST-I, the
    inverse eigenvalues, a DST-I."""
    w = dstn(w, type=1, norm="ortho") * solver.inv_eig
    return dstn(w, type=1, norm="ortho")


def capacitance(solver):
    """C = P Lap_R^-1 P^T over the solver's Gamma, in its order."""
    return -bilap.grid._capacitance(solver.inv_eig, solver.rows, solver.gi, solver.gj, solver.line)


def staircase_grid(n, step):
    """Cells below a staircase of square steps ``step`` cells wide, from the
    top of the left edge to the right of the bottom edge."""
    idx = np.arange(n) // step
    return Grid2D(idx[:, None] + idx[None, :] < n // step)


def disk_grid(n):
    """Cells whose centres lie within 0.45 of the square's centre."""
    c = (np.arange(n) + 0.5) / n - 0.5
    return Grid2D(np.hypot(c[:, None], c[None, :]) < 0.45)


def diamond_grid(n):
    """Cells whose centres lie within 0.45 of the square's centre in the
    1-norm."""
    c = np.abs((np.arange(n) + 0.5) / n - 0.5)
    return Grid2D(c[:, None] + c[None, :] < 0.45)


def strip_grid(n, axis):
    """Cells below 3/4 in x (axis 0) or in y (axis 1): Gamma is one row or
    one column."""
    below = np.arange(n) < 3 * n // 4
    return Grid2D(np.broadcast_to(below[:, None] if axis == 0 else below[None, :], (n, n)))


def lshape_plus_grid(n):
    """The L with its cell (n/2, n/2) restored: Gamma's node (n/2 + 1,
    n/2 + 1) is alone on its column."""
    mask = lshape_grid(n).cell_mask.copy()
    mask[n // 2, n // 2] = True
    return Grid2D(mask)


# the quadrant (x half, y half) that a mask lacks
QUADRANTS = {"below-left": (0, 0), "below-right": (1, 0), "above-left": (0, 1),
             "above-right": (1, 1)}


def lacking_a_quadrant(n, missing):
    """The square's n x n cells less the quadrant ``missing``: one corner,
    at node (n/2, n/2)."""
    a, b = missing
    m = n // 2
    mask = np.ones((n, n), dtype=bool)
    mask[a * m:(a + 1) * m, b * m:(b + 1) * m] = False
    return Grid2D(mask)


# every corner frame: each quadrant-less square, at n = 16 and at n = 98,
# where the middle node is not 1/2, and the CLI's two domains
CORNER_GRIDS = {
    **{f"{name}-{n}": lambda n=n, missing=missing: lacking_a_quadrant(n, missing)
       for n in (16, 98) for name, missing in QUADRANTS.items()},
    "lshape-64": lambda: lshape_grid(64),
    "notched-16": lambda: notched_grid(16),
    "notched-392": lambda: notched_grid(392),
}


def polar_reference(grid, corner):
    """(r, theta) with theta wrapped by np.mod, which corner_polar's in-place
    wrap must equal to the last bit."""
    nodes = grid.nodes
    dx, dy = nodes[:, None] - nodes[corner.i], nodes[None, :] - nodes[corner.j]
    phi = np.arctan2(dy, dx)
    return np.hypot(dx, dy), np.mod(corner.orientation * (phi - corner.frame_angle), 2.0 * math.pi)


def dual_reference(grid, index):
    """The dual field formed from the np.mod polar coordinates with
    np.where passes: r^(-mu) sin(mu theta) off the corner node, its boundary
    trace lifted by one solve, and the term added at the interior nodes."""
    mu = math.pi / bilap.grid.REENTRANT_APERTURE
    r, theta = polar_reference(grid, grid.corners[index])
    with np.errstate(divide="ignore"):
        leading = np.where(r > 0.0, r ** -mu * np.sin(mu * theta), 0.0)
    rhs = grid.apply_laplacian(np.where(grid.boundary, leading, 0.0))
    dual, _ = solve_poisson_dirichlet(grid, rhs)
    return dual + np.where(grid.interior, leading, 0.0)


def scatter_reference(grid, keep, cell_values):
    """Per-cell np.add.at of the kept cells' values onto their four nodes."""
    ci, cj = np.nonzero(keep)
    out = np.zeros((grid.n + 1, grid.n + 1))
    for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
        np.add.at(out, (ci + di, cj + dj), cell_values[ci, cj])
    return out


def assert_frame(grid, corner, up, across, length):
    """The corner's frame against its edges: its vertical edge runs from the
    corner node along ``up`` (+1 or -1 in y), its horizontal edge along
    ``across`` in x, each ``length`` nodes long."""
    i, j = corner.i, corner.j
    r, theta = corner_polar(grid, corner)
    assert r[i, j] == 0.0
    steps = np.arange(1, length + 1)
    vertical = (np.full(length, i), j + up * steps)
    horizontal = (i + across * steps, np.full(length, j))
    assert grid.boundary[vertical].all() and grid.boundary[horizontal].all()
    assert np.all(theta[vertical] == 0.0)
    assert np.allclose(theta[horizontal], 1.5 * math.pi, rtol=0.0, atol=1e-12)
    block = (slice(i - 1, i + 2), slice(j - 1, j + 2))
    inside = theta[block][grid.interior[block]]
    assert len(inside) == 5 and np.all((inside > 0.0) & (inside < 1.5 * math.pi))


class TestGrid:
    def test_masks_rectangle(self):
        g = rectangle_grid(8)
        assert g.interior.sum() == 7 * 7
        assert g.boundary.sum() == 4 * 8 and g.corners == ()

    def test_lshape_corner_registration(self):
        g = lshape_grid(16)
        assert len(g.corners) == 1
        c = g.corners[0]
        assert (g.nodes[c.i], g.nodes[c.j]) == (0.5, 0.5)
        r, theta = corner_polar(g, c)
        i0 = 8
        assert theta[i0, i0 + 2] == pytest.approx(0.0, abs=1e-12)  # +y edge
        assert theta[i0 + 2, i0] == pytest.approx(1.5 * math.pi, rel=1e-12)  # +x edge

    @pytest.mark.parametrize("n", [16, 98])
    @pytest.mark.parametrize("missing", list(QUADRANTS.values()), ids=list(QUADRANTS))
    def test_frames_on_masks_lacking_a_quadrant(self, n, missing):
        # at n = 98 the middle node sits at 0.49999999999999994, not 1/2
        a, b = missing
        m = n // 2
        g = lacking_a_quadrant(n, missing)
        assert [(c.i, c.j) for c in g.corners] == [(m, m)]
        assert_frame(g, g.corners[0], up=2 * b - 1, across=2 * a - 1, length=m)

    @pytest.mark.parametrize("make", list(CORNER_GRIDS.values()), ids=list(CORNER_GRIDS))
    def test_polar_equals_the_np_mod_reference(self, make):
        # bit for bit, sign of zero included: theta = +0.0 on the vertical
        # edge, where a clockwise frame's product is -0.0
        g = make()
        for corner in g.corners:
            for got, ref in zip(corner_polar(g, corner), polar_reference(g, corner)):
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [16, 392])
    def test_notched_frames(self, n):
        # at n = 392 the node x = 3/8 sits one ulp below 3/8
        g = notched_grid(n)
        assert len(g.corners) == 2
        for c, across in zip(g.corners, (1, -1)):
            assert_frame(g, c, up=1, across=across, length=n // 8)

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_frames_equal_the_domain_literals(self, n):
        def frames(g):  # x, y, frame_angle, orientation
            return [(g.nodes[c.i], g.nodes[c.j], c.frame_angle, c.orientation) for c in g.corners]

        half = 0.5 * math.pi
        assert frames(lshape_grid(n)) == [(0.5, 0.5, half, 1.0)]
        assert frames(notched_grid(n)) == [(3.0 / 8.0, 0.5, half, 1.0), (5.0 / 8.0, 0.5, half, -1.0)]

    def test_notched_duals_are_mirror_images(self):
        # at n = 728 the node x = 3/8 is one ulp above 3/8
        g = notched_grid(728)
        left, right = (compute_dual_singularity(g, i).dual for i in range(2))
        assert np.max(np.abs(left[::-1] - right)) <= 1e-12 * np.max(np.abs(left))

    def test_frame_reads_only_the_neighbour_nodes(self):
        # the frame comes from the corner's own four cells; at n = 4 the outer
        # edge y = 0 lies 2h from the corner
        g = lshape_grid(4)
        assert len(g.corners) == 1 and g.interior.sum() == 5

    @pytest.mark.parametrize("mask", [np.ones((1, 1)), np.array([[True, True], [True, False]])],
                             ids=["one-cell", "lshape-2"])
    def test_mask_without_interior_node_rejected(self, mask):
        with pytest.raises(ValueError, match="no interior node"):
            Grid2D(mask)

    def test_disconnected_mask_rejected(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[:3, :3] = True
        mask[5:, 5:] = True
        with pytest.raises(ValueError):
            Grid2D(mask)

    @pytest.mark.parametrize("mask", [np.ones((0, 0)), np.zeros((4, 4)), np.ones((4, 5))],
                             ids=["no-cells", "empty", "not-square"])
    def test_mask_rejected(self, mask):
        with pytest.raises(ValueError):
            Grid2D(mask)



class TestPoisson:
    def test_zero_rhs(self):
        g = rectangle_grid(16)
        u, res = solve_poisson_dirichlet(g, np.zeros((17, 17)))
        assert np.all(u == 0.0) and res == 0.0

    def test_manufactured_rectangle(self):
        errs = []
        for n in (16, 32):
            g = rectangle_grid(n)
            f = nodal(g, lambda X, Y: -2.0 * math.pi ** 2 * np.sin(math.pi * X) * np.sin(math.pi * Y))
            u, _ = solve_poisson_dirichlet(g, f)
            exact = nodal(g, lambda X, Y: np.sin(math.pi * X) * np.sin(math.pi * Y))
            errs.append(np.abs(u - exact)[g.interior].max())
        assert 3.2 <= errs[0] / errs[1] <= 4.8

    def test_discrete_maximum_principle(self):
        g = lshape_grid(16)
        rng = np.random.default_rng(50)
        f = np.zeros((17, 17))
        f[g.interior] = -rng.uniform(0.0, 1.0, g.interior.sum())
        u, _ = solve_poisson_dirichlet(g, f)
        assert np.all(u[g.interior] >= 0.0)

    @pytest.mark.parametrize("make,lines", [
        (lshape_grid, (1, 1)), (notched_grid, (2, 1)), (lambda n: staircase_grid(n, 4), None),
        (disk_grid, None), (diamond_grid, None), (lambda n: strip_grid(n, 0), (1, 0)),
        (lambda n: strip_grid(n, 1), (0, 1)), (lshape_plus_grid, (1, 2))],
        ids=["lshape", "notched", "staircase", "disk", "diamond", "strip-x", "strip-y", "lshape-plus"])
    def test_capacitance_matches_fast_solves(self, make, lines):
        # the table reads against P Lap_R^-1 P^T built column by column with
        # the DST-I solve on the square, on Gammas of (rows, columns) lines,
        # one of them a single node on the L with its corner cell restored,
        # and of many short ones (None); C is symmetric to the last bit
        n = 32
        solver = make(n).factor()
        gi, gj = solver.gi, solver.gj
        C = capacitance(solver)
        ref = np.empty_like(C)
        for q in range(len(gi)):
            w = np.zeros(solver.inside.shape)
            w[gi[q], gj[q]] = 1.0
            ref[:, q] = square_solve(solver, w)[gi, gj]
        rows, cols = solver.rows, len(solver.sines.T) - solver.rows
        if lines is None:
            assert rows >= 4 and cols >= 4
        else:
            assert (rows, cols) == lines
        if make is lshape_grid or make is notched_grid:
            assert len(gi) == {lshape_grid: n - 1, notched_grid: 5 * n // 4 - 1}[make]
        if make is lshape_plus_grid:
            assert np.bincount(solver.line).min() == 1
        assert np.array_equal(C, C.T)
        assert np.max(np.abs(C - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("make,n", [(lshape_grid, 32), (lshape_grid, 64), (notched_grid, 32),
                                        (notched_grid, 64), (lambda n: staircase_grid(n, 4), 64),
                                        (disk_grid, 64)],
                             ids=["lshape-32", "lshape-64", "notched-32", "notched-64",
                                  "staircase-64", "disk-64"])
    def test_solve_matches_four_transform_formula(self, make, n):
        # the solve reads P S y and forms S P^T q along the lines that cover
        # Gamma, with no 2D transform; the reference is
        # fast(b) + fast(P^T (-C)^-1 P fast(b)), each fast solve two 2D
        # transforms
        g = make(n)
        solver = g.factor()
        gi, gj = solver.gi, solver.gj
        if make is not lshape_grid and make is not notched_grid:
            # Gamma spans many rows and many columns
            assert min(len(np.unique(gi)), len(np.unique(gj))) >= n // 2
        rng = np.random.default_rng(n + len(gi))
        b = np.where(g.interior, rng.uniform(-1.0, 1.0, g.interior.shape), 0.0)
        first = square_solve(solver, b[1:-1, 1:-1])
        C = capacitance(solver)
        w = np.zeros_like(first)
        w[gi, gj] = np.linalg.solve(-C, first[gi, gj])
        ref = np.pad(np.where(solver.inside, first + square_solve(solver, w), 0.0), 1)
        u = solver.solve(b)
        assert np.all(u[~g.interior] == 0.0)
        assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [16, 64, 512])
    @pytest.mark.parametrize("make,rows,cols", [(lshape_grid, 1, 1), (notched_grid, 2, 1)],
                             ids=["lshape", "notched"])
    def test_gamma_covered_by_few_lines(self, make, rows, cols, n):
        # the L's corner ties and goes to its column; the slot's corners go
        # to its two sides, which are longer than its floor
        solver = make(n).factor()
        gi, gj, line, along = solver.gi, solver.gj, solver.line, solver.along
        assert solver.rows == rows and solver.sines.shape == (n - 1, rows + cols)
        on_row = line < rows
        assert np.array_equal(along, np.where(on_row, gj, gi))
        # each line is one row or column, read at its own sines
        fixed = np.where(on_row, gi, gj)
        at = [np.unique(fixed[line == m]) for m in range(rows + cols)]
        assert all(len(i) == 1 for i in at)
        assert len(np.unique(at[:rows])) == rows and len(np.unique(at[rows:])) == cols
        assert np.array_equal(solver.sines, bilap.grid._sines(n, np.concatenate(at) + 1))
        # every node of Gamma is read once, at its own place on its line
        assert len(set(zip(line.tolist(), along.tolist()))) == len(gi)

    @pytest.mark.parametrize("make,n", [(lshape_grid, 512), (notched_grid, 512), (lshape_grid, 1024)])
    def test_capacitance_solve_residual(self, make, n):
        # one correction round reaches the tolerance only with C exact to
        # rounding: mu from arccosh(1 + lam/2), which loses digits as lam -> 0,
        # misses it at n = 1024
        g = make(n)
        b = np.ones((n + 1, n + 1))
        u = g.factor().solve(b)
        assert np.all(u[~g.interior] == 0.0)
        b = b[g.interior]
        assert np.linalg.norm(g.laplacian() @ u[g.interior] - b) <= 1e-10 * np.linalg.norm(b)

    def test_refinement_recovers_a_missed_residual(self, monkeypatch):
        # a capacitance matrix off by 1e-6 leaves the first solve far above
        # the target; one refinement step with its residual reaches it and
        # leaves an error of order 1e-6 squared
        exact = bilap.grid._capacitance
        monkeypatch.setattr(bilap.grid, "_capacitance", lambda *args: exact(*args) * (1.0 + 1e-6))
        g = lshape_grid(32)
        f = nodal(g, lambda X, Y: np.sin(3.0 * X + 1.0) * np.cos(2.0 * Y) + 2.0)
        b = f[g.interior]
        first = g.factor().solve(f)[g.interior]
        assert np.linalg.norm(g.laplacian() @ first - b) > 1e-8 * np.linalg.norm(b)
        u, residual = solve_poisson_dirichlet(g, f)
        ref = splinalg.splu(g.laplacian().tocsc()).solve(b)
        assert residual <= 1e-10
        assert np.max(np.abs(u[g.interior] - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("make", [rectangle_grid, lshape_grid, notched_grid])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rhs_raises(self, make, bad):
        # the documented failure, not a LinAlgError from the Cholesky solve,
        # a RuntimeWarning nor a field of nans; (5, 3) is an interior node of
        # all three grids, and a nan off the interior nodes is not read
        g = make(16)
        f = np.ones((17, 17))
        f[~g.interior] = math.nan
        u, _ = solve_poisson_dirichlet(g, f)
        assert np.isfinite(u).all()
        f[5, 3] = bad
        with pytest.raises(NumericalFailure, match="nan or an inf"):
            solve_poisson_dirichlet(g, f)

    @pytest.mark.parametrize("make,n", [(rectangle_grid, 64), (lshape_grid, 64), (notched_grid, 64)])
    def test_solve_matches_colamd_reference(self, make, n):
        g = make(n)
        f = nodal(g, lambda X, Y: np.sin(3.0 * X + 1.0) * np.cos(2.0 * Y) + 2.0)
        u, _ = solve_poisson_dirichlet(g, f)
        ref = splinalg.splu(g.laplacian().tocsc()).solve(f[g.interior])
        assert np.max(np.abs(u[g.interior] - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("make", [rectangle_grid, lshape_grid, notched_grid])
    def test_stencil_matches_sparse_laplacian(self, make):
        g = make(32)
        u = np.zeros((33, 33))
        u[g.interior] = np.random.default_rng(7).uniform(-1.0, 1.0, g.interior.sum())
        lap = g.apply_laplacian(u)
        ref = g.laplacian() @ u[g.interior]
        assert np.all(lap[~g.interior] == 0.0)
        assert np.max(np.abs(lap[g.interior] - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestTwoStep:
    def test_manufactured_2d_convergence(self):
        errs = []
        for n in (32, 64):
            g = rectangle_grid(n)
            f = nodal(g, lambda X, Y: 4.0 * math.pi ** 4 * np.sin(math.pi * X) * np.sin(math.pi * Y))
            sol = two_step_solve(g, SigmaField.constant(g), f)
            exact = nodal(g, lambda X, Y: np.sin(math.pi * X) * np.sin(math.pi * Y))
            errs.append(np.abs(sol.v - exact)[g.interior].max())
        assert 3.2 <= errs[0] / errs[1] <= 4.8

    def test_sign_changing_sigma_solves(self):
        g = rectangle_grid(32)
        cells = np.where((np.arange(32)[:, None] < 16) * np.ones((1, 32), bool), 1.0, -1.0)
        sol = two_step_solve(
            g, SigmaField(cells),
            nodal(g, lambda X, Y: 4.0 * math.pi ** 4 * np.sin(math.pi * X) * np.sin(math.pi * Y)),
        )
        assert sol.residual_p <= 1e-10 and sol.residual_v <= 1e-10

    def test_sigma_validation(self):
        for value in (0.0, 1e-13, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                SigmaField(np.full((4, 4), value))


class TestNodeTransfer:
    @pytest.mark.parametrize("grid", [rectangle_grid(16), lshape_grid(32), notched_grid(32)],
                             ids=["rectangle", "lshape", "notched"])
    def test_bitwise_equal_to_scatter(self, grid):
        rng = np.random.default_rng(grid.n + len(grid.corners))
        shape = (grid.n, grid.n)
        cells = rng.choice([-1.0, 1.0], shape) * rng.uniform(0.5, 3.0, shape)
        sigma = SigmaField(cells)
        assert (cells < 0).any() and (cells > 0).any()
        count = scatter_reference(grid, grid.cell_mask, np.ones(shape))
        ref = np.zeros_like(count)
        np.divide(scatter_reference(grid, grid.cell_mask, 1.0 / cells), count, out=ref,
                  where=count > 0)
        assert sigma.inverse_at_nodes(grid).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("make,n", [(lshape_grid, n) for n in (4, 6, 8, 34, 64, 256, 1024)]
                             + [(notched_grid, n) for n in (16, 24, 32, 136, 512, 1024)]
                             + [(rectangle_grid, n) for n in (2, 3, 16, 127, 513)])
    def test_pairing_weights_bitwise_equal_to_scatter(self, make, n):
        # the scattered kept-cell counts times h^2 / 4 against the quarter areas
        # of the kept cells added onto their nodes one by one
        grid = make(n)
        shape = (grid.n, grid.n)
        CX, CY = np.meshgrid((np.arange(grid.n) + 0.5) * grid.h,
                             (np.arange(grid.n) + 0.5) * grid.h, indexing="ij")
        far = np.ones(shape, dtype=bool)
        for c in grid.corners:
            far &= np.hypot(CX - grid.nodes[c.i], CY - grid.nodes[c.j]) >= 4.0 * grid.h
        ref = scatter_reference(grid, grid.cell_mask & far, np.full(shape, grid.h * grid.h / 4.0))
        assert pairing_weights(grid).tobytes() == ref.tobytes()


class TestDualSingularity:
    @pytest.fixture(scope="class")
    def lshape64(self):
        g = lshape_grid(64)
        s = compute_dual_singularity(g, 0)
        return g, s

    def test_vanishes_on_boundary(self, lshape64):
        g, s = lshape64
        assert np.all(s.dual[g.boundary] == 0.0)

    def test_discrete_harmonicity_away_from_corner(self, lshape64):
        g, s = lshape64
        r, _ = corner_polar(g, g.corners[0])
        lap = g.apply_laplacian(s.dual)
        far = g.interior & (r > 0.3)
        # pure truncation of the r^(-2/3) leading term: O(h^2) at fixed radius
        assert np.abs(lap[far]).max() <= 600.0 * g.h ** 2

    def test_harmonicity_residual_refines(self):
        maxres = []
        for n in (32, 64):
            g = lshape_grid(n)
            s = compute_dual_singularity(g, 0)
            r, _ = corner_polar(g, g.corners[0])
            lap = g.apply_laplacian(s.dual)
            maxres.append(np.abs(lap[g.interior & (r > 0.3)]).max())
        assert 2.5 <= maxres[0] / maxres[1] <= 6.0

    def test_leading_decay_along_bisector(self):
        g = lshape_grid(128)
        s = compute_dual_singularity(g, 0)
        i0 = 64
        ks = np.arange(2, 7)
        vals = np.array([s.dual[i0 - k, i0 - k] for k in ks])
        rs = ks * g.h * math.sqrt(2.0)
        slope = np.polyfit(np.log(rs), np.log(np.abs(vals)), 1)[0]
        assert slope == pytest.approx(-2.0 / 3.0, abs=0.1)

    @pytest.mark.parametrize("make", [lshape_grid, notched_grid])
    def test_leading_term_plus_splu_lift(self, make):
        # leading + lift, the lift solving Lap lift = 0 with boundary data
        # -leading, moved to the rhs node by node and solved by SuperLU on
        # laplacian(); the dual field is zero off the interior nodes
        g = make(32)
        for index, corner in enumerate(g.corners):
            dual = compute_dual_singularity(g, index).dual
            r, theta = corner_polar(g, corner)
            leading = np.zeros_like(r)
            leading[r > 0.0] = r[r > 0.0] ** (-2.0 / 3.0) * np.sin(2.0 / 3.0 * theta[r > 0.0])
            ii, jj = np.nonzero(g.interior)
            b = np.zeros(len(ii))
            for k, (i, j) in enumerate(zip(ii, jj)):
                for ni, nj in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                    if g.boundary[ni, nj]:
                        b[k] += leading[ni, nj] / g.h ** 2
            lift = splinalg.splu(g.laplacian().tocsc()).solve(b)
            ref = leading[ii, jj] + lift
            assert np.max(np.abs(dual[ii, jj] - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.all(dual[~g.interior] == 0.0)

    @pytest.mark.parametrize("make", list(CORNER_GRIDS.values()), ids=list(CORNER_GRIDS))
    def test_equals_the_where_reference(self, make):
        g = make()
        for index in range(len(g.corners)):
            dual = compute_dual_singularity(g, index).dual
            assert dual.tobytes() == dual_reference(g, index).tobytes()

    def test_pairing_with_smooth_laplacians(self, lshape64):
        g, s = lshape64
        w = nodal(g, lambda X, Y: X * Y * (1 - X) * (1 - Y) * (X - 0.5) * (Y - 0.5))
        # trapezoid weights are h^2 at interior nodes, and the dual field is 0 off them
        pairing = pair(g, s.dual, g.apply_laplacian(w), exclude_corners=False)
        assert abs(pairing) <= 1.0 * g.h ** (2.0 / 3.0)


class TestCorrection:
    @pytest.fixture(scope="class")
    def corrected(self):
        g = lshape_grid(64)
        sigma = SigmaField.constant(g)
        f = nodal(g, lambda X, Y: np.sin(3.0 * X + 1.0) * np.cos(2.0 * Y) + 2.0)
        s = compute_dual_singularity(g, 0)
        unc = two_step_solve(g, sigma, f)
        cor = corrected_two_step_solve(g, sigma, f, [s])
        return g, sigma, f, s, unc, cor

    # the strength of the corner singularity that a source excites is -1/pi
    # times its corner-excluded pairing with the dual field
    def test_zero_source(self):
        g = lshape_grid(32)
        s = compute_dual_singularity(g, 0)
        assert -pair(g, np.zeros((33, 33)), s.dual) / math.pi == 0.0

    def test_uncorrected_coefficient_persists(self):
        # the naive split keeps exciting the singularity as the grid refines
        cs = []
        for n in (32, 64):
            g = lshape_grid(n)
            sigma = SigmaField.constant(g)
            f = nodal(g, lambda X, Y: np.sin(3.0 * X + 1.0) * np.cos(2.0 * Y) + 2.0)
            s = compute_dual_singularity(g, 0)
            unc = two_step_solve(g, sigma, f)
            sinv = sigma.inverse_at_nodes(g)
            cs.append(-pair(g, sinv * unc.p, s.dual) / math.pi)
        assert min(abs(c) for c in cs) > 1e-3
        assert abs(cs[0] - cs[1]) < 0.5 * abs(cs[1])

    def test_correction_kills_coefficient(self, corrected):
        g, sigma, f, s, unc, cor = corrected
        sinv = sigma.inverse_at_nodes(g)
        c_unc = -pair(g, sinv * unc.p, s.dual) / math.pi
        c_cor = -pair(g, sinv * cor.p, s.dual) / math.pi
        assert abs(c_cor) <= 0.1 * abs(c_unc)

    def test_orthogonality_by_construction(self, corrected):
        g, sigma, f, s, unc, cor = corrected
        sinv = sigma.inverse_at_nodes(g)
        num = abs(pair(g, sinv * cor.p, s.dual))
        scale = math.sqrt(pair(g, sinv * cor.p, sinv * cor.p)) * math.sqrt(pair(g, s.dual, s.dual))
        assert num <= 1e-10 * scale

    def test_relaxed_minus_corrected_parallels_kernel_candidate(self, corrected):
        g, sigma, f, s, unc, cor = corrected
        psi, self_pairing = kernel_candidate(g, sigma, s)
        predicted = (pair(g, f, psi, exclude_corners=False) / self_pairing) * psi
        diff = unc.v - cor.v
        rel = np.linalg.norm(diff - predicted) / np.linalg.norm(diff)
        assert rel <= 0.1

    def test_proportionality_improves_with_refinement(self, corrected):
        g64, sigma64, f64, s64, unc64, cor64 = corrected
        rels = []
        for n, (g, sigma, f, s, unc, cor) in (
            (64, corrected),
            (128, (None,) * 6),
        ):
            if g is None:
                g = lshape_grid(n)
                sigma = SigmaField.constant(g)
                f = nodal(g, lambda X, Y: np.sin(3.0 * X + 1.0) * np.cos(2.0 * Y) + 2.0)
                s = compute_dual_singularity(g, 0)
                unc = two_step_solve(g, sigma, f)
                cor = corrected_two_step_solve(g, sigma, f, [s])
            psi, self_pairing = kernel_candidate(g, sigma, s)
            predicted = (pair(g, f, psi, exclude_corners=False) / self_pairing) * psi
            diff = unc.v - cor.v
            rels.append(np.linalg.norm(diff - predicted) / np.linalg.norm(diff))
        assert rels[1] < rels[0]

    def test_correction_moves_p_along_duals(self, corrected):
        g, sigma, f, s, unc, cor = corrected
        p0 = solve_poisson_dirichlet(g, f)[0]
        expected = p0 + cor.correction[0] * s.dual
        assert np.max(np.abs(cor.p - expected)) <= 1e-14 * np.max(np.abs(cor.p))

    def test_weights_and_inverse_built_once(self, monkeypatch):
        g = notched_grid(32)
        sigma = SigmaField.constant(g)
        sings = [compute_dual_singularity(g, i) for i in range(2)]
        f = nodal(g, lambda X, Y: np.sin(3.0 * X + 1.0) * np.cos(2.0 * Y) + 2.0)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bilap.twostep, "pairing_weights",
                            counted("weights", bilap.twostep.pairing_weights))
        monkeypatch.setattr(SigmaField, "inverse_at_nodes",
                            counted("inverse", SigmaField.inverse_at_nodes))
        corrected_two_step_solve(g, sigma, f, sings)
        assert calls == {"weights": 1, "inverse": 1}

    def test_corrected_solve_is_deterministic(self):
        # two solves on one grid, each building its own pairing weights
        g = notched_grid(32)
        sigma = patch_sigma(g, 2.0)
        sings = [compute_dual_singularity(g, i) for i in range(2)]
        f = nodal(g, lambda X, Y: np.sin(3.0 * X + 1.0) * np.cos(2.0 * Y) + 2.0)
        first = corrected_two_step_solve(g, sigma, f, sings)
        second = corrected_two_step_solve(g, sigma, f, sings)
        assert first.v.tobytes() == second.v.tobytes()
        pms = [assemble_pairing_matrix(g, sigma, sings) for _ in range(2)]
        assert pms[0].matrix.tobytes() == pms[1].matrix.tobytes()

    def test_no_corners_delegates(self):
        g = rectangle_grid(16)
        sigma = SigmaField.constant(g)
        f = nodal(g, lambda X, Y: np.ones_like(X))
        a = corrected_two_step_solve(g, sigma, f, [])
        b = two_step_solve(g, sigma, f)
        assert np.array_equal(a.v, b.v)


class TestPairingMatrix:
    def test_positive_sigma_invertible(self):
        g = lshape_grid(32)
        sigma = SigmaField.constant(g)
        s = compute_dual_singularity(g, 0)
        pm = assemble_pairing_matrix(g, sigma, [s])
        assert pm.kernel_dim == 0
        assert pm.matrix[0, 0] > 0.0

    def test_mirrored_corners_skewsymmetric_sigma(self):
        g = notched_grid(64)
        cells = np.where(
            ((np.arange(64) + 0.5) / 64.0 < 0.5)[:, None] * np.ones((1, 64), bool), 1.0, -1.0
        )
        sigma = SigmaField(cells)
        sings = [compute_dual_singularity(g, i) for i in range(2)]
        # reflected geometry: the two dual fields are mirror images
        assert np.abs(sings[0].dual - sings[1].dual[::-1, :]).max() <= 1e-12
        pm = assemble_pairing_matrix(g, sigma, sings)
        norm = np.linalg.norm(pm.matrix)
        assert abs(pm.matrix[0, 1]) <= 0.05 * norm
        assert abs(pm.matrix[0, 0] + pm.matrix[1, 1]) <= 0.05 * norm

    def test_symmetry_exact(self):
        g = notched_grid(32)
        rng = np.random.default_rng(51)
        cells = rng.uniform(0.5, 2.0, (32, 32)) * np.where(rng.random((32, 32)) < 0.3, -1.0, 1.0)
        sigma = SigmaField(cells)
        sings = [compute_dual_singularity(g, i) for i in range(2)]
        pm = assemble_pairing_matrix(g, sigma, sings)
        assert np.abs(pm.matrix - pm.matrix.T).max() <= 1e-12 * np.linalg.norm(pm.matrix)


class TestKernelOnset:
    @pytest.fixture(scope="class")
    def onset(self):
        # inverse_at_nodes is linear in the cells' 1/sigma, so the pairing is
        # P(t) = A + B/t: A = 2 P(1) - P(1/2), B = P(1/2) - P(1), and the onset is -B/A
        g = lshape_grid(64)
        s = compute_dual_singularity(g, 0)

        def pairing_at(t):
            return assemble_pairing_matrix(g, patch_sigma(g, t), [s]).matrix[0, 0]

        p1, p_half = pairing_at(1.0), pairing_at(0.5)
        tstar = (p1 - p_half) / (2.0 * p1 - p_half)
        assert pairing_at(0.1) * pairing_at(10.0) < 0.0 and 0.1 < tstar < 10.0
        return g, s, tstar

    def test_sign_change_and_singular_matrix(self, onset):
        g, s, tstar = onset
        sigma = patch_sigma(g, tstar)
        pm = assemble_pairing_matrix(g, sigma, [s])
        assert pm.kernel_dim == 1
        with pytest.raises(SingularPairingMatrix):
            corrected_two_step_solve(g, sigma, np.ones((65, 65)), [s])
