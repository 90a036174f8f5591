"""Tests for the masked-grid Poisson solver, dual singular fields, the
corrected two-step solve and the pairing-matrix machinery."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as splinalg

from bilap.errors import FrameError, NotSolvable, SingularPairingMatrix
from bilap.grid import (
    Grid2D,
    ReentrantCorner,
    corner_polar,
    lshape_grid,
    notched_grid,
    rectangle_grid,
    solve_poisson_dirichlet,
)
import bilap.twostep
from bilap.twostep import (
    SigmaField,
    assemble_pairing_matrix,
    compute_dual_singularity,
    constrained_solve,
    corrected_two_step_solve,
    kernel_fields,
    kernel_residual,
    singular_coefficient,
    pairing_weights,
    two_step_solve,
)


def nodal(grid, func):
    X, Y = np.meshgrid(grid.node_x, grid.node_y, indexing="ij")
    return func(X, Y)


def patch_sigma(grid, t, radius=0.25, center=(0.5, 0.5)):
    """+1 outside a disk of cells around the corner, -t inside."""
    cx = (np.arange(grid.nx) + 0.5) * grid.h
    cy = (np.arange(grid.ny) + 0.5) * grid.h
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    inside = np.hypot(CX - center[0], CY - center[1]) < radius
    return SigmaField(np.where(inside, -t, 1.0))


def pair(grid, a, b, exclude_corners=True):
    """Trapezoid pairing of two nodal fields, corner-excluded by default."""
    return float(np.sum(pairing_weights(grid, exclude_corners) * a * b))


def kernel_candidate(grid, sigma, s):
    """(psi, self-pairing) of one dual field: Lap psi = (1/sigma) dual, and the
    sigma-weighted pairing of the dual field with itself."""
    psi, _ = solve_poisson_dirichlet(grid, sigma.inverse_at_nodes(grid) * s.dual)
    return psi, assemble_pairing_matrix(grid, sigma, [s]).matrix[0, 0]


def scatter_reference(grid, keep, cell_values):
    """Per-cell np.add.at of the kept cells' values onto their four nodes."""
    ci, cj = np.nonzero(keep)
    out = np.zeros((grid.nx + 1, grid.ny + 1))
    for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
        np.add.at(out, (ci + di, cj + dj), cell_values[ci, cj])
    return out


class TestGrid:
    def test_masks_rectangle(self):
        g = rectangle_grid(8)
        assert g.n_interior == 7 * 7
        assert g.boundary.sum() == 4 * 8

    def test_lshape_corner_registration(self):
        g = lshape_grid(16)
        assert len(g.corners) == 1
        c = g.corners[0]
        assert (c.x, c.y) == (0.5, 0.5)
        r, theta = corner_polar(g, c)
        i0 = 8
        assert theta[i0, i0 + 2] == pytest.approx(0.0, abs=1e-12)  # +y edge
        assert theta[i0 + 2, i0] == pytest.approx(1.5 * math.pi, rel=1e-12)  # +x edge

    def test_bad_frame_rejected(self):
        mask = np.ones((16, 16), dtype=bool)
        idx = np.arange(16)
        mask[np.ix_(idx >= 8, idx >= 8)] = False
        # frame pointing into the removed quadrant
        bad = ReentrantCorner(x=0.5, y=0.5, frame_angle=0.0, orientation=1.0)
        with pytest.raises(FrameError):
            Grid2D(mask, corners=(bad,))

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

    def test_corner_must_be_reentrant(self):
        mask = np.ones((8, 8), dtype=bool)
        c = ReentrantCorner(x=0.5, y=0.5, frame_angle=0.5 * math.pi, orientation=1.0)
        with pytest.raises(ValueError):
            Grid2D(mask, corners=(c,))


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
        f[g.interior] = -rng.uniform(0.0, 1.0, g.n_interior)
        u, _ = solve_poisson_dirichlet(g, f)
        assert np.all(u[g.interior] >= 0.0)

    def test_factor_orders_for_symmetry(self):
        # minimum degree on A^T + A fills L+U with about 0.59 of COLAMD's
        # entries here; a silent return to COLAMD fails the first bound
        A = notched_grid(128).laplacian().tocsc()
        lu = notched_grid(128).factor()
        mmd = splinalg.splu(A, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
        colamd = splinalg.splu(A)
        fill = lu.L.nnz + lu.U.nnz
        assert abs(fill - (mmd.L.nnz + mmd.U.nnz)) <= 0.05 * (mmd.L.nnz + mmd.U.nnz)
        assert fill < 0.95 * (colamd.L.nnz + colamd.U.nnz)

    @pytest.mark.parametrize("make,n", [(rectangle_grid, 64), (lshape_grid, 64), (notched_grid, 64)])
    def test_solve_matches_colamd_reference(self, make, n):
        g = make(n)
        f = nodal(g, lambda X, Y: np.sin(3.0 * X + 1.0) * np.cos(2.0 * Y) + 2.0)
        u, _ = solve_poisson_dirichlet(g, f)
        ref = splinalg.splu(g.laplacian().tocsc()).solve(g.restrict(f))
        assert np.max(np.abs(g.restrict(u) - ref)) <= 1e-12 * np.max(np.abs(ref))


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
        rng = np.random.default_rng(grid.nx + len(grid.corners))
        shape = (grid.nx, grid.ny)
        cells = rng.choice([-1.0, 1.0], shape) * rng.uniform(0.5, 3.0, shape)
        sigma = SigmaField(cells)
        assert (cells < 0).any() and (cells > 0).any()
        count = scatter_reference(grid, grid.cell_mask, np.ones(shape))
        for field, values in ((sigma.at_nodes(grid), cells),
                              (sigma.inverse_at_nodes(grid), 1.0 / cells)):
            ref = np.zeros_like(count)
            np.divide(scatter_reference(grid, grid.cell_mask, values), count, out=ref,
                      where=count > 0)
            assert field.tobytes() == ref.tobytes()
        CX, CY = np.meshgrid((np.arange(grid.nx) + 0.5) * grid.h,
                             (np.arange(grid.ny) + 0.5) * grid.h, indexing="ij")
        far = np.ones(shape, dtype=bool)
        for c in grid.corners:
            far &= np.hypot(CX - c.x, CY - c.y) >= 4.0 * grid.h
        quarter = np.full(shape, grid.h * grid.h / 4.0)
        for exclude, keep in ((False, grid.cell_mask), (True, grid.cell_mask & far)):
            ref = scatter_reference(grid, keep, quarter)
            assert pairing_weights(grid, exclude_corners=exclude).tobytes() == ref.tobytes()


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

    def test_pairing_with_smooth_laplacians(self, lshape64):
        g, s = lshape64
        w = nodal(g, lambda X, Y: X * Y * (1 - X) * (1 - Y) * (X - 0.5) * (Y - 0.5))
        pairing = g.inner(s.dual, g.apply_laplacian(w))
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

    def test_zero_source(self):
        g = lshape_grid(32)
        s = compute_dual_singularity(g, 0)
        assert singular_coefficient(g, np.zeros((33, 33)), s) == 0.0

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
            cs.append(singular_coefficient(g, sinv * unc.p, s))
        assert min(abs(c) for c in cs) > 1e-3
        assert abs(cs[0] - cs[1]) < 0.5 * abs(cs[1])

    def test_correction_kills_coefficient(self, corrected):
        g, sigma, f, s, unc, cor = corrected
        sinv = sigma.inverse_at_nodes(g)
        c_unc = singular_coefficient(g, sinv * unc.p, s)
        c_cor = singular_coefficient(g, sinv * cor.p, s)
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
        g = lshape_grid(64)
        s = compute_dual_singularity(g, 0)

        def pairing_at(t):
            return assemble_pairing_matrix(g, patch_sigma(g, t), [s]).matrix[0, 0]

        lo, hi = 0.1, 10.0
        assert pairing_at(lo) * pairing_at(hi) < 0.0
        a, b = lo, hi
        fa = pairing_at(a)
        while (b - a) > 1e-12:
            mid = 0.5 * (a + b)
            fm = pairing_at(mid)
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
        tstar = 0.5 * (a + b)
        return g, s, tstar

    def test_sign_change_and_singular_matrix(self, onset):
        g, s, tstar = onset
        sigma = patch_sigma(g, tstar)
        pm = assemble_pairing_matrix(g, sigma, [s])
        assert pm.kernel_dim == 1
        with pytest.raises(SingularPairingMatrix):
            corrected_two_step_solve(g, sigma, np.ones((65, 65)), [s])

    def test_kernel_field_residual(self, onset):
        g, s, tstar = onset
        sigma = patch_sigma(g, tstar)
        pm = assemble_pairing_matrix(g, sigma, [s])
        psis = kernel_fields(g, pm)
        assert len(psis) == 1
        tol = g.h ** (2.0 / 3.0)
        for w in (
            nodal(g, lambda X, Y: X * Y * (1 - X) * (1 - Y) * (X - 0.5) * (Y - 0.5)),
            nodal(g, lambda X, Y: np.sin(2 * math.pi * X) * np.sin(2 * math.pi * Y)),
            nodal(g, lambda X, Y: X * Y * (1 - X) * (1 - Y) * (X - 0.5) * (Y - 0.5)
                  * (1.0 + 3.0 * X + 7.0 * Y * Y)),
        ):
            assert kernel_residual(g, sigma, psis[0], w) <= tol

    def test_constrained_solve_compatible_source(self, onset):
        g, s, tstar = onset
        sigma = patch_sigma(g, tstar)
        pm = assemble_pairing_matrix(g, sigma, [s])
        w = nodal(g, lambda X, Y: (X * Y * (1 - X) * (1 - Y) * (X - 0.5) * (Y - 0.5)) ** 2)
        sig_nodes = sigma.at_nodes(g)
        f = g.apply_laplacian(sig_nodes * g.apply_laplacian(w))
        sol = constrained_solve(g, f, pm, solvability_tol=2e-2)
        assert sol.residual_v <= 1e-10
        sinv = sigma.inverse_at_nodes(g)
        num = abs(pair(g, sinv * sol.p, s.dual))
        den = math.sqrt(pair(g, sinv * sol.p, sinv * sol.p)) * math.sqrt(pair(g, s.dual, s.dual))
        # the kernel-direction pairing is not correctable (adding the dual
        # field leaves it fixed); it tracks the compatibility defect of f,
        # which for manufactured data sits at the quadrature level
        assert num <= 0.05 * den

    def test_constrained_solve_incompatible_source(self, onset):
        g, s, tstar = onset
        sigma = patch_sigma(g, tstar)
        pm = assemble_pairing_matrix(g, sigma, [s])
        psis = kernel_fields(g, pm)
        with pytest.raises(NotSolvable):
            constrained_solve(g, psis[0], pm)

    def test_constrained_delegates_when_regular(self):
        g = lshape_grid(32)
        sigma = SigmaField.constant(g)
        s = compute_dual_singularity(g, 0)
        pm = assemble_pairing_matrix(g, sigma, [s])
        f = nodal(g, lambda X, Y: np.ones_like(X))
        a = constrained_solve(g, f, pm)
        b = corrected_two_step_solve(g, sigma, f, [s])
        assert np.array_equal(a.v, b.v)

    def test_constrained_solve_keeps_one_dual_field(self):
        # two corners, the pairing kernel forced to dimension 1 from the SVD of
        # the real matrix: one dual field is kept and corrected against
        g = notched_grid(32)
        sigma = SigmaField.constant(g)
        sings = [compute_dual_singularity(g, i) for i in range(2)]
        pm = assemble_pairing_matrix(g, sigma, sings)
        forced = dataclasses.replace(pm, kernel_dim=1, kernel_basis=np.linalg.svd(pm.matrix)[2][1:])
        psi = kernel_fields(g, forced)[0]
        f0 = nodal(g, lambda X, Y: np.sin(3.0 * X + 1.0) * np.cos(2.0 * Y) + 2.0)
        f = f0 - pair(g, f0, psi, False) / pair(g, psi, psi, False) * psi
        sol = constrained_solve(g, f, forced)
        assert sol.correction.shape == (1,)
        # the kept field is the complement picked by column-pivoted QR
        kept = sings[int(scipy.linalg.qr(pm.matrix, pivoting=True)[2][0])].dual
        weighted = pairing_weights(g) * sigma.inverse_at_nodes(g) * kept
        p0 = solve_poisson_dirichlet(g, f)[0]
        assert abs(np.sum(weighted * sol.p)) <= 1e-12 * np.sum(np.abs(weighted * p0))
        # the sign convention of FieldSolution: p = p0 + correction * kept
        expected = p0 + sol.correction[0] * kept
        assert np.max(np.abs(sol.p - expected)) <= 1e-14 * np.max(np.abs(sol.p))

    def test_constrained_solve_builds_weights_once(self, monkeypatch):
        # the solvability check takes its three sums from one set of plain
        # weights; the corner-excluded weights and 1/sigma at the nodes come
        # from the pairing, for the kernel fields and the split alike
        g = notched_grid(32)
        sigma = SigmaField.constant(g)
        sings = [compute_dual_singularity(g, i) for i in range(2)]
        pm = assemble_pairing_matrix(g, sigma, sings)
        forced = dataclasses.replace(pm, kernel_dim=1, kernel_basis=np.linalg.svd(pm.matrix)[2][1:])
        f = nodal(g, lambda X, Y: np.sin(3.0 * X + 1.0) * np.cos(2.0 * Y) + 2.0)
        calls = Counter()
        weights = bilap.twostep.pairing_weights

        def counted(grid, exclude_corners=True):
            calls[exclude_corners] += 1
            return weights(grid, exclude_corners)

        inverse = SigmaField.inverse_at_nodes

        def counted_inverse(self, grid):
            calls["inverse"] += 1
            return inverse(self, grid)

        monkeypatch.setattr(bilap.twostep, "pairing_weights", counted)
        monkeypatch.setattr(SigmaField, "inverse_at_nodes", counted_inverse)
        with pytest.raises(NotSolvable):
            constrained_solve(g, f, forced)
        assert calls == {False: 1}
        psi = kernel_fields(g, forced)[0]
        f = f - pair(g, f, psi, False) / pair(g, psi, psi, False) * psi
        calls.clear()
        constrained_solve(g, f, forced)
        assert calls == {False: 1}
