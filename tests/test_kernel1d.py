"""Tests for the 1D kernel detection: closed forms against the eigenvalue oracle."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from bilap.errors import NumericalFailure
from bilap.kernel1d import (
    ContrastRoots,
    PiecewiseCubic,
    ThreeSegmentDomain,
    TwoSegmentDomain,
    build_kernel_system,
    _pencil,
    kernel_basis,
    scan_critical_contrasts,
)


class TestClosedFormContrasts:
    def test_symmetric_values(self):
        roots = TwoSegmentDomain(-1.0, 1.0).critical_contrasts().roots
        assert roots[0] == pytest.approx(-7.0 - 4.0 * math.sqrt(3.0), rel=1e-14)
        assert roots[1] == pytest.approx(-7.0 + 4.0 * math.sqrt(3.0), rel=1e-14)

    def test_symmetric_product(self):
        roots = TwoSegmentDomain(-1.0, 1.0).critical_contrasts().roots
        assert roots[0] * roots[1] == pytest.approx(1.0, rel=1e-12)

    def test_roots_satisfy_quadratic(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            t = -math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            # the contrast quadratic kappa^2 + p kappa + q of ratio t
            p, q = -4.0 * t + 6.0 * t * t - 4.0 * t * t * t, t * t * t * t
            for r in TwoSegmentDomain(-1.0, -t).critical_contrasts().roots:
                residual = r * r + p * r + q
                assert abs(residual) <= 1e-12 * max(r * r, abs(p * r), q)

    def test_negativity(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            t = -math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            assert all(r < 0.0 for r in TwoSegmentDomain(-1.0, -t).critical_contrasts().roots)
        for d in rng.uniform(0.05, 0.95, 50):
            assert all(r < 0.0 for r in ThreeSegmentDomain(float(d)).critical_contrasts().roots)

    def test_two_segment_against_mpmath(self):
        # (base -+ root) t at 50 digits; the smaller root is about t^3/4 as
        # t -> 0, where base - root cancels in doubles
        for t in -np.logspace(-12.0, 1.0, 27):
            roots = TwoSegmentDomain(-1.0, -float(t)).critical_contrasts().roots
            assert roots[0] < roots[1] < 0.0
            with mp.workdps(50):
                tm = mp.mpf(float(t))
                base = 2 - 3 * tm + 2 * tm * tm
                root = 2 * abs(tm - 1) * mp.sqrt(tm * tm - tm + 1)
                for r, ref in zip(roots, ((base + root) * tm, (base - root) * tm)):
                    assert abs(mp.mpf(r) - ref) <= 4e-16 * abs(ref)

    @pytest.mark.parametrize("t", [-4.46e-103, -1e-103, -1e-200])
    def test_subnormal_smaller_root_is_a_numerical_failure(self, t):
        # the smaller root, about t^3/4, leaves the normal floats below |t| ~ 4.47e-103
        with pytest.raises(NumericalFailure):
            TwoSegmentDomain(-1.0, -t).critical_contrasts()

    def test_smaller_root_just_above_underflow(self):
        roots = TwoSegmentDomain(-1.0, 4.47e-103).critical_contrasts().roots
        assert sys.float_info.min <= -roots[1] < 2.3e-308

    def test_three_segment_half(self):
        roots = ThreeSegmentDomain(0.5).critical_contrasts().roots
        assert roots[0] == pytest.approx(-1.0, rel=1e-15)
        assert roots[1] == pytest.approx(-1.0 / 7.0, rel=1e-15)


class TestKernelSystem:
    def test_two_segment_value_row(self):
        dom = TwoSegmentDomain(-1.5, 2.0)
        M = build_kernel_system(dom, -3.0)
        a, b = dom.a, dom.b
        expected = np.array([-a ** 3, a * a, b ** 3, -b * b])
        assert np.allclose(M[0], expected)

    def test_two_segment_third_derivative_row(self):
        M = build_kernel_system(TwoSegmentDomain(-1.0, 1.0), -3.0)
        # 6 sigma1 A1 = 6 sigma2 A2, scaled by sigma1
        assert np.allclose(M[3], [6.0, 0.0, 6.0 * 3.0, 0.0])

    def test_positive_contrast_regular(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            dom = TwoSegmentDomain(-rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
            for kappa in (0.5, 1.0, 4.0):
                assert abs(np.linalg.det(build_kernel_system(dom, kappa))) > 1e-8

    def test_determinant_sign_changes_at_roots(self):
        dom = TwoSegmentDomain(-1.0, 1.0)
        for root in dom.critical_contrasts().roots:
            lo, hi = np.linalg.det(build_kernel_system(dom, [root * 1.001, root * 0.999]))
            assert lo * hi < 0.0

    def test_nonroot_determinant(self):
        assert abs(np.linalg.det(build_kernel_system(TwoSegmentDomain(-1.0, 1.0), -2.0))) > 1.0

    @pytest.mark.parametrize("dom", [TwoSegmentDomain(-1.5, 2.0), ThreeSegmentDomain(0.4)])
    def test_contrast_array_stacks_scalar_systems(self, dom):
        kappas = -np.geomspace(1e-3, 1e3, 9).reshape(3, 3)
        stack = build_kernel_system(dom, kappas)
        dets = np.linalg.det(stack)
        assert dets.shape == (3, 3)
        for idx in np.ndindex(3, 3):
            k = float(kappas[idx])
            assert np.array_equal(stack[idx], build_kernel_system(dom, k))
            assert dets[idx] == np.linalg.det(build_kernel_system(dom, k))


def field_of(dom, c) -> PiecewiseCubic:
    """The piecewise cubic with coefficients c in the column order of
    build_kernel_system: segment by segment from the left, (x - a)^3 and
    (x - a)^2 on the left end segment at a, 1, x, x^2 and x^3 on the inner
    segment of three, and (x - b)^3 and (x - b)^2 on the right end segment at b."""
    if isinstance(dom, TwoSegmentDomain):
        return PiecewiseCubic((dom.a, 0.0, dom.b), (dom.a, dom.b),
                              ((0.0, 0.0, c[1], c[0]), (0.0, 0.0, c[3], c[2])))
    d = dom.delta
    return PiecewiseCubic((-1.0, -d, d, 1.0), (-1.0, 0.0, 1.0),
                          ((0.0, 0.0, c[1], c[0]), tuple(c[2:6]), (0.0, 0.0, c[7], c[6])))


class TestKernelSystemFill:
    @pytest.mark.parametrize("dom", [TwoSegmentDomain(-1.5, 2.0), ThreeSegmentDomain(0.4)])
    @pytest.mark.parametrize("kappa", [
        -3.0,
        -np.geomspace(1e-3, 1e3, 7),
        -np.geomspace(1e-6, 1e6, 12).reshape(3, 4),
    ], ids=["scalar", "1d", "2d"])
    def test_matches_broadcast_and_stack(self, dom, kappa):
        # each row of the system at a scalar contrast, or of each system of a
        # stack, applied to coefficients c is the jump (left minus right) at
        # its breakpoint of v, v', sigma v'' or sigma v''' of the cubic with
        # those coefficients, sigma being 1, kappa, 1 from the left
        k = np.asarray(kappa)
        system = build_kernel_system(dom, kappa)
        n = 4 if isinstance(dom, TwoSegmentDomain) else 8
        assert system.shape == k.shape + (n, n) and system.dtype == float
        rng = np.random.default_rng(36)
        for c in rng.uniform(-1.0, 1.0, (5, n)):
            field = field_of(dom, c.tolist())
            # each segment on its own, so a breakpoint reads both of its sides
            segment = [PiecewiseCubic(field.breakpoints[s:s + 2], field.refs[s:s + 1],
                                      field.coeffs[s:s + 1]) for s in range(len(field.refs))]
            sigma = [1.0 if s % 2 == 0 else k for s in range(len(field.refs))]
            rows, scale = system @ c, np.abs(system) @ np.abs(c)
            for i, x in enumerate(field.breakpoints[1:-1]):
                for order in range(4):
                    left, right = (segment[s].derivative(x, order) * (sigma[s] if order >= 2 else 1.0)
                                   for s in (i, i + 1))
                    r = 4 * i + order
                    assert np.all(np.abs(rows[..., r] - (left - right)) <= 1e-13 * scale[..., r])


def assert_matches(found, closed, rel=1e-11):
    """Both contrasts found, each within rel of its closed form."""
    assert len(found) == 2
    for f, c in zip(found, closed):
        assert abs(f - c) <= rel * abs(c)


def random_domains(family: str, n: int, seed: int) -> list:
    """n seeded random domains of one family."""
    rng = np.random.default_rng(seed)
    if family == "ends":
        return [TwoSegmentDomain(float(a), float(b))
                for a, b in zip(-rng.uniform(0.05, 5.0, n), rng.uniform(0.05, 5.0, n))]
    if family == "ratio":  # a = -1, so |t| = b
        bs = np.exp(rng.uniform(math.log(1e-2), math.log(50.0), n))
        return [TwoSegmentDomain(-1.0, float(b)) for b in bs]
    return [ThreeSegmentDomain(float(d)) for d in rng.uniform(1e-3, 0.999, n)]


class TestDeterminantScanOracle:
    """scan_critical_contrasts, the eigenvalue oracle, against the closed forms."""

    def test_two_segment_symmetric(self):
        assert_matches(scan_critical_contrasts(TwoSegmentDomain(-1.0, 1.0)).roots,
                       TwoSegmentDomain(-1.0, 1.0).critical_contrasts().roots)

    def test_three_segment_half(self):
        assert_matches(scan_critical_contrasts(ThreeSegmentDomain(0.5)).roots,
                       ThreeSegmentDomain(0.5).critical_contrasts().roots)

    def test_zero_set_equivalence_random_ratios(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            t = -math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            dom = TwoSegmentDomain(-1.0, -t)  # a = -1, b = -t so b/a = t
            assert_matches(scan_critical_contrasts(dom).roots, dom.critical_contrasts().roots)

    @pytest.mark.parametrize("family, seed", [("ends", 37), ("ratio", 38), ("three", 39)])
    def test_random_domains_match_the_closed_forms(self, family, seed):
        # a in (-5, -0.05) and b in (0.05, 5); |t| log-uniform in [1e-2, 50];
        # delta in [1e-3, 0.999]: roots from about -1.3e6 to -1.4e-8
        for dom in random_domains(family, 1000, seed):
            assert_matches(scan_critical_contrasts(dom).roots, dom.critical_contrasts().roots)

    def test_large_root_at_t_minus_30(self):
        # the large root lies far beyond -1e4
        roots = scan_critical_contrasts(TwoSegmentDomain(-1.0, 30.0)).roots
        with mp.workdps(50):
            t = mp.mpf(-30)
            base, root = 2 - 3 * t + 2 * t * t, 2 * abs(t - 1) * mp.sqrt(t * t - t + 1)
            closed = sorted(float(x * t) for x in (base + root, base - root))
        assert closed[0] == pytest.approx(-113512.864, rel=1e-8)
        assert_matches(roots, closed)

    def test_small_root_at_delta_0_02(self):
        # the small root lies above -1e-4
        roots = scan_critical_contrasts(ThreeSegmentDomain(0.02)).roots
        with mp.workdps(50):
            d = mp.mpf(0.02)
            closed = sorted(float(x) for x in (d ** 3 / (d ** 3 - 1), d / (d - 1)))
        assert closed[1] == pytest.approx(-8.0e-6, rel=1e-4)
        assert_matches(roots, closed)

    def test_m0_is_nonsingular(self):
        # the oracle solves with M0, and M0 + kappa M1 is the interface system
        domains = random_domains("ends", 100, 40) + random_domains("three", 100, 41)
        domains += [TwoSegmentDomain(-5.0, 0.05), TwoSegmentDomain(-0.05, 5.0),
                    ThreeSegmentDomain(1e-3), ThreeSegmentDomain(0.999)]
        for dom in domains:
            M0, M1 = _pencil(dom)
            assert np.linalg.matrix_rank(M0) == M0.shape[0]
            assert np.count_nonzero(M1.any(axis=0)) == 2
            assert np.array_equal(build_kernel_system(dom, -2.5), -2.5 * M1 + M0)


class TestKernelBasis:
    def test_kernel_element_residual(self):
        dom = TwoSegmentDomain(-1.0, 1.0)
        kappa = -7.0 + 4.0 * math.sqrt(3.0)
        cubic = kernel_basis(dom, kappa)
        assert cubic is not None
        # all eight scalar conditions: clamped ends exactly, interfaces to 1e-10
        for x, order in ((-1.0, 0), (-1.0, 1), (1.0, 0), (1.0, 1)):
            assert cubic.derivative(x, order) == 0.0
        eps = 1e-12
        assert abs(cubic.derivative(-eps) - cubic.derivative(eps)) <= 1e-10
        assert abs(cubic.derivative(-eps, 1) - cubic.derivative(eps, 1)) <= 1e-10
        jump2 = cubic.derivative(-eps, 2) - kappa * cubic.derivative(eps, 2)
        jump3 = cubic.derivative(-eps, 3) - kappa * cubic.derivative(eps, 3)
        assert abs(jump2) <= 1e-10 and abs(jump3) <= 1e-10

    def test_weighted_versus_raw_curvature_jump(self):
        dom = TwoSegmentDomain(-1.0, 1.0)
        kappa = -7.0 + 4.0 * math.sqrt(3.0)
        cubic = kernel_basis(dom, kappa)
        eps = 1e-12
        left, right = cubic.derivative(-eps, 2), cubic.derivative(eps, 2)
        assert abs(left - kappa * right) <= 1e-10
        assert abs(left - right) > 1e-3  # unweighted curvature must jump

    def test_regular_contrast_returns_none(self):
        assert kernel_basis(TwoSegmentDomain(-1.0, 1.0), -0.5) is None

    def test_agrees_with_scan_on_random_segments(self):
        # a kernel, with a null vector to 1e-10, at every contrast the scan
        # finds, and none 1e-5 off either side of it or between the two
        rng = np.random.default_rng(35)
        for _ in range(6):
            a, b = np.exp(rng.uniform(-1.5, 1.5, 2))
            dom = TwoSegmentDomain(-float(a), float(b))
            scan = scan_critical_contrasts(dom).roots
            assert len(scan) == 2
            for kappa in scan:
                cubic = kernel_basis(dom, kappa)
                assert cubic is not None
                coeffs = np.array([cubic.coeffs[0][3], cubic.coeffs[0][2],
                                   cubic.coeffs[1][3], cubic.coeffs[1][2]])
                assert np.abs(build_kernel_system(dom, kappa) @ coeffs).max() <= 1e-10
                for off in (kappa * (1.0 - 1e-5), kappa * (1.0 + 1e-5)):
                    assert kernel_basis(dom, off) is None
            assert kernel_basis(dom, -math.sqrt(scan[0] * scan[1])) is None

    def test_three_segment_kernel(self):
        dom = ThreeSegmentDomain(0.5)
        for kappa in (-1.0, -1.0 / 7.0):
            cubic = kernel_basis(dom, kappa)
            assert cubic is not None
            M = build_kernel_system(dom, kappa)
            coeffs = np.array(
                [
                    cubic.coeffs[0][3], cubic.coeffs[0][2],
                    cubic.coeffs[1][0], cubic.coeffs[1][1],
                    cubic.coeffs[1][2], cubic.coeffs[1][3],
                    cubic.coeffs[2][3], cubic.coeffs[2][2],
                ]
            )
            assert np.abs(M @ coeffs).max() <= 1e-10

    def test_array_evaluation(self):
        cubic = kernel_basis(ThreeSegmentDomain(0.5), -1.0)
        xs = np.concatenate([np.linspace(-1.0, 1.0, 41), cubic.breakpoints])
        for order in range(5):
            values = cubic.derivative(xs, order)
            assert values.shape == xs.shape
            for x, v in zip(xs, values):
                assert v == cubic.derivative(float(x), order)
        # a point on an inner breakpoint takes the cubic of the segment on its left
        left = cubic.coeffs[0]
        u = -0.5 - cubic.refs[0]
        assert cubic.derivative(-0.5) == left[0] + u * (left[1] + u * (left[2] + u * left[3]))

    def test_sampling_shape(self):
        cubic = kernel_basis(TwoSegmentDomain(-1.0, 1.0), -7.0 - 4.0 * math.sqrt(3.0))
        table = cubic.sample(101)
        assert table.shape == (101, 4)
        assert table[0, 0] == -1.0 and table[-1, 0] == 1.0
        assert abs(table[0, 1]) < 1e-14 and abs(table[-1, 1]) < 1e-14
