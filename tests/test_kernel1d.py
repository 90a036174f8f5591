"""Tests for the 1D kernel detection: closed forms against the determinant scan."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bilap.errors import NumericalFailure
from bilap.kernel1d import (
    ContrastRoots,
    PiecewiseCubic,
    RootSource,
    ThreeSegmentDomain,
    TwoSegmentDomain,
    build_kernel_system,
    critical_contrasts_three_segment,
    critical_contrasts_two_segment,
    kernel_basis,
    kernel_determinant,
    quadratic_coefficients,
    scan_critical_contrasts,
)


class TestQuadraticCoefficients:
    def test_symmetric_case(self):
        assert quadratic_coefficients(-1.0) == (14.0, 1.0)

    def test_ratio_minus_two(self):
        assert quadratic_coefficients(-2.0) == (64.0, 16.0)

    def test_discriminant_positive(self):
        p, q = quadratic_coefficients(-1.0)
        assert p * p - 4.0 * q == pytest.approx(192.0, rel=1e-14)
        rng = np.random.default_rng(30)
        for _ in range(100):
            t = -math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            p, q = quadratic_coefficients(t)
            assert p * p - 4.0 * q > 0.0

    def test_rejects_positive_ratio(self):
        with pytest.raises(ValueError):
            quadratic_coefficients(0.5)

    @pytest.mark.parametrize("t", [-1e-170, -1e100])
    def test_unrepresentable_discriminant(self, t):
        # p*p underflows to zero at -1e-170; t^4 overflows at -1e100
        with pytest.raises(NumericalFailure):
            quadratic_coefficients(t)

    def test_guard_survives_optimized_mode(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("from bilap.errors import NumericalFailure\n"
                "from bilap.kernel1d import quadratic_coefficients\n"
                "try:\n    print(quadratic_coefficients(-1e-170))\n"
                "except NumericalFailure:\n    print('NumericalFailure')\n")
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert out.stdout.strip() == "NumericalFailure", out.stderr


class TestClosedFormContrasts:
    def test_symmetric_values(self):
        roots = critical_contrasts_two_segment(-1.0).roots
        assert roots[0] == pytest.approx(-7.0 - 4.0 * math.sqrt(3.0), rel=1e-14)
        assert roots[1] == pytest.approx(-7.0 + 4.0 * math.sqrt(3.0), rel=1e-14)

    def test_symmetric_product(self):
        roots = critical_contrasts_two_segment(-1.0).roots
        assert roots[0] * roots[1] == pytest.approx(1.0, rel=1e-12)

    def test_roots_satisfy_quadratic(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            t = -math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            p, q = quadratic_coefficients(t)
            for r in critical_contrasts_two_segment(t).roots:
                residual = r * r + p * r + q
                assert abs(residual) <= 1e-12 * max(r * r, abs(p * r), q)

    def test_negativity(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            t = -math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            assert all(r < 0.0 for r in critical_contrasts_two_segment(t).roots)
        for d in rng.uniform(0.05, 0.95, 50):
            assert all(r < 0.0 for r in critical_contrasts_three_segment(float(d)).roots)

    def test_three_segment_half(self):
        roots = critical_contrasts_three_segment(0.5).roots
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
                assert abs(kernel_determinant(dom, kappa)) > 1e-8

    def test_determinant_sign_changes_at_roots(self):
        dom = TwoSegmentDomain(-1.0, 1.0)
        for root in critical_contrasts_two_segment(-1.0).roots:
            lo, hi = root * 1.001, root * 0.999
            assert kernel_determinant(dom, lo) * kernel_determinant(dom, hi) < 0.0

    def test_nonroot_determinant(self):
        assert abs(kernel_determinant(TwoSegmentDomain(-1.0, 1.0), -2.0)) > 1.0

    @pytest.mark.parametrize("dom", [TwoSegmentDomain(-1.5, 2.0), ThreeSegmentDomain(0.4)])
    def test_contrast_array_stacks_scalar_systems(self, dom):
        kappas = -np.geomspace(1e-3, 1e3, 9).reshape(3, 3)
        stack = build_kernel_system(dom, kappas)
        dets = kernel_determinant(dom, kappas)
        assert dets.shape == (3, 3)
        for idx in np.ndindex(3, 3):
            k = float(kappas[idx])
            assert np.array_equal(stack[idx], build_kernel_system(dom, k))
            assert dets[idx] == kernel_determinant(dom, k)


class TestDeterminantScanOracle:
    def test_two_segment_symmetric(self):
        scan = scan_critical_contrasts(TwoSegmentDomain(-1.0, 1.0))
        assert scan.source is RootSource.DETERMINANT_SCAN
        closed = critical_contrasts_two_segment(-1.0).roots
        assert len(scan.roots) == 2
        for s, c in zip(scan.roots, closed):
            assert abs(s - c) <= 1e-10 * max(1.0, abs(c))

    def test_three_segment_half(self):
        scan = scan_critical_contrasts(ThreeSegmentDomain(0.5), -5.0, -0.01)
        closed = critical_contrasts_three_segment(0.5).roots
        assert len(scan.roots) == 2
        for s, c in zip(scan.roots, closed):
            assert abs(s - c) <= 1e-8

    def test_zero_set_equivalence_random_ratios(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            t = -math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            dom = TwoSegmentDomain(-1.0, -t)  # a = -1, b = -t so b/a = t
            closed = critical_contrasts_two_segment(t).roots
            scan = scan_critical_contrasts(dom).roots
            assert len(scan) == 2
            for s, c in zip(scan, closed):
                assert abs(s - c) <= 1e-8 * max(1.0, abs(c))


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
        assert abs(cubic.value(-eps) - cubic.value(eps)) <= 1e-10
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
        assert cubic.value(-0.5) == left[0] + u * (left[1] + u * (left[2] + u * left[3]))

    def test_sampling_shape(self):
        cubic = kernel_basis(TwoSegmentDomain(-1.0, 1.0), -7.0 - 4.0 * math.sqrt(3.0))
        table = cubic.sample(101)
        assert table.shape == (101, 4)
        assert table[0, 0] == -1.0 and table[-1, 0] == 1.0
        assert abs(table[0, 1]) < 1e-14 and abs(table[-1, 1]) < 1e-14
