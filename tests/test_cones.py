"""Tests for conical-tip exponents, cap eigenvalues and the classification."""

import math

import numpy as np
import pytest

from bilap.cones import (
    Classification,
    ConeSpectrum,
    WeightedIndex,
    cap_first_eigenvalue,
    classify_cap,
    classify_spectrum,
    critical_aperture,
    exponent_pair,
    fredholm_classify,
    isomorphism_in_dimension,
    legendre_p,
    legendre_p_integral,
)

# root of P_{1/2}(cos alpha) on (pi/2, pi), frozen from a 40-digit evaluation
ALPHA_C = 2.2813183068406470


def legendre_recurrence(n, x):
    """Classical three-term recurrence for integer-degree polynomials."""
    p_prev, p = 1.0, x
    if n == 0:
        return p_prev
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


class TestExponentPair:
    def test_half_space_cap(self):
        lm, lp = exponent_pair(3, 2.0)
        assert lp == 1.0 and lm == -2.0

    def test_two_dimensional_consistency(self):
        # aperture 3*pi/2 corner exponents +-2/3 recovered at d = 2
        mu = (math.pi / (1.5 * math.pi)) ** 2
        lm, lp = exponent_pair(2, mu)
        assert lp == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert lm == pytest.approx(-2.0 / 3.0, rel=1e-14)

    def test_sum_and_product(self):
        rng = np.random.default_rng(40)
        for _ in range(1000):
            d = int(rng.integers(2, 10))
            mu = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            lm, lp = exponent_pair(d, mu)
            assert lp > 0.0 > lm
            assert lp + lm == pytest.approx(2.0 - d, rel=1e-12, abs=1e-12)
            assert lp * lm == pytest.approx(-mu, rel=1e-12)


class TestLegendre:
    def test_degree_zero_and_one(self):
        for x in (-0.9, 0.0, 0.3, 1.0):
            assert legendre_p(0.0, x) == 1.0
            assert legendre_p(1.0, x) == pytest.approx(x, abs=1e-15)

    def test_degree_two(self):
        assert legendre_p(2.0, 0.5) == pytest.approx(-0.125, rel=1e-14)

    def test_integer_degrees_against_recurrence(self):
        for n in range(7):
            for x in np.linspace(-0.9, 1.0, 39):
                assert legendre_p(float(n), float(x)) == pytest.approx(
                    legendre_recurrence(n, float(x)), abs=1e-12
                )

    def test_quadrature_agreement(self):
        for nu in (0.5, 1.3, 2.7):
            for theta in (0.8, 1.6, 2.4):
                series = legendre_p(nu, math.cos(theta))
                quad = legendre_p_integral(nu, theta)
                assert quad == pytest.approx(series, abs=1e-10)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            legendre_p(0.5, -1.0)
        with pytest.raises(ValueError):
            legendre_p(-0.5, 0.0)


class TestCapEigenvalue:
    def test_half_sphere(self):
        assert cap_first_eigenvalue(math.pi / 2) == pytest.approx(2.0, abs=1e-8)

    def test_convex_caps_exceed_half_space(self):
        for alpha in (0.3, 0.8, 1.2, 1.5):
            mu1 = cap_first_eigenvalue(alpha)
            assert mu1 > 2.0
            _, lp = exponent_pair(3, mu1)
            assert lp > 1.0

    def test_monotone_nonincreasing(self):
        alphas = np.linspace(0.1 * math.pi, 0.9 * math.pi, 50)
        mus = [cap_first_eigenvalue(float(a)) for a in alphas]
        assert all(b <= a + 1e-9 for a, b in zip(mus, mus[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cap_first_eigenvalue(0.95 * math.pi)


class TestCriticalAperture:
    def test_value_and_residual(self):
        ac = critical_aperture()
        assert ac == pytest.approx(ALPHA_C, abs=1e-12)
        assert math.pi / 2 < ac < 0.9 * math.pi
        assert abs(legendre_p(0.5, math.cos(ac))) <= 1e-10

    def test_defining_eigenvalue(self):
        ac = critical_aperture()
        assert cap_first_eigenvalue(ac) == pytest.approx(0.75, abs=1e-8)

    def test_quadrature_oracle(self):
        ac = critical_aperture()
        assert abs(legendre_p_integral(0.5, ac)) <= 1e-6


class TestClassification:
    def test_reference_cases(self):
        w = WeightedIndex(beta=0.0, l=1, d=3)
        assert fredholm_classify(w, 1.0) is Classification.ISOMORPHISM
        assert fredholm_classify(w, 0.4) is Classification.INJECTIVE_NOT_ONTO
        assert fredholm_classify(w, 0.5) is Classification.NOT_FREDHOLM

    def test_truth_table_random(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            beta = rng.uniform(-4.0, 4.0)
            l = int(rng.integers(1, 5))
            d = int(rng.integers(2, 7))
            lam = math.exp(rng.uniform(math.log(1e-2), math.log(10.0)))
            w = WeightedIndex(beta, l, d)
            got = fredholm_classify(w, lam)
            x = beta - l + d / 2.0
            if abs(x - (1.0 - lam)) <= 1e-12 or abs(x - (d - 1.0 + lam)) <= 1e-12:
                expected = Classification.NOT_FREDHOLM
            elif x < 1.0 - lam:
                expected = Classification.INJECTIVE_NOT_ONTO
            elif x > d - 1.0 + lam:
                expected = Classification.ONTO_NOT_INJECTIVE
            else:
                expected = Classification.ISOMORPHISM
            assert got is expected

    def test_both_equality_edges(self):
        # x = beta - l + d/2; lower edge x = 1 - lam, upper edge x = d - 1 + lam
        w = WeightedIndex(beta=0.0, l=1, d=3)  # x = 0.5 = 1 - 0.5
        assert fredholm_classify(w, 0.5) is Classification.NOT_FREDHOLM
        w = WeightedIndex(beta=2.0, l=1, d=3)  # x = 2.5 = 2 + 0.5
        assert fredholm_classify(w, 0.5) is Classification.NOT_FREDHOLM

    def test_basic_index_equivalence(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            d = int(rng.integers(2, 8))
            lam = math.exp(rng.uniform(math.log(1e-2), math.log(5.0)))
            iso = isomorphism_in_dimension(d, lam)
            cls = fredholm_classify(WeightedIndex(0.0, 1, d), lam)
            assert iso == (cls is Classification.ISOMORPHISM)

    def test_dimension_four_always(self):
        assert isomorphism_in_dimension(4, 0.01)
        assert isomorphism_in_dimension(7, 0.001)

    def test_boundary_not_strict(self):
        assert not isomorphism_in_dimension(3, 0.5)
        assert isomorphism_in_dimension(3, 1.0)


class TestDataTypes:
    def test_cone_spectrum_validation(self):
        ConeSpectrum(3, (2.0, 6.0, 6.0))
        with pytest.raises(ValueError):
            ConeSpectrum(3, (2.0, 2.0))  # first eigenvalue must be simple
        with pytest.raises(ValueError):
            ConeSpectrum(3, (-1.0,))
        with pytest.raises(ValueError):
            ConeSpectrum(3, (2.0, 6.0, 5.0))

    def test_weighted_index_validation(self):
        with pytest.raises(ValueError):
            WeightedIndex(0.0, 0, 3)

    def test_classify_helpers(self):
        mu1, lp, cls = classify_cap(2.0)
        assert mu1 == pytest.approx(1.0932819084441001, rel=1e-10)
        assert cls is Classification.ISOMORPHISM
        lp2, cls2 = classify_spectrum(ConeSpectrum(3, (mu1,)))
        assert lp2 == pytest.approx(lp, rel=1e-14)
        assert cls2 is cls
