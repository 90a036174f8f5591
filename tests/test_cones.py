"""Tests for conical-tip exponents, cap eigenvalues and the classification."""

import math

import mpmath as mp
import numpy as np
import pytest

from bilap.cones import (
    Classification,
    WeightedIndex,
    cap_first_eigenvalue,
    classify_spectrum,
    exponent_pair,
    fredholm_classify,
    isomorphism_in_dimension,
    _series,
)
from bilap.errors import NumericalFailure

# root of P_{1/2}(cos alpha) on (pi/2, pi), frozen from a 40-digit evaluation
ALPHA_C = 2.2813183068406470
# the first two zeros of J_0, at 30 digits
J01, J02 = mp.besseljzero(0, 1), mp.besseljzero(0, 2)


def legendre(nu, x):
    """P_nu(x) as the cone module reads it: its series at z = (1 - x)/2."""
    return _series(nu, 0.5 * (1.0 - x))


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

    def test_lambda_plus_against_mpmath(self):
        # half + sqrt(half^2 + mu), from the same double mu, with 360 digits
        # to carry it through the sum's cancellation of up to 300 digits; in
        # doubles that sum cancels for small mu once d >= 3
        rng = np.random.default_rng(41)
        for _ in range(2000):
            d = int(rng.integers(2, 11))
            mu = 10.0 ** rng.uniform(-300.0, 3.0)
            with mp.workdps(360):
                half = 1 - mp.mpf(d) / 2
                ref = half + mp.sqrt(half * half + mp.mpf(mu))
            lp = exponent_pair(d, mu)[1]
            assert abs(lp - ref) <= 1e-15 * ref, (d, mu)

    @pytest.mark.parametrize("d", [10 ** 155, 10 ** 200, 10 ** 300], ids=["1e155", "1e200", "1e300"])
    def test_huge_dimension(self, d):
        # half^2 overflows once |half| passes about 1.3e154; lambda_plus, about
        # mu / (2 |half|), is still a normal float
        for mu in (1e-3, 1.0, 1e3):
            lm, lp = exponent_pair(d, mu)
            with mp.workdps(700):
                half = 1 - mp.mpf(d) / 2
                root = mp.sqrt(half * half + mp.mpf(mu))
                ref_m, ref_p = half - root, mp.mpf(mu) / (root - half)
            assert lp > 0.0 and abs(lp - ref_p) <= 1e-15 * ref_p, (d, mu)
            assert abs(lm - ref_m) <= 1e-15 * abs(ref_m), (d, mu)


class TestLegendre:
    def test_degree_zero_and_one(self):
        for x in (-0.9, 0.0, 0.3, 1.0):
            assert legendre(0.0, x) == 1.0
            assert legendre(1.0, x) == pytest.approx(x, abs=1e-15)

    def test_degree_two(self):
        assert legendre(2.0, 0.5) == pytest.approx(-0.125, rel=1e-14)

    def test_integer_degrees_against_recurrence(self):
        for n in range(7):
            for x in np.linspace(-0.9, 1.0, 39):
                assert legendre(float(n), float(x)) == pytest.approx(
                    legendre_recurrence(n, float(x)), abs=1e-12
                )

    def test_quadrature_agreement(self):
        # mpmath's Ferrers function P_nu(x), at 30 digits, of the same double x
        for nu in (0.5, 1.3, 2.7):
            for theta in (0.8, 1.6, 2.4):
                x = math.cos(theta)
                with mp.workdps(30):
                    ref = float(mp.legenp(nu, 0, x))
                assert legendre(nu, x) == pytest.approx(ref, abs=1e-12)


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


def series_on_grid(nu, z):
    """2F1(-nu, nu + 1; 1; z) summed elementwise in numpy until every term is
    below 1e-16 of its row's sum of absolute terms."""
    term, total, scale = np.ones_like(nu), np.ones_like(nu), np.ones_like(nu)
    for j in range(100000):
        term = term * (j - nu) * (j + nu + 1.0) / (j + 1.0) ** 2 * z
        total, scale = total + term, scale + np.abs(term)
        if (np.abs(term) <= 1e-16 * scale).all():
            return total
    raise AssertionError("series did not converge")


def degree_of(mu):
    """The degree nu >= 0 with nu (nu + 1) = mu, by the form that does not cancel."""
    return mu / (0.5 + (0.25 + mu) ** 0.5)


def series_root(alpha: float, nu: float, p) -> mp.mpf:
    """The root of p(degree, alpha) near the double nu, by two secant steps
    at 60 digits from nu and nu (1 + 1e-10): about 1e-35 relative."""
    with mp.workdps(60):
        a, x0 = mp.mpf(alpha), mp.mpf(nu)
        x1 = x0 * (1 + mp.mpf(10) ** -10)
        f0, f1 = p(x0, a), p(x1, a)
        for _ in range(2):
            x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
            f1 = p(x1, a)
        assert abs(x1 - x0) <= mp.mpf(10) ** -20 * x1  # the last step, about 1e-25
        return x1


def mp_series(deg, alpha):
    """The plain sum of 2F1(-deg, deg + 1; 1; sin^2(alpha/2)), to 1e-50."""
    z = mp.sin(alpha / 2) ** 2
    term, total, j = mp.mpf(1), mp.mpf(1), 0
    while abs(term) > mp.mpf(10) ** -50:
        term *= (j - deg) * (j + deg + 1) / (j + 1) ** 2 * z
        total += term
        j += 1
    return total


class TestCapBracket:
    """The degree bracket (0, h], h = (j01 + j02) / (2 alpha) - 1/2."""

    def test_series_changes_sign_once_on_the_bracket(self):
        alphas = np.geomspace(1e-150, 0.9 * math.pi, 500)
        h = float((J01 + J02) / 2) / alphas - 0.5
        z = np.sin(0.5 * alphas) ** 2
        nu = h[:, None] * np.linspace(0.0, 1.0, 101)
        values = series_on_grid(nu, z[:, None])
        assert (values[:, 0] == 1.0).all()
        assert ((values[:, :-1] > 0) != (values[:, 1:] > 0)).sum(axis=1).tolist() == [1] * 500
        at_h = [_series(float(e), float(zz)) for e, zz in zip(h, z)]
        assert max(at_h) <= -0.39
        assert np.allclose(at_h, values[:, -1], rtol=0.0, atol=1e-12)

    def test_first_eigenvalue_against_the_series_oracle(self):
        # the plain 60-digit sum, since mpmath's hyp2f1 and legenp lose the
        # sign at tiny caps; from alpha = 0.05 up, legenp at 30 digits changes
        # sign across mu1 (1 -+ 2e-14) too (at 60 it can take seconds a call)
        rng = np.random.default_rng(27)
        alphas = np.concatenate([np.exp(rng.uniform(math.log(1e-150), math.log(0.05), 32)),
                                 rng.uniform(0.05, 0.9 * math.pi, 8)])
        for alpha in alphas.tolist():
            mu1 = cap_first_eigenvalue(alpha)
            root = series_root(alpha, degree_of(mu1), mp_series)
            with mp.workdps(60):
                assert abs(mu1 - root * (root + 1)) <= 2e-14 * root * (root + 1), alpha
                # Sturm comparison with J_0: the first degree, below j01 / alpha - 1/2
                assert root < J01 / mp.mpf(alpha) - mp.mpf(1) / 2, alpha
            if alpha >= 0.05:
                with mp.workdps(30):
                    x = mp.cos(mp.mpf(alpha))
                    lo, hi = (mp.legenp(degree_of(mp.mpf(mu1) * (1 + e)), 0, x) for e in (-2e-14, 2e-14))
                assert lo * hi < 0, alpha

    def test_narrowest_cap(self):
        # below alpha ~ 2.9553e-154 the bracket end h squared overflows
        assert cap_first_eigenvalue(3e-154) == pytest.approx(float((J01 / mp.mpf(3e-154)) ** 2), rel=1e-14)
        with pytest.raises(NumericalFailure, match="cap too narrow"):
            cap_first_eigenvalue(2.95e-154)


class TestCriticalAperture:
    """ALPHA_C, where the leading exponent reaches one half (mu_1 = 3/4)."""

    def test_value_and_residual(self):
        # mpmath's P_{1/2}(cos a), at 30 digits, changes sign within 1e-15 of it
        with mp.workdps(30):
            lo, hi = (mp.legenp(0.5, 0, mp.cos(mp.mpf(ALPHA_C) + d)) for d in (-1e-15, 1e-15))
        assert lo * hi < 0
        assert math.pi / 2 < ALPHA_C < 0.9 * math.pi
        assert abs(legendre(0.5, math.cos(ALPHA_C))) <= 1e-10

    def test_defining_eigenvalue(self):
        assert cap_first_eigenvalue(ALPHA_C) == pytest.approx(0.75, abs=1e-8)


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
        # off the edge d = 4 - 2 lam, the closed criterion d > 4 - 2 lam
        rng = np.random.default_rng(42)
        for _ in range(300):
            d = int(rng.integers(2, 8))
            lam = math.exp(rng.uniform(math.log(1e-2), math.log(5.0)))
            if abs(0.5 * d - 2.0 + lam) > 1e-9:
                assert isomorphism_in_dimension(d, lam) == (d > 4.0 - 2.0 * lam)

    def test_dimension_four_always(self):
        assert isomorphism_in_dimension(4, 0.01)
        assert isomorphism_in_dimension(7, 0.001)

    def test_boundary_not_strict(self):
        assert not isomorphism_in_dimension(3, 0.5)
        assert isomorphism_in_dimension(3, 1.0)
        # 4 - 2 lam rounds below d = 2, but lam is within 1e-12 of the edge
        assert not isomorphism_in_dimension(2, 1.0000000000000002)


class TestDataTypes:
    def test_weighted_index_validation(self):
        with pytest.raises(ValueError):
            WeightedIndex(0.0, 0, 3)

    def test_classify_helpers(self):
        mu1 = cap_first_eigenvalue(2.0)
        assert mu1 == pytest.approx(1.0932819084441001, rel=1e-10)
        lp, cls = classify_spectrum(3, mu1)
        assert lp == exponent_pair(3, mu1)[1]
        assert cls is Classification.ISOMORPHISM
        with pytest.raises(ValueError, match="mu must be positive"):
            classify_spectrum(3, 0.0)
