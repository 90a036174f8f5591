"""Tests for the corner dispersion function, region classification, exponent
search and the angular interface system."""

import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bilap import corner_spectrum
from bilap.corner_spectrum import (
    AngularProfile,
    CornerProblem,
    Membership,
    angular_profile,
    classify_region,
    critical_interval,
    dispersion,
    even_derivative_at_zero,
    find_singular_exponent,
    growth_factor,
    normalized_determinant,
    region_map,
    region_map_csv,
    scaled_dispersion,
    singular_sequence_lower_bound,
    taylor_coefficient,
    transmission_determinant,
    transmission_matrix,
)
from bilap.errors import NotSingular

# high-precision reference for h at (pi/2, -1, 1): -11 - cosh(2 pi) + 4 cosh(pi)
H_PI2_M1_AT_1 = -232.37894838166213


def sample_problems(n, seed, kappa_lo=-12.0, kappa_hi=-0.05):
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.05, math.pi - 0.05, n)
    kappas = -np.exp(rng.uniform(math.log(-kappa_hi), math.log(-kappa_lo), n))
    return [CornerProblem(float(a), float(k)) for a, k in zip(alphas, kappas)]


def sample_inside(n, seed):
    """Problems with positive quadratic coefficient, |g| > 1e-3."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a = rng.uniform(0.1, math.pi - 0.1)
        lm, lp = critical_interval(a)
        if rng.random() < 0.5:
            k = lm * (1.0 + rng.uniform(0.1, 2.0))
        else:
            k = lp * rng.uniform(0.05, 0.9)
        p = CornerProblem(a, k)
        if taylor_coefficient(p) > 1e-3:
            out.append(p)
    return out


def sample_outside(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a = rng.uniform(0.1, math.pi - 0.1)
        lm, lp = critical_interval(a)
        t = rng.uniform(0.1, 0.9)
        k = -math.exp((1 - t) * math.log(-lm) + t * math.log(-lp))
        p = CornerProblem(a, k)
        if taylor_coefficient(p) < -1e-3:
            out.append(p)
    return out


def mp_dispersion(alpha, kappa, eta):
    """The dispersion function from its definition, in 40-digit mpmath."""
    with mp.workdps(40):
        a, k, e = mp.mpf(alpha), mp.mpf(kappa), mp.mpf(eta)
        return (2 * k * mp.sinh(mp.pi * e) ** 2 + 2 * k * (k - 1) * mp.sinh(a * e) ** 2
                - 2 * (k - 1) * mp.sinh((mp.pi - a) * e) ** 2
                + e * e * (1 - k) ** 2 * (mp.cos(2 * a) - 1))


def mp_critical_interval(alpha):
    with mp.workdps(40):
        a = mp.mpf(alpha)
        s = mp.sin(a)
        return -(mp.pi - a + s) / (a - s), -(mp.pi - a - s) / (a + s)


def changes_sign_at(alpha, kappa, eta0, rel=1e-8):
    lo = mp_dispersion(alpha, kappa, eta0 * (1 - rel))
    hi = mp_dispersion(alpha, kappa, eta0 * (1 + rel))
    return mp.sign(lo) * mp.sign(hi) < 0


class TestDispersion:
    def test_zero_at_origin_exactly(self):
        assert dispersion(CornerProblem(math.pi / 2, -1.0), 0.0) == 0.0

    def test_reference_value(self):
        val = dispersion(CornerProblem(math.pi / 2, -1.0), 1.0)
        assert val == pytest.approx(H_PI2_M1_AT_1, rel=1e-12)

    def test_evenness(self):
        rng = np.random.default_rng(10)
        for p in sample_problems(1000, seed=11):
            eta = rng.uniform(0.05, 3.0)
            hp, hm = dispersion(p, eta), dispersion(p, -eta)
            assert abs(hp - hm) <= 1e-13 * (1.0 + abs(hp))

    def test_origin_vanishes_over_samples(self):
        for p in sample_problems(1000, seed=12):
            assert abs(dispersion(p, 0.0)) <= 1e-13

    def test_scaling_identity(self):
        rng = np.random.default_rng(13)
        for p in sample_problems(1000, seed=14):
            eta = rng.uniform(0.0, 3.0)
            h1 = dispersion(p, eta)
            h2 = dispersion(CornerProblem(math.pi - p.alpha, 1.0 / p.kappa), eta)
            assert abs(p.kappa ** 2 * h2 - h1) <= 1e-12 * (1.0 + abs(h1))

    def test_scaled_form_matches(self):
        rng = np.random.default_rng(15)
        for p in sample_problems(200, seed=16):
            eta = rng.uniform(0.0, 2.5)
            raw = dispersion(p, eta)
            scl = scaled_dispersion(p, eta) * math.cosh(2.0 * math.pi * eta)
            assert scl == pytest.approx(raw, rel=1e-12, abs=1e-12)

    def test_vector_evaluation(self):
        p = CornerProblem(1.0, -2.0)
        etas = np.linspace(0.0, 2.0, 7)
        for f in (dispersion, scaled_dispersion):
            vec = f(p, etas)
            assert vec.shape == (7,)
            for e, v in zip(etas, vec):
                assert v == f(p, float(e))

    def test_scaled_form_keeps_relative_accuracy_at_small_eta(self):
        # the terms of the scaled form are O(eta^2), like the dispersion
        for alpha, kappa, eta in ((1.0, -5.0, 1e-3), (2.0, -0.3, 1e-6), (0.5, -20.0, 0.02)):
            p = CornerProblem(alpha, kappa)
            with mp.workdps(40):
                ref = mp_dispersion(alpha, kappa, eta) / mp.cosh(2 * mp.pi * mp.mpf(eta))
            assert abs(scaled_dispersion(p, eta) - ref) <= 1e-13 * abs(ref)

    def test_validation(self):
        with pytest.raises(ValueError):
            CornerProblem(4.0, -1.0)
        with pytest.raises(ValueError):
            CornerProblem(1.0, 0.5)


class TestTaylorCoefficient:
    def test_exact_value_at_right_angle(self):
        assert taylor_coefficient(CornerProblem(math.pi / 2, -1.0)) == pytest.approx(
            -8.0, abs=1e-12
        )

    def test_vanishes_at_interval_endpoints(self):
        for alpha in (0.6, 1.2, math.pi / 2, 2.4):
            lm, lp = critical_interval(alpha)
            scale = abs(taylor_coefficient(CornerProblem(alpha, -1.0))) + 1.0
            assert abs(taylor_coefficient(CornerProblem(alpha, lm))) <= 1e-10 * scale
            assert abs(taylor_coefficient(CornerProblem(alpha, lp))) <= 1e-10 * scale

    def test_contrast_inversion_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = rng.uniform(0.2, math.pi - 0.2)
            k = -math.exp(rng.uniform(math.log(0.05), math.log(12.0)))
            lhs = taylor_coefficient(CornerProblem(a, k))
            rhs = k * k * taylor_coefficient(CornerProblem(math.pi - a, 1.0 / k))
            assert rhs == pytest.approx(lhs, rel=1e-12)


class TestSmallAngle:
    """alpha - sin(alpha) and alpha^2 - sin^2(alpha) cancel in double precision
    as alpha -> 0; both come from their series there."""

    @pytest.mark.parametrize("alpha", [1e-9, 1e-6, 1e-3])
    def test_against_mpmath(self, alpha):
        lm, lp = critical_interval(alpha)
        ref_lm, ref_lp = mp_critical_interval(alpha)
        assert abs(lm - ref_lm) <= 1e-14 * abs(ref_lm)
        assert abs(lp - ref_lp) <= 1e-14 * abs(ref_lp)
        for kappa in (-1.0, 2.0 * float(ref_lm)):
            with mp.workdps(80):
                a, k = mp.mpf(alpha), mp.mpf(kappa)
                # eta^2 coefficient of the dispersion, term by term from its definition
                ref = (2 * k * mp.pi ** 2 + 2 * k * (k - 1) * a ** 2
                       - 2 * (k - 1) * (mp.pi - a) ** 2 - 2 * (1 - k) ** 2 * mp.sin(a) ** 2)
                g = taylor_coefficient(CornerProblem(alpha, kappa))
                assert abs(g - ref) <= 1e-13 * abs(ref)

    def test_exponent_at_tiny_angle(self):
        p = CornerProblem(1e-9, -1.0)
        assert classify_region(p).membership is Membership.INSIDE
        res = find_singular_exponent(p)
        assert res is not None and changes_sign_at(p.alpha, p.kappa, res.eta0)


class TestNearPi:
    """pi - alpha - sin(alpha) and (pi - alpha)^2 - sin^2(alpha) cancel as
    alpha -> pi, the mirror of the small-angle case; the oracle uses the true pi."""

    @pytest.mark.parametrize("d", [1e-9, 1e-6, 1e-3])
    def test_against_mpmath(self, d):
        alpha = math.pi - d
        _, lp = critical_interval(alpha)
        ref_lp = mp_critical_interval(alpha)[1]
        assert abs(lp - ref_lp) <= 1e-12 * abs(ref_lp)
        for kappa in (0.5 * lp, 2.0 * lp):
            with mp.workdps(80):
                a, k = mp.mpf(alpha), mp.mpf(kappa)
                ref = (2 * k * mp.pi ** 2 + 2 * k * (k - 1) * a ** 2
                       - 2 * (k - 1) * (mp.pi - a) ** 2 - 2 * (1 - k) ** 2 * mp.sin(a) ** 2)
                g = taylor_coefficient(CornerProblem(alpha, kappa))
                assert abs(g - ref) <= 1e-12 * abs(ref) and (g > 0) == (ref > 0)


    @pytest.mark.parametrize("d", [0.1001, 0.2, 0.5])
    def test_just_above_series_angle(self, d):
        # outside the series, the forms in alpha and pi cancel by about pi / d
        alpha = math.pi - d
        _, lp = critical_interval(alpha)
        for kappa in (0.5 * lp, 2.0 * lp):
            with mp.workdps(80):
                a, k = mp.mpf(alpha), mp.mpf(kappa)
                ref = (2 * k * mp.pi ** 2 + 2 * k * (k - 1) * a ** 2
                       - 2 * (k - 1) * (mp.pi - a) ** 2 - 2 * (1 - k) ** 2 * mp.sin(a) ** 2)
                g = taylor_coefficient(CornerProblem(alpha, kappa))
                assert abs(g - ref) <= 1e-14 * abs(ref)


class TestCriticalInterval:
    def test_right_angle_values(self):
        lm, lp = critical_interval(math.pi / 2)
        assert lm == pytest.approx(-(math.pi / 2 + 1) / (math.pi / 2 - 1), rel=1e-14)
        assert lp == pytest.approx(-(math.pi / 2 - 1) / (math.pi / 2 + 1), rel=1e-14)
        assert lm * lp == pytest.approx(1.0, rel=1e-13)

    def test_ordering_and_sign(self):
        for alpha in np.linspace(0.05, math.pi - 0.05, 50):
            lm, lp = critical_interval(float(alpha))
            assert lm < lp < 0.0

    def test_reflection_identity(self):
        for alpha in (math.pi / 6, math.pi / 3, 2 * math.pi / 5):
            lm, _ = critical_interval(alpha)
            _, lp_ref = critical_interval(math.pi - alpha)
            assert lp_ref * lm == pytest.approx(1.0, rel=1e-12)


class TestClassifyRegion:
    def test_examples(self):
        assert classify_region(CornerProblem(math.pi / 2, -10.0)).membership is Membership.INSIDE
        assert classify_region(CornerProblem(math.pi / 2, -1.0)).membership is Membership.OUTSIDE
        lm, _ = critical_interval(1.1)
        assert classify_region(CornerProblem(1.1, lm)).membership is Membership.BOUNDARY

    def test_report_fields(self):
        rep = classify_region(CornerProblem(math.pi / 2, -10.0))
        assert rep.ell_minus < rep.ell_plus < 0.0
        assert rep.g_value > 0.0


class TestEvenDerivatives:
    # order-4 central stencils; deltas balance truncation against roundoff
    DELTAS = {1: 0.002, 2: 0.002, 3: 0.006}

    @staticmethod
    def fd_estimate(p, k, delta):
        offsets = np.arange(-(k + 1), k + 2)
        A = np.vander(offsets.astype(float), increasing=True).T
        b = np.zeros(len(offsets))
        b[2 * k] = math.factorial(2 * k)
        w = np.linalg.solve(A, b)
        return sum(wi * dispersion(p, o * delta) for wi, o in zip(w, offsets)) / delta ** (2 * k)

    def test_base_cases(self):
        p = CornerProblem(math.pi / 2, -1.0)
        assert even_derivative_at_zero(p, 0) == 0.0
        assert even_derivative_at_zero(p, 1) == pytest.approx(
            2.0 * taylor_coefficient(p), rel=1e-15
        )
        assert even_derivative_at_zero(p, 2) == pytest.approx(-12.0 * math.pi ** 4, rel=1e-13)

    def test_matches_finite_differences(self):
        for p in sample_problems(40, seed=18):
            for k in (1, 2, 3):
                fd = self.fd_estimate(p, k, self.DELTAS[k])
                exact = even_derivative_at_zero(p, k)
                assert fd == pytest.approx(exact, rel=1e-5)

    def test_fourth_derivative_at_endpoints_nonpositive(self):
        # compatibility of the quartic coefficient with the interval endpoints
        rng = np.random.default_rng(19)
        for _ in range(50):
            alpha = rng.uniform(0.05, math.pi - 0.05)
            lm, lp = critical_interval(alpha)
            for k in (lm, lp):
                p = CornerProblem(alpha, k)
                val = even_derivative_at_zero(p, 2)
                scale = (
                    -k * (2 * math.pi) ** 4
                    + abs(k * (k - 1)) * (2 * alpha) ** 4
                    + abs(k - 1) * (2 * (math.pi - alpha)) ** 4
                )
                assert val <= 1e-9 * scale


class TestExponentSearch:
    def test_inside_case(self):
        res = find_singular_exponent(CornerProblem(math.pi / 2, -10.0))
        assert res is not None
        assert res.eta0 > 0.0
        assert res.residual <= 1e-10
        assert res.sign_changes_found == 1
        assert res.bracket[0] < res.eta0 < res.bracket[1]
        p = CornerProblem(math.pi / 2, -10.0)
        assert scaled_dispersion(p, res.bracket[0]) * scaled_dispersion(p, res.bracket[1]) < 0

    def test_outside_case(self):
        assert find_singular_exponent(CornerProblem(math.pi / 2, -1.0)) is None

    def test_reflection_symmetry_of_roots(self):
        for alpha, kappa in ((math.pi / 3, -20.0), (1.1, -30.0), (0.9, -40.0)):
            r1 = find_singular_exponent(CornerProblem(alpha, kappa))
            r2 = find_singular_exponent(CornerProblem(math.pi - alpha, 1.0 / kappa))
            assert r1 is not None and r2 is not None
            assert abs(r1.eta0 - r2.eta0) <= 1e-10

    @pytest.mark.parametrize("kappa", [-1e15, -1e100, -1e150])
    def test_huge_contrast_keeps_its_exponent(self, kappa):
        # near the root the values are O(|kappa|) against a kappa^2 overall
        # scale: the sign floor must follow the terms, not 1 + kappa^2; at
        # -1e150 the product of two values overflows, their signs do not
        p = CornerProblem(1.0, kappa)
        assert classify_region(p).membership is Membership.INSIDE
        res = find_singular_exponent(p)
        assert res is not None and changes_sign_at(p.alpha, p.kappa, res.eta0)

    def test_root_counts_inside_and_outside(self):
        for p in sample_inside(100, seed=20):
            res = find_singular_exponent(p)
            assert res is not None, (p.alpha, p.kappa)
            assert res.sign_changes_found == 1
        for p in sample_outside(100, seed=21):
            assert find_singular_exponent(p) is None, (p.alpha, p.kappa)

    def test_raw_residual_small_for_moderate_roots(self):
        # where cosh stays tame the unscaled dispersion is small at the root too
        for p in sample_inside(50, seed=22):
            res = find_singular_exponent(p)
            if res.eta0 <= 1.0:
                assert abs(dispersion(p, res.eta0)) <= 1e-10 * (
                    1.0 + p.kappa ** 2 * math.cosh(2.0 * math.pi * res.eta0)
                )


def margin_kappa(data, alpha):
    """kappa in [-30, -0.05], drawn either log-uniformly or at a relative
    distance in [1e-4, 0.1] from ell_minus or ell_plus, and never closer."""
    lm, lp = mp_critical_interval(alpha)
    if data.draw(st.booleans()):
        kappa = -math.exp(data.draw(st.floats(math.log(0.05), math.log(30.0))))
    else:
        edge = lm if data.draw(st.booleans()) else lp
        m = math.exp(data.draw(st.floats(math.log(1e-4), math.log(0.1))))
        kappa = float(edge * (1 + m if data.draw(st.booleans()) else 1 - m))
    assume(-30.0 <= kappa <= -0.05)
    assume(min(abs(kappa / lm - 1), abs(kappa / lp - 1)) >= 1e-4)
    return kappa, kappa < lm or lp < kappa


class TestSearchOracle:
    """The exponent search against mpmath, apart from the program's own
    classification."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(alpha=st.floats(0.1, math.pi - 0.1), data=st.data())
    def test_inside_iff_found_and_sign_change(self, alpha, data):
        kappa, inside = margin_kappa(data, alpha)
        res = find_singular_exponent(CornerProblem(alpha, kappa))
        assert (res is not None) == inside
        if res is not None:
            assert changes_sign_at(alpha, kappa, res.eta0)

    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(a0=st.floats(0.05, 2.0), width=st.floats(0.1, 1.0),
           k1=st.floats(-3.0, -0.05), height=st.floats(0.5, 20.0))
    def test_region_map_matches_single_searches(self, a0, width, k1, height):
        # blocks of 16 cells: the 63 cells span four of them
        with mock.patch.object(corner_spectrum, "_SEARCH_BLOCK", 16):
            cells = region_map((a0, a0 + width), (k1 - height, k1), 7, 9)
        assert len(cells) == 63
        for c in cells:
            assert not c.failed
            assert c.result == find_singular_exponent(CornerProblem(c.alpha, c.kappa))


class TestTransmissionSystem:
    def test_excluded_lambdas(self):
        p = CornerProblem(1.0, -3.0)
        for lam in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                transmission_matrix(p, lam)

    def test_clamped_basis_at_zero(self):
        from bilap.corner_spectrum import _basis

        b1, b2 = _basis(1.0 + 0.7j, 0.0)
        assert b1[0] == 0.0 and b1[1] == 0.0
        assert b2[0] == 0.0 and b2[1] == 0.0

    def test_determinant_vanishes_at_exponents(self):
        for alpha, kappa in ((math.pi / 2, -10.0), (math.pi / 3, -20.0), (1.0, -25.0)):
            p = CornerProblem(alpha, kappa)
            res = find_singular_exponent(p)
            assert normalized_determinant(p, 1.0 + 1j * res.eta0) <= 1e-8

    def test_determinant_bounded_away_outside(self):
        p = CornerProblem(math.pi / 2, -1.0)
        for eta in (0.5, 1.0, 2.0):
            assert normalized_determinant(p, 1.0 + 1j * eta) > 1e-6

    def test_conjugate_reality(self):
        p = CornerProblem(1.2, -4.0)
        for eta in (0.4, 1.3):
            dp = transmission_determinant(p, 1.0 + 1j * eta)
            dm = transmission_determinant(p, 1.0 - 1j * eta)
            assert abs(dp) == pytest.approx(abs(dm), rel=1e-12)


@pytest.fixture(scope="module")
def profile():
    p = CornerProblem(math.pi / 2, -10.0)
    res = find_singular_exponent(p)
    return p, res, angular_profile(p, 1.0 + 1j * res.eta0)


class TestAngularProfile:

    def test_interface_residual(self, profile):
        _, _, prof = profile
        assert prof.interface_residual() <= 1e-10

    def test_normalization(self, profile):
        _, _, prof = profile
        mags = np.abs(prof.coeffs)
        assert mags.max() == pytest.approx(1.0, abs=1e-15)
        assert mags.min() > 0.0

    def test_biharmonic_residual(self, profile):
        _, _, prof = profile
        assert prof.biharmonic_residual() <= 1e-10

    def test_boundary_values(self, profile):
        _, _, prof = profile
        for theta in (0.0, math.pi):
            d = prof.derivatives(theta)
            assert abs(d[0]) <= 1e-12 and abs(d[1]) <= 1e-12

    def test_array_evaluation(self, profile):
        _, _, prof = profile
        thetas = np.append(np.linspace(0.0, math.pi, 13), prof.alpha)
        stack = prof.derivatives(thetas)
        for i, theta in enumerate(thetas):
            # same arithmetic; numpy's complex loops may round the last bit apart
            np.testing.assert_allclose([d[i] for d in stack], prof.derivatives(float(theta)),
                                       rtol=1e-14, atol=0.0)

    def test_not_singular_raises(self):
        p = CornerProblem(math.pi / 2, -1.0)
        with pytest.raises(NotSingular):
            angular_profile(p, 1.0 + 0.8j)


class TestGrowthBound:
    def test_bare_factor(self):
        assert growth_factor(1, 1.0) == 0.5
        assert growth_factor(100, 0.5) == pytest.approx(50.0 * 0.5 ** 0.02, rel=1e-15)

    def test_factor_ratio_identity(self):
        delta = 0.5
        expected = growth_factor(1, delta) * 100.0 * delta ** (2.0 / 100 - 2.0)
        assert growth_factor(100, delta) == pytest.approx(expected, rel=1e-14)

    def test_factor_eventually_increasing(self):
        vals = [growth_factor(m, 0.5) for m in range(2, 1000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_unbounded_growth(self):
        p = CornerProblem(math.pi / 2, -10.0)
        res = find_singular_exponent(p)
        prof = angular_profile(p, 1.0 + 1j * res.eta0)
        bounds = [
            singular_sequence_lower_bound(prof, res.eta0, m, 1.0)
            for m in (1, 10, 100, 1000, 10000)
        ]
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] > 1e3


class TestRegionMap:
    def test_small_map_consistency(self):
        cells = region_map((0.3, math.pi - 0.3), (-11.0, -0.1), 8, 8)
        assert len(cells) == 64
        for c in cells:
            assert not c.failed
            if c.report.g_value > 1e-3:
                assert c.result is not None and c.result.sign_changes_found == 1
            elif c.report.g_value < -1e-3:
                assert c.result is None

    def test_reflection_invariance(self):
        alphas = (math.pi / 3, math.pi / 2, 2 * math.pi / 3)
        kappas = (-4.0, -2.0, -1.0, -0.5, -0.25)
        for a in alphas:
            for k in kappas:
                c1 = classify_region(CornerProblem(a, k)).membership
                c2 = classify_region(CornerProblem(math.pi - a, 1.0 / k)).membership
                assert c1 is c2
                r1 = find_singular_exponent(CornerProblem(a, k))
                r2 = find_singular_exponent(CornerProblem(math.pi - a, 1.0 / k))
                assert (r1 is None) == (r2 is None)
                if r1 is not None:
                    assert abs(r1.eta0 - r2.eta0) <= 1e-10

    def test_csv_format(self):
        cells = region_map((0.5, 2.5), (-5.0, -0.2), 3, 3)
        text = region_map_csv(cells)
        lines = text.strip().split("\n")
        assert lines[0] == "alpha,kappa,g,ell_minus,ell_plus,membership,eta0,residual"
        assert len(lines) == 10
        for line in lines[1:]:
            assert len(line.split(",")) == 8

    def test_csv_deterministic(self):
        a = region_map_csv(region_map((0.5, 2.5), (-5.0, -0.2), 4, 4))
        b = region_map_csv(region_map((0.5, 2.5), (-5.0, -0.2), 4, 4))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            region_map((0.0, 3.0), (-5.0, -0.2), 4, 4)
        with pytest.raises(ValueError):
            region_map((0.5, 2.5), (-5.0, 0.2), 4, 4)
        with pytest.raises(ValueError):
            region_map((0.5, 2.5), (-5.0, -0.2), 1, 4)
