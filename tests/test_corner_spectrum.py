"""Tests for the corner dispersion function, region classification, exponent
search and the angular interface system."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    normalized_determinant,
    region_map,
    scaled_dispersion,
    transmission_matrix,
)
from bilap import corner_spectrum as cs
from bilap.corner_spectrum import _factors
from bilap.errors import NotSingular, NumericalFailure

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
        if classify_region(p).g_value > 1e-3:
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
        if classify_region(p).g_value < -1e-3:
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


def dense_sign_changes(p, n=600):
    """Sign changes of the scaled dispersion on a dense geometric grid from
    1e-8 up to its tail, the first 10 * 2**j where it is negative, apart from
    the search: values within 1e-12 of the largest value on the grid do not
    count for their sign."""
    tail = next(10.0 * 2.0 ** j for j in range(60) if scaled_dispersion(p, 10.0 * 2.0 ** j) < 0.0)
    vals = scaled_dispersion(p, np.geomspace(1e-8, tail, n))
    signs = np.sign(vals[np.abs(vals) > 1e-12 * np.abs(vals).max()])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


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

    @pytest.mark.parametrize("alpha, side", [(1.0, 1), (2.0, 0)])
    def test_relative_accuracy_next_to_an_edge(self, alpha, side):
        # at relative distance 1e-8 from ell_minus or ell_plus the four terms
        # cancel to g * eta^2 = 1e-8 of their size, and their sum in double
        # (_scaled_terms) is up to 6.5e-8 off; the series keeps it to 1e-10
        edge = critical_interval(alpha)[side]
        kappa = edge * (1.0 + 1e-8 if side == 0 else 1.0 - 1e-8)
        p = CornerProblem(alpha, kappa)
        for eta in (1e-6, 1e-5, 3e-5, 2e-4, 1e-3):
            with mp.workdps(40):
                ref = mp_dispersion(alpha, kappa, eta) / mp.cosh(2 * mp.pi * mp.mpf(eta))
            assert abs(scaled_dispersion(p, eta) - ref) <= 1e-10 * abs(ref), eta

    def test_against_mpmath_terms(self):
        # error relative to the sum of the absolute terms, the scale at which
        # the four terms of the definition cancel
        rng = np.random.default_rng(18)
        worst = 0.0
        with mp.workdps(30):
            for _ in range(3000):
                alpha, eta = rng.uniform(0.01, math.pi - 0.01), 10.0 ** rng.uniform(-4.0, 0.8)
                kappa = -(10.0 ** rng.uniform(-2.0, 2.0))
                a, k, e = mp.mpf(alpha), mp.mpf(kappa), mp.mpf(eta)
                terms = (2 * k * mp.sinh(mp.pi * e) ** 2, 2 * k * (k - 1) * mp.sinh(a * e) ** 2,
                         -2 * (k - 1) * mp.sinh((mp.pi - a) * e) ** 2,
                         e * e * (1 - k) ** 2 * (mp.cos(2 * a) - 1))
                err = abs(dispersion(CornerProblem(alpha, kappa), eta) - sum(terms))
                worst = max(worst, float(err / sum(abs(t) for t in terms)))
        assert worst <= 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            CornerProblem(4.0, -1.0)
        with pytest.raises(ValueError):
            CornerProblem(1.0, 0.5)


class TestTaylorCoefficient:
    def test_exact_value_at_right_angle(self):
        assert classify_region(CornerProblem(math.pi / 2, -1.0)).g_value == pytest.approx(
            -8.0, abs=1e-12
        )

    def test_vanishes_at_interval_endpoints(self):
        for alpha in (0.6, 1.2, math.pi / 2, 2.4):
            lm, lp = critical_interval(alpha)
            scale = abs(classify_region(CornerProblem(alpha, -1.0)).g_value) + 1.0
            assert abs(classify_region(CornerProblem(alpha, lm)).g_value) <= 1e-10 * scale
            assert abs(classify_region(CornerProblem(alpha, lp)).g_value) <= 1e-10 * scale

    def test_contrast_inversion_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = rng.uniform(0.2, math.pi - 0.2)
            k = -math.exp(rng.uniform(math.log(0.05), math.log(12.0)))
            lhs = classify_region(CornerProblem(a, k)).g_value
            rhs = k * k * classify_region(CornerProblem(math.pi - a, 1.0 / k)).g_value
            assert rhs == pytest.approx(lhs, rel=1e-12)


    def test_longdouble_factors_in_one_pass(self):
        # _series forms the factors over the array of its distinct alphas at
        # once: they are the ones formed an alpha at a time, to the last bit,
        # on both sides of _SERIES_ANGLE for alpha and for pi - alpha
        rng = np.random.default_rng(36)
        edge = cs._SERIES_ANGLE
        alpha = np.concatenate([rng.uniform(0.0, edge, 40), rng.uniform(edge, math.pi - edge, 40),
                                math.pi - rng.uniform(0.0, edge, 40),
                                [1e-300, edge, math.pi - edge, math.pi - 1e-9]])
        together = _factors(alpha.astype(np.longdouble), np.sin)
        apart = np.array([_factors(np.longdouble(a), np.sin) for a in alpha.tolist()],
                         dtype=np.longdouble).T
        assert all(x.dtype == np.longdouble and np.array_equal(x, y) for x, y in zip(together, apart))


class TestTaylorOracle:
    """g = 2 F_- F_+ against 2 a2 k^2 - 4 a1 k + 2 a0 in 60-digit mpmath, with
    a2 = a^2 - sin^2 a, a1 = a2 - pi a and a0 = (pi - a)^2 - sin^2 a, on random
    angles (a fifth within 1e-3 of 0, a fifth within 1e-3 of pi) and contrasts,
    half of them within a relative 1e-3 of ell_minus or ell_plus."""

    def test_against_mpmath(self):
        rng = np.random.default_rng(19)
        worst, points = 0.0, 0
        with mp.workdps(60):
            for i in range(1000):
                u = 10.0 ** rng.uniform(-8.0, -3.0)
                alpha = (u, math.pi - u, *rng.uniform(0.0, math.pi, 3))[i % 5]
                lm, lp = critical_interval(alpha)
                edges = rng.choice([lm, lp], 10) * (1.0 + rng.choice([-1.0, 1.0], 10)
                                                    * 10.0 ** rng.uniform(-12.0, -3.0, 10))
                a = mp.mpf(alpha)
                s = mp.sin(a)
                a2 = a * a - s * s
                a1, a0 = a2 - mp.pi * a, (mp.pi - a) ** 2 - s * s
                for kappa in (*(-(10.0 ** rng.uniform(-4.0, 6.0, 10))), *edges):
                    g = classify_region(CornerProblem(alpha, float(kappa))).g_value
                    k = mp.mpf(kappa)
                    ref = 2 * a2 * k * k - 4 * a1 * k + 2 * a0
                    scale = abs(2 * a2 * k * k) + abs(4 * a1 * k) + abs(2 * a0)
                    worst = max(worst, float(abs(g - ref) / scale))
                    assert (g > 0.0) == (kappa < lm or lp < kappa)
                    points += 1
        assert points == 20000 and worst <= 1e-15


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
                g = classify_region(CornerProblem(alpha, kappa)).g_value
                assert abs(g - ref) <= 1e-13 * abs(ref)

    def test_exponent_at_tiny_angle(self):
        p = CornerProblem(1e-9, -1.0)
        assert classify_region(p).membership is Membership.INSIDE
        res = find_singular_exponent(p)
        assert res is not None and changes_sign_at(p.alpha, p.kappa, res.eta0)

    @pytest.mark.parametrize("kappa", [-1e100, -1e150])
    def test_no_exponent_below_the_sign_floor(self, kappa):
        # g eta^2 is alpha^2 / 6 of the absolute terms at eta = 1e-100, under
        # the 4e-15 floor: the stated bound is None, never a wrong eta0
        p = CornerProblem(1e-9, kappa)
        assert classify_region(p).membership is Membership.INSIDE
        assert find_singular_exponent(p) is None


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
                g = classify_region(CornerProblem(alpha, kappa)).g_value
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
                g = classify_region(CornerProblem(alpha, kappa)).g_value
                assert abs(g - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("d", [1e-9, 1e-6, 1e-3])
    def test_exponent_against_mpmath(self, d):
        # the scaled dispersion holds pi - alpha too: without the low part of
        # pi it is 1.2e-7 off at d = 1e-9, and so is eta0
        alpha = math.pi - d
        for kappa in (-1.0, -1e5):
            res = find_singular_exponent(CornerProblem(alpha, kappa))
            assert res is not None and changes_sign_at(alpha, kappa, res.eta0), kappa

    @pytest.mark.parametrize("d", [1e-9, 1e-6])
    def test_exponent_at_small_contrast(self, d):
        # at kappa = 2 ell_minus, O(pi - alpha), the two kappa sinh^2 terms
        # cancel to O(kappa (pi - alpha)) unless their difference is taken as
        # one product: eta0 was 1.3e-7 off at d = 1e-9 and 3e-11 at 1e-6
        alpha = math.pi - d
        kappa = 2.0 * critical_interval(alpha)[0]
        res = find_singular_exponent(CornerProblem(alpha, kappa))
        assert res is not None and changes_sign_at(alpha, kappa, res.eta0, rel=1e-13)

    def test_exponent_at_tiny_contrast_within_the_stated_bound(self):
        # kappa = ell_plus / 2 ~ (pi - alpha)^4: the eta^2 term and the
        # (pi - alpha) sinh^2 term cancel, and eta0 = 0.38397738457 is 9.6e-6
        # off the mpmath root 0.38397370478; no accuracy is claimed above
        # pi - 0.01 there, and this pins the point within 1e-4
        alpha, kappa = math.pi - 1e-6, -2.6525823869516504e-20
        assert kappa == 0.5 * critical_interval(alpha)[1]
        res = find_singular_exponent(CornerProblem(alpha, kappa))
        assert res is not None and changes_sign_at(alpha, kappa, res.eta0, rel=1e-4)


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

    def test_tiny_angle(self):
        # alpha - sin(alpha) underflows to 0; |ell_minus| ~ 6 pi / alpha^3 overflows
        # long before (below alpha ~ 4.7e-103)
        for alpha in (1e-300, 1e-120):
            lm, lp = critical_interval(alpha)
            assert lm == -math.inf and lp == pytest.approx(-math.pi / (2.0 * alpha), rel=1e-15)
        assert critical_interval(1e-100)[0] == pytest.approx(-6.0 * math.pi / 1e-300, rel=1e-15)

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

    @pytest.mark.parametrize("kappa", [-1e160, -1e200, -1e308, -math.inf])
    def test_huge_contrast_is_inside(self, kappa):
        # far below ell_minus; g and the scale of its factors both overflow to inf
        for alpha in (0.3, 2.0, 3.14):
            assert classify_region(CornerProblem(alpha, kappa)).membership is Membership.INSIDE

    @pytest.mark.parametrize("alpha,member", [(1e-101, Membership.INSIDE), (1e-110, Membership.OUTSIDE)])
    def test_tiny_angle_at_huge_contrast(self, alpha, member):
        # kappa = -1e308 lies below ell_minus ~ -2e304 at alpha = 1e-101; at
        # 1e-110, c = 0 and ell_minus = -inf; both factors' scales are below 1e-300
        assert classify_region(CornerProblem(alpha, -1e308)).membership is member

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
            2.0 * classify_region(p).g_value, rel=1e-15
        )
        assert even_derivative_at_zero(p, 2) == pytest.approx(-12.0 * math.pi ** 4, rel=1e-13)

    @pytest.mark.parametrize("alpha,kappa", [(math.pi - 1e-6, -1e-9), (math.pi - 1e-3, -1e-6)])
    @pytest.mark.parametrize("k", [2, 3])
    def test_near_pi_against_mpmath(self, alpha, kappa, k):
        # 4^k t_k at 60 digits; kappa (2 pi)^2k and -kappa (2 alpha)^2k cancel
        # to O(kappa (pi - alpha)) here, so a sum of the three powers in
        # double is off by up to 3e-10
        with mp.workdps(60):
            a, kp = mp.mpf(alpha), mp.mpf(kappa)
            ref = 4 ** k * (kp * (mp.pi ** (2 * k) - a ** (2 * k)) + kp * kp * a ** (2 * k)
                            - (kp - 1) * (mp.pi - a) ** (2 * k))
            got = even_derivative_at_zero(CornerProblem(alpha, kappa), k)
            assert abs(got - ref) <= 1e-14 * abs(ref)

    def test_order_range(self):
        from bilap.corner_spectrum import _SERIES_TERMS
        p = CornerProblem(1.0, -2.0)
        even_derivative_at_zero(p, _SERIES_TERMS)
        for k in (-1, _SERIES_TERMS + 1):
            with pytest.raises(ValueError):
                even_derivative_at_zero(p, k)

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
        p = CornerProblem(math.pi / 2, -10.0)
        assert dense_sign_changes(p) == 1
        assert res.bracket[0] < res.eta0 < res.bracket[1]
        assert scaled_dispersion(p, res.bracket[0]) * scaled_dispersion(p, res.bracket[1]) < 0

    def test_outside_case(self):
        assert find_singular_exponent(CornerProblem(math.pi / 2, -1.0)) is None

    def test_reflection_symmetry_of_roots(self):
        for alpha, kappa in ((math.pi / 3, -20.0), (1.1, -30.0), (0.9, -40.0)):
            r1 = find_singular_exponent(CornerProblem(alpha, kappa))
            r2 = find_singular_exponent(CornerProblem(math.pi - alpha, 1.0 / kappa))
            assert r1 is not None and r2 is not None
            assert abs(r1.eta0 - r2.eta0) <= 1e-10

    @pytest.mark.parametrize("kappa", [-1e15, -1e100, -1e150, -1e153])
    def test_huge_contrast_keeps_its_exponent(self, kappa):
        # near the root the values are O(|kappa|) against a kappa^2 overall
        # scale: the sign floor must follow the terms, not 1 + kappa^2; at
        # -1e150 the product of two values overflows, their signs do not; at
        # -1e153, eta^2 (1 - kappa)^2 overflows before exp(-2 pi eta) shrinks it
        # unless the eta^2 term takes exp(-2 pi eta) first
        p = CornerProblem(1.0, kappa)
        assert classify_region(p).membership is Membership.INSIDE
        res = find_singular_exponent(p)
        assert res is not None and changes_sign_at(p.alpha, p.kappa, res.eta0)

    def test_root_counts_inside_and_outside(self):
        # the search narrows one bracket, so the dense scan checks that it
        # holds the only root, and that outside points have none
        for p in sample_inside(100, seed=20):
            res = find_singular_exponent(p)
            assert res is not None, (p.alpha, p.kappa)
            assert dense_sign_changes(p) == 1, (p.alpha, p.kappa)
        for p in sample_outside(100, seed=21):
            assert find_singular_exponent(p) is None, (p.alpha, p.kappa)
            assert dense_sign_changes(p) == 0, (p.alpha, p.kappa)

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
        m = region_map((a0, a0 + width), (k1 - height, k1), 7, 9)
        assert len(m.alpha) == 63 and not m.failed.any()
        for a, k, eta0, residual in zip(m.alpha.tolist(), m.kappa.tolist(),
                                        m.eta0.tolist(), m.residual.tolist()):
            res = find_singular_exponent(CornerProblem(a, k))
            if res is None:
                assert math.isnan(eta0) and math.isnan(residual)
            else:
                assert (eta0, residual) == (res.eta0, res.residual)


class TestEdgeBand:
    """Exponents close to ell_minus and ell_plus, where eta0 -> 0 like the
    square root of the distance, against mpmath."""

    def test_exponent_just_inside_ell_plus(self):
        # ell_plus(1) * (1 - 1e-8): eta0 is about 5.9e-5, below where a scan
        # from 1e-4 could see it.  Summed in double, the terms there cancel to
        # g * eta^2 and their rounding moves eta0 by about 2.4e-8; the series
        # with g from np.longdouble factors puts it 8.6e-12 from the root
        p = CornerProblem(1.0, -0.7060234271985063)
        res = find_singular_exponent(p)
        assert res is not None and res.eta0 < 1e-4
        assert changes_sign_at(p.alpha, p.kappa, res.eta0, rel=1e-8)

    @pytest.mark.parametrize("alpha, side, d", [(1.0, 0, 1e-7), (1.0, 0, 1e-8), (2.0, 0, 1e-8),
                                                (2.0, 1, 1e-7), (2.0, 1, 1e-8)])
    def test_sign_change_across_1e_8_at_the_edges(self, alpha, side, d):
        edge = critical_interval(alpha)[side]
        kappa = edge * (1.0 + d if side == 0 else 1.0 - d)
        res = find_singular_exponent(CornerProblem(alpha, kappa))
        assert res is not None and changes_sign_at(alpha, kappa, res.eta0, rel=1e-8)

    def test_error_within_the_stop_width_near_the_edges(self):
        # below eta = 1 / (4 pi) the search reads the Taylor series, whose g
        # comes from np.longdouble factors: the error is the stop width
        # 1e-14 * (1 + eta0) plus the rounding of g, under eps / d relative
        # for the longdouble eps (largest of 1,300 random points, d from 1e-12
        # to 0.1, on 80-bit longdouble: 9.5e-20 / d)
        eps = float(np.finfo(np.longdouble).eps)
        rng = np.random.default_rng(42)
        for _ in range(30):
            alpha = float(rng.uniform(0.1, math.pi - 0.1))
            lm, lp = mp_critical_interval(alpha)
            d = math.exp(rng.uniform(math.log(1e-11), math.log(1e-2)))
            kappa = float(lm * (1 + d) if rng.random() < 0.5 else lp * (1 - d))
            res = find_singular_exponent(CornerProblem(alpha, kappa))
            assert res is not None, (alpha, kappa)
            with mp.workdps(40):
                root = mp.findroot(lambda e: mp_dispersion(alpha, kappa, e), res.eta0)
                assert abs(res.eta0 - root) <= 1e-14 * (1 + root) + 4 * eps / d * root, (alpha, kappa)

    def test_error_bound_near_the_edges(self):
        # find_singular_exponent states a relative error of at most 1e-13 / d
        # at relative distance d from the nearer edge
        rng = np.random.default_rng(40)
        for _ in range(30):
            alpha = float(rng.uniform(0.1, math.pi - 0.1))
            lm, lp = mp_critical_interval(alpha)
            d = math.exp(rng.uniform(math.log(1e-7), math.log(1e-4)))
            kappa = float(lm * (1 + d) if rng.random() < 0.5 else lp * (1 - d))
            res = find_singular_exponent(CornerProblem(alpha, kappa))
            assert res is not None, (alpha, kappa)
            with mp.workdps(40):
                root = mp.findroot(lambda e: mp_dispersion(alpha, kappa, e), res.eta0)
                assert abs(res.eta0 - root) <= 1e-13 / d * root, (alpha, kappa)

    def test_small_angles_against_mpmath(self):
        # 1 - cos(2 alpha) taken as cos(2 alpha) - 1 cancels as alpha -> 0:
        # at alpha = 1e-3, kappa = -1e12 it put eta0 4e-6 off the root
        rng = np.random.default_rng(41)
        found = 0
        for _ in range(60):
            alpha = math.exp(rng.uniform(math.log(1e-3), math.log(0.3)))
            kappa = -math.exp(rng.uniform(math.log(1e-3), math.log(1e12)))
            res = find_singular_exponent(CornerProblem(alpha, kappa))
            if res is not None:
                found += 1
                assert changes_sign_at(alpha, kappa, res.eta0), (alpha, kappa)
        assert found >= 30


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
            assert normalized_determinant(transmission_matrix(p, 1.0 + 1j * res.eta0)) <= 1e-8

    def test_determinant_bounded_away_outside(self):
        p = CornerProblem(math.pi / 2, -1.0)
        for eta in (0.5, 1.0, 2.0):
            assert normalized_determinant(transmission_matrix(p, 1.0 + 1j * eta)) > 1e-6

    def test_overflow_is_a_numerical_failure(self):
        # the outer entries grow like cosh((pi - alpha) * eta)
        p = CornerProblem(1.0, -1.0)
        for eta in (400.0, 1e300):
            with pytest.raises(NumericalFailure):
                transmission_matrix(p, 1.0 + 1j * eta)

    def test_conjugate_reality(self):
        p = CornerProblem(1.2, -4.0)
        for eta in (0.4, 1.3):
            dp = complex(np.linalg.det(transmission_matrix(p, 1.0 + 1j * eta)))
            dm = complex(np.linalg.det(transmission_matrix(p, 1.0 - 1j * eta)))
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

    def test_residuals_over_a_grid(self):
        # moderate and large exponents on both sides of the critical interval
        worst_interface = worst_biharmonic = 0.0
        for alpha in np.linspace(0.2, 2.9, 5):
            lm, lp = critical_interval(float(alpha))
            for kappa in (1.5 * lm, 10.0 * lm, 100.0 * lm, 0.5 * lp, 0.01 * lp):
                p = CornerProblem(float(alpha), kappa)
                prof = angular_profile(p, 1.0 + 1j * find_singular_exponent(p).eta0)
                worst_interface = max(worst_interface, prof.interface_residual())
                worst_biharmonic = max(worst_biharmonic, prof.biharmonic_residual())
        assert worst_interface <= 1e-14 and worst_biharmonic <= 1e-11

    def test_not_singular_raises(self):
        p = CornerProblem(math.pi / 2, -1.0)
        with pytest.raises(NotSingular):
            angular_profile(p, 1.0 + 0.8j)

    def test_one_interface_system(self, profile, monkeypatch):
        # the determinant check and the null vector read the same matrix
        p, _, prof = profile
        built = []
        monkeypatch.setattr(cs, "transmission_matrix",
                            lambda *args, _build=cs.transmission_matrix: built.append(args) or _build(*args))
        again = angular_profile(p, prof.lam)
        assert len(built) == 1 and np.array_equal(again.coeffs, prof.coeffs)


class TestRegionMap:
    def test_small_map_consistency(self):
        m = region_map((0.3, math.pi - 0.3), (-11.0, -0.1), 8, 8)
        assert len(m.alpha) == 64 and not m.failed.any()
        for a, k, g, eta0 in zip(m.alpha.tolist(), m.kappa.tolist(), m.g.tolist(),
                                 m.eta0.tolist()):
            if g > 1e-3:
                assert not math.isnan(eta0)
                assert dense_sign_changes(CornerProblem(a, k)) == 1
            elif g < -1e-3:
                assert math.isnan(eta0)

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

    def test_validation(self):
        with pytest.raises(ValueError):
            region_map((0.0, 3.0), (-5.0, -0.2), 4, 4)
        with pytest.raises(ValueError):
            region_map((0.5, 2.5), (-5.0, 0.2), 4, 4)
        with pytest.raises(ValueError):
            region_map((0.5, 2.5), (-5.0, -0.2), 1, 4)


# a map that mixes every kind of cell: alpha = 1e-110 gives Outside cells (its
# ell_minus is -inf) whose search fails, kappa = -1e200 gives failed Inside
# cells, the kappa column at ell_plus(3.1415926) Inside cells with an exponent
# and a Boundary cell at alpha = 3.1415926
EDGE_MAP = ((1e-110, 3.1415926), (-1e200, critical_interval(3.1415926)[1]), 6, 5)
MAPS = {"edges": EDGE_MAP, "ordinary": ((0.2, 2.9), (-12.0, -0.05), 9, 11),
        "subnormal": ((0.01, 3.13), (-1e-300, -5e-324), 5, 4)}


def scalar_membership(alpha, kappa):
    """The membership by the scalar formula, one cell at a time: each factor
    of g relative to its scale, with kappa scaled to -1 below it."""
    def relative(x, y, k):
        if k < -1.0:
            y, k = y / -k, -1.0
        scale = abs(x * k) + abs(y)
        return (x * k + y) / scale if scale > 0.0 else 0.0

    c, d, e, f = _factors(alpha)
    rel = relative(c, d, kappa) * relative(e, f, kappa)
    return "Inside" if rel > 1e-9 else "Outside" if rel < -1e-9 else "Boundary"


class TestRegionMapBlocks:
    """Maps whose cells span every outcome of the search."""

    def test_edge_map_mixes_every_kind_of_cell(self):
        m = region_map(*EDGE_MAP)
        kinds = set(zip(map(Membership, m.membership.tolist()), m.failed.tolist(),
                        (~np.isnan(m.eta0)).tolist()))
        assert {(Membership.OUTSIDE, True, False), (Membership.INSIDE, True, False),
                (Membership.INSIDE, False, True), (Membership.BOUNDARY, False, False)} <= kinds

    @pytest.mark.parametrize("name", MAPS)
    def test_reports_match_classify_region(self, name):
        m = region_map(*MAPS[name])
        for a, k, *report in zip(*(c.tolist() for c in (m.alpha, m.kappa, m.g, m.ell_minus,
                                                         m.ell_plus, m.membership))):
            rep = classify_region(CornerProblem(a, k))
            assert [rep.g_value, rep.ell_minus, rep.ell_plus, rep.membership.value] == report
            assert report[-1] == scalar_membership(a, k)
