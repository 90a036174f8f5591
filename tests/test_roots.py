"""Tests for the lockstep root search: its contract on plain functions, its
worst case against bisection, and its cost and results on the eta0 brackets
of corner_spectrum and on sign changes of kernel1d's interface determinant."""

import math

import numpy as np
import pytest

from bilap.corner_spectrum import CornerProblem, critical_interval, find_singular_exponent, scaled_dispersion
from bilap.kernel1d import ThreeSegmentDomain, TwoSegmentDomain, build_kernel_system
from bilap.roots import bracketed_roots

# the search's worst case: at most this many steps beyond ceil(log2((hi - lo) / tol))
SPARE_STEPS = 7


class Counted:
    """f(rows, x) of one function g(row, x) per row, counting the evaluations of each row."""

    def __init__(self, n, g):
        self.g, self.evals, self.calls = g, np.zeros(n, dtype=int), 0

    def __call__(self, rows, x):
        self.calls += 1
        np.add.at(self.evals, rows, 1)
        return self.g(np.asarray(rows), np.asarray(x))


def searched_alone_and_batched(g, lo, hi, tol):
    """(roots, Counted) of the batch of rows g(rows, x) on [lo, hi], after
    checking that each row gets the bytes and the number of evaluations of f
    it gets when searched alone."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    batch = Counted(lo.size, g)
    x = bracketed_roots(batch, lo, hi, tol)
    for i in range(lo.size):
        alone = Counted(1, lambda rows, v, i=i: g(np.full_like(rows, i), v))
        assert bracketed_roots(alone, lo[i:i + 1], hi[i:i + 1], tol).tobytes() == x[i:i + 1].tobytes(), i
        assert alone.evals[0] == batch.evals[i], i
    return x, batch


def plain_bisection(f, lo: float, hi: float, tol: float):
    """(midpoint, steps) of plain bisection on the sign of the scalar f, with
    the same stop rule hi - lo <= tol * (1 + |mid|)."""
    f_lo, steps = f(lo), 0
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * (1.0 + abs(mid)):
            return mid, steps
        f_mid, steps = f(mid), steps + 1
        if np.sign(f_lo) * np.sign(f_mid) <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid


ADVERSARIAL = {
    "sign": np.sign,
    "ninth power": lambda d: d ** 9,
    "cube": lambda d: d ** 3,
    "cube root": np.cbrt,
}


def seeded_roots(n, seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(0.0, 10.0, n), 10.0 ** rng.uniform(-100.0, 1.0, n)])


class TestContract:
    @pytest.mark.parametrize("tol", [1e-14, 1e-10, 1e-6])
    def test_every_root_lies_within_tol_of_a_sign_change(self, tol):
        rng = np.random.default_rng(1)
        shift = rng.uniform(-3.0, 3.0, 200)
        scale = 10.0 ** rng.uniform(-2.0, 2.0, 200)
        kind = np.arange(200) % 4

        def g(rows, x):
            d = scale[rows] * (x - shift[rows])
            k = kind[rows]
            return np.where(k == 0, np.tanh(d), np.where(k == 1, d ** 3 + d,
                            np.where(k == 2, np.expm1(d), np.sin(d) + 0.5 * d)))

        lo, hi = shift - rng.uniform(0.1, 5.0, 200), shift + rng.uniform(0.1, 5.0, 200)
        x = bracketed_roots(g, lo, hi, tol)
        assert np.all((lo <= x) & (x <= hi))
        rows = np.arange(200)
        w = tol * (1.0 + np.abs(x))
        assert np.all(np.sign(g(rows, x - w)) * np.sign(g(rows, x + w)) <= 0.0)

    def test_exact_zero_at_an_end_is_returned_as_is(self):
        f = Counted(2, lambda rows, x: x - np.array([1.0, 7.0])[rows])
        assert bracketed_roots(f, [1.0, 3.0], [5.0, 7.0], 1e-14).tolist() == [1.0, 7.0]
        assert f.calls == 1

    def test_exact_zero_at_a_step_is_returned_as_is(self):
        # the first step bisects [0, 10], where row 0 meets its zero at 5
        # exactly and stops, while row 1 goes on
        f = Counted(2, lambda rows, x: np.where(rows == 0, x - 5.0, np.tanh(x - 2.0)))
        x = bracketed_roots(f, [0.0, 0.0], [10.0, 10.0], 1e-14)
        assert x[0] == 5.0 and abs(x[1] - 2.0) <= 3e-14
        assert f.evals[0] == 3 < f.evals[1]

    @pytest.mark.parametrize("tol", [0.0, 1e-17, math.nan])
    def test_tol_below_float_spacing_is_rejected(self, tol):
        # below 2**-52 two adjacent floats need not meet the stop rule, so
        # the search would never end
        def f(rows, x):
            raise AssertionError("f called with a rejected tol")

        with pytest.raises(ValueError):
            bracketed_roots(f, [0.5], [2.0], tol)

    def test_smallest_tol_stops_between_adjacent_floats(self):
        r = np.array([math.sqrt(2.0), 3.0])
        f = Counted(2, lambda rows, x: np.tanh(x - r[rows]))
        x = bracketed_roots(f, [0.5, 0.0], [2.0, 1e300], 2.0 ** -52)
        assert np.all(np.abs(x - r) <= 2.0 * np.spacing(r))
        # both ends, then the docstring's step ceiling
        assert f.evals[1] <= 2 + math.ceil(math.log2(1e300) + 52) + SPARE_STEPS

    def test_no_rows_calls_nothing(self):
        def f(rows, x):
            raise AssertionError("f called on an empty batch")

        out = bracketed_roots(f, [], [], 1e-14)
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_a_row_alone_and_in_a_batch_gives_the_same_bits(self):
        # rows that converge at different speeds finish in different rounds
        r = np.array([0.3, 2.0, 7.5, 1e-50, 4.0, 9.99])
        funcs = [np.tanh, np.sign, lambda d: d ** 9, np.cbrt, np.expm1, lambda d: d ** 3]

        def g(rows, x):
            return np.array([funcs[i](xi - r[i]) for i, xi in zip(rows.tolist(), x.tolist())])

        _, f = searched_alone_and_batched(g, np.full(6, 1e-100), np.full(6, 10.0), 1e-14)
        assert len(set(f.evals.tolist())) > 1

    def test_a_bracket_wider_than_2_to_the_1017_warns_nothing(self):
        # 2**7 (hi - lo) overflows; the guard still holds, and no overflow
        # warning escapes (RuntimeWarnings are errors under pytest)
        f = Counted(1, lambda rows, x: np.tanh(x - 1.0))
        x = bracketed_roots(f, [0.0], [1e307], 1e-14)
        assert abs(x[0] - 1.0) <= 2e-14
        assert f.evals[0] - 2 <= math.ceil(math.log2(1e307) - math.log2(1e-14)) + SPARE_STEPS


class TestPacking:
    """Each step searches the rows still live, packed, and packs them again
    where some stop: by the stop rule, on an exact zero, or all at once.  A
    row gets the same bits and evaluations as when it is searched alone."""

    def test_exact_zeros_at_the_ends_among_searched_rows(self):
        # zero at lo, searched, zero at hi, searched, zero at both (lo wins)
        zeros = np.array([1.0, 2.5, 7.0, 4.0, 3.0])
        lo, hi = [1.0, 0.0, 3.0, 0.0, 2.0], [5.0, 10.0, 7.0, 10.0, 6.0]

        def g(rows, x):
            return np.where(rows == 4, 0.0, np.tanh(x - zeros[rows]))

        x, f = searched_alone_and_batched(g, lo, hi, 1e-14)
        assert x[[0, 2, 4]].tolist() == [1.0, 7.0, 2.0]
        assert f.evals[[0, 2, 4]].tolist() == [2, 2, 2] and min(f.evals[[1, 3]]) > 3

    def test_a_stop_and_an_exact_zero_in_one_step(self):
        # the first step bisects: row 0 meets its zero at 5 exactly, and
        # row 1's [0, 0.015] halves below tol = 1e-2, while row 2 goes on
        def g(rows, x):
            return np.where(rows == 0, x - 5.0, np.tanh(x - np.where(rows == 1, 0.01, 2.0)))

        x, f = searched_alone_and_batched(g, [0.0, 0.0, 0.0], [10.0, 0.015, 10.0], 1e-2)
        assert x[0] == 5.0 and x[1] == 0.01125
        assert f.evals[:2].tolist() == [3, 3] and f.evals[2] > 3

    def test_every_row_stops_in_the_same_step(self):
        r = np.array([0.1, 0.37, 0.77, 0.9])
        x, f = searched_alone_and_batched(lambda rows, v: np.tanh(v - r[rows]),
                                          np.zeros(4), np.ones(4), 1e-6)
        assert np.all(np.abs(x - r) <= 2e-6) and len(set(f.evals.tolist())) == 1

    def test_a_row_of_nan_stops_within_the_ceiling(self):
        # f is nan inside row 1's bracket, so its signs never decide a step;
        # it still stops within the ceiling, and the rows around it keep
        # their bits
        def g(rows, x):
            inside = np.where((x > 0.0) & (x < 10.0), np.nan, np.sign(x - 5.0))
            return np.where(rows == 1, inside, np.tanh(x - 1.0 - 3.0 * rows))

        x, f = searched_alone_and_batched(g, [0.0, 0.0, 0.0], [10.0, 10.0, 10.0], 1e-14)
        assert f.evals[1] - 2 <= math.ceil(math.log2(10.0 / 1e-14)) + SPARE_STEPS
        assert abs(x[0] - 1.0) <= 2e-14 and abs(x[2] - 7.0) <= 1e-13


class TestWorstCase:
    @pytest.mark.parametrize("name", list(ADVERSARIAL))
    def test_no_row_takes_many_more_steps_than_bisection(self, name):
        # on [1e-100, 10] at tol 1e-14 bisection takes 47 to 50 steps, and the
        # search at most ceil(log2(1e15)) + 7 = 57: no more than bisection + 10
        g, tol = ADVERSARIAL[name], 1e-14
        r = seeded_roots(300, seed=2)
        f = Counted(r.size, lambda rows, x: g(x - r[rows]))
        x = bracketed_roots(f, np.full(r.size, 1e-100), np.full(r.size, 10.0), tol)
        steps = f.evals - 2
        assert np.all(np.abs(x - r) <= tol * (1.0 + np.abs(x)))
        assert steps.max() <= math.ceil(math.log2(10.0 / tol)) + SPARE_STEPS
        for i in range(r.size):
            assert steps[i] <= plain_bisection(lambda v: g(v - r[i]), 1e-100, 10.0, tol)[1] + 10, r[i]


class TestSmoothBrackets:
    """Evaluation ceilings where the interpolation should carry the search:
    bisection takes 52 evaluations on an eta0 bracket and 31 to 33 on a
    kernel one, so a search that falls back to it fails here."""

    def inside_points(self, n, seed):
        # Inside points at least 0.1 (relative) from both edges
        rng = np.random.default_rng(seed)
        out = []
        for a in rng.uniform(0.1, math.pi - 0.1, n):
            lm, lp = critical_interval(a)
            k = lm * rng.uniform(1.1, 3.0) if rng.random() < 0.5 else lp * rng.uniform(0.05, 0.9)
            out.append(CornerProblem(float(a), float(k)))
        return out

    def test_eta0_brackets(self):
        points = self.inside_points(200, seed=3)
        results = [find_singular_exponent(p) for p in points]
        tails = np.array([res.bracket[1] for res in results])
        f = Counted(len(points), lambda rows, x: np.array(
            [scaled_dispersion(points[i], v) for i, v in zip(rows.tolist(), x.tolist())]))
        bracketed_roots(f, np.full(len(points), 1e-100), tails, 1e-14)
        assert f.evals.max() <= 25

    def test_eta0_matches_bisection_within_twice_the_stop_width(self):
        # each stops on a bracket of width 1e-14 * (1 + eta) around a sign
        # change, and away from the edges rounding moves that sign change by
        # less than one more such width (largest over 600 points: 1.24 widths)
        for p in self.inside_points(100, seed=4):
            res = find_singular_exponent(p)
            ref, _ = plain_bisection(lambda v: scaled_dispersion(p, v), 1e-100, res.bracket[1], 1e-14)
            assert abs(res.eta0 - ref) <= 2e-14 * (1.0 + ref), (p.alpha, p.kappa)

    @pytest.mark.parametrize("dom", [TwoSegmentDomain(-1.0, 1.0), TwoSegmentDomain(-1.0, 2.7),
                                     ThreeSegmentDomain(0.3), ThreeSegmentDomain(0.8)])
    def test_kernel_determinant_brackets(self, dom):
        grid = -np.geomspace(1e4, 1e-4, 10_000)
        signs = np.sign(np.linalg.det(build_kernel_system(dom, grid)))
        i = np.flatnonzero(signs[:-1] * signs[1:] < 0)
        f = Counted(i.size, lambda rows, k: np.linalg.det(build_kernel_system(dom, k)))
        roots = bracketed_roots(f, grid[i], grid[i + 1], 1e-12)
        assert i.size >= 2 and f.evals.max() <= 10
        for k, lo, hi in zip(roots, grid[i], grid[i + 1]):
            ref, _ = plain_bisection(lambda v: np.linalg.det(build_kernel_system(dom, v)), lo, hi, 1e-12)
            assert abs(k - ref) <= 1e-12 * (1.0 + abs(ref))
        closed = dom.critical_contrasts().roots
        assert len(roots) == len(closed)
        for k, c in zip(sorted(roots.tolist()), closed):
            assert abs(k - c) <= 1e-11 * abs(c)
