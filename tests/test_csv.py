"""Tests for the CLI's float kernel: format(x, ".17g") in bulk, byte for byte,
with a "%.17g" fallback for every value whose rounding it cannot prove."""

import functools
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilap import cli, twostep
from bilap.grid import notched_grid

SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]


def reference(values) -> list:
    return [format(v, ".17g") for v in np.asarray(values, dtype=np.float64).tolist()]


def kernel_text(values) -> list:
    """Each value as _float_fields writes it, the values repeated up to the
    kernel's least size so that the kernel, not only its fallback, runs."""
    x = np.asarray(values, dtype=np.float64)
    rows = cli._float_fields(np.resize(x, max(len(x), cli._KERNEL_MIN)))
    lines = np.empty((len(rows), rows.shape[1] + 1), np.uint8)
    lines[:, :-1], lines[:, -1] = rows, ord("\n")
    return lines.tobytes().translate(None, b"\0").decode().split("\n")[:len(x)]


def csv_text(values) -> list:
    """Each value as one float column of _csv writes it, block after block."""
    return cli._csv("x", np.asarray(values, dtype=np.float64)).split("\n")[1:-1]


def random_bits(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)


@functools.cache
def random_million() -> tuple:
    """random_bits(1_000_000, 30), read-only, and its reference: formatting a
    million values takes over a second, so the module does it once."""
    x = random_bits(1_000_000, 30)
    x.flags.writeable = False
    return x, reference(x)


def decades() -> np.ndarray:
    """10^q for every decade of float64, and its neighbours one ulp away."""
    tens = np.array([float(f"1e{q}") for q in range(-323, 309)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


def ties(n: int, seed: int) -> np.ndarray:
    """Values whose exact decimal has 18 digits, the last a 5: odd M/4 in
    [10^15, 2.25e15) and odd M/8 in [10^14, 10^15), both signs."""
    rng = np.random.default_rng(seed)
    quarters = (2 * rng.integers(2 * 10 ** 15, 45 * 10 ** 14, n) + 1) / 4.0
    eighths = (2 * rng.integers(4 * 10 ** 14, 4 * 10 ** 15, n) + 1) / 8.0
    return np.concatenate([quarters, -quarters, eighths, -eighths])


@pytest.fixture
def fallback(monkeypatch):
    """The number of values written by the "%.17g" fallback, counted per call."""
    counts = []
    printf = cli._printf_fields

    def counted(x):
        counts.append(len(x))
        return printf(x)

    monkeypatch.setattr(cli, "_printf_fields", counted)
    return counts


def test_ties_are_18_digits_ending_in_5():
    digits = [Decimal(v).as_tuple().digits for v in ties(100, 3).tolist()]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                          st.integers(0, 2 ** 64 - 1).map(
                              lambda b: np.array(b, dtype=np.uint64).view(np.float64).item())),
                min_size=1, max_size=40))
def test_any_float64(values):
    # subnormals, +-0, nan (any payload and sign) and +-inf included
    assert kernel_text(values) == reference(values)


def test_random_bit_patterns(fallback):
    x, ref = random_million()
    assert csv_text(x) == ref
    # the kernel decides most values; the fallback takes near-ties and edges
    assert sum(fallback) < 0.03 * len(x)


def test_decades_and_their_neighbours():
    x = decades()
    assert kernel_text(x) == reference(x) and csv_text(-x) == reference(-x)


def test_exact_ties_go_to_the_fallback(fallback):
    # a tie lies within any error bound of the half, so the kernel never rounds one
    x = ties(50_000, 31)
    assert csv_text(x) == reference(x)
    assert sum(fallback) == len(x)


def test_band_covering_every_value(monkeypatch, fallback):
    # a band of one half decides no rounding: every value is then written by
    # "%.17g", and the fallback alone is byte-exact
    monkeypatch.setattr(cli, "_BAND", 0.5)
    bits, ref = random_million()
    x = np.concatenate([bits, decades(), ties(20_000, 31), SPECIALS])
    assert csv_text(x) == ref + reference(x[len(bits):])
    assert sum(fallback) == len(x)


def test_a_solve_column_takes_the_kernel(fallback):
    g = notched_grid(64)
    rhs = cli._rhs_from_spec(g, "generic")
    duals = [twostep.compute_dual_singularity(g, i) for i in range(len(g.corners))]
    x = twostep.corrected_two_step_solve(g, twostep.SigmaField.constant(g), rhs, duals).v[g.interior]
    assert csv_text(x) == reference(x)
    assert sum(fallback) < 0.001 * len(x)


def test_no_floating_point_warning():
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel_text(SPECIALS) == reference(SPECIALS)


def significant_bits(v: float) -> int:
    n = abs(Fraction(v).numerator)
    return n.bit_length() - (n & -n).bit_length() + 1 if n else 0


def test_pair_table():
    # per k, |x| is scaled by a power of two, 2^s, and hi + lo is within
    # 2^-105 of 10^(16 - k) 2^-s, relative, with hi correctly rounded; hi's
    # halves sum to it exactly, 26 bits each at most
    pair = cli._tables()[0]
    assert pair.shape == (5, cli._K1 - cli._K0 + 1)
    for k, (scale, hi, lo, high, low) in zip(range(cli._K0, cli._K1 + 1), pair.T.tolist()):
        assert math.frexp(scale)[0] == 0.5, k
        exact = Fraction(10) ** (16 - k) / Fraction(scale)
        assert hi == float(exact), k
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2 ** 105, k
        assert Fraction(high) + Fraction(low) == Fraction(hi), k
        assert significant_bits(high) <= 26 and significant_bits(low) <= 26, k


def test_import_builds_no_table():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import bilap.cli as c; print(c._tables.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert out.stdout == "0\n"


def test_small_blocks_take_the_fallback_alone(fallback):
    x = random_bits(cli._KERNEL_MIN - 1, 32)
    assert csv_text(x) == reference(x) and fallback == [len(x)]


def test_empty_leaves_a_bytes_column_unchanged():
    # a bytes column's fields are a view of it, so blanking one in place
    # would write into the caller's array
    col = np.array([b"abc", b"de"])
    text = cli._csv("a,b", col, np.array([1.0, 2.0]), empty=np.array([[True, False], [False, False]]))
    assert col.tolist() == [b"abc", b"de"]
    assert text == "a,b\n,1\nde,2\n"


def test_blanked_floats_skip_the_fallback(monkeypatch):
    # region-map blanks eta0 and residual where no exponent exists, and they
    # are nan there; a blanked field is never formatted by "%.17g", while a
    # nan that is written (a failed cell's) still is
    seen = []
    printf = cli._printf_fields
    monkeypatch.setattr(cli, "_printf_fields", lambda x: (seen.append(x.copy()), printf(x))[1])
    rng = np.random.default_rng(34)
    size = 3 * cli._BLOCK // 2
    x = rng.uniform(-1.0, 1.0, (size, 2))
    empty = np.zeros((size, 3), bool)
    empty[:, 1:] = (rng.uniform(size=size) < 0.4)[:, None]
    x[empty[:, 1:]] = np.nan
    written = ~empty[:, 1] & (rng.uniform(size=size) < 0.05)
    x[written, 1] = np.nan
    labels = [str(i) for i in range(size)]
    text = cli._csv("i,a,b", labels, x[:, 0], x[:, 1], empty=empty)
    rows = [[i, *("" if e else v for v, e in zip(reference(r), blank))]
            for i, r, blank in zip(labels, x, empty[:, 1:])]
    assert text == "i,a,b\n" + "".join(",".join(r) + "\n" for r in rows)
    assert np.isnan(np.concatenate(seen)).sum() == written.sum() > 0
