"""Command-line front end.

Subcommands: region-map, eta0, corner-det, kernel1d, solve, cone, classify.
Output is CSV text with floats at 17 significant digits, so identical
invocations under the same BLAS settings produce byte-identical files: a
solve's matrix products and Cholesky factor sum in an order that
depends on the BLAS thread count (OPENBLAS_NUM_THREADS), so on larger grids
(lshape at n = 256, say) the last digits move with it.  Every subcommand
writes through one column writer, _csv: a header, then the fields of its
columns joined row by row.  Its floats are written by one numpy kernel,
_float_fields, which gives the bytes of format(x, ".17g") for every float64.
It rounds each value to 17 digits by an exact product with a float64 pair
for the power of ten, where that product's error bound decides the
rounding, and writes every other value (a near-tie, a decade edge, 0, -0,
nan, inf; none of a solve's values, as a rule) by "%.17g" itself.  region-map
writes the columns of one corner_spectrum.RegionMap, eight values per cell: a
cell with no exponent writes its eta0 and residual as empty fields.  solve
writes x,y,value at every interior node, rows in np.nonzero(grid.interior)
order.

Each invocation is parsed once.  The key=value lines of a --config file are
read first and inserted right after the command, each as the subcommand's
own option --key=value ('_' read as '-'; correct=false is --correct=false, as
--correct takes an optional true|false|yes|no|1|0), so the flags that follow
override them and every argparse rule (type, choices, required options, one
of --t|--delta or --alpha|--mu) applies to both alike.  A key that is not an
option of the subcommand is an argument error, and no option may be
abbreviated, on the command line or in a file.  Exit codes: 0 success, 1
argument error (including a size whose arrays cannot be allocated), 2
numerical failure (including a rank-deficient pairing matrix in a corrected
solve).
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import warnings
from typing import Optional, Sequence

import numpy as np

from . import cones, corner_spectrum as cs, kernel1d, twostep
from .errors import NumericalFailure
from .grid import Grid2D, lshape_grid, notched_grid, rectangle_grid


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix of an option stands for it, so a new option cannot turn
        # an invocation or a config file into an ambiguous one
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # a value such as -1e6 is a number, not an option (argparse only
        # takes -N and -N.N for numbers)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with code 2 on bad usage; route through our own code 1
    def error(self, message):
        raise ValueError(message)


# -- CSV ---------------------------------------------------------------------
#
# The float kernel writes format(x, ".17g") in bulk.  To 17 digits |x| is
# N 10^(k - 16), N an integer in [10^16, 10^17).  N is the rounded product
# X = |x| 10^(16 - k), formed in float64 pairs: with 10^(16 - k) = hi + lo
# to 2^-105 and p + err = |x| hi exactly (Dekker 1971), N = p + rint(err +
# |x| lo), taken where the error bound of that sum decides the rounding;
# every other value (a near-tie, a decade edge, 0, -0, nan, inf) is written
# by "%.17g" itself.  Its text is laid into a frame of 32 bytes, NUL where
# nothing is written:
#
#   byte 2       "-" of a negative x
#   bytes 3-6    "0000", the leading zeros of 0.000ddd (fixed notation, k < 0)
#   bytes 7-23   the 17 digits of N
#   bytes 25-29  the exponent, e+dd or e-ddd (k < -4 or k > 16)
#
# with bytes 3-23 masked to the digits shown (no trailing zero after the
# point) and the point inserted after the first of them shown (fixed
# notation, k >= 0: after the units digit), so the digits end by byte 24.

_BLOCK = 1 << 12  # floats per kernel call, so its temporaries (a few hundred bytes a float) stay bounded
# below this many values the kernel's fixed cost, some 60 numpy calls, is more
# than that of "%.17g" on each
_KERNEL_MIN = 128
# a blanked float is formatted as this, which the kernel writes itself, and
# its field then blanked: nan would cost a "%.17g" call
_BLANKED = 0.5
_K0, _K1 = -325, 309  # the exponents k the kernel meets: from 5e-324 and 1.8e308, one off
# The rounding is decided where |e - rint(e)| < 1/2 - _BAND, e = fl(err + fl(|x| lo)).
# For a kept N, p <= 10^17 < 2^57, so p is an integer (p > 10^16 > 2^53),
# |err| <= ulp(p)/2 <= 8 and |x lo| <= p 2^-53 < 11.2: fl(|x| lo) is off by
# at most 2^-50, the sum (below 32) by 2^-49, and the hi + lo - 10^(16 - k)
# left out (at most hi 2^-106) adds below 10^17 2^-106 < 1.3e-15.  So e is
# within 4e-15 of X - p, and N = p + rint(e).
_BAND = 1e-14


def _halves(v: np.ndarray) -> tuple:
    """Veltkamp's split: v = high + low exactly, each of 26 bits at most, so
    that products of halves are exact."""
    c = v * 134217729.0  # 2^27 + 1
    high = c - (c - v)
    return high, v - high


@functools.cache
def _tables() -> tuple:
    """The float kernel's tables, built on first use.  By exponent, at
    index k - _K0:

    pair      scale, hi, lo, hi's high half and hi's low half: |x| is
              multiplied by scale = 2^s (s = 0, or -+1000 past |k| = 280),
              and hi = RN(10^(16 - k) 2^-s), lo = RN(10^(16 - k) 2^-s - hi)
    at        33 times the first frame byte shown, the end of the units
              digit, and the point's byte
    exponent  the exponent's bytes, in the last frame word

    By 4-digit chunk c < 10^4, the j-th after the lead digit (j = 0 to 3):

    chunk     the ASCII digits of c, as a little-endian integer
    ends[j]   the end, in frame bytes, of chunk j's digits shown, where it
              is the last nonzero one; 0 where c = 0

    And as rows of four frame words, keep[33 s + e] masks bytes [s, e) (so
    keep[b] bytes [0, b)), and dot[b] holds "." at byte b (b = 32: none).
    """
    from fractions import Fraction  # here, not at import: it loads decimal too

    k = np.arange(_K0, _K1 + 1)
    # past |k| = 280, 2^-+1000 keeps |x| (a subnormal too) and the entries
    # normal, and their splits clear of overflow
    s = np.where(np.abs(k) <= 280, 0, np.where(k > 0, -1000, 1000))
    # float() of a Fraction divides two integers, correctly rounded
    power = [Fraction(10) ** (16 - kk) / Fraction(2) ** ss for kk, ss in zip(k.tolist(), s.tolist())]
    hi = np.array([float(v) for v in power])
    lo = np.array([float(v - Fraction(h)) for v, h in zip(power, hi.tolist())])
    pair = np.stack([np.ldexp(1.0, s), hi, lo, *_halves(hi)])
    fixed = (k >= -4) & (k <= 16)
    kk = np.where(fixed, k, 0)
    at = np.stack([33 * (7 + np.minimum(kk, 0)), 8 + np.maximum(kk, 0), 8 + kk]).astype(np.int16)
    exponent = np.array([b"\0" + b"e%+03d" % e if not f else b"" for e, f in zip(k.tolist(), fixed)],
                        dtype="S8").view("<u8")
    c = np.arange(10 ** 4, dtype=np.int16)
    digits = c[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    chunk = (digits + ord("0")).astype(np.uint8).view("<u4")[:, 0].astype(np.uint64)
    shown = np.int16(4) - (c % 10 == 0) - (c % 100 == 0) - (c % 1000 == 0)
    ends = np.where(c > 0, np.arange(8, 24, 4, dtype=np.int16)[:, None] + shown, np.int16(0))
    byte = np.arange(32)
    low = ((byte < np.arange(33)[:, None]) * np.uint8(255)).view("<u8")
    dot = ((byte == np.arange(33)[:, None]) * np.uint8(ord("."))).view("<u8")
    keep = (low[None, :, :] ^ low[:, None, :]).reshape(-1, 4)
    return pair, at, exponent, chunk, ends, keep, dot


def _rounded(x: np.ndarray, pair: np.ndarray) -> tuple:
    """(k - _K0, N, exact) of each float64 in x: N = round(|x| 10^(16 - k)),
    exact where the rounding is proven and N is no decade edge.  Its pair
    temporaries are freed before the kernel lays out its frame."""
    a = np.abs(x)
    # 0, nan and inf are rounded as 1, whose N = 10^16 is a decade edge
    a[~(np.isfinite(x) & (x != 0.0))] = 1.0
    # where log10 is one off, near a power of ten, N is past a decade edge
    k = np.floor(np.log10(a)).astype(np.intp) - _K0
    scale, hi, lo, high, low = (np.take(t, k) for t in pair)
    a *= scale
    p = a * hi
    # Dekker's product p + err = a hi, every partial product exact
    ah, al = _halves(a)
    err = al * low
    err -= ((p - ah * high) - al * high) - ah * low
    a *= lo
    err += a
    whole = np.rint(err)
    err -= whole
    n = p.astype(np.int64)
    n += whole.astype(np.int64)
    return k, n, (np.abs(err) < 0.5 - _BAND) & (n > 10 ** 16) & (n < 10 ** 17 - 1)


def _float_fields(x: np.ndarray) -> np.ndarray:
    """format(v, ".17g") of each float64 v in x, as the rows of a uint8
    array of width 28, NUL where a row's text has ended or has a gap."""
    if len(x) < _KERNEL_MIN:
        return _printf_fields(x)
    pair, at, exponent, chunk, ends, keep, dot = _tables()
    k, n, exact = _rounded(x, pair)
    # N's 4-digit chunks, last first: each step keeps n's last four digits
    # and floor-divides n by 10^4 (np.divmod is slower)
    c3, c2, c1, c0 = [n - (n := n // 10 ** 4) * 10 ** 4 for _ in range(4)]
    lead = n
    start, units, point = np.take(at, k, axis=1)
    # the digits shown: through the last nonzero one, and through the units
    end = np.maximum(np.maximum(np.take(ends[0], c0), np.take(ends[1], c1)),
                     np.maximum(np.take(ends[2], c2), np.take(ends[3], c3)))
    end = np.maximum(end, units)
    point[point >= end] = 32
    # the frame, four words a row: byte 3 is "0", chunk[lead] writes "000"
    # and the lead digit
    body = np.zeros((len(x), 4), "<u8")
    body[:, 0] = np.take(chunk, lead) << 32 | 0x30000000
    body[:, 1] = np.take(chunk, c1) << 32 | np.take(chunk, c0)
    body[:, 2] = np.take(chunk, c3) << 32 | np.take(chunk, c2)
    body &= np.take(keep, start + end, axis=0)
    # the bytes before the point stay; those from it on move up one byte (the
    # body's last word is 0, so none crosses into the next row), and the
    # point takes the byte they leave
    head = body & np.take(keep, point, axis=0)
    body ^= head
    head |= np.take(dot, point, axis=0)
    head.ravel()[1:] |= body.ravel()[:-1] >> 56
    head |= body << 8
    head[:, 0] |= (x < 0.0) * np.uint64(ord("-") << 16)
    head[:, 3] |= np.take(exponent, k)
    fields = head.view(np.uint8)[:, 2:30]
    fallback = np.flatnonzero(~exact)
    fields[fallback] = _printf_fields(x[fallback])
    return fields


def _printf_fields(x: np.ndarray) -> np.ndarray:
    """The kernel's fallback: "%.17g" of each float64 in x, rows as _float_fields writes them."""
    return np.array([b"%.17g" % v for v in x.tolist()], dtype="S28").view(np.uint8).reshape(-1, 28)


def _text_fields(column: np.ndarray) -> np.ndarray:
    """The fields of one column of text as a uint8 array, a row each, NUL-padded."""
    if column.dtype.kind != "S":
        column = np.array([b"" if v is None else str(v).encode() for v in column.tolist()])
    return column.view(np.uint8).reshape(len(column), -1)


def _csv(header: str, *columns, empty: Optional[np.ndarray] = None) -> str:
    """CSV text: the header line, then a row for each index of the columns,
    all of one length, their fields joined by commas.

    A float64 array writes each float as format(x, ".17g") does (nan, inf and
    -0 included), and a bytes array its bytes.  Any other sequence writes its
    values as str() does, None as an empty field.  No field holds a NUL.
    Where empty (a bool array of rows by columns) is true, the field is
    written empty.  One column at least is of floats; rows go in blocks of
    _BLOCK floats, every float of a block written by one _float_fields call.
    """
    columns = [np.asanyarray(c) for c in columns]
    floats = [c.dtype == np.float64 for c in columns]
    if empty is not None:
        columns = [np.where(blank, _BLANKED, c) if f else c
                   for c, f, blank in zip(columns, floats, empty.T)]
    rows = _BLOCK // sum(floats)
    text = [header, "\n"]
    for start in range(0, len(columns[0]), rows):
        block = [c[start:start + rows] for c in columns]
        size = len(block[0])
        parts = [c for c, f in zip(block, floats) if f]
        # one view per float column, of the rows one kernel call writes
        written = iter(_float_fields(np.concatenate(parts)).reshape(len(parts), size, -1))
        fields = [next(written) if f else _text_fields(c) for c, f in zip(block, floats)]
        if empty is not None:
            for k, blank in enumerate(empty[start:start + rows].T):
                if not floats[k]:  # a bytes column's fields are a view of it
                    fields[k] = fields[k].copy()
                fields[k][blank] = 0
        comma = np.full((size, 1), ord(","), np.uint8)
        line = np.concatenate([x for field in fields for x in (field, comma)], axis=1)
        line[:, -1] = ord("\n")
        text.append(line.tobytes().translate(None, b"\0").decode())
    return "".join(text)


def _finite_float(text: str) -> float:
    """The type of every float option, from the command line or --config:
    float() takes 'nan' and 'inf', which no option means."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _boolean(text: str) -> bool:
    """The type of --correct's optional value, from the command line or --config."""
    if text.lower() not in _BOOLEANS:
        raise argparse.ArgumentTypeError(f"not true|false|yes|no|1|0: {text!r}")
    return _BOOLEANS[text.lower()]


def _config_options(argv: list) -> list:
    """The lines of the --config file that argv names (the last one, as
    argparse reads it), if any, as options of the chosen subcommand: key=value
    becomes --key=value ('_' read as '-').  '#' starts a comment; later keys win."""
    path = None
    for prev, arg in zip([None, *argv], argv):
        if prev == "--config" or arg.startswith("--config="):
            path = arg.removeprefix("--config=")
    if path is None:
        return []
    conf = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            _require("=" in line and key != "", f"malformed config line: {raw.rstrip()}")
            _require(key != "config", f"config={value.strip()}: config files do not nest")
            conf[key] = value.strip()
    return [f"--{key}={value}" for key, value in conf.items()]


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


# -- subcommand implementations ----------------------------------------------


def _cmd_eta0(args) -> str:
    prob = cs.CornerProblem(args.alpha, args.kappa)
    report = cs.classify_region(prob)
    result = cs.find_singular_exponent(prob)
    found = (result.eta0, result.residual) if result else (None, None)
    return _csv("alpha,kappa,g,membership,eta0,residual",
                *zip((args.alpha, args.kappa, report.g_value, report.membership.value, *found)))


def _cmd_region_map(args) -> str:
    m = cs.region_map((args.amin, args.amax), (args.kmin, args.kmax), args.na, args.nk)
    # eta0 and residual are nan where the search failed, written as nan, and
    # empty where no exponent exists
    empty = np.zeros((m.eta0.size, 8), bool)
    empty[:, 6:] = (np.isnan(m.eta0) & ~m.failed)[:, None]
    return _csv("alpha,kappa,g,ell_minus,ell_plus,membership,eta0,residual",
                m.alpha, m.kappa, m.g, m.ell_minus, m.ell_plus, m.membership, m.eta0, m.residual,
                empty=empty)


def _cmd_corner_det(args) -> str:
    M = cs.transmission_matrix(cs.CornerProblem(args.alpha, args.kappa), 1.0 + 1j * args.eta)
    det, nd = complex(np.linalg.det(M)), cs.normalized_determinant(M)
    return _csv("alpha,kappa,eta,det_re,det_im,det_normalized",
                *zip((args.alpha, args.kappa, args.eta, det.real, det.imag, nd)))


def _cmd_kernel1d(args) -> str:
    if args.t is not None:
        dom = kernel1d.TwoSegmentDomain(a=-1.0, b=-args.t)
    else:
        dom = kernel1d.ThreeSegmentDomain(args.delta)
    closed = dom.critical_contrasts()
    _require(args.samples >= 1, "--samples must be positive")
    text = _csv("root_index,critical_contrast", range(len(closed.roots)), closed.roots)
    if args.kappa is not None:
        basis = kernel1d.kernel_basis(dom, args.kappa)
        _require(basis is not None,
                 f"kappa={args.kappa} is not a critical contrast of this domain")
        table = basis.sample(args.samples)
        text += _csv("x,v,v1,v2", *table.T)
    return text


# constructor names, looked up in this module at each call, so that a wrapper
# put in their place (a tracer's, a test's) sees the CLI's grid builds
_DOMAINS = {"rectangle": "rectangle_grid", "lshape": "lshape_grid", "notched": "notched_grid"}


def _make_grid(kind: str, n: int) -> Grid2D:
    _require(n > 0, f"--n must be positive, got {n}")
    return globals()[_DOMAINS[kind]](n)


def _load_cells(path: str, shape: tuple, to_index) -> tuple:
    """(index arrays, values) of a CSV with rows a,b,value under one header line;
    line 1 must not be three numbers, to_index(a, b columns) must give whole
    indices inside shape in every row, and every value must be finite."""
    with warnings.catch_warnings():
        # numpy warns on a file with no data rows, which is rejected just below
        warnings.simplefilter("ignore", UserWarning)
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(path, "rb") as fh:
        first = fh.readline().split(b",")
    try:
        numbers = len(first) == 3 and [float(x) for x in first]
    except ValueError:
        numbers = []
    _require(not numbers, f"{path}: line 1 is a data row, not a header")
    _require(table.size > 0, f"{path}: no data rows under the header")
    _require(table.shape[1] == 3, f"{path}: expected rows of three values")
    ij = to_index(table[:, :2])
    ok = ((ij == np.floor(ij)) & (ij >= 0) & (ij < np.array(shape))).all(axis=1)
    _require(ok.all(), f"{path}: row {np.argmin(ok) + 1} is off the {shape[0]}x{shape[1]} grid")
    finite = np.isfinite(table[:, 2])
    _require(finite.all(), f"{path}: row {np.argmin(finite) + 1} has a value that is not finite")
    return tuple(ij.astype(int).T), table[:, 2]


# the values that follow each numeric sigma spec's name
_SIGMA_VALUES = {"constant": "<v>", "split-x": "<x0>:<left>:<right>",
                 "patch": "<x0>:<x1>:<y0>:<y1>:<inside>:<outside>"}
# the rhs specs, written once for --rhs help and its error message
_RHS_SPECS = ("sine2d", "one", "generic", "file:<csv>")


def _sigma_from_spec(grid: Grid2D, spec: str) -> twostep.SigmaField:
    """Builders: 'one', 'constant:<v>', 'split-x:<x0>:<left>:<right>' (the patch box x < x0),
    'patch:<x0>:<x1>:<y0>:<y1>:<inside>:<outside>' or 'file:<csv>' with rows i,j,value.
    A box holds some, not all, of the domain's cell centres, and a file names one of its cells."""
    if spec in ("one", "1"):
        return twostep.SigmaField.constant(grid, 1.0)
    kind, _, rest = spec.partition(":")
    if kind == "file":
        cells = np.ones(grid.cell_mask.shape)
        index, values = _load_cells(rest, cells.shape, lambda ij: ij)
        _require(grid.cell_mask[index].any(), f"{rest}: no row names a cell of the domain")
        cells[index] = values
        return twostep.SigmaField(cells)
    _require(kind in _SIGMA_VALUES, f"unknown sigma spec '{spec}'")
    usage, fields = f"{kind}:{_SIGMA_VALUES[kind]}", rest.split(":") if rest else []
    _require(len(fields) == usage.count(":"),
             f"sigma spec '{spec}': {usage} takes {usage.count(':')} value(s), got {len(fields)}")
    try:
        values = [_finite_float(v) for v in fields]
    except argparse.ArgumentTypeError as exc:
        # float() takes 'nan', which would silently drop a split or a patch
        raise ValueError(f"sigma spec '{spec}': {exc}") from None
    if kind == "constant":
        return twostep.SigmaField.constant(grid, values[0])
    box = "the patch"
    if kind == "split-x":
        values, box = [-math.inf, values[0], -math.inf, math.inf, *values[1:]], "the side x < x0"
    x0, x1, y0, y1, inside, outside = values
    _require(x0 < x1 and y0 < y1, f"sigma spec '{spec}': a patch needs x0 < x1 and y0 < y1")
    centres = (np.arange(grid.n) + 0.5) * grid.h
    inbox = ((centres >= x0) & (centres < x1))[:, None] & ((centres >= y0) & (centres < y1))
    # a box holding none, or all, of the domain's cells would give a constant sigma
    held = inbox[grid.cell_mask]
    _require(held.any(), f"sigma spec '{spec}': {box} holds no cell centre of the domain")
    _require(not held.all(), f"sigma spec '{spec}': {box} holds every cell centre of the domain")
    return twostep.SigmaField(np.where(inbox, inside, outside))


def _rhs_from_spec(grid: Grid2D, spec: str) -> np.ndarray:
    """The nodal rhs; sine2d and generic are outer products of per-axis
    factors, each node taking the operations of its meshgrid form in order."""
    x = y = grid.nodes
    if spec == "sine2d":
        return np.multiply.outer(4.0 * math.pi ** 4 * np.sin(math.pi * x), np.sin(math.pi * y))
    if spec == "one":
        return np.ones(grid.interior.shape)
    if spec == "generic":
        return np.multiply.outer(np.sin(3.0 * x + 1.0), np.cos(2.0 * y)) + 2.0
    if spec.startswith("file:"):
        field = np.zeros(grid.interior.shape)
        # each (x, y) goes to the nearest node, ties to the even index
        index, values = _load_cells(spec[5:], field.shape, lambda xy: np.rint(xy / grid.h))
        # rows on boundary nodes are legal, but a file of them alone would solve with f = 0
        _require(grid.interior[index].any(), f"{spec[5:]}: no row names an interior node of the domain")
        field[index] = values
        return field
    raise ValueError(f"unknown rhs spec '{spec}' ({'|'.join(_RHS_SPECS)})")


def _cmd_solve(args) -> str:
    grid = _make_grid(args.domain, args.n)
    sigma = _sigma_from_spec(grid, args.sigma_file)
    rhs = _rhs_from_spec(grid, args.rhs)
    # with no dual fields the corrected solve is the plain two-step solve
    corners = range(len(grid.corners)) if args.correct else ()
    sing = [twostep.compute_dual_singularity(grid, i) for i in corners]
    return _solve_csv(grid, twostep.corrected_two_step_solve(grid, sigma, rhs, sing).v)


def _solve_csv(grid: Grid2D, v: np.ndarray) -> str:
    """x,y,value at every interior node, in np.nonzero(grid.interior) order.

    The node axis is formatted once, its fields as bytes, and gathered by the
    interior nodes' x and y indices; the values are gathered by the same mask.
    """
    nodes = np.array([f.tobytes().translate(None, b"\0") for f in _float_fields(grid.nodes)])
    ii, jj = np.nonzero(grid.interior)
    return _csv("x,y,value", nodes[ii], nodes[jj], v[grid.interior])


def _cmd_cone(args) -> str:
    if args.alpha is not None:
        _require(args.d == 3, "cap cones require --d 3")
        mu1 = cones.cap_first_eigenvalue(args.alpha)
    else:
        mu1 = args.mu
    lam_plus, cls = cones.classify_spectrum(args.d, mu1, args.beta, args.l)
    return _csv("alpha,mu1,lambda_plus,classification",
                *zip((args.alpha, mu1, lam_plus, cls.value)))


def _cmd_classify(args) -> str:
    cls = cones.fredholm_classify(
        cones.WeightedIndex(args.beta, args.l, args.d), args.lambda1
    )
    iso = cones.isomorphism_in_dimension(args.d, args.lambda1)
    return _csv("beta,l,d,lambda1,classification,basic_index_isomorphism",
                *zip((args.beta, args.l, args.d, args.lambda1, cls.value, iso)))


# -- parser / dispatch --------------------------------------------------------


def _build_parser():
    """The parser of every subcommand, each bound to its handler."""
    parser = _Parser(prog="bilap", description="Fredholm regions, singular exponents, critical"
                     " contrasts and two-step solves for Delta(sigma Delta u) = f with a"
                     " sign-changing sigma.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.add_argument("--config", help="file of key=value lines, each read as the option"
                                        " --key=value of this subcommand; flags override it")
        p.add_argument("--output", "-o", help="output path (default stdout)")
        p.set_defaults(handler=handler)

    p = sub.add_parser("eta0", help="singular exponent search at one corner problem")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--kappa", type=_finite_float, required=True)
    common(p, _cmd_eta0)

    p = sub.add_parser("region-map", help="exponent sweep over an (alpha, kappa) grid")
    p.add_argument("--amin", type=_finite_float, default=math.pi / 200.0)
    p.add_argument("--amax", type=_finite_float, default=math.pi * (1.0 - 1.0 / 200.0))
    p.add_argument("--kmin", type=_finite_float, default=-12.0)
    p.add_argument("--kmax", type=_finite_float, default=-0.05)
    p.add_argument("--na", type=int, default=50)
    p.add_argument("--nk", type=int, default=50)
    common(p, _cmd_region_map)

    p = sub.add_parser("corner-det", help="interface determinant at lambda = 1 + i*eta")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--kappa", type=_finite_float, required=True)
    p.add_argument("--eta", type=_finite_float, required=True)
    common(p, _cmd_corner_det)

    p = sub.add_parser("kernel1d", help="critical contrasts and kernel samples in 1D")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--t", type=_finite_float, help="segment ratio b/a < 0 (two segments)")
    one.add_argument("--delta", type=_finite_float, help="inner half-width (three segments)")
    p.add_argument("--kappa", type=_finite_float, help="emit kernel samples at this contrast")
    p.add_argument("--samples", type=int, default=1001)
    common(p, _cmd_kernel1d)

    p = sub.add_parser("solve", help="two-step solve on a masked polygon grid")
    p.add_argument("--domain", choices=tuple(_DOMAINS), default="lshape")
    p.add_argument("--n", type=int, default=64)
    sigma_specs = ["one", *(f"{kind}:{values}" for kind, values in _SIGMA_VALUES.items()), "file:<csv>"]
    p.add_argument("--sigma-file", dest="sigma_file", default="one", metavar="SPEC",
                   help="sigma field: " + ", ".join(sigma_specs) + " (csv rows i,j,value, one in the"
                        " domain; a patch or split-x's x < x0 holds some, not all, cells; default one)")
    p.add_argument("--rhs", default="generic", metavar="SPEC",
                   help="right-hand side: " + ", ".join(_RHS_SPECS) + " (csv rows x,y,value; default generic)")
    p.add_argument("--correct", type=_boolean, nargs="?", const=True, default=True,
                   metavar="true|false", help="correct along the dual fields (default true)")
    p.add_argument("--no-correct", dest="correct", action="store_false")
    common(p, _cmd_solve)

    p = sub.add_parser("cone", help="cap eigenvalue, exponent and classification")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--alpha", type=_finite_float,
                     help="cap half-angle, with --d 3: answered on [2.96e-154, 0.9*pi], the degree"
                          " bracketed on (0, 3.9625/alpha - 1/2]; a smaller cap exits 2")
    one.add_argument("--mu", type=_finite_float)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--beta", type=_finite_float, default=0.0)
    p.add_argument("--l", type=int, default=1)
    common(p, _cmd_cone)

    p = sub.add_parser("classify", help="weighted-index classification from lambda1")
    p.add_argument("--beta", type=_finite_float, default=0.0)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--lambda1", type=_finite_float, required=True)
    common(p, _cmd_classify)

    return parser


# one parser for every invocation in the process, built on the first call of
# run (not at import) and never changed after
_shared_parser = functools.cache(_build_parser)


def run(argv: Sequence[str]) -> int:
    """Dispatch one invocation; returns the process exit code.

    One parser serves every invocation in a process and parses each once,
    with the lines of its --config file inserted right after the command as
    options, so the flags that follow still win.
    """
    try:
        argv = list(argv)
        args = _shared_parser().parse_args(argv[:1] + _config_options(argv) + argv[1:])
        _emit(args.handler(args), args.output)
    except (ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
