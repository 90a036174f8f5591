"""Command-line front end.

Subcommands: region-map, eta0, corner-det, kernel1d, solve, cone, classify.
Output is CSV text with floats at 17 significant digits, so identical
invocations under the same BLAS settings produce byte-identical files: a
solve's blocked matrix products and Cholesky factor sum in an order that
depends on the BLAS thread count (OPENBLAS_NUM_THREADS), so on larger grids
(lshape at n = 256, say) the last digits move with it.  Every subcommand
writes through one writer, _csv: a header, one template per row and one "%"
pass over the flat values.  region-map writes the columns of one
corner_spectrum.RegionMap, eight values per cell, with two row templates: a
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


def _csv(header: str, rows, values) -> str:
    """CSV text from one "%" pass: the header line, then the row templates in
    rows, joined in order and filled from the flat sequence values.

    In a template "%.17g" writes a float as format(x, ".17g") does (nan, inf
    and -0 included), "%s" writes text, an int or a bool as str() does,
    "%.0s" takes a value and writes nothing, and a field with no value is
    left empty.  The header is a format too, so it
    holds no "%"; values never become formats, so text holding a "%" is
    written as it is.
    """
    return "".join([header, "\n", *rows]) % tuple(values)


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
    found = (result.eta0, result.residual) if result else ()
    return _csv("alpha,kappa,g,membership,eta0,residual",
                ["%.17g,%.17g,%.17g,%s," + ("%.17g,%.17g\n" if result else ",\n")],
                (args.alpha, args.kappa, report.g_value, report.membership.value, *found))


# region-map rows: alpha, kappa, g, ell_minus, ell_plus and membership, then
# eta0 and residual, nan where the search failed ("%.17g" writes nan as nan)
# and empty where no exponent exists ("%.0s" writes nothing of its value)
_MAP_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%s,"
_MAP_FOUND = _MAP_ROW + "%.17g,%.17g\n"
_MAP_NONE = _MAP_ROW + "%.0s,%.0s\n"


def _cmd_region_map(args) -> str:
    m = cs.region_map((args.amin, args.amax), (args.kmin, args.kmax), args.na, args.nk)
    rows = [_MAP_NONE if none else _MAP_FOUND for none in (np.isnan(m.eta0) & ~m.failed).tolist()]
    columns = (m.alpha, m.kappa, m.g, m.ell_minus, m.ell_plus, m.membership, m.eta0, m.residual)
    return _csv("alpha,kappa,g,ell_minus,ell_plus,membership,eta0,residual", rows,
                [x for cell in zip(*(c.tolist() for c in columns)) for x in cell])


def _cmd_corner_det(args) -> str:
    prob = cs.CornerProblem(args.alpha, args.kappa)
    lam = 1.0 + 1j * args.eta
    det = cs.transmission_determinant(prob, lam)
    nd = cs.normalized_determinant(prob, lam)
    return _csv("alpha,kappa,eta,det_re,det_im,det_normalized",
                ["%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"],
                (args.alpha, args.kappa, args.eta, det.real, det.imag, nd))


def _cmd_kernel1d(args) -> str:
    if args.t is not None:
        dom = kernel1d.TwoSegmentDomain(a=-1.0, b=-args.t)
    else:
        dom = kernel1d.ThreeSegmentDomain(args.delta)
    closed = dom.critical_contrasts()
    _require(args.samples >= 1, "--samples must be positive")
    text = _csv("root_index,critical_contrast", ["%s,%.17g\n" * len(closed.roots)],
                [x for pair in enumerate(closed.roots) for x in pair])
    if args.kappa is not None:
        basis = kernel1d.kernel_basis(dom, args.kappa)
        _require(basis is not None,
                 f"kappa={args.kappa} is not a critical contrast of this domain")
        table = basis.sample(args.samples)
        text += _csv("x,v,v1,v2", ["%.17g,%.17g,%.17g,%.17g\n" * len(table)],
                     table.ravel().tolist())
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
        cells = np.ones((grid.nx, grid.ny))
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
    cx = (np.arange(grid.nx) + 0.5) * grid.h
    cy = (np.arange(grid.ny) + 0.5) * grid.h
    inbox = ((cx >= x0) & (cx < x1))[:, None] & ((cy >= y0) & (cy < y1))
    # a box holding none, or all, of the domain's cells would give a constant sigma
    held = inbox[grid.cell_mask]
    _require(held.any(), f"sigma spec '{spec}': {box} holds no cell centre of the domain")
    _require(not held.all(), f"sigma spec '{spec}': {box} holds every cell centre of the domain")
    return twostep.SigmaField(np.where(inbox, inside, outside))


def _rhs_from_spec(grid: Grid2D, spec: str) -> np.ndarray:
    """The nodal rhs; sine2d and generic are outer products of per-axis
    factors, each node taking the operations of its meshgrid form in order."""
    x, y = grid.node_x, grid.node_y
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

    The coordinates go into the row templates, "<x>,<y>,%.17g" per row, with
    each axis formatted once and the rows joined once per run of interior
    nodes along a node column; the one "%" pass of _csv then fills in the
    values, gathered by the same mask in the same order.
    """
    xs = ["%.17g," % x for x in grid.node_x.tolist()]
    ys = ["%.17g,%%.17g\n" % y for y in grid.node_y.tolist()]
    # each column's first and last nodes are on the box's edge, never
    # interior, so every run [a, b) starts at a step up and ends at a step down
    step = np.diff(grid.interior.astype(np.int8), axis=1)
    cols, starts = np.nonzero(step > 0)
    ends = np.nonzero(step < 0)[1]
    rows = []
    for i, a, b in zip(cols.tolist(), (starts + 1).tolist(), (ends + 1).tolist()):
        rows += [xs[i], xs[i].join(ys[a:b])]
    return _csv("x,y,value", rows, v[grid.interior].tolist())


def _cmd_cone(args) -> str:
    if args.alpha is not None:
        _require(args.d == 3, "cap cones require --d 3")
        mu1 = cones.cap_first_eigenvalue(args.alpha)
    else:
        mu1 = args.mu
    lam_plus, cls = cones.classify_spectrum(args.d, mu1, args.beta, args.l)
    alpha = () if args.alpha is None else (args.alpha,)
    return _csv("alpha,mu1,lambda_plus,classification",
                [("%.17g," if alpha else ",") + "%.17g,%.17g,%s\n"],
                (*alpha, mu1, lam_plus, cls.value))


def _cmd_classify(args) -> str:
    cls = cones.fredholm_classify(
        cones.WeightedIndex(args.beta, args.l, args.d), args.lambda1
    )
    iso = cones.isomorphism_in_dimension(args.d, args.lambda1)
    return _csv("beta,l,d,lambda1,classification,basic_index_isomorphism",
                ["%.17g,%s,%s,%.17g,%s,%s\n"],
                (args.beta, args.l, args.d, args.lambda1, cls.value, iso))


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
