"""Command-line front end.

Subcommands: region-map, eta0, corner-det, kernel1d, solve, cone, classify.
Output is CSV/tabular text with floats at 17 significant digits, so identical
invocations produce byte-identical files.  Exit codes: 0 success, 1 argument
error, 2 numerical failure (including a rank-deficient pairing matrix in a
corrected solve).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Optional, Sequence

import numpy as np

from . import cones, corner_spectrum as cs, kernel1d, twostep
from .errors import NumericalFailure, SingularPairingMatrix
from .grid import Grid2D, lshape_grid, notched_grid, rectangle_grid


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -1e6 is a number, not an option (argparse only
        # takes -N and -N.N for numbers)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with code 2 on bad usage; route through our own code 1
    def error(self, message):
        raise _ArgumentError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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


def _load_config(path: str) -> dict:
    """key=value lines; '#' starts a comment; later keys win."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _ArgumentError(f"malformed config line: {raw.rstrip()}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _config_defaults(path: str, args: argparse.Namespace) -> dict:
    """The --config values for the chosen subcommand's options, booleans parsed
    strictly; the rest stay strings for argparse to convert."""
    conf = {k: v for k, v in _load_config(path).items()
            if k in vars(args) and k not in ("command", "config")}
    for key, value in conf.items():
        if isinstance(getattr(args, key), bool):  # an on/off flag such as --correct
            _require(value.lower() in _BOOLEANS, f"{key}={value}: not true|false|yes|no|1|0")
            conf[key] = _BOOLEANS[value.lower()]
    return conf


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(cond: bool, message: str):
    if not cond:
        raise _ArgumentError(message)


# -- subcommand implementations ----------------------------------------------


def _cmd_eta0(args) -> str:
    _require(args.alpha is not None and args.kappa is not None,
             "eta0 requires --alpha and --kappa")
    prob = cs.CornerProblem(args.alpha, args.kappa)
    report = cs.classify_region(prob)
    result = cs.find_singular_exponent(prob)
    lines = ["alpha,kappa,g,membership,eta0,residual"]
    eta0 = _fmt(result.eta0) if result else ""
    res = _fmt(result.residual) if result else ""
    lines.append(
        f"{_fmt(args.alpha)},{_fmt(args.kappa)},{_fmt(report.g_value)},"
        f"{report.membership.value},{eta0},{res}"
    )
    return "\n".join(lines) + "\n"


def _cmd_region_map(args) -> str:
    cells = cs.region_map((args.amin, args.amax), (args.kmin, args.kmax), args.na, args.nk)
    return cs.region_map_csv(cells)


def _cmd_corner_det(args) -> str:
    _require(None not in (args.alpha, args.kappa, args.eta),
             "corner-det requires --alpha, --kappa and --eta")
    prob = cs.CornerProblem(args.alpha, args.kappa)
    lam = 1.0 + 1j * args.eta
    det = cs.transmission_determinant(prob, lam)
    nd = cs.normalized_determinant(prob, lam)
    lines = ["alpha,kappa,eta,det_re,det_im,det_normalized"]
    lines.append(
        f"{_fmt(args.alpha)},{_fmt(args.kappa)},{_fmt(args.eta)},"
        f"{_fmt(det.real)},{_fmt(det.imag)},{_fmt(nd)}"
    )
    return "\n".join(lines) + "\n"


def _cmd_kernel1d(args) -> str:
    _require((args.t is None) != (args.delta is None),
             "kernel1d requires exactly one of --t or --delta")
    if args.t is not None:
        dom = kernel1d.TwoSegmentDomain(a=-1.0, b=-args.t)
        closed = kernel1d.critical_contrasts_two_segment(args.t)
    else:
        dom = kernel1d.ThreeSegmentDomain(args.delta)
        closed = kernel1d.critical_contrasts_three_segment(args.delta)
    lines = ["root_index,critical_contrast"]
    for i, root in enumerate(closed.roots):
        lines.append(f"{i},{_fmt(root)}")
    text = "\n".join(lines) + "\n"
    if args.kappa is not None:
        _require(args.samples >= 1, "--samples must be positive")
        basis = kernel1d.kernel_basis(dom, args.kappa)
        _require(basis is not None,
                 f"kappa={args.kappa} is not a critical contrast of this domain")
        rows = basis.sample(args.samples)
        text += "x,v,v1,v2\n"
        text += "\n".join(",".join(_fmt(x) for x in row) for row in rows) + "\n"
    return text


_DOMAINS = {"rectangle": rectangle_grid, "lshape": lshape_grid, "notched": notched_grid}


def _make_grid(kind: str, n: int) -> Grid2D:
    # argparse checks --domain against _DOMAINS, but not a --config default
    _require(kind in _DOMAINS, f"unknown domain '{kind}' ({'|'.join(_DOMAINS)})")
    return _DOMAINS[kind](n)


def _load_cells(path: str, shape: tuple, to_index) -> tuple:
    """(index arrays, values) of a CSV with rows a,b,value under one header line;
    to_index(a, b columns) must give whole indices inside shape in every row."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(table.shape[1] == 3, f"{path}: expected rows of three values")
    ij = to_index(table[:, :2])
    ok = ((ij == np.floor(ij)) & (ij >= 0) & (ij < np.array(shape))).all(axis=1)
    _require(ok.all(), f"{path}: row {np.argmin(ok) + 1} is off the {shape[0]}x{shape[1]} grid")
    return tuple(ij.astype(int).T), table[:, 2]


def _sigma_from_spec(grid: Grid2D, spec: str) -> twostep.SigmaField:
    """Builders: 'one', 'constant:<v>', 'split-x:<x0>:<left>:<right>',
    'patch:<x0>:<x1>:<y0>:<y1>:<inside>:<outside>' or 'file:<csv>' with rows i,j,value."""
    if spec in ("one", "1"):
        return twostep.SigmaField.constant(grid, 1.0)
    kind, _, rest = spec.partition(":")
    if kind == "file":
        cells = np.ones((grid.nx, grid.ny))
        index, values = _load_cells(rest, cells.shape, lambda ij: ij)
        cells[index] = values
        return twostep.SigmaField(cells)
    _require(kind in ("constant", "split-x", "patch"), f"unknown sigma spec '{spec}'")
    # a wrong number of values fails to unpack with a ValueError (exit code 1)
    values = [float(v) for v in rest.split(":")]
    # float() takes 'nan', which would silently drop a split or a patch
    _require(all(map(math.isfinite, values)), f"sigma spec '{spec}': values must be finite")
    if kind == "constant":
        (value,) = values
        return twostep.SigmaField.constant(grid, value)
    cx = (np.arange(grid.nx) + 0.5) * grid.h
    cy = (np.arange(grid.ny) + 0.5) * grid.h
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    if kind == "split-x":
        x0, left, right = values
        return twostep.SigmaField(np.where(CX < x0, left, right))
    x0, x1, y0, y1, inside, outside = values
    inpatch = (CX >= x0) & (CX < x1) & (CY >= y0) & (CY < y1)
    return twostep.SigmaField(np.where(inpatch, inside, outside))


def _rhs_from_spec(grid: Grid2D, spec: str) -> np.ndarray:
    X, Y = np.meshgrid(grid.node_x, grid.node_y, indexing="ij")
    if spec == "sine2d":
        return 4.0 * math.pi ** 4 * np.sin(math.pi * X) * np.sin(math.pi * Y)
    if spec == "one":
        return np.ones_like(X)
    if spec == "generic":
        return np.sin(3.0 * X + 1.0) * np.cos(2.0 * Y) + 2.0
    if spec.startswith("file:"):
        field = np.zeros_like(X)
        # each (x, y) goes to the nearest node, ties to the even index
        index, values = _load_cells(spec[5:], field.shape, lambda xy: np.rint(xy / grid.h))
        field[index] = values
        return field
    raise _ArgumentError(f"unknown rhs spec '{spec}' (sine2d|one|generic|file:<csv>)")


def _cmd_solve(args) -> str:
    grid = _make_grid(args.domain, args.n)
    sigma = _sigma_from_spec(grid, args.sigma_file)
    rhs = _rhs_from_spec(grid, args.rhs)
    if args.correct:
        sing = [twostep.compute_dual_singularity(grid, i) for i in range(len(grid.corners))]
        sol = twostep.corrected_two_step_solve(grid, sigma, rhs, sing)
    else:
        sol = twostep.two_step_solve(grid, sigma, rhs)
    # x and y take n+1 values each: format them once per axis, then look them up;
    # "%.17g" % v is the string _fmt(v) gives
    xs = [_fmt(x) for x in grid.node_x]
    ys = [_fmt(y) for y in grid.node_y]
    rows = map(",".join, zip(map(xs.__getitem__, grid.ii.tolist()),
                             map(ys.__getitem__, grid.jj.tolist()),
                             map("%.17g".__mod__, sol.v[grid.ii, grid.jj].tolist())))
    return "\n".join(["x,y,value", *rows]) + "\n"


def _cmd_cone(args) -> str:
    _require((args.alpha is None) != (args.mu is None),
             "cone requires exactly one of --alpha or --mu")
    if args.alpha is not None:
        _require(args.d == 3, "cap cones require --d 3")
        mu1, lam_plus, cls = cones.classify_cap(args.alpha, args.beta, args.l)
        alpha_text = _fmt(args.alpha)
    else:
        mu1 = args.mu
        spectrum = cones.ConeSpectrum(args.d, (mu1,))
        lam_plus, cls = cones.classify_spectrum(spectrum, args.beta, args.l)
        alpha_text = ""
    lines = ["alpha,mu1,lambda_plus,classification"]
    lines.append(f"{alpha_text},{_fmt(mu1)},{_fmt(lam_plus)},{cls.value}")
    return "\n".join(lines) + "\n"


def _cmd_classify(args) -> str:
    _require(args.lambda1 is not None, "classify requires --lambda1")
    cls = cones.fredholm_classify(
        cones.WeightedIndex(args.beta, args.l, args.d), args.lambda1
    )
    iso = cones.isomorphism_in_dimension(args.d, args.lambda1)
    lines = ["beta,l,d,lambda1,classification,basic_index_isomorphism"]
    lines.append(
        f"{_fmt(args.beta)},{args.l},{args.d},{_fmt(args.lambda1)},{cls.value},{iso}"
    )
    return "\n".join(lines) + "\n"


# -- parser / dispatch --------------------------------------------------------


def _build_parser():
    """The parser and its subparsers by command name."""
    parser = _Parser(prog="bilap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value file; flags override it")
        p.add_argument("--output", "-o", help="output path (default stdout)")

    p = sub.add_parser("eta0", help="singular exponent search at one corner problem")
    p.add_argument("--alpha", type=_finite_float)
    p.add_argument("--kappa", type=_finite_float)
    common(p)

    p = sub.add_parser("region-map", help="exponent sweep over an (alpha, kappa) grid")
    p.add_argument("--amin", type=_finite_float, default=math.pi / 200.0)
    p.add_argument("--amax", type=_finite_float, default=math.pi * (1.0 - 1.0 / 200.0))
    p.add_argument("--kmin", type=_finite_float, default=-12.0)
    p.add_argument("--kmax", type=_finite_float, default=-0.05)
    p.add_argument("--na", type=int, default=50)
    p.add_argument("--nk", type=int, default=50)
    common(p)

    p = sub.add_parser("corner-det", help="interface determinant at lambda = 1 + i*eta")
    p.add_argument("--alpha", type=_finite_float)
    p.add_argument("--kappa", type=_finite_float)
    p.add_argument("--eta", type=_finite_float)
    common(p)

    p = sub.add_parser("kernel1d", help="critical contrasts and kernel samples in 1D")
    p.add_argument("--t", type=_finite_float, help="segment ratio b/a < 0 (two segments)")
    p.add_argument("--delta", type=_finite_float, help="inner half-width (three segments)")
    p.add_argument("--kappa", type=_finite_float, help="emit kernel samples at this contrast")
    p.add_argument("--samples", type=int, default=1001)
    common(p)

    p = sub.add_parser("solve", help="two-step solve on a masked polygon grid")
    p.add_argument("--domain", choices=tuple(_DOMAINS), default="lshape")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--sigma-file", dest="sigma_file", default="one")
    p.add_argument("--rhs", default="generic")
    p.add_argument("--correct", dest="correct", action="store_true", default=True)
    p.add_argument("--no-correct", dest="correct", action="store_false")
    common(p)

    p = sub.add_parser("cone", help="cap eigenvalue, exponent and classification")
    p.add_argument("--alpha", type=_finite_float)
    p.add_argument("--mu", type=_finite_float)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--beta", type=_finite_float, default=0.0)
    p.add_argument("--l", type=int, default=1)
    common(p)

    p = sub.add_parser("classify", help="weighted-index classification from lambda1")
    p.add_argument("--beta", type=_finite_float, default=0.0)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--lambda1", type=_finite_float)
    common(p)

    return parser, sub.choices


_COMMANDS = {
    "eta0": _cmd_eta0,
    "region-map": _cmd_region_map,
    "corner-det": _cmd_corner_det,
    "kernel1d": _cmd_kernel1d,
    "solve": _cmd_solve,
    "cone": _cmd_cone,
    "classify": _cmd_classify,
}


def run(argv: Sequence[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.config:
            # config values become the subcommand's defaults, so flags keep precedence
            subparsers[args.command].set_defaults(**_config_defaults(args.config, args))
            args = parser.parse_args(list(argv))
        text = _COMMANDS[args.command](args)
    except (_ArgumentError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (NumericalFailure, SingularPairingMatrix) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    _emit(text, args.output)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
