"""Compare the CLI's output under this source tree and another.

    python tools/cli_digest.py OTHER_SRC

Runs a fixed list of argv through bilap.cli.run under OTHER_SRC (another
tree's src directory) and under this tree's src, through tools/two_trees.py,
and prints the argv of each line whose exit code, stdout or stderr differs,
with what differs.  A solve line may differ in its CSV values alone: where
both trees exit 0 with the same stderr and the same x,y columns, it prints
max|dv|/max|v| between the value columns, v being OTHER_SRC's.  It ends
with one summary line and exits 1 where any other line differs.

Both trees run at this environment's BLAS thread setting: the solves at
n = 256 sum their matrix products and Cholesky factor in an order that
depends on the thread count, so their bytes move with it.

The list covers every subcommand at its defaults and the edge inputs of
tests/test_cli.py, --config and file: cases included.  An exception that
escapes run (a RuntimeWarning, say) stands in place of the exit code as its
type and message, and the exit of -h as its code.
"""

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
import warnings

import numpy as np

from two_trees import SRC, blas, collect, main

SOLVE = ["solve", "--domain", "lshape", "--n", "16"]
SINGULAR_PATCH = "patch:0.25:0.75:0.25:0.75:-0.4782838593387099:1"
CRITICAL = "-13.928203230275509"  # a critical contrast of --t -1
# both closed-form critical contrasts of --delta=0.4 and of --t=-2.5e0
DELTA_ROOTS = ("-0.6666666666666667", "-0.0683760683760684")
T_ROOTS = ("-109.64373248598598", "-0.3562675140140157")
HUGE = "1" + "0" * 400  # an integer past the largest float
BIG = "1" + "0" * 200  # an integer whose half squared overflows

# name: text of each input file; missing.conf and missing.csv are never written
FILES = {
    "size.conf": "n=8\nrhs=one\n",
    "map.conf": "na=3\nnk=4\n",
    "notched.conf": "domain=notched\nn=32\n",
    "eta0.conf": "alpha=1.0\nkappa=-5\n",
    "alpha.conf": "alpha=1.0\n",
    "corner.conf": "alpha=1\nkappa=-2\neta=0.3\n",
    "kernel.conf": f"t=-1\nkappa={CRITICAL}\nsamples=21\n",
    "cone.conf": "alpha=1.2\n",
    "comments.conf": "# a comment\n\nn = 8   # size\ncorrect = no\n",
    "later.conf": "n=abc\nn=8\n",
    "negative.conf": "n=-4\n",
    "zero.conf": "n=0\n",
    "disk.conf": "domain=disk\n",
    "type.conf": "n=abc\n",
    "nan.conf": "beta=nan\n",
    "inf.conf": "beta=inf\n",
    "malformed.conf": "n 8\n",
    "empty-key.conf": "=8\n",
    "misspelt.conf": "nn=8\n",
    "other.conf": "alpha=1\n",
    "nested.conf": "config=x\n",
    "dashed.conf": "sigma-file=constant:-2\n",
    "underscored.conf": "sigma_file=constant:-2\n",
    "abbreviated.conf": "sig=constant:-2\n",
    **{f"correct-{v or 'empty'}.conf": f"correct={v}\n"
       for v in ("false", "no", "0", "TRUE", "yes", "1", "maybe", "", "off")},
    "sigma.csv": "i,j,value\n3,4,-2.0\n15,15,-3.0\n",
    "sigma-off-grid.csv": "i,j,value\n16,0,-2.0\n",
    "sigma-fraction.csv": "i,j,value\n1.5,2,-2.0\n",
    "sigma-short.csv": "i,j,value\n3,4\n",
    "sigma-inf.csv": "i,j,value\n3,4,inf\n",
    "sigma-no-header.csv": "3,4,-2.0\n5,5,-2.0\n",
    "sigma-one-row.csv": "3,4,-2.0\n",
    "sigma-off-mask.csv": "i,j,value\n12,12,-2.0\n",
    "header-only.csv": "a,b,value\n",
    "rhs.csv": "x,y,value\n0.25,0.25,1.0\n1.0,1.0,5.0\n",
    "rhs-off-grid.csv": "x,y,value\n2.0,0.5,1.0\n",
    "rhs-nan.csv": "x,y,value\n0.25,0.25,nan\n",
    "rhs-inf.csv": "x,y,value\n0.25,0.25,inf\n",
    "rhs-no-header.csv": "0.25,0.25,1.0\n",
    "rhs-off-domain.csv": "x,y,value\n0.75,0.75,1.0\n",  # a node of the L's missing quadrant
    "rhs-big.csv": "x,y,value\n" + "".join(f"{i / 16},{j / 16},1e200\n"
                                            for i in range(1, 16) for j in range(1, 16)),
}

INVOCATIONS = [
    # every subcommand at its defaults
    ["eta0"], ["region-map"], ["corner-det"], ["kernel1d"], ["solve"], ["cone"], ["classify"],
    # eta0
    ["eta0", "--alpha", "1.0", "--kappa", "-5"],
    ["eta0", "--alpha=1.0", "--kappa=-0.1"],
    ["eta0", "--alpha", "1.0", "--kappa", "-1e-3"],
    ["eta0", "--alpha", "1.0", "--kappa=-1e-3"],
    ["eta0", "--alpha", "1e-9", "--kappa", "-1"],
    ["eta0", "--alpha=3.14", "--kappa=-1e-8"],
    ["eta0", "--alpha", "1", "--kappa=-1e200"],
    ["eta0", "--alpha", "1e-20", "--kappa", "-1"],
    ["eta0", "--alpha", "1e-300", "--kappa", "-1"],
    ["eta0", "--alpha", "4.0", "--kappa", "-1"],
    ["eta0", "--alpha", "1.0"],
    ["eta0", "--alpha", "one", "--kappa", "-1"],
    # region-map
    ["region-map", "--na", "6", "--nk", "5"],
    ["region-map", "--na", "2", "--nk", "2", "--kmin", "-1e6"],
    ["region-map", "--amin=0.5", "--amax=2.5", "--kmin=-5", "--kmax=-0.2", "--na=3", "--nk=3"],
    ["region-map", "--amin=1e-300", "--amax=0.1", "--na=2", "--nk=2"],
    ["region-map", "--amin=0.3", "--amax=3.1", "--kmin=-1e200", "--kmax=-5e-324", "--na=3",
     "--nk=2"],
    ["region-map", "--amin=3.14", "--amax=3.1415926", "--kmin=-1e-300", "--kmax=-1e-301",
     "--na=2", "--nk=2"],
    ["region-map", "--amin=1.0", "--amax=2.0", "--kmin=-18.817146090151702",
     "--kmax=-0.7060234342587407", "--na=5", "--nk=5"],
    # 900 cells in two blocks, with empty and nan fields on both sides of the boundary
    ["region-map", "--amin=1e-300", "--amax=2.0", "--kmin=-18.817146090151702", "--kmax=-0.05",
     "--na=30", "--nk=30"],
    # Inside cells whose searches stop at widely different steps
    ["region-map", "--amin=0.2", "--amax=1.2", "--kmin=-9", "--kmax=-1", "--na=20", "--nk=20"],
    ["region-map", "--bogus", "1"],
    ["region-map", "--na", "100000000000"],
    # corner-det
    ["corner-det", "--alpha=1", "--kappa=-2", "--eta=0.3"],
    ["corner-det", "--alpha", "1", "--kappa=-1", "--eta", "400"],
    ["corner-det", "--alpha", "1", "--kappa=-1", "--eta", "1e300"],
    ["corner-det", "--alpha", "1", "--kappa", "-1", "--eta", "nan"],
    # at the eta0 that eta0 reports for (1, -0.5): the near-singular system
    ["corner-det", "--alpha=1", "--kappa=-0.5", "--eta=0.37495612626807934"],
    ["corner-det", "--alpha=1", "--kappa=-5", "--eta=0"],  # lambda = 1 is excluded
    # kernel1d
    ["kernel1d", "--t", "-1"],
    ["kernel1d", "--t", "-2.5e0"],
    ["kernel1d", "--t=-2.5e0"],
    ["kernel1d", "--delta=0.4"],
    ["kernel1d", "--t", "-1", "--kappa", CRITICAL, "--samples", "21"],
    ["kernel1d", "--t=-1", f"--kappa={CRITICAL}"],
    ["kernel1d", "--t=-1", f"--kappa={CRITICAL}", "--samples=1"],
    # exact zeros at the clamped ends
    ["kernel1d", "--t=-1", f"--kappa={CRITICAL}", "--samples=1001"],
    ["kernel1d", "--t", "-1", "--kappa", CRITICAL, "--samples", "0"],
    ["kernel1d", "--t", "-1", "--samples", "-5"],
    ["kernel1d", "--t", "0", "--samples", "-5"],
    ["kernel1d", "--t", "-1", "--kappa", "inf"],
    ["kernel1d", "--t", "-1", "--delta", "0.5"],
    ["kernel1d", "--t", "0"],
    ["kernel1d", "--delta", "1"],
    ["kernel1d", "--delta", "0.5", "--kappa=-1e4"],
    ["kernel1d", "--t", "-1", "--kappa=-1e154"],
    ["kernel1d", "--t", "-1", "--kappa=-1e308"],
    ["kernel1d", "--delta", "0.5", "--kappa=-1e308"],
    ["kernel1d", "--delta", "0.95", "--kappa=-19.0019"],
    ["kernel1d", "--t=-1e103"],
    ["kernel1d", "--t=-1e300"],
    ["kernel1d", "--t=-1e102"],
    ["kernel1d", "--t=-1e-102"],
    ["kernel1d", "--t=-1e-103"],
    ["kernel1d", "--t=-1e-200"],
    ["kernel1d", "--delta=1e-103"],
    ["kernel1d", "--delta=1e-300"],
    ["kernel1d", "--delta=3e-103"],
    *(["kernel1d", "--delta=0.4", f"--kappa={root}", "--samples", "21"] for root in DELTA_ROOTS),
    *(["kernel1d", "--t=-2.5e0", f"--kappa={root}", "--samples", "21"] for root in T_ROOTS),
    # cone
    ["cone", "--alpha=1.2"],
    ["cone", "--alpha=2.8"],  # near the top of the aperture range
    ["cone", "--mu=2"],
    ["cone", "--alpha=0.0476"],
    ["cone", "--alpha=0.0477"],
    ["cone", "--alpha=1e-3"],
    ["cone", "--alpha=1e-150"],
    ["cone", "--alpha=1e-155"],
    ["cone", "--mu=1e-17"],
    ["cone", "--mu=0.5", "--d", "2"],
    ["cone", "--mu", "-1"],
    ["cone", "--alpha", "1.0", "--d", "4"],
    ["cone", "--alpha", "1.0", "--mu", "2"],
    ["cone", "--mu", "1", "--d", BIG],
    ["cone", "--mu", "1", "--d", HUGE],
    ["cone", "--mu", "1", "--l", HUGE],
    # classify
    ["classify", "--lambda1", "1.5"],
    ["classify", "--beta=0.5", "--l=2", "--d=3", "--lambda1=1.5"],
    ["classify", "--beta=0.0", "--l=1", "--d=2", "--lambda1=1.0000000000000002"],
    ["classify", "--lambda1", "0"],
    ["classify", "--lambda1", "1", "--beta", "nan"],
    ["classify", "--lambda1", "1", "--d", HUGE],
    ["classify", "--lambda1", "1", "--l", HUGE],
    # solve
    SOLVE,
    [*SOLVE, "--correct"],
    [*SOLVE, "--no-correct"],
    [*SOLVE, "--correct=no"],
    [*SOLVE, "--sig", "constant:-2"],
    [*SOLVE, "--rhs", "one"],
    [*SOLVE, "--rhs", "sine2d"],
    [*SOLVE, "--rhs", "bogus"],
    [*SOLVE, "--sigma-file", "split-x:0.5:1:-3"],
    [*SOLVE, "--sigma-file", "constant:-2"],
    [*SOLVE, "--sigma-file", "patch:0.3:0.7:0.3:0.7:-3:1"],
    [*SOLVE, "--sigma-file", SINGULAR_PATCH],
    *([*SOLVE, "--sigma-file", spec] for spec in (
        "constant", "constant:", "constant:1:2", "constant:one", "split-x:0.5:1",
        "split-x:0.5:1:2:3", "patch:0.1:0.2:0.1", "patch", "disk:1", "constant:inf",
        "split-x:0.5:1:-inf", "split-x:nan:1:-2", "patch:nan:0.75:0.25:0.75:-3:1",
        "patch:0.7:0.3:0.3:0.7:-2:1", "patch:0.29:0.33:0.29:0.33:-2:1",
        "patch:0.6:0.9:0.6:0.9:-2:1", "split-x:2:1:-3", "split-x:-1:1:-3",
        "patch:0:1:0:1:-2:1")),
    ["solve", "--domain", "notched", "--n", "32"],
    ["solve", "--domain", "notched", "--n", "64", "--sigma-file", "split-x:0.5:1:-3"],
    # large enough that the capacitance matrix's Cholesky factor takes
    # blocked, threaded BLAS
    ["solve", "--domain", "lshape", "--n", "256"],
    ["solve", "--domain", "notched", "--n", "256", "--sigma-file", "patch:0.1:0.3:0.1:0.3:-2:1"],
    # the largest CSV the benchmark writes
    ["solve", "--domain", "notched", "--n", "512", "--sigma-file", "patch:0.1:0.25:0.1:0.28:-3:1"],
    ["solve", "--domain", "rectangle", "--n", "17", "--no-correct"],
    # a box that differs in x and y, on a square with no corners
    ["solve", "--domain", "rectangle", "--n", "16", "--sigma-file", "patch:0.1:0.3:0.5:0.9:-2:1"],
    ["solve", "--domain", "lshape", "--n", "4", "--no-correct"],
    ["solve", "--domain", "lshape", "--n", "4"],
    ["solve", "--domain", "rectangle", "--n", "1"],
    ["solve", "--domain", "lshape", "--n", "2"],
    ["solve", "--domain", "disk"],
    ["solve", "--domain", "rectangle", "--n", "0"],
    ["solve", "--domain", "rectangle", "--n", "-4"],
    ["solve", "--domain", "rectangle", "--n", "1000000000"],
    ["solve", "-h"],
    [*SOLVE, "--output", "missing/x.csv"],
    # file: inputs
    *([*SOLVE, "--sigma-file", f"file:{name}"] for name in (
        "sigma.csv", "sigma-off-grid.csv", "sigma-fraction.csv", "sigma-short.csv",
        "sigma-inf.csv", "sigma-no-header.csv", "sigma-one-row.csv", "sigma-off-mask.csv",
        "header-only.csv", "missing.csv")),
    *([*SOLVE, "--rhs", f"file:{name}"] for name in (
        "rhs.csv", "rhs-off-grid.csv", "rhs-nan.csv", "rhs-inf.csv", "rhs-no-header.csv",
        "rhs-off-domain.csv",
        "header-only.csv", "missing.csv")),
    ["solve", "--domain", "rectangle", "--n", "16", "--no-correct", "--rhs", "file:rhs-big.csv"],
    # --config
    [*SOLVE, "--rhs", "one", "--config", "size.conf"],
    ["solve", "--domain", "lshape", "--config", "size.conf"],
    ["region-map", "--config", "map.conf"],
    ["region-map", "--config", "map.conf", "--na", "2"],
    ["solve", "--config", "notched.conf"],
    ["solve", "--config", "notched.conf", "--n", "16"],
    ["eta0", "--config", "eta0.conf"],
    ["eta0", "--kappa", "-0.1", "--config", "eta0.conf"],
    ["eta0", "--config", "alpha.conf", "--kappa", "-5"],
    ["corner-det", "--config", "corner.conf"],
    ["kernel1d", "--config", "kernel.conf"],
    ["cone", "--config", "cone.conf"],
    [*SOLVE, "--config", "comments.conf"],
    [*SOLVE, "--config", "later.conf"],
    ["solve", "--config", "negative.conf"],
    ["solve", "--config", "zero.conf"],
    ["solve", "--config", "disk.conf"],
    ["solve", "--domain", "lshape", "--config", "type.conf"],
    ["classify", "--lambda1", "1", "--config", "nan.conf"],
    ["classify", "--lambda1", "1", "--config", "inf.conf"],
    [*SOLVE, "--config", "malformed.conf"],
    [*SOLVE, "--config", "missing.conf"],
    *([*SOLVE, "--config", f"correct-{v}.conf"]
      for v in ("false", "no", "0", "TRUE", "yes", "1", "maybe", "empty", "off")),
    [*SOLVE, "--correct", "--config", "correct-false.conf"],
    # keys that are not options of the subcommand
    [*SOLVE, "--config", "empty-key.conf"],
    [*SOLVE, "--config", "misspelt.conf"],
    [*SOLVE, "--config", "other.conf"],
    [*SOLVE, "--config", "nested.conf"],
    [*SOLVE, "--config", "dashed.conf"],
    [*SOLVE, "--config", "underscored.conf"],
    [*SOLVE, "--config", "abbreviated.conf"],
]


def capture(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one run(argv)."""
    from bilap.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # -h prints its help and exits
            code = exc.code
        except Exception as exc:  # a RuntimeWarning raised as an error, say
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def emit() -> None:
    """Print the (exit code, stdout, stderr) of every argv of the list as
    JSON, run by the bilap on sys.path with RuntimeWarnings raised as
    errors, help at 80 columns, and a temporary working directory holding
    FILES."""
    warnings.simplefilter("error", RuntimeWarning)
    os.environ["COLUMNS"] = "80"
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, text in FILES.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        runs = [capture(argv) for argv in INVOCATIONS]
        os.chdir(home)
    print(json.dumps(runs))


def split(text: str) -> tuple:
    """(header and x,y fields of every row, values) of one solve CSV."""
    header, *rows = text.splitlines()
    fields = [row.rsplit(",", 1) for row in rows]
    return [header, *(f[0] for f in fields)], np.array([f[1] for f in fields], dtype=np.float64)


def check(argv: list, theirs: list, ours: list):
    """None where the (exit code, stdout, stderr) of argv under OTHER_SRC
    and this tree are identical; max|dv|/max|v| where only the values of a
    solve CSV differ; else what differs, a failure."""
    differs = [name for name, a, b in zip(("exit code", "stdout", "stderr"), theirs, ours) if a != b]
    if not differs:
        return None
    if differs != ["stdout"] or theirs[0] != 0 or argv[0] != "solve" or "-h" in argv:
        return "different " + " and ".join(differs)
    (xy_a, v_a), (xy_b, v_b) = split(theirs[1]), split(ours[1])
    if xy_a != xy_b:
        return "different x,y columns"
    scale = np.abs(v_a).max(initial=0.0)
    diff = np.abs(v_b - v_a).max(initial=0.0)
    return float(diff / scale) if scale else float(diff)


def compare(other) -> int:
    """Print each line that differs and the summary; 1 where a line fails."""
    theirs, ours = collect(__file__, other), collect(__file__, SRC)
    moved, failed, worst = 0, 0, 0.0
    for argv, a, b in zip(INVOCATIONS, theirs, ours):
        result = check(argv, a, b)
        if isinstance(result, str):
            failed += 1
            print(f"FAIL {result}:", shlex.join(argv))
        elif result is not None:
            moved, worst = moved + 1, max(worst, result)
            print(f"{result:.1e}", shlex.join(argv))
    print(f"# {blas()}: {len(INVOCATIONS) - moved - failed} of {len(INVOCATIONS)} lines identical, "
          f"{moved} solve CSVs within {worst:.1e} of max|v|, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], __doc__, emit, compare))
