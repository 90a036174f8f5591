"""Compare the values `bilap solve` prints under this source tree and another.

    export OPENBLAS_NUM_THREADS=2
    python tools/solve_diff.py OTHER_SRC

Runs every `solve` argv but -h in tools/cli_digest.py's list, under its
conditions, once under this tree's src and once under OTHER_SRC (another
tree's src directory), each tree in a process of its own with this
environment, so at one BLAS thread setting.  For each argv it checks that
both trees exit with the same code, and where both exit 0, that the x,y
columns of their CSVs are byte-identical; it prints max|dv|/max|v| between
the value columns, v being OTHER_SRC's, then the argv.  Exits 1 when a check
fails, with the failing lines marked.
"""

import os
import pickle
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


def emit(path: str) -> None:
    """Pickle (argv, exit code, stdout) of each solve argv to path, run by
    the bilap on sys.path."""
    from cli_digest import INVOCATIONS, capture, inputs

    with inputs():
        runs = [(argv, *capture(argv)[:2]) for argv in INVOCATIONS
                if argv[0] == "solve" and "-h" not in argv]
    with open(path, "wb") as fh:
        pickle.dump(runs, fh)


def collect(src: Path, path: str) -> list:
    """The runs of emit under the tree whose src directory is src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit", path],
                   env=env, check=True)
    with open(path, "rb") as fh:
        return pickle.load(fh)


def split(text: str) -> tuple:
    """(header and x,y fields of every row, values) of one solve CSV."""
    header, *rows = text.splitlines()
    fields = [row.rsplit(",", 1) for row in rows]
    return [header, *(f[0] for f in fields)], np.array([f[1] for f in fields], dtype=np.float64)


def main(args: list) -> int:
    if args[:1] == ["--emit"]:
        emit(args[1])
        return 0
    if len(args) != 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        theirs = collect(Path(args[0]).resolve(), f"{tmp}/theirs.pkl")
        ours = collect(HERE.parent / "src", f"{tmp}/ours.pkl")
    print(f"# OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    failed, worst = 0, 0.0
    for (argv, code_a, out_a), (_, code_b, out_b) in zip(theirs, ours):
        if code_a != code_b:
            failed += 1
            print(f"FAIL exit {code_a!r} -> {code_b!r}", shlex.join(argv))
            continue
        if code_a != 0:
            continue
        (xy_a, v_a), (xy_b, v_b) = split(out_a), split(out_b)
        if xy_a != xy_b:
            failed += 1
            print("FAIL x,y columns differ", shlex.join(argv))
            continue
        scale = np.abs(v_a).max(initial=0.0)
        diff = np.abs(v_b - v_a).max(initial=0.0)
        rel = float(diff / scale) if scale else diff
        worst = max(worst, rel)
        print(f"{rel:.1e}", shlex.join(argv))
    print(f"# worst {worst:.1e}, {failed} failed checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
