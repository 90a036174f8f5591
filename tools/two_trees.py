"""What tools/cli_digest.py and tools/stage_ms.py share: their arguments,
their child processes, one per tree and each with this environment, so at
one BLAS thread setting, and the stage timer's summary."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


def blas() -> str:
    """The BLAS thread setting both trees run at."""
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"


def collect(script: str, src: Path, *args: str):
    """What ``script --emit *args`` prints, read as JSON, under the tree whose
    src directory is src.  A child that fails has written its cause to this
    process's stderr; this process then exits 1."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, str(Path(script).resolve()), "--emit", *args],
                         env=env, stdout=subprocess.PIPE, text=True)
    if run.returncode:
        sys.exit(1)
    return json.loads(run.stdout)


def summary(runs: list) -> bool:
    """Print one line per case of runs, the (side, {case: [tag, ms, ...]})
    of each tree in each round in the order run, side "theirs" (OTHER_SRC)
    or "ours", a case's samples from one process.  Those samples count
    as one value, their median, so one loaded process moves a tree's figure
    by one value out of ROUNDS.  A line gives each tree's median of those
    values with their quartiles, the ratio of this tree's median to
    OTHER_SRC's, in how many rounds this tree's value was the lower, and the
    first 16 characters of each distinct tag, a result that must repeat on
    both trees and in every round.  Returns whether every case's tag
    repeated."""
    medians, tags = {"theirs": {}, "ours": {}}, {}
    for side, out in runs:
        for name, (tag, *ms) in out.items():
            tags.setdefault(name, set()).add(tag)
            medians[side].setdefault(name, []).append(float(np.median(ms)))
    width = max(map(len, tags)) + 2
    print(f"# {blas()}, {len(runs) // 2} rounds; ms: median of the per-process medians [quartiles]")
    print(f"{'case':<{width}}{'OTHER_SRC':>30}{'this tree':>30}{'ratio':>8}{'won':>7}  tag")
    for name, theirs in medians["theirs"].items():
        ours = medians["ours"][name]
        # each round runs one process per tree, so its two values are a pair
        won = sum(b < a for a, b in zip(theirs, ours))
        cells = "".join(f"{np.median(v):.3f} [{np.percentile(v, 25):.3f}, "
                        f"{np.percentile(v, 75):.3f}]".rjust(30) for v in (theirs, ours))
        shown = "/".join(str(t)[:16] for t in sorted(tags[name], key=str))
        print(f"{name:<{width}}{cells}{np.median(ours) / np.median(theirs):>8.3f}"
              f"{f'{won}/{len(ours)}':>7}  {shown}")
    return all(len(t) == 1 for t in tags.values())


def parse(args: list, rounds: bool) -> tuple:
    """(OTHER_SRC resolved,) from a tool's arguments, and where rounds, the
    ROUNDS that may follow it (default 5).  Raises ValueError where
    OTHER_SRC holds no bilap package, ROUNDS is not a positive integer, or
    there are too few or too many arguments."""
    if not 1 <= len(args) <= 1 + rounds:
        raise ValueError(f"{len(args)} arguments")
    other = Path(args[0]).resolve()
    if not (other / "bilap" / "__init__.py").is_file():
        raise ValueError(f"no bilap package in {other}")
    if not rounds:
        return (other,)
    count = int(args[1]) if len(args) == 2 else 5
    if count < 1:
        raise ValueError(f"{count} rounds")
    return other, count


def main(args: list, doc: str, emit, compare, rounds: bool = False) -> int:
    """A two-tree tool's main: ``--emit [ARG]`` calls emit(ARG); else
    returns compare(*parse(args, rounds)).  Arguments that parse rejects
    print the usage line of the tool's docstring doc and return 2, before
    any child process starts."""
    if args[:1] == ["--emit"]:
        emit(*args[1:])
        return 0
    try:
        parsed = parse(args, rounds)
    except ValueError:
        print(doc.strip().split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    return compare(*parsed)
