"""The alternating two-tree rounds, and their summary, that
tools/factor_ms.py, tools/search_ms.py and tools/dual_ms.py share.

Such a tool runs as ``tool --emit``, which prints one process's samples as
JSON, timed with the bilap on sys.path, and as ``tool OTHER_SRC [ROUNDS]``,
which runs ROUNDS rounds (default 5) of one ``--emit`` process per tree,
OTHER_SRC (another tree's src directory) and this tree's src, the first of
the two alternating from round to round, each with this environment, so at
one BLAS thread setting; the tool then reports on the samples.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


def collect(script: str, src: Path) -> dict:
    """The samples that ``script --emit`` prints under the tree whose src
    directory is src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, str(Path(script).resolve()), "--emit"],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(run.stdout)


def summary(runs: list, rounds: int, tag: str = "") -> bool:
    """Print one line per case of runs, the (side, {case: [ms, ...]}) of
    every process in the order run.  Each process's samples of a case count
    as one value, their median, so one loaded process moves a tree's figure
    by one value out of ROUNDS.  A line gives each tree's median of those
    values with their quartiles, the ratio of this tree's median to
    OTHER_SRC's, and in how many rounds this tree's value was the lower.

    With a tag title, a case's samples are [tag, ms, ...] instead, the tag
    a result that must repeat on both trees and in every round; a last
    column shows the first 16 characters of each distinct tag.  Returns
    whether every case's tag repeated."""
    medians, tags = {"theirs": {}, "ours": {}}, {}
    for side, out in runs:
        for name, ms in out.items():
            if tag:
                tags.setdefault(name, set()).add(ms[0])
                ms = ms[1:]
            medians[side].setdefault(name, []).append(float(np.median(ms)))
    width = max(map(len, medians["theirs"])) + 2
    print(f"# OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
          f"{rounds} rounds; ms: median of the per-process medians [quartiles]")
    print(f"{'case':<{width}}{'OTHER_SRC':>30}{'this tree':>30}{'ratio':>8}{'won':>7}  {tag}".rstrip())
    for name, theirs in medians["theirs"].items():
        ours = medians["ours"][name]
        # each round runs one process per tree, so its two values are a pair
        won = sum(b < a for a, b in zip(theirs, ours))
        cells = "".join(f"{np.median(v):.3f} [{np.percentile(v, 25):.3f}, "
                        f"{np.percentile(v, 75):.3f}]".rjust(30) for v in (theirs, ours))
        shown = "/".join(str(t)[:16] for t in sorted(tags.get(name, ())))
        print(f"{name:<{width}}{cells}{np.median(ours) / np.median(theirs):>8.3f}"
              f"{f'{won}/{len(ours)}':>7}  {shown}".rstrip())
    return all(len(t) == 1 for t in tags.values())


def main(args: list, script: str, doc: str, emit, report) -> int:
    """A timing tool's main: ``--emit`` calls emit; OTHER_SRC [ROUNDS]
    returns report(runs, rounds), runs being the (side, samples) of every
    process in the order run, side "theirs" (OTHER_SRC) or "ours"; any
    other arguments print the usage line of the tool's docstring doc and
    return 2."""
    if args[:1] == ["--emit"]:
        emit()
        return 0
    if len(args) not in (1, 2):
        print(doc.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    rounds = int(args[1]) if len(args) == 2 else 5
    trees = {"theirs": Path(args[0]).resolve(), "ours": SRC}
    runs = [(side, collect(script, trees[side])) for r in range(rounds)
            for side in (("theirs", "ours") if r % 2 == 0 else ("ours", "theirs"))]
    return report(runs, rounds)
