"""The alternating two-tree rounds that tools/factor_ms.py and
tools/search_ms.py share.

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

SRC = Path(__file__).resolve().parents[1] / "src"


def collect(script: str, src: Path) -> dict:
    """The samples that ``script --emit`` prints under the tree whose src
    directory is src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, str(Path(script).resolve()), "--emit"],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(run.stdout)


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
