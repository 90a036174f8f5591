"""Time compute_dual_singularity under this source tree and another.

    python tools/dual_ms.py OTHER_SRC [ROUNDS]

Each of ROUNDS rounds (default 5) runs one process per tree, OTHER_SRC
(another tree's src directory) and this tree's src, the first of the two
alternating from round to round, each with this environment, so at one BLAS
thread setting.  A process builds each grid below, calls its factor() and
one untimed compute_dual_singularity of every corner, then times each
corner's call REPEATS times.  The tool prints, per corner, the summary of
tools/two_trees.py (each tree's median over its processes of their medians
in ms, with quartiles, the ratio of this tree's to OTHER_SRC's and the
rounds this tree won) and the first 16 hex digits of the sha256 of the dual
field's bytes, which must be the same on both trees and in every round: it
exits 1 where it is not, and prints each distinct digest there.

The grids are the CLI's lshape (one corner) and notched (two) domains at
n = 256, 512 and 1024.
"""

import hashlib
import json
import sys
import time

from two_trees import main, summary

REPEATS = 10


def emit() -> None:
    """Print {case: [sha256, ms, ...]} as JSON, timed with the bilap on sys.path."""
    from bilap.grid import lshape_grid, notched_grid
    from bilap.twostep import compute_dual_singularity

    out = {}
    for n in (256, 512, 1024):
        for name, build in (("lshape", lshape_grid), ("notched", notched_grid)):
            grid = build(n)
            grid.factor()
            for index in range(len(grid.corners)):
                dual = compute_dual_singularity(grid, index).dual
                ms = []
                for _ in range(REPEATS):
                    start = time.perf_counter()
                    compute_dual_singularity(grid, index)
                    ms.append(1e3 * (time.perf_counter() - start))
                out[f"{name} {n} corner {index}"] = [hashlib.sha256(dual.tobytes()).hexdigest(), *ms]
    print(json.dumps(out))


def report(runs: list, rounds: int) -> int:
    """Print each case's summary with its digests; 1 where a case's digest
    varies."""
    return 0 if summary(runs, rounds, "sha256") else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], __file__, __doc__, emit, report))
