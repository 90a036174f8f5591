"""Time Grid2D.factor() under this source tree and another.

    python tools/factor_ms.py OTHER_SRC [ROUNDS]

Each of ROUNDS rounds (default 5) runs one process per tree, OTHER_SRC
(another tree's src directory) and this tree's src, the first of the two
alternating from round to round, each with this environment, so at one BLAS
thread setting.  A process times factor() on a freshly built grid of every
case below, REPEATS times each (the grid build is not timed); the tool
prints, per case, the summary of tools/two_trees.py: each tree's median
over its processes of their medians in ms, with quartiles, the ratio of
this tree's to OTHER_SRC's and the rounds this tree won.  The cases are the
CLI's lshape and notched domains at n = 256, 512 and 1024, and two masks
whose Gamma spans many rows and columns, a staircase of 4-cell steps and a
disk, at n = 64 to 512.
"""

import json
import sys
import time

import numpy as np

from two_trees import main, summary

REPEATS = 3


def staircase(n: int) -> np.ndarray:
    """Cells below a staircase of 4-cell steps from the top of the left edge
    to the right of the bottom edge."""
    idx = np.arange(n) // 4
    return idx[:, None] + idx[None, :] < n // 4


def disk(n: int) -> np.ndarray:
    """Cells whose centres lie within 0.45 of the square's centre."""
    c = (np.arange(n) + 0.5) / n - 0.5
    return np.hypot(c[:, None], c[None, :]) < 0.45


def masks():
    """(name, cell mask) of every timed grid, built as it is reached."""
    from bilap.grid import lshape_grid, notched_grid

    for n in (256, 512, 1024):
        yield f"lshape {n}", lshape_grid(n).cell_mask
        yield f"notched {n}", notched_grid(n).cell_mask
    for n in (64, 128, 256, 512):
        yield f"staircase {n}", staircase(n)
        yield f"disk {n}", disk(n)


def emit() -> None:
    """Print {case: [ms, ...]} as JSON, timed with the bilap on sys.path."""
    from bilap.grid import Grid2D

    out = {}
    for name, cells in masks():
        Grid2D(cells).factor()  # warm imports and the FFT plan cache
        out[name] = []
        for _ in range(REPEATS):
            grid = Grid2D(cells)
            start = time.perf_counter()
            grid.factor()
            out[name].append(1e3 * (time.perf_counter() - start))
    print(json.dumps(out))


def report(runs: list, rounds: int) -> int:
    """Print each case's summary."""
    summary(runs, rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], __file__, __doc__, emit, report))
