"""Time three solver stages under this source tree and another.

    python tools/stage_ms.py OTHER_SRC [ROUNDS]

Each of ROUNDS rounds (default 5) runs, for each stage in turn, one
``--emit`` process per tree, OTHER_SRC (another tree's src directory) and
this tree's src, the first of the two alternating from round to round.  A
process times each case of its stage after an untimed warm-up call, and
tags it with a result that must repeat on both trees and in every round.
The tool prints tools/two_trees.py's summary line of each case, and exits
1 where a case's tag varies.

factor: Grid2D.factor() on a freshly built grid (the build is not timed),
FACTOR_REPEATS times, tagged with K = |Gamma|, the capacitance matrix's
size.  The grids are the CLI's lshape and notched domains at n = 256, 512
and 1024, and two masks whose Gamma spans many rows and columns, a
staircase of 4-cell steps and a disk, at n = 64 to 512.

search: SEARCH_REPEATS calls, tagged with the evaluations of f that the
case's bracketed_roots calls make, counted in one more call.  The cases are
find_singular_exponent at one point far inside the ill-posedness region,
at the four edge-band points of the spectral-scan benchmark (alpha = 1 and
2, 1e-7 or 1e-8 inside ell_minus or ell_plus) and at (1e-9, -1); region_map
on the CLI's default 50 x 50 map; and cap_first_eigenvalue at four
apertures up to 0.9 pi.

dual: compute_dual_singularity of every corner of the CLI's lshape (one
corner) and notched (two) domains at n = 256, 512 and 1024, DUAL_REPEATS
times after the grid's factor(), tagged with the sha256 of the dual
field's bytes.  The warm-up's dual is held while the corner is timed.
"""

import hashlib
import json
import math
import sys
import time

import numpy as np

from two_trees import SRC, collect, main, summary

FACTOR_REPEATS, SEARCH_REPEATS, DUAL_REPEATS = 3, 30, 10
# the spectral-scan edge band: 1e-7 or 1e-8 (relative) inside ell_minus or
# ell_plus, as bench/workloads.py places them
EDGE_BAND = ((1.0, -18.817147971866312), (1.0, -0.7060234271985064),
             (2.0, -1.8803385555015082), (2.0, -0.07984580792347681))
APERTURES = (0.3, 1.2, 2.0, 0.9 * math.pi)


def times(call, repeats: int, make=tuple) -> list:
    """The ms that call(*make()) takes in each of repeats calls, make() not timed."""
    out = []
    for _ in range(repeats):
        args = make()
        start = time.perf_counter()
        call(*args)
        out.append(1e3 * (time.perf_counter() - start))
    return out


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
    """(name, cell mask) of every factor grid, built as it is reached."""
    from bilap.grid import lshape_grid, notched_grid

    for n in (256, 512, 1024):
        yield f"lshape {n}", lshape_grid(n).cell_mask
        yield f"notched {n}", notched_grid(n).cell_mask
    for n in (64, 128, 256, 512):
        yield f"staircase {n}", staircase(n)
        yield f"disk {n}", disk(n)


def factor():
    """(case, [K, ms, ...]) of every factor grid."""
    from bilap.grid import Grid2D

    for name, cells in masks():
        k = len(Grid2D(cells).factor().gi)  # warms imports and the FFT plan cache
        yield name, [k, *times(Grid2D.factor, FACTOR_REPEATS, lambda: (Grid2D(cells),))]


def evaluations(call) -> int:
    """The number of points at which call's bracketed_roots calls evaluate f."""
    from bilap import cones
    from bilap import corner_spectrum as cs

    search, count = cs.bracketed_roots, [0]

    def counted(f, lo, hi, tol):
        def g(rows, x):
            count[0] += len(rows)
            return f(rows, x)
        return search(g, lo, hi, tol)

    cs.bracketed_roots = cones.bracketed_roots = counted
    try:
        call()
    finally:
        cs.bracketed_roots = cones.bracketed_roots = search
    return count[0]


def cases():
    """(name, call) of every search case."""
    from bilap import cones
    from bilap import corner_spectrum as cs

    points = [("far inside", 1.0, -0.3)]
    points += [(f"edge {alpha:g} {kappa:.4g}", alpha, kappa) for alpha, kappa in EDGE_BAND]
    points.append(("small angle", 1e-9, -1.0))
    for name, alpha, kappa in points:
        yield f"eta0 {name}", lambda p=cs.CornerProblem(alpha, kappa): cs.find_singular_exponent(p)
    yield "region-map 50x50", lambda: cs.region_map((math.pi / 200.0, math.pi * (1.0 - 1.0 / 200.0)),
                                                    (-12.0, -0.05), 50, 50)
    for alpha in APERTURES:
        yield f"cap {alpha:.4f}", lambda alpha=alpha: cones.cap_first_eigenvalue(alpha)


def search():
    """(case, [evaluations, ms, ...]) of every search case."""
    for name, call in cases():
        call()  # warms imports and first-use tables
        ms = times(call, SEARCH_REPEATS)
        yield name, [evaluations(call), *ms]


def dual():
    """(case, [sha256, ms, ...]) of every corner of every dual grid."""
    from bilap.grid import lshape_grid, notched_grid
    from bilap.twostep import compute_dual_singularity

    for n in (256, 512, 1024):
        for name, build in (("lshape", lshape_grid), ("notched", notched_grid)):
            grid = build(n)
            grid.factor()
            for index in range(len(grid.corners)):
                field = compute_dual_singularity(grid, index).dual
                ms = times(lambda: compute_dual_singularity(grid, index), DUAL_REPEATS)
                yield f"{name} {n} corner {index}", [hashlib.sha256(field.tobytes()).hexdigest(), *ms]


STAGES = {"factor": factor, "search": search, "dual": dual}


def emit(stage: str) -> None:
    """Print {case: [tag, ms, ...]} of one stage as JSON, timed with the bilap on sys.path."""
    print(json.dumps({f"{stage} {name}": samples for name, samples in STAGES[stage]()}))


def compare(other, rounds: int) -> int:
    """Print each case's summary; 1 where a case's tag varies."""
    trees, runs = {"theirs": other, "ours": SRC}, []
    for r in range(rounds):
        outs = {side: {} for side in (("theirs", "ours") if r % 2 == 0 else ("ours", "theirs"))}
        for stage in STAGES:
            for side, out in outs.items():
                out.update(collect(__file__, trees[side], stage))
        runs += outs.items()
    return 0 if summary(runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], __doc__, emit, compare, rounds=True))
