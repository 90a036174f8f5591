"""Time the exponent-search layer under this source tree and another.

    python tools/search_ms.py OTHER_SRC [ROUNDS]

Each of ROUNDS rounds (default 5) runs one process per tree, OTHER_SRC
(another tree's src directory) and this tree's src, the first of the two
alternating from round to round.  A process times every case below REPEATS
times, after one untimed call, then counts in one more untimed call the
evaluations of f that the case's bracketed_roots calls make.  The tool
prints, per case, the summary of tools/two_trees.py (each tree's median
over its processes of their medians in ms, with quartiles, the ratio of
this tree's to OTHER_SRC's and the rounds this tree won) and the
evaluation count, which must be the same on both trees and in every round:
it exits 1 where it is not.

The cases are find_singular_exponent at one point far inside the
ill-posedness region, at the four edge-band points of the spectral-scan
benchmark (alpha = 1 and 2, 1e-7 or 1e-8 inside ell_minus or ell_plus) and
at (1e-9, -1); region_map on the CLI's default 50 x 50 map; and
cap_first_eigenvalue at four apertures up to 0.9 pi.
"""

import json
import math
import sys
import time

from two_trees import main, summary

REPEATS = 30
# the spectral-scan edge band: 1e-7 or 1e-8 (relative) inside ell_minus or
# ell_plus, as bench/workloads.py places them
EDGE_BAND = ((1.0, -18.817147971866312), (1.0, -0.7060234271985064),
             (2.0, -1.8803385555015082), (2.0, -0.07984580792347681))
APERTURES = (0.3, 1.2, 2.0, 0.9 * math.pi)


def cases():
    """(name, call) of every timed case."""
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


def emit() -> None:
    """Print {case: [evaluations, ms, ...]} as JSON, timed with the bilap on sys.path."""
    out = {}
    for name, call in cases():
        call()  # warm imports and first-use tables
        ms = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            call()
            ms.append(1e3 * (time.perf_counter() - start))
        out[name] = [evaluations(call), *ms]
    print(json.dumps(out))


def report(runs: list, rounds: int) -> int:
    """Print each case's summary with its evaluation counts; 1 where a
    case's count varies."""
    return 0 if summary(runs, rounds, "evals") else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], __file__, __doc__, emit, report))
