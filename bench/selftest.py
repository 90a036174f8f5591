"""Self-test of the benchmark's checks: each must pass a real bilap output and
reject the same output with one deliberate fault in it.

    python3 bench/selftest.py

Uses small inputs (n = 64 grids, a 6x6 region map) and takes a few seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

import bilap.cli  # noqa: E402
import oracle  # noqa: E402
from workloads import cli_text, generic_rhs  # noqa: E402


def expect(name: str, verdict, bad: bool):
    failed, reason = verdict if isinstance(verdict, tuple) else (False, verdict)
    ok = (reason is not None) == bad and not failed
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {reason or 'passes'}")
    return ok


def replace_field(text: str, line: int, col: int, value: str) -> str:
    lines = text.split("\n")
    cells = lines[line].split(",")
    cells[col] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines)


def main() -> int:
    b, results = bilap, []
    text = cli_text(b, ["eta0", "--alpha=1.0", "--kappa=-30.0"])
    eta0 = float(text.split("\n")[1].split(",")[4])
    results.append(expect("eta0", oracle.check_eta0(text, 1.0, -30.0), False))
    results.append(expect("eta0 moved by 1e-6", oracle.check_eta0(
        replace_field(text, 1, 4, repr(eta0 * (1 + 1e-6))), 1.0, -30.0), True))
    results.append(expect("membership flipped", oracle.check_eta0(
        replace_field(text, 1, 3, "Outside"), 1.0, -30.0), True))

    al, ka = np.linspace(0.5, 2.5, 6), np.linspace(-12.0, -0.5, 6)
    argv = ["region-map", "--amin=0.5", "--amax=2.5", "--kmin=-12.0", "--kmax=-0.5", "--na=6", "--nk=6"]
    text = cli_text(b, argv)
    results.append(expect("region map", oracle.check_region_map(text, al, ka), False))
    inside = next(i for i, row in enumerate(text.split("\n")) if ",Inside," in row)
    results.append(expect("region map membership flipped", oracle.check_region_map(
        replace_field(text, inside, 5, "Outside"), al, ka), True))

    text = cli_text(b, ["cone", "--alpha=1.2"])
    mu1 = float(text.split("\n")[1].split(",")[1])
    results.append(expect("cone", oracle.check_cone(text, 1.2), False))
    results.append(expect("cone mu1 moved by 1e-6", oracle.check_cone(
        replace_field(text, 1, 1, repr(mu1 * (1 + 1e-6))), 1.2), True))
    nu2 = float(mp.findroot(lambda v: mp.legenp(v, 0, mp.cos(1.2)), 5.52 / 1.2 - 0.5))  # second root
    results.append(expect("cone past the first root", oracle.check_cone(
        replace_field(text, 1, 1, repr(nu2 * (nu2 + 1))), 1.2), True))

    roots = oracle.two_segment_contrasts(-2.0)
    text = cli_text(b, ["kernel1d", "--t=-2.0", f"--kappa={roots[0]!r}", "--samples=201"])
    results.append(expect("kernel1d", oracle.check_kernel1d(text, (-1.0, 0.0, 2.0), roots[0], roots, 201), False))
    head, _, tail = text.partition("x,v,v1,v2\n")
    rows = [r.split(",") for r in tail.strip().split("\n")]
    skewed = "\n".join(",".join(r[:1] + [repr(float(c) * (1.001 if float(r[0]) > 0 else 1.0)) for c in r[1:]])
                       for r in rows)
    results.append(expect("kernel1d right segment scaled", oracle.check_kernel1d(
        head + "x,v,v1,v2\n" + skewed + "\n", (-1.0, 0.0, 2.0), roots[0], roots, 201), True))

    dom = oracle.Domain("lshape", 64)
    sinv = dom.node_average(np.ones((64, 64)))
    outputs = {}
    for corr in ("--correct", "--no-correct"):
        outputs[corr] = dom.parse_solution(cli_text(b, ["solve", "--domain=lshape", "--n=64", corr]))
        results.append(expect(f"solve {corr}", oracle.check_two_step_output(
            dom, outputs[corr], sinv, generic_rhs(dom)), False))
    V = outputs["--correct"].copy()
    V[10, 10] += 1e-12
    results.append(expect("solve with one node moved by 1e-12", oracle.check_two_step_output(
        dom, V, sinv, generic_rhs(dom)), True))
    c, u = (dom.singular_coefficients(outputs[k])[0] for k in ("--correct", "--no-correct"))
    print(f"     singular coefficient at n=64: corrected {c:.3e}, uncorrected {u:.3e}")

    grid = b.grid.lshape_grid(64)
    sing = [b.twostep.compute_dual_singularity(grid, 0)]
    sigma = b.twostep.SigmaField.constant(grid, 1.0)
    f = generic_rhs(dom)
    sol = b.twostep.corrected_two_step_solve(grid, sigma, f, sing)
    duals = [sing[0].dual]
    results.append(expect("sigma solve", oracle.check_sigma_solution(dom, sol.p, sol.v, sinv, f, duals), False))
    plain = b.twostep.two_step_solve(grid, sigma, f)
    results.append(expect("sigma solve without correction", oracle.check_sigma_solution(
        dom, plain.p, plain.v, sinv, f, duals), True))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
