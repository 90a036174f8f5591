"""One workload in one process; started by run.py, which owns the command line.

Prints, as its last stdout line, a JSON record that run.py turns into the
benchmark result.  With --import-only it imports bilap.cli, reports how long
that took from the launcher's clock reading --t0, and exits.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_ROUNDS = 2
MAX_TRACED_ROUNDS = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t0", type=float, required=True, help="launcher's time.monotonic() at spawn")
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    import bilap.cli  # the import users pay for; timed from process start
    import_s = time.monotonic() - args.t0
    if not Path(bilap.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bilap was imported from {bilap.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 1
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    import resource

    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](bilap, args.seed, OUT_DIR)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(bilap)
        tracer.install()

    setup_times, inputs = [], None
    for _ in range(1 if tracer else workloads.SETUP_REPEATS):
        inputs = None
        gc.collect()
        t = time.perf_counter()
        inputs = workload.setup()
        setup_times.append(time.perf_counter() - t)
    setup_problem = workload.verify_setup(inputs)
    setup_spans = tracer.mark() if tracer else 0
    ops = workload.ops(inputs)

    rounds, expected, wrong = [], [None] * len(ops), []
    if setup_problem:
        wrong.append(f"set-up: {setup_problem}")
    began = time.perf_counter()
    while True:
        # traced rounds alternate with untraced ones, up to MAX_TRACED_ROUNDS
        traced = (bool(tracer) and len(rounds) % 2 == 1
                  and sum(r["traced"] for r in rounds) < MAX_TRACED_ROUNDS)
        if tracer:
            (tracer.install if traced else tracer.uninstall)()
        first_span = tracer.mark() if tracer else 0
        rec = run_round(ops, workload.reference, expected, wrong, first=not rounds)
        rec["traced"] = traced
        if tracer:
            rec["spans"] = (first_span, tracer.mark())
        rounds.append(rec)
        if time.perf_counter() - began >= args.seconds and len(rounds) >= MIN_ROUNDS:
            break
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for msg in wrong:
        print(f"wrong: {msg}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    out = {
        "import_s": import_s,
        "setup_work_s": statistics.median(setup_times),
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "round_walls": [(sum(r["times"]), r["traced"]) for r in rounds],
        "reference": workload.reference,
        "reference_s": statistics.median(x for r in rounds for x in r["refs"]),
        "failures": rounds[0]["failures"],
        "op_seconds": [(op.label, statistics.median(r["times"][k] for r in plain))
                       for k, op in enumerate(ops)],
    }
    if tracer:
        traced_rounds = [r for r in rounds if r["traced"]]
        overhead = normalized(traced_rounds, ops)[0] - normalized(plain, ops)[0]
        out["per_layer"] = per_layer(tracer, (0, setup_spans), [r["spans"] for r in traced_rounds])
        out["per_layer"]["trace.overhead_ref"] = (overhead, "ref")
        path = OUT_DIR / f"spans-{args.workload}.csv"
        tracer.write(path)
        out["spans_file"] = str(path.relative_to(ROOT))
    else:
        wall, items, item_ref = normalized(plain, ops)
        out["end_to_end"] = {
            "wall_ref": (wall, "ref"),
            "items_per_ref": (items / item_ref, "items/ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps(out))
    return 0


def _scalar_python() -> None:
    acc = 0.0
    for i in range(20_000):
        acc += math.sin(i * 1e-3)


@functools.cache
def _lu_system():
    import numpy as np  # not at the top: bilap's own import of numpy is timed
    import scipy.sparse as sp

    d = sp.diags([np.ones(95), np.full(96, -2.0), np.ones(95)], [-1, 0, 1])
    return sp.kronsum(d, d).tocsc(), np.ones(96 * 96)


def _sparse_lu() -> None:
    import scipy.sparse.linalg as spla

    A, b = _lu_system()
    spla.splu(A).solve(b)


# Reference work that runs no bilap code, one kind per workload, matching the
# work that dominates it: scalar Python (bisection, series, CLI parsing) or a
# sparse LU factor and solve (scipy's SuperLU on a 96x96 five-point grid).
REFERENCES = {"scalar-python": _scalar_python, "sparse-lu": _sparse_lu}


def reference_time(kind: str) -> float:
    """Seconds the reference work takes now: a probe of how fast the host is
    running this process at the moment."""
    t = time.perf_counter()
    REFERENCES[kind]()
    return time.perf_counter() - t


def run_round(ops, kind: str, expected, wrong, first: bool) -> dict:
    """Run every operation once, timing each between two runs of the
    reference work; the checks run outside the timer."""
    times, ratios, refs, failed, failures = [], [], [], [], []
    after = reference_time(kind)
    for k, op in enumerate(ops):
        before = reference_time(kind) if first else after  # first round: a check ran since
        t = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a raising operation is a failed one; keep going
            out, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t)
        after = reference_time(kind)
        refs.append(after)
        ratios.append(times[-1] / (0.5 * (before + after)))
        if error is None and first:
            op_failed, reason = op.check(out)
            if reason:
                wrong.append(f"{op.label}: {reason}")
            error = "no result delivered" if op_failed else None
            expected[k] = (error, op.digest(out))
        elif error is None:
            if op.digest(out) != expected[k][1]:
                wrong.append(f"{op.label}: output differs from the first round")
            error = expected[k][0]
        elif first:
            expected[k] = (error, None)
        failed.append(bool(error))
        if error:
            failures.append(f"{op.label}: {error}")
    return {"times": times, "ratios": ratios, "refs": refs, "failed_ops": failed, "attempted": len(ops),
            "failed": sum(failed), "failures": failures}


def normalized(rounds, ops) -> tuple:
    """Each operation's median time over the rounds in reference units,
    summed: (round time, items of the item-counting operations that did not
    fail, their time).

    The host runs this process fast or about 1.6x slower for stretches of
    seconds to tens of seconds.  An operation's time divided by the reference
    work timed just before and after it follows the program, not the host.
    """
    per_op = [statistics.median(r["ratios"][k] for r in rounds) for k in range(len(ops))]
    counted = [k for k, op in enumerate(ops) if op.items and not rounds[0]["failed_ops"][k]]
    return sum(per_op), sum(ops[k].items for k in counted), sum(per_op[k] for k in counted)


def per_layer(tracer, setup_range, round_ranges) -> dict:
    """The span metrics BENCHMARK.json lists (<span>.calls, <span>.self_s):
    the traced set-up plus the median traced round; and the largest factor fill."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    setup = tracer.summarize(*setup_range)
    per_round = [tracer.summarize(*r) for r in round_ranges]
    out = {"grid.factor_fill_nnz": (tracer.max_fill, "count")}
    for metric in (m["name"] for m in listed):
        span, field = metric.rsplit(".", 1)
        if field not in ("calls", "self_s"):
            continue
        value = setup.get(span, {}).get(field, 0) + statistics.median(
            s.get(span, {}).get(field, 0) for s in per_round)
        out[metric] = (int(value), "count") if field == "calls" else (float(value), "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
