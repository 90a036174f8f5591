"""Benchmark entry point for bilap.

    python3 bench/run.py --workload spectral-scan --seed 1 --seconds 15 --trace 0

Runs one workload in a child process of its own (bench/harness.py) against
the sources under src/, after capping BLAS and OpenMP threads at the number
of usable cores.  The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
for --trace 0 and the per-layer ones for --trace 1.  Exits non-zero, with no
result, when the sources are missing or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectral-scan", "cli-solve", "sigma-sweep")
IMPORT_PROBES = 4  # bare-import processes; with the workload's own import, 5 samples
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = cores
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(extra: list, env: dict, timeout: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "harness.py"), "--t0", repr(t0), *extra],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "bilap" / "__init__.py").is_file():
        print(f"bench: no bilap package under {ROOT / 'src'}", file=sys.stderr)
        return 1

    env = child_env()
    started = time.monotonic()
    try:
        imports = [] if args.trace else [spawn(["--import-only"], env, 60.0)["import_s"]
                                         for _ in range(IMPORT_PROBES)]
        rec = spawn(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", repr(args.seconds), "--trace", str(args.trace)],
                    env, CHILD_TIMEOUT_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = rec["per_layer"]
        print(f"spans written to {rec['spans_file']}; tracing overhead "
              f"{metrics['trace.overhead_ref'][0]:.1f} ref per round")
    else:
        imports.append(rec["import_s"])
        metrics = dict(rec["end_to_end"])
        metrics["setup_s"] = (statistics.median(imports) + rec["setup_work_s"], "s")
    names = {m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != names:
        print(f"bench: metrics {sorted(set(metrics) ^ names)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    for label, seconds in rec["op_seconds"]:
        print(f"op {seconds:.4f} s  {label}")
    for failure in rec["failures"]:
        print(f"failed: {failure}")
    walls = ", ".join(f"{w:.3f}{' traced' if t else ''}" for w, t in rec["round_walls"])
    print(f"{args.workload} seed={args.seed}: {rec['reference']} reference {rec['reference_s'] * 1e3:.3f} ms; "
          f"round walls {walls} s; "
          f"{rec['attempted']} operations, {rec['failed']} failed")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
