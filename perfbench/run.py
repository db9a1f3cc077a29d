"""The slomod benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload pi_exact --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Each pass runs the seed's whole operation
list in a fresh interpreter (``worker.py``); passes repeat while another
one fits in ``--seconds``.  Set-up time is measured separately: a fresh
interpreter imports ``slomod`` and runs ``slomod cf 10/7``, several times.

With ``--trace 0`` the result holds the end-to-end metrics, built from each
operation's median latency over the passes; operation times are calibrated
to a fixed machine speed (``calib.py``).  With ``--trace 1`` it holds the per-layer
metrics of one traced pass and ``trace.overhead``, the traced pass's wall
time over that of an untraced pass run just before it.  The last line of
stdout is the JSON result; the lines before it print every metric with its
unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 11
# every operation list has at least 40 entries, so at least 10 operations
# lie above their 75th percentile
TAIL_PERCENTILE = 75
HARD_LIMIT_S = 150.0  # the whole run, set-up included, ends before this
WORKER_MARGIN_S = 8.0  # interpreter start, imports and the report of a worker

UNITS = {
    "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ok_frac": "share",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env, deadline):
    """Median wall time of a fresh ``slomod cf 10/7``, and whether every run
    printed the right expansion.

    Not calibrated: process start and imports are system calls and page
    faults, which the arithmetic loop of ``calib`` does not track (scaling by
    it made the spread of this metric worse, not better).
    """
    times, ok = [], True
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "slomod.cli", "cf", "10/7"],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        times.append(time.perf_counter() - t0)
        ok &= proc.returncode == 0 and "cf = [1;2,3]" in proc.stdout and "1/1 3/2 10/7" in proc.stdout
    return statistics.median(times), ok


def run_worker(workload, seed, trace, env, deadline):
    """One pass in a fresh interpreter; None when it overran the run."""
    # the worker stops running operations in time to report before the limit
    budget = deadline - time.monotonic() - WORKER_MARGIN_S
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--budget", f"{budget:.3f}"]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(lat):
    return statistics.quantiles(lat, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "slomod", "__init__.py")):
        sys.exit(f"no slomod package under {SRC}: run from the root of a checkout")
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    env = _env()

    passes, overran = [], 0
    if not args.trace:
        setup_s, setup_ok = measure_setup(env, deadline)
    t_measure = time.monotonic()
    while True:
        # traced runs: pass 0 untraced, pass 1 traced
        trace = len(passes) if args.trace else 0
        t0 = time.monotonic()
        res = run_worker(args.workload, args.seed, trace, env, deadline)
        if res is None:
            overran += 1
            break
        passes.append(res)
        took = time.monotonic() - t0
        if (len(passes) == 2) if args.trace else (time.monotonic() - t_measure + took > args.seconds):
            break

    n_ops = passes[0]["attempted"] if passes else 0
    attempted = sum(p["attempted"] for p in passes) + overran * max(n_ops, 1)
    failed = sum(p["failed"] for p in passes) + overran * max(n_ops, 1)
    wrong = sum(p["wrong"] for p in passes)
    bad = sum(p["bad"] for p in passes) + overran * max(n_ops, 1)
    correct = wrong == 0 and (args.trace or setup_ok)
    lines = [f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {n_ops} operations"
             + (f", {overran} pass stopped at the {HARD_LIMIT_S:.0f} s run limit" if overran else "")]
    for p in passes:
        for prob in p["problems"]:
            lines.append(f"  problem: {prob}")

    if args.trace:
        if len(passes) < 2:
            raise SystemExit("traced pass did not finish within the run limit")
        layers = dict(passes[1]["layers"])
        layers["trace.overhead"] = passes[1]["wall_s"] / passes[0]["wall_s"]
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    else:
        if not passes:
            raise SystemExit("no pass finished within the run limit")
        # every pass runs the same list in the same order: take each
        # operation's median over the passes, then aggregate over operations
        per_op = [statistics.median(ms) for ms in zip(*(p["lat_ms"] for p in passes))]
        values = {
            "wall_s": sum(per_op) / 1e3,
            "op_p50_ms": statistics.median(per_op),
            "op_tail_ms": _tail(per_op),
            "ok_frac": 1.0 - failed / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        lines.append(f"  op latency samples: {n_ops} operations, each the median of {len(passes)} passes;"
                     f" op_tail_ms is p{TAIL_PERCENTILE}")
        lines.append(f"  fail_frac {failed / attempted:.4f}  wrong_frac {wrong / attempted:.4f}")
        lines.append("  uncalibrated wall_s per pass: " + " ".join(f"{p['raw_wall_s']:.3f}" for p in passes))
    for k, m in metrics.items():
        lines.append(f"  {k} = {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": bad, "metrics": metrics}))
    return 0


def _layer_unit(name):
    if name == "trace.overhead":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
