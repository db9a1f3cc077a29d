"""Replay every benchmark pool input and compare it with ``perfbench/reference.json``.

    python3 tools/check_reference.py

Each pool input of each workload (``perfbench/gen.py``) runs once through
``perfbench/ops.py`` under the per-operation deadline of
``perfbench/worker.py``; its outcome (``ok:<digest>`` or
``error:<AlgebraError class>``) must equal the recorded one.  The modules
under ``perfbench/`` are imported, never written.  Prints one line per
mismatch and a summary per workload; exits 1 on any mismatch.
"""

from __future__ import annotations

import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
import ops  # noqa: E402
import worker  # noqa: E402


def run(op):
    """(kind, detail) of one pool input, prepared and run under the deadline
    as a benchmark pass does (kinds as in ``worker.run_op``)."""
    kind, detail, _ = worker.run_op(worker._prepare(op, worker.DEADLINE_S), worker.DEADLINE_S)
    return kind, detail


def outcome(op) -> str:
    kind, detail = run(op)
    if kind == "ok":
        return "ok:" + ops.digest(detail)
    if kind == "error":
        return "error:" + detail
    return f"{kind}:{detail}"


def main() -> int:
    reference = worker.load_reference()["outcomes"]
    signal.signal(signal.SIGALRM, worker._on_alarm)
    total = bad = 0
    for workload in gen.WORKLOADS:
        t0 = time.perf_counter()
        pool = gen.pool(workload)
        mismatches = 0
        for op in pool:
            got, want = outcome(op), reference[workload].get(op["id"])
            if got != want:
                mismatches += 1
                print(f"MISMATCH {workload} {op['id']}: got {got}, reference {want}")
        print(f"{workload}: {len(pool)} inputs, {mismatches} mismatches, {time.perf_counter() - t0:.1f} s")
        total += len(pool)
        bad += mismatches
    print(f"total: {total} inputs, {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
