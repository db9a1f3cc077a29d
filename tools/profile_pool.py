"""Replay a benchmark workload's pool inputs under cProfile.

    python3 tools/profile_pool.py --workload fq_ramified [--limit N] [--sort cumulative]

Each pool input of the workload (``perfbench/gen.py``) is prepared and run
once through ``check_reference.run``, with the profiler on for both steps;
``--limit N`` replays the first N inputs only.  Prints the replay's wall
time, the outcome counts, and the ``TOP`` functions with the largest self
time (calls, self and cumulative seconds); ``--sort cumulative`` ranks them
by cumulative time instead, which shows the callers a cost sits under.
Exits 1 if an input missed its deadline or raised anything but a typed
``AlgebraError``.  The modules under ``perfbench/`` are imported, never
written.  cProfile slows pure-Python code down by about 2x, so the times are
for comparing replays, not for quoting as benchmark numbers.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import signal
import sys
import time

import check_reference  # puts src/ and perfbench/ on sys.path
import gen
import worker

TOP = 30


def replay(pool, profiler):
    """Run every input under ``profiler``; outcome kind counts."""
    kinds = {}
    for op in pool:
        profiler.enable()
        try:
            kind, _ = check_reference.run(op)
        finally:
            profiler.disable()
        kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--limit", type=int, default=None, help="replay only the first N pool inputs")
    ap.add_argument("--sort", choices=["tottime", "cumulative"], default="tottime",
                    help="rank the functions by self time (default) or by cumulative time")
    args = ap.parse_args(argv)

    pool = gen.pool(args.workload)[: args.limit]
    signal.signal(signal.SIGALRM, worker._on_alarm)
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    kinds = replay(pool, profiler)
    wall = time.perf_counter() - t0
    outcomes = ", ".join(f"{k} {n}" for k, n in sorted(kinds.items()))
    print(f"{args.workload}: {len(pool)} inputs in {wall:.2f} s under cProfile ({outcomes})")
    pstats.Stats(profiler, stream=sys.stdout).sort_stats(args.sort).print_stats(TOP)
    return 0 if set(kinds) <= {"ok", "error"} else 1


if __name__ == "__main__":
    sys.exit(main())
