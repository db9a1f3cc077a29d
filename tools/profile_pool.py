"""Replay a benchmark workload's pool inputs under cProfile.

    python3 tools/profile_pool.py --workload fq_ramified [--limit N] [--sort cumulative]
    python3 tools/profile_pool.py --workload pi_exact --within localized._weierstrass_monic
    python3 tools/profile_pool.py --workload pi_exact --within coeffs.CoeffElem.__mul__
    python3 tools/profile_pool.py --workload pi_exact --within localized.Echelon.P
    python3 tools/profile_pool.py --workload pi_exact --within localized._PiSide.clear

Each pool input of the workload (``perfbench/gen.py``) is prepared and run
once through ``check_reference.run``, with the profiler on for both steps;
``--limit N`` (N >= 1) replays the first N inputs only.  Prints the replay's
wall time, the outcome counts, and the ``TOP`` functions with the largest
self time (calls, self and cumulative seconds); ``--sort cumulative`` ranks
them by cumulative time instead, which shows the callers a cost sits under.
``--within MODULE.FUNC`` profiles only inside calls of that ``slomod``
function: it is wrapped in its module and in every loaded module that
imported it by name, and the count of its outermost calls is printed.
``--within MODULE.CLASS.METHOD`` does the same for a method, wrapped in its
class (a static or class method stays one, e.g.
``localized._PiSide.clear``), and ``--within MODULE.CLASS.PROP`` for a
property's getter (e.g. ``localized.Echelon.P``); every wrapped original is
put back after the replay.
Exits 1 if an input missed its deadline or raised anything but a typed
``AlgebraError``, or if the ``--within`` target was never called.  The
modules under ``perfbench/`` are imported, never written.  cProfile slows
pure-Python code down by about 2x, so the times are for comparing replays,
not for quoting as benchmark numbers.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import importlib
import inspect
import pstats
import signal
import sys
import time

import check_reference  # puts src/ and perfbench/ on sys.path
import gen
import worker

TOP = 30


def replay(pool, profiler):
    """Run every input under ``profiler`` (None: the profiler is switched by
    a ``within`` wrapper); outcome kind counts."""
    kinds = {}
    for op in pool:
        if profiler is not None:
            profiler.enable()
        try:
            kind, _ = check_reference.run(op)
        finally:
            if profiler is not None:
                profiler.disable()
        kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


def profile_within(target: str, profiler):
    """Wrap ``slomod.<target>``, a module function or a method or property
    of a class, so that ``profiler`` runs only inside its outermost calls; a
    function is rebound in every loaded module that holds it by name, a
    method in its class (a static or class method re-wrapped as one), and
    a property is replaced in its class by one whose getter is wrapped.
    Returns a one-item list that counts those calls and a function that
    puts every original back."""
    mod_name, _, path = target.partition(".")
    owner = importlib.import_module(f"slomod.{mod_name}")
    *classes, func_name = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    fn = getattr(owner, func_name)
    raw = inspect.getattr_static(owner, func_name) if classes else None
    if isinstance(raw, property) and raw.fget is not None:
        fn = raw.fget
    elif isinstance(raw, (staticmethod, classmethod)):
        fn = raw.__func__
    elif not inspect.isfunction(fn):
        raise AttributeError(f"{target} is not a function, a method or a property")
    calls, depth = [0], [0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        depth[0] += 1
        if depth[0] == 1:
            calls[0] += 1
            profiler.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
            if depth[0] == 0:
                profiler.disable()

    if classes:
        holders = [(owner, raw)]
        if isinstance(raw, property):
            setattr(owner, func_name, raw.getter(wrapper))
        elif isinstance(raw, (staticmethod, classmethod)):
            setattr(owner, func_name, type(raw)(wrapper))
        else:
            setattr(owner, func_name, wrapper)
    else:
        holders = [(mod, fn) for mod in list(sys.modules.values()) if getattr(mod, func_name, None) is fn]
        for mod, _ in holders:
            setattr(mod, func_name, wrapper)

    def restore():
        for holder, original in holders:
            setattr(holder, func_name, original)

    return calls, restore


def _count(text) -> int:
    """An argparse type: an int of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is below 1")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--limit", type=_count, default=None, help="replay only the first N pool inputs")
    ap.add_argument("--sort", choices=["tottime", "cumulative"], default="tottime",
                    help="rank the functions by self time (default) or by cumulative time")
    ap.add_argument("--within", metavar="MODULE.FUNC", default=None,
                    help="profile only inside calls of this slomod function, method or property"
                         " (MODULE.CLASS.METHOD or MODULE.CLASS.PROP), e.g. localized._weierstrass_monic,"
                         " coeffs.CoeffElem.__mul__ or localized.Echelon.P")
    args = ap.parse_args(argv)

    pool = gen.pool(args.workload)[: args.limit]
    signal.signal(signal.SIGALRM, worker._on_alarm)
    profiler = cProfile.Profile()
    calls, restore = None, lambda: None
    if args.within:
        try:
            calls, restore = profile_within(args.within, profiler)
        except (ImportError, AttributeError) as e:
            ap.error(f"--within {args.within}: {e}")
    t0 = time.perf_counter()
    try:
        kinds = replay(pool, None if args.within else profiler)
    finally:
        restore()
    wall = time.perf_counter() - t0
    outcomes = ", ".join(f"{k} {n}" for k, n in sorted(kinds.items()))
    print(f"{args.workload}: {len(pool)} inputs in {wall:.2f} s under cProfile ({outcomes})")
    if calls is not None:
        print(f"profiled within {args.within}: {calls[0]} calls")
    if calls == [0]:
        print(f"{args.workload}: no input called {args.within}", file=sys.stderr)
        return 1
    pstats.Stats(profiler, stream=sys.stdout).sort_stats(args.sort).print_stats(TOP)
    return 0 if set(kinds) <= {"ok", "error"} else 1


if __name__ == "__main__":
    sys.exit(main())
