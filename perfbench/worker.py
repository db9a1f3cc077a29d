"""One pass over a workload's operation list, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload pi_exact --seed 1 --trace 0

Prints one JSON object: per-operation latencies, the pass's wall time (both
calibrated to a fixed machine speed, see ``calib.py``) and peak RSS, outcome counts against ``reference.json`` and, with ``--trace 1``,
the per-layer metrics.  ``run.py`` starts one worker per pass, because
passes run back to back in one process drift (caches and the allocator
warm up).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import signal
import sys
import time

import calib
import gen
import ops
from slomod.errors import AlgebraError

HERE = os.path.dirname(os.path.abspath(__file__))

# well above the slowest reference operation (1.4 s untraced on a 2-core x86
# VM, ``slowest_s`` in reference.json); an operation that misses it is
# stopped and counted as failed
DEADLINE_S = 30.0


class DeadlineExceeded(BaseException):
    """Raised from the interval timer; a BaseException so that no handler in
    the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


_INT = re.compile(r"\d+")


def report_bits(report: str) -> int:
    """Largest bit length of an integer printed in a report: the size of the
    biggest numerator or denominator of any digit in the result."""
    return max((int(m).bit_length() for m in _INT.findall(report)), default=0)


def run_op(call, deadline_s):
    """(kind, detail, seconds) for one prepared operation.

    kind is "ok" (detail = report), "error" (a typed AlgebraError, detail =
    class name), "late" (missed the deadline) or "crash" (any other
    exception, detail = its repr).
    """
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    t0 = time.perf_counter()
    try:
        kind, detail = "ok", call()
    except AlgebraError as e:
        kind, detail = "error", type(e).__name__
    except DeadlineExceeded:
        kind, detail = "late", ""
    except Exception as e:  # the benchmark must report, not die, on a crash
        kind, detail = "crash", repr(e)[:200]
    finally:
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return kind, detail, dt


def _raising(exc):
    def replay():
        raise exc

    return replay


def _prepare(op, deadline_s):
    """``ops.prepare`` under the deadline.  Building a library operation's
    inputs runs the program too; if that fails, the returned callable
    raises the same exception, so the operation reports it."""
    if deadline_s <= 0:
        return _raising(DeadlineExceeded())
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        return ops.prepare(op)
    except (Exception, DeadlineExceeded) as e:
        return _raising(e)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def classify(kind, detail, ref):
    """(failed, wrong, regressed) for an outcome against its reference entry.

    failed: raised, missed the deadline or differs from the reference.
    wrong: differs from the reference digest, or raised an exception that is
    not a typed AlgebraError.
    regressed: succeeded at the reference but not now.
    """
    if kind == "ok":
        if ref is None:
            return True, True, False
        if ref.startswith("ok:"):
            bad = ref != "ok:" + ops.digest(detail)
            return bad, bad, False
        return False, False, False  # failed at the reference: no digest to check
    wrong = kind == "crash" or ref is None
    regressed = ref is not None and ref.startswith("ok:")
    return True, wrong, regressed


def run_pass(op_list, reference, deadline_s=DEADLINE_S, tracer=None, budget_s=float("inf")):
    """Run every operation once; return latencies and outcome counts.

    The pass ends within ``budget_s``: once it is spent, each remaining
    operation counts as missing its deadline, with the deadline as latency.

    ``lat_ms`` and ``wall_s`` are calibrated (see ``calib``); ``raw_wall_s``
    is the plain sum of the operations' wall times.

    ``failed`` counts operations that raised, missed the deadline or differ
    from the reference; ``bad`` counts those that differ from the reference,
    missed the deadline or crashed: none should at the reference commit.
    """
    end = time.perf_counter() + budget_s

    def limit():
        return min(deadline_s, end - time.perf_counter())

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    calls = [_prepare(op, limit()) for op in op_list]  # untimed, untraced
    if tracer is not None:
        tracer.install()
    raw, samples, failed, wrong, bad, max_bits = [], [calib.sample()], 0, 0, 0, 0
    problems = []
    try:
        for op, call in zip(op_list, calls):
            seconds = limit()
            if seconds > 0:
                kind, detail, dt = run_op(call, seconds)
                samples.append(calib.sample())
            else:
                kind, detail, dt = "late", "not run: the run's time is spent", deadline_s
                samples.append(samples[-1])
            raw.append(dt * 1e3)
            if kind == "ok":
                max_bits = max(max_bits, report_bits(detail))
            f, w, r = classify(kind, detail, reference.get(op["id"]))
            failed += f
            wrong += w
            if w or r or kind == "late":
                bad += 1
                problems.append({"id": op["id"], "kind": kind, "detail": detail[:200] if kind != "ok" else "digest"})
    finally:
        if tracer is not None:
            tracer.uninstall()
        signal.signal(signal.SIGALRM, previous)
    lat = [ms * k for ms, k in zip(raw, calib.scales(samples))]
    return {
        "wall_s": sum(lat) / 1e3,
        "raw_wall_s": sum(raw) / 1e3,
        "lat_ms": lat,
        "attempted": len(op_list),
        "failed": failed,
        "wrong": wrong,
        "bad": bad,
        "max_bits": max_bits,
        "problems": problems,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, default=float("inf"), help="seconds the pass may take")
    args = ap.parse_args(argv)
    reference = load_reference()["outcomes"][args.workload]
    op_list = gen.operations(args.workload, args.seed)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    out = run_pass(op_list, reference, tracer=tracer, budget_s=args.budget)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = spans.per_layer(tracer, out["max_bits"])
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
