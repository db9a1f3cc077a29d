"""Machine-speed calibration for timings on a shared, noisy host.

On the 2-core VM this benchmark was built on, the same pure-Python work ran
anywhere from 1.8 to 5.8 ms within one minute, drifting over seconds: a raw
timing there says as much about the neighbours as about ``slomod``.  So the
benchmark times a fixed loop of the kind of work ``slomod`` does (``Fraction``
arithmetic, small dict stores) right before and right after every timed
operation, and reports each operation's time scaled by ``REF_S`` over the
machine's loop time around it (``scales``): seconds on a machine that runs
the loop in ``REF_S``.  Nothing under ``src`` runs in the loop, so a change
to ``slomod`` cannot move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# about the median of ``sample()`` on the machine the benchmark was defined on
# (2-core x86-64 VM, CPython 3.11.7); a fixed scale, not a tuned parameter
REF_S = 0.0025


def _loop():
    s = Fraction(0)
    d = {}
    for i in range(1, 600):
        s += Fraction(1, i)
        d[i & 63] = s.numerator & 255
    return s


def sample() -> float:
    """Seconds for the loop: the fastest of three runs, to drop interrupts."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


def scales(samples) -> list[float]:
    """Factors turning the times measured between consecutive samples into
    REF_S units.

    Gap i lies between samples[i] and samples[i + 1].  Its machine speed is
    the median of the three samples before the gap and the three after it,
    which damps the noise of single samples and still follows drift over a
    few operations.
    """
    return [
        REF_S / statistics.median(samples[max(0, i - 2): i + 4])
        for i in range(len(samples) - 1)
    ]
