"""The tools' one timed call: ``perfbench/worker.py``'s, imported, never written.

``import runner`` puts ``src/``, ``tests/`` and ``perfbench/`` on ``sys.path``;
``outcome`` runs one call through ``worker.run_op`` inside ``alarm()``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "tests", "perfbench")]

import worker  # noqa: E402


@contextlib.contextmanager
def alarm():
    """SIGALRM raises the worker's ``DeadlineExceeded`` inside the block;
    the previous handler is back after it."""
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, previous)


def outcome(call, deadline_s=worker.DEADLINE_S) -> tuple[str, str, float]:
    """(kind, report, seconds) of one call under the deadline: kind is ``ok``
    (report: the call's return), the class of a typed AlgebraError, ``late``
    or ``crash:<class named by the repr>`` (report: the repr), else ''."""
    kind, detail, seconds = worker.run_op(call, deadline_s)
    if kind == "error":
        return detail, "", seconds
    if kind == "crash":
        return f"crash:{detail.partition('(')[0]}", detail, seconds
    return kind, detail, seconds


def count(text) -> int:
    """An argparse type: an int of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is below 1")
    return n
