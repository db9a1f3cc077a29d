"""A seeded robustness survey of the library on inputs outside the benchmark pools.

    python3 tools/survey.py [--draws N]

Each cell draws its inputs from one ``random.Random(11)`` and runs one
library call per draw under a 15 s interval-timer deadline, as
``perfbench/worker.py`` does.  Prints one JSON line: per cell, the count of
each outcome (``ok``, the class of each ``AlgebraError``, ``late`` past the
deadline, ``crash:<class>`` for any other exception) and a sha256 over the
outcome of every draw, a report's full text included, so that two commits
can be compared cell by cell.  ``--draws`` runs the first N draws of each
cell (default 20).

The cells:

- ``max`` on exact 2x3 and 3x4 input and ``sum`` on exact 2x2 and 3x3
  input (``random_exact_poly``, ``max_deg=1``, ``max_pi=1``, prec 8; Z5, Z3
  and GF(2); slopes 0 and 1/2), reported as the CLI commands of the same
  names report; an n x (n+1) draw has a relation among its columns for
  ``max_module``'s reduction to work on, where a square draw mostly has
  none;
- ``approx_max_sum`` on a 2x2 upper-triangular Z5 base A with unit
  diagonal and B = pi^-c A x with one or two columns (c = 1 and 2,
  p_u = p_pi = 6, slope 0): the generators of B have coordinates of
  valuation -c over A, which the vector addition consolidates;
- ``qis_closure_member`` of each column of ``max_module(M)``'s generators
  over the slope ring, M a 2x2 draw as in ``max``;
- ``psi_inverse`` of the pair of a 3x3 input of rank 1 or 2, the product of
  a 3 x r and an r x 3 draw.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from helpers import F2, Z3, Z5, random_exact_poly, random_unit  # noqa: E402
from slomod.cli import _fmt_ml  # noqa: E402
from slomod.contfrac import Slope  # noqa: E402
from slomod.errors import AlgebraError  # noqa: E402
from slomod.localized import SMat  # noqa: E402
from slomod.maxmod import max_module, max_sum_ml, qis_closure_member  # noqa: E402
from slomod.pairrep import psi, psi_inverse  # noqa: E402
from slomod.precise_sum import GapCertificate, approx_max_sum  # noqa: E402
from slomod.series import SnuSeries  # noqa: E402

PREC = 8
DEADLINE_S = 15.0
DRAWS = 20
RINGS = {"Z5": Z5, "Z3": Z3, "GF2": F2}
SLOPES = (Slope(0, 1), Slope(1, 2))


class DeadlineExceeded(BaseException):
    """Raised from the interval timer; a BaseException so that no handler in
    the library can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _matrix(rng, cfg, slope, rows, cols):
    """A rows x cols draw of ``random_exact_poly`` entries, row by row."""
    return SMat(cfg, slope, [[random_exact_poly(rng, cfg, slope, max_deg=1, max_pi=1)
                              for _ in range(cols)] for _ in range(rows)])


def _max(rng, cfg, slope, n):
    M = _matrix(rng, cfg, slope, n, n + 1)
    return lambda: _fmt_ml(max_module(M, PREC))


def _sum(rng, cfg, slope, n):
    A, B = _matrix(rng, cfg, slope, n, n), _matrix(rng, cfg, slope, n, n)
    return lambda: _fmt_ml(max_sum_ml(max_module(A, PREC), max_module(B, PREC), PREC))


def _approx(rng, c, e):
    slope = Slope(0, 1)
    A = SMat(Z5, slope, [
        [random_unit(rng, Z5, slope, max_deg=1), random_exact_poly(rng, Z5, slope, max_deg=1, max_pi=1)],
        [SnuSeries.zero(Z5, slope), random_unit(rng, Z5, slope, max_deg=1)],
    ])
    x = _matrix(rng, Z5, slope, 2, e)
    B = A.matmul(x).map(lambda s: s.scale_pi(-c))

    def call():
        ml = approx_max_sum(A, B, GapCertificate(c, 6, 6), PREC)
        return f"slope = {ml.slope}\n" + _fmt_ml(ml)

    return call


def _qis(rng, cfg, slope):
    M = _matrix(rng, cfg, slope, 2, 2)

    def call():
        gens = max_module(M, PREC).expand_generators()
        return repr([qis_closure_member(gens.col(j), M, PREC, PREC) for j in range(gens.cols)])

    return call


def _psi_inverse(rng, cfg, slope, rank):
    M = _matrix(rng, cfg, slope, 3, rank).matmul(_matrix(rng, cfg, slope, rank, 3))

    def call():
        gens, ml = psi_inverse(psi(M, PREC), PREC)
        return f"gens = {gens!r}\nL = {ml.L}"

    return call


def cells():
    """(name, draw) of every cell; ``draw(rng)`` builds one input, untimed,
    and returns the call to time."""
    out = []
    for op, build, extra in (("max", _max, 1), ("sum", _sum, 0)):
        for ring, cfg in RINGS.items():
            for slope in SLOPES:
                for n in (2, 3):
                    out.append((f"{op} {ring} {slope} {n}x{n + extra}",
                                lambda rng, b=build, cfg=cfg, s=slope, n=n: b(rng, cfg, s, n)))
    for c in (1, 2):
        for e in (1, 2):
            out.append((f"approx_max_sum Z5 c={c} cols={e}", lambda rng, c=c, e=e: _approx(rng, c, e)))
    for ring, cfg in RINGS.items():
        for slope in SLOPES:
            out.append((f"qis_closure_member {ring} {slope} 2x2",
                        lambda rng, cfg=cfg, s=slope: _qis(rng, cfg, s)))
    for ring, cfg in RINGS.items():
        for slope in SLOPES:
            for rank in (1, 2):
                out.append((f"psi_inverse {ring} {slope} rank {rank}",
                            lambda rng, cfg=cfg, s=slope, r=rank: _psi_inverse(rng, cfg, s, r)))
    return out


def outcome(call) -> tuple[str, str]:
    """(kind, report) of one call under the deadline: kind is ``ok``, the
    AlgebraError class, ``late`` or ``crash:<class>``."""
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        return "ok", call()
    except AlgebraError as e:
        return type(e).__name__, ""
    except DeadlineExceeded:
        return "late", ""
    except Exception as e:  # the survey must report, not die, on a crash
        return f"crash:{type(e).__name__}", repr(e)[:200]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def survey(draws) -> dict:
    out = {}
    for name, draw in cells():
        rng = random.Random(11)
        counts, h = {}, hashlib.sha256()
        for _ in range(draws):
            kind, report = outcome(draw(rng))
            counts[kind] = counts.get(kind, 0) + 1
            h.update(f"{kind}\n{report}\n".encode())
        out[name] = {**dict(sorted(counts.items())), "sha256": h.hexdigest()}
    return out


def _draws(text) -> int:
    """An argparse type: an int of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is below 1")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--draws", type=_draws, default=DRAWS, help="draws per cell (default 20)")
    args = ap.parse_args(argv)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        out = survey(args.draws)
    finally:
        signal.signal(signal.SIGALRM, previous)
    print(json.dumps({"prec": PREC, "draws": args.draws, "cells": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
