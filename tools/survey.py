"""A seeded robustness survey of the library on inputs outside the benchmark pools.

    python3 tools/survey.py [--draws N]

Each cell draws its inputs from one ``random.Random(11)`` and runs one
library call per draw with ``runner.outcome``, the benchmark worker's timed
call, under a 15 s deadline.  Prints one JSON line: per cell, the count of
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
  a 3 x r and an r x 3 draw;
- ``hnf_u`` and ``hnf_pi`` on exact 3x3 input (``max_deg=2``, ``max_pi=2``;
  Z5 and GF(2); slopes 0, 1/2 and 2/3), reported as the CLI's ``hnf``
  reports: T, the pivot rows and the pivots, without P.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

import runner  # puts src/, tests/ and perfbench/ on sys.path
from helpers import F2, Z3, Z5, random_exact_poly, random_matrix, random_unit
from slomod.cli import _fmt_ml
from slomod.contfrac import Slope
from slomod.localized import SMat, hnf_pi, hnf_u
from slomod.maxmod import max_module, max_sum_ml, qis_closure_member
from slomod.pairrep import psi, psi_inverse
from slomod.precise_sum import GapCertificate, approx_max_sum
from slomod.series import SnuSeries

PREC = 8
DEADLINE_S = 15.0
DRAWS = 20
RINGS = {"Z5": Z5, "Z3": Z3, "GF2": F2}
SLOPES = (Slope(0, 1), Slope(1, 2))


def _max(rng, cfg, slope, n):
    M = random_matrix(rng, cfg, slope, n, n + 1, 1, 1)
    return lambda: _fmt_ml(max_module(M, PREC))


def _sum(rng, cfg, slope, n):
    A, B = (random_matrix(rng, cfg, slope, n, n, 1, 1) for _ in range(2))
    return lambda: _fmt_ml(max_sum_ml(max_module(A, PREC), max_module(B, PREC), PREC))


def _approx(rng, c, e):
    slope = Slope(0, 1)
    A = SMat(Z5, slope, [
        [random_unit(rng, Z5, slope, max_deg=1), random_exact_poly(rng, Z5, slope, max_deg=1, max_pi=1)],
        [SnuSeries.zero(Z5, slope), random_unit(rng, Z5, slope, max_deg=1)],
    ])
    x = random_matrix(rng, Z5, slope, 2, e, 1, 1)
    B = A.matmul(x).map(lambda s: s.scale_pi(-c))

    def call():
        ml = approx_max_sum(A, B, GapCertificate(c, 6, 6), PREC)
        return f"slope = {ml.slope}\n" + _fmt_ml(ml)

    return call


def _qis(rng, cfg, slope):
    M = random_matrix(rng, cfg, slope, 2, 2, 1, 1)

    def call():
        gens = max_module(M, PREC).expand_generators()
        return repr([qis_closure_member(gens.col(j), M, PREC, PREC) for j in range(gens.cols)])

    return call


def _psi_inverse(rng, cfg, slope, rank):
    M = random_matrix(rng, cfg, slope, 3, rank, 1, 1).matmul(random_matrix(rng, cfg, slope, rank, 3, 1, 1))

    def call():
        gens, ml = psi_inverse(psi(M, PREC), PREC)
        return f"gens = {gens!r}\nL = {ml.L}"

    return call


def _hnf(rng, cfg, slope, hnf):
    M = random_matrix(rng, cfg, slope, 3, 3, max_deg=2, max_pi=2)

    def call():
        ech = hnf(M, PREC)
        piv = (f"pivots = [{', '.join(p.render() for p in ech.pivots)}]" if hnf is hnf_pi
               else f"pivots_u = [{', '.join(str(v) for v in ech.pivot_vals)}]")
        return f"T = {ech.T!r}\nrows = {ech.pivot_rows}\n{piv}"

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
    for hnf in (hnf_u, hnf_pi):
        for ring in ("Z5", "GF2"):
            for slope in SLOPES + (Slope(2, 3),):
                out.append((f"{hnf.__name__} {ring} {slope} 3x3",
                            lambda rng, cfg=RINGS[ring], s=slope, f=hnf: _hnf(rng, cfg, s, f)))
    return out


def survey(draws) -> dict:
    out = {}
    for name, draw in cells():
        rng = random.Random(11)
        counts, h = {}, hashlib.sha256()
        for _ in range(draws):
            kind, report, _ = runner.outcome(draw(rng), DEADLINE_S)
            counts[kind] = counts.get(kind, 0) + 1
            h.update(f"{kind}\n{report}\n".encode())
        out[name] = {**dict(sorted(counts.items())), "sha256": h.hexdigest()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--draws", type=runner.count, default=DRAWS, help="draws per cell (default 20)")
    args = ap.parse_args(argv)
    with runner.alarm():
        out = survey(args.draws)
    print(json.dumps({"prec": PREC, "draws": args.draws, "cells": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
