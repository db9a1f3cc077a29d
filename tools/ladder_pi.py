"""Time the pi-side Hermite form on square inputs of growing size.

    python3 tools/ladder_pi.py 4 5 6 7 8

For each size on the command line and each ring (Z5 and GF(2)), builds
ROADMAP item 13's square input (``helpers.square_draw``: ``Random(5)``,
entries of degree <= 1 and pi-exponent <= 1, slope 1/2) and times one
``hnf_pi`` at prec 8, then its report (T, the pivot rows and P), each with
``runner.outcome`` under the worker's 30 s deadline.  Prints one JSON line:
per ring and size, the seconds of ``hnf_pi`` and a digest of the report, or
the kind (``late``) of a call that fails, so two commits can be compared rung
by rung.  A rung's time grows with the size faster than polynomially.
"""

from __future__ import annotations

import argparse
import json
import sys

import runner  # puts src/, tests/ and perfbench/ on sys.path
import ops
from helpers import F2, Z5, square_draw
from slomod.contfrac import Slope
from slomod.localized import hnf_pi

PREC = 8
SLOPE = Slope(1, 2)
RINGS = {"Z5": Z5, "GF2": F2}


def rung(cfg, size):
    """(seconds, digest or kind) of ``hnf_pi`` on the square input of one
    size; the report, whose P is built on first read, has a deadline too."""
    M = square_draw(cfg, SLOPE, size)
    kind, ech, seconds = runner.outcome(lambda: hnf_pi(M, PREC))
    if kind == "ok":
        kind, report, _ = runner.outcome(lambda: f"T = {ech.T!r}\nrows = {ech.pivot_rows}\nP = {ech.P!r}")
    return seconds, ops.digest(report) if kind == "ok" else kind


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sizes", nargs="+", type=runner.count, help="matrix sizes to run, in order")
    args = ap.parse_args(argv)
    out = {"prec": PREC, "slope": str(SLOPE)}
    with runner.alarm():
        for name, cfg in RINGS.items():
            out[name] = {}
            for size in args.sizes:
                seconds, digest = rung(cfg, size)
                out[name][str(size)] = {"seconds": round(seconds, 4), "digest": digest}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
