"""Time the pi-side Hermite form on square inputs of growing size.

    python3 tools/ladder_pi.py 4 5 6 7 8

For each size on the command line and each ring (Z5 and GF(2)), builds
ROADMAP item 13's square input (``helpers.square_draw``: ``Random(5)``,
entries of degree <= 1 and pi-exponent <= 1, slope 1/2) and times one
``hnf_pi`` at prec 8.  Prints one JSON line: per ring and size, the seconds
of the call and a digest of its output (T, the pivot rows and P), so two
commits can be compared rung by rung.  A rung's time grows with the size
faster than polynomially while the clearing's digits grow, so start small.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from helpers import F2, Z5, square_draw  # noqa: E402
from slomod.contfrac import Slope  # noqa: E402
from slomod.localized import hnf_pi  # noqa: E402

PREC = 8
SLOPE = Slope(1, 2)
RINGS = {"Z5": Z5, "GF2": F2}


def rung(cfg, size):
    """(seconds, digest) of ``hnf_pi`` on the square input of one size."""
    M = square_draw(cfg, SLOPE, size)
    t0 = time.perf_counter()
    ech = hnf_pi(M, PREC)
    seconds = time.perf_counter() - t0
    report = f"T = {ech.T!r}\nrows = {ech.pivot_rows}\nP = {ech.P!r}"
    return seconds, hashlib.sha256(report.encode()).hexdigest()[:20]


def _size(text) -> int:
    """An argparse type: an int of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is below 1")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sizes", nargs="+", type=_size, help="matrix sizes to run, in order")
    args = ap.parse_args(argv)
    out = {"prec": PREC, "slope": str(SLOPE)}
    for name, cfg in RINGS.items():
        out[name] = {}
        for size in args.sizes:
            seconds, digest = rung(cfg, size)
            out[name][str(size)] = {"seconds": round(seconds, 4), "digest": digest}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
