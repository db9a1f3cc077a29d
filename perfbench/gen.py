"""Seeded, byte-deterministic operation lists for the three workloads.

Every workload is a fixed list of *slots*.  A slot fixes the command, the
ring, the size, the slope and the precision, and draws one base input from
its own ``random.Random`` keyed by ``(workload, slot)``.

A slot has ``VARIANTS`` inputs: the base input under the substitution
``u -> lam*u`` followed by scaling every entry by ``mu``, for units
``lam, mu`` of the coefficient ring that keep the size of every digit.  Such
a substitution keeps every valuation, every Weierstrass degree and
exactness, so it keeps which branch each algorithm takes, but it changes
digits (and, where the module changes, the reports).  The benchmark seed
picks one variant per slot and the order in which the slots run.  So every
seed runs the same mix of work, the cost of a run hardly depends on the
seed, and every input any seed can pick has a reference digest in
``reference.json``.

Generation uses only the standard library: ``slomod`` sees nothing but the
session texts (and, for library operations, objects built from them).
"""

from __future__ import annotations

import random

VARIANTS = 4

Z3, Z5, Z7 = ("zp", 3), ("zp", 5), ("zp", 7)
GF2, GF4 = ("fq", 2), ("fq", 4)


def _char(ring):
    kind, n = ring
    return n if kind == "zp" else {2: 2, 4: 2}[n]


# ---------------------------------------------------------------------------
# entries: an entry is {u-exponent: digit}; a Z_p digit is an int, a GF(q)
# digit is a polynomial in t over F_p given as {t-exponent: residue}
# ---------------------------------------------------------------------------


def _unit_int(rng, p):
    return rng.choice([x for x in range(-(p - 1), p) if x % p])


def _digit(rng, ring, k):
    """A digit of pi-valuation exactly k."""
    p = _char(ring)
    if ring[0] == "zp":
        return _unit_int(rng, p) * p**k
    d = {k: rng.randrange(1, p)}
    if rng.random() < 0.5:
        d[k + 1] = rng.randrange(p)
    return {e: c for e, c in d.items() if c}


def _random_entry(rng, ring, deg, max_pi, zero_share):
    if rng.random() < zero_share:
        return {}
    return {
        i: _digit(rng, ring, rng.randint(0, max_pi))
        for i in range(deg + 1)
        if i == 0 or rng.random() < 0.7
    }


def _distinguished(rng, ring, d, deg, max_pi):
    """Weierstrass degree d: a unit digit at u^d, positive valuation below."""
    out = {}
    for i in range(deg + 1):
        if i < d:
            out[i] = _digit(rng, ring, rng.randint(1, max_pi))
        elif i == d:
            out[i] = _digit(rng, ring, 0)
        elif rng.random() < 0.5:
            out[i] = _digit(rng, ring, rng.randint(0, max_pi))
    return out


def _unit_series(rng, ring, deg):
    """A unit at slope 0: unit constant, positive-valuation tail."""
    out = {0: _digit(rng, ring, 0)}
    for i in range(1, deg + 1):
        out[i] = _digit(rng, ring, rng.randint(1, 2))
    return out


# -- the unit substitution ----------------------------------------------------


def _fq_mul(a, b, p):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = (out.get(i + j, 0) + x * y) % p
    return {e: c for e, c in out.items() if c}


def _fq_pow(a, n, p):
    out = {0: 1}
    for _ in range(n):
        out = _fq_mul(out, a, p)
    return out


# units that keep the size of every digit, so a variant costs what its base
# input costs: signs on Z_p, and mu of t-degree <= 2 on GF(q) (where -1 = 1)
_ZP_UNITS = ((1, 1), (-1, 1), (1, -1), (-1, -1))
_FQ_UNITS = tuple(({0: 1}, mu) for mu in ({0: 1}, {0: 1, 1: 1}, {0: 1, 2: 1}, {0: 1, 1: 1, 2: 1}))


def _substitute(entry, ring, v):
    """sum a_i u^i -> mu * sum a_i (lam u)^i for the v-th unit pair."""
    if ring[0] == "zp":
        lam, mu = _ZP_UNITS[v]
        return {i: mu * a * lam**i for i, a in entry.items()}
    p = _char(ring)
    lam, mu = _FQ_UNITS[v]
    return {i: _fq_mul(_fq_mul(a, _fq_pow(lam, i, p), p), mu, p) for i, a in entry.items()}


# -- session text -------------------------------------------------------------


def _fq_text(d):
    parts = []
    for e in sorted(d):
        mono = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
        c = d[e]
        parts.append(str(c) if not mono else (mono if c == 1 else f"{c}*{mono}"))
    return "(" + " + ".join(parts) + ")"


def _entry_text(entry, ring, exact):
    terms = []
    for i in sorted(entry):
        c = str(entry[i]) if ring[0] == "zp" else _fq_text(entry[i])
        terms.append(c if i == 0 else f"{c}*u" + (f"^{i}" if i > 1 else ""))
    body = " + ".join(terms) if terms else "0"
    return body + (" !" if exact else "")


class _Session:
    """Blocks of one session, rendered after the unit substitution."""

    def __init__(self, ring, prec, slope):
        self.ring, self.prec, self.slope = ring, prec, slope
        self.blocks = []

    def matrix(self, name, rows, exact=True, tag=None):
        self.blocks.append(("matrix", name, rows, exact, tag))
        return self

    def series(self, name, entry, exact=True):
        self.blocks.append(("series", name, entry, exact, None))
        return self

    def text(self, v):
        kind, n = self.ring
        lines = [f"ring {kind} {'p' if kind == 'zp' else 'q'}={n} prec={self.prec}", f"slope {self.slope}"]
        for block, name, body, exact, tag in self.blocks:
            if block == "series":
                lines += [f"series {name}", _entry_text(_substitute(body, self.ring, v), self.ring, exact)]
                continue
            lines.append(f"matrix {name} {len(body)} {len(body[0])}" + (f" @{tag}" if tag else ""))
            for row in body:
                lines.append(" ; ".join(_entry_text(_substitute(e, self.ring, v), self.ring, exact) for e in row))
        return "\n".join(lines) + "\n"


def _rand_matrix(rng, ring, rows, cols, deg, max_pi, zero_share=0.15):
    return [[_random_entry(rng, ring, deg, max_pi, zero_share) for _ in range(cols)] for _ in range(rows)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _pi_exact_slots():
    """Exact inputs, pi-side work: Bezout gcds, polynomial division, matrix
    reduction.  No finite-precision digits and little u-side Newton work."""
    rings = (Z3, Z5, Z7)
    slots = []
    for k, (n, slope) in enumerate((
        (2, "0/1"), (2, "1/2"), (2, "0/1"), (2, "1/2"), (3, "0/1"), (3, "1/2"), (3, "0/1"),
        (3, "1/2"), (4, "0/1"), (4, "1/2"), (5, "0/1"),
    )):
        slots.append(("hnf", rings[k % 3], n, slope))
    for k, (shape, slope) in enumerate((
        ((2, 2), "0/1"), ((2, 2), "1/2"), ((2, 3), "0/1"), ((2, 3), "1/2"), ((3, 3), "0/1"), ((3, 4), "1/2"),
    )):
        slots.append(("max", rings[(k + 1) % 3], shape, slope))
    for k, (n, slope) in enumerate(((2, "0/1"), (2, "1/2"), (2, "0/1"), (3, "1/2"))):
        slots.append(("sum", rings[(k + 2) % 3], n, slope))
    for k in range(10):
        slots.append(("gcd", rings[k % 3], 3 + k % 3, ("0/1", "1/2")[k % 2]))
    for k in range(10):
        slots.append(("divmod", rings[k % 3], 1 + k % 3, ("0/1", "1/2")[k % 2]))
    return slots


def _pi_exact_op(slot, rng):
    cmd, ring, size, slope = slot
    s = _Session(ring, 16, slope)
    if cmd == "hnf":
        # linear entries from 4x4 up: coefficient growth makes quadratic ones
        # take seconds per operation there
        deg = 2 if size < 4 else 1
        return s.matrix("A", _rand_matrix(rng, ring, size, size, deg, 2)), ["hnf", "A"]
    if cmd == "max":
        return s.matrix("A", _rand_matrix(rng, ring, *size, 2, 2)), ["max", "A"]
    if cmd == "sum":
        s.matrix("A", _rand_matrix(rng, ring, size, size, 1, 2))
        return s.matrix("B", _rand_matrix(rng, ring, size, size, 1, 2)), ["sum", "A", "B"]
    if cmd == "gcd":
        s.series("f", _random_entry(rng, ring, size, 2, 0.0))
        return s.series("g", _random_entry(rng, ring, size, 2, 0.0)), ["gcd", "f", "g"]
    s.series("y", _random_entry(rng, ring, 5, 2, 0.0))
    return s.series("x", _distinguished(rng, ring, size, size + 1, 2)), ["divmod", "y", "x", "--prec", "10"]


def _u_local_slots():
    """u-side work: hnf_u / smith_u, unit inversion and division in wide
    windows.  Half the inputs carry finite-precision digits (no ``!``)."""
    slots = []
    slopes = ("0/1", "1/2", "2/3")
    k = 0
    for cmd, n, count in (
        ("hnf", 2, 12), ("hnf", 3, 3), ("pair", 2, 10), ("pair", 3, 2),
        ("eq", 2, 5), ("saturate", 2, 5), ("intersect", 2, 3),
    ):
        for _ in range(count):
            slots.append((cmd, (Z5, Z3)[k % 2], n, slopes[k % 3], k % 2 == 0))
            k += 1
    return slots


def _u_local_op(slot, rng):
    cmd, ring, n, slope, exact = slot
    s = _Session(ring, 5, slope)
    if cmd == "hnf":
        return s.matrix("A", _rand_matrix(rng, ring, n, n, 2, 1), exact, tag="u"), ["hnf", "A"]
    if cmd in ("pair", "saturate"):
        cols = n if cmd == "pair" else n - 1
        return s.matrix("A", _rand_matrix(rng, ring, n, cols, 2, 1), exact), [cmd, "A"]
    s.matrix("A", _rand_matrix(rng, ring, n, n, 1, 1), exact)
    return s.matrix("B", _rand_matrix(rng, ring, n, n, 1, 1), exact), [cmd, "A", "B"]


def _fq_ramified_slots():
    """GF(q) digits (RatFunc arithmetic), ramified coefficients, approximate
    sums and the library-only paths (pair_to_ml and its cofactor
    determinant)."""
    slots = []
    for k, (cmd, size) in enumerate((
        ("hnf", 2), ("hnf", 2), ("hnf", 3), ("hnfu", 2), ("hnfu", 2), ("max", (2, 3)),
        ("max", (2, 3)), ("divmod", 2), ("divmod", 1), ("hnf", 2), ("gcd", 3), ("gcd", 4),
        ("hnfu", 2), ("max", (2, 3)), ("divmod", 2), ("gcd", 3),
    )):
        slots.append(("fq", cmd, (GF2, GF4)[k % 2], size, ("0/1", "1/2")[(k // 2) % 2]))
    # a 2x2 pair at slope 1/2 took over 8 s on GF(2) at prec 8 and over 20 s
    # on GF(4) at every prec from 3 to 8, so the pair slots sit at slope 0
    slots.append(("fq", "pair", GF2, 2, "0/1"))
    slots.append(("fq", "pair", GF2, 2, "0/1"))
    for k in range(6):
        slots.append(("approx", Z5, 1 + k % 2, ("0/1", "1/2", "1/3")[k % 3]))
    for k, slope in enumerate(("1/2", "2/3", "1/3", "3/2")):
        slots.append(("lib", "weierstrass_prep", Z5, int(slope[-1]), slope))
        slots.append(("lib", "invert_unit", (Z5, Z3)[k % 2], 3, slope))
        slots.append(("lib", "euclid_div", Z5, 1 + k % 2, slope))
    for n, slope in ((2, "0/1"), (3, "1/2"), (3, "0/1"), (4, "1/2"), (4, "0/1")):
        slots.append(("lib", "psi_inverse", Z5, n, slope))
    return slots


def _triangular(rng, ring, n, slope):
    """Upper-triangular with monomial pi^a u^b diagonal and sparse monomial
    entries above it: a full-rank module whose pair psi_inverse accepts."""
    p = _char(ring)
    beta, alpha = map(int, slope.split("/"))
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for j in range(n):
        b = rng.randrange(0, 2) * alpha
        rows[j][j] = {b: _unit_int(rng, p) * p ** rng.randrange(0, 2)}
        for i in range(j):
            if rng.random() < 0.5:
                e = rng.randrange(0, 2)
                rows[i][j] = {e: _unit_int(rng, p) * p ** max(rng.randrange(0, 2), -(-beta * e // alpha))}
    return rows


def _fq_ramified_op(slot, rng):
    if slot[0] == "fq":
        _, cmd, ring, size, slope = slot
        s = _Session(ring, 8, slope)
        if cmd in ("hnf", "hnfu", "pair"):
            tag = "u" if cmd == "hnfu" else None
            return s.matrix("A", _rand_matrix(rng, ring, size, size, 1, 1), tag=tag), [cmd[:3] if tag else cmd, "A"]
        if cmd == "max":
            return s.matrix("A", _rand_matrix(rng, ring, *size, 1, 1)), ["max", "A"]
        if cmd == "gcd":
            s.series("f", _random_entry(rng, ring, size, 1, 0.0))
            return s.series("g", _random_entry(rng, ring, size, 1, 0.0)), ["gcd", "f", "g"]
        s.series("y", _random_entry(rng, ring, 4, 1, 0.0))
        return s.series("x", _distinguished(rng, ring, size, size + 1, 1)), ["divmod", "y", "x", "--prec", "6"]
    if slot[0] == "approx":
        _, ring, n, slope = slot
        s = _Session(ring, 8, slope)
        s.matrix("A", _rand_matrix(rng, ring, n, n, 2, 0, 0.0), exact=False)
        s.matrix("B", _rand_matrix(rng, ring, n, 1, 2, 1, 0.0), exact=False)
        return s, ["approx-sum", "A", "B", "--c", "2", "--pu", "6", "--ppi", "6"]
    _, fn, ring, size, slope = slot
    if fn == "psi_inverse":
        s = _Session(ring, 12, slope)
        return s.matrix("A", _triangular(rng, ring, size, slope)), {"fn": fn}
    s = _Session(ring, 8, "0/1")
    if fn == "invert_unit":
        return s.series("x", _unit_series(rng, ring, size)), {"fn": fn, "slope": slope, "n": 6}
    if fn == "weierstrass_prep":
        # Weierstrass degree = the slope's denominator, so nu*d is whole
        return s.series("x", _distinguished(rng, ring, size, size + 2, 2)), {"fn": fn, "slope": slope, "prec": 6}
    s.series("y", _random_entry(rng, ring, 4, 2, 0.0))
    s.series("x", _distinguished(rng, ring, size, size + 1, 2))
    return s, {"fn": fn, "slope": slope, "prec": 6}


WORKLOADS = {
    "pi_exact": (_pi_exact_slots, _pi_exact_op),
    "u_local": (_u_local_slots, _u_local_op),
    "fq_ramified": (_fq_ramified_slots, _fq_ramified_op),
}


def slot_count(workload: str) -> int:
    return len(WORKLOADS[workload][0]())


def variant(workload: str, slot_index: int, v: int) -> dict:
    """The v-th input of a slot; independent of the benchmark seed.

    A CLI operation is ``{"kind": "cli", "session", "cmd"}``; a library
    operation is ``{"kind": "lib", "session", "call"}``.
    """
    slots, make = WORKLOADS[workload]
    session, what = make(slots()[slot_index], random.Random(f"{workload}/{slot_index}"))
    op = {"id": f"{slot_index}/{v}", "session": session.text(v)}
    if isinstance(what, list):
        op.update(kind="cli", cmd=what)
    else:
        op.update(kind="lib", call=what)
    return op


def pool(workload: str) -> list[dict]:
    """Every input any seed can pick, in slot-major order."""
    return [variant(workload, i, v) for i in range(slot_count(workload)) for v in range(VARIANTS)]


def operations(workload: str, seed: int) -> list[dict]:
    """The operation list one benchmark seed runs, in order."""
    rng = random.Random(f"{workload}#{seed}")
    picks = [variant(workload, i, rng.randrange(VARIANTS)) for i in range(slot_count(workload))]
    rng.shuffle(picks)
    return picks
