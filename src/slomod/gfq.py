"""Finite fields GF(q) and polynomial / rational-function arithmetic over them.

This is the coefficient backend for the formal-series ring k[[t]]: residues
mod t^n are fixed-length tuples of field elements, and exactly-known elements
are rational functions n(t)/d(t) with d(0) != 0 (the subring of k((t)) closed
under the inversions the exact code paths need).

Field elements: every element of GF(q), q = p^m, is an int in [0, q) whose
base-p digits, least significant first, are its coordinates in the power
basis 1, x, ..., x^(m-1) of F_p[x]/(f), where f is the smallest monic
irreducible of degree m over F_p (f = x when q is prime, so an element is its
residue mod p).  0 is zero and 1 is one in every field, and ``from_int(n)``
is n mod p.  ``GF`` builds its arithmetic tables once, from the powers of a
primitive element; every field operation after that is a table lookup.

Polynomial kernels: ``pmul``, ``pdivmod`` (and ``pgcd`` through it),
``padd`` and ``pscale`` read the tables of ``GF`` directly instead of
calling its methods.  The logs of the fixed operand (the second factor, the
divisor) are looked up once per call, so a digit product x*y is one lookup,
``_exp[log x + log y]``.  Digits are added through the Zech table,
``_exp[la + _zech[lb - la]]``, which is right for every q.  ``padd``,
``pmul`` and ``pdivmod`` keep a second loop for p = 2 that adds by XOR, as
the bits of the encoding are then the coordinates over F_2; it made the
``fq_ramified`` benchmark (GF(2) and GF(4)) 4 to 6% faster in ``wall_s``
than the Zech loop alone.  There is no size threshold, and polynomials stay
tuples of ints.

Rational functions are kept in canonical form (see ``RatFunc``), and the
operators use that their operands already are: a product (a/b)*(c/d)
cancels only the cross gcds gcd(a, d) and gcd(c, b), and a sum over
g = gcd(b, d) cancels only a factor of g.  A gcd with a constant is never
computed.
"""

from __future__ import annotations

import itertools

from .errors import NotDivisible


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p**m, or raise ValueError."""
    if q >= 2:
        p = next(d for d in range(2, q + 1) if q % d == 0)  # the least divisor is prime
        m, rest = 0, q
        while rest % p == 0:
            rest //= p
            m += 1
        if rest == 1:
            return p, m
    raise ValueError(f"{q} is not a prime power")


# -- the table builder: F_p polynomials as little-endian int lists -----------


def _fp_rem(a, f, p):
    """Remainder of a by the monic f over F_p."""
    a = list(a)
    d = len(f) - 1
    for k in range(len(a) - 1, d - 1, -1):
        c = a[k] % p
        if c:
            for i in range(d + 1):
                a[k - d + i] -= c * f[i]
    return [c % p for c in a[:d]]


def _smallest_irreducible(p, m):
    """The first monic irreducible x^m + c_{m-1} x^(m-1) + ... + c_0 over F_p
    in lexicographic order of (c_0, ..., c_{m-1}), by trial division."""
    for tail in itertools.product(range(p), repeat=m):
        f = list(tail) + [1]
        if all(
            any(_fp_rem(f, list(g) + [1], p))
            for d in range(1, m // 2 + 1)
            for g in itertools.product(range(p), repeat=d)
        ):
            return f
    raise AssertionError("no irreducible polynomial found")


def _field_powers(p, m):
    """[1, g, g^2, ..., g^(q-2)] as ints, for the smallest primitive element g
    of F_p[x]/(f): the powers of each candidate g are walked until they
    return to 1, and g is primitive when the walk meets q - 1 elements.  The
    coordinate product runs only here."""
    q = p**m
    f = _smallest_irreducible(p, m)
    weights = [p**i for i in range(m)]
    for g in range(1, q):
        gd = [g // w % p for w in weights]
        powers, cur = [1], 1
        while True:
            cur_d = [cur // w % p for w in weights]
            prod = [0] * (2 * m - 1)
            for i, x in enumerate(cur_d):
                for j, y in enumerate(gd):
                    prod[i + j] += x * y
            cur = sum(c * w for c, w in zip(_fp_rem(prod, f, p), weights))
            if cur == 1:
                break
            powers.append(cur)
        if len(powers) == q - 1:
            return powers
    raise AssertionError("no primitive element found")


class GF:
    """The finite field with q = p^m elements, as ints in [0, q).

    Tables, with N = q - 1 and g the primitive element:

    * ``_log[a]``: the i in [0, N) with g^i = a; ``_log[0]`` is 2N.
    * ``_exp[i]``: g^(i mod N) for i < 2N and 0 from 2N to 4N, so
      ``_exp[_log[a] + _log[b]]`` is a*b for every a and b, zero included.
    * ``_zech[d]`` for d = _log[b] - _log[a] in [-2N, 2N] (negative d read
      through Python's negative index; the two ranges do not overlap): the
      Zech logarithm log(1 + g^d) for nonzero a and b (2N when 1 + g^d is
      zero), d itself when a is zero and 0 when b is zero, so
      ``_exp[_log[a] + _zech[_log[b] - _log[a]]]`` is a + b for every a and b.
    * ``_neg[a]``: -a.
    """

    def __init__(self, q: int):
        p, m = factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m
        self.zero = 0
        self.one = 1
        powers = _field_powers(p, m)
        n = q - 1
        log = [2 * n] * q
        for i, a in enumerate(powers):
            log[a] = i
        zech = [0] * (4 * n + 1)
        for d, a in enumerate(powers):
            s = a - a % p + (a + 1) % p  # 1 + g^d: add 1 to the lowest digit
            zech[d] = zech[d - n] = log[s]
        for d in range(n + 1, 2 * n + 1):
            zech[-d] = -d
        self._log = log
        self._exp = powers * 2 + [0] * (2 * n + 1)
        self._zech = zech
        self._neg = [self._exp[la + log[p - 1]] for la in log]  # -1 is p - 1

    # -- element arithmetic ----------------------------------------------

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        return self._exp[self.q - 1 - self._log[a]]

    def elem_str(self, a) -> str:
        if self.m == 1 or a < 2:
            return str(a)
        p = self.p
        return "g" + "".join(str(a // p**i % p) for i in range(self.m))


# ---------------------------------------------------------------------------
# Polynomials over GF(q): little-endian tuples of field elements.
# ---------------------------------------------------------------------------


def ptrim(a):
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return tuple(a[:n])


def padd(field: GF, a, b):
    if len(a) < len(b):
        a, b = b, a
    if field.p == 2:
        out = [x ^ y for x, y in zip(a, b)]
    else:
        log, exp, zech = field._log, field._exp, field._zech
        out = [exp[(lx := log[x]) + zech[log[y] - lx]] for x, y in zip(a, b)]
    return ptrim(out + list(a[len(b):]))


def pneg(field: GF, a):
    neg = field._neg
    return tuple(neg[x] for x in a)


def pmul(field: GF, a, b, trunc=None):
    """a*b, or a*b mod t^trunc.  The logs of b are looked up once; each
    digit product is ``_exp[log x + log y]``, added in as described in the
    module docstring."""
    n = len(a) + len(b) - 1
    if trunc is not None and trunc < n:
        n = trunc
    if n <= 0:
        return ()
    log, exp = field._log, field._exp
    lb = [log[y] for y in b]
    out = [0] * n
    if field.p == 2:
        for i, x in enumerate(a[:n]):
            if x:
                lx = log[x]
                for j, ly in enumerate(lb[: n - i], i):
                    out[j] ^= exp[lx + ly]
    else:
        zech = field._zech
        for i, x in enumerate(a[:n]):
            if x:
                lx = log[x]
                for j, ly in enumerate(lb[: n - i], i):
                    lo = log[out[j]]
                    out[j] = exp[lo + zech[log[exp[lx + ly]] - lo]]
    return ptrim(out)


def pscale(field: GF, c, a):
    log, exp = field._log, field._exp
    lc = log[c]
    return ptrim([exp[lc + log[x]] for x in a])


def pdivmod(field: GF, a, b):
    """Classical division a = q*b + r with deg r < deg b.

    From the top digit down, the quotient digit c cancels the digit of a at
    t^(k + deg b), and c*t^k*b is subtracted from the digits below it, with
    the logs of b looked up once."""
    b = ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    r = list(a)
    nq = len(r) - db
    if nq <= 0:
        return (), ptrim(r)
    log, exp = field._log, field._exp
    inv_lead = field.inv(b[-1])
    l_inv, l_neg = log[inv_lead], log[field.neg(inv_lead)]  # logs of 1/lead, -1/lead
    lb = [log[y] for y in b[:db]]
    q = [0] * nq
    if field.p == 2:
        for k in range(nq - 1, -1, -1):
            c = r[k + db]
            if c:
                q[k] = c = exp[log[c] + l_inv]
                lc = log[c]
                for j, ly in enumerate(lb, k):
                    r[j] ^= exp[lc + ly]
    else:
        zech = field._zech
        for k in range(nq - 1, -1, -1):
            c = r[k + db]
            if c:
                q[k] = exp[log[c] + l_inv]
                lc = log[exp[log[c] + l_neg]]  # log(-c/lead), back in [0, field.q - 1)
                for j, ly in enumerate(lb, k):
                    lo = log[r[j]]
                    r[j] = exp[lo + zech[log[exp[lc + ly]] - lo]]
    return ptrim(q), ptrim(r[:db])


def pgcd(field: GF, a, b):
    """The monic gcd of a and b (() when both are zero)."""
    a, b = ptrim(a), ptrim(b)
    while b:
        a, b = b, pdivmod(field, a, b)[1]
    if a and a[-1] != 1:
        a = pscale(field, field.inv(a[-1]), a)
    return a


def pcancel(field: GF, a, b):
    """(a/g, b/g) for g = gcd(a, b), a and b nonzero and trimmed.  The gcd
    with a constant is a constant, so it is computed only when both have
    a t."""
    if len(a) > 1 and len(b) > 1:
        g = pgcd(field, a, b)
        if len(g) > 1:
            return pdivmod(field, a, g)[0], pdivmod(field, b, g)[0]
    return a, b


def pinv_series(field: GF, a, n):
    """Inverse of a (a[0] != 0) modulo t^n, as a length-<=n tuple."""
    if not a or not a[0]:
        raise ZeroDivisionError("constant term is zero")
    add, mul = field.add, field.mul
    inv0 = field.inv(a[0])
    out = [inv0]
    for k in range(1, n):
        acc = 0
        for i in range(1, min(k, len(a) - 1) + 1):
            acc = add(acc, mul(a[i], out[k - i]))
        out.append(field.neg(mul(inv0, acc)))
    return ptrim(out)


def pt_val(a):
    """t-adic valuation of a polynomial; None for the zero polynomial."""
    for i, c in enumerate(a):
        if c:
            return i
    return None


def pshift(a, k):
    """Multiply by t^k (k may be negative if a is divisible by t^-k)."""
    a = ptrim(a)
    if not a:
        return ()
    if k >= 0:
        return (0,) * k + a
    if any(a[:-k]):
        raise NotDivisible(f"polynomial is not divisible by t^{-k}")
    return a[-k:]


def pstr(field: GF, a) -> str:
    a = ptrim(a)
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if not c:
            continue
        cs = field.elem_str(c)
        if i == 0:
            parts.append(cs)
        elif i == 1:
            parts.append("t" if cs == "1" else f"{cs}*t")
        else:
            parts.append(f"t^{i}" if cs == "1" else f"{cs}*t^{i}")
    return "+".join(parts)


def _canonical(field: GF, num, den) -> "RatFunc":
    """A RatFunc from a pair already in canonical form, without ``__init__``."""
    r = object.__new__(RatFunc)
    r.field, r.num, r.den = field, num, den
    return r


def _unit_low(field: GF, num, den):
    """(num, den) scaled so that the lowest nonzero coefficient of den is 1."""
    c = den[pt_val(den)]
    if c == 1:
        return num, den
    c = field.inv(c)
    return pscale(field, c, num), pscale(field, c, den)


class RatFunc:
    """Rational function n(t)/d(t) over GF(q), d != 0.

    This is the exact coefficient representation for the k[[t]] backend; in
    normalized coefficient digits the denominator is a unit of k[[t]]
    (d(0) != 0), but arbitrary nonzero denominators are allowed so the class
    is a field (Gaussian elimination needs intermediate divisions).
    Canonical form: gcd(n, d) = 1 and the lowest nonzero coefficient of d
    is 1.  The operators rely on their operands being canonical and cancel
    only what can be common (see the module docstring).
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: GF, num, den=(1,)):
        num = ptrim(num)
        den = ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            num, den = _unit_low(field, *pcancel(field, num, den))
        else:
            den = (1,)
        self.field = field
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return not self.num

    def t_val(self):
        if not self.num:
            return None
        return pt_val(self.num) - pt_val(self.den)

    def shift(self, k: int) -> "RatFunc":
        """Multiply by t^k (any sign).  As gcd(num, den) = 1, the only common
        factor the shift can create is the power of t that the other side
        holds, so it is cancelled by slicing."""
        num, den = self.num, self.den
        if not num or not k:
            return self
        if k > 0:
            c = min(k, pt_val(den))
            return _canonical(self.field, pshift(num, k - c), pshift(den, -c))
        c = min(-k, pt_val(num))
        return _canonical(self.field, pshift(num, -c), pshift(den, -k - c))

    def __add__(self, other: "RatFunc") -> "RatFunc":
        """a/b + c/d over g = gcd(b, d): with b = g*b' and d = g*d', the sum
        is (a*d' + c*b')/(b*d').  A common factor of that numerator and
        b*d' is prime to b' and d', so it divides g, and with it b."""
        f = self.field
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return RatFunc(f, padd(f, a, c), b)
        bg, dg = pcancel(f, b, d)
        num = padd(f, pmul(f, a, dg), pmul(f, c, bg))
        if len(dg) < len(d):  # g is not 1
            num, b = pcancel(f, num, b)
        return _canonical(f, *_unit_low(f, num, pmul(f, b, dg)))

    def __neg__(self) -> "RatFunc":
        return _canonical(self.field, pneg(self.field, self.num), self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        """(a/b)*(c/d) cancels by the cross gcds, gcd(a, d) and gcd(c, b):
        gcd(a, b) = gcd(c, d) = 1, so no other factor is common."""
        f = self.field
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return _canonical(f, (), (1,))
        a, d = pcancel(f, a, d)
        c, b = pcancel(f, c, b)
        return _canonical(f, *_unit_low(f, pmul(f, a, c), pmul(f, b, d)))

    def inv_any(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return _canonical(self.field, *_unit_low(self.field, self.den, self.num))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def series(self, n: int):
        """Expansion modulo t^n as a length-n tuple (needs t-val >= 0)."""
        f = self.field
        if not self.num:
            return (0,) * n
        if self.den == (1,):
            s = self.num[:n]
        elif pt_val(self.den) != 0:
            raise ZeroDivisionError("series expansion of an element with a pole")
        else:
            s = pmul(f, self.num, pinv_series(f, self.den, n), trunc=n)
        return s + (0,) * (n - len(s))

    def __repr__(self):
        f = self.field
        if self.den == (1,):
            return pstr(f, self.num)
        return f"({pstr(f, self.num)})/({pstr(f, self.den)})"
