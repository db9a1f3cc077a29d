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
    add = field.add
    return ptrim([add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))


def pneg(field: GF, a):
    return tuple(field.neg(x) for x in a)


def pmul(field: GF, a, b, trunc=None):
    if not a or not b:
        return ()
    n = len(a) + len(b) - 1
    if trunc is not None:
        n = min(n, trunc)
    add, mul = field.add, field.mul
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i], i):
                if y:
                    out[j] = add(out[j], mul(x, y))
    return ptrim(out)


def pscale(field: GF, c, a):
    return ptrim([field.mul(c, x) for x in a])


def pdivmod(field: GF, a, b):
    """Classical division a = q*b + r with deg r < deg b."""
    b = ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(ptrim(a))
    db = len(b) - 1
    inv_lead = field.inv(b[-1])
    add, mul = field.add, field.mul
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = mul(a[-1], inv_lead)
        k = len(a) - 1 - db
        q[k] = c
        c = field.neg(c)  # a -= c*t^k*b, as one addition per digit
        for i, y in enumerate(b, k):
            if y:
                a[i] = add(a[i], mul(c, y))
        while a and not a[-1]:
            a.pop()
    return ptrim(q), tuple(a)


def pgcd(field: GF, a, b):
    a, b = ptrim(a), ptrim(b)
    while b:
        _, r = pdivmod(field, a, b)
        a, b = b, r
    if a:
        a = pscale(field, field.inv(a[-1]), a)  # monic normalization
    return a


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


class RatFunc:
    """Rational function n(t)/d(t) over GF(q), d != 0.

    This is the exact coefficient representation for the k[[t]] backend; in
    normalized coefficient digits the denominator is a unit of k[[t]]
    (d(0) != 0), but arbitrary nonzero denominators are allowed so the class
    is a field (Gaussian elimination needs intermediate divisions).
    Canonical form: gcd(n, d) = 1 and the lowest nonzero coefficient of d
    is 1.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: GF, num, den=(1,)):
        num = ptrim(num)
        den = ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            # the gcd with a nonzero constant is a constant: nothing to cancel
            g = pgcd(field, num, den) if len(den) > 1 else den
            if len(g) > 1:
                num, _ = pdivmod(field, num, g)
                den, _ = pdivmod(field, den, g)
            c = field.inv(den[pt_val(den)])
            num = pscale(field, c, num)
            den = pscale(field, c, den)
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
        f = self.field
        num = padd(f, pmul(f, self.num, other.den), pmul(f, other.num, self.den))
        return RatFunc(f, num, pmul(f, self.den, other.den))

    def __neg__(self) -> "RatFunc":
        return _canonical(self.field, pneg(self.field, self.num), self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        f = self.field
        return RatFunc(f, pmul(f, self.num, other.num), pmul(f, self.den, other.den))

    def inv_any(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.field, self.den, self.num)

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
        if pt_val(self.den) != 0:
            raise ZeroDivisionError("series expansion of an element with a pole")
        dinv = pinv_series(f, self.den, n)
        s = pmul(f, self.num, dinv, trunc=n)
        return s + (0,) * (n - len(s))

    def __repr__(self):
        f = self.field
        if self.den == (1,):
            return pstr(f, self.num)
        return f"({pstr(f, self.num)})/({pstr(f, self.den)})"
