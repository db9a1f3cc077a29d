"""Finite fields GF(q) and polynomial / rational-function arithmetic over them.

This is the coefficient backend for the formal-series ring k[[t]]: residues
mod t^n are fixed-length tuples of field elements, and exactly-known elements
are rational functions n(t)/d(t) with d(0) != 0 (the subring of k((t)) closed
under the inversions the exact code paths need).

Field elements: for prime q they are plain ints in [0, p); for q = p^m they
are length-m tuples of ints (coordinates w.r.t. the power basis of a fixed
irreducible modulus, found by brute force).
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
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            m = 0
            qq = q
            while qq % p == 0:
                qq //= p
                m += 1
            if qq == 1:
                return p, m
            raise ValueError(f"{q} is not a prime power")
    raise ValueError(f"{q} is not a prime power")


class GF:
    """The finite field with q = p^m elements."""

    def __init__(self, q: int):
        p, m = factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m
        if m == 1:
            self.zero = 0
            self.one = 1
            self._modulus = None
        else:
            self.zero = (0,) * m
            self.one = (1,) + (0,) * (m - 1)
            self._modulus = self._find_irreducible()

    # -- modulus search (m > 1) ------------------------------------------

    def _find_irreducible(self):
        # Smallest monic irreducible of degree m over F_p, by direct root /
        # factor testing; m is tiny in practice.
        p, m = self.p, self.m
        for tail in itertools.product(range(p), repeat=m):
            coeffs = tuple(tail) + (1,)  # monic, little-endian over F_p
            if self._fp_irreducible(coeffs):
                return coeffs
        raise AssertionError("no irreducible polynomial found")

    def _fp_irreducible(self, coeffs):
        # x^(p^k) == x (mod f) has gcd tests; with m small, trial division by
        # all monic polynomials of degree <= m//2 is simplest.
        p = self.p
        deg = len(coeffs) - 1
        for d in range(1, deg // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                g = tuple(tail) + (1,)
                if self._fp_divides(g, coeffs):
                    return False
        return True

    def _fp_divides(self, g, f):
        p = self.p
        rem = list(f)
        dg = len(g) - 1
        while len(rem) - 1 >= dg:
            lead = rem[-1]
            if lead == 0:
                rem.pop()
                continue
            shift = len(rem) - 1 - dg
            for i in range(dg + 1):
                rem[shift + i] = (rem[shift + i] - lead * g[i]) % p
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                return True
        return all(c == 0 for c in rem)

    # -- element arithmetic ----------------------------------------------

    def from_int(self, n: int):
        if self.m == 1:
            return n % self.p
        return (n % self.p,) + (0,) * (self.m - 1)

    def is_zero(self, a) -> bool:
        return a == self.zero

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.m == 1:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    def sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, m = self.p, self.m
        if m == 1:
            return (a * b) % p
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic modulus
        mod = self._modulus
        for k in range(len(prod) - 1, m - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(m):
                    prod[k - m + i] = (prod[k - m + i] - c * mod[i]) % p
        return tuple(prod[:m])

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero in GF(q)")
        if self.m == 1:
            return pow(a, -1, self.p)
        # a^(q-2)
        result = self.one
        base = a
        e = self.q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def elements(self):
        if self.m == 1:
            return list(range(self.p))
        return [tuple(v) for v in itertools.product(range(self.p), repeat=self.m)]

    def elem_str(self, a) -> str:
        if self.m == 1:
            return str(a)
        if a == self.zero:
            return "0"
        if a == self.one:
            return "1"
        return "g" + "".join(str(x) for x in a)


# ---------------------------------------------------------------------------
# Polynomials over GF(q): little-endian tuples of field elements.
# ---------------------------------------------------------------------------


def ptrim(field: GF, a):
    a = list(a)
    while a and field.is_zero(a[-1]):
        a.pop()
    return tuple(a)


def pdeg(field: GF, a) -> int:
    """Degree of a trimmed polynomial; -1 for the zero polynomial."""
    return len(ptrim(field, a)) - 1


def padd(field: GF, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(field.add(x, y))
    return ptrim(field, out)


def pneg(field: GF, a):
    return tuple(field.neg(x) for x in a)


def psub(field: GF, a, b):
    return padd(field, a, pneg(field, b))


def pmul(field: GF, a, b, trunc=None):
    if not a or not b:
        return ()
    n = len(a) + len(b) - 1
    if trunc is not None:
        n = min(n, trunc)
    out = [field.zero] * n
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            if i + j >= n:
                break
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return ptrim(field, out)


def pscale(field: GF, c, a):
    return ptrim(field, [field.mul(c, x) for x in a])


def pdivmod(field: GF, a, b):
    """Classical division a = q*b + r with deg r < deg b."""
    b = ptrim(field, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(ptrim(field, a))
    db = len(b) - 1
    inv_lead = field.inv(b[-1])
    q = [field.zero] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = field.mul(a[-1], inv_lead)
        k = len(a) - 1 - db
        q[k] = c
        for i in range(db + 1):
            a[k + i] = field.sub(a[k + i], field.mul(c, b[i]))
        while a and field.is_zero(a[-1]):
            a.pop()
    return ptrim(field, q), ptrim(field, a)


def pgcd(field: GF, a, b):
    a, b = ptrim(field, a), ptrim(field, b)
    while b:
        _, r = pdivmod(field, a, b)
        a, b = b, r
    if a:
        a = pscale(field, field.inv(a[-1]), a)  # monic normalization
    return a


def pinv_series(field: GF, a, n):
    """Inverse of a (a[0] != 0) modulo t^n, as a length-<=n tuple."""
    if not a or field.is_zero(a[0]):
        raise ZeroDivisionError("constant term is zero")
    inv0 = field.inv(a[0])
    out = [inv0]
    for k in range(1, n):
        acc = field.zero
        for i in range(1, min(k, len(a) - 1) + 1):
            acc = field.add(acc, field.mul(a[i], out[k - i]))
        out.append(field.neg(field.mul(inv0, acc)))
    return ptrim(field, out)


def pt_val(field: GF, a):
    """t-adic valuation of a polynomial; None for the zero polynomial."""
    for i, c in enumerate(a):
        if not field.is_zero(c):
            return i
    return None


def pshift(field: GF, a, k):
    """Multiply by t^k (k may be negative if a is divisible by t^-k)."""
    a = ptrim(field, a)
    if not a:
        return ()
    if k >= 0:
        return (field.zero,) * k + a
    if not all(field.is_zero(c) for c in a[:-k]):
        raise NotDivisible(f"polynomial is not divisible by t^{-k}")
    return a[-k:]


def pstr(field: GF, a, var="t") -> str:
    a = ptrim(field, a)
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if field.is_zero(c):
            continue
        cs = field.elem_str(c)
        if i == 0:
            parts.append(cs)
        elif i == 1:
            parts.append(f"{var}" if cs == "1" else f"{cs}*{var}")
        else:
            parts.append(f"{var}^{i}" if cs == "1" else f"{cs}*{var}^{i}")
    return "+".join(parts)


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

    def __init__(self, field: GF, num, den=None):
        if den is None:
            den = (field.one,)
        num = ptrim(field, num)
        den = ptrim(field, den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            # the gcd with a nonzero constant is a constant: nothing to cancel
            g = pgcd(field, num, den) if len(den) > 1 else den
            if len(g) > 1:
                num, _ = pdivmod(field, num, g)
                den, _ = pdivmod(field, den, g)
            c = field.inv(den[pt_val(field, den)])
            num = pscale(field, c, num)
            den = pscale(field, c, den)
        else:
            den = (field.one,)
        self.field = field
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return not self.num

    def t_val(self):
        if not self.num:
            return None
        return pt_val(self.field, self.num) - pt_val(self.field, self.den)

    def shift(self, k: int) -> "RatFunc":
        """Multiply by t^k (any sign)."""
        if k >= 0:
            return RatFunc(self.field, pshift(self.field, self.num, k), self.den)
        return RatFunc(self.field, self.num, pshift(self.field, self.den, -k))

    def __add__(self, other: "RatFunc") -> "RatFunc":
        f = self.field
        num = padd(f, pmul(f, self.num, other.den), pmul(f, other.num, self.den))
        return RatFunc(f, num, pmul(f, self.den, other.den))

    def __neg__(self) -> "RatFunc":
        return RatFunc(self.field, pneg(self.field, self.num), self.den)

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
            return (f.zero,) * n
        if pt_val(f, self.den) != 0:
            raise ZeroDivisionError("series expansion of an element with a pole")
        dinv = pinv_series(f, self.den, n)
        s = pmul(f, self.num, dinv, trunc=n)
        return tuple(s) + (f.zero,) * (n - len(s))

    def __repr__(self):
        f = self.field
        if self.den == (f.one,):
            return pstr(f, self.num)
        return f"({pstr(f, self.num)})/({pstr(f, self.den)})"
