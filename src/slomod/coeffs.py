"""Coefficient arithmetic for a complete DVR R, its fraction field K, and the
totally ramified extension K' = K[w] with w^a = pi.

Two backends are supported:

* ``ZpConfig(p)``   -- R = Z_p, pi = p.  An exact digit is a ``Fraction``;
  a digit known only modulo p^n is stored as its int residue in [0, p^n).
* ``FqConfig(q)``   -- R = GF(q)[[t]], pi = t.  Exact elements are rational
  functions in t (``gfq.RatFunc``).

A ``CoeffElem`` stores a value as  w^num_val * (c_0 + c_1 w + ... + c_{a-1}
w^{a-1})  where a = ram_index and the digits c_i are field elements.
Valuations are exact integers (numerator over ram_index); only the digit
vector carries finite precision: ``prec`` is the *relative* precision in
w-units, i.e. the value is known modulo w^(num_val + prec) * R'.  For
ram_index 1 this is the usual relative pi-adic precision.

Three distinguished states:

* exact zero                      (``zero`` flag),
* ``prec == 0``                   (an O(w^num_val) term: nothing is known
  beyond the valuation lower bound -- produced by full cancellation),
* ``prec >= 1`` or infinite       (at least one certain digit; the lowest
  digit c_0 is then a pi-unit and the valuation is exact).

Invariant: a stored digit vector is reduced -- digit i is the canonical
representative modulo pi^ceil((prec - i)/ram) -- and its lowest digit c_0 is
a pi-unit.  For ram_index 1 the vector is the single pi-unit c_0 reduced mod
pi^prec, which gives mul a shortcut: the product is c_0 * c_0' at
w^(num_val + num_val'), with relative precision min(prec, prec'), reduced
once -- a product of pi-units is a pi-unit, so there is nothing to fold and
no valuation to scan.

Every sum -- a + b (so a - b), a digit of a series product, a step of the
unit-division recurrence -- and every product at ram_index > 1 goes through
one kernel, ``sum_products``: the exact digits of every product a*b and of
every lone summand x are summed at a common base and normalised once, at
absolute precision the minimum of v_a + v_b + min(prec_a, prec_b) over the
products and of v_x + prec_x over the lone summands.  This is value-identical
to folding ``acc + a*b`` term by term: a ``CoeffElem`` is a function of (its
exact value mod w^abs, abs) only, and every intermediate reduction of the
fold moves the value by a multiple of w^abs' with abs' >= abs, so both reach
the same (num_val, prec, unit).  GF(q) sums ``RatFunc``s, one ``exa_dot``
per w-residue, and normalises them with ``_normalize``.

Over Z_p, at every ram, the sums run on ints.  A unit digit of an element of
finite ``prec`` is a plain int residue and one of an exact element a
``Fraction``; the int kernels read both through ``as_integer_ratio`` (one
call where a ``Fraction``'s ``numerator`` and ``denominator`` are two
property calls).  No digit reaches Python's ``/``, which would make a float
of two ints: ``ZpConfig.exa_inv`` and the negative shifts of
``exa_shift_pi`` build their ``Fraction`` explicitly, and ``split_at_abs_w``
turns the residues of its exact low part into ``Fraction``s
(``exa_exact``).  ``sum_products`` (so also ``CoeffElem.__add__``,
``__sub__`` and, at ram > 1, ``__mul__``) builds no ``Fraction`` per term,
and one per unit digit of the result only when it is exact.  A term is an
int triple (n, d, e), n/d at w^e: unit digit t of a lone summand x gives its
numerator and denominator at w^(v_x + t), and the unit digits x_s of a and
y_t of b give the products of theirs at w^(v_a + v_b + s + t).  ``_zp_sum``
adds the terms over a running lcm of the denominators (prime to p) at the
lowest exponent, into one int per w-residue: w^e = w^(e mod ram) * p^(e div
ram), as w^ram = p.  One normaliser, ``_zp_digit``, turns such a residue
vector (cs, den, val, abs) into the element: its grade is the minimum over j
of ram * v_p(cs_j) + j, its valuation val + grade, and dividing by w^grade
moves the residues round and divides each exactly by a power of p; each unit
digit is then the exact ``Fraction`` or its int residue mod p^ceil((prec -
t)/ram).  At ram 1 the vector is one int, stripped of p once.
``CoeffElem.__mul__`` at ram 1 and ``from_exact`` (which strips p from the
denominator first) hand it one residue, and the Kronecker digits below end
in it too.  Summing the stored units is exact enough.  A unit known to finite
precision is stored reduced, so its element's stored value differs from any
value the element stands for by a multiple of w^abs of that element.  Times
the other factor, the difference stays at or above the product's abs, so at
or above the sum's abs.  The stored and the exact sums agree mod w^abs of the
sum, and a ``CoeffElem`` depends only on that residue and on abs.

Whole series products go through ``series_product``, which also adds them
to an accumulator: it returns the digits of acc + q*b or acc - q*b, each
digit normalised once (``SnuSeries.addmul``; a plain product has an empty
acc).  With no product exponent below the product's window it returns a
copy of acc and packs nothing.  For Z_p, at every ram, it is one Kronecker
multiply (Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", JSC 2009):

* each factor series is packed once, on its first product, and the pack is
  kept with the series (``_zp_pack``; a series never changes, so the pack
  never goes stale): with D the lcm of its unit digits' denominators (prime
  to p) and W0 its lowest w-valuation, unit digit t = num/den of the digit
  at u^i of valuation v is A * w^W0 / D * w^(m mod ram), m = v - W0 + t,
  with A = num * (D/den) * p^(m div ram), and A goes to field (i - i_min) *
  (2*ram - 1) + m mod ram; the pack also keeps i_min, bits(max|A|), the
  valuation of every digit and v + prec of every inexact digit, which is
  all that a later product reads of the factor;
* per product the factors shift into sum A * 2^(K*f) over their fields f,
  with K = bits(max|A|) + bits(max|B|) + bits(n) + 2 and n the smaller
  count of entries: a product field sums at most n terms A*B, since an entry
  of either factor fixes its partner, so |C| < 2^(K-2) and no field reaches
  the next; for acc - q*b one packed factor is negated, which the signed
  reading below allows;
* one multiply gives sum C_f * 2^(K*f); the signed K-bit fields are read
  from the low end, a field >= 2^(K-1) is negative and borrows 1 from the
  rest;
* product digit k is its 2*ram - 1 fields from k*(2*ram - 1) on, field s
  the sum over residues j + j' = s; with w^ram = p a field s >= ram folds
  onto residue s - ram times p, and the residue vector over Da*Db at
  w^(W0a + W0b) is the digit.  Where acc has no digit k, ``_zp_digit``
  normalises it.  Otherwise the residues and acc's unit digits go to
  ``_zp_sum`` as int terms, at absolute precision min(abs of acc_k, abs of
  the product digit).  At ram 1 a digit is one field, and a pack entry
  digit i's A_i * p^(v - W0) at field i - i_min.

The absolute precision abs of a product digit is the ``sum_products`` one,
computed only over pairs with an inexact factor, from the two packs, and
only when a factor has an inexact digit.  So each digit is the element
that ``sum_products`` builds: a ``CoeffElem`` is a function of its exact
value mod w^abs and of abs, and the fields carry the exact value.  The sum
with acc_k is then the element ``CoeffElem.__add__`` builds from acc_k and
that product digit (or from its negative): the normalised product digit
differs from the exact value by a multiple of w^abs of that digit, so the
two sums agree mod w^min, and both are normalised at that min.  A digit
that cancels is left out when exact and is O(w^abs) otherwise, as there.
GF(q) digits (``RatFunc``s) do not pack: they take one ``sum_products`` per
output digit, with acc_k (where acc has one) as its one lone summand and the
sparser factor negated for acc - q*b, by the same argument; a Kronecker
product of ``RatFunc`` digits was measured slower than this loop.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import gfq
from .errors import ConfigMismatch, NotInvertible, UncertifiedValuation

INF = math.inf

# Fraction is immutable, so every exact zero of the Z_p backend can be one value
_ZERO = Fraction(0)


def _isinf(x) -> bool:
    return x == INF


# a chunk of 600 digits converts under every limit that
# sys.set_int_max_str_digits accepts (0, or at least 640)
_CHUNK_DIGITS = 600


def _long_decimal(n: int) -> str:
    """The decimal text of an int too long for one ``str()`` under the
    interpreter's integer string conversion limit, converted in chunks;
    no process-wide setting changes."""
    chunk = 10**_CHUNK_DIGITS
    m, parts = abs(n), []
    while m:
        m, r = divmod(m, chunk)
        parts.append(r)
    head, *rest = reversed(parts)
    return ("-" if n < 0 else "") + str(head) + "".join(f"{r:0{_CHUNK_DIGITS}d}" for r in rest)


# ---------------------------------------------------------------------------
# Ring configurations
# ---------------------------------------------------------------------------


class RingConfig:
    """Base class: exact-element operations for one coefficient backend."""

    kind = ""

    def __init__(self, default_prec: int = 20):
        # the precision a CLI session header declares; library calls take
        # their working precision as an argument and never read this
        self.default_prec = default_prec

    # subclasses implement: same_ring, exa_zero, exa_one, exa_from_int,
    # exa_dot, exa_inv, exa_is_zero, exa_pi_val, exa_shift_pi, exa_reduce,
    # exa_exact, exa_str; exact elements of both backends (Fraction, int
    # residues, RatFunc) add, negate and multiply by their own operators

    def same_ring(self, other: "RingConfig") -> bool:
        raise NotImplementedError


class ZpConfig(RingConfig):
    """R = Z_p with uniformizer p."""

    kind = "zp"

    def __init__(self, p: int, default_prec: int = 20):
        if p < 2 or not gfq._is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        super().__init__(default_prec)
        self.p = p

    def same_ring(self, other):
        return isinstance(other, ZpConfig) and other.p == self.p

    def __repr__(self):
        return f"ZpConfig(p={self.p})"

    def exa_zero(self):
        return _ZERO

    def exa_one(self):
        return Fraction(1)

    def exa_from_int(self, n):
        return Fraction(n)

    def exa_dot(self, terms):
        """Exact sum of x*y*p^e over (x, y, e) triples with e >= 0; y None
        stands for 1, the term x*p^e.

        Raw numerators are accumulated as ints over a running lcm of the
        denominators; one ``Fraction`` is built at the end.
        """
        ints = (
            (x.numerator, x.denominator, e) if y is None
            else (x.numerator * y.numerator, x.denominator * y.denominator, e)
            for x, y, e in terms
        )
        (num,), den = _lcm_sum(self.p, 1, ints, 0)
        return Fraction(num, den) if num else _ZERO

    def exa_inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        # an int residue has no true division of its own: 1 / a is a float
        return Fraction(a.denominator, a.numerator)

    def exa_is_zero(self, a):
        return a == 0

    def exa_pi_val(self, a):
        if a == 0:
            return None
        v = 0
        num, den = a.numerator, a.denominator
        while num % self.p == 0:
            num //= self.p
            v += 1
        while den % self.p == 0:
            den //= self.p
            v -= 1
        return v

    def exa_shift_pi(self, a, j):
        if j > 0:
            return a * self.p ** j
        if j < 0:
            return Fraction(a.numerator, a.denominator * self.p ** -j)
        return a

    def exa_reduce(self, a, n):
        """Canonical representative of a (with v_p >= 0) modulo p^n: an int
        in [0, p^n)."""
        if n <= 0:
            return 0
        m = self.p ** n
        return a.numerator * pow(a.denominator, -1, m) % m

    def exa_exact(self, a):
        """a as an exact element: a reduced int residue becomes a Fraction."""
        return Fraction(a)

    def exa_str(self, a):
        try:
            if a.denominator == 1:
                return str(a.numerator)
            return f"{a.numerator}/{a.denominator}"
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            num = _long_decimal(a.numerator)
            return num if a.denominator == 1 else f"{num}/{_long_decimal(a.denominator)}"


class FqConfig(RingConfig):
    """R = GF(q)[[t]] with uniformizer t."""

    kind = "fq"

    def __init__(self, q: int, default_prec: int = 20):
        super().__init__(default_prec)
        self.q = q
        self.field = gfq.GF(q)
        self._zero = gfq.RatFunc(self.field, ())

    def same_ring(self, other):
        return isinstance(other, FqConfig) and other.q == self.q

    def __repr__(self):
        return f"FqConfig(q={self.q})"

    def exa_zero(self):
        return self._zero

    def exa_one(self):
        return gfq.RatFunc(self.field, (self.field.one,))

    def exa_from_int(self, n):
        return gfq.RatFunc(self.field, (self.field.from_int(n),))

    def exa_dot(self, terms):
        """Exact sum of x*y*t^e over (x, y, e) triples with e >= 0; y None
        stands for 1, the term x*t^e.

        A single term is the canonical product x*y, which cancels by cross
        gcds only, shifted by t^e.  Two lone terms (a ``CoeffElem`` sum) are
        canonical, so their shifts add by ``RatFunc.__add__``, which cancels
        only a factor of the gcd of the denominators.  Otherwise the raw
        numerator polynomials are first summed per denominator; the sums are
        then accumulated over a running lcm of the distinct denominators,
        which starts at the first one, and one ``RatFunc`` is built at the
        end.
        """
        terms = list(terms)
        if len(terms) == 1:
            x, y, e = terms[0]
            return (x if y is None else x * y).shift(e)
        if len(terms) == 2 and terms[0][1] is None and terms[1][1] is None:
            (x, _, e), (y, _, g) = terms
            return x.shift(e) + y.shift(g)
        f = self.field
        one = (f.one,)
        sums = {}
        for x, y, e in terms:
            if y is None:
                n, d = gfq.pshift(x.num, e), x.den
            else:
                n = gfq.pshift(gfq.pmul(f, x.num, y.num), e)
                d = y.den if x.den == one else x.den if y.den == one else gfq.pmul(f, x.den, y.den)
            s = sums.get(d)
            sums[d] = n if s is None else gfq.padd(f, s, n)
        num = den = None
        for d, n in sums.items():
            if not n:
                continue
            if den is None:
                num, den = n, d
                continue
            dg, eg = gfq.pcancel(f, d, den)  # the lcm of den and d is den*dg
            num = gfq.padd(f, gfq.pmul(f, num, dg), gfq.pmul(f, n, eg))
            den = gfq.pmul(f, den, dg)
        return gfq.RatFunc(f, num, den) if num else self._zero

    def exa_inv(self, a):
        return a.inv_any()

    def exa_is_zero(self, a):
        return a.is_zero()

    def exa_pi_val(self, a):
        return a.t_val()

    def exa_shift_pi(self, a, j):
        return a.shift(j)

    def exa_reduce(self, a, n):
        if n <= 0:
            return self.exa_zero()
        return gfq.RatFunc(self.field, a.series(n))

    def exa_exact(self, a):
        return a

    def exa_str(self, a):
        return repr(a)


# ---------------------------------------------------------------------------
# Coefficient elements
# ---------------------------------------------------------------------------


class CoeffElem:
    __slots__ = ("cfg", "ram", "num_val", "prec", "unit", "zero")

    def __init__(self, cfg, ram, num_val, prec, unit, zero=False):
        self.cfg = cfg
        self.ram = ram
        self.num_val = num_val
        self.prec = prec
        self.unit = unit
        self.zero = zero

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact_zero(cls, cfg, ram=1):
        return cls(cfg, ram, 0, INF, None, zero=True)

    @classmethod
    def o_term(cls, cfg, abs_w, ram=1):
        """The element O(w^abs_w): valuation >= abs_w/ram, nothing more."""
        return cls(cfg, ram, abs_w, 0, None)

    @classmethod
    def from_exact(cls, cfg, value, ram=1, prec=INF):
        """Build from one exact field element (the w^0 digit)."""
        if cfg.kind == "zp":
            # p leaves the denominator as w^-ram; _zp_digit strips the numerator
            num, den = value.as_integer_ratio()
            val = 0
            while den % cfg.p == 0:
                den //= cfg.p
                val -= ram
            return _zp_digit(cfg, ram, [num] + [0] * (ram - 1), den, val, INF).reduce_prec(prec)
        digits = [value] + [cfg.exa_zero()] * (ram - 1)
        return _normalize(cfg, ram, 0, digits, INF).reduce_prec(prec)

    @classmethod
    def from_int(cls, cfg, n, ram=1, prec=INF):
        return cls.from_exact(cfg, cfg.exa_from_int(n), ram, prec)

    # -- state predicates ---------------------------------------------------

    def is_exact_zero(self) -> bool:
        return self.zero

    def is_exact(self) -> bool:
        return self.zero or _isinf(self.prec)

    def has_witness(self) -> bool:
        """A certain nonzero digit exists, so the valuation is exact."""
        return not self.zero and self.prec >= 1

    def abs_w(self):
        """Absolute precision in w-units (INF for exact elements)."""
        if self.zero:
            return INF
        return self.num_val + self.prec

    def val(self):
        """Exact valuation as a Fraction (INF for exact zero).

        Raises UncertifiedValuation for a possibly-zero O(.) element.
        """
        if self.zero:
            return INF
        if not self.has_witness():
            raise UncertifiedValuation("valuation of an O(.) element is not certified")
        return Fraction(self.num_val, self.ram)

    def val_lower(self):
        """Certified lower bound for the valuation (INF for exact zero)."""
        if self.zero:
            return INF
        return Fraction(self.num_val, self.ram)

    # -- precision management -----------------------------------------------

    def reduce_prec(self, new_prec):
        """Reduce relative precision (w-units) to at most new_prec."""
        if self.zero or new_prec >= self.prec:
            return self
        if new_prec <= 0:
            return CoeffElem.o_term(self.cfg, self.num_val, self.ram)
        digits = _reduce_digits(self.cfg, self.ram, self.unit, new_prec)
        return CoeffElem(self.cfg, self.ram, self.num_val, new_prec, digits)

    def reduce_abs_w(self, abs_w):
        """Reduce absolute precision (w-units) to at most abs_w."""
        if self.zero:
            if _isinf(abs_w):
                return self
            return CoeffElem.o_term(self.cfg, abs_w, self.ram)
        return self.reduce_prec(abs_w - self.num_val)

    def split_at_abs_w(self, cut) -> tuple["CoeffElem", "CoeffElem"]:
        """(low, high): low holds the certain digits below w^cut exactly,
        high the rest; low + high = self."""
        if self.zero or self.num_val >= cut:
            return CoeffElem.exact_zero(self.cfg, self.ram), self
        if self.unit is None:
            return CoeffElem.exact_zero(self.cfg, self.ram), self
        rel = cut - self.num_val
        cfg = self.cfg
        low_digits = _reduce_digits(cfg, self.ram, self.unit, min(rel, self.prec))
        low = _normalize(cfg, self.ram, self.num_val, [cfg.exa_exact(d) for d in low_digits], INF)
        return low, self - low

    def with_ram(self, ram: int) -> "CoeffElem":
        if ram == self.ram:
            return self
        if ram % self.ram != 0:
            raise ConfigMismatch(f"cannot coerce ram {self.ram} -> {ram}")
        k = ram // self.ram
        if self.zero:
            return CoeffElem.exact_zero(self.cfg, ram)
        if self.unit is None:
            return CoeffElem.o_term(self.cfg, self.num_val * k, ram)
        digits = []
        for d in self.unit:
            digits.append(d)
            digits.extend(self.cfg.exa_zero() for _ in range(k - 1))
        prec = self.prec if _isinf(self.prec) else self.prec * k
        return CoeffElem(self.cfg, ram, self.num_val * k, prec, tuple(digits))

    # -- arithmetic ----------------------------------------------------------

    def scale_w(self, j: int) -> "CoeffElem":
        """Multiply by w^j (exact operation, any sign)."""
        if self.zero:
            return self
        return CoeffElem(self.cfg, self.ram, self.num_val + j, self.prec, self.unit)

    def scale_pi(self, j: int) -> "CoeffElem":
        return self.scale_w(j * self.ram)

    def __add__(self, other: "CoeffElem") -> "CoeffElem":
        a, b = _align(self, other)
        if a.zero:
            return b
        if b.zero:
            return a
        return sum_products(a.cfg, a.ram, (), (a, b))

    def __neg__(self) -> "CoeffElem":
        if self.zero or self.unit is None:
            return self
        cfg = self.cfg
        return CoeffElem(
            self.cfg,
            self.ram,
            self.num_val,
            self.prec,
            _reduce_digits(cfg, self.ram, tuple(-d for d in self.unit), self.prec),
        )

    def __sub__(self, other: "CoeffElem") -> "CoeffElem":
        return self + (-other)

    def __mul__(self, other: "CoeffElem") -> "CoeffElem":
        a, b = _align(self, other)
        cfg, ram = a.cfg, a.ram
        if a.zero or b.zero:
            return CoeffElem.exact_zero(cfg, ram)
        out_abs = min(a.num_val + b.abs_w(), b.num_val + a.abs_w())
        if a.unit is None or b.unit is None:
            return CoeffElem.o_term(cfg, out_abs, ram)
        if ram == 1 and cfg.kind == "zp":
            (xn, xd), (yn, yd) = a.unit[0].as_integer_ratio(), b.unit[0].as_integer_ratio()
            return _zp_digit(cfg, 1, [xn * yn], xd * yd, a.num_val + b.num_val, out_abs)
        if ram == 1:
            prec = min(a.prec, b.prec)
            digits = _reduce_digits(cfg, 1, (a.unit[0] * b.unit[0],), prec)
            return CoeffElem(cfg, 1, a.num_val + b.num_val, prec, digits)
        return sum_products(cfg, ram, ((a, b),))

    def inv(self) -> "CoeffElem":
        """Multiplicative inverse at the same relative precision."""
        if self.zero:
            raise NotInvertible("exact zero is not invertible")
        if not self.has_witness():
            raise NotInvertible("cannot invert a possibly-zero O(.) element")
        cfg, ram = self.cfg, self.ram
        inv_digits = _unit_poly_inverse(cfg, ram, self.unit)
        out = _normalize(cfg, ram, -self.num_val, list(inv_digits), INF)
        return out.reduce_prec(self.prec)

    def __eq__(self, other):
        if not isinstance(other, CoeffElem):
            return NotImplemented
        a, b = _align(self, other)
        if a.zero or b.zero:
            return a.zero and b.zero
        return (
            a.num_val == b.num_val
            and a.prec == b.prec
            and a.unit == b.unit
        )

    def __hash__(self):
        # only what ``with_ram`` keeps: equal elements of two rams hash alike
        return hash((self.zero, Fraction(self.num_val, self.ram)))

    def digits_agree(self, other: "CoeffElem") -> bool:
        """True when no digit both elements claim to know disagrees."""
        d = self - other
        if d.zero:
            return True
        return not d.has_witness()

    def __repr__(self):
        return self.render()

    def render(self):
        cfg = self.cfg
        pi_name = "t" if cfg.kind == "fq" else "pi"
        if self.zero:
            return "0"
        if self.unit is None:
            return f"O(w^{self.num_val})" if self.ram > 1 else f"O({pi_name}^{self.num_val})"
        if self.ram == 1:
            body = cfg.exa_str(self.unit[0])
            sign = ""
            if body.startswith("-"):
                sign = "-"
                body = body[1:]
            parts = []
            if self.num_val != 0:
                parts.append(f"{pi_name}^{self.num_val}" if self.num_val != 1 else pi_name)
            if body != "1" or not parts:
                parts.append(body if "/" not in body and "+" not in body else f"({body})")
            s = sign + "*".join(parts)
        else:
            terms = []
            for i, d in enumerate(self.unit):
                if cfg.exa_is_zero(d):
                    continue
                ds = cfg.exa_str(d)
                if i == 0:
                    terms.append(ds)
                else:
                    head = f"w^{i}" if i > 1 else "w"
                    terms.append(head if ds == "1" else f"{ds}*{head}")
            body = "+".join(terms) or "0"
            s = f"w^{self.num_val}*({body})" if self.num_val else f"({body})"
        if not _isinf(self.prec):
            s += f" + O(^{self.num_val + self.prec})"
        return s


# ---------------------------------------------------------------------------
# digit-vector helpers
# ---------------------------------------------------------------------------


def _align(a: CoeffElem, b: CoeffElem):
    if a.cfg is not b.cfg and not a.cfg.same_ring(b.cfg):
        raise ConfigMismatch(f"mixed rings {a.cfg!r} / {b.cfg!r}")
    if a.ram == b.ram:
        return a, b
    ram = max(a.ram, b.ram)
    return a.with_ram(ram), b.with_ram(ram)


def _fold(cfg, ram, digits):
    """Fold indices >= ram using w^ram = pi."""
    if len(digits) == ram:
        return digits
    out = list(digits[:ram]) + [cfg.exa_zero()] * max(0, ram - len(digits))
    for i in range(ram, len(digits)):
        d = digits[i]
        if cfg.exa_is_zero(d):
            continue
        out[i % ram] = out[i % ram] + cfg.exa_shift_pi(d, i // ram)
    return out


def _reduce_digits(cfg, ram, digits, prec_w):
    """Canonically reduce digit i modulo pi^ceil((prec_w - i)/ram)."""
    if _isinf(prec_w):
        return tuple(digits)
    out = []
    for i, d in enumerate(digits):
        n = -((-(prec_w - i)) // ram)  # ceil((prec_w - i)/ram)
        out.append(cfg.exa_reduce(d, n))
    return tuple(out)


def _normalize(cfg, ram, base, digits, abs_w):
    """Extract the w-valuation from a digit vector based at w^base.

    ``digits`` may be longer than ram (pre-fold); abs_w is the absolute
    w-precision budget (INF allowed).  Returns a canonical CoeffElem.
    """
    digits = _fold(cfg, ram, digits)
    grade = None
    for i, d in enumerate(digits):
        if cfg.exa_is_zero(d):
            continue
        g = ram * cfg.exa_pi_val(d) + i
        if grade is None or g < grade:
            grade = g
    if grade is None:
        if _isinf(abs_w):
            return CoeffElem.exact_zero(cfg, ram)
        return CoeffElem.o_term(cfg, abs_w, ram)
    val = base + grade
    if val >= abs_w:
        return CoeffElem.o_term(cfg, abs_w, ram)
    # divide by w^grade: digit i moves to (i - grade) mod ram with a pi shift
    out = [cfg.exa_zero()] * ram
    for i, d in enumerate(digits):
        if cfg.exa_is_zero(d):
            continue
        j = (i - grade) % ram
        k = (i - grade - j) // ram
        out[j] = cfg.exa_shift_pi(d, k) if k else d
    prec = abs_w - val if not _isinf(abs_w) else INF
    return CoeffElem(cfg, ram, val, prec, _reduce_digits(cfg, ram, out, prec))


def sum_products(cfg, ram, pairs, lone=()) -> CoeffElem:
    """The sum of the ``lone`` elements and of a*b over the (a, b) pairs,
    normalised once.

    Elements of a smaller ram are lifted with ``with_ram``.  Digit x of a
    times digit y of b sits at w^s = w^(s mod ram) * pi^(s div ram), and
    digit i of a lone element x at w^(v_x + i), so the exact sum is one
    sum per w-residue and needs no fold.  The absolute precision is the
    minimum over the terms: v_a + v_b + min(prec_a, prec_b) for a product,
    v + prec for a lone element.  Z_p sums raw ints at every ram
    (``_zp_sum_products``); GF(q) sums ``RatFunc``s, one ``exa_dot`` per
    w-residue, and normalises them with ``_normalize``.
    """
    if cfg.kind == "zp":
        return _zp_sum_products(cfg, ram, pairs, lone)
    abs_w = INF
    base = INF  # lowest pi power of a term
    terms = [[] for _ in range(ram)]
    for x in lone:
        if x.ram != ram:
            x = x.with_ram(ram)
        if x.zero:
            continue
        v = x.num_val
        if v + x.prec < abs_w:
            abs_w = v + x.prec
        if x.unit is None:
            continue
        if v // ram < base:
            base = v // ram
        for i, d in enumerate(x.unit):
            if cfg.exa_is_zero(d):
                continue
            s = v + i
            terms[s % ram].append((d, None, s // ram))
    for a, b in pairs:
        if a.ram != ram:
            a = a.with_ram(ram)
        if b.ram != ram:
            b = b.with_ram(ram)
        if a.zero or b.zero:
            continue
        v = a.num_val + b.num_val
        t = v + min(a.prec, b.prec)
        if t < abs_w:
            abs_w = t
        if a.unit is None or b.unit is None:
            continue
        if v // ram < base:
            base = v // ram
        if ram == 1:
            terms[0].append((a.unit[0], b.unit[0], v))
            continue
        ys = [(j, y) for j, y in enumerate(b.unit) if not cfg.exa_is_zero(y)]
        for i, x in enumerate(a.unit):
            if cfg.exa_is_zero(x):
                continue
            for j, y in ys:
                s = v + i + j
                terms[s % ram].append((x, y, s // ram))
    if _isinf(base):
        return CoeffElem.exact_zero(cfg, ram) if _isinf(abs_w) else CoeffElem.o_term(cfg, abs_w, ram)
    digits = [cfg.exa_dot((x, y, e - base) for x, y, e in t) for t in terms]
    return _normalize(cfg, ram, base * ram, digits, abs_w)


def series_product(cfg, ram, a, b, up, acc, sign) -> dict:
    """The digits of acc + sign * a * b, the product taken below u^up; sign
    is 1 or -1.

    ``a`` and ``b`` are the factor series, of this ram: their ``coeffs`` map
    exponents to nonzero ``CoeffElem``s.  ``acc`` maps exponents to nonzero
    ``CoeffElem``s of this ram and is not cut at up.  Returns a new dict:
    acc's exponents in acc's order, then the product's exponents k = i + j <
    up in first-seen order (i over a, j over b); a digit that cancels to an
    exact zero is left out.  Each digit is normalised once.  With no
    product exponent below up this is a copy of acc.  Over Z_p, at every
    ram, it is one Kronecker multiply of the two factors' packs, each built
    once per series (``_zp_pack``) and kept in its ``_pack`` slot.  GF(q)
    digits (``RatFunc``s) do not pack, so there every digit is one
    ``sum_products`` over the sparser factor, with acc's digit, where there
    is one, as its lone summand.
    """
    ca, cb = a.coeffs, b.coeffs
    keys = [k for k in dict.fromkeys([i + j for i in ca for j in cb]) if k < up]
    out = dict(acc)
    if not keys:
        return out
    if cfg.kind == "zp":
        # a series is never changed after it is built, so its pack stays valid
        for s in (a, b):
            if s._pack is None:
                s._pack = _zp_pack(cfg.p, ram, s.coeffs)
        _zp_kronecker(cfg, ram, a._pack, b._pack, keys, out, sign)
        return out
    sa, sb = (ca, cb) if len(ca) <= len(cb) else (cb, ca)
    if sign < 0:
        sa = {i: -x for i, x in sa.items()}
    for k in keys:
        lone = (out[k],) if k in out else ()
        c = sum_products(cfg, ram, ((x, sb[k - i]) for i, x in sa.items() if k - i in sb), lone)
        if c.zero:
            out.pop(k, None)
        else:
            out[k] = c
    return out


def _zp_pack(p, ram, coeffs):
    """A Z_p factor as the Kronecker product reads it: (ints, vals,
    inexact).

    ints is (W0, D, [(f, A)], i0, bits), None when no digit is known: D is
    the lcm of the unit digits' denominators (prime to p), W0 the lowest
    w-valuation, i0 the lowest exponent and bits the bit length of the
    largest |A|.  Unit digit t = num/den of the digit at u^i of valuation v
    is the term num/den * w^(v + t); with m = v - W0 + t it is A * w^W0 / D
    * w^(m mod ram) with A = num * (D/den) * p^(m div ram), and A goes to
    field f = (i - i0) * (2*ram - 1) + m mod ram.  vals is [(j, v_j)] over
    every digit, O-terms too, by exponent, and inexact is [(i, v_i +
    prec_i)] over the digits of finite precision."""
    vals, inexact, known = [], [], []
    v0 = i0 = None
    den = 1
    for i, c in coeffs.items():
        v = c.num_val
        vals.append((i, v))
        if c.prec != INF:
            inexact.append((i, v + c.prec))
        if c.unit is not None:
            if v0 is None or v < v0:
                v0 = v
            if i0 is None or i < i0:
                i0 = i
            for u in c.unit:  # unit digit t sits at w^(v + t)
                n, d = u.as_integer_ratio()
                known.append((i, v, n, d))
                if den % d:
                    den = math.lcm(den, d)
                v += 1
    vals.sort()
    if v0 is None:
        return None, vals, inexact
    xs, top = [], 0
    if ram == 1:  # residue 0 and field i - i0: A = num * (D/den) * p^(v - W0)
        for i, m, n, d in known:
            x = n * (den // d)
            if m != v0:
                x *= p ** (m - v0)
            xs.append((i - i0, x))
            if abs(x) > top:
                top = abs(x)
    else:
        for i, m, n, d in known:
            x = n * (den // d)
            if x:
                q, j = divmod(m - v0, ram)
                if q:
                    x *= p**q
                xs.append(((i - i0) * (2 * ram - 1) + j, x))
                if abs(x) > top:
                    top = abs(x)
    return (v0, den, xs, i0, top.bit_length()), vals, inexact


def _zp_kronecker(cfg, ram, pa, pb, keys, out, sign):
    """``series_product`` over Z_p, from the two factors' packs
    (``_zp_pack``): the packed ints are shifted into one int each, one
    multiply, signed fields unpacked with a borrow; each digit is added to
    out[k] over the lcm of the two denominators and normalised once, in
    place.

    Product digit k is the 2*ram - 1 fields C_(k, s) from field (k - k0) *
    (2*ram - 1), k0 = i0a + i0b: the residue vector R_j = C_(k, j) + p *
    C_(k, j + ram) (w^ram = p) times w^(W0a + W0b) / (Da*Db).  The absolute
    precision of product digit k is the minimum over i + j = k of v_i + v_j
    + min(prec_i, prec_j), over the pairs with an inexact factor; a key with
    none is exact.  Each pair is read from both sides, an inexact digit of
    one factor against every digit of the other, up to the last key, so the
    scan runs only when a factor has an inexact digit."""
    (ia, vals_a, inexact_a), (ib, vals_b, inexact_b) = pa, pb
    stride, last = 2 * ram - 1, max(keys)
    fields, k0, val0, den = [], 0, 0, 1
    if ia is not None and ib is not None:
        (va, da, xs, i0, bits_a), (vb, db, ys, j0, bits_b) = ia, ib
        # a field sums at most one term per entry of either factor
        width = bits_a + bits_b + min(len(xs), len(ys)).bit_length() + 2
        packed = 0
        for f, x in xs:
            packed += x << (width * f)
        other = 0
        for f, y in ys:
            other += y << (width * f)
        # the signed reading below holds for a negative product too
        packed *= other if sign > 0 else -other
        k0 = i0 + j0
        mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
        for _ in range((last - k0 + 1) * stride):
            c = packed & mask
            packed >>= width
            if c >= half:
                c -= full
                packed += 1
            fields.append(c)
        val0, den = va + vb, da * db
    # abs of digit k at precs[k - lo]: lo, the least i + j, is min(keys)
    lo = vals_a[0][0] + vals_b[0][0]
    span = last - lo + 1
    precs = [INF] * span
    for inexact, vals in ((inexact_a, vals_b), (inexact_b, vals_a)):
        for i, t in inexact:
            for j, v in vals:  # by exponent: the rest lies beyond the keys
                k = i + j - lo
                if k >= span:
                    break
                if t + v < precs[k]:
                    precs[k] = t + v
    p = cfg.p
    if ram > 1:  # w^ram = p: fields ram .. 2*ram - 2 of a key fold onto 0 .. ram - 2
        for f in range(0, len(fields), stride):
            for j in range(f, f + ram - 1):
                fields[j] += p * fields[j + ram]
    n, zeros = len(fields), [0] * ram
    for k in keys:
        if ram == 1:
            f = k - k0
            cs = [fields[f] if 0 <= f < n else 0]
        else:
            f = (k - k0) * stride
            cs = fields[f:f + ram] if 0 <= f < n else zeros
        abs_w = precs[k - lo]
        x = out.get(k)
        if x is None:
            d = _zp_digit(cfg, ram, cs, den, val0, abs_w)
        elif abs_w == INF and cs == zeros:
            continue  # an exact zero product digit leaves x as it is
        else:
            v = x.num_val
            if ram == 1:
                terms = [(cs[0], den, val0)]
                if x.unit is not None:
                    un, ud = x.unit[0].as_integer_ratio()
                    terms.append((un, ud, v))
            else:
                terms = []
                for j, c in enumerate(cs, val0):
                    terms.append((c, den, j))
                for j, u in enumerate(x.unit or (), v):
                    un, ud = u.as_integer_ratio()
                    terms.append((un, ud, j))
            d = _zp_sum(cfg, ram, terms, min(val0, v), min(abs_w, v + x.prec))
        if d.zero:
            out.pop(k, None)
        else:
            out[k] = d


def _zp_sum_products(cfg, ram, pairs, lone) -> CoeffElem:
    """``sum_products`` over Z_p: each product of unit digits x*y at
    w^(v_a + v_b + s + t), s and t their places, and each unit digit of a
    lone summand goes to the int running-lcm sum; no ``Fraction`` and no
    ``CoeffElem`` is built for a term."""
    abs_w = base = INF
    terms = []
    for x in lone:
        if x.ram != ram:
            x = x.with_ram(ram)  # raises below x's own ram
        if x.zero:
            continue
        v = x.num_val
        if v + x.prec < abs_w:
            abs_w = v + x.prec
        if x.unit is None:
            continue
        if v < base:
            base = v
        for u in x.unit:  # unit digit t sits at w^(v + t)
            n, d = u.as_integer_ratio()
            terms.append((n, d, v))
            v += 1
    for a, b in pairs:
        if a.ram != ram:
            a = a.with_ram(ram)
        if b.ram != ram:
            b = b.with_ram(ram)
        if a.zero or b.zero:
            continue
        v = a.num_val + b.num_val
        t = v + min(a.prec, b.prec)
        if t < abs_w:
            abs_w = t
        if a.unit is None or b.unit is None:
            continue
        if v < base:
            base = v
        if ram == 1:
            (xn, xd), (yn, yd) = a.unit[0].as_integer_ratio(), b.unit[0].as_integer_ratio()
            terms.append((xn * yn, xd * yd, v))
            continue
        ys = [(t, y.as_integer_ratio()) for t, y in enumerate(b.unit, v) if y]
        for s, x in enumerate(a.unit):
            if x:
                xn, xd = x.as_integer_ratio()
                for t, (yn, yd) in ys:
                    terms.append((xn * yn, xd * yd, s + t))
    return _zp_sum(cfg, ram, terms, base, abs_w)


def _zp_sum(cfg, ram, terms, base, abs_w) -> CoeffElem:
    """The Z_p element sum n/d * w^e over (n, d, e) int triples, d prime to
    p and e >= base, at absolute precision abs_w: ints over a running lcm
    of the denominators, one per w-residue, at w^base."""
    if not terms:
        return CoeffElem.exact_zero(cfg, ram) if abs_w == INF else CoeffElem.o_term(cfg, abs_w, ram)
    nums, den = _lcm_sum(cfg.p, ram, terms, base)
    return _zp_digit(cfg, ram, nums, den, base, abs_w)


def _lcm_sum(p, ram, terms, base):
    """(nums, den) with sum_j nums[j] w^j / den = sum n/d * w^(e - base)
    over (n, d, e) int triples with d > 0 and e >= base, where w^ram = p:
    ints over a running lcm of the denominators."""
    if ram == 1:
        num, den = 0, 1
        for n, d, v in terms:
            if v != base:
                n *= p ** (v - base)
            if d == den:
                num += n
            else:
                g = math.gcd(den, d)
                num = num * (d // g) + n * (den // g)
                den *= d // g
        return [num], den
    nums, den = [0] * ram, 1
    for n, d, e in terms:
        q, j = divmod(e - base, ram)
        if q:
            n *= p**q
        if d == den:
            nums[j] += n
        else:
            g = math.gcd(den, d)
            if g != d:
                f = d // g
                for t in range(ram):
                    nums[t] *= f
                den *= f
            nums[j] += n * (den // d)
    return nums, den


def _zp_digit(cfg, ram, cs, den, val, abs_w) -> CoeffElem:
    """The Z_p element w^val / den * sum_j cs[j] w^j (den prime to p) at
    absolute precision abs_w, from the int residue vector cs of length ram.

    Its grade is the minimum over j of ram * v_p(cs[j]) + j; the valuation
    is val + grade, and dividing by w^grade moves cs[j] to place (j -
    grade) mod ram times p^((j - grade) div ram), an exact division.  The
    residue of least grade is stripped of p on the way and becomes unit
    digit 0.  Each unit digit is the exact ``Fraction`` or, at finite
    abs_w, its int residue mod p^ceil((prec - t)/ram), prec = abs_w - val -
    grade.  At ram 1 this is: strip p from the one residue c once, then the
    ``Fraction`` c/den or the int residue mod p^(abs_w - val)."""
    p = cfg.p
    if ram == 1:
        c = cs[0]
        if c == 0:
            return CoeffElem.exact_zero(cfg) if abs_w == INF else CoeffElem.o_term(cfg, abs_w)
        while c % p == 0:
            c //= p
            val += 1
        if abs_w == INF:
            return CoeffElem(cfg, 1, val, INF, (Fraction(c, den) if den != 1 else Fraction(c),))
        if val >= abs_w:
            return CoeffElem.o_term(cfg, abs_w)
        m = p ** (abs_w - val)
        unit = c * pow(den, -1, m) if den != 1 else c
        return CoeffElem(cfg, 1, val, abs_w - val, (unit % m,))
    grade = None
    for j, c in enumerate(cs):
        if not c:
            continue
        g = j
        if grade is None:
            while c % p == 0:
                c //= p
                g += ram
        else:
            while g < grade and c % p == 0:
                c //= p
                g += ram
            if g >= grade:
                continue
        grade, low = g, c
    if grade is None:
        return CoeffElem.exact_zero(cfg, ram) if abs_w == INF else CoeffElem.o_term(cfg, abs_w, ram)
    val += grade
    if val >= abs_w:
        return CoeffElem.o_term(cfg, abs_w, ram)
    q, r = divmod(grade, ram)
    pq = p**q
    prec = abs_w - val
    if prec != INF:
        inv = pow(den, -1, p ** -(-prec // ram)) if den != 1 else 1  # digit 0 has the largest modulus
    out = []
    for t in range(ram):
        j = r + t
        n = low if not t else cs[j] // pq if j < ram else cs[j - ram] // (pq * p)
        if prec == INF:
            out.append(Fraction(n, den) if n else _ZERO)
        else:
            e = -((t - prec) // ram)  # ceil((prec - t)/ram)
            out.append(n * inv % p**e if e > 0 else 0)
    return CoeffElem(cfg, ram, val, prec, tuple(out))


def _unit_poly_inverse(cfg, ram, digits):
    """Exact inverse of a unit digit vector in K[w]/(w^ram - pi).

    Solved as a ram x ram linear system over the exact field.
    """
    if ram == 1:
        return (cfg.exa_inv(digits[0]),)
    # columns: digit vectors of U * w^j
    cols = []
    for j in range(ram):
        col = [cfg.exa_zero()] * (2 * ram - 1)
        for i, d in enumerate(digits):
            col[i + j] = d
        cols.append(_fold(cfg, ram, col))
    # Gaussian elimination on [A | e0]
    A = [[cols[j][i] for j in range(ram)] for i in range(ram)]
    rhs = [cfg.exa_one()] + [cfg.exa_zero()] * (ram - 1)
    for c in range(ram):
        piv = next((r for r in range(c, ram) if not cfg.exa_is_zero(A[r][c])), None)
        if piv is None:
            raise NotInvertible("digit vector is not invertible")
        A[c], A[piv] = A[piv], A[c]
        rhs[c], rhs[piv] = rhs[piv], rhs[c]
        inv_p = cfg.exa_inv(A[c][c])
        A[c] = [inv_p * x for x in A[c]]
        rhs[c] = inv_p * rhs[c]
        for r in range(ram):
            if r != c and not cfg.exa_is_zero(A[r][c]):
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
                rhs[r] = rhs[r] - f * rhs[c]
    return tuple(rhs)
