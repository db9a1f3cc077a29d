"""Truncated elements of the slope-nu series rings and their arithmetic.

An ``SnuSeries`` is a finite piece of  x = sum a_i u^i  with coefficients in
K (or K' = K[w], w^ram = pi):

* ``coeffs``      maps exponents to nonzero ``CoeffElem``s; an absent key
  below ``u_prec`` is an exact zero;
* ``u_prec``      exponents >= u_prec are unknown (INF for polynomials);
* ``tail_bound``  certified lower bound on v(a_i) + nu*i over the unknown
  exponents -- the membership certificate that makes valuation and
  Weierstrass-degree branching sound.  A plain element of the slope ring has
  tail_bound >= 0; tail_bound -lam/alpha encodes membership in w^lam-shifted
  copies.

The Gauss valuation of a truncation is only an upper bound for the valuation
of the underlying element; operations that branch on v_nu or deg_W therefore
demand a *certified* reading: a witness digit attains the visible minimum
and every unknown piece (imprecise digits and the tail) provably cannot go
below it.  ``certified_val_deg`` implements exactly that check.

Levels are compared as integer keys.  The level of a digit c at u^i is
v(c) + nu*i with v(c) = num_val/ram (a lower bound for an O-term) and nu =
beta/alpha, so ram*alpha times it is the int num_val*alpha + ram*beta*i
(``level_key``).  The level readers (``lower_bound``, the visible and
certified readings, ``truncate_u``) and the level-zero filters of the unit
inverses compare keys and build a ``Fraction`` only for a level they return.

Exponents may be negative (Laurent windows for the u-localization); the
operations specific to the non-localized ring assert non-negative support.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from .coeffs import INF, CoeffElem, _isinf, _zp_digit, series_product, sum_products
from .contfrac import Slope
from .errors import (
    BadParameters,
    CertificateViolation,
    ConfigMismatch,
    NotDistinguished,
    NotDistinguishedCertificate,
    NotDivisible,
    NotUnit,
    NotUnitDegree,
    NonTermination,
    OutOfRange,
    PrecisionExhausted,
    RequiresExactInput,
    SlopeMismatch,
    ValuationOrder,
)


def _ceil(x) -> int:
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


def _floor(x) -> int:
    x = Fraction(x)
    return x.numerator // x.denominator


class SnuSeries:
    # every attribute is set here once and never changed, so ``_pack``, the
    # Z_p Kronecker operand that ``coeffs.series_product`` builds from coeffs
    # on first use, stays valid for the life of the series
    __slots__ = ("cfg", "slope", "ram", "coeffs", "u_prec", "tail_bound", "_pack")

    def __init__(self, cfg, slope: Slope, coeffs, u_prec=INF, tail_bound=None, ram=None):
        self.cfg = cfg
        self.slope = slope
        # one pass of attribute reads: most series hold 0-2 digits, where a
        # comprehension or a per-digit method call costs more than the loop
        clean = {}
        r = ram
        for i, c in coeffs.items():
            if not c.zero:
                clean[i] = c
                if c.ram != r:
                    if r is not None:
                        raise ValueError("mixed ram indices in one series")
                    r = c.ram
        if clean and u_prec != INF and max(clean) >= u_prec:
            raise ValueError("stored exponent beyond u_prec")
        self.ram = 1 if r is None else r
        self.coeffs = clean
        if not _isinf(u_prec) and tail_bound is not None and _isinf(tail_bound):
            u_prec = INF  # an infinite tail bound means the tail is exactly 0
        self.u_prec = u_prec
        if _isinf(u_prec):
            self.tail_bound = INF
        elif tail_bound is None:
            self.tail_bound = Fraction(0)
        else:
            self.tail_bound = tail_bound
        self._pack = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, cfg, slope, ram=1):
        return cls(cfg, slope, {}, INF, ram=ram)

    @classmethod
    def one(cls, cfg, slope, ram=1):
        return cls(cfg, slope, {0: CoeffElem.from_int(cfg, 1, ram=ram)})

    @classmethod
    def monomial(cls, cfg, slope, exp: int, coeff: CoeffElem):
        return cls(cfg, slope, {exp: coeff})

    @classmethod
    def from_int_terms(cls, cfg, slope, terms, prec=INF, ram=1):
        """terms: iterable of (exponent, integer) pairs."""
        coeffs = {}
        for i, n in terms:
            c = CoeffElem.from_int(cfg, n, ram=ram, prec=prec)
            coeffs[i] = coeffs[i] + c if i in coeffs else c
        return cls(cfg, slope, coeffs)

    # -- basic views ---------------------------------------------------------

    @property
    def nu(self) -> Fraction:
        return self.slope.nu

    def coeff(self, i: int) -> CoeffElem:
        c = self.coeffs.get(i)
        if c is not None:
            return c
        return CoeffElem.exact_zero(self.cfg, self.ram)

    def is_polynomial(self) -> bool:
        return _isinf(self.u_prec)

    def is_exact(self) -> bool:
        return self.is_polynomial() and all(c.is_exact() for c in self.coeffs.values())

    def is_exact_zero(self) -> bool:
        return self.is_polynomial() and not self.coeffs

    def has_certain_digit(self) -> bool:
        """Some stored digit is certainly nonzero: the series is not zero."""
        return any(c.has_witness() for c in self.coeffs.values())

    def max_deg(self):
        return max(self.coeffs) if self.coeffs else None

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else None

    def level_key(self, i: int, c: CoeffElem) -> int:
        """ram*alpha times the level v(c) + nu*i of the digit c at u^i, an
        int (see the module docstring); ``_level`` turns it back."""
        return c.num_val * self.slope.alpha + self.ram * self.slope.beta * i

    def _level(self, key: int) -> Fraction:
        return Fraction(key, self.ram * self.slope.alpha)

    def _visible_min(self):
        """(key, i) of the lowest-level certain digit, the smallest i on a
        tie; None when no digit is certain."""
        return min(
            ((self.level_key(i, c), i) for i, c in self.coeffs.items() if c.has_witness()),
            default=None,
        )

    def lower_bound(self) -> Fraction:
        """Certified lower bound for v_nu of the underlying element."""
        if not self.coeffs:
            return self.tail_bound
        key = min(self.level_key(i, c) for i, c in self.coeffs.items())
        return min(self.tail_bound, self._level(key))

    # -- certified readings ---------------------------------------------------

    def visible_valuation(self):
        """Gauss valuation of the truncated representative (INF if it has
        no certain nonzero digit).  Upper bound for the true valuation."""
        m = self._visible_min()
        return INF if m is None else self._level(m[0])

    def certified_val_deg(self):
        """(v_nu, deg_W) of the underlying element, or raise.

        Certification: some witness digit attains the visible minimum v;
        every imprecise digit at a smaller exponent is provably above v,
        every other imprecise digit and the unknown tail provably at or
        above v.  Exact zero raises NotDistinguishedCertificate as well.
        """
        m = self._visible_min()
        if m is None:
            if self.is_exact_zero():
                raise NotDistinguishedCertificate("exact zero has no Weierstrass data")
            raise PrecisionExhausted("no certain digit to anchor the valuation")
        vk, d = m
        v = self._level(vk)
        if self.tail_bound < v:
            raise PrecisionExhausted(
                f"tail bound {self.tail_bound} cannot rule out terms below {v}"
            )
        for i, c in self.coeffs.items():
            if c.has_witness():
                continue
            lk = self.level_key(i, c)
            if lk < vk or (lk == vk and i < d):
                raise PrecisionExhausted(
                    f"imprecise digit at u^{i} could change the valuation data"
                )
        return v, d

    def certified_valuation(self):
        """v_nu of the underlying element, certified (degree not needed:
        imprecise digits may tie the minimum as long as they cannot go
        below it)."""
        m = self._visible_min()
        if m is None:
            if self.is_exact_zero():
                return INF
            raise PrecisionExhausted("no certain digit to anchor the valuation")
        vk = m[0]
        v = self._level(vk)
        if self.tail_bound < v:
            raise PrecisionExhausted(
                f"tail bound {self.tail_bound} cannot rule out terms below {v}"
            )
        for i, c in self.coeffs.items():
            if not c.has_witness() and self.level_key(i, c) < vk:
                raise PrecisionExhausted(
                    f"imprecise digit at u^{i} could lower the valuation"
                )
        return v

    # -- structural equality ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SnuSeries):
            return NotImplemented
        return (
            self.slope == other.slope
            and self.ram == other.ram
            and self.u_prec == other.u_prec
            and self.tail_bound == other.tail_bound
            and self.coeffs == other.coeffs
        )

    def digits_agree(self, other: "SnuSeries") -> bool:
        """No digit that both sides claim to know disagrees."""
        return not (self - other).has_certain_digit()

    # -- rescaling helpers -------------------------------------------------------

    def with_ram(self, ram: int) -> "SnuSeries":
        if ram == self.ram:
            return self
        return SnuSeries(
            self.cfg,
            self.slope,
            {i: c.with_ram(ram) for i, c in self.coeffs.items()},
            self.u_prec,
            self.tail_bound,
            ram=ram,
        )

    def map_coeffs(self, fn) -> "SnuSeries":
        return SnuSeries(
            self.cfg,
            self.slope,
            {i: fn(i, c) for i, c in self.coeffs.items()},
            self.u_prec,
            self.tail_bound,
            ram=self.ram,
        )

    def scale_pi(self, j: int) -> "SnuSeries":
        """Multiply by pi^j (exact, any sign)."""
        tb = None if _isinf(self.u_prec) else self.tail_bound + j
        return SnuSeries(
            self.cfg, self.slope, {i: c.scale_pi(j) for i, c in self.coeffs.items()},
            self.u_prec, tb, ram=self.ram,
        )

    def scale_coeff(self, k: CoeffElem) -> "SnuSeries":
        if k.is_exact_zero():
            return SnuSeries.zero(self.cfg, self.slope, self.ram)
        tb = None if _isinf(self.u_prec) else self.tail_bound + k.val_lower()
        return SnuSeries(
            self.cfg, self.slope, {i: c * k for i, c in self.coeffs.items()},
            self.u_prec, tb, ram=self.ram,
        )

    def shift_u(self, j: int) -> "SnuSeries":
        """Multiply by u^j (j may be negative when the support allows)."""
        coeffs = {i + j: c for i, c in self.coeffs.items()}
        up = self.u_prec if _isinf(self.u_prec) else self.u_prec + j
        tb = None if _isinf(self.u_prec) else self.tail_bound + self.nu * j
        return SnuSeries(self.cfg, self.slope, coeffs, up, tb, ram=self.ram)

    def truncate_u(self, p: int) -> "SnuSeries":
        """Forget all coefficients at exponents >= p."""
        if p >= self.u_prec:
            return self
        coeffs = {}
        dropped = INF
        for i, c in self.coeffs.items():
            if i < p:
                coeffs[i] = c
            else:
                dropped = min(dropped, self.level_key(i, c))
        tb = self.tail_bound if _isinf(dropped) else min(self.tail_bound, self._level(dropped))
        # tb stays INF only when nothing unknown was dropped (a polynomial
        # truncated beyond its degree): the tail is then exactly zero.
        return SnuSeries(self.cfg, self.slope, coeffs, p, tb, ram=self.ram)

    def split_levels(self, bound):
        """(low, high) with self = low + high: low carries the certain
        digits of level < bound (exactly known support), high the rest."""
        lows, highs = {}, {}
        a = self.ram
        for i, c in self.coeffs.items():
            cut = _ceil(a * (bound - self.nu * i))
            lo, hi = c.split_at_abs_w(cut)
            if not lo.is_exact_zero():
                lows[i] = lo
            if not hi.is_exact_zero():
                highs[i] = hi
        low = SnuSeries(self.cfg, self.slope, lows, INF, ram=a)
        high = SnuSeries(self.cfg, self.slope, highs, self.u_prec, self.tail_bound, ram=a)
        return low, high

    def reduce_levels(self, bound) -> "SnuSeries":
        """Cap knowledge at level ``bound``: digit i keeps only what lies
        below level bound, the rest is folded into imprecision."""
        if _isinf(bound):
            return self
        a = self.ram

        def red(i, c):
            abs_w = _ceil(a * (bound - self.nu * i))
            return c.reduce_abs_w(abs_w)

        coeffs = {i: red(i, c) for i, c in self.coeffs.items()}
        up = self.u_prec
        tb = min(self.tail_bound, bound)
        if _isinf(up):
            # a level cap on a polynomial leaves the support exact
            return SnuSeries(self.cfg, self.slope, coeffs, INF, None, ram=a)
        return SnuSeries(self.cfg, self.slope, coeffs, up, tb, ram=a)

    # -- ring operations -----------------------------------------------------

    def _check_compat(self, other: "SnuSeries"):
        if self.slope is not other.slope and self.slope != other.slope:
            raise SlopeMismatch(f"slopes {self.slope} vs {other.slope}")
        if self.cfg is not other.cfg and not self.cfg.same_ring(other.cfg):
            raise ConfigMismatch(f"mixed coefficient rings {self.cfg!r} / {other.cfg!r}")

    def __add__(self, other: "SnuSeries") -> "SnuSeries":
        self._check_compat(other)
        a, b = self, other
        if a.ram != b.ram:
            r = max(a.ram, b.ram)
            a, b = a.with_ram(r), b.with_ram(r)
        up = min(a.u_prec, b.u_prec)
        if not _isinf(up):
            a, b = a.truncate_u(up), b.truncate_u(up)
        coeffs = dict(a.coeffs)
        for i, c in b.coeffs.items():
            coeffs[i] = coeffs[i] + c if i in coeffs else c
        tb = None if _isinf(up) else min(a.tail_bound, b.tail_bound)
        return SnuSeries(a.cfg, a.slope, coeffs, up, tb, ram=a.ram)

    def __neg__(self) -> "SnuSeries":
        return self.map_coeffs(lambda i, c: -c)

    def __sub__(self, other: "SnuSeries") -> "SnuSeries":
        return self + (-other)

    def __mul__(self, other: "SnuSeries") -> "SnuSeries":
        """self*other; by a factor c*u^j with c exact and u_prec INF it is
        one coefficient product per digit of the other factor."""
        return _mul_acc(None, 1, self, other)

    def addmul(self, sign, x: "SnuSeries", y: "SnuSeries") -> "SnuSeries":
        """self + sign*x*y for sign 1 or -1: the series self + x*y or
        self - x*y, in one pass that normalises each digit once."""
        return _mul_acc(self, sign, x, y)

    def __repr__(self):
        return self.render()

    def render(self) -> str:
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i].render()
            if "+" in c or "-" in c[1:] or " " in c:
                c = f"({c})"
            if i == 0:
                parts.append(c)
            else:
                head = "u" if i == 1 else f"u^{i}"
                parts.append(head if c == "1" else f"{c}*{head}")
        body = " + ".join(parts) if parts else "0"
        if not _isinf(self.u_prec):
            body += f" + O(u^{self.u_prec})"
        return body


def _mul_acc(acc, sign, x: SnuSeries, y: SnuSeries) -> SnuSeries:
    """acc + sign*x*y (acc None: the product alone), the same series as the
    product followed by the sum: every digit, u_prec and tail_bound.

    The product is known below up_p; the sum below the smaller of up_p and
    acc.u_prec, and the digits it drops there (of acc or of the product,
    never of both) lower its tail bound by their levels, as truncate_u
    does.  An exact-zero factor (no digit, u_prec INF) makes the product
    the exact zero, known at every exponent: the sum is acc itself, with no
    digit dropped and its tail bound kept, so it is returned as it is.
    With no acc, a factor that is one exact digit c at u^j with u_prec INF
    makes each digit of the product one coefficient product d*c
    (``_monomial_product``); every other product is ``series_product``.
    """
    x._check_compat(y)
    ram = max(x.ram, y.ram)
    if acc is not None:
        acc._check_compat(x)
        ram = max(ram, acc.ram)
        acc = acc.with_ram(ram)
    x, y = x.with_ram(ram), y.with_ram(ram)
    if not x.coeffs and _isinf(x.u_prec) or not y.coeffs and _isinf(y.u_prec):
        return SnuSeries(x.cfg, x.slope, {}, INF, ram=ram) if acc is None else acc
    # exponent k is reliable while no unknown-tail term can reach it:
    # unknown(x) * stored(y) lands at >= x.u_prec + min supp(y), etc.
    lo_x = min(x.coeffs, default=x.u_prec)
    lo_y = min(y.coeffs, default=y.u_prec)
    up_p = min(x.u_prec + lo_y, y.u_prec + lo_x)
    coeffs = None if acc is not None else _monomial_product(x, y)
    if coeffs is None:
        coeffs = series_product(x.cfg, ram, x, y, up_p, {} if acc is None else acc.coeffs, sign)
    # unknown(x)*y + x*unknown(y) (+ unknown*unknown, dominated)
    tb = INF if _isinf(up_p) else min(x.tail_bound + y.lower_bound(), x.lower_bound() + y.tail_bound)
    up = up_p if acc is None else min(acc.u_prec, up_p)
    if _isinf(up):
        return SnuSeries(x.cfg, x.slope, coeffs, INF, None, ram=ram)
    if acc is not None:
        tb = min(acc.tail_bound, tb)
        dropped = [acc.level_key(i, c) for i, c in coeffs.items() if i >= up]
        if dropped:
            tb = min(tb, acc._level(min(dropped)))
            coeffs = {i: c for i, c in coeffs.items() if i < up}
    return SnuSeries(x.cfg, x.slope, coeffs, up, tb, ram=ram)


def _monomial_product(x: SnuSeries, y: SnuSeries):
    """The digits of x*y when one factor is c*u^j with c exact and nothing
    unknown: d*c at u^(i+j) for each digit d at u^i of the other factor,
    one coefficient product per digit as in ``scale_coeff``, with no pack
    built; None when neither factor is such a monomial."""
    for m, other in ((y, x), (x, y)):
        if len(m.coeffs) == 1 and _isinf(m.u_prec):
            ((j, c),) = m.coeffs.items()
            if _isinf(c.prec):
                return {i + j: d * c for i, d in other.coeffs.items()}
    return None


def hi_lo_split(x: SnuSeries, d: int):
    """(Lo(x,d), Hi(x,d)) with x = Lo + Hi and deg Lo < d."""
    if d < 0 or d > x.u_prec:
        raise OutOfRange(f"split point {d} outside [0, {x.u_prec}]")
    lo = SnuSeries(
        x.cfg, x.slope, {i: c for i, c in x.coeffs.items() if i < d}, INF, ram=x.ram
    )
    hi = SnuSeries(
        x.cfg,
        x.slope,
        {i: c for i, c in x.coeffs.items() if i >= d},
        x.u_prec,
        x.tail_bound,
        ram=x.ram,
    )
    return lo, hi


def divide_by_unit(z: SnuSeries, x: SnuSeries, u_prec) -> SnuSeries:
    """y with x*y = z, for x of certified Weierstrass degree 0 and
    v_nu(x) <= v_nu(z).

    Coefficient recurrence b_j = a_0^{-1} (c_j - sum a_i b_{j-i}); the
    output is known below the u-exponent min(u_prec, z.u_prec, x.u_prec),
    so u_prec = INF keeps the inputs' own window.  A polynomial z over a
    single-digit x gives the exact polynomial z/a_0; over any other
    polynomial x it needs a finite u_prec.  Both unit inverses,
    invert_unit and localized.u_invert_unit, start from this recurrence on
    the unit's level-0 part.
    """
    x._check_compat(z)
    try:
        vx, dx = x.certified_val_deg()
    except NotDistinguishedCertificate:
        raise NotUnitDegree("divisor has no certified Weierstrass data")
    if dx != 0:
        raise NotUnitDegree(f"divisor has Weierstrass degree {dx} != 0")
    lz = z.lower_bound()
    if lz < vx:
        vz = z.visible_valuation()
        if not _isinf(vz) and vz < vx:
            raise NotDivisible(f"v_nu(z) = {vz} < v_nu(x) = {vx}")
        raise PrecisionExhausted("cannot certify v_nu(z) >= v_nu(x)")
    if z.min_exp() is not None and z.min_exp() < 0 or (x.min_exp() or 0) < 0:
        raise BadParameters("divide_by_unit expects non-negative supports")
    a0_inv = x.coeff(0).inv()
    xs = [i for i in x.coeffs if i > 0]
    if not xs and z.is_polynomial():
        # single-digit divisor: the quotient is the exact polynomial z/a_0
        return z.scale_coeff(a0_inv)
    cap = min(u_prec, z.u_prec, x.u_prec)
    if _isinf(cap):
        if not xs:
            cap = z.u_prec  # finite: z not polynomial here
        else:
            raise BadParameters("series division of exact polynomials needs a u-precision cap")
    ram = max(z.ram, x.ram)
    neg_x = [(i, (-x.coeffs[i]).with_ram(ram)) for i in xs]
    b: dict = {}
    for j in range(cap):
        lone = (z.coeffs[j],) if j in z.coeffs else ()
        acc = sum_products(z.cfg, ram, ((c, b[j - i]) for i, c in neg_x if j - i in b), lone)
        bj = acc * a0_inv
        if not bj.is_exact_zero():
            b[j] = bj
    return SnuSeries(z.cfg, z.slope, b, cap, lz - vx, ram=ram)


def invert_unit(x: SnuSeries, n) -> SnuSeries:
    """y with x*y = 1 modulo terms of Gauss valuation >= n.

    Requires a certified unit (deg_W = 0 and v_nu = 0).  Residue step
    inverts the valuation-zero part, then Newton doubling y <- y + y(1-xy)
    until every certain digit of 1 - x*y sits at valuation >= n.
    """
    try:
        vx, dx = x.certified_val_deg()
    except (PrecisionExhausted, NotDistinguishedCertificate) as e:
        raise NotUnit(str(e))
    if dx != 0 or vx != 0:
        raise NotUnit(f"v_nu = {vx}, deg_W = {dx}: not a unit")
    cap = x.u_prec
    if _isinf(cap):
        d_max = x.max_deg() or 0
        cap = (d_max + 1) * (max(1, _ceil(Fraction(n) * x.slope.alpha)) + 1) + 8
    level0 = SnuSeries(
        x.cfg,
        x.slope,
        {i: c for i, c in x.coeffs.items() if c.has_witness() and x.level_key(i, c) == 0},
        ram=x.ram,
    )
    y = divide_by_unit(SnuSeries.one(x.cfg, x.slope, ram=x.ram), level0, u_prec=cap)
    budget = 2 * (_ceil(Fraction(n) * x.slope.alpha).bit_length() + 2)
    return _newton_refine(x.truncate_u(cap), y, n, INF, budget)


def _newton_refine(x: SnuSeries, y: SnuSeries, n, window, budget: int) -> SnuSeries:
    """Newton steps y <- y + y(1 - x*y), every result cut below the
    u-exponent ``window`` (INF: no cut), until each certain digit of 1 - x*y
    has level >= n; PrecisionExhausted after ``budget`` steps.  The one
    refinement loop of invert_unit and localized.u_invert_unit, both of
    which start y from the divide_by_unit recurrence on x's level-0 part.
    With a finite window a step leaves out the digits of 1 - x*y at u^<0
    already at level >= n, which would only push y's support down."""
    one = SnuSeries.one(x.cfg, x.slope, ram=x.ram)
    steps = 0
    while True:
        e = one.addmul(-1, x, y).truncate_u(window)
        ve = e.visible_valuation()
        if _isinf(ve) or ve >= n:
            return y
        if steps == budget:
            raise PrecisionExhausted(
                f"unit inversion used its budget of {budget} Newton steps "
                f"and reached level {ve} < {n}"
            )
        if not _isinf(window):
            nk = n * e.ram * e.slope.alpha  # the level n as a level_key
            low = {i: c for i, c in e.coeffs.items() if i >= 0 or e.level_key(i, c) < nk}
            e = SnuSeries(e.cfg, e.slope, low, e.u_prec, e.tail_bound, ram=e.ram)
        y = y.addmul(1, y, e).truncate_u(window)
        steps += 1


class DivisionResult:
    __slots__ = ("q", "r", "loops")

    def __init__(self, q, r, loops):
        self.q = q
        self.r = r
        self.loops = loops

    def scale_pi(self, j: int) -> "DivisionResult":
        """The division of pi^j y: quotient and remainder times pi^j."""
        return DivisionResult(self.q.scale_pi(j), self.r.scale_pi(j), self.loops)


def euclid_div_full(y: SnuSeries, x: SnuSeries, prec) -> DivisionResult:
    """Division y = q*x + r with deg r < deg_W(x), up to v_nu >= prec.

    Iterates q += Hi(r,d)/Hi(x,d), r -= (Hi(r,d)/Hi(x,d))*x; each pass gains
    e = v_nu(Lo(x,d)) - v_nu(Hi(x,d)) > 0, so the loop count is bounded by
    ceil((prec - v_nu(Hi(y,d)))/e).  When Lo(x,d) = 0 exactly the division
    is a single unit division (x is a unit times u^d).
    """
    x._check_compat(y)
    prec = Fraction(prec)
    try:
        vx, d = x.certified_val_deg()
    except (PrecisionExhausted, NotDistinguishedCertificate) as e:
        raise NotDistinguishedCertificate(str(e))
    ly = y.lower_bound()
    if ly < vx:
        vy = y.visible_valuation()
        if not _isinf(vy) and vy < vx:
            raise ValuationOrder(f"v_nu(y) = {vy} < v_nu(x) = {vx}")
        raise PrecisionExhausted("cannot certify v_nu(y) >= v_nu(x)")
    nu = x.nu
    lo_x, hi_x = hi_lo_split(x, d)
    if lo_x.is_exact_zero():
        # degenerate: x = u^d * unit, one exact division step
        w = hi_x.shift_u(-d)
        lo_y, hi_y = hi_lo_split(y, d)
        cap = min(y.u_prec, x.u_prec)
        if _isinf(cap):
            cap = 2 * d + 8
        q = divide_by_unit(hi_y.shift_u(-d), w, u_prec=cap)
        return DivisionResult(q, lo_y, 0)
    try:
        v_lo, _ = lo_x.certified_val_deg()
    except (PrecisionExhausted, NotDistinguishedCertificate):
        raise PrecisionExhausted("Lo(x, d) has no certified valuation: e is unknown")
    e = v_lo - vx
    if e <= 0:
        raise CertificateViolation(f"v_nu(Lo(x, d)) - v_nu(x) = {e} is not positive")
    hi_y = hi_lo_split(y, d)[1]
    v_hi_y = hi_y.lower_bound()
    loops_max = max(0, _ceil((prec - min(v_hi_y, Fraction(0))) / e)) + 1
    cap = min(y.u_prec, x.u_prec)
    if _isinf(cap):
        cap = d * (loops_max + 2) + 8
    w = hi_x.shift_u(-d)  # unit of degree 0
    xt = x.truncate_u(cap)
    q = SnuSeries.zero(y.cfg, y.slope, ram=max(x.ram, y.ram))
    r = y.truncate_u(cap)
    loops = 0
    exact_finish = False
    while True:
        hi_r = hi_lo_split(r, d)[1]
        if hi_r.is_exact_zero():
            exact_finish = True
            break
        v_hi = hi_r.visible_valuation()
        if _isinf(v_hi) or v_hi >= prec:
            break
        if loops > loops_max + 2:
            raise NonTermination("euclidean division loop exceeded its bound")
        t = divide_by_unit(hi_r.shift_u(-d), w, u_prec=cap)
        q = q + t
        r = r.addmul(-1, t, xt)
        loops += 1
    if not exact_finish:
        q = q.reduce_levels(prec - vx)
        r_out = hi_lo_split(r, d)[0].reduce_levels(prec)
    else:
        r_out = hi_lo_split(r, d)[0]
    return DivisionResult(q, r_out, loops)


def euclid_div(y: SnuSeries, x: SnuSeries, prec):
    res = euclid_div_full(y, x, prec)
    return res.q, res.r


def _pi_shift_divide(divide, y: SnuSeries, x: SnuSeries, *args, vx=None):
    """``divide(y, x, *args)`` for a dividend of any level: y is raised by
    the least pi^s, s = max(0, ceil(v_nu(x) - lower_bound(y))), that
    certifies v_nu(pi^s y) >= v_nu(x), as ``divide_by_unit``,
    ``euclid_div_full`` and ``localized.u_divide`` require, and the result
    (a quotient, or a DivisionResult) is shifted back by pi^-s.  ``vx``
    is v_nu(x) when the caller already holds it."""
    s = max(0, _ceil((x.certified_valuation() if vx is None else vx) - y.lower_bound()))
    return divide(y.scale_pi(s), x, *args).scale_pi(-s)


def weierstrass_prep(x: SnuSeries, prec):
    """x = q*h with q invertible and h = u^d/pi^(nu d) + lower terms, all of
    strictly positive level.  Requires certified v_nu(x) = 0."""
    try:
        vx, d = x.certified_val_deg()
    except (PrecisionExhausted, NotDistinguishedCertificate) as e:
        raise NotDistinguished(str(e))
    if vx != 0:
        raise NotDistinguished(f"v_nu(x) = {vx} != 0")
    nu_d = x.nu * d
    if nu_d.denominator != 1:
        raise NotDistinguished("d * nu is not an integer")
    m = SnuSeries.monomial(
        x.cfg, x.slope, d, CoeffElem.from_int(x.cfg, 1, ram=x.ram).scale_pi(-int(nu_d))
    )
    res = euclid_div_full(m, x, prec)
    h = m - res.r
    q_unit = invert_unit(res.q, prec)
    return q_unit, h


def slope_transport(x: SnuSeries, target: Slope) -> SnuSeries:
    """The coefficientwise isomorphism from slope 0 to slope nu = beta/alpha
    (u maps to u/w^beta): a_i gains w^(-beta i).  Preserves Gauss valuation
    and Weierstrass degree."""
    if x.slope != Slope(0, 1):
        raise SlopeMismatch("slope transport starts from slope 0")
    alpha, beta = target.alpha, target.beta
    xr = x.with_ram(alpha)
    coeffs = {i: c.scale_w(-beta * i) for i, c in xr.coeffs.items()}
    tb = None
    if not _isinf(xr.u_prec):
        tb = xr.tail_bound  # v0 levels equal vnu levels under the transport
    return SnuSeries(x.cfg, target, coeffs, xr.u_prec, tb, ram=alpha)


# ---------------------------------------------------------------------------
# exact polynomial arithmetic (classical K[u] division) and the gcd
# ---------------------------------------------------------------------------


def _dense(s: SnuSeries, lo, zero, digit):
    """The digits of the polynomial s as a list from u^lo to its top, each
    made a list digit by ``digit``."""
    out = [zero] * (s.max_deg() - lo + 1)
    for i, c in s.coeffs.items():
        out[i - lo] = digit(c)
    return out


def _divmod_dense(r, x, zero, is_zero, inv, submul, rows=()):
    """The one classical division by actual degree in K[u]: r = q*x + rem on
    dense digit lists from one base exponent, x's last digit exact and
    nonzero.  Returns (q, rem), q from u^0 and rem the first len(x) - 1
    digits of r (changed in place) less its top exact zeros.  The top digit
    of each step cancels exactly and is not computed, so the degree drops
    even for finite-precision digits of r.  Each pair (acc, by) of ``rows``
    takes the same steps in place: acc -= q*by.  ``submul(c)`` gives the
    update (a, f) -> a - c*f of the step with quotient digit c."""
    top = len(x) - 1
    lead_inv, below = inv(x[top]), x[:top]
    q = [zero] * max(0, len(r) - top)
    for e in range(len(r) - 1 - top, -1, -1):
        c = r[e + top]
        if is_zero(c):
            continue
        c = q[e] = c * lead_inv
        sub = submul(c)
        for acc, by in ((r, below), *rows):
            if len(acc) < e + len(by):
                acc.extend([zero] * (e + len(by) - len(acc)))
            for j, f in enumerate(by):
                if not is_zero(f):
                    acc[e + j] = sub(acc[e + j], f)
    rem = r[:top]
    while rem and is_zero(rem[-1]):
        rem.pop()
    return q, rem


def _coeff_submul(c):
    """(a, f) -> a - c*f on ``CoeffElem``s: c is negated once, and each
    update is one ``sum_products`` term with a as its lone summand."""
    cfg, ram, nc = c.cfg, c.ram, -c
    return lambda a, f: sum_products(cfg, ram, ((nc, f),), (a,))


def _exact_submul(c):
    """(a, f) -> a - c*f by the operators of the exact elements."""
    return lambda a, f: a - c * f


def poly_divmod(y: SnuSeries, x: SnuSeries):
    """Classical polynomial division by actual degree, y = q*x + r with
    deg r < deg x: ``_divmod_dense`` on ``CoeffElem``s of the common ram.

    Both operands must be polynomials and the leading digit of x exact; the
    digits of y may have finite precision.  When deg y < deg x (an exact
    zero y included) the remainder is y itself, at its own ram."""
    x._check_compat(y)
    if not (x.is_polynomial() and y.is_polynomial()):
        raise RequiresExactInput("classical division needs polynomial operands")
    dx = x.max_deg()
    if dx is None:
        raise ZeroDivisionError("polynomial division by zero")
    if not x.coeffs[dx].is_exact():
        raise RequiresExactInput("divisor leading coefficient must be exact")
    cfg, slope, ram = y.cfg, y.slope, max(x.ram, y.ram)
    if y.is_exact_zero() or y.max_deg() < dx:
        return SnuSeries.zero(cfg, slope, ram), y
    zero, lo = CoeffElem.exact_zero(cfg, ram), min(x.min_exp(), y.min_exp())
    digit = partial(CoeffElem.with_ram, ram=ram)
    q, r = _divmod_dense(_dense(y, lo, zero, digit), _dense(x, lo, zero, digit),
                         zero, CoeffElem.is_exact_zero, CoeffElem.inv, _coeff_submul)
    return (SnuSeries(cfg, slope, dict(enumerate(q)), ram=ram),
            SnuSeries(cfg, slope, {lo + i: c for i, c in enumerate(r)}, ram=ram))


def _zp_int_row(s: SnuSeries, lo):
    """(A, alpha): the ram-1 Z_p polynomial s times alpha, the lcm of its
    digits' denominators, as an int list from u^lo to its top."""
    p = s.cfg.p
    ratios = []
    for i, c in s.coeffs.items():
        n, d = c.unit[0].as_integer_ratio()
        if c.num_val >= 0:
            n *= p**c.num_val
        else:
            d *= p**-c.num_val
        ratios.append((i - lo, n, d))
    alpha = math.lcm(*(d for _, _, d in ratios))
    out = [0] * (s.max_deg() - lo + 1)
    for i, n, d in ratios:
        out[i] = n * (alpha // d)
    return out, alpha


def _zp_ratio_series(cfg, slope, nums, f, den, base=0):
    """The series sum_i nums[i]*f/den * u^(base + i) over Z_p at ram 1, each
    digit normalised from its (numerator, denominator) pair by
    ``_zp_digit`` as ``CoeffElem.from_exact`` does: p leaves den once for
    the whole series, and the digit strips p from its numerator."""
    p, val = cfg.p, 0
    if den < 0:
        den, f = -den, -f
    while den % p == 0:
        den //= p
        val -= 1
    digits = {base + i: _zp_digit(cfg, 1, (c * f,), den, val, INF) for i, c in enumerate(nums) if c}
    return SnuSeries(cfg, slope, digits)


def _zp_bezout(a: SnuSeries, b: SnuSeries, lo, sign):
    """(g, k, l, m, n) of ``gcd_extended`` for exact Z_p polynomials a, b at
    ram 1, with k*n - l*m = sign, by the primitive remainder sequence on
    ints.

    With A = alpha*a and B = beta*b integral, each row (r, s, t) keeps
    r = s*A + t*B in ints.  A division step r0 <- (c1/h)*r0 - (c0/h)*u^e*r1,
    c0 the top digit of r0, c1 that of r1 and h their gcd, is mirrored on
    the cofactors, and after each remainder the three rows are divided by
    their common content.  Over Q(u) the remainders are those of the field
    loop up to scalars, as are their cofactor rows, so normalising g to be
    monic and (m, n) by the determinant gives the same five results.  The
    determinant s0*t1 - t0*s1 of the cofactor rows is an int constant (each
    step scales it), so it is read off their constant terms."""
    cfg, slope = a.cfg, a.slope
    A, alpha = _zp_int_row(a, lo)
    B, beta = _zp_int_row(b, lo)
    r0, s0, t0 = A, [1], []
    r1, s1, t1 = B, [], [1]
    while r1:
        top = len(r1) - 1
        c1 = r1[top]
        for e in range(len(r0) - 1 - top, -1, -1):
            c0 = r0[e + top]
            if not c0:
                continue
            h = math.gcd(c0, c1)
            f0, f1 = c1 // h, c0 // h
            # the top digit of r0 cancels and is not computed
            if f0 != 1:
                r0[:e + top] = [v * f0 for v in r0[:e + top]]
            for j in range(top):
                if r1[j]:
                    r0[e + j] -= f1 * r1[j]
            for acc, by in ((s0, s1), (t0, t1)):
                if f0 != 1:
                    acc[:] = [v * f0 for v in acc]
                if len(acc) < e + len(by):
                    acc.extend([0] * (e + len(by) - len(acc)))
                for j, v in enumerate(by):
                    if v:
                        acc[e + j] -= f1 * v
        del r0[top:]
        while r0 and not r0[-1]:
            r0.pop()
        h = math.gcd(*r0, *s0, *t0)
        if h > 1:
            r0, s0, t0 = ([v // h for v in row] for row in (r0, s0, t0))
        r0, s0, t0, r1, s1, t1 = r1, s1, t1, r0, s0, t0
    lead = r0[-1]
    det = (s0[0] if s0 else 0) * (t1[0] if t1 else 0) - (t0[0] if t0 else 0) * (s1[0] if s1 else 0)
    f = sign * lead
    return (_zp_ratio_series(cfg, slope, r0, 1, lead, lo),
            _zp_ratio_series(cfg, slope, s0, alpha, lead),
            _zp_ratio_series(cfg, slope, t0, beta, lead),
            _zp_ratio_series(cfg, slope, s1, f, beta * det),
            _zp_ratio_series(cfg, slope, t1, f, alpha * det))


def _dense_bezout(a: SnuSeries, b: SnuSeries, lo, ram, sign):
    """(g, k, l, m, n) of ``gcd_extended`` for exact polynomials a, b at the
    common ram, with k*n - l*m = sign: one ``_divmod_dense`` per Euclidean
    step with the two cofactor rows mirrored, on ``RatFunc`` digits at ram
    1 and on exact ``CoeffElem``s at ram > 1."""
    cfg, slope = a.cfg, a.slope
    if ram == 1:
        zero, one, is_zero, inv = cfg.exa_zero(), cfg.exa_one(), cfg.exa_is_zero, cfg.exa_inv
        submul = _exact_submul

        def exact(c):
            return cfg.exa_shift_pi(c.unit[0], c.num_val)

        def elem(e):
            return CoeffElem.from_exact(cfg, e)
    else:
        zero, one = CoeffElem.exact_zero(cfg, ram), CoeffElem.from_int(cfg, 1, ram=ram)
        is_zero, inv, submul = CoeffElem.is_exact_zero, CoeffElem.inv, _coeff_submul
        exact = elem = partial(CoeffElem.with_ram, ram=ram)

    # rows: (r, s, t) with r = s*a + t*b; each step swaps the rows of
    # [[s0, t0], [s1, t1]], so its determinant is (-1)^steps
    r0, s0, t0 = _dense(a, lo, zero, exact), [one], []
    r1, s1, t1 = _dense(b, lo, zero, exact), [], [one]
    steps = 0
    while r1:
        rem = _divmod_dense(r0, r1, zero, is_zero, inv, submul, rows=((s0, s1), (t0, t1)))[1]
        r0, s0, t0, r1, s1, t1 = r1, s1, t1, rem, s0, t0
        steps += 1
    lead = r0[-1]
    c = inv(lead)
    # k*t1 - l*s1 = (-1)^steps * c: scaling (s1, t1) by +-lead makes the
    # determinant exactly sign
    fix = -lead if (steps % 2) != (sign < 0) else lead

    def as_series(cs, f, base=0):
        digits = {base + i: elem(e * f) for i, e in enumerate(cs) if not is_zero(e)}
        return SnuSeries(cfg, slope, digits, ram=ram)

    return as_series(r0, c, lo), as_series(s0, c), as_series(t0, c), as_series(s1, fix), as_series(t1, fix)


def gcd_extended(x: SnuSeries, y: SnuSeries):
    """Extended gcd over the pi-localization for exactly-known polynomials.

    Returns (g, k, l, m, n) with k*x + l*y = g, m*x + n*y = 0 and
    k*n - l*m = 1; g is monic in its actual degree.  Finite-precision
    operands are rejected: the Euclidean algorithm is not stable, so no
    approximate gcd is offered.

    One Euclidean loop per digit type.  Z_p digits at ram 1 run on int
    rows (``_zp_bezout``, Collins' primitive remainder sequence): a loop on
    ``Fraction`` digits re-normalises a rational at every product, and in
    the pi-side clearing of larger matrices the digits reach hundreds of
    bits, where those gcds take most of the time.  The other digits have no
    int form to clear into: ``RatFunc``s (GF(q) at ram 1) and exact
    ``CoeffElem``s of the common ram (ram > 1) take one ``_divmod_dense``
    per step on dense lists (``_dense_bezout``).  Quotients have no
    negative exponent, so remainders are lists from the lowest exponent of
    either operand (the CLI passes Laurent input) and cofactors lists from
    u^0; only the five results become series.  Exact elements are
    canonical and the remainder sequence over K(u) is unique up to scalars,
    which the normalisation fixes, so both loops give the digits of the
    loop on series.
    """
    x._check_compat(y)
    if not (x.is_exact() and y.is_exact()):
        raise RequiresExactInput("gcd requires exactly-known polynomial operands")
    cfg, slope = x.cfg, x.slope
    ram = max(x.ram, y.ram)
    zero_s = SnuSeries.zero(cfg, slope, ram)
    one_s = SnuSeries.one(cfg, slope, ram)

    if y.is_exact_zero() and x.is_exact_zero():
        return zero_s, one_s, zero_s, zero_s, one_s
    if y.is_exact_zero():
        return x, one_s, zero_s, zero_s, one_s
    if x.is_exact_zero():
        return y, zero_s, one_s, -one_s, zero_s

    def key(s):
        v, d = s.certified_val_deg()
        return (d, v)

    swapped = False
    a, b = x, y
    if key(b) < key(a):
        a, b = b, a
        swapped = True
    lo = min(x.min_exp(), y.min_exp())
    sign = -1 if swapped else 1
    if ram == 1 and cfg.kind == "zp":
        g, k, l, m, n = _zp_bezout(a, b, lo, sign)
    else:
        g, k, l, m, n = _dense_bezout(a, b, lo, ram, sign)
    if swapped:
        return g, l, k, n, m
    return g, k, l, m, n
