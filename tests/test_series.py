import math
import random
from fractions import Fraction

import pytest

from slomod import gfq
from slomod.coeffs import INF, CoeffElem, FqConfig, ZpConfig, _isinf
from slomod.contfrac import Slope
from slomod.errors import (
    BadParameters,
    NotDistinguished,
    NotDistinguishedCertificate,
    NotDivisible,
    NotUnit,
    NotUnitDegree,
    OutOfRange,
    PrecisionExhausted,
    RequiresExactInput,
    SlopeMismatch,
    ValuationOrder,
)
from slomod.series import (
    SnuSeries,
    _newton_refine,
    divide_by_unit,
    euclid_div,
    gcd_extended,
    hi_lo_split,
    invert_unit,
    poly_divmod,
    slope_transport,
    weierstrass_prep,
)

from helpers import (
    F2,
    NU0,
    Z5,
    assert_zero_at_precision,
    divide_fold,
    mono,
    mul_fold,
    poly,
    random_exact_poly,
    random_unit,
    slope_transport_inverse,
    visible_degree,
)


def test_series_init_drops_exact_zeros_and_copies():
    c, zero = CoeffElem.from_int(Z5, 3), CoeffElem.exact_zero(Z5)
    digits = {0: c, 1: zero, 2: CoeffElem.o_term(Z5, 1), 3: zero}
    x = SnuSeries(Z5, NU0, digits, 3)  # the exact zero at u^3 is dropped, not checked
    assert list(x.coeffs) == [0, 2]
    digits[5] = c
    assert list(x.coeffs) == [0, 2]


def test_series_init_ram_from_digits_or_argument():
    c1, c2 = CoeffElem.from_int(Z5, 3), CoeffElem.from_int(Z5, 3, ram=2)
    assert SnuSeries(Z5, NU0, {0: c2, 1: c2}).ram == 2
    assert SnuSeries(Z5, NU0, {0: c2}, ram=2).ram == 2
    assert SnuSeries(Z5, NU0, {}, ram=3).ram == 3
    assert SnuSeries(Z5, NU0, {}).ram == 1
    assert SnuSeries(Z5, NU0, {0: CoeffElem.exact_zero(Z5)}, ram=2).ram == 2
    assert SnuSeries(Z5, NU0, {0: c1}).ram == 1


def test_series_init_rejects_mixed_ram():
    c1, c2 = CoeffElem.from_int(Z5, 3), CoeffElem.from_int(Z5, 3, ram=2)
    for digits, ram in (({0: c1, 1: c2}, None), ({0: c2, 1: c1}, None), ({0: c1}, 2), ({0: c2}, 1)):
        with pytest.raises(ValueError, match="mixed ram indices in one series"):
            SnuSeries(Z5, NU0, digits, ram=ram)


def test_series_init_rejects_exponent_beyond_u_prec():
    c = CoeffElem.from_int(Z5, 3)
    for key in (3, 4):
        with pytest.raises(ValueError, match="stored exponent beyond u_prec"):
            SnuSeries(Z5, NU0, {0: c, key: c}, 3)
    assert list(SnuSeries(Z5, NU0, {-2: c, 2: c}, 3).coeffs) == [-2, 2]


def test_series_init_infinite_tail_bound_is_a_polynomial():
    c = CoeffElem.from_int(Z5, 3)
    x = SnuSeries(Z5, NU0, {0: c}, 4, INF)
    assert x.u_prec == INF and x.tail_bound == INF and x.is_polynomial()
    y = SnuSeries(Z5, NU0, {0: c}, 4)
    assert y.u_prec == 4 and y.tail_bound == 0 and type(y.tail_bound) is Fraction
    assert SnuSeries(Z5, NU0, {0: c}, 4, Fraction(-1, 2)).tail_bound == Fraction(-1, 2)
    assert SnuSeries(Z5, NU0, {0: c}).tail_bound == INF
    # so a digit-free series is provably zero exactly when it is the exact zero
    assert SnuSeries(Z5, NU0, {}, 4, INF) == SnuSeries.zero(Z5, NU0)
    assert not SnuSeries(Z5, NU0, {}, 4).is_exact_zero()


def test_gauss_valuation_figure():
    # v_{1/3}(pi^2 u^4) = 10/3
    x = poly(Z5, Slope(1, 3), [(4, 25)])
    assert x.visible_valuation() == Fraction(10, 3)
    assert visible_degree(x) == 4


def test_gauss_valuation_zero():
    assert SnuSeries.zero(Z5, NU0).visible_valuation() == INF


def test_truncation_lies_about_valuation():
    x = poly(Z5, NU0, [(0, 5), (10, 1)])
    assert x.visible_valuation() == 0 and visible_degree(x) == 10
    t = x.truncate_u(9)
    assert t.visible_valuation() == 1  # the truncated representative reports pi
    with pytest.raises(PrecisionExhausted):
        t.certified_val_deg()


def test_degree_multiplicative():
    rng = random.Random(3)
    for slope in (NU0, Slope(1, 2)):
        for _ in range(30):
            x = random_exact_poly(rng, Z5, slope)
            y = random_exact_poly(rng, Z5, slope)
            xy = x * y
            assert xy.visible_valuation() == x.visible_valuation() + y.visible_valuation()
            assert visible_degree(xy) == visible_degree(x) + visible_degree(y)


def test_mul_identity_and_expansion():
    x = poly(Z5, NU0, [(0, 3), (2, 1)])
    assert x * SnuSeries.one(Z5, NU0) == x
    a = poly(Z5, NU0, [(1, 1), (0, -5)])
    b = poly(Z5, NU0, [(1, 1), (0, 5)])
    assert (a * b) == poly(Z5, NU0, [(2, 1), (0, -25)])


def test_ultrametric_additivity():
    rng = random.Random(4)
    for _ in range(40):
        x = random_exact_poly(rng, Z5, Slope(2, 5))
        y = random_exact_poly(rng, Z5, Slope(2, 5))
        s = x + y
        if not s.is_exact_zero():
            assert s.visible_valuation() >= min(x.visible_valuation(), y.visible_valuation())


def test_hi_lo():
    x = poly(Z5, NU0, [(0, 5), (10, 1)])
    lo, hi = hi_lo_split(x, 5)
    assert lo == poly(Z5, NU0, [(0, 5)])
    assert hi == poly(Z5, NU0, [(10, 1)])
    lo0, hi0 = hi_lo_split(x, 0)
    assert lo0.is_exact_zero() and hi0 == x
    with pytest.raises(OutOfRange):
        hi_lo_split(x.truncate_u(7), 8)
    rng = random.Random(9)
    for _ in range(20):
        y = random_exact_poly(rng, Z5, NU0)
        l, h = hi_lo_split(y, 2)
        assert (l + h) == y


def test_divide_by_unit_geometric():
    one = SnuSeries.one(Z5, NU0)
    x = poly(Z5, NU0, [(0, 1), (1, -1)])
    y = divide_by_unit(one, x, u_prec=4)
    assert y.truncate_u(4).digits_agree(poly(Z5, NU0, [(0, 1), (1, 1), (2, 1), (3, 1)]).truncate_u(4))


def test_divide_by_unit_self():
    x = poly(Z5, NU0, [(0, 2), (1, 5)])
    y = divide_by_unit(x, x, u_prec=6)
    assert y.digits_agree(SnuSeries.one(Z5, NU0).truncate_u(6))


def test_divide_by_unit_multiply_back():
    rng = random.Random(12)
    for slope in (NU0, Slope(2, 5)):
        for _ in range(25):
            x = random_unit(rng, Z5, slope)
            w = random_exact_poly(rng, Z5, slope)
            y = x * w
            got = divide_by_unit(y, x, u_prec=8)
            assert got.digits_agree(w.truncate_u(8))


def test_divide_by_unit_errors():
    x = poly(Z5, NU0, [(1, 1)])  # deg_W = 1
    with pytest.raises(Exception):
        divide_by_unit(SnuSeries.one(Z5, NU0), x, u_prec=4)
    z = SnuSeries.one(Z5, NU0)
    xx = poly(Z5, NU0, [(0, 5)])  # v = 1 > v(z)
    with pytest.raises(NotDivisible):
        divide_by_unit(z, xx, u_prec=4)


def test_invert_unit_trivial():
    one = SnuSeries.one(Z5, NU0)
    assert invert_unit(one, 5).digits_agree(one)


def test_invert_unit_1_plus_pi():
    x = poly(Z5, NU0, [(0, 6)], prec=3)
    y = invert_unit(x, 3)
    c = y.coeffs[0]
    assert c.unit == (Fraction(21),)  # 6 * 21 = 1 mod 125


def test_invert_unit_multiply_back():
    rng = random.Random(21)
    for slope in (NU0, Slope(1, 2)):
        for _ in range(20):
            x = random_unit(rng, Z5, slope)
            y = invert_unit(x, 6)
            e = SnuSeries.one(Z5, slope) - x.truncate_u(y.u_prec) * y
            v = e.visible_valuation()
            assert v == INF or v >= 6


def test_newton_budget_error_names_budget_and_level():
    # 1 - 6*1 has level 1; each Newton step doubles it: 2, then 4 >= 3
    x, y = poly(Z5, NU0, [(0, 6)]), SnuSeries.one(Z5, NU0)
    with pytest.raises(PrecisionExhausted, match="budget of 1 Newton steps and reached level 2"):
        _newton_refine(x, y, 3, INF, 1)
    y = _newton_refine(x, y, 3, INF, 2)
    assert (SnuSeries.one(Z5, NU0) - x * y).visible_valuation() >= 3


def test_invert_unit_rejects_non_units():
    with pytest.raises(NotUnit):
        invert_unit(poly(Z5, NU0, [(0, 5)]), 3)  # v = 1
    with pytest.raises(NotUnit):
        invert_unit(poly(Z5, NU0, [(1, 1)]), 3)  # deg_W = 1


def test_euclid_div_example():
    y = poly(Z5, NU0, [(2, 1)])
    x = poly(Z5, NU0, [(1, 1), (0, -5)])
    q, r = euclid_div(y, x, 8)
    assert q.digits_agree(poly(Z5, NU0, [(1, 1), (0, 5)]).truncate_u(q.u_prec))
    assert r.digits_agree(poly(Z5, NU0, [(0, 25)]))
    resid = y - (q * x + r)
    assert_zero_at_precision(resid)


def test_euclid_div_self():
    x = poly(Z5, NU0, [(1, 1), (0, 2)])
    q, r = euclid_div(x, x, 8)
    assert q.digits_agree(SnuSeries.one(Z5, NU0).truncate_u(q.u_prec))
    assert all(not c.has_witness() for c in r.coeffs.values())


def test_euclid_div_overlap_agreement():
    y = poly(Z5, NU0, [(3, 1), (1, 5), (0, 5)])
    x = poly(Z5, NU0, [(1, 1), (0, 10)])
    q1, r1 = euclid_div(y, x, 4)
    q2, r2 = euclid_div(y, x, 9)
    assert q1.digits_agree(q2)
    assert r1.digits_agree(r2)


def test_euclid_div_valuation_order():
    y = SnuSeries.one(Z5, NU0)
    x = poly(Z5, NU0, [(0, 5), (1, 25)])
    with pytest.raises(ValuationOrder):
        euclid_div(y, x, 4)


@pytest.mark.xfail(raises=AssertionError, strict=True)
def test_euclid_div_quotient_digit_beyond_the_working_level():
    # y = q x + r needs the digit -6 pi^5 of q at u^1 (level 11/2), beyond
    # the quotient's working level prec - v(x); the quotient is a
    # polynomial, so the level cap keeps that absent digit an exact zero and
    # q x + r gets a certain digit 6 pi^5 at u^3 that y does not have
    half = Slope(1, 2)
    x = SnuSeries(Z5, half, {0: CoeffElem.from_int(Z5, 2).scale_pi(4), 2: CoeffElem.from_int(Z5, 1)})
    y = SnuSeries(Z5, half, {2: CoeffElem.from_int(Z5, 1), 4: CoeffElem.from_int(Z5, 1).scale_pi(1),
                             5: CoeffElem.from_int(Z5, 3).scale_pi(1)})
    for prec in (4, 5, 6):
        q, r = euclid_div(y, x, prec)
        assert (q * x + r).digits_agree(y), prec


def test_euclid_div_needs_certificate():
    x = poly(Z5, NU0, [(0, 5), (10, 1)]).truncate_u(9)
    with pytest.raises(NotDistinguishedCertificate):
        euclid_div(poly(Z5, NU0, [(0, 25)]), x, 4)


def test_weierstrass_prep_monomial():
    x = poly(Z5, NU0, [(3, 1)])
    q, h = weierstrass_prep(x, 6)
    assert h == x
    assert q.digits_agree(SnuSeries.one(Z5, NU0).truncate_u(q.u_prec))


def test_weierstrass_prep_factor():
    x = poly(Z5, NU0, [(0, 1), (1, 1)]) * poly(Z5, NU0, [(1, 1), (0, -5)])
    q, h = weierstrass_prep(x, 6)
    assert h.max_deg() == 1
    assert h.coeffs[1].is_exact() and h.coeffs[1].unit == (Fraction(1),)
    assert h.digits_agree(poly(Z5, NU0, [(1, 1), (0, -5)]).reduce_levels(6))
    resid = q * h - x.truncate_u(min(q.u_prec, h.u_prec if h.u_prec != INF else q.u_prec))
    assert_zero_at_precision(resid)


def test_weierstrass_prep_random_degree_matches():
    rng = random.Random(31)
    for _ in range(15):
        x = random_exact_poly(rng, Z5, NU0)
        v = x.visible_valuation()
        if v != 0:
            x = x.scale_pi(-int(v))
        d = visible_degree(x)
        q, h = weierstrass_prep(x, 6)
        assert h.max_deg() == d
        resid = q * h - x.truncate_u(q.u_prec)
        assert_zero_at_precision(resid, min_level=5)


def test_slope_transport():
    target = Slope(2, 5)
    one = SnuSeries.one(Z5, Slope(0, 1))
    assert slope_transport(one, target).digits_agree(SnuSeries.one(Z5, target, ram=5))
    u = poly(Z5, Slope(0, 1), [(1, 1)])
    tu = slope_transport(u, target)
    assert tu.visible_valuation() == 0 == u.visible_valuation()
    rng = random.Random(8)
    for _ in range(15):
        x = random_exact_poly(rng, Z5, Slope(0, 1))
        t = slope_transport(x, target)
        assert t.visible_valuation() == x.visible_valuation()
        assert visible_degree(t) == visible_degree(x)
        back = slope_transport_inverse(t)
        assert back.digits_agree(x.with_ram(5))


def test_gcd_units():
    p1 = poly(Z5, NU0, [(1, 1), (0, -1)])
    p2 = poly(Z5, NU0, [(1, 1), (0, -2)])
    g, k, l, m, n = gcd_extended(p1, p2)
    assert g == SnuSeries.one(Z5, NU0)
    assert (k * p1 + l * p2) == g
    assert (m * p1 + n * p2).is_exact_zero()
    assert (k * n - l * m) == SnuSeries.one(Z5, NU0)


def test_gcd_with_zero():
    x = poly(Z5, NU0, [(2, 1), (0, 3)])
    g, k, l, m, n = gcd_extended(x, SnuSeries.zero(Z5, NU0))
    assert g == x
    assert (k * n - l * m) == SnuSeries.one(Z5, NU0)


def test_gcd_common_factor():
    p1 = poly(Z5, NU0, [(1, 1), (0, -1)])
    p2 = poly(Z5, NU0, [(1, 1), (0, -2)])
    p3 = poly(Z5, NU0, [(1, 1), (0, -3)])
    g, k, l, m, n = gcd_extended(p1 * p2, p1 * p3)
    # u - 1 up to a unit; monic normalization pins it exactly
    assert g == p1
    assert (k * (p1 * p2) + l * (p1 * p3)) == g
    assert (m * (p1 * p2) + n * (p1 * p3)).is_exact_zero()
    assert (k * n - l * m) == SnuSeries.one(Z5, NU0)


def _assert_bezout(x, y):
    """gcd_extended's certificate, checked by multiplying it out."""
    g, k, l, m, n = gcd_extended(x, y)
    one = SnuSeries.one(x.cfg, x.slope, max(x.ram, y.ram))
    assert k * x + l * y == g, (x, y)
    assert (m * x + n * y).is_exact_zero(), (x, y)
    assert k * n - l * m == one, (x, y)
    return g


def _gcd_pairs(cfg, slope, seed):
    """Random exact pairs, some with a common factor, in both orders."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(6):
        x, y = (random_exact_poly(rng, cfg, slope, max_deg=2, max_pi=2) for _ in range(2))
        f = random_exact_poly(rng, cfg, slope, max_deg=1, max_pi=1)
        pairs += [(x, y), (y, x), (f * x, f * y)]
    return pairs


def test_gcd_bezout_certificate_over_f2():
    for x, y in _gcd_pairs(F2, NU0, 12):
        _assert_bezout(x, y)


def test_gcd_bezout_certificate_at_ram_two():
    # Z5 polynomials moved to slope 1/2, where every digit lives in Z5[w]
    half = Slope(1, 2)
    for x, y in _gcd_pairs(Z5, NU0, 13):
        tx, ty = slope_transport(x, half), slope_transport(y, half)
        assert tx.ram == ty.ram == 2
        _assert_bezout(tx, ty)


@pytest.mark.parametrize("cfg", [Z5, F2])
def test_gcd_with_zero_operands(cfg):
    zero = SnuSeries.zero(cfg, NU0)
    y = poly(cfg, NU0, [(2, 1), (0, 1)])
    assert _assert_bezout(zero, zero).is_exact_zero()
    assert _assert_bezout(zero, y) == y
    assert _assert_bezout(y, zero) == y


def test_gcd_requires_exact():
    p1 = poly(Z5, NU0, [(1, 1), (0, -1)], prec=2)
    p2 = poly(Z5, NU0, [(1, 1), (0, -1)], prec=2)
    with pytest.raises(RequiresExactInput):
        gcd_extended(p1, p2)


def test_unit_criterion_both_directions():
    # every deg_W = 0, v = 0 element passes; every failure raises
    rng = random.Random(44)
    for _ in range(20):
        u = random_unit(rng, Z5, NU0)
        invert_unit(u, 4)  # must not raise
        with pytest.raises(NotUnit):
            invert_unit(u.scale_pi(1), 4)
        with pytest.raises(NotUnit):
            invert_unit(u.shift_u(1), 4)


def test_poly_divmod_classical():
    y = poly(Z5, NU0, [(3, 2), (1, 1), (0, 4)])
    x = poly(Z5, NU0, [(1, 1), (0, -1)])
    q, r = poly_divmod(y, x)
    assert (q * x + r) == y
    assert r.max_deg() in (None, 0)


# ---------------------------------------------------------------------------
# the sum-of-products kernel against the per-pair fold
# ---------------------------------------------------------------------------

KERNEL_RINGS = [ZpConfig(3), Z5, F2, FqConfig(4)]


def _kernel_value(rng, cfg):
    """A random nonzero exact field element, not always a pi-unit."""
    if cfg.kind == "zp":
        return Fraction(rng.choice([1, -1]) * rng.randrange(1, 30), rng.randrange(1, 5))
    f = cfg.field
    while True:
        num = tuple(rng.randrange(f.q) for _ in range(rng.randrange(1, 4)))
        den = (f.one,) + tuple(rng.randrange(f.q) for _ in range(rng.randrange(0, 2)))
        v = gfq.RatFunc(f, num, den)
        if not v.is_zero():
            return v


def _kernel_coeff(rng, cfg, ram):
    """Exact or finite-precision digits, O-terms, valuations of both signs."""
    if rng.random() < 0.12:
        return CoeffElem.o_term(cfg, rng.randrange(-3, 5), ram)
    c = CoeffElem.from_exact(cfg, _kernel_value(rng, cfg), ram)
    if ram > 1 and rng.random() < 0.6:
        c = c + CoeffElem.from_exact(cfg, _kernel_value(rng, cfg), ram).scale_w(rng.randrange(1, ram + 1))
    if c.is_exact_zero():
        return c
    return c.scale_w(rng.randrange(-3, 4)).reduce_prec(rng.choice([INF, INF, 1, 2, 3, 5]))


def _kernel_series(rng, cfg, slope, ram, lo=0, width=6):
    coeffs = {}
    for i in range(lo, lo + width):
        if rng.random() < 0.6:
            c = _kernel_coeff(rng, cfg, ram)
            if not c.is_exact_zero():
                coeffs[i] = c
    if rng.random() < 0.5:
        return SnuSeries(cfg, slope, coeffs, ram=ram)
    tb = rng.choice([Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(3)])
    return SnuSeries(cfg, slope, coeffs, lo + width, tb, ram=ram)


def _cancelling_pair(rng, cfg, slope, ram, prec):
    """(c + c u)(c - c u): the u^1 digit cancels to an exact zero, or to an
    O-term when c is known to finite precision."""
    c = CoeffElem.from_exact(cfg, _kernel_value(rng, cfg), ram, prec).scale_w(rng.randrange(-2, 3))
    return SnuSeries(cfg, slope, {0: c, 1: c}), SnuSeries(cfg, slope, {0: c, 1: -c})


@pytest.mark.parametrize("cfg", KERNEL_RINGS, ids=repr)
@pytest.mark.parametrize("ram", [1, 2])
def test_mul_matches_per_pair_fold(cfg, ram):
    rng = random.Random(4100 + 10 * ram + KERNEL_RINGS.index(cfg))
    for _ in range(40):
        slope = rng.choice([NU0, Slope(1, 2)])
        x = _kernel_series(rng, cfg, slope, rng.choice([1, ram]), lo=rng.randrange(-2, 2))
        y = _kernel_series(rng, cfg, slope, ram, lo=rng.randrange(-2, 2))
        assert x * y == mul_fold(x, y), (x, y)
    for prec in (INF, 2):
        x, y = _cancelling_pair(rng, cfg, NU0, ram, prec)
        got = x * y
        assert got == mul_fold(x, y), (x, y)
        if prec == INF:
            assert 1 not in got.coeffs
        else:
            assert not got.coeffs[1].has_witness()


def _unit_divisor(rng, cfg, slope, ram):
    """Certified Weierstrass degree 0, valuation of either sign."""
    x0 = _kernel_coeff(rng, cfg, ram)
    while not x0.has_witness():
        x0 = _kernel_coeff(rng, cfg, ram)
    x = _kernel_series(rng, cfg, slope, ram, width=5)
    v0 = x0.val()
    coeffs = {0: x0}
    for i, c in x.coeffs.items():
        if i > 0:
            level = c.val_lower() + slope.nu * i
            coeffs[i] = c.scale_pi(max(0, math.ceil(v0 - level)))
    tb = None if x.is_polynomial() else max(x.tail_bound, v0)
    return SnuSeries(cfg, slope, coeffs, x.u_prec, tb, ram=ram)


@pytest.mark.parametrize("cfg", KERNEL_RINGS, ids=repr)
@pytest.mark.parametrize("ram", [1, 2])
def test_divide_by_unit_matches_sequential_recurrence(cfg, ram):
    rng = random.Random(4200 + 10 * ram + KERNEL_RINGS.index(cfg))
    for trial in range(30):
        slope = rng.choice([NU0, Slope(1, 2)])
        x = _unit_divisor(rng, cfg, slope, ram)
        vx = x.certified_val_deg()[0]
        if trial % 5 == 0:
            z = x * _kernel_series(rng, cfg, slope, ram)  # cancels in the recurrence
        else:
            z = _kernel_series(rng, cfg, slope, rng.choice([1, ram]))
        lz = z.lower_bound()
        if lz < vx:
            z = z.scale_pi(math.ceil(vx - lz))
        cap = rng.choice([INF, 4, 7])
        if cap == INF and z.is_polynomial() and x.is_polynomial() and len(x.coeffs) > 1:
            cap = 7
        assert divide_by_unit(z, x, u_prec=cap) == divide_fold(z, x, u_prec=cap), (z, x)


@pytest.mark.parametrize("cfg", KERNEL_RINGS, ids=repr)
def test_operations_keep_infinite_tail_bounds_on_polynomials(cfg):
    # every result has an infinite tail bound exactly when it is a polynomial
    rng = random.Random(4300 + KERNEL_RINGS.index(cfg))
    for _ in range(30):
        slope = rng.choice([NU0, Slope(1, 2)])
        x = _kernel_series(rng, cfg, slope, rng.choice([1, 2]))
        y = _kernel_series(rng, cfg, slope, x.ram)
        for s in (
            x, x + y, x * y, -x, x.truncate_u(3), x.truncate_u(8), x.shift_u(2),
            x.scale_pi(-1), x.reduce_levels(Fraction(1, 2)), x.split_levels(1)[1],
            hi_lo_split(x, 2)[1],
        ):
            assert _isinf(s.tail_bound) == s.is_polynomial(), s


# an element with no certain digit: O(pi) at u^0, nothing anchors its valuation
UNCERTIFIED = SnuSeries(Z5, NU0, {0: CoeffElem.o_term(Z5, 1)}, 4)


def test_divide_by_unit_rejections():
    one = SnuSeries.one(Z5, NU0)
    with pytest.raises(NotUnitDegree, match="no certified Weierstrass data"):
        divide_by_unit(one, SnuSeries.zero(Z5, NU0), u_prec=8)
    # O(pi^-1) might lie below v(x) = 0 or not: no certain digit decides it
    ambiguous = SnuSeries(Z5, NU0, {0: CoeffElem.o_term(Z5, -1)}, 4)
    with pytest.raises(PrecisionExhausted, match="cannot certify"):
        divide_by_unit(ambiguous, one, u_prec=8)
    with pytest.raises(BadParameters, match="non-negative supports"):
        divide_by_unit(mono(Z5, NU0, -1), one, u_prec=8)
    # an exact divisor of two digits has an infinite quotient series
    with pytest.raises(BadParameters, match="needs a u-precision cap"):
        divide_by_unit(one, poly(Z5, NU0, [(0, 1), (1, 1)]), u_prec=INF)


def test_invert_unit_rejects_an_uncertified_input():
    with pytest.raises(NotUnit, match="no certain digit"):
        invert_unit(UNCERTIFIED, 4)


def test_weierstrass_prep_rejections():
    with pytest.raises(NotDistinguished, match="no certain digit"):
        weierstrass_prep(UNCERTIFIED, 4)
    with pytest.raises(NotDistinguished, match="!= 0"):
        weierstrass_prep(poly(Z5, NU0, [(0, 5)]), 4)
    # w^-1*u + u^2 at slope 1/2 (w^2 = pi): level 0 first reached at u^1,
    # and 1 * 1/2 is not an integer
    half = Slope(1, 2)
    x = SnuSeries(Z5, half, {1: CoeffElem.from_int(Z5, 1, ram=2).scale_w(-1),
                             2: CoeffElem.from_int(Z5, 1, ram=2)}, ram=2)
    assert x.certified_val_deg() == (0, 1)
    with pytest.raises(NotDistinguished, match="not an integer"):
        weierstrass_prep(x, 4)


def test_slope_transport_starts_from_slope_zero():
    x = poly(Z5, Slope(1, 2), [(0, 1)])
    with pytest.raises(SlopeMismatch):
        slope_transport(x, Slope(2, 3))
