"""Property tests of the multiply-accumulate kernel ``SnuSeries.addmul``
against the product followed by the sum, and of its exact-zero-factor
shortcut; of the ram-1 Z_p ``CoeffElem`` product against the exact Fraction
product; and of the u-side divider's constant-unit shortcut against the
Newton inverse it skips."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slomod import gfq, localized
from slomod import series as series_layer
from slomod.coeffs import INF, CoeffElem, FqConfig
from slomod.contfrac import Slope
from slomod.series import SnuSeries

from helpers import F2, NU0, Z3, Z5, mul_per_digit, series_strict, zp_product_oracle

PROPERTY = settings(
    max_examples=300,
    deadline=2000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

F4 = FqConfig(4, 20)
RINGS = [Z5, Z3, F2, F4]
SLOPES = [NU0, Slope(1, 2)]
TAILS = [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(3)]


@st.composite
def values(draw, cfg):
    """A nonzero exact digit value: a Fraction for Z_p, a RatFunc whose
    denominator is prime to t for GF(q)."""
    if cfg.kind == "zp":
        num = draw(st.one_of(st.integers(-40, 40), st.integers(-(2**90), 2**90)).filter(bool))
        return Fraction(num, draw(st.integers(1, 40)))
    f = cfg.field
    num = (draw(st.integers(1, f.q - 1)),) + tuple(draw(st.lists(st.integers(0, f.q - 1), max_size=2)))
    den = (f.one,) + tuple(draw(st.lists(st.integers(0, f.q - 1), max_size=2)))
    return gfq.RatFunc(f, num, den)


@st.composite
def digits(draw, cfg, ram):
    """An exact, finite-precision or O-term digit at w-valuation in [-3, 3]."""
    kind = draw(st.sampled_from(["exact", "exact", "finite", "o"]))
    shift = draw(st.integers(-3, 3))
    if kind == "o":
        return CoeffElem.o_term(cfg, shift, ram)
    c = CoeffElem.from_exact(cfg, draw(values(cfg)), ram)
    if ram > 1 and draw(st.booleans()):
        c = c + CoeffElem.from_exact(cfg, draw(values(cfg)), ram).scale_w(1)
    if c.is_exact_zero():
        return c
    c = c.scale_w(shift)
    return c.reduce_prec(draw(st.integers(1, 5))) if kind == "finite" else c


@st.composite
def series(draw, cfg, slope, ram, lo=None):
    """Up to five digits in a window from lo (drawn when None, and may be
    below u^0); a polynomial or a finite u_prec with a drawn tail bound."""
    if lo is None:
        lo = draw(st.integers(-3, 2))
    exps = draw(st.lists(st.integers(lo, lo + 6), max_size=5, unique=True))
    coeffs = {}
    for i in exps:
        c = draw(digits(cfg, ram))
        if not c.is_exact_zero():
            coeffs[i] = c
    if draw(st.booleans()):
        return SnuSeries(cfg, slope, coeffs, ram=ram)
    up = max(exps, default=lo) + draw(st.integers(1, 3))
    return SnuSeries(cfg, slope, coeffs, up, draw(st.sampled_from(TAILS)), ram=ram)


@st.composite
def mul_acc_inputs(draw):
    """(acc, sign, x, y): acc drawn over the product's exponents, also cut
    below the product's window, equal to -sign*x*y (so the sum cancels, to
    an exact zero when exact), or that plus a drawn series; rams 1 and 2,
    mixed at times."""
    cfg = draw(st.sampled_from(RINGS))
    slope = draw(st.sampled_from(SLOPES))
    rams = draw(st.sampled_from([(1, 1, 1), (1, 1, 1), (2, 2, 2), (1, 2, 2), (2, 1, 1), (2, 2, 1)]))
    x = draw(series(cfg, slope, rams[1]))
    y = draw(series(cfg, slope, rams[2]))
    sign = draw(st.sampled_from([1, -1]))
    keys = [i + j for i in x.coeffs for j in y.coeffs] or [0]
    acc = draw(series(cfg, slope, rams[0], lo=draw(st.integers(min(keys) - 1, min(keys) + 1))))
    how = draw(st.sampled_from(["free", "free", "cut", "cancel", "partial"]))
    if how == "cut":
        acc = acc.truncate_u(draw(st.integers(min(keys), max(keys) + 1)))
    elif how in ("cancel", "partial"):
        p = mul_per_digit(x, y)
        acc = (-p if sign > 0 else p) + (acc if how == "partial" else SnuSeries.zero(cfg, slope))
    return acc, sign, x, y


@PROPERTY
@given(mul_acc_inputs())
def test_addmul_equals_the_product_then_the_sum(data):
    acc, sign, x, y = data
    p = mul_per_digit(x, y)
    want = acc + p if sign > 0 else acc - p
    got = acc.addmul(sign, x, y)
    assert got == want
    assert got == (acc + x * y if sign > 0 else acc - x * y)
    assert list(got.coeffs) == list(want.coeffs)


@pytest.mark.parametrize("cfg", RINGS, ids=repr)
@pytest.mark.parametrize("prec", [INF, 2])
def test_addmul_cancels_to_an_exact_zero(cfg, prec):
    one = CoeffElem.from_int(cfg, 1, prec=prec)
    x = SnuSeries(cfg, NU0, {0: one, 2: one.scale_pi(1)})
    y = SnuSeries(cfg, NU0, {-1: one, 1: one})
    got = (x * y).addmul(-1, x, y)
    assert got == x * y - x * y
    if prec == INF:
        assert got.is_exact_zero()
    else:
        assert got.coeffs and not got.has_certain_digit()


def _count_products(monkeypatch):
    calls = []
    real = series_layer.series_product
    monkeypatch.setattr(series_layer, "series_product", lambda *a: calls.append(1) or real(*a))
    return calls


def _factor(cfg, ram=1):
    one = CoeffElem.from_int(cfg, 1, ram=ram)
    return SnuSeries(cfg, NU0, {0: one, 2: one.scale_pi(1).reduce_prec(3)}, 4, Fraction(1), ram=ram)


@pytest.mark.parametrize("cfg", RINGS, ids=repr)
@pytest.mark.parametrize("ram", [1, 2])
def test_an_exact_zero_factor_returns_acc_unchanged(cfg, ram, monkeypatch):
    one = CoeffElem.from_int(cfg, 1, ram=ram)
    y = _factor(cfg, ram)
    zero = SnuSeries.zero(cfg, NU0, ram)
    accs = [
        SnuSeries(cfg, NU0, {-1: one, 3: one.reduce_prec(2)}, ram=ram),
        SnuSeries(cfg, NU0, {0: one.scale_pi(2)}, 5, Fraction(3, 2), ram=ram),
        SnuSeries(cfg, NU0, {1: one}, 3, 2, ram=ram),
        SnuSeries(cfg, NU0, {1: one}, 3, ram=ram),
        SnuSeries(cfg, NU0, {}, 2, Fraction(-1), ram=ram),
    ]
    calls = _count_products(monkeypatch)
    for acc in accs:
        for sign in (1, -1):
            for got in (acc.addmul(sign, zero, y), acc.addmul(sign, y, zero), acc.addmul(sign, zero, zero)):
                assert series_strict(got) == series_strict(acc)
    for got in (zero * y, y * zero, zero * zero):
        assert series_strict(got) == series_strict(zero)
    # a smaller ram is lifted first: the sum is the lifted acc
    acc1 = SnuSeries(cfg, NU0, {1: CoeffElem.from_int(cfg, 1)}, 3, Fraction(1, 2))
    assert series_strict(acc1.addmul(1, zero, y)) == series_strict(acc1.with_ram(ram))
    assert not calls


@pytest.mark.parametrize("cfg", RINGS, ids=repr)
def test_a_zero_factor_with_finite_u_prec_takes_the_full_path(cfg, monkeypatch):
    """O(u^k) is no exact zero: the product is unknown from u^k on."""
    one = CoeffElem.from_int(cfg, 1)
    y = _factor(cfg)
    acc = SnuSeries(cfg, NU0, {0: one.scale_pi(2), 3: one}, 5, Fraction(3, 2))
    calls = _count_products(monkeypatch)
    for k in (0, 2, 5):
        o = SnuSeries(cfg, NU0, {}, k, Fraction(1))
        for a, b in ((o, y), (y, o)):
            p = mul_per_digit(a, b)
            assert series_strict(a * b) == series_strict(p)
            for sign, want in ((1, acc + p), (-1, acc - p)):
                got = acc.addmul(sign, a, b)
                assert got == want and list(got.coeffs) == list(want.coeffs)
    assert len(calls) == 3 * 2 * 3


def _zp_elements(cfg):
    exact = st.builds(
        lambda v, s: CoeffElem.from_exact(cfg, v).scale_w(s), values(cfg), st.integers(-3, 3)
    )
    inexact = st.builds(lambda c, n: c.reduce_prec(n), exact, st.integers(1, 5))
    return exact, inexact


@PROPERTY
@given(st.data(), st.sampled_from([Z5, Z3]), st.sampled_from(["exact*exact", "exact*inexact", "inexact*inexact"]))
def test_zp_ram1_product_matches_the_fraction_product(data, cfg, kinds):
    exact, inexact = _zp_elements(cfg)
    left, right = kinds.split("*")
    a = data.draw(exact if left == "exact" else inexact)
    b = data.draw(exact if right == "exact" else inexact)
    for got in (a * b, b * a):
        assert got == zp_product_oracle(a, b)
        assert [type(d) for d in got.unit] == [Fraction if got.is_exact() else int]


def test_zp_ram1_product_of_o_terms_and_zeros():
    a = CoeffElem.from_exact(Z5, Fraction(3, 7)).reduce_prec(2).scale_w(1)
    o = CoeffElem.o_term(Z5, -1)
    z = CoeffElem.exact_zero(Z5)
    assert a * o == zp_product_oracle(a, o) == CoeffElem.o_term(Z5, 0)
    assert (a * z).is_exact_zero() and zp_product_oracle(a, z).is_exact_zero()


def _newton_divider(b, n_level, hi):
    """a -> a / b through u_invert_unit, whatever the unit part is."""
    m = localized._valuation_index(b.certified_valuation(), b.slope)
    mu_inv = localized._monomial_inverse(localized.mu_monomial(b.cfg, b.slope, m, b.ram))
    w = (b * mu_inv).truncate_u(hi)
    w_inv = localized.u_invert_unit(w, n_level, hi)
    return lambda a: (a * mu_inv * w_inv).truncate_u(hi)


def _divisors(cfg, slope):
    """(divisor, shortcut taken): canonical monomials times an exact
    constant, exact or with a finite u_prec, and divisors whose unit part
    is not one exact digit."""
    one = CoeffElem.from_int(cfg, 1)
    if cfg.kind == "zp":
        unit = CoeffElem.from_exact(cfg, Fraction(3, 2))
    else:
        unit = CoeffElem.from_exact(cfg, gfq.RatFunc(cfg.field, (1, 1)))  # 1 + t
    mu = localized.mu_monomial(cfg, slope, 3, 1)
    ((e, c),) = mu.coeffs.items()
    return [
        (mu, True),
        (SnuSeries(cfg, slope, {e: c * unit}), True),
        (SnuSeries(cfg, slope, {e: c}, e + 3, Fraction(5)), True),
        (SnuSeries(cfg, slope, {e: c * unit}, e + 1, Fraction(4)), True),
        (SnuSeries(cfg, slope, {e: c.reduce_prec(4)}), False),
        (SnuSeries(cfg, slope, {e: c, e + 2: c * one.scale_pi(1)}), False),
    ]


def _dividends(cfg, slope):
    c = CoeffElem.from_int(cfg, 2 if cfg.kind == "zp" else 1)
    return [
        SnuSeries(cfg, slope, {3: c.scale_pi(2), 5: c}),
        SnuSeries(cfg, slope, {-2: c.scale_pi(3), 1: c.scale_pi(1).reduce_prec(3)}),
        SnuSeries(cfg, slope, {-3: c.scale_pi(4), 0: c.scale_pi(2)}, 4, Fraction(1)),
        SnuSeries(cfg, slope, {2: c.scale_pi(1)}, 6, Fraction(2)),
    ]


@pytest.mark.parametrize("cfg", [Z5, F2], ids=repr)
@pytest.mark.parametrize("slope", SLOPES, ids=str)
def test_u_divider_constant_unit_shortcut_equals_the_newton_inverse(cfg, slope, monkeypatch):
    n_level, hi = 6, 20
    for b, shortcut in _divisors(cfg, slope):
        want = _newton_divider(b, n_level, hi)
        calls = []
        real = localized.u_invert_unit
        monkeypatch.setattr(localized, "u_invert_unit", lambda *a: calls.append(1) or real(*a))
        divide = localized._u_divider(b, n_level, hi)
        monkeypatch.setattr(localized, "u_invert_unit", real)
        assert (not calls) == shortcut, b
        for a in _dividends(cfg, slope):
            assert divide(a) == want(a), (b, a)
