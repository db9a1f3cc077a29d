"""Property tests of the Z_p integer kernel at ram > 1, where w^ram = p:
``CoeffElem`` sums, differences and products, ``sum_products``,
``CoeffElem.from_exact``, the Kronecker series product (plain and inside
``addmul``, with reused packs) and the ``divide_by_unit`` recurrence, each
against an oracle that does not run through the kernel: the generic body
(``exa_dot`` and ``_normalize``), the digit-vector folds and the per-digit
product loop.  Digit types are compared too."""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slomod import series as l1
from slomod.coeffs import INF, CoeffElem, _normalize, sum_products
from slomod.contfrac import Slope
from slomod.series import SnuSeries, divide_by_unit

from helpers import (NU0, Z3, Z5, Z7, add_fold, coeff_mul_fold, divide_fold, mul_per_digit,
                     series_product_per_digit, series_strict, sum_products_exa_dot)

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BIG = 2**210
ZP = [Z3, Z5, Z7]
RAMS = [2, 3, 4]
SLOPES = [NU0, Slope(1, 2), Slope(2, 3), Slope(1, 3)]
TAILS = [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(3)]

# numerators and denominators small, or above 2^200, of either sign; a
# denominator may hold p
nonzero_ints = st.one_of(st.integers(-60, 60), st.integers(-BIG, BIG)).filter(bool)
positive_ints = st.one_of(st.integers(1, 60), st.integers(2**200, BIG))


@st.composite
def values(draw):
    return Fraction(draw(nonzero_ints), draw(positive_ints))


def strict(c):
    """Everything an element is, with the types of prec and of its digits."""
    types = None if c.unit is None else [type(d) for d in c.unit]
    return c.zero, c.ram, c.num_val, type(c.prec), c.prec, c.unit, types


@st.composite
def elements(draw, cfg, ram, kinds=("exact", "exact", "finite", "o", "zero")):
    """An element of K[w] built by the generic normaliser: exact, known to
    a finite relative precision, an O-term or an exact zero, at w-valuation
    in [-5, 5], with any of its ram digits nonzero."""
    kind = draw(st.sampled_from(kinds))
    shift = draw(st.integers(-5, 5))
    if kind == "zero":
        return CoeffElem.exact_zero(cfg, ram)
    if kind == "o":
        return CoeffElem.o_term(cfg, shift, ram)
    digits = [draw(values())] + [draw(st.one_of(st.just(Fraction(0)), values())) for _ in range(ram - 1)]
    c = _normalize(cfg, ram, shift, digits, INF)
    return c.reduce_prec(draw(st.integers(1, 3 * ram))) if kind == "finite" and not c.zero else c


@st.composite
def near_negation(draw, c):
    """-c, the exact negative of the digits c stores, or that plus a digit at
    a higher w-valuation: sums with c cancel to an exact zero, to an O-term
    or down to the added digit."""
    how = draw(st.sampled_from(["neg", "stored", "leftover"]))
    if how == "neg" or c.zero or c.unit is None:
        return -c
    cfg, ram = c.cfg, c.ram
    stored = _normalize(cfg, ram, c.num_val, [-Fraction(d) for d in c.unit], INF)
    if how == "stored":
        return stored
    extra = [draw(values())] + [Fraction(0)] * (ram - 1)
    return add_fold(stored, _normalize(cfg, ram, c.num_val + draw(st.integers(1, 3 * ram)), extra, INF))


@st.composite
def rings(draw):
    return draw(st.sampled_from(ZP)), draw(st.sampled_from(RAMS))


@st.composite
def element_pairs(draw):
    cfg, ram = draw(rings())
    a = draw(elements(cfg, ram))
    b = draw(st.one_of(elements(cfg, ram), near_negation(a)))
    return a, b


@PROPERTY
@given(element_pairs())
def test_sum_difference_and_product_match_the_folds(pair):
    a, b = pair
    assert strict(a + b) == strict(add_fold(a, b))
    assert strict(a - b) == strict(add_fold(a, -b))
    assert strict(a * b) == strict(coeff_mul_fold(a, b))
    assert strict(b * a) == strict(coeff_mul_fold(a, b))


@st.composite
def sum_inputs(draw):
    """(cfg, ram, pairs, lone): a drawn sum, one whose products a negated
    pair or the lone summand cancel, or one with factors of a ram that
    divides ram (lifted by ``with_ram``)."""
    cfg, ram = draw(rings())
    element = elements(cfg, ram)
    pairs = draw(st.lists(st.tuples(element, element), max_size=4))
    lone = draw(st.lists(element, max_size=2))
    how = draw(st.sampled_from(["free", "pair", "lone", "lifted"]))
    if how == "pair" and pairs:
        a, b = draw(st.sampled_from(pairs))
        pairs.append((a, draw(near_negation(b))))
    elif how == "lone" and pairs:
        a, b = pairs[0]
        lone.append(draw(near_negation(coeff_mul_fold(a, b))))
    elif how == "lifted":
        low = draw(st.sampled_from([r for r in (1, 2) if ram % r == 0]))
        pairs.append((draw(elements(cfg, low)), draw(element)))
        lone.append(draw(elements(cfg, low)))
    return cfg, ram, pairs, lone


@PROPERTY
@given(sum_inputs())
def test_sum_products_matches_the_generic_body(data):
    cfg, ram, pairs, lone = data
    want = strict(sum_products_exa_dot(cfg, ram, pairs, lone))
    assert strict(sum_products(cfg, ram, pairs, lone)) == want
    assert strict(sum_products(cfg, ram, iter(pairs), iter(lone))) == want


@PROPERTY
@given(st.sampled_from(ZP), st.sampled_from([1, 2, 3, 4]), st.one_of(st.just(Fraction(0)), values()),
       st.sampled_from([INF, 1, 2, 5, 9]))
def test_from_exact_matches_the_generic_normaliser(cfg, ram, value, prec):
    want = _normalize(cfg, ram, 0, [value] + [Fraction(0)] * (ram - 1), INF).reduce_prec(prec)
    assert strict(CoeffElem.from_exact(cfg, value, ram, prec)) == strict(want)


@pytest.mark.parametrize("cfg", ZP, ids=repr)
@pytest.mark.parametrize("ram", RAMS)
def test_from_exact_strips_p_from_numerator_and_denominator(cfg, ram):
    p = cfg.p
    c = CoeffElem.from_exact(cfg, Fraction(p**3 * 2, p**5 * 11), ram)
    assert c.num_val == -2 * ram and c.unit == (Fraction(2, 11),) + (Fraction(0),) * (ram - 1)
    assert CoeffElem.from_exact(cfg, Fraction(0), ram).is_exact_zero()


@st.composite
def series(draw, cfg, slope, ram):
    """Up to seven digits in a window that may start below u^0, in drawn
    (unsorted) order; a polynomial or a finite u_prec with a drawn tail
    bound."""
    lo = draw(st.integers(-3, 2))
    coeffs = {}
    for i in draw(st.lists(st.integers(lo, lo + 8), max_size=7, unique=True)):
        c = draw(elements(cfg, ram, ("exact", "exact", "finite", "o")))
        if not c.is_exact_zero():
            coeffs[i] = c
    if draw(st.booleans()):
        return SnuSeries(cfg, slope, coeffs, ram=ram)
    up = max(coeffs, default=lo) + draw(st.integers(1, 3))
    return SnuSeries(cfg, slope, coeffs, up, draw(st.sampled_from(TAILS)), ram=ram)


def _mirror(x):
    """x(-u): x(u)*x(-u) has only even exponents, every odd digit cancels."""
    return x.map_coeffs(lambda i, c: -c if i % 2 else c)


@st.composite
def series_triples(draw):
    """(x, y, acc) of one ring, ram and slope; y may be x(-u) or -x, whose
    products with x cancel."""
    cfg, ram = draw(rings())
    slope = draw(st.sampled_from(SLOPES))
    x = draw(series(cfg, slope, ram))
    how = draw(st.sampled_from(["free", "free", "mirror", "negated"]))
    y = _mirror(x) if how == "mirror" else -x if how == "negated" else draw(series(cfg, slope, ram))
    return x, y, draw(series(cfg, slope, ram))


def _addmul_oracle(acc, sign, x, y):
    """acc.addmul(sign, x, y) with the per-digit product loop in place of
    the Kronecker kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l1, "series_product", series_product_per_digit)
        return acc.addmul(sign, x, y)


@PROPERTY
@given(series_triples(), st.sampled_from([1, -1]))
def test_kronecker_product_and_addmul_match_the_per_digit_loop(data, sign):
    x, y, acc = data
    assert series_strict(x * y) == series_strict(mul_per_digit(x, y))
    assert series_strict(acc.addmul(sign, x, y)) == series_strict(_addmul_oracle(acc, sign, x, y))


@PROPERTY
@given(series_triples(), st.sampled_from([1, -1]))
def test_reused_packs_give_what_the_per_digit_loop_gives(data, sign):
    """x and y are factors again and again, in both places and inside
    addmul, so their packs are built once and then read."""
    x, y, acc = data
    for _ in range(2):
        for a, b in ((x, y), (y, x), (x, x)):
            assert series_strict(a * b) == series_strict(mul_per_digit(a, b))
            assert series_strict(acc.addmul(sign, a, b)) == series_strict(_addmul_oracle(acc, sign, a, b))
    assert (x._pack is None) == (not x.coeffs)


@pytest.mark.parametrize("cfg", ZP, ids=repr)
@pytest.mark.parametrize("ram", RAMS)
def test_cancelling_products_over_big_numerators(cfg, ram):
    """Digits that cancel are dropped when exact and O-terms otherwise."""
    for prec in (INF, 2, 5):
        digits = [Fraction(-(2**205) - 1, 2**203 + 3)] + [Fraction(2**207 + 5, 7)] * (ram - 1)
        c = _normalize(cfg, ram, -2, digits, INF).reduce_prec(prec)
        x = SnuSeries(cfg, NU0, {-1: c, 0: c, 2: -c}, ram=ram)
        got = x * _mirror(x)
        assert series_strict(got) == series_strict(mul_per_digit(x, _mirror(x)))
        assert all(k % 2 == 0 for k, d in got.coeffs.items() if d.has_witness())
        assert series_strict(x.addmul(-1, x, x)) == series_strict(_addmul_oracle(x, -1, x, x))


@st.composite
def unit_divisions(draw):
    """(z, x, cap) at ram 2 to 4: x of certified Weierstrass degree 0 with a
    finite-precision a_0, z at or above v(x), a u-precision cap when both
    are polynomials."""
    cfg, ram = draw(rings())
    slope = draw(st.sampled_from(SLOPES))
    a0 = draw(elements(cfg, ram, ("finite",)))
    x_digits = {0: a0}
    for i in draw(st.lists(st.integers(1, 5), max_size=4, unique=True)):
        c = draw(elements(cfg, ram, ("exact", "finite", "o")))
        level = Fraction(c.num_val, ram) + slope.nu * i
        x_digits[i] = c.scale_w(max(0, math.ceil(a0.num_val - ram * level)))
    if draw(st.booleans()):
        x = SnuSeries(cfg, slope, x_digits, ram=ram)
    else:
        x = SnuSeries(cfg, slope, x_digits, 7, Fraction(a0.num_val, ram) + draw(st.integers(0, 2)), ram=ram)
    z_digits = {i: draw(elements(cfg, ram)) for i in draw(st.lists(st.integers(0, 6), max_size=5, unique=True))}
    if draw(st.booleans()):
        z = SnuSeries(cfg, slope, z_digits, ram=ram)
    else:
        z = SnuSeries(cfg, slope, z_digits, 7, Fraction(draw(st.integers(-2, 3))), ram=ram)
    if draw(st.booleans()):
        z = x * z  # the recurrence cancels
    lz, vx = z.lower_bound(), x.certified_val_deg()[0]
    if lz < vx:
        z = z.scale_pi(math.ceil(vx - lz))
    cap = draw(st.sampled_from([INF, 3, 6]))
    if cap == INF and z.is_polynomial() and x.is_polynomial() and len(x.coeffs) > 1:
        cap = 6
    return z, x, cap


@PROPERTY
@given(unit_divisions())
def test_divide_by_unit_matches_the_fold_recurrence(data):
    z, x, cap = data
    assert series_strict(divide_by_unit(z, x, u_prec=cap)) == series_strict(divide_fold(z, x, u_prec=cap))
