"""The ram-1 Z_p unit representation: a unit known to finite precision
``prec`` is a plain int residue in [0, p^prec), an exact unit a
``Fraction``; the backend's inversion and negative pi shifts build exact
``Fraction``s from int residues, never floats; and the identity shortcuts of
the ring and slope checks still let equal but distinct rings and slopes
combine and still reject different ones."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slomod.coeffs import CoeffElem, ZpConfig, series_product, sum_products
from slomod.contfrac import Slope
from slomod.errors import ConfigMismatch, SlopeMismatch
from slomod.series import SnuSeries

from helpers import NU0, Z3, Z5

PROPERTY = settings(
    max_examples=120,
    deadline=2000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

Z2 = ZpConfig(2)


def assert_residue_form(c):
    """c's unit, if it has one, is a p-unit: a Fraction when c is exact,
    else an int in [0, p^prec)."""
    if c.zero or c.unit is None:
        return
    (u,) = c.unit
    p = c.cfg.p
    if c.is_exact():
        assert type(u) is Fraction and u.numerator % p and u.denominator % p
    else:
        assert type(u) is int and 0 <= u < p**c.prec and u % p


@st.composite
def elements(draw, cfg):
    """A ram-1 Z_p element at valuation in [-3, 3]: exact, known to a finite
    relative precision (by ``reduce_prec``), an O-term or an exact zero."""
    kind = draw(st.sampled_from(["exact", "finite", "finite", "o", "zero"]))
    shift = draw(st.integers(-3, 3))
    if kind == "zero":
        return CoeffElem.exact_zero(cfg)
    if kind == "o":
        return CoeffElem.o_term(cfg, shift)
    num = draw(st.one_of(st.integers(-50, 50), st.integers(-(2**80), 2**80)).filter(bool))
    c = CoeffElem.from_exact(cfg, Fraction(num, draw(st.integers(1, 30)))).scale_w(shift)
    return c.reduce_prec(draw(st.integers(1, 6))) if kind == "finite" else c


@st.composite
def operands(draw):
    cfg = draw(st.sampled_from([Z2, Z3, Z5]))
    xs = draw(st.lists(elements(cfg), min_size=2, max_size=6))
    return cfg, xs


@PROPERTY
@given(operands())
def test_every_made_unit_is_an_int_residue_or_an_exact_fraction(data):
    cfg, xs = data
    made = []
    for x in xs:
        assert_residue_form(x)
        made += [-x, x.reduce_prec(2)]
        if x.has_witness():
            made.append(x.inv())
    for a, b in zip(xs, xs[1:]):
        made += [a * b, a + b, a - b]
    made.append(sum_products(cfg, 1, list(zip(xs, xs[1:])), (xs[0],)))
    a = SnuSeries(cfg, NU0, dict(enumerate(xs)))
    b = SnuSeries(cfg, NU0, dict(enumerate(reversed(xs))))
    for sign in (1, -1):
        made += series_product(cfg, 1, a, b, len(xs), dict(enumerate(xs)), sign).values()
    made += (a * b).coeffs.values()
    for c in made:
        assert_residue_form(c)


def test_inverse_and_negative_shift_of_an_int_residue_are_exact_fractions():
    for cfg in (Z2, Z3, Z5):
        for a in (1, 3, 7, 2**70 + 1):
            inv = cfg.exa_inv(a)
            assert type(inv) is Fraction and inv == Fraction(1, a)
            for j in (1, 2, 5):
                s = cfg.exa_shift_pi(a, -j)
                assert type(s) is Fraction and s == Fraction(a, cfg.p**j)
            assert cfg.exa_shift_pi(a, 2) == a * cfg.p**2
        assert cfg.exa_inv(Fraction(-2, 3)) == Fraction(-3, 2)
        with pytest.raises(ZeroDivisionError):
            cfg.exa_inv(0)
    # the inverse of an inexact element goes through exa_inv
    c = CoeffElem.from_exact(Z5, Fraction(3, 7)).reduce_prec(3)
    assert type(c.unit[0]) is int
    inv = c.inv()
    assert_residue_form(inv)
    assert (inv * c).digits_agree(CoeffElem.from_int(Z5, 1))


def test_an_int_unit_and_an_equal_fraction_unit_look_alike():
    for cfg, n in ((Z5, 3), (Z3, 10), (Z2, 5)):
        for prec in (4, float("inf")):
            i = CoeffElem(cfg, 1, 2, prec, (n,))
            f = CoeffElem(cfg, 1, 2, prec, (Fraction(n),))
            assert i == f and f == i
            assert hash(i) == hash(f)
            assert i.render() == f.render() and repr(i) == repr(f)


def test_split_keeps_its_exact_part_a_fraction():
    c = CoeffElem.from_exact(Z5, Fraction(3, 7)).reduce_prec(4)
    low, high = c.split_at_abs_w(2)
    assert low.is_exact() and type(low.unit[0]) is Fraction
    assert_residue_form(high)
    assert low + high == c


def test_equal_rings_and_slopes_built_twice_still_combine():
    z5a, z5b = ZpConfig(5), ZpConfig(5)
    sa, sb = Slope(1, 2), Slope(1, 2)
    x = CoeffElem.from_exact(z5a, Fraction(2, 3)).reduce_prec(3)
    y = CoeffElem.from_exact(z5b, Fraction(4))
    assert x * y == y * x and x + y == y + x
    f = SnuSeries(z5a, sa, {0: x, 1: y})
    g = SnuSeries(z5b, sb, {0: y})
    assert f * g == g * f
    assert f + g == g + f
    assert g.addmul(-1, f, g) == g - f * g


def test_different_rings_and_slopes_still_raise():
    z3 = ZpConfig(3)
    x, y = CoeffElem.from_int(Z5, 2), CoeffElem.from_int(z3, 2)
    for a, b in ((x, y), (y, x)):
        with pytest.raises(ConfigMismatch):
            a * b
        with pytest.raises(ConfigMismatch):
            a + b
    f, g = SnuSeries(Z5, NU0, {0: x}), SnuSeries(z3, NU0, {0: y})
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ConfigMismatch, match="mixed coefficient rings"):
            a * b
        with pytest.raises(ConfigMismatch):
            a + b
    h = SnuSeries(Z5, Slope(1, 2), {0: x})
    for a, b in ((f, h), (h, f)):
        with pytest.raises(SlopeMismatch):
            a * b
