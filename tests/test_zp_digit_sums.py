"""Property tests of the ram-1 Z_p integer digit sums: ``sum_products`` and
``CoeffElem.__add__``/``__sub__`` against the exact Fraction sum of the
stored values, ``divide_by_unit`` against the sequential recurrence, the
GF(q) inputs that must keep the generic path and the ram > 1 Z_p inputs
that must not."""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slomod import coeffs, gfq
from slomod.coeffs import INF, CoeffElem, sum_products
from slomod.errors import ConfigMismatch
from slomod.contfrac import Slope
from slomod.series import SnuSeries, divide_by_unit

from helpers import (F2, NU0, Z3, Z5, Z7, divide_fold, sum_products_exa_dot, zp_element, zp_stored_value,
                     zp_sum_oracle)

PROPERTY = settings(
    max_examples=150,
    deadline=2000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BIG = 2**210
ZP = [Z3, Z5, Z7]

# numerators and denominators small, or above 2^200, of either sign
nonzero_ints = st.one_of(st.integers(-60, 60), st.integers(-BIG, BIG)).filter(bool)
positive_ints = st.one_of(st.integers(1, 60), st.integers(2**200, BIG))


@st.composite
def zp_values(draw):
    return Fraction(draw(nonzero_ints), draw(positive_ints))


@st.composite
def zp_digits(draw, cfg, kinds=("exact", "exact", "finite", "o", "zero")):
    """A ram-1 Z_p element at valuation in [-4, 4]: exact, known to a finite
    relative precision, an O-term or an exact zero."""
    kind = draw(st.sampled_from(kinds))
    shift = draw(st.integers(-4, 4))
    if kind == "zero":
        return CoeffElem.exact_zero(cfg)
    if kind == "o":
        return CoeffElem.o_term(cfg, shift)
    c = CoeffElem.from_exact(cfg, draw(zp_values()), 1).scale_w(shift)
    return c.reduce_prec(draw(st.integers(1, 6))) if kind == "finite" else c


@st.composite
def near_negation(draw, cfg, c):
    """-c, the exact negative of the value c stores, or -c plus a digit at a
    higher valuation: c plus it cancels to an exact zero, to an O-term (also
    from an exactly zero sum), or down to the added digit."""
    how = draw(st.sampled_from(["neg", "stored", "leftover"]))
    if how == "neg" or c.zero or c.unit is None:
        return -c
    if how == "stored":
        return CoeffElem.from_exact(cfg, -zp_stored_value(c))
    extra = CoeffElem.from_exact(cfg, draw(zp_values()), 1)
    return -c + extra.scale_w(c.num_val + draw(st.integers(1, 8)) - extra.num_val)


def _strict(c):
    """Everything an element is, with the types of prec and of its digit."""
    unit_types = None if c.unit is None else [type(d) for d in c.unit]
    return c.zero, c.ram, c.num_val, type(c.prec), c.prec, c.unit, unit_types


@st.composite
def sum_inputs(draw):
    """(cfg, pairs, lone): a drawn sum, or one in which some products are
    cancelled by a negated pair or by the lone term."""
    cfg = draw(st.sampled_from(ZP))
    digit = zp_digits(cfg)
    pairs = draw(st.lists(st.tuples(digit, digit), max_size=5))
    lone = draw(st.one_of(st.none(), digit))
    how = draw(st.sampled_from(["free", "free", "pair", "lone"]))
    if how == "pair" and pairs:
        a, b = draw(st.sampled_from(pairs))
        pairs.append((a, draw(near_negation(cfg, b))))
    elif how == "lone" and pairs:
        a, b = pairs[0]
        lone = draw(near_negation(cfg, a * b))
    return cfg, pairs, lone


@PROPERTY
@given(sum_inputs())
def test_sum_products_matches_exact_sum(data):
    cfg, pairs, lone = data
    assert _strict(sum_products(cfg, 1, pairs, () if lone is None else (lone,))) == _strict(zp_sum_oracle(cfg, pairs, lone))
    assert _strict(sum_products(cfg, 1, iter(pairs))) == _strict(zp_sum_oracle(cfg, pairs))


@st.composite
def add_inputs(draw):
    cfg = draw(st.sampled_from(ZP))
    a = draw(zp_digits(cfg))
    b = draw(st.one_of(zp_digits(cfg), near_negation(cfg, a)))
    return cfg, a, b


@PROPERTY
@given(add_inputs())
def test_add_and_sub_match_exact_sum(data):
    cfg, a, b = data
    abs_w = min(a.abs_w(), b.abs_w())
    total = zp_stored_value(a) + zp_stored_value(b)
    diff = zp_stored_value(a) - zp_stored_value(b)
    assert _strict(a + b) == _strict(zp_element(cfg, total, abs_w))
    assert _strict(a - b) == _strict(zp_element(cfg, diff, abs_w))


@pytest.mark.parametrize("cfg", ZP, ids=repr)
def test_cancellations(cfg):
    x = CoeffElem.from_exact(cfg, Fraction(-(2**205) - 1, 2**203 + 3)).scale_w(-3)
    y = CoeffElem.from_exact(cfg, Fraction(2**207 + 5, -(2**201) - 1)).scale_w(2)
    assert (x - x).is_exact_zero()
    assert sum_products(cfg, 1, [(x, y), (x, -y)]).is_exact_zero()
    assert sum_products(cfg, 1, [(x, y)], lone=(-(x * y),)).is_exact_zero()
    loose = x.reduce_prec(4)
    o = loose - x
    assert not o.has_witness() and o.abs_w() == x.num_val + 4
    o = sum_products(cfg, 1, [(loose, y)], lone=(-(x * y),))
    assert not o.has_witness() and o.abs_w() == loose.num_val + y.num_val + 4
    # an exactly zero sum of inexact terms is an O-term, not an exact zero
    o = loose + CoeffElem.from_exact(cfg, -zp_stored_value(loose))
    assert not o.zero and not o.has_witness() and o.abs_w() == x.num_val + 4
    o = sum_products(cfg, 1, [(loose, y), (CoeffElem.from_exact(cfg, -zp_stored_value(loose)), y)])
    assert not o.zero and not o.has_witness() and o.abs_w() == loose.num_val + y.num_val + 4
    # the leftover digit sits at or above the absolute precision
    near = -x + CoeffElem.from_int(cfg, 1).scale_w(x.num_val + 4)
    o = loose + near
    assert not o.has_witness() and o.abs_w() == x.num_val + 4


@st.composite
def unit_divisions(draw):
    """(z, x, cap): x of certified Weierstrass degree 0 with an inexact a_0,
    z at or above v(x), a u-precision cap when both are polynomials."""
    cfg = draw(st.sampled_from(ZP))
    slope = draw(st.sampled_from([NU0, Slope(1, 2), Slope(2, 3)]))
    a0 = draw(zp_digits(cfg, kinds=("finite",)))
    x_digits = {0: a0}
    for i in draw(st.lists(st.integers(1, 5), max_size=4, unique=True)):
        c = draw(zp_digits(cfg))
        if not c.zero:
            level = c.val_lower() + slope.nu * i
            x_digits[i] = c.scale_pi(max(0, math.ceil(a0.num_val - level)))
    x_prec = draw(st.one_of(st.just(INF), st.integers(6, 9)))
    if x_prec == INF:
        x = SnuSeries(cfg, slope, x_digits)
    else:
        x = SnuSeries(cfg, slope, x_digits, x_prec, Fraction(a0.num_val + draw(st.integers(0, 2))))
    z_digits = {i: draw(zp_digits(cfg)) for i in draw(st.lists(st.integers(0, 7), max_size=5, unique=True))}
    if draw(st.booleans()):
        z = SnuSeries(cfg, slope, z_digits)
    else:
        z = SnuSeries(cfg, slope, z_digits, 8, Fraction(draw(st.integers(-2, 3))))
    if draw(st.booleans()):
        z = x * z  # the recurrence cancels
    lz, vx = z.lower_bound(), x.certified_val_deg()[0]
    if lz < vx:
        z = z.scale_pi(math.ceil(vx - lz))
    cap = draw(st.sampled_from([INF, 4, 7]))
    if cap == INF and z.is_polynomial() and x.is_polynomial() and len(x.coeffs) > 1:
        cap = 7
    return z, x, cap


def _strict_series(s):
    digits = [(k, _strict(c)) for k, c in s.coeffs.items()]
    return s.ram, s.u_prec, type(s.tail_bound), s.tail_bound, digits


@PROPERTY
@given(unit_divisions())
def test_divide_by_unit_matches_sequential_recurrence(data):
    z, x, cap = data
    got = divide_by_unit(z, x, u_prec=cap)
    assert _strict_series(got) == _strict_series(divide_fold(z, x, u_prec=cap))


def _watch_zp_helpers(mp):
    seen = []
    for name in ("_zp_sum", "_zp_digit"):
        real = getattr(coeffs, name)

        def counted(*args, _real=real, _name=name):
            seen.append(_name)
            return _real(*args)

        mp.setattr(coeffs, name, counted)
    return seen


@st.composite
def f2_digits(draw):
    f = F2.field
    num = (f.one,) + tuple(draw(st.lists(st.sampled_from(range(f.q)), max_size=3)))
    den = (f.one,) + tuple(draw(st.lists(st.sampled_from(range(f.q)), max_size=2)))
    c = CoeffElem.from_exact(F2, gfq.RatFunc(f, num, den)).scale_w(draw(st.integers(-3, 3)))
    return c.reduce_prec(draw(st.integers(1, 5))) if draw(st.booleans()) else c


@st.composite
def ram2_digits(draw):
    c = CoeffElem.from_exact(Z5, draw(zp_values()), 2)
    c = c + CoeffElem.from_exact(Z5, draw(zp_values()), 2).scale_w(1)
    c = c.scale_w(draw(st.integers(-3, 3)))
    return c.reduce_prec(draw(st.integers(1, 5))) if draw(st.booleans()) and not c.zero else c


@st.composite
def generic_inputs(draw):
    """GF(2) digits at ram 1, or Z5 digits at ram 2."""
    cfg, ram, digit = draw(st.sampled_from([(F2, 1, f2_digits()), (Z5, 2, ram2_digits())]))
    pairs = draw(st.lists(st.tuples(digit, digit), min_size=1, max_size=3))
    return cfg, ram, pairs, draw(digit)


@PROPERTY
@given(generic_inputs())
def test_gf_digits_keep_the_generic_path_and_ramified_zp_ones_take_the_integer_one(data):
    """GF(2) sums, sums and differences reach no Z_p helper; Z5 ones at ram
    2 go through ``_zp_sum`` and ``_zp_digit``, products too, and never
    through the generic ``_normalize``.  Each sum is the generic body's."""
    cfg, ram, pairs, lone = data
    with pytest.MonkeyPatch.context() as mp:
        seen = _watch_zp_helpers(mp)
        generic = []
        real = coeffs._normalize
        mp.setattr(coeffs, "_normalize", lambda *args: generic.append(args) or real(*args))
        got = sum_products(cfg, ram, pairs, (lone,))
        for a, b in pairs:
            a + b
            a - b
            if cfg.kind == "zp":
                a * b
    if cfg.kind == "fq":
        assert not seen
    else:
        assert "_zp_sum" in seen and set(seen) <= {"_zp_sum", "_zp_digit"}
        assert not generic
    assert _strict(got) == _strict(sum_products_exa_dot(cfg, ram, pairs, (lone,)))


def test_zp_ram_one_digits_take_the_integer_path(monkeypatch):
    x, y = CoeffElem.from_int(Z5, 3), CoeffElem.from_exact(Z5, Fraction(7, 2), prec=4)
    seen = _watch_zp_helpers(monkeypatch)
    x + y
    assert seen == ["_zp_sum", "_zp_digit"]
    seen.clear()
    sum_products(Z5, 1, [(x, y)], lone=(x,))
    assert seen == ["_zp_sum", "_zp_digit"]


def test_ramified_digits_do_not_lower_to_ram_one():
    c1, c2 = CoeffElem.from_int(Z5, 3), CoeffElem.from_int(Z5, 3, ram=2)
    with pytest.raises(ConfigMismatch):
        sum_products(Z5, 1, [(c1, c2)])
    with pytest.raises(ConfigMismatch):
        sum_products(Z5, 1, [], lone=(c2,))
