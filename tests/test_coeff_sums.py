"""Property tests of the coefficient sums on every backend and ram:
``CoeffElem.__add__`` and ``__sub__`` against the digit-vector fold
``add_fold``, ``sum_products`` with lone summands against the fold of the
summands and the products, and the hash of equal elements of two rams."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slomod import gfq
from slomod.coeffs import INF, CoeffElem, FqConfig, _normalize, sum_products

from helpers import F2, Z3, Z5, add_fold, coeff_mul_fold

PROPERTY = settings(
    max_examples=200,
    deadline=2000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

F4 = FqConfig(4, 20)
BIG = 2**210


@st.composite
def values(draw, cfg):
    """A nonzero exact digit value: a Fraction with small or huge numerator
    and denominator for Z_p, a RatFunc whose denominator is prime to t for
    GF(q)."""
    if cfg.kind == "zp":
        num = draw(st.one_of(st.integers(-60, 60), st.integers(-BIG, BIG)).filter(bool))
        return Fraction(num, draw(st.one_of(st.integers(1, 60), st.integers(2**200, BIG))))
    f = cfg.field
    num = (draw(st.integers(1, f.q - 1)),) + tuple(draw(st.lists(st.integers(0, f.q - 1), max_size=2)))
    den = (f.one,) + tuple(draw(st.lists(st.integers(0, f.q - 1), max_size=2)))
    return gfq.RatFunc(f, num, den)


@st.composite
def elements(draw, cfg, ram):
    """An exact, finite-precision, O-term or exact-zero element at
    w-valuation in [-3, 3]; at ram 2 its second digit may be nonzero."""
    kind = draw(st.sampled_from(["exact", "exact", "finite", "o", "zero"]))
    shift = draw(st.integers(-3, 3))
    if kind == "zero":
        return CoeffElem.exact_zero(cfg, ram)
    if kind == "o":
        return CoeffElem.o_term(cfg, shift, ram)
    digits = [draw(values(cfg))]
    digits += [draw(st.one_of(st.just(cfg.exa_zero()), values(cfg))) for _ in range(ram - 1)]
    c = _normalize(cfg, ram, shift, digits, INF)
    return c.reduce_prec(draw(st.integers(1, 5))) if kind == "finite" else c


@st.composite
def negations(draw, c):
    """-c, the exact negative of the digits c stores (c plus it is an exact
    zero, or an O-term when c is inexact), or that plus a digit at a higher
    valuation."""
    how = draw(st.sampled_from(["neg", "stored", "leftover"]))
    if how == "neg" or c.zero or c.unit is None:
        return -c
    cfg, ram = c.cfg, c.ram
    stored = _normalize(cfg, ram, c.num_val, [-d for d in c.unit], INF)
    if how == "stored":
        return stored
    digits = [draw(values(cfg))] + [cfg.exa_zero()] * (ram - 1)
    return add_fold(stored, _normalize(cfg, ram, c.num_val + draw(st.integers(1, 8)), digits, INF))


def _strict(c):
    return c.zero, c.ram, c.num_val, c.prec, c.unit


# (ring, ram of a, ram of b): both rams, mixed rams, both backends
ADD_CASES = [
    (Z5, 1, 1), (Z5, 2, 2), (Z3, 1, 1), (Z3, 2, 2), (Z5, 1, 2), (Z3, 2, 1),
    (F2, 1, 1), (F2, 2, 2), (F4, 1, 1), (F4, 2, 2), (F4, 1, 2),
]


@st.composite
def add_inputs(draw):
    """(a, b): two drawn elements, or b a negation of a that cancels it in
    full or down to a higher digit, lifted to b's ram where it is larger."""
    cfg, ra, rb = draw(st.sampled_from(ADD_CASES))
    a = draw(elements(cfg, ra))
    if draw(st.booleans()):
        b = draw(elements(cfg, rb))
    else:
        b = draw(negations(a))
        b = b.with_ram(rb) if rb % b.ram == 0 else b
    return (b, a) if draw(st.booleans()) else (a, b)


@PROPERTY
@given(add_inputs())
def test_add_and_sub_match_the_digit_fold(data):
    a, b = data
    assert _strict(a + b) == _strict(add_fold(a, b))
    assert _strict(a - b) == _strict(add_fold(a, -b))


@st.composite
def sum_inputs(draw):
    """(cfg, ram, pairs, lone) on Z5 at ram 2 or GF(4) at ram 1 or 2: up to
    three pairs and up to three lone summands, of ram 1 or of the sum's ram,
    the last lone summand at times a negation of the first product."""
    cfg, ram = draw(st.sampled_from([(Z5, 2), (F4, 1), (F4, 2)]))
    element = st.sampled_from(sorted({1, ram})).flatmap(lambda r: elements(cfg, r))
    pairs = draw(st.lists(st.tuples(element, element), max_size=3))
    lone = draw(st.lists(element, max_size=3))
    if pairs and lone and draw(st.booleans()):
        lone[-1] = draw(negations(coeff_mul_fold(*pairs[0])))
    return cfg, ram, pairs, tuple(lone)


@PROPERTY
@given(sum_inputs())
def test_sum_products_matches_the_fold_of_lone_summands_and_products(data):
    cfg, ram, pairs, lone = data
    want = CoeffElem.exact_zero(cfg, ram)
    for x in lone:
        want = add_fold(want, x)
    for a, b in pairs:
        want = add_fold(want, coeff_mul_fold(a, b))
    assert _strict(sum_products(cfg, ram, pairs, lone)) == _strict(want)


@PROPERTY
@given(st.data(), st.sampled_from([(F2, 1), (F2, 2), (F4, 1), (F4, 2)]))
def test_gf_sum_of_two_lone_digits_is_the_ratfunc_sum(data, case):
    """The two-lone dot of a GF(q) sum equals ``RatFunc.__add__`` of the
    shifted digits and the n-ary running-lcm dot; the element sums built
    on it equal the digit fold at ram 1 and 2."""
    cfg, ram = case
    x, y = data.draw(values(cfg)), data.draw(values(cfg))
    e, g = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    got = cfg.exa_dot([(x, None, e), (y, None, g)])
    assert got == x.shift(e) + y.shift(g)
    assert got == cfg.exa_dot([(x, None, e), (y, None, g), (cfg.exa_zero(), None, 0)])
    a, b = data.draw(elements(cfg, ram)), data.draw(elements(cfg, ram))
    assert _strict(a + b) == _strict(add_fold(a, b))


@pytest.mark.parametrize(
    "c",
    [
        CoeffElem.from_exact(Z5, Fraction(7, 3)).scale_w(2),
        CoeffElem.from_exact(Z5, Fraction(7, 3), prec=3).scale_w(-1),
        CoeffElem.from_exact(F2, gfq.RatFunc(F2.field, (1, 1), (1, 0, 1)), prec=2),
        CoeffElem.o_term(Z5, 3),
        CoeffElem.exact_zero(Z5),
    ],
    ids=["exact", "finite", "finite-gf2", "o-term", "zero"],
)
def test_equal_elements_of_two_rams_hash_alike(c):
    for k in (2, 3):
        d = c.with_ram(k)
        assert c == d and hash(c) == hash(d)
        assert len({c, d}) == 1
