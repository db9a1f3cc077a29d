"""The table-inlined GF(q) polynomial kernels against the schoolbook
coordinate oracle (``helpers.CoordGF``), and the canonical form of the
``RatFunc`` operators and of ``FqConfig.exa_dot`` against a ``RatFunc``
built from scratch."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slomod import gfq
from slomod.coeffs import FqConfig

from helpers import CoordGF

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

QS = (2, 3, 4, 8, 9, 25, 27)
FIELDS = {q: (gfq.GF(q), CoordGF(q)) for q in QS}
MAX_LEN = 40


@st.composite
def polys(draw, q, max_len=MAX_LEN, nonzero=False):
    """A coefficient list of length 0..max_len, as the kernels may get it:
    zeros at the low end (a power of t) and, untrimmed, at the high end."""
    n = draw(st.integers(1 if nonzero else 0, max_len))
    low = draw(st.integers(0, min(3, n - nonzero)))
    high = draw(st.integers(0, min(3, n - low - nonzero)))
    body = draw(st.lists(st.integers(0, q - 1), min_size=n - low - high, max_size=n - low - high))
    if nonzero and not any(body):
        body[-1] = draw(st.integers(1, q - 1))
    return (0,) * low + tuple(body) + (0,) * high


@st.composite
def divisors(draw, q):
    """A nonzero divisor; a third of them are constants (length 1, perhaps
    with untrimmed zeros above)."""
    if draw(st.integers(0, 2)) == 0:
        return (draw(st.integers(1, q - 1)),) + (0,) * draw(st.integers(0, 2))
    return draw(polys(q, nonzero=True))


@st.composite
def pairs(draw, divisor=False):
    q = draw(st.sampled_from(QS))
    return q, draw(polys(q)), draw(divisors(q) if divisor else polys(q))


@PROPERTY
@given(pairs(), st.one_of(st.none(), st.integers(0, 2 * MAX_LEN)))
def test_pmul_matches_schoolbook(data, trunc):
    q, a, b = data
    f, o = FIELDS[q]
    assert gfq.pmul(f, a, b) == o.poly_mul(a, b)
    assert gfq.pmul(f, a, b, trunc=trunc) == o.poly_mul(a, b, trunc=trunc)


@PROPERTY
@given(pairs(divisor=True))
def test_pdivmod_matches_schoolbook(data):
    q, a, b = data
    f, o = FIELDS[q]
    quo, rem = gfq.pdivmod(f, a, b)
    assert (quo, rem) == o.poly_divmod(a, b)
    assert len(rem) < len(gfq.ptrim(b))


@st.composite
def gcd_pairs(draw):
    """Two polynomials, half of them with a drawn common factor."""
    q = draw(st.sampled_from(QS))
    if draw(st.booleans()):
        return q, draw(polys(q)), draw(polys(q))
    _, o = FIELDS[q]
    g = draw(polys(q, max_len=12, nonzero=True))
    a, b = (o.poly_mul(g, draw(polys(q, max_len=MAX_LEN - 12))) for _ in range(2))
    return q, a, b


@PROPERTY
@given(gcd_pairs())
def test_pgcd_matches_schoolbook(data):
    q, a, b = data
    f, o = FIELDS[q]
    g = gfq.pgcd(f, a, b)
    assert g == o.poly_gcd(a, b)
    for x in (a, b):
        if g:
            assert o.poly_divmod(x, g)[1] == ()


@PROPERTY
@given(pairs(), st.booleans(), st.integers(0, MAX_LEN + 4))
def test_ratfunc_series_times_the_denominator_is_the_numerator(data, polynomial, n):
    # the expansion mod t^n, by its polynomial shortcut (denominator 1) or
    # by the power-series inverse of the denominator 1 + t*b
    q, a, b = data
    f, o = FIELDS[q]
    den = (1,) if polynomial else (1,) + b
    s = gfq.RatFunc(f, a, den).series(n)
    assert len(s) == n
    assert o.poly_mul(s, den, trunc=n) == gfq.ptrim(o.poly_mul(a, (1,), trunc=n))


def test_kernels_on_zero_operands():
    f = gfq.GF(9)
    assert gfq.pmul(f, (), (1, 2)) == gfq.pmul(f, (1, 2), (0, 0)) == ()
    assert gfq.pmul(f, (1, 2), (3,), trunc=0) == ()
    assert gfq.pdivmod(f, (), (0, 5)) == ((), ())
    assert gfq.pdivmod(f, (0, 0, 0), (4,)) == ((), ())
    assert gfq.pgcd(f, (), ()) == ()
    assert gfq.pgcd(f, (0, 0, 2), ()) == (0, 0, 1)
    with pytest.raises(ZeroDivisionError):
        gfq.pdivmod(f, (1,), (0, 0))


# ---------------------------------------------------------------------------
# canonical form of RatFunc arithmetic
# ---------------------------------------------------------------------------

CFGS = [FqConfig(q) for q in (2, 3, 4, 9)]


def _assert_canonical(r, o):
    """gcd(num, den) = 1 and the lowest nonzero coefficient of den is 1."""
    assert r.num == gfq.ptrim(r.num) and r.den == gfq.ptrim(r.den)
    if not r.num:
        assert r.den == (1,)
        return
    assert o.poly_gcd(r.num, r.den) == (1,), r
    assert r.den[gfq.pt_val(r.den)] == 1, r


def _random_poly(rng, q, max_len, nonzero=False):
    while True:
        a = gfq.ptrim([rng.randrange(q) for _ in range(rng.randrange(max_len + 1))])
        if a or not nonzero:
            return a


def _random_ratfunc(rng, f, o, common=()):
    """A RatFunc with a t-pole in a third of the denominators, times the
    polynomial ``common`` in its numerator or its denominator."""
    num = _random_poly(rng, f.q, 5)
    den = (0,) * rng.choice((0, 0, 1, 2)) + _random_poly(rng, f.q, 4, nonzero=True)
    if common:
        if rng.random() < 0.5:
            num = o.poly_mul(num, common)
        else:
            den = o.poly_mul(den, common)
    return gfq.RatFunc(f, num, den)


def _from_scratch(f, o, parts):
    """sum of n_i/d_i over (n_i, d_i) pairs, as one fraction over the product
    of the denominators, reduced by the constructor."""
    num, den = (), (1,)
    for n, d in parts:
        num = o.poly_add(o.poly_mul(num, d), o.poly_mul(n, den))
        den = o.poly_mul(den, d)
    return gfq.RatFunc(f, num, den)


def _operand_pairs(rng, f, o, count):
    """(x, y) pairs: independent, sharing a factor across the fraction bar
    (so the cross gcds cancel), zero, equal denominators and x, -x."""
    out = []
    for k in range(count):
        common = _random_poly(rng, f.q, 3, nonzero=True) if k % 2 else ()
        x, y = _random_ratfunc(rng, f, o, common), _random_ratfunc(rng, f, o, common)
        out.append((x, y))
        out.append((x, -x))
        out.append((x, gfq.RatFunc(f, ())))
        out.append((x, gfq.RatFunc(f, _random_poly(rng, f.q, 4), x.den)))
    return out


@pytest.mark.parametrize("cfg", CFGS, ids=repr)
def test_ratfunc_mul_and_add_are_canonical(cfg):
    f, o = cfg.field, CoordGF(cfg.q)
    rng = random.Random(cfg.q)
    for x, y in _operand_pairs(rng, f, o, 40):
        prod, total = x * y, x + y
        _assert_canonical(prod, o)
        _assert_canonical(total, o)
        assert prod == _from_scratch(f, o, [(o.poly_mul(x.num, y.num), o.poly_mul(x.den, y.den))])
        assert total == _from_scratch(f, o, [(x.num, x.den), (y.num, y.den)])
        if x.num:
            assert x.inv_any() * x == gfq.RatFunc(f, (1,))
    x = _random_ratfunc(rng, f, o)
    assert (x + -x).is_zero() and (x + -x).den == (1,)


@pytest.mark.parametrize("cfg", CFGS, ids=repr)
def test_exa_dot_is_canonical(cfg):
    # 0 to 3 terms at t^e, e >= 0, with t-poles, shared factors and terms
    # that cancel, against the sum over the product of all denominators
    f, o = cfg.field, CoordGF(cfg.q)
    rng = random.Random(100 + cfg.q)
    operands = _operand_pairs(rng, f, o, 30)
    for k in range(200):
        n = k % 4
        terms = [(*rng.choice(operands), rng.randrange(4)) for _ in range(n)]
        if n >= 2 and k % 3 == 0:  # the last two terms cancel
            x, y, e = terms[-1]
            terms[-2] = (-x, y, e)
        got = cfg.exa_dot(terms)
        _assert_canonical(got, o)
        want = _from_scratch(f, o, [((0,) * e + o.poly_mul(x.num, y.num), o.poly_mul(x.den, y.den))
                                    for x, y, e in terms])
        assert got == want, terms
        assert cfg.exa_dot(iter(terms)) == want
