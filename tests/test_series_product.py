"""Property tests of the L1 integer kernels: the Kronecker product of Z_p
series against the per-digit ``sum_products`` loop, the packs it keeps
with each series against fresh copies, and the integer level keys against
the Fraction level formula."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slomod import coeffs, gfq
from slomod import series as l1
from slomod.coeffs import INF, CoeffElem
from slomod.contfrac import Slope
from slomod.series import SnuSeries

from helpers import F2, NU0, Z3, Z5, Z7, fraction_levels, mul_per_digit, series_strict, visible_degree

PROPERTY = settings(
    max_examples=150,
    deadline=2000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BIG = 2**210
SLOPES = [NU0, Slope(1, 2), Slope(2, 3), Slope(3, 2)]
TAILS = [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(-5, 3), Fraction(3), INF]

# numerators and denominators small, or above 2^200, of either sign
nonzero_ints = st.one_of(st.integers(-60, 60), st.integers(-BIG, BIG)).filter(bool)
positive_ints = st.one_of(st.integers(1, 60), st.integers(2**200, BIG))


@st.composite
def zp_values(draw):
    return Fraction(draw(nonzero_ints), draw(positive_ints))


@st.composite
def f2_values(draw):
    f = F2.field
    num = (f.one,) + tuple(draw(st.lists(st.sampled_from(range(f.q)), max_size=3)))
    den = (f.one,) + tuple(draw(st.lists(st.sampled_from(range(f.q)), max_size=2)))
    return gfq.RatFunc(f, num, den)


@st.composite
def coeff_elems(draw, cfg, values, ram=1):
    """An exact, finite-precision or O-term digit at w-valuation in [-4, 4]."""
    kind = draw(st.sampled_from(["exact", "exact", "finite", "o"]))
    shift = draw(st.integers(-4, 4))
    if kind == "o":
        return CoeffElem.o_term(cfg, shift, ram)
    c = CoeffElem.from_exact(cfg, draw(values), ram)
    if ram > 1 and draw(st.booleans()):
        c = c + CoeffElem.from_exact(cfg, draw(values), ram).scale_w(draw(st.integers(1, ram)))
    if c.is_exact_zero():
        return c
    c = c.scale_w(shift)
    return c.reduce_prec(draw(st.integers(1, 6))) if kind == "finite" else c


@st.composite
def series(draw, cfg, slope, values, ram=1):
    """Digits in a window that may start below u^0, in drawn (unsorted)
    order; a polynomial or a finite u_prec with a drawn tail bound."""
    lo = draw(st.integers(-4, 2))
    exps = draw(st.lists(st.integers(lo, lo + 8), max_size=7, unique=True))
    digits = {}
    for i in exps:
        c = draw(coeff_elems(cfg, values, ram))
        if not c.is_exact_zero():
            digits[i] = c
    if draw(st.booleans()):
        return SnuSeries(cfg, slope, digits, ram=ram)
    up = max(exps, default=lo) + draw(st.integers(1, 3))
    return SnuSeries(cfg, slope, digits, up, draw(st.sampled_from(TAILS)), ram=ram)


def _mirror(x):
    """x(-u): x(u)*x(-u) has only even exponents, every odd digit cancels."""
    return x.map_coeffs(lambda i, c: -c if i % 2 else c)


@st.composite
def zp_pairs(draw):
    cfg = draw(st.sampled_from([Z3, Z5, Z7]))
    slope = draw(st.sampled_from(SLOPES[:3]))
    x = draw(series(cfg, slope, zp_values()))
    how = draw(st.sampled_from(["free", "free", "mirror", "negated"]))
    if how == "mirror":
        return x, _mirror(x)
    if how == "negated":
        return x, -x
    return x, draw(series(cfg, slope, zp_values()))


@PROPERTY
@given(zp_pairs())
def test_kronecker_product_matches_per_digit_loop(pair):
    x, y = pair
    assert series_strict(x * y) == series_strict(mul_per_digit(x, y))


@pytest.mark.parametrize("cfg", [Z3, Z5, Z7], ids=repr)
@pytest.mark.parametrize("prec", [INF, 1, 3])
def test_cancelling_digits(cfg, prec):
    """A digit that cancels is dropped when exact and an O-term otherwise."""
    c = CoeffElem.from_exact(cfg, Fraction(-(2**205) - 1, 2**203 + 3), prec=prec).scale_w(-2)
    x = SnuSeries(cfg, NU0, {-1: c, 0: c})
    got = x * _mirror(x)
    assert series_strict(got) == series_strict(mul_per_digit(x, _mirror(x)))
    assert list(got.coeffs) == ([-2, 0] if prec == INF else [-2, -1, 0])
    if prec != INF:
        assert not got.coeffs[-1].has_witness()


def _count_calls(monkeypatch, name):
    seen = []
    real = getattr(coeffs, name)

    def counted(*args, **kwargs):
        seen.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(coeffs, name, counted)
    return seen


@st.composite
def fallback_pairs(draw):
    """GF(2) digits at ram 1, which do not pack, and Z5 digits at ram 2,
    which do."""
    cfg, values, ram = draw(st.sampled_from([(F2, f2_values(), 1), (Z5, zp_values(), 2)]))
    slope = draw(st.sampled_from(SLOPES[:2]))
    x = draw(series(cfg, slope, values, ram))
    return x, draw(series(cfg, slope, values, ram))


def _exact_monomial(s):
    """s is c*u^j with c exact and nothing unknown."""
    return len(s.coeffs) == 1 and s.u_prec == INF and all(c.is_exact() for c in s.coeffs.values())


@PROPERTY
@given(fallback_pairs())
def test_gf_products_take_the_per_digit_loop_and_ramified_zp_ones_one_multiply(pair):
    """Over GF(2): one ``sum_products`` per product exponent, unless a
    factor is an exact monomial: that product is one ``CoeffElem`` product
    per digit, which over GF(q) at ram 1 is a ``RatFunc`` product, not a
    ``sum_products`` (see the next test).  Over Z5 at ram 2: one Kronecker
    multiply and no ``sum_products`` and no generic ``_normalize``, unless
    a factor is an exact monomial."""
    x, y = pair
    with pytest.MonkeyPatch.context() as mp:
        per_digit = _count_calls(mp, "sum_products")
        packed = _count_calls(mp, "_zp_kronecker")
        generic = _count_calls(mp, "_normalize")
        got = x * y
    up = min(x.u_prec + min(y.coeffs, default=y.u_prec), y.u_prec + min(x.coeffs, default=x.u_prec))
    keys = {i + j for i in x.coeffs for j in y.coeffs if i + j < up}
    monomial = _exact_monomial(x) or _exact_monomial(y)
    if x.cfg.kind == "fq":
        assert not packed
        if not monomial:
            assert len(per_digit) == len(keys)
    elif not monomial:
        assert len(packed) == (1 if keys else 0)
        assert not per_digit and not generic
    assert series_strict(got) == series_strict(mul_per_digit(x, y))


@st.composite
def monomial_pairs(draw):
    """(c*u^j, x): c exact, j in [-4, 4]; x with exact, finite-precision and
    O-term digits, possibly below u^0, a polynomial or of finite u_prec;
    over Z3, Z5 or GF(2) at ram 1 or 2."""
    cfg, values = draw(st.sampled_from([(Z3, zp_values()), (Z5, zp_values()), (F2, f2_values())]))
    ram = draw(st.sampled_from([1, 2]))
    slope = draw(st.sampled_from(SLOPES[:3]))
    c = draw(coeff_elems(cfg, values, ram).filter(lambda c: c.is_exact() and not c.is_exact_zero()))
    m = SnuSeries(cfg, slope, {draw(st.integers(-4, 4)): c}, ram=ram)
    return m, draw(series(cfg, slope, values, ram))


@PROPERTY
@given(monomial_pairs(), st.booleans())
def test_an_exact_monomial_factor_is_one_coefficient_product_per_digit(pair, first):
    m, x = pair
    a, b = (m, x) if first else (x, m)
    with pytest.MonkeyPatch.context() as mp:
        packed = _count_calls(mp, "_zp_kronecker")
        built = _count_calls(mp, "_zp_pack")
        looped = []
        real = l1.series_product
        mp.setattr(l1, "series_product", lambda *args: looped.append(args) or real(*args))
        got = a * b
    assert not packed and not built and not looped
    assert m._pack is None and x._pack is None
    assert series_strict(got) == series_strict(mul_per_digit(a, b))


def test_zp_ram_one_products_take_one_multiply(monkeypatch):
    x = SnuSeries.from_int_terms(Z5, NU0, [(0, 3), (1, 10), (4, -7)])
    y = SnuSeries.from_int_terms(Z5, NU0, [(0, 2), (2, -5)])
    per_digit = _count_calls(monkeypatch, "sum_products")
    packed = _count_calls(monkeypatch, "_zp_kronecker")
    built = []
    real = coeffs._zp_pack
    monkeypatch.setattr(coeffs, "_zp_pack", lambda p, ram, digits: built.append(digits) or real(p, ram, digits))
    x * x
    assert packed == ["_zp_kronecker"] and not per_digit
    x * y
    y.addmul(1, x, y)
    assert len(packed) == 3 and not per_digit
    # one pack per series, built from its own digits on first use
    assert [id(d) for d in built] == [id(x.coeffs), id(y.coeffs)]


def _fresh(s):
    """A structurally equal copy of s that has never been a factor."""
    return SnuSeries(s.cfg, s.slope, dict(s.coeffs), s.u_prec, s.tail_bound, ram=s.ram)


@st.composite
def reused_factors(draw):
    """(x, y, acc) over Z3, Z5 or Z7 at slope 0, 1/2 or 2/3, with exact,
    finite-precision and O-term digits."""
    cfg = draw(st.sampled_from([Z3, Z5, Z7]))
    slope = draw(st.sampled_from(SLOPES[:3]))
    x, y, acc = (draw(series(cfg, slope, zp_values())) for _ in range(3))
    return x, y, acc


@PROPERTY
@given(reused_factors(), st.sampled_from([1, -1]))
def test_a_packed_factor_gives_what_a_fresh_copy_gives(data, sign):
    """x and y are factors again and again, in both places, inside addmul
    and after a no-op ``with_ram``, so their packs are built once and then
    read; every result is the one fresh copies without a pack give."""
    x, y, acc = data
    uses = [
        lambda a, b, c: a * b,
        lambda a, b, c: b * a,
        lambda a, b, c: a * a,
        lambda a, b, c: c.addmul(sign, a, b),
        lambda a, b, c: c.addmul(sign, b, a),
        lambda a, b, c: a.with_ram(1) * b.with_ram(1),
        lambda a, b, c: b.addmul(sign, a, a),
        lambda a, b, c: a * b,
    ]
    for use in uses:
        want = use(_fresh(x), _fresh(y), _fresh(acc))
        assert series_strict(use(x, y, acc)) == series_strict(want)
    assert (x._pack is None) == (not x.coeffs)


def _readings(x, p):
    """The level readings of x through the integer keys, in the order of
    ``fraction_levels``."""

    def outcome(fn):
        try:
            return ("ok", fn())
        except Exception as e:  # noqa: BLE001 - the class is the outcome
            return ("raise", type(e))

    return [
        outcome(x.lower_bound),
        outcome(x.visible_valuation),
        outcome(lambda: visible_degree(x)),
        outcome(x.certified_val_deg),
        outcome(x.certified_valuation),
        outcome(lambda: x.truncate_u(p).tail_bound),
        outcome(lambda: sorted(i for i, c in x.coeffs.items()
                               if c.has_witness() and x.level_key(i, c) == 0)),
    ]


def _typed(readings):
    return [(kind, type(v), v) for kind, v in readings]


def _at_key(x, i, key, c):
    """c moved to the w-valuation that puts it at level key/(ram*alpha) at
    u^i, or None when no valuation does."""
    nv, r = divmod(key - x.ram * x.slope.beta * i, x.slope.alpha)
    return None if r else c.scale_w(nv - c.num_val)


@st.composite
def level_inputs(draw):
    """A drawn series, or one anchored by a certain digit at level 0 with an
    O-term one key below, on or above it: the ties and the edges of the
    certified readings."""
    ram = draw(st.sampled_from([1, 2, 3]))
    slope = draw(st.sampled_from(SLOPES))
    x = draw(series(Z5, slope, zp_values(), ram))
    p = draw(st.integers(-5, 8))
    if draw(st.booleans()):
        return x, p
    lift = ram * slope.alpha  # every other digit moves to level >= 1
    digits = {
        i: c.scale_w(max(0, -((x.level_key(i, c) - lift) // slope.alpha)))
        for i, c in x.coeffs.items()
    }
    window = max(digits, default=0) + 1 if x.is_polynomial() else x.u_prec
    i0 = draw(st.integers(-4, 8).filter(lambda i: i < window))
    anchor = _at_key(x, i0, 0, CoeffElem.from_int(Z5, draw(st.integers(1, 4)), ram))
    i1 = draw(st.integers(-4, 8).filter(lambda i: i < window and i != i0))
    loose = _at_key(x, i1, draw(st.sampled_from([-1, 0, 1])), CoeffElem.o_term(Z5, 0, ram))
    for i, c in ((i0, anchor), (i1, loose)):
        if c is not None:
            digits[i] = c
    tail = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3), INF]))
    up = INF if x.is_polynomial() else x.u_prec
    return SnuSeries(Z5, slope, digits, up, None if up == INF else tail, ram=ram), p


@PROPERTY
@given(level_inputs())
def test_level_keys_match_fraction_levels(data):
    x, p = data
    assert _typed(_readings(x, p)) == _typed(fraction_levels(x, p))
