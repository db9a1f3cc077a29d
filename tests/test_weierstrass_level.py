"""The pi-side Weierstrass normalisation at its working level:
``localized._weierstrass_monic`` lifts the monic factor against the pivot
with its high digits reduced to level P = prec + max(0, s) + 1.  Checked
against the exact-pivot run (``helpers.weierstrass_monic_exact``) digit by
digit, its unit W against g = W*t and a lift, and for the size of the
digits inside the lifting, the digits it keeps and its budget."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from slomod import localized
from slomod.coeffs import CoeffElem, FqConfig
from slomod.contfrac import Slope
from slomod.errors import AlgebraError, PrecisionExhausted
from slomod.localized import SMat, hnf_pi
from slomod.series import SnuSeries, _ceil

from helpers import F2, NU0, Z3, Z5, _unit_range, poly, weierstrass_monic_exact

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

F4 = FqConfig(4, 20)


def level_of(g, prec):
    """The level P - s of the monic factor's digits (P the division's level)."""
    vg, d = g.certified_val_deg()
    s = _ceil(vg - g.nu * d)
    return prec + max(0, s) + 1 - s


@st.composite
def exact_polys(draw, cfg, slope, max_deg, ram=1):
    """A nonzero exact polynomial of the slope ring over K[w], w^ram = pi:
    each digit absent or a unit times w^j, j at most 3*ram above the least
    the slope allows."""
    coeffs = {}
    for i in range(max_deg + 1):
        if draw(st.booleans()):
            jmin = _ceil(-ram * slope.nu * i)
            c = CoeffElem.from_int(cfg, draw(st.integers(1, _unit_range(cfg) - 1)), ram=ram)
            coeffs[i] = c.scale_w(jmin + draw(st.integers(0, 3 * ram)))
    assume(coeffs)
    return SnuSeries(cfg, slope, coeffs, ram=ram)


@st.composite
def pivots(draw):
    """(g, prec): an exact polynomial of Weierstrass degree below its degree,
    ram 1 or 2, half of them a product with a unit polynomial."""
    cfg = draw(st.sampled_from([Z3, Z5, F2, F4]))
    slope = draw(st.sampled_from([NU0, Slope(1, 2), Slope(2, 3)]))
    ram = draw(st.sampled_from([1, 2]))
    g = draw(exact_polys(cfg, slope, draw(st.integers(2, 4)), ram))
    if draw(st.booleans()):
        unit = draw(exact_polys(cfg, slope, 2, ram))
        assume(0 in unit.coeffs and unit.coeffs[0].num_val == 0)
        g = g * unit.map_coeffs(lambda i, c: c if i == 0 else c.scale_pi(1))
    try:
        _, d = g.certified_val_deg()
    except AlgebraError:
        assume(False)
    assume(d < g.max_deg())
    return g, draw(st.integers(4, 16))


@given(pivots())
@PROPERTY
def test_weierstrass_monic_matches_the_exact_pivot_below_its_level(case):
    g, prec = case
    try:
        want = weierstrass_monic_exact(g, prec)
    except AlgebraError as e:
        with pytest.raises(type(e)):
            localized._weierstrass_monic(g, prec)
        return
    got, w = localized._weierstrass_monic(g, prec)
    level = level_of(g, prec)
    # the lifting's cofactor W is the unit of g = W*t: Weierstrass degree 0,
    # W*t equals g to the level of t's digits shifted by v(W), and each
    # digit W certifies is that of W lifted 12 levels further
    vw, dw = w.certified_val_deg()
    assert dw == 0
    assert (g - w * got).lower_bound() >= vw + level
    assert w.digits_agree(localized._weierstrass_monic(g, prec + 12)[1])
    for i in sorted(set(got.coeffs) | set(want.coeffs)):
        a, b = got.coeff(i), want.coeff(i)
        cut = _ceil(g.ram * (level - g.nu * i))
        # every digit below the level is known on both sides, and equal
        assert a.abs_w() >= cut and b.abs_w() >= cut, (i, a, b)
        assert a.split_at_abs_w(cut)[0] == b.split_at_abs_w(cut)[0], (i, a, b)
        if a != b:
            # the capped run prints an O-term at or above the level where the
            # exact run printed an O-term there too, or an uncertified exact
            # zero (an absent digit beyond the level)
            assert not a.has_witness() and not b.has_witness(), (i, a, b)


def test_weierstrass_monic_keeps_o_terms_for_a_constant_beyond_the_level():
    # capping all of g, Lo included, would leave Lo(g, 2) with no certified
    # valuation and raise PrecisionExhausted; capping Hi(g, 2) alone gives
    # the exact run's answer, u^2 with O-terms below it
    g = poly(Z5, NU0, [(0, 5**17), (2, 1), (3, 1)])
    t = localized._weierstrass_monic(g, 16)[0]
    assert t == weierstrass_monic_exact(g, 16)
    assert t.coeff(2) == CoeffElem.from_int(Z5, 1)
    assert all(not t.coeff(i).has_witness() for i in (0, 1))


def test_weierstrass_division_digits_stay_at_the_working_level(monkeypatch):
    # a slope-0 3x3 whose exact-pivot divisions reach 1233-bit digits: every
    # polynomial division and unit division inside the lifting stays within
    # p^P and a few bits
    M = SMat(Z5, NU0, [
        [poly(Z5, NU0, [(0, 10), (1, 4), (2, 10)]), poly(Z5, NU0, [(0, 15), (1, 20)]), poly(Z5, NU0, [(0, 5)])],
        [poly(Z5, NU0, [(2, 20)]), poly(Z5, NU0, [(0, 3), (1, 10)]), poly(Z5, NU0, [(1, 2), (2, 3)])],
        [poly(Z5, NU0, [(2, 5)]), poly(Z5, NU0, [(2, 1)]), poly(Z5, NU0, [(2, 20)])],
    ])
    prec = 16
    levels, outputs = [], []
    weierstrass_monic = localized._weierstrass_monic

    def recording_monic(g, p):
        vg, d = g.certified_val_deg()
        levels.append(p + max(0, _ceil(vg - g.nu * d)) + 1)
        try:
            return weierstrass_monic(g, p)
        finally:
            levels.pop()

    def recording(fn):
        def run(*args, **kwargs):
            out = fn(*args, **kwargs)
            if levels:
                outputs.extend((levels[-1], x) for x in (out if isinstance(out, tuple) else (out,)))
            return out
        return run

    monkeypatch.setattr(localized, "_weierstrass_monic", recording_monic)
    monkeypatch.setattr(localized, "poly_divmod", recording(localized.poly_divmod))
    monkeypatch.setattr(localized, "divide_by_unit", recording(localized.divide_by_unit))
    hnf_pi(M, prec)
    assert outputs
    for level, q in outputs:
        bound = (Z5.p ** level).bit_length() + 3
        for c in q.coeffs.values():
            for f in c.unit or ():
                assert max(abs(f.numerator), f.denominator).bit_length() <= bound, (level, c)


def test_weierstrass_monic_keeps_only_the_digits_its_pivot_allows():
    # g = pi^3 + 2u^2 + 2u^4 is a polynomial in u^2: its monic factor has no
    # u^1 digit, not even an O-term
    g = poly(Z5, NU0, [(0, 125), (2, 2), (4, 2)])
    t = localized._weierstrass_monic(g, 6)[0]
    assert t.render() == "(pi^3*188 + O(^7)) + u^2"
    assert 1 not in t.coeffs
    # the same over GF(4) at ram 2, w^2 = t: digits at u^0 and u^2 only
    one = CoeffElem.from_int(F4, 1, ram=2)
    g = SnuSeries(F4, NU0, {0: one.scale_w(3), 2: one, 4: one.scale_w(-2)}, ram=2)
    t = localized._weierstrass_monic(g, 10)[0]
    assert t.render() == "(w^5*(1) + O(^24)) + (w^2*(1) + O(^24))*u^2 + (1)*u^4"
    # with a u^3 digit every digit below u^2 may be nonzero, so both are
    # O-terms; R = pi^20 is already beyond the level, and the one step the
    # lifting always takes puts them at pi^20, as the Euclidean division did
    t = localized._weierstrass_monic(poly(Z5, NU0, [(0, 5**20), (2, 1), (3, 1)]), 6)[0]
    assert t.render() == "O(pi^20) + O(pi^20)*u + u^2"


def test_weierstrass_lifting_budget_error_names_its_rule(monkeypatch):
    monkeypatch.setattr(localized, "_lifting_budget", lambda gain, e: 0)
    g = poly(Z5, NU0, [(0, 5), (1, 1), (2, 1)])
    with pytest.raises(PrecisionExhausted, match=r"budget ceil\(log2\(gain/e\)\)\+2 = 0 steps"):
        localized._weierstrass_monic(g, 8)
    monkeypatch.undo()
    assert localized._weierstrass_monic(g, 8)[0].max_deg() == 1
