"""Precision lift of the ramified library operations: every digit that
``weierstrass_prep`` (q and h) and ``euclid_div`` (q and r) certify at prec 6
equals the digit at prec 18, and ``invert_unit`` at n = 6 agrees with n = 18
below level 6.

The inputs have the shapes of the ramified library slots of the benchmark:
slope-0 polynomials over Z5 (even draws) or Z3 (odd draws) transported to
slopes 1/2, 2/3, 1/3 and 3/2, where the coefficients live in K[w] with w^a =
pi for the slope b/a.  Each of the 15 draws of a slope takes a fresh
``Random(1000 * k + draw)``, k the index of the slope, and draws in order: a
distinguished polynomial of Weierstrass degree a (``weierstrass_prep``), a
dividend and a distinguished divisor of degree 1 or 2 (``euclid_div``) and a
unit (``invert_unit``)."""

import random

import pytest

from slomod.contfrac import Slope
from slomod.series import euclid_div, invert_unit, slope_transport, weierstrass_prep

from helpers import NU0, Z3, Z5, poly

SLOPES = [Slope(1, 2), Slope(2, 3), Slope(1, 3), Slope(3, 2)]
SLOPE_IDS = ["1/2", "2/3", "1/3", "3/2"]
DRAWS = range(15)
PREC, LIFTED = 6, 18


def _digit(rng, p, k):
    """An integer of p-valuation exactly k."""
    return rng.choice([x for x in range(-(p - 1), p) if x % p]) * p**k


def _distinguished(rng, p, d, deg):
    """Weierstrass degree d at slope 0: a unit digit at u^d, positive
    valuation below it."""
    terms = []
    for i in range(deg + 1):
        if i < d:
            terms.append((i, _digit(rng, p, rng.randint(1, 2))))
        elif i == d:
            terms.append((i, _digit(rng, p, 0)))
        elif rng.random() < 0.5:
            terms.append((i, _digit(rng, p, rng.randint(0, 2))))
    return terms


def draw_inputs(k, draw):
    """(x, y, divisor, unit) of draw ``draw`` at slope SLOPES[k]."""
    slope = SLOPES[k]
    rng = random.Random(1000 * k + draw)
    cfg = (Z5, Z3)[draw % 2]
    p = cfg.p

    def moved(terms):
        return slope_transport(poly(cfg, NU0, terms), slope)

    x = moved(_distinguished(rng, p, slope.alpha, slope.alpha + 2))
    y = moved([(i, _digit(rng, p, rng.randint(0, 2))) for i in range(5) if i == 0 or rng.random() < 0.7])
    divisor = moved(_distinguished(rng, p, 1 + draw % 2, 2 + draw % 2))
    unit = moved([(0, _digit(rng, p, 0))] + [(i, _digit(rng, p, rng.randint(1, 2))) for i in range(1, 4)])
    return x, y, divisor, unit


@pytest.mark.parametrize("k", range(4), ids=SLOPE_IDS)
def test_weierstrass_prep_digits_survive_a_precision_lift(k):
    for draw in DRAWS:
        x = draw_inputs(k, draw)[0]
        (q, h), (q_hi, h_hi) = weierstrass_prep(x, PREC), weierstrass_prep(x, LIFTED)
        assert q.digits_agree(q_hi) and h.digits_agree(h_hi), draw


# (slope index, draw) of the one run whose quotient claims a digit at the
# working level, held by the strict xfail below
EUCLID_AT_THE_LEVEL = (3, 0)


@pytest.mark.parametrize("k", range(4), ids=SLOPE_IDS)
def test_euclid_div_digits_survive_a_precision_lift(k):
    for draw in DRAWS:
        if (k, draw) == EUCLID_AT_THE_LEVEL:
            continue
        _, y, x, _ = draw_inputs(k, draw)
        (q, r), (q_hi, r_hi) = euclid_div(y, x, PREC), euclid_div(y, x, LIFTED)
        assert q.digits_agree(q_hi) and r.digits_agree(r_hi), draw


@pytest.mark.xfail(raises=AssertionError, strict=True)
def test_euclid_div_quotient_has_no_exact_digit_at_the_working_level():
    # Z5 at slope 3/2, y = -25 + 75u^3 + 50u^4 and x = -25 + 3u + 50u^2
    # transported: at prec 6 the quotient has no u^0 digit, an exact zero,
    # while prec 18 has w^12*(2604314) + O(w^36) there, at level 6.  Its
    # kind is that of test_euclid_div_quotient_digit_beyond_the_working_level
    # (test_series.py): the level cap of the quotient keeps an absent digit
    # an exact zero
    _, y, x, _ = draw_inputs(*EUCLID_AT_THE_LEVEL)
    q, q_hi = euclid_div(y, x, PREC)[0], euclid_div(y, x, LIFTED)[0]
    assert q.digits_agree(q_hi)


def _unit_example():
    return slope_transport(poly(Z5, NU0, [(0, 2), (1, 5), (2, 3), (3, 10)]), Slope(1, 2))


@pytest.mark.parametrize("k", range(4), ids=SLOPE_IDS)
def test_invert_unit_digits_agree_below_level_n(k):
    units = [draw_inputs(k, draw)[3] for draw in DRAWS] + ([_unit_example()] if k == 0 else [])
    for y in units:
        low, high = invert_unit(y, PREC), invert_unit(y, LIFTED)
        assert low.reduce_levels(PREC).digits_agree(high.reduce_levels(PREC)), y


@pytest.mark.xfail(raises=AssertionError, strict=True)
def test_invert_unit_digits_survive_a_precision_lift():
    # the u^8 digit prints as the exact w^-8*(38073/256) at n = 6, while n =
    # 18 gives w^-8*(466771/512): they differ by w^8, at level 8 >= n, so
    # digits beyond the working level print as certain
    y = _unit_example()
    assert invert_unit(y, PREC).digits_agree(invert_unit(y, LIFTED))
