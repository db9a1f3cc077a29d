"""The exact Bezout clearing of the pi side.  ``series.gcd_extended`` runs
its Euclidean loop on int rows (Z_p digits at ram 1) or on dense lists of
exact digits (the rest); every output is checked against the loop on series
(``helpers.gcd_extended_series``), and so is the Hermite form it clears.
``localized._echelon`` computes no entry of T that a step overwrites; T is
checked against M.P on every row, on both sides."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from slomod import localized
from slomod.coeffs import CoeffElem, FqConfig
from slomod.contfrac import Slope
from slomod.localized import SMat, echelon_pi, hnf_pi, hnf_u, kernel_pi
from slomod.series import SnuSeries, _ceil, gcd_extended

from helpers import (
    F2,
    NU0,
    Z3,
    Z5,
    _unit_range,
    gcd_extended_series,
    mats_agree,
    poly,
    random_exact_poly,
    square_draw,
)

PROPERTY = settings(
    max_examples=480,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

F4 = FqConfig(4, 20)
HALF = Slope(1, 2)


@st.composite
def operands(draw, cfg, slope, ram):
    """An exact polynomial over K[w], w^ram = pi: the exact zero, a
    constant, or digits from u^lo (lo down to -2, Laurent as the CLI allows)
    to its degree, each a unit times w^j, j at most 3*ram above the least
    the slope allows."""
    kind = draw(st.sampled_from(["zero", "constant", "poly", "poly"]))
    if kind == "zero":
        return SnuSeries.zero(cfg, slope, ram)
    lo = 0 if kind == "constant" else draw(st.integers(-2, 0))
    hi = lo if kind == "constant" else lo + draw(st.integers(0, 4))
    coeffs = {}
    for i in range(lo, hi + 1):
        if i == hi or draw(st.booleans()):
            c = CoeffElem.from_int(cfg, draw(st.integers(1, _unit_range(cfg) - 1)), ram=ram)
            coeffs[i] = c.scale_w(_ceil(-ram * slope.nu * i) + draw(st.integers(0, 3 * ram)))
    return SnuSeries(cfg, slope, coeffs, ram=ram)


@st.composite
def gcd_cases(draw):
    """(x, y) over Z3, Z5, GF(2) or GF(4), ram 1 or 2, slope 0, 1/2 or 2/3;
    a third of the pairs share a nonzero common factor."""
    cfg = draw(st.sampled_from([Z3, Z5, F2, F4]))
    slope = draw(st.sampled_from([NU0, HALF, Slope(2, 3)]))
    ram = draw(st.sampled_from([1, 2]))
    x, y = draw(operands(cfg, slope, ram)), draw(operands(cfg, slope, ram))
    if draw(st.integers(0, 2)) == 0:
        f = draw(operands(cfg, slope, ram))
        assume(not f.is_exact_zero())
        x, y = x * f, y * f
    return x, y


WIDTHS = [(bn, bd) for bn in (1, 64, 300) for bd in (1, 64, 300)]


@st.composite
def wide_zp_operand(draw, cfg, slope, lo, hi):
    """An exact ram-1 Z_p polynomial from u^lo to u^hi whose digits are units
    n/d, numerator and denominator of 1, 64 or 300 bits each, times p^j, j
    at most 3 above the least the slope allows."""
    coeffs = {}
    for i in range(lo, hi + 1):
        if i == hi or draw(st.booleans()):
            n, d = (draw(st.integers(2**b >> 1, 2**b)) for b in draw(st.sampled_from(WIDTHS)))
            assume(n % cfg.p and d % cfg.p)
            c = CoeffElem.from_exact(cfg, Fraction(draw(st.sampled_from([1, -1])) * n, d))
            coeffs[i] = c.scale_w(_ceil(-slope.nu * i) + draw(st.integers(0, 3)))
    return SnuSeries(cfg, slope, coeffs)


@st.composite
def wide_zp_cases(draw):
    """(x, y) over Z3 or Z5 at ram 1, the integer rows of gcd_extended:
    degrees up to 8, Laurent operands from u^-2, digits of hundreds of bits,
    and half of the pairs times a common factor of degree 1 to 3, so that
    the gcd has positive degree."""
    cfg = draw(st.sampled_from([Z3, Z5]))
    slope = draw(st.sampled_from([NU0, HALF, Slope(2, 3)]))

    def operand():
        lo = draw(st.integers(-2, 0))
        return draw(wide_zp_operand(cfg, slope, lo, lo + draw(st.sampled_from(range(9)))))

    x, y = operand(), operand()
    if draw(st.booleans()):
        f = draw(wide_zp_operand(cfg, slope, 0, draw(st.sampled_from([1, 2, 3]))))
        x, y = x * f, y * f
    return x, y


@given(st.one_of(gcd_cases(), wide_zp_cases()))
@settings(PROPERTY, max_examples=960)
def test_gcd_extended_equals_the_loop_on_series(case):
    x, y = case
    for a, b in ((x, y), (y, x)):  # both orders, so the keys swap
        got, want = gcd_extended(a, b), gcd_extended_series(a, b)
        assert got == want, (a, b, got, want)
        assert [s.ram for s in got] == [s.ram for s in want]
        g, k, l, m, n = got
        assert k * a + l * b == g
        assert (m * a + n * b).is_exact_zero()
        assert k * n - l * m == SnuSeries.one(a.cfg, a.slope, g.ram)


def test_gcd_extended_of_laurent_operands():
    # u^-1 + 2 and u + 3 over Z5: the remainders reach u^-1, below both
    # cofactors, and g is the monic u^-1
    f = SnuSeries(Z5, NU0, {-1: CoeffElem.from_int(Z5, 1), 0: CoeffElem.from_int(Z5, 2)})
    h = poly(Z5, NU0, [(1, 1), (0, 3)])
    g, k, l, m, n = gcd_extended(f, h)
    assert (g.render(), k.render(), l.render()) == ("u^-1", "1 + (pi^-1*2)*u", "(-pi^-1*4)")
    assert (g, k, l, m, n) == gcd_extended_series(f, h)
    assert k * f + l * h == g
    assert (m * f + n * h).is_exact_zero()


def test_gcd_extended_of_mixed_ram_operands_is_at_the_common_ram():
    # the loop ends on y = u itself; g is still lifted to ram 2
    x = SnuSeries(Z5, NU0, {2: CoeffElem.from_int(Z5, 1, ram=2)}, ram=2)
    y = poly(Z5, NU0, [(1, 1)])
    g, k, l, m, n = gcd_extended(x, y)
    assert [s.ram for s in (g, k, l, m, n)] == [2] * 5
    assert g == y.with_ram(2)
    assert k * x + l * y == g
    assert (m * x + n * y).is_exact_zero()


@pytest.mark.parametrize("cfg", [Z3, Z5], ids=["Z3", "Z5"])
@pytest.mark.parametrize("slope", [NU0, HALF], ids=str)
def test_hnf_pi_of_square_draws_equals_the_clearing_by_the_series_loop(cfg, slope, monkeypatch):
    # the Bezout digits of these inputs grow to hundreds of bits with the
    # size; the Hermite form is the same, entry for entry, with every
    # clearing step run by the loop on series
    oracle_calls = []

    def oracle(x, y):
        oracle_calls.append(x)
        return gcd_extended_series(x, y)

    for size in range(2, 9):
        M = square_draw(cfg, slope, size)
        got = hnf_pi(M, 8)
        monkeypatch.setattr(localized, "gcd_extended", oracle)
        want = hnf_pi(M, 8)
        monkeypatch.undo()
        assert got.pivot_rows == want.pivot_rows, size
        assert got.T.a == want.T.a, size
        assert got.P.a == want.P.a, size
    assert oracle_calls


def _random_matrices(cfg, slope, seed, count=8):
    """Exact matrices of shapes 2x2, 2x3, 3x2 and 3x3, a few entries zero."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        rows, cols = (2, 2, 3, 3)[k % 4], (2, 3, 2, 3)[k % 4]
        zero = SnuSeries.zero(cfg, slope)
        out.append(SMat(cfg, slope, [
            [zero if rng.random() < 0.2 else random_exact_poly(rng, cfg, slope, max_deg=2, max_pi=2)
             for _ in range(cols)] for _ in range(rows)]))
    return out


def _t_agrees_with_mp(M, ech):
    return mats_agree(M.matmul(ech.P), ech.T)


def test_pi_side_t_agrees_with_m_p_on_every_row():
    for seed, (cfg, slope) in enumerate([(Z5, NU0), (Z5, HALF), (Z3, NU0), (F2, NU0), (F2, HALF)]):
        for M in _random_matrices(cfg, slope, 40 + seed):
            for ech in (hnf_pi(M, 8), echelon_pi(M, 8)):
                assert _t_agrees_with_mp(M, ech), M
            # the clearing alone: each pivot is the gcd that gcd_extended returned
            ech = localized._echelon(M, localized._PiSide(None), normalize=False)
            assert _t_agrees_with_mp(M, ech), M
            for col in kernel_pi(M):
                assert all(e.is_exact_zero() for e in M.apply_to_vector(col))


def test_u_side_t_agrees_with_m_p_on_every_row_with_finite_precision_input():
    # entries count as zero at the level n, so T and M.P agree below it
    n, rng = 6, random.Random(7)
    for seed, (cfg, slope) in enumerate([(Z5, NU0), (Z5, HALF), (Z3, HALF), (F2, HALF)]):
        for M in _random_matrices(cfg, slope, 60 + seed):
            # half of the digits known to 3-5 relative digits only
            M = M.map(lambda e: e.map_coeffs(
                lambda i, c: c.reduce_prec(rng.randrange(3, 6)) if rng.random() < 0.5 else c))
            for hnf in (True, False):
                ech = hnf_u(M, n, hnf=hnf)
                MP = M.matmul(ech.P)
                for i in range(M.rows):
                    for j in range(M.cols):
                        assert (MP.a[i][j] - ech.T.a[i][j]).visible_valuation() >= n, (M, i, j)


def test_pi_normalize_divides_no_entry_of_the_pivot_row(monkeypatch):
    # g = 5 + u^2 + u^3 has Weierstrass degree 2 below its degree 3, so the
    # pivot column is scaled by the inverse of the unit g/t; the pivot
    # itself is set to t, so only the row below takes a division
    divided = []
    real = localized.divide_by_unit

    def spy(z, x, u_prec):
        # the column scaling's divisions: its frame is on the stack, not
        # necessarily the immediate caller (the pi-shift helper sits between)
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "_scale_col_by_unit_inverse":
            frame = frame.f_back
        if frame is not None:
            divided.append(z)
        return real(z, x, u_prec)

    monkeypatch.setattr(localized, "divide_by_unit", spy)
    g = poly(Z5, NU0, [(0, 5), (2, 1), (3, 1)])
    ech = hnf_pi(SMat(Z5, NU0, [[g]]), 8)
    assert divided == []
    t = ech.T.a[0][0]
    assert t.max_deg() == 2 and t.coeffs[2] == CoeffElem.from_int(Z5, 1)
    M = SMat(Z5, NU0, [[g], [poly(Z5, NU0, [(0, 1), (1, 1)])]])
    ech = hnf_pi(M, 8)
    assert len(divided) == 1
    monkeypatch.setattr(localized, "divide_by_unit", real)
    assert _t_agrees_with_mp(M, ech)
