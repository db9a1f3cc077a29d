"""The one classical K[u] division loop, ``series._divmod_dense``.
``series.poly_divmod`` runs it on ``CoeffElem`` digits and is checked against
the loop on series it replaced (``helpers.poly_divmod_series``): the same
quotient and remainder, digit for digit, with the same ``u_prec``,
``tail_bound`` and ram."""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from slomod import gfq
from slomod.coeffs import CoeffElem, FqConfig
from slomod.contfrac import Slope
from slomod.series import SnuSeries, poly_divmod

from helpers import F2, NU0, Z3, Z5, _unit_range, poly, poly_divmod_series

PROPERTY = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

F4 = FqConfig(4, 20)
HALF = Slope(1, 2)


@st.composite
def digits(draw, cfg, ram, kinds):
    """One nonzero digit of K[w], w^ram = pi, of a kind drawn from ``kinds``:
    exact, finite precision (1 to 3 w-digits) or a bare O-term."""
    kind = draw(st.sampled_from(kinds))
    j = draw(st.integers(-2 * ram, 3 * ram))
    if kind == "O":
        return CoeffElem.o_term(cfg, j, ram)
    k = draw(st.integers(1, _unit_range(cfg) - 1))
    unit = cfg.exa_from_int(k) if cfg.kind == "zp" else gfq.RatFunc(cfg.field, (k,))
    c = CoeffElem.from_exact(cfg, unit, ram=ram).scale_w(j)
    if ram > 1 and draw(st.booleans()):
        c = c + CoeffElem.from_int(cfg, 1, ram=ram).scale_w(j + 1)
    return c if kind == "exact" else c.reduce_prec(draw(st.integers(1, 3)))


@st.composite
def polys(draw, cfg, slope, ram, lo, top, kinds, lead_exact=False):
    """A polynomial with digits from u^lo to u^top, each present or absent,
    the one at u^top always present (exact with ``lead_exact``)."""
    coeffs = {i: draw(digits(cfg, ram, kinds)) for i in range(lo, top) if draw(st.booleans())}
    coeffs[top] = draw(digits(cfg, ram, ("exact",) if lead_exact else kinds))
    return SnuSeries(cfg, slope, coeffs, ram=ram)


@st.composite
def divisions(draw):
    """(y, x): Z3, Z5, GF(2) or GF(4) at slopes 0, 1/2 and 2/3; each operand
    at ram 1 or 2 and possibly Laurent; y with exact, finite-precision and
    O-term digits, of any degree (below deg x too), x with an exact leading
    digit and exact or finite-precision digits below it."""
    cfg = draw(st.sampled_from([Z3, Z5, F2, F4]))
    slope = draw(st.sampled_from([NU0, HALF, Slope(2, 3)]))
    ram_x, ram_y = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    lo_x, dx = draw(st.integers(-2, 1)), draw(st.integers(0, 3))
    x = draw(polys(cfg, slope, ram_x, min(lo_x, dx), dx, ("exact", "finite"), lead_exact=True))
    lo_y, dy = draw(st.integers(-3, 1)), draw(st.integers(-1, 7))
    y = draw(polys(cfg, slope, ram_y, min(lo_y, dy), dy, ("exact", "finite", "O")))
    return y, x


def assert_equals_the_loop_on_series(y, x):
    q, r = poly_divmod(y, x)
    want_q, want_r = poly_divmod_series(y, x)
    for got, want in ((q, want_q), (r, want_r)):
        assert got == want, (y, x, got, want)
        assert (got.u_prec, got.tail_bound, got.ram) == (want.u_prec, want.tail_bound, want.ram)
    return q, r


@given(divisions())
@PROPERTY
def test_poly_divmod_equals_the_loop_on_series(case):
    y, x = case
    assume(y.max_deg() >= x.max_deg())
    q, r = assert_equals_the_loop_on_series(y, x)
    assert r.max_deg() is None or r.max_deg() < x.max_deg()
    # y - q*x - r has no certain digit: the division is right where known
    assert not (y.addmul(-1, q, x) - r).has_certain_digit()


@given(divisions())
@PROPERTY
def test_a_dividend_below_the_divisor_is_its_own_remainder(case):
    y, x = case
    assume(y.max_deg() < x.max_deg())
    q, r = assert_equals_the_loop_on_series(y, x)
    assert r is y and q.is_exact_zero() and q.ram == max(x.ram, y.ram)


def test_an_exact_zero_dividend_is_its_own_remainder():
    x = SnuSeries(F4, HALF, {1: CoeffElem.from_int(F4, 1, ram=2)}, ram=2)
    y = SnuSeries.zero(F4, HALF, ram=1)
    q, r = assert_equals_the_loop_on_series(y, x)
    assert r is y and r.ram == 1 and q == SnuSeries.zero(F4, HALF, ram=2)


def test_poly_divmod_of_a_laurent_dividend_with_an_o_term_on_top():
    # y = O(pi^2) u^3 + 3u - u^-2 by x = u^2 + 5: the quotient digit at u^1
    # is an O-term, which leaves 3 + O(pi^3) at u^1 of the remainder
    y = poly(Z5, HALF, [(1, 3), (-2, -1)]) + SnuSeries(Z5, HALF, {3: CoeffElem.o_term(Z5, 2)})
    x = poly(Z5, HALF, [(2, 1), (0, 5)])
    q, r = assert_equals_the_loop_on_series(y, x)
    assert q.render() == "O(pi^2)*u"
    assert r == SnuSeries(Z5, HALF, {-2: CoeffElem.from_int(Z5, -1), 1: CoeffElem.from_int(Z5, 3, prec=3)})
