import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest

from slomod import localized, maxmod, pairrep, precise_sum, series
from slomod.coeffs import INF, CoeffElem
from slomod.contfrac import Slope
from slomod.errors import AlgebraError, BadParameters, OutOfRange, PrecisionExhausted
from slomod.localized import (
    SMat,
    _concat,
    hnf_pi,
    hnf_u,
    kernel_pi,
    kernel_u,
    member_pi,
    member_u,
    module_intersect,
    mu_monomial,
    saturation_u,
)
from slomod.series import SnuSeries

from helpers import (
    F2,
    NU0,
    Z3,
    Z5,
    _unit_range,
    eager_hnf_u,
    eager_kernel_u,
    eager_member_u,
    eager_saturation_u,
    geometric_u_invert_unit,
    mats_agree,
    mono,
    poly,
    random_exact_poly,
    random_matrix,
    series_is_zeroish,
)

HALF = Slope(1, 2)


def random_unimodular(rng, cfg, slope, n, ops=4):
    """Product of elementary column operations: exact, determinant a unit."""
    Q = SMat.identity(cfg, slope, n)
    for _ in range(ops):
        j0, j1 = rng.randrange(n), rng.randrange(n)
        if j0 == j1:
            continue
        q = random_exact_poly(rng, cfg, slope, max_deg=1, max_pi=1)
        Q.addmul_col(j0, j1, q)
    return Q


def test_echelon_identity():
    I = SMat.identity(Z5, NU0, 3)
    ech = hnf_pi(I, 8)
    assert mats_agree(ech.T, I)
    assert ech.pivot_rows == [0, 1, 2]


def test_echelon_u_pi_matrix():
    # ((u, pi), (pi, u)): no triangular form over the base ring, but the
    # pi-localization unblocks it
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(1, 1)]), poly(Z5, NU0, [(0, 5)])],
                       [poly(Z5, NU0, [(0, 5)]), poly(Z5, NU0, [(1, 1)])]])
    ech = hnf_pi(M, 8)
    assert ech.rank == 2
    MP = M.matmul(ech.P)
    for i in range(2):
        for j in range(2):
            assert MP.a[i][j].digits_agree(ech.T.a[i][j])
    # pivot shape: monic with lower terms of strictly positive level
    for t in ech.pivots:
        d = t.max_deg()
        assert t.coeffs[d].is_exact()
        for i, c in t.coeffs.items():
            if i < d:
                assert c.val_lower() + NU0.nu * (i - d) > 0 or c.val_lower() > 0


def test_echelon_single_column():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 25)])], [poly(Z5, NU0, [(3, 5)])]])
    ech = hnf_pi(M, 8)
    assert ech.rank == 1
    assert ech.pivot_rows == [0]
    # pi^2 is a unit of the localization: the pivot normalizes to 1
    assert ech.pivots[0] == SnuSeries.one(Z5, NU0)


def test_hnf_pi_uniqueness_fuzz():
    rng = random.Random(41)
    for _ in range(25):
        d = rng.randrange(1, 4)
        k = rng.randrange(1, 4)
        M = SMat.from_columns(
            Z5, NU0, d, [[random_exact_poly(rng, Z5, NU0, 2, 2) for _ in range(d)] for _ in range(k)]
        )
        Q = random_unimodular(rng, Z5, NU0, k)
        h1 = hnf_pi(M, 10)
        h2 = hnf_pi(M.matmul(Q), 10)
        assert h1.pivot_rows == h2.pivot_rows
        for a, b in zip(h1.pivots, h2.pivots):
            assert a.digits_agree(b)
        for i in range(d):
            for j in range(h1.rank):
                assert h1.T.a[i][j].digits_agree(h2.T.a[i][j]), (i, j)


def test_kernel_paper_example():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 25)]), poly(Z5, NU0, [(3, 5)])]])
    K = kernel_pi(M)
    assert len(K) == 1
    assert K[0][0] == poly(Z5, NU0, [(3, 1)])
    assert K[0][1] == poly(Z5, NU0, [(0, -5)])


def test_kernel_full_rank_empty():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 1)]), poly(Z5, NU0, [(1, 1)])],
                       [SnuSeries.zero(Z5, NU0), poly(Z5, NU0, [(0, 5)])]])
    assert kernel_pi(M) == []


def test_kernel_multiply_back_random():
    rng = random.Random(51)
    for _ in range(20):
        d = rng.randrange(1, 3)
        cols = [[random_exact_poly(rng, Z5, NU0, 2, 2) for _ in range(d)] for _ in range(d + 1)]
        M = SMat.from_columns(Z5, NU0, d, cols)
        for col in kernel_pi(M):
            out = M.apply_to_vector(col)
            assert all(e.is_exact_zero() or series_is_zeroish(e) for e in out)


def test_member_pi():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(1, 1)]), poly(Z5, NU0, [(0, 5)])],
                       [poly(Z5, NU0, [(0, 5)]), poly(Z5, NU0, [(1, 1)])]])
    # any column of M is a member
    X = member_pi(M.col(0), M, 8)
    assert X is not None
    got = M.apply_to_vector(X)
    for e, want in zip(got, M.col(0)):
        assert (e - want).coeffs == {} or series_is_zeroish(e - want)
    # something outside the span of a rank-1 module: a leftover residual
    M1 = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 1)])], [SnuSeries.zero(Z5, NU0)]])
    v = [SnuSeries.zero(Z5, NU0), SnuSeries.one(Z5, NU0)]
    assert member_pi(v, M1, 8) is None
    # 1 is no multiple of the pivot u over the pi-localization: a certain
    # remainder, at slope 0 over Z5 and at slope 1/2 over GF(2)
    for cfg, slope in ((Z5, NU0), (F2, HALF)):
        Mu = SMat(cfg, slope, [[poly(cfg, slope, [(1, 1)])]])
        assert member_pi([SnuSeries.one(cfg, slope)], Mu, 8) is None


def test_member_pi_random_combinations():
    rng = random.Random(61)
    for _ in range(15):
        d = 2
        cols = [[random_exact_poly(rng, Z5, NU0, 2, 1) for _ in range(d)] for _ in range(2)]
        M = SMat.from_columns(Z5, NU0, d, cols)
        coeffs = [random_exact_poly(rng, Z5, NU0, 1, 1) for _ in range(2)]
        v = [
            sum((M.a[i][j] * coeffs[j] for j in range(2)), SnuSeries.zero(Z5, NU0))
            for i in range(d)
        ]
        X = member_pi(v, M, 10)
        assert X is not None
        got = M.apply_to_vector(X)
        for e, want in zip(got, v):
            assert series_is_zeroish((e - want).truncate_u(6))
    for cfg, slope, M, v in _random_members():
        X = member_pi(v, M, 8)
        assert X is not None
        for e, want in zip(M.apply_to_vector(X), v):
            assert series_is_zeroish((e - want).truncate_u(6))


def _random_members(draws=4):
    """Seeded (cfg, slope, M, M.c) over Z5 and GF(2) at slopes 0 and 1/2:
    2x2 matrices of linear entries (small, so the test stays fast) whose
    digits have valuation >= 0 (an entry like pi^-1 u^2 trips the
    echelon_pi defect of test_echelon_pi_low_valuation_pivot)."""

    def digit(rng, cfg):
        c = CoeffElem.from_int(cfg, rng.randrange(1, _unit_range(cfg)))
        return c.scale_pi(rng.randrange(0, 2))

    def entry(rng, cfg, slope):
        while True:
            coeffs = {i: digit(rng, cfg) for i in range(2) if rng.random() < 0.5}
            if coeffs:
                return SnuSeries(cfg, slope, coeffs)

    for cfg, slope in ((Z5, NU0), (F2, NU0), (Z5, HALF), (F2, HALF)):
        rng = random.Random(61)
        for _ in range(draws):
            M = SMat(cfg, slope, [[entry(rng, cfg, slope) for _ in range(2)] for _ in range(2)])
            yield cfg, slope, M, M.apply_to_vector([entry(rng, cfg, slope) for _ in range(2)])


@pytest.mark.parametrize("cfg", [Z5, F2], ids=repr)
def test_echelon_pi_low_valuation_pivot(cfg):
    # pi^-1 u^2 + u^3 = pi^-1 u^2 (1 + pi u) lies in the slope-1/2 ring
    # (levels 0 and 3/2); its Weierstrass degree 2 is below its degree, and
    # its monic factor u^2 has valuation 1 > 0, so phase 2 of echelon_pi
    # must pi-shift the pivot before dividing by that factor
    one = CoeffElem.from_int(cfg, 1)
    g = SnuSeries(cfg, HALF, {2: one.scale_pi(-1), 3: one})
    M = SMat(cfg, HALF, [[g]])
    ech = hnf_pi(M, 8)
    assert ech.rank == 1
    assert ech.pivots[0] == mono(cfg, HALF, 2)
    assert mats_agree(M.matmul(ech.P), ech.T)
    # pi u + pi^-2 u^4 + u^5 (levels 3/2, 0, 5/2) at a low working precision:
    # the pi-shifted division must go as many levels deeper as it shifts,
    # or the quotient keeps no digit at all
    h = SnuSeries(cfg, HALF, {1: one.scale_pi(1), 4: one.scale_pi(-2), 5: one})
    H = SMat(cfg, HALF, [[h]])
    for prec in (1, 2):
        ech = hnf_pi(H, prec)
        assert ech.pivots[0].max_deg() == 4
        assert mats_agree(H.matmul(ech.P), ech.T)


def test_echelon_pi_builds_p_on_first_read():
    # callers that read only T (psi, pair_max_sum, the CLI hnf) never replay
    # the column operations; member_pi and kernel_pi read P and still work
    rng = random.Random(7)
    for cfg in (Z5, F2):
        a, b = ([random_exact_poly(rng, cfg, HALF, max_deg=2, max_pi=2) for _ in range(3)] for _ in range(2))
        q = random_exact_poly(rng, cfg, HALF, max_deg=1, max_pi=1)
        c = [x + y * q for x, y in zip(a, b)]
        M = SMat.from_columns(cfg, HALF, 3, [a, b, c])
        ech = hnf_pi(M, 6)
        assert ech._P is None
        assert mats_agree(M.matmul(ech.P), ech.T)
        assert ech._P is ech.P
        (k,) = kernel_pi(M)
        assert all(series_is_zeroish(e) for e in M.apply_to_vector(k))
        X = member_pi(c, M, 6)
        assert X is not None
        for e, want in zip(M.apply_to_vector(X), c):
            assert series_is_zeroish((e - want).truncate_u(6))


def test_echelon_pi_random_square_inputs_at_slope_half():
    # random exact square matrices over Z5 and GF(2) at slope 1/2; many
    # have a pivot whose valuation is below that of its monic factor
    rng = random.Random(1)
    for cfg in (Z5, F2):
        for _ in range(40):
            n = rng.randint(1, 3)
            M = SMat(cfg, HALF, [
                [random_exact_poly(rng, cfg, HALF, max_deg=2, max_pi=2) for _ in range(n)]
                for _ in range(n)
            ])
            ech = hnf_pi(M, 3)
            assert mats_agree(M.matmul(ech.P), ech.T), M


def test_hnf_u_examples():
    # diag(pi^2, 1) is already canonical up to column order
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 25)]), SnuSeries.zero(Z5, NU0)],
                       [SnuSeries.zero(Z5, NU0), poly(Z5, NU0, [(0, 1)])]])
    ech = hnf_u(M, 8)
    assert ech.pivot_vals == [Fraction(2), Fraction(0)]
    # ((pi, 1), (0, pi)): pivots (1, pi^2)
    M2 = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 5)]), poly(Z5, NU0, [(0, 1)])],
                        [SnuSeries.zero(Z5, NU0), poly(Z5, NU0, [(0, 5)])]])
    ech2 = hnf_u(M2, 8)
    assert ech2.pivot_vals == [Fraction(0), Fraction(2)]
    assert ech2.T.a[0][0].digits_agree(SnuSeries.one(Z5, NU0))


def test_hnf_u_uniqueness_fuzz():
    rng = random.Random(71)
    for _ in range(15):
        d = 2
        cols = [[random_exact_poly(rng, Z5, NU0, 1, 2) for _ in range(d)] for _ in range(2)]
        M = SMat.from_columns(Z5, NU0, d, cols)
        Q = random_unimodular(rng, Z5, NU0, 2, ops=2)
        h1 = hnf_u(M, 8)
        h2 = hnf_u(M.matmul(Q), 8)
        assert h1.pivot_vals == h2.pivot_vals
        assert h1.pivot_rows == h2.pivot_rows
        for i in range(d):
            for j in range(h1.rank):
                assert h1.T.a[i][j].digits_agree(h2.T.a[i][j])


def test_hnf_u_transform_agrees_below_the_working_level():
    # P is replayed from the column operations recorded on T; M.P and T
    # differ only at or beyond the working level, where T holds exact zeros
    # and monomials (so digits_agree, which compares those, is too strict)
    rng = random.Random(2)
    n = 4
    for cfg in (Z5, F2):
        for slope in (NU0, HALF, Slope(2, 3)):
            for _ in range(12):
                rows, cols = rng.randint(1, 3), rng.randint(1, 3)
                M = random_matrix(rng, cfg, slope, rows, cols, max_deg=2, max_pi=2)
                ech = hnf_u(M, n)
                MP = M.matmul(ech.P)
                for i in range(rows):
                    for j in range(cols):
                        diff = (MP.a[i][j] - ech.T.a[i][j]).reduce_levels(n)
                        assert not diff.has_certain_digit(), (M, i, j)


def test_kernel_u_syzygies_of_rank_deficient_input():
    # the last column is a polynomial multiple of the first, so each input
    # has a syzygy; every returned R is one (M.R of valuation >= n, read off
    # the lower bound, since a certain digit may sit above the level) and
    # primitive (a unit entry), one for each column the echelon leaves zero
    rng = random.Random(3)
    n = 6
    for cfg in (Z5, F2):
        for slope in (HALF, Slope(2, 3)):
            for rows, cols in ((2, 2), (2, 3), (3, 3)):
                for _ in range(12):
                    columns = [
                        [random_exact_poly(rng, cfg, slope, max_deg=1, max_pi=1) for _ in range(rows)]
                        for _ in range(cols - 1)
                    ]
                    q = random_exact_poly(rng, cfg, slope, max_deg=1, max_pi=1)
                    columns.append([q * e for e in columns[0]])
                    M = SMat.from_columns(cfg, slope, rows, columns)
                    K = kernel_u(M, n)
                    assert len(K) == cols - hnf_u(M, n, hnf=False).rank, M
                    for R in K:
                        assert all(e.lower_bound() >= n for e in M.apply_to_vector(R)), (M, R)
                        assert min(e.certified_valuation() for e in R) == 0, (M, R)


def test_hnf_u_fractional_pivot():
    # at slope 2/5 the module <u> has pivot valuation 2/5, canonical monomial u
    slope = Slope(2, 5)
    M = SMat(Z5, slope, [[mono(Z5, slope, 1)]])
    ech = hnf_u(M, 6)
    assert ech.pivot_vals == [Fraction(2, 5)]
    assert ech.T.a[0][0] == mu_monomial(Z5, slope, 2)


def test_member_u():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 5)]), poly(Z5, NU0, [(1, 1)])]])
    X = member_u([SnuSeries.one(Z5, NU0)], M, 8)
    assert X is not None  # u is invertible in the u-localization
    X2 = member_u([poly(Z5, NU0, [(0, 25)])], SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 125)])]]), 8)
    assert X2 is None  # valuation obstruction
    # u (valuation 1/2) does not divide 1 at slope 1/2 over GF(2) either
    Mu = SMat(F2, HALF, [[poly(F2, HALF, [(1, 1)])]])
    assert member_u([SnuSeries.one(F2, HALF)], Mu, 8) is None
    # a leftover residual on the row without a pivot
    M1 = SMat(F2, HALF, [[SnuSeries.one(F2, HALF)], [SnuSeries.zero(F2, HALF)]])
    assert member_u([SnuSeries.zero(F2, HALF), SnuSeries.one(F2, HALF)], M1, 8) is None


def test_member_u_random_combinations():
    for cfg, slope, M, v in _random_members():
        X = member_u(v, M, 8)
        assert X is not None
        for e, want in zip(M.apply_to_vector(X), v):
            assert (e - want).visible_valuation() >= 8  # zero at the working level


@pytest.mark.xfail(raises=PrecisionExhausted, strict=True)
def test_member_u_true_member_over_f2():
    # M.(u, t*u) is a member, yet the residual of the substitution keeps an
    # entry that is ambiguous at the working level
    one = CoeffElem.from_int(F2, 1)
    t = one.scale_pi(1)
    M = SMat(F2, NU0, [[SnuSeries(F2, NU0, {2: t}), SnuSeries(F2, NU0, {0: one, 1: one})],
                       [SnuSeries(F2, NU0, {0: t}), SnuSeries(F2, NU0, {1: one})]])
    vec = M.apply_to_vector([SnuSeries(F2, NU0, {1: one}), SnuSeries(F2, NU0, {1: t})])
    for n in (6, 8, 12):
        assert member_u(vec, M, n) is not None


@pytest.mark.xfail(raises=AssertionError, strict=True)
def test_member_u_own_column_at_the_working_level():
    # the substitution leaves a digit at exactly the working level, and
    # member_u answers "no" for the matrix's own column
    M = SMat(Z3, HALF, [[poly(Z3, HALF, [(0, 10), (1, -3)])], [poly(Z3, HALF, [(0, -25)])]])
    for n in (6, 12, 20):
        assert member_u(M.col(0), M, n) is not None


@pytest.mark.xfail(raises=PrecisionExhausted, strict=True)
def test_hnf_u_exact_input_at_slope_zero():
    # "tail bound 1 cannot rule out terms below 27" on exact entries;
    # max_module and hnf_pi succeed on the same matrix
    M = SMat(Z5, NU0, [
        [poly(Z5, NU0, [(0, 15), (2, 2)]), poly(Z5, NU0, [(2, 20)]), poly(Z5, NU0, [(0, 2), (1, 2)])],
        [poly(Z5, NU0, [(1, 4), (2, 5)]), poly(Z5, NU0, [(1, 10)]), poly(Z5, NU0, [(0, 1)])],
        [poly(Z5, NU0, [(0, 20)]), poly(Z5, NU0, [(2, 15)]), poly(Z5, NU0, [(1, 3)])],
    ])
    assert hnf_u(M, 8).rank == 3


@pytest.mark.xfail(raises=AssertionError, strict=True)
def test_hnf_u_rank_of_a_column_multiple():
    # the second column is 4 times the first, so the rank is 1; hnf_u takes
    # an entry whose certain digits all lie above the level 6 as a second
    # pivot (pi^8), and kernel_u returns no syzygy where kernel_pi finds one
    M = SMat(Z5, HALF, [[poly(Z5, HALF, [(0, 1), (1, 2)]), poly(Z5, HALF, [(0, 4), (1, 8)])],
                        [poly(Z5, HALF, [(0, 3), (1, 4)]), poly(Z5, HALF, [(0, 12), (1, 16)])]])
    assert len(kernel_pi(M)) == 1
    assert hnf_u(M, 6).rank == 1
    assert len(kernel_u(M, 6)) == 1


def test_hnf_u_entry_without_digits_counts_as_zero_at_the_level():
    # O(pi^8) has no certain digit and lies above the level 6: hnf_u counts
    # it as zero, so the 1 of column 1 is the only pivot and the O-term stays
    # beside it; O(pi^3) might be nonzero below the level and is refused
    one = SnuSeries.one(Z5, HALF)
    o8 = SnuSeries(Z5, HALF, {0: CoeffElem.o_term(Z5, 8)})
    ech = hnf_u(SMat(Z5, HALF, [[o8, one]]), 6)
    assert (ech.rank, ech.pivot_rows, ech.pivot_vals) == (1, [0], [0])
    assert ech.T.a[0] == [one, o8]
    assert ech.P.a == [[SnuSeries.zero(Z5, HALF), one], [one, SnuSeries.zero(Z5, HALF)]]
    o3 = SnuSeries(Z5, HALF, {0: CoeffElem.o_term(Z5, 3)})
    with pytest.raises(PrecisionExhausted, match="ambiguous at the working level"):
        hnf_u(SMat(Z5, HALF, [[o3, one]]), 6)


def test_hnf_pi_pivot_with_a_constant_beyond_the_working_level():
    # g = 5^k + u^2 + u^3 has Weierstrass degree 2 < 3; at k >= 17 its monic
    # factor t has only O-terms below u^2, so a division of g by t could not
    # certify v(Lo(t, 2)); the unit g/t is the lifting's own cofactor W
    for k in (16, 17, 20):
        g = poly(Z5, NU0, [(0, 5**k), (2, 1), (3, 1)])
        assert hnf_pi(SMat(Z5, NU0, [[g]]), 16).rank == 1


@pytest.mark.xfail(raises=OutOfRange, strict=True)
def test_hnf_pi_over_f2_at_slope_zero_fails_with_more_precision():
    # phase 3 reduces an entry of u_prec 23 by the pivot t of degree 2, and
    # hi_lo_split inside euclid_div_full raises "split point 2 outside
    # [0, 1]" at prec 12 and 20; max_module succeeds at every precision
    one = CoeffElem.from_int(F2, 1)
    t = one.scale_pi(1)
    M = SMat(F2, NU0, [[SnuSeries(F2, NU0, {0: t, 1: t}), SnuSeries(F2, NU0, {0: t, 2: t})],
                       [SnuSeries(F2, NU0, {0: t, 1: t, 2: t}), SnuSeries(F2, NU0, {2: one})]])
    for prec in (2, 4, 8, 12, 20):
        maxmod.max_module(M, prec)
    for prec in (2, 4, 8, 12, 20):
        hnf_pi(M, prec)


def test_hnf_pi_t_agrees_with_m_p_over_f2_at_slope_half():
    # at prec 2, T's entries (1,0) and (1,1) stopped at u^1 while M.P had
    # the certain digit t at u^3 (level 5/2, above the working level) when
    # the unit g/t came from a second division of g by t
    one = CoeffElem.from_int(F2, 1)
    t = one.scale_pi(1)
    M = SMat(F2, HALF, [[SnuSeries(F2, HALF, {0: one}), SnuSeries(F2, HALF, {1: one})],
                        [SnuSeries(F2, HALF, {0: t, 1: t, 2: one}), SnuSeries(F2, HALF, {0: t, 1: one, 2: t})]])
    for prec in (8, 4, 3, 2):
        ech = hnf_pi(M, prec)
        assert mats_agree(M.matmul(ech.P), ech.T), prec


def test_inverse_transpose_of_a_normalized_echelon_is_refused():
    # the pi-side record holds a Bezout 2x2 transform and a scale_col,
    # whose transposed inverses are not replayed
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 2)]), poly(Z5, NU0, [(1, 1)])]])
    with pytest.raises(BadParameters, match="not transform_cols_2x2"):
        hnf_pi(M, 8).inverse_transpose()


def test_one_unit_inverse_per_u_pivot(monkeypatch):
    # every entry a pivot clears, and the pivot's own normalisation, reuse
    # one Newton inversion of that pivot's unit part; a pivot with nothing
    # to clear and no normalisation makes none, and the last pivot of a
    # full-rank echelon, whose factor only P reads, makes its inversion on
    # the first read of P
    calls = []
    real = localized.u_invert_unit

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(localized, "u_invert_unit", counting)
    u, one, pi = poly(Z5, HALF, [(1, 1)]), SnuSeries.one(Z5, HALF), poly(Z5, HALF, [(0, 5)])
    M = SMat(Z5, HALF, [[one + u, u, pi], [u, one, one + u], [pi, u, one + u * u]])
    ech = hnf_u(M, 6, hnf=False)
    assert ech.rank == 3
    assert len(calls) == 2
    ech.P
    assert len(calls) == 3
    ech.P
    assert len(calls) == 3
    calls.clear()
    assert saturation_u(M, 6).cols == 3
    assert len(calls) == 2  # the last pivot has nothing left to clear
    calls.clear()
    assert saturation_u(SMat(Z5, HALF, [[one + u], [SnuSeries.zero(Z5, HALF)]]), 6).cols == 1
    assert calls == []


def _deferral_draw(rng, cfg, slope, size, exact, deficient):
    """A size x size matrix of ``random_exact_poly`` entries, of rank below
    size when ``deficient`` makes one row exact zeros ("row") or its last
    column its first times an exact polynomial ("column"); unless ``exact``,
    every digit of about half the entries has relative precision 3 or 5."""
    rows = [[random_exact_poly(rng, cfg, slope, max_deg=2, max_pi=1) for _ in range(size)] for _ in range(size)]
    if deficient == "row":
        rows[rng.randrange(size)] = [SnuSeries.zero(cfg, slope)] * size
    elif deficient == "column":
        f = random_exact_poly(rng, cfg, slope, max_deg=1, max_pi=1)
        for r in rows:
            r[-1] = r[0] * f
    if not exact:
        rows = [[e.map_coeffs(lambda i, c, p=rng.choice([3, 5]): c.reduce_prec(p)) if rng.random() < 0.5 else e
                 for e in r] for r in rows]
    return SMat(cfg, slope, rows)


def _outcome(fn, *args):
    """fn(*args), or the class of the AlgebraError it raised."""
    try:
        return fn(*args)
    except AlgebraError as e:
        return type(e)


def _forms(hnf, M, n):
    ech = hnf(M, n)
    return ech.T.a, ech.pivot_vals, ech.P.a


@pytest.mark.parametrize("cfg", [Z5, Z3, F2], ids=["Z5", "Z3", "GF2"])
@pytest.mark.parametrize("slope", [NU0, HALF, Slope(2, 3)], ids=str)
def test_deferred_u_factors_give_the_eager_values(cfg, slope):
    # a factor that only P reads is computed by P's replay: T, pivot_vals
    # and P, and kernel_u, member_u and saturation_u, equal those of the
    # echelon that computes every factor when it records it
    rng, n = random.Random(31), 4
    ok = 0
    cells = itertools.product((2, 3, 4), (True, False), (None, "row", "column"))
    for k, (size, exact, deficient) in enumerate(cells):
        M = _deferral_draw(rng, cfg, slope, size, exact, deficient)
        vec = [random_exact_poly(rng, cfg, slope, max_deg=1, max_pi=1) for _ in range(size)]
        vec = vec if k % 2 else M.apply_to_vector(vec)  # a member every other draw
        got = _outcome(_forms, hnf_u, M, n)
        assert got == _outcome(_forms, eager_hnf_u, M, n), (size, exact, deficient)
        ok += not isinstance(got, type)
        assert _outcome(kernel_u, M, n) == _outcome(eager_kernel_u, M, n)
        assert _outcome(member_u, vec, M, n) == _outcome(eager_member_u, vec, M, n)
        assert _outcome(lambda: saturation_u(M, n).a) == _outcome(lambda: eager_saturation_u(M, n).a)
    assert ok >= 8


def test_a_failing_deferred_factor_fails_every_read_of_p(monkeypatch):
    # the last pivot's unit inverse, which only P reads, raises: hnf_u
    # still returns T, and each read of P raises that error again rather
    # than keep a P
    u, one, pi = poly(Z5, HALF, [(1, 1)]), SnuSeries.one(Z5, HALF), poly(Z5, HALF, [(0, 5)])
    M = SMat(Z5, HALF, [[one + u, u, pi], [u, one, one + u], [pi, u, one + u * u]])
    want = hnf_u(M, 6, hnf=False)
    calls, real = [], localized.u_invert_unit

    def failing_third(*args):
        calls.append(args)
        if len(calls) >= 3:
            raise PrecisionExhausted("the last pivot's unit")
        return real(*args)

    monkeypatch.setattr(localized, "u_invert_unit", failing_third)
    ech = hnf_u(M, 6, hnf=False)
    assert len(calls) == 2 and ech.T.a == want.T.a
    for reads in (3, 4):
        with pytest.raises(PrecisionExhausted, match="the last pivot's unit"):
            ech.P
        assert len(calls) == reads
    monkeypatch.setattr(localized, "u_invert_unit", real)
    assert ech.P.a == want.P.a


def _level_unit(rng, cfg, ram, slope, exps, prec):
    """A u-localization unit: a random digit of level 0 at each exponent in
    ``exps`` (relative precision ``prec`` in w-units), and random digits or
    O-terms of level > 0 at some other exponents in [-1, 10)."""
    a, r = slope.alpha, ram * slope.beta

    def digit(w_val, p):
        c = CoeffElem.from_int(cfg, rng.randrange(1, _unit_range(cfg)), ram=ram)
        c = c + CoeffElem.from_int(cfg, rng.randrange(_unit_range(cfg)), ram=ram).scale_w(1)
        return c.reduce_prec(p).scale_w(w_val)

    coeffs = {i: digit(-r * i // a, prec) for i in exps}
    for i in range(-1, 10):
        if i not in coeffs and rng.random() < 0.4:
            v = -r * i // a + 1 + rng.randrange(3)  # level above 0
            coeffs[i] = CoeffElem.o_term(cfg, v + 1, ram) if rng.random() < 0.2 else digit(v, rng.choice([3, INF]))
    return SnuSeries(cfg, slope, coeffs, ram=ram)


def _u_inverse_or_error(fn, w, n_level, window):
    try:
        y = fn(w, n_level, window)
    except PrecisionExhausted as e:
        return type(e)
    return y.coeffs, y.u_prec, y.tail_bound


def test_u_invert_unit_matches_the_geometric_start():
    # the divide_by_unit start is the inverse of the level-0 part modulo
    # u^window, as the geometric series was whenever its steps reached the
    # window: level-0 digits alpha or more exponents apart
    rng = random.Random(2212)
    cells = itertools.product((Z5, Z3, F2), (1, 2), (NU0, HALF, Slope(2, 3)), (INF, 2), (1, 2, 3, 4))
    for cfg, ram, slope, prec, k in cells:
        a = slope.alpha
        step = a // math.gcd(a, ram * slope.beta)  # the level-0 exponents are multiples of it
        i0 = step * rng.choice([-1, 0, 1, 2])
        exps = [i0] + [i0 + a * j for j in sorted(rng.sample(range(1, k + 2), k - 1))]
        w = _level_unit(rng, cfg, ram, slope, exps, prec)
        n_level = rng.choice([2, 3, Fraction(7, 2)])
        window = localized._u_window([w], n_level, slope)
        got = _u_inverse_or_error(localized.u_invert_unit, w, n_level, window)
        assert got == _u_inverse_or_error(geometric_u_invert_unit, w, n_level, window), (cfg, ram, slope, prec, k)
    # ram 2 at slope 1/2: level-0 digits one exponent apart, closer than the
    # geometric series' step count assumed
    c = [CoeffElem.from_int(Z5, d, ram=2).scale_w(-i) for i, d in enumerate((1, 1, 3))]
    w = SnuSeries(Z5, HALF, dict(enumerate(c)), ram=2)
    for n_level in (2, 3, 6):
        window = localized._u_window([w], n_level, HALF)
        got = _u_inverse_or_error(localized.u_invert_unit, w, n_level, window)
        assert got == _u_inverse_or_error(geometric_u_invert_unit, w, n_level, window)


def test_u_invert_unit_with_level_zero_digits_closer_than_alpha():
    # where the geometric series stopped short of the window its Newton
    # refinement ended elsewhere: both inverses meet the contract and agree
    # on every digit below the working level
    rng = random.Random(1053)
    for _ in range(12):
        exps = [0, 1] + sorted(rng.sample(range(2, 6), rng.randrange(3)))
        w = _level_unit(rng, Z5, 2, HALF, exps, rng.choice([INF, 2]))
        n_level = rng.choice([2, 3])
        window = localized._u_window([w], n_level, HALF)
        y, y_old = (f(w, n_level, window) for f in (localized.u_invert_unit, geometric_u_invert_unit))
        e = SnuSeries.one(Z5, HALF, 2).addmul(-1, w.truncate_u(window), y).truncate_u(window)
        assert e.visible_valuation() >= n_level
        d = y - y_old
        assert all(d._level(d.level_key(i, c)) >= n_level for i, c in d.coeffs.items() if c.has_witness())


def test_u_invert_unit_keeps_its_support_above_the_units(monkeypatch):
    # digits of positive level down to u^-16: the Newton steps leave out
    # the digits of 1 - w*y at negative exponents already at level >= n, so
    # y's lowest exponent stays above the unit's own instead of doubling
    # each step (u^-16, then u^-48), and y stays known at u^0
    w = poly(Z5, NU0, [(-16, 5**9), (-8, 5**6), (-1, 25), (0, 1), (1, 1)])
    n_level, window = 8, 40
    lows, addmul = [], SnuSeries.addmul

    def recording_addmul(acc, sign, x, y):
        out = addmul(acc, sign, x, y)
        if acc is x:  # the Newton step y + y*e
            lows.append(min(out.coeffs))
        return out

    monkeypatch.setattr(SnuSeries, "addmul", recording_addmul)
    y = localized.u_invert_unit(w, n_level, window)
    monkeypatch.undo()
    e = SnuSeries.one(Z5, NU0).addmul(-1, w, y).truncate_u(window)
    assert e.visible_valuation() >= n_level
    assert len(lows) >= 2 and all(lo > -16 for lo in lows), lows
    assert y.u_prec >= 0


def test_u_invert_unit_without_a_certain_level_zero_digit():
    # O(pi) + 5u at slope 1/2: the u^0 digit has no witness and 5u sits at
    # level 3/2, so no digit of level 0 is certain
    w = SnuSeries(Z5, HALF, {0: CoeffElem.o_term(Z5, 1), 1: CoeffElem.from_int(Z5, 5)})
    with pytest.raises(PrecisionExhausted, match="no certain level-zero digit"):
        localized.u_invert_unit(w, 6, 20)


def _sqrt_pi_matrix(slope):
    """The 1x1 matrix [pi^(1/2)] over ram-2 coefficients."""
    w = CoeffElem.from_int(Z5, 1, ram=2).scale_w(1)
    return SMat(Z5, slope, [[SnuSeries.monomial(Z5, slope, 0, w)]], ram=2)


def test_hnf_u_ramified_valuation():
    with pytest.raises(BadParameters, match="1/2"):
        hnf_u(_sqrt_pi_matrix(NU0), 8)
    ech = hnf_u(_sqrt_pi_matrix(Slope(1, 2)), 8)
    assert ech.pivot_vals == [Fraction(1, 2)]
    assert ech.T.a[0][0] == mu_monomial(Z5, Slope(1, 2), 1, 2)


def test_module_sum_unit_absorption():
    # u and pi over the pi-localization: pi is a unit, sum is everything;
    # the first rank columns of the Hermite form of (A B) span the sum
    A = SMat(Z5, NU0, [[poly(Z5, NU0, [(1, 1)])]])
    B = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 5)])]])
    S = hnf_pi(_concat(A, B), 8)
    assert S.rank == 1
    assert S.T.a[0][0] == SnuSeries.one(Z5, NU0)


def test_module_sum_idempotent():
    A = SMat(Z5, NU0, [[poly(Z5, NU0, [(1, 1), (0, 5)])], [poly(Z5, NU0, [(0, 1)])]])
    S1 = hnf_pi(_concat(A, A), 8)
    S2 = hnf_pi(A, 8)
    for i in range(2):
        for j in range(S2.rank):
            assert S1.T.a[i][j].digits_agree(S2.T.a[i][j])


def test_module_intersect_members():
    rng = random.Random(91)
    A = SMat(Z5, NU0, [[poly(Z5, NU0, [(1, 1)])], [poly(Z5, NU0, [(0, 5)])]])
    B = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 5)])], [poly(Z5, NU0, [(1, 1)])]])
    I = module_intersect(A, B, "pi", 8)
    for j in range(I.cols):
        col = I.col(j)
        assert member_pi(col, A, 10) is not None
        assert member_pi(col, B, 10) is not None


def test_precision_policy_rejects_inexact():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 1)], prec=3)]])
    with pytest.raises(PrecisionExhausted):
        hnf_pi(M, 8)
    with pytest.raises(PrecisionExhausted):
        kernel_pi(M)


def test_shape_mismatch_is_typed():
    a, b = poly(Z5, NU0, [(0, 1)]), poly(Z5, NU0, [(1, 1)])
    A = SMat(Z5, NU0, [[a, b]])
    with pytest.raises(BadParameters):
        A.matmul(A)
    with pytest.raises(BadParameters):
        A.apply_to_vector([a])
    # rows of 1 and 2 entries used to reach module_intersect and fail there
    # with an IndexError in transform_cols_2x2
    with pytest.raises(BadParameters):
        SMat(Z5, NU0, [[a], [a, b]])
    with pytest.raises(BadParameters):
        SMat.from_columns(Z5, NU0, 2, [[a, b], [a]])
    with pytest.raises(BadParameters):
        SMat.from_columns(Z5, NU0, 3, [[a, b]])
    E = SMat.from_columns(Z5, NU0, 3, [])
    assert (E.rows, E.cols) == (3, 0)


def test_working_precision_is_a_required_argument():
    names = ("prec", "n_level", "u_prec")
    checked = 0
    for mod in (series, localized, maxmod, pairrep, precise_sum):
        for fn in vars(mod).values():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                for p in inspect.signature(fn).parameters.values():
                    if p.name in names:
                        assert p.default is inspect.Parameter.empty, (fn.__name__, p.name)
                        checked += 1
    assert checked >= 25
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 5)])]])
    with pytest.raises(TypeError):
        hnf_pi(M)
    with pytest.raises(TypeError):
        hnf_u(M)
