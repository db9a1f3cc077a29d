import math
import random
from fractions import Fraction

import pytest

from slomod.contfrac import Slope
from slomod.coeffs import CoeffElem
from slomod import maxmod
from slomod.errors import BadParameters, BudgetExhausted, NonTermination, SlopeOrder
from slomod.localized import SMat
from slomod.maxmod import (
    MLModule,
    matrix_reduction,
    max_module,
    max_sum_ml,
    qis_closure_member,
    relations_approx,
    scalar_extend,
)
from slomod.series import SnuSeries

from helpers import (
    NU0,
    Z5,
    assert_relations_hold,
    divides_monomial,
    generator_bound,
    generator_count,
    mono,
    poly,
    series_is_zeroish,
)


def worked_example_matrix():
    return SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 25)]), poly(Z5, NU0, [(3, 5)])]])


def test_relations_paper_example():
    R = relations_approx(worked_example_matrix())
    assert R.cols == 1
    assert R.a[0][0] == poly(Z5, NU0, [(3, 1)])
    assert R.a[1][0] == poly(Z5, NU0, [(0, -5)])


def test_relations_independent_columns():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 1)]), SnuSeries.zero(Z5, NU0)],
                       [SnuSeries.zero(Z5, NU0), poly(Z5, NU0, [(1, 1)])]])
    assert relations_approx(M).cols == 0


def test_relations_multiply_back_random():
    rng = random.Random(5)
    for _ in range(15):
        base = [[poly(Z5, NU0, [(rng.randrange(0, 3), 5 ** rng.randrange(0, 3))])]
                for _ in range(2)]
        # plant a dependency: third column is a combination of the first two
        dep = [
            sum((base[j][0] * poly(Z5, NU0, [(rng.randrange(0, 2), rng.randrange(1, 5))])
                 for j in range(2)), SnuSeries.zero(Z5, NU0))
        ]
        M = SMat.from_columns(Z5, NU0, 1, [c for c in base] + [dep])
        R = relations_approx(M)
        assert R.cols >= 1
        prod = M.matmul(R)
        assert all(series_is_zeroish(prod.a[i][j]) for i in range(prod.rows) for j in range(prod.cols))


def test_matrix_reduction_worked_example_states():
    M = worked_example_matrix()
    R = relations_approx(M)
    trace = []
    M1, R1, L1 = matrix_reduction(M, R, prec=12, trace=trace)
    assert_relations_hold(trace)
    # the three displayed states, in order
    want = [
        ("[pi^2, pi*u^3]", "[u^3; -pi]"),
        ("[pi, pi*u^3]", "[pi*u^3; -pi]"),
        ("[pi, 0]", "[0; -pi]"),
    ]
    got = [(repr(m), repr(r)) for m, r in trace]
    idx = 0
    for state in got:
        if idx < len(want) and state == want[idx]:
            idx += 1
    assert idx == len(want), got
    assert repr(M1) == "[pi, 0]"
    assert repr(R1) == "[0; -pi]"
    assert L1 == [0, 0]


def test_matrix_reduction_budget_error_names_its_rule(monkeypatch):
    monkeypatch.setattr(maxmod, "_iteration_budget", lambda R, alpha: 0)
    M = worked_example_matrix()
    with pytest.raises(NonTermination, match=r"10\*mass\+50 = 0 steps"):
        matrix_reduction(M, relations_approx(M), prec=12)


def test_matrix_reduction_computes_no_relation_entry_it_overwrites(monkeypatch):
    # a division step sets R[j1][t] to the division's remainder, so of row
    # j1 only the other R.cols - 1 entries take a product with the quotient
    quotients, updates = [], []
    real_div, real_addmul = maxmod.euclid_div_full, SnuSeries.addmul

    def div(y, x, prec):
        res = real_div(y, x, prec)
        quotients.append(res.q)
        updates.append(0)
        return res

    def addmul(self, sign, x, y):
        if quotients and x is quotients[-1] and sign == -1:
            updates[-1] += 1
        return real_addmul(self, sign, x, y)

    monkeypatch.setattr(maxmod, "euclid_div_full", div)
    monkeypatch.setattr(SnuSeries, "addmul", addmul)
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 25)]), poly(Z5, NU0, [(3, 5)]), poly(Z5, NU0, [(0, 1), (1, 5)])]])
    R = relations_approx(M)
    assert R.cols == 2
    matrix_reduction(M, R, 12)
    assert updates and all(n == R.cols - 1 for n in updates), updates


def test_matrix_reduction_no_relations():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 1)])]])
    R = SMat.zeros(Z5, NU0, 1, 0)
    M1, R1, L1 = matrix_reduction(M, R, 20)
    assert repr(M1) == repr(M) and L1 == [0]


def test_max_module_paper_example():
    ml = max_module(worked_example_matrix(), 12)
    assert len(ml.columns) == 1
    assert ml.columns[0][0] == poly(Z5, NU0, [(0, 5)])
    assert ml.L == [0]
    assert ml.schedules()[0].pairs() == [(0, 0)]
    assert generator_count(ml) == 1


def test_max_module_free_input():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 5)]), SnuSeries.zero(Z5, NU0)],
                       [SnuSeries.zero(Z5, NU0), poly(Z5, NU0, [(1, 1)])]])
    ml = max_module(M, 10)
    assert len(ml.columns) == 2
    assert all(s.pairs() == [(0, 0)] for s in ml.schedules())


def test_max_module_mk_family():
    # columns pi^(k-j) u^j generate a module whose maximal closure is free
    # of rank one on the constant 1
    for k in (2, 3, 4):
        cols = [[mono(Z5, NU0, j, k - j)] for j in range(k + 1)]
        M = SMat.from_columns(Z5, NU0, 1, cols)
        ml = max_module(M, 14)
        assert len(ml.columns) == 1
        assert ml.columns[0][0].digits_agree(SnuSeries.one(Z5, NU0))
        assert ml.L == [0]


def test_qis_membership():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 5)]), poly(Z5, NU0, [(1, 1)])]])
    assert qis_closure_member(M.col(0), M, 3, 20)           # a column, n = 0
    assert qis_closure_member([SnuSeries.one(Z5, NU0)], M, 3, 20)  # 1: pi*1, u*1 in M
    M2 = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 5)])]])
    assert not qis_closure_member([SnuSeries.one(Z5, NU0).scale_pi(-1)], M2, 8, 20)


def test_qis_budget():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 5 ** 4)]), poly(Z5, NU0, [(4, 1)])]])
    with pytest.raises(BudgetExhausted):
        qis_closure_member([SnuSeries.one(Z5, NU0)], M, 1, 20)
    assert qis_closure_member([SnuSeries.one(Z5, NU0)], M, 6, 20)


def test_max_sum_examples():
    A = MLModule(Z5, NU0, 1, [[poly(Z5, NU0, [(1, 1)])]], [0])
    B = MLModule(Z5, NU0, 1, [[poly(Z5, NU0, [(0, 5)])]], [0])
    S = max_sum_ml(A, B, 12)
    assert len(S.columns) == 1
    assert S.columns[0][0].digits_agree(SnuSeries.one(Z5, NU0))
    SS = max_sum_ml(A, A, 12)
    assert len(SS.columns) == 1
    assert SS.columns[0][0].digits_agree(poly(Z5, NU0, [(1, 1)]))


def test_max_fixed_point_random_monomial_modules():
    rng = random.Random(7)
    for slope in (NU0, Slope(1, 2), Slope(2, 5)):
        for _ in range(12):
            d = rng.randrange(1, 3)
            k = rng.randrange(1, 4)
            cols = []
            for _ in range(k):
                col = [SnuSeries.zero(Z5, slope) for _ in range(d)]
                r = rng.randrange(d)
                b = rng.randrange(0, 3)
                vmin = -int(slope.nu * b)
                a = max(rng.randrange(0, 3), vmin)
                col[r] = mono(Z5, slope, b, a)
                cols.append(col)
            M = SMat.from_columns(Z5, slope, d, cols)
            ml = max_module(M, 14)
            bound = d * generator_bound(slope)
            assert generator_count(ml) <= bound
            gens = ml.expand_generators()
            # fixed point: every generator is already a member, and the
            # original generators lie in the closure
            for j in range(M.cols):
                assert qis_closure_member(M.col(j), gens, 10, 20)


def test_scalar_extend_identity():
    A = MLModule(Z5, Slope(2, 5), 1, [[SnuSeries.one(Z5, Slope(2, 5))]], [3])
    E = scalar_extend(A, Slope(2, 5))
    assert E.L == A.L


def test_scalar_extend_rank_one_full_scan():
    # the endpoint minimum agrees with the minimum over the whole schedule
    for delta in range(5):
        A = MLModule(Z5, Slope(2, 5), 1, [[SnuSeries.one(Z5, Slope(2, 5))]], [delta])
        sched = A.schedules()[0]
        for nu2 in (Slope(1, 2), Slope(2, 3), Slope(1, 1)):
            E = scalar_extend(A, nu2)
            full_min = min(
                Fraction(sched.pi_exponent(a)) + nu2.nu * a for a in sched.values()
            )
            got = Fraction(E.L[0], nu2.alpha)
            col_val = E.columns[0][0].certified_valuation()
            assert col_val + got == full_min


def test_scalar_extend_composition():
    A = MLModule(Z5, Slope(1, 3), 1, [[SnuSeries.one(Z5, Slope(1, 3))]], [2])
    one_step = scalar_extend(A, Slope(3, 4))
    two_step = scalar_extend(scalar_extend(A, Slope(1, 2)), Slope(3, 4))
    assert one_step.L == two_step.L
    assert one_step.columns[0][0].digits_agree(two_step.columns[0][0])


def test_scalar_extend_slope_order():
    A = MLModule(Z5, Slope(1, 2), 1, [[SnuSeries.one(Z5, Slope(1, 2))]], [0])
    with pytest.raises(SlopeOrder):
        scalar_extend(A, Slope(1, 3))


def test_generator_bound_on_outputs():
    rng = random.Random(77)
    slope = Slope(2, 5)
    for _ in range(10):
        d = 2
        cols = []
        for _ in range(3):
            col = [SnuSeries.zero(Z5, slope) for _ in range(d)]
            r = rng.randrange(d)
            b = rng.randrange(0, 4)
            a = max(rng.randrange(0, 3), -int(slope.nu * b))
            col[r] = mono(Z5, slope, b, a)
            cols.append(col)
        M = SMat.from_columns(Z5, slope, d, cols)
        ml = max_module(M, 14)
        assert generator_count(ml) <= d * generator_bound(slope)


def test_matrix_reduction_check_rejects_non_relations():
    # M.R = 2 != 0: the relation check flags the input snapshot
    one = poly(Z5, NU0, [(0, 1)])
    M = SMat(Z5, NU0, [[one, one]])
    R = SMat(Z5, NU0, [[one], [one]])
    trace = []
    matrix_reduction(M, R, 20, trace=trace)
    with pytest.raises(AssertionError, match="snapshot 0"):
        assert_relations_hold(trace[:1])


def test_matrix_reduction_rejects_fractional_w_shift():
    # ram 2 at slope 0: the enlargement gap is 1/2, not a whole number of
    # w-units (w^alpha = pi with alpha = 1)
    one = CoeffElem.from_int(Z5, 1, ram=2)
    u = SnuSeries.monomial(Z5, NU0, 1, one)
    w = SnuSeries.monomial(Z5, NU0, 0, one.scale_w(1))
    M = SMat(Z5, NU0, [[w, -u]], 2)
    R = SMat(Z5, NU0, [[u], [w]], 2)
    with pytest.raises(BadParameters, match="whole"):
        matrix_reduction(M, R, 20)


@pytest.mark.parametrize("slope", [Slope(1, 2), Slope(2, 3), Slope(2, 5), Slope(3, 4)])
def test_schedules_are_the_staircase_of_each_w_exponent(slope):
    # column j of an MLModule stands for the monomials of v_nu >= L[j]/alpha:
    # each scheduled (a, b) lies in it with the least pi power b, and every
    # monomial of it is a multiple of a scheduled one
    alpha = slope.alpha
    one = SnuSeries.one(Z5, slope)
    A = MLModule(Z5, slope, 1, [[one]] * alpha, list(range(alpha)))
    for delta, sched in zip(A.L, A.schedules()):
        floor = Fraction(delta, alpha)
        pairs = sched.pairs()
        for a, b in pairs:
            assert b + slope.nu * a >= floor, (delta, a, b)
            assert b - 1 + slope.nu * a < floor, (delta, a, b)
        for x in range(3 * alpha + 2):
            y = math.ceil(floor - slope.nu * x)  # the least pi power at u^x
            assert any(divides_monomial(slope, g, (x, y)) for g in pairs), (delta, x, y)
