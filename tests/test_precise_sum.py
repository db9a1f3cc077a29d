import random

import pytest

from slomod import precise_sum
from slomod.coeffs import CoeffElem
from slomod.contfrac import Slope
from slomod.errors import BadCoefficients, CertificateViolation, NonTermination
from slomod.localized import SMat
from slomod.maxmod import MLModule, _pick_pair, max_module, max_sum_ml, scalar_extend
from slomod.pairrep import psi
from slomod.precise_sum import GapCertificate, add_vector, approx_max_sum
from slomod.series import SnuSeries

from helpers import NU0, Z5, ml_from_matrix, ml_structurally_equal, mono, poly


def test_add_vector_already_inside():
    # all lambda_i integral: nothing to do
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 5)]), poly(Z5, NU0, [(1, 1)])]])
    lams = [poly(Z5, NU0, [(0, 1)]), poly(Z5, NU0, [(1, 2)])]
    M1, L1 = add_vector(M, lams, prec=10, p_u=8, L=[0, 0])
    assert L1 == [0, 0]
    assert repr(M1) == repr(M)


def test_add_vector_dimension_one():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 5)])]])
    lam = SnuSeries.one(Z5, NU0).scale_pi(-1)
    M1, L1 = add_vector(M, [lam], prec=10, p_u=8, L=[0])
    assert L1 == [-1]
    # generator w^{-1} pi = 1 generates everything
    q, delta = divmod(L1[0], 1)
    col = M1.a[0][0].scale_pi(q)
    assert col.digits_agree(SnuSeries.one(Z5, NU0))


def test_add_vector_budget_error_names_its_rule(monkeypatch):
    monkeypatch.setattr(precise_sum, "_addition_budget", lambda lambdas: 0)
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 5)])]])
    with pytest.raises(NonTermination, match=r"40\*sum\+60 = 0 steps"):
        add_vector(M, [SnuSeries.one(Z5, NU0).scale_pi(-1)], prec=10, p_u=8, L=[0])


def test_add_vector_degree_bound():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 5)])]])
    with pytest.raises(BadCoefficients):
        add_vector(M, [poly(Z5, NU0, [(9, 1)])], 20, p_u=4, L=[0])


def test_add_vector_matches_exact_max_sum():
    rng = random.Random(3)
    for _ in range(10):
        d = 2
        diag = [mono(Z5, NU0, 0, rng.randrange(1, 3)), mono(Z5, NU0, rng.randrange(0, 2), 1)]
        cols = [[diag[0], SnuSeries.zero(Z5, NU0)], [SnuSeries.zero(Z5, NU0), diag[1]]]
        M = SMat.from_columns(Z5, NU0, d, cols)
        lams = [
            poly(Z5, NU0, [(rng.randrange(0, 2), rng.randrange(1, 5))]).scale_pi(-rng.randrange(0, 2))
            for _ in range(2)
        ]
        t = [
            sum((M.a[i][j] * lams[j] for j in range(2)), SnuSeries.zero(Z5, NU0))
            for i in range(d)
        ]
        M1, L1 = add_vector(M, lams, prec=12, p_u=8, L=[0, 0])
        # normalize into an MLModule and compare with the exact path
        cols_out, L_out = [], []
        for j in range(M1.cols):
            q, delta = divmod(L1[j], 1)
            cols_out.append([e.scale_pi(q) for e in M1.col(j)])
            L_out.append(delta)
        got = MLModule(Z5, NU0, d, cols_out, L_out)
        A = ml_from_matrix(M)
        B_m = max_module(SMat.from_columns(Z5, NU0, d, [t]), 12)
        want = max_sum_ml(A, B_m, 12)
        assert psi(got, 12).equal(psi(want, 12)), (lams,)


def test_approx_sum_c0_matches_scalar_extension():
    cert = GapCertificate(c=0, p_u=8, p_pi=8)
    M1 = SMat(Z5, NU0, [[mono(Z5, NU0, 0, 1)]])
    M2 = SMat(Z5, NU0, [[mono(Z5, NU0, 1, 1)]])  # pi*u in <pi>
    out = approx_max_sum(M1, M2, cert, 10)
    assert out.slope == NU0  # nu' = nu for c = 0
    assert out.L == [0]
    assert out.columns[0][0].digits_agree(mono(Z5, NU0, 0, 1))


def test_approx_sum_exact_path_cross_check():
    # on exact inputs the bumped sum equals the exact max-sum scalar-extended
    cert = GapCertificate(c=2, p_u=8, p_pi=10)
    M1 = SMat(Z5, NU0, [[mono(Z5, NU0, 0, 2)]])
    M2 = SMat(Z5, NU0, [[mono(Z5, NU0, 0, 1)]])
    out = approx_max_sum(M1, M2, cert, 12)
    nu2 = cert.bumped_slope(NU0, M2.cols)
    exact = max_sum_ml(ml_from_matrix(M1), ml_from_matrix(M2), 12)
    want = scalar_extend(exact, nu2)
    assert out.L == want.L
    assert out.columns[0][0].digits_agree(want.columns[0][0])


def test_approx_sum_two_column_second_module():
    # e = 2 generator columns bump the slope by 2c/p_u = 1/4
    cert = GapCertificate(c=1, p_u=8, p_pi=10)
    M1 = SMat(Z5, NU0, [[mono(Z5, NU0, 0, 2)]])
    M2 = SMat(Z5, NU0, [[mono(Z5, NU0, 0, 1), mono(Z5, NU0, 1, 1)]])
    out = approx_max_sum(M1, M2, cert, 12)
    assert out.slope == Slope(1, 4)
    exact = max_sum_ml(ml_from_matrix(M1), ml_from_matrix(M2), 12)
    want = scalar_extend(exact, Slope(1, 4))
    assert out.L == want.L
    assert len(out.columns) == len(want.columns) == 1
    assert out.columns[0][0].digits_agree(want.columns[0][0])


def test_approx_sum_representative_independence():
    rng = random.Random(9)
    cert = GapCertificate(c=1, p_u=8, p_pi=6)
    M1 = SMat(Z5, NU0, [[mono(Z5, NU0, 0, 1), SnuSeries.zero(Z5, NU0)],
                        [SnuSeries.zero(Z5, NU0), mono(Z5, NU0, 0, 1)]])
    t = [SnuSeries.one(Z5, NU0), poly(Z5, NU0, [(1, 1)])]
    M2 = SMat.from_columns(Z5, NU0, 2, [t])
    base = approx_max_sum(M1, M2, cert, 10)
    for _ in range(6):
        def perturb(e):
            junk = poly(
                Z5, NU0,
                [(rng.randrange(0, 8), 5 ** 6 * rng.randrange(1, 5)), (8 + rng.randrange(0, 3), rng.randrange(1, 9))],
            )
            return e + junk
        out = approx_max_sum(M1.map(perturb), M2.map(perturb), cert, 10)
        assert ml_structurally_equal(out, base)


def test_approx_sum_certificate_violation():
    # claim c = 0 but the true gap needs c = 1
    cert = GapCertificate(c=0, p_u=8, p_pi=8)
    M1 = SMat(Z5, NU0, [[mono(Z5, NU0, 0, 1)]])
    M2 = SMat(Z5, NU0, [[SnuSeries.one(Z5, NU0)]])
    with pytest.raises(CertificateViolation):
        approx_max_sum(M1, M2, cert, 10)


def test_add_vector_rebalances_the_pi_power(monkeypatch):
    # g_0 = pi C_0 (L = [1, 0]): a Euclidean pair whose j0 has the smaller
    # scaled valuation v - L/alpha but the larger plain one v, so lambda_j0
    # is lowered by a pi power before the division
    one, zero = SnuSeries.one(Z5, NU0), SnuSeries.zero(Z5, NU0)
    M = SMat(Z5, NU0, [[one, zero], [zero, one]])
    L = [1, 0]
    lams = [poly(Z5, NU0, [(0, 25), (1, 25), (2, 1)]),
            poly(Z5, NU0, [(0, 5), (1, 2)]) + mono(Z5, NU0, 2, -1)]
    rebalanced = []

    def spy(data, vt):
        pair = _pick_pair(data, vt)
        if pair is not None and data[pair[0]][0] > data[pair[1]][0]:
            rebalanced.append(pair)
        return pair

    monkeypatch.setattr(precise_sum, "_pick_pair", spy)
    M1, L1 = add_vector(M, lams, prec=12, p_u=8, L=L)
    assert rebalanced
    # oracle: the maximal module of the exact span of pi^L[j] C_j and t
    t = [M.a[i][0] * lams[0] + M.a[i][1] * lams[1] for i in range(2)]
    gens = [[e.scale_pi(L[j]) for e in M.col(j)] for j in range(2)]
    want = max_module(SMat.from_columns(Z5, NU0, 2, gens + [t]), 12)
    got = MLModule(Z5, NU0, 2, [[e.scale_pi(L1[j]) for e in M1.col(j)] for j in range(2)], [0, 0])
    assert psi(got, 12).equal(psi(want, 12))


def test_solve_pi_leaves_the_coordinate_of_an_uncertain_residual_at_zero():
    # an approximate triangular base: the last residual entry O(pi^7) has no
    # certain digit, so its coordinate stays 0, and the first is 3
    unknown = SnuSeries(Z5, NU0, {0: CoeffElem.from_int(Z5, 5**7).reduce_abs_w(6)})
    assert not unknown.has_certain_digit() and not unknown.is_exact_zero()
    one = poly(Z5, NU0, [(0, 1)], prec=6)
    M = SMat(Z5, NU0, [[one, poly(Z5, NU0, [(1, 1)])], [SnuSeries.zero(Z5, NU0), poly(Z5, NU0, [(0, 2)])]])
    X = precise_sum._solve_pi(M, [poly(Z5, NU0, [(0, 3)]), unknown], 10)
    assert X[1].is_exact_zero()
    assert X[0].certified_val_deg() == (0, 0) and X[0].digits_agree(poly(Z5, NU0, [(0, 3)]))


def test_approx_sum_rejects_a_certain_digit_below_a_monomial_pivot():
    # the base pivot u is the monomial c*u^b with b = 1; the generator 1 has
    # its certain digit at u^0, so it is no pi-multiple of the pivot
    M1 = SMat(Z5, NU0, [[poly(Z5, NU0, [(1, 1)])]])
    M2 = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 1)])]])
    with pytest.raises(CertificateViolation, match="pi-span of the base"):
        approx_max_sum(M1, M2, GapCertificate(1, 6, 6), 10)
