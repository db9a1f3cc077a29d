import random
from fractions import Fraction

import pytest

from slomod import pairrep
from slomod.contfrac import Slope
from slomod.errors import AlgebraError, BadParameters, NotFullRank, NotInImage, PrecisionExhausted
from slomod.localized import Echelon, SMat, hnf_u, saturation_u
from slomod.maxmod import MLModule, max_module, max_sum_ml, qis_closure_member
from slomod.pairrep import (
    LocalPair,
    pair_intersect,
    pair_max_sum,
    pair_to_ml,
    psi,
    psi_inverse,
    saturate,
    verify_image_condition,
)
from slomod.series import SnuSeries

from helpers import (
    F2,
    NU0,
    Z3,
    Z5,
    det_cofactor,
    mono,
    poly,
    random_exact_poly,
    smith_saturation,
    verify_image_condition_hnf,
)


def random_maximal_ml(rng, slope, d, upper=True):
    """A random full-rank free module in triangular (M, L) form: monomial
    diagonal, exact polynomial strictly-upper entries."""
    cols = []
    for j in range(d):
        col = [SnuSeries.zero(Z5, slope) for _ in range(d)]
        b = rng.randrange(0, 2) * slope.alpha
        a = rng.randrange(0, 2)
        col[j] = mono(Z5, slope, b, max(a, -int(slope.nu * b)))
        for i in range(j):
            if rng.random() < 0.5:
                e = rng.randrange(0, 2)
                col[i] = mono(Z5, slope, e, max(rng.randrange(0, 2), -int(slope.nu * e)))
        cols.append(col)
    L = [rng.randrange(0, slope.alpha) for _ in range(d)]
    return MLModule(Z5, slope, d, cols, L)


def test_psi_pi_module():
    ml = MLModule(Z5, NU0, 1, [[poly(Z5, NU0, [(0, 5)])]], [0])
    P = psi(ml, 10)
    assert P.A.a[0][0] == SnuSeries.one(Z5, NU0)
    assert P.B.a[0][0].digits_agree(poly(Z5, NU0, [(0, 5)]))
    assert P.b_vals == [Fraction(1)]


def test_psi_identity_module():
    z = SnuSeries.zero(Z5, NU0)
    one = SnuSeries.one(Z5, NU0)
    ml = MLModule(Z5, NU0, 2, [[one, z], [z, one]], [0, 0])
    P = psi(ml, 10)
    for i in range(2):
        for j in range(2):
            want = one if i == j else z
            assert P.A.a[i][j].digits_agree(want)
            assert P.B.a[i][j].digits_agree(want)


def test_psi_of_generator_matrix_maximalizes():
    M = SMat(Z5, NU0, [[poly(Z5, NU0, [(0, 25)]), poly(Z5, NU0, [(3, 5)])]])
    P = psi(M, 12)
    # Max = pi.S_0: the pair of the worked example
    assert P.A.a[0][0] == SnuSeries.one(Z5, NU0)
    assert P.B.a[0][0].digits_agree(poly(Z5, NU0, [(0, 5)]))


def test_image_condition_negative():
    # (S_0, u-module of rank 0) spans differ
    one = SnuSeries.one(Z5, NU0)
    z = SnuSeries.zero(Z5, NU0)
    A = SMat(Z5, NU0, [[one, z], [z, one]])
    B = SMat(Z5, NU0, [[one], [z]])
    P = LocalPair(Z5, NU0, 2, A, B, [0, 1], [0], [Fraction(0)])
    assert not verify_image_condition(P, 8)
    # psi_inverse's full-rank path tests no membership, but still the ranks
    with pytest.raises(NotInImage):
        psi_inverse(P, 8)


def test_psi_inverse_simple():
    ml = MLModule(Z5, NU0, 1, [[poly(Z5, NU0, [(0, 5)])]], [0])
    P = psi(ml, 10)
    gens, ml2 = psi_inverse(P, 10)
    P2 = psi(ml2, 10)
    assert P.equal(P2)


def test_round_trips_random():
    rng = random.Random(15)
    for slope in (NU0, Slope(1, 2), Slope(2, 5)):
        for _ in range(8):
            d = rng.randrange(1, 3)
            ml = random_maximal_ml(rng, slope, d)
            P = psi(ml, 12)
            # pair -> ml -> pair
            ml2 = pair_to_ml(P, 12)
            P2 = psi(ml2, 12)
            assert P.equal(P2), (ml.as_matrix(), ml.L)
            # psi_inverse round trip
            gens, ml3 = psi_inverse(P, 12)
            P3 = psi(ml3, 12)
            assert P.equal(P3)


def test_pair_ops_idempotent():
    ml = MLModule(Z5, NU0, 1, [[poly(Z5, NU0, [(1, 1), (0, 5)])]], [0])
    P = psi(ml, 10)
    assert pair_intersect(P, P, 10).equal(P)
    assert pair_max_sum(P, P, 10).equal(P)


def test_pair_monomial_lattice():
    # u S0 and pi S0: max-sum is everything, intersection is u*pi S0
    Pu = psi(MLModule(Z5, NU0, 1, [[poly(Z5, NU0, [(1, 1)])]], [0]), 10)
    Pp = psi(MLModule(Z5, NU0, 1, [[poly(Z5, NU0, [(0, 5)])]], [0]), 10)
    S = pair_max_sum(Pu, Pp, 10)
    assert S.A.a[0][0] == SnuSeries.one(Z5, NU0)
    assert S.B.a[0][0].digits_agree(SnuSeries.one(Z5, NU0))
    I = pair_intersect(Pu, Pp, 10)
    expected = psi(MLModule(Z5, NU0, 1, [[mono(Z5, NU0, 1, 1)]], [0]), 10)
    assert I.equal(expected)


def test_two_sum_paths_agree():
    rng = random.Random(25)
    for slope in (NU0, Slope(1, 2), Slope(2, 3)):
        for _ in range(8):
            d = 2
            A = random_maximal_ml(rng, slope, d)
            B = random_maximal_ml(rng, slope, d)
            via_ml = psi(max_sum_ml(A, B, 12), 12)
            via_pair = pair_max_sum(psi(A, 12), psi(B, 12), 12)
            assert via_ml.equal(via_pair)
    # psi of random exact matrices: either route may fail on a
    # finite-precision Hermite form (ROADMAP item 20), so only the inputs
    # where both succeed are compared
    agreed = 0
    for cfg in (Z5, Z3, F2):
        for slope in (NU0, Slope(1, 2), Slope(2, 3)):
            for d in (2, 3):
                rng = random.Random(f"{cfg!r}/{slope}/{d}/sum")
                for _ in range(3):
                    A, B = (_random_matrix(rng, cfg, slope, d) for _ in range(2))
                    via_ml = _outcome(lambda: psi(max_sum_ml(max_module(A, 8), max_module(B, 8), 8), 8))
                    via_pair = _outcome(lambda: pair_max_sum(psi(A, 8), psi(B, 8), 8))
                    if not (isinstance(via_ml, type) or isinstance(via_pair, type)):
                        assert via_ml.equal(via_pair) and via_pair.equal(via_ml)
                        agreed += 1
    assert agreed >= 20


def test_pair_max_sum_takes_one_hermite_form_per_side(monkeypatch):
    # Z3 at slope 1/2: psi(A) holds working-precision entries that a second
    # Hermite pass over the echelon columns of (A B) refused
    h = Slope(1, 2)
    two_2u = poly(Z3, h, [(0, 2), (1, 2)])
    A = SMat.from_columns(Z3, h, 3, [[mono(Z3, h, 1, 0, 2), poly(Z3, h, [(0, 2), (1, 1)]), two_2u]])
    B = SMat.from_columns(Z3, h, 3, [[mono(Z3, h, 2, -1), poly(Z3, h, [(1, 1)]), two_2u]])
    P, Q = psi(A, 8), psi(B, 8)
    calls = []

    def counting(name):
        real = getattr(pairrep, name)

        def run(M, *args):
            calls.append(name)
            return real(M, *args)

        return run

    for name in ("hnf_pi", "hnf_u"):
        monkeypatch.setattr(pairrep, name, counting(name))
    S = pair_max_sum(P, Q, 8)
    assert calls == ["hnf_pi", "hnf_u"]
    monkeypatch.undo()
    assert S.equal(psi(max_sum_ml(max_module(A, 8), max_module(B, 8), 8), 8))


def test_intersection_is_maximal():
    rng = random.Random(35)
    for _ in range(6):
        A = random_maximal_ml(rng, NU0, 2)
        B = random_maximal_ml(rng, NU0, 2)
        I = pair_intersect(psi(A, 12), psi(B, 12), 12)
        if I.A.cols == 0:
            continue
        gens, ml = psi_inverse(I, 12)
        # closure adds nothing
        exp = ml.expand_generators()
        for j in range(exp.cols):
            assert qis_closure_member(exp.col(j), exp, 10, 20)


def test_saturate_full_rank():
    ml = MLModule(Z5, NU0, 1, [[poly(Z5, NU0, [(1, 1)])]], [0])
    P = psi(ml, 10)
    S = saturate(P, 10)
    assert S.B.a[0][0] == SnuSeries.one(Z5, NU0)
    assert S.A.a[0][0].digits_agree(P.A.a[0][0])
    # already saturated: unchanged
    S2 = saturate(S, 10)
    assert S2.equal(S)


def test_saturate_scaling_membership():
    # every generator of the saturation times a pi power is a member
    ml = MLModule(Z5, NU0, 2, [[poly(Z5, NU0, [(0, 25)]), SnuSeries.zero(Z5, NU0)],
                               [SnuSeries.zero(Z5, NU0), poly(Z5, NU0, [(1, 5)])]], [0, 0])
    P = psi(ml, 10)
    S = saturate(P, 10)
    from slomod.localized import member_u

    N = 3
    for j in range(S.B.cols):
        scaled = [e.scale_pi(N) for e in S.B.col(j)]
        assert member_u(scaled, P.B, 10) is not None


def _smith_saturate(P, n):
    """``saturate`` below full rank with the Smith-form oracle."""
    eu = hnf_u(smith_saturation(P.B, n), n)
    return pairrep._pair_from_hnfs(
        P.cfg, P.slope, P.dim, Echelon(P.A, [], P.a_rows), eu, P.ram
    )


def _outcome(fn, *args):
    """fn(*args), or the class of the AlgebraError it raised."""
    try:
        return fn(*args)
    except AlgebraError as e:
        return type(e)


def _random_matrix(rng, cfg, slope, d):
    """A d x k exact matrix, k from 1 to d + 1, of digits of degree <= 1."""
    k = rng.randrange(1, d + 2)
    return SMat(cfg, slope, [[random_exact_poly(rng, cfg, slope, 1, 1) for _ in range(k)] for _ in range(d)])


# two draws of degree <= 1 per cell: wider draws run into the u side's digit
# growth (ROADMAP item 1; a third draw of the Z5 4x3 cell at slope 1/2 runs
# over 20 s)
DRAWS, MAX_DEG, MAX_PI = 2, 1, 1


@pytest.mark.parametrize("cfg", [Z5, Z3, F2], ids=["Z5", "Z3", "GF2"])
@pytest.mark.parametrize("slope", [NU0, Slope(1, 2), Slope(2, 3)], ids=str)
@pytest.mark.parametrize("rows, cols", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
def test_saturate_below_full_rank_matches_the_smith_oracle(cfg, slope, rows, cols):
    # the saturation from the echelon of B^t and the one from a Smith form
    # are two bases of one module: the same Hermite form below level n
    n = 8
    rng = random.Random(f"{cfg!r}/{slope}/{rows}x{cols}")
    for _ in range(DRAWS):
        B = SMat(cfg, slope, [[random_exact_poly(rng, cfg, slope, MAX_DEG, MAX_PI) for _ in range(cols)]
                              for _ in range(rows)])
        P = _outcome(psi, B, n)
        if isinstance(P, type):
            continue
        assert P.rank < P.dim
        got, want = _outcome(saturate, P, n), _outcome(_smith_saturate, P, n)
        if isinstance(got, type) or isinstance(want, type):
            assert got is want
            continue
        assert (got.b_rows, got.b_vals) == (want.b_rows, want.b_vals)
        assert repr(got.A) == repr(P.A) and got.a_rows == P.a_rows
        assert (got.B.rows, got.B.cols) == (want.B.rows, want.B.cols)
        for x, y in zip(sum(got.B.a, []), sum(want.B.a, [])):
            assert x.reduce_levels(n).digits_agree(y.reduce_levels(n))


def test_saturate_rank_zero():
    # B is 3x0, stored with a 0x0 transpose: the saturation of 0 is 0
    z = SMat.from_columns(Z5, NU0, 3, [])
    for S in (saturation_u(z, 8), smith_saturation(z, 8)):
        assert (S.rows, S.cols) == (3, 0)
    P = LocalPair(Z5, NU0, 3, z, z, [], [], [])
    S = saturate(P, 8)
    assert S.rank == 0 and (S.B.rows, S.B.cols) == (3, 0) and S.b_rows == S.b_vals == []
    assert S.equal(_smith_saturate(P, 8))


def test_pair_to_ml_requires_full_rank():
    one = SnuSeries.one(Z5, NU0)
    z = SnuSeries.zero(Z5, NU0)
    A = SMat(Z5, NU0, [[one], [z]])
    B = SMat(Z5, NU0, [[one], [z]])
    P = LocalPair(Z5, NU0, 2, A, B, [0], [0], [Fraction(0)])
    with pytest.raises(NotFullRank):
        pair_to_ml(P, 10)


def test_pair_to_ml_integral_determinant_case():
    # at slope 0 the pi-determinant valuation is integral: no extension
    # used; at 1/2 and 2/3 the w-exponents of the determinant enter L
    rng = random.Random(45)
    for slope in (NU0, Slope(1, 2), Slope(2, 3)):
        for _ in range(6):
            ml = random_maximal_ml(rng, slope, 2)
            P = psi(ml, 12)
            det_ok = pair_to_ml(P, 12)
            assert psi(det_ok, 12).equal(P)


def test_triangular_determinants_match_cofactor_oracle():
    # pair_to_ml takes det A as the diagonal product and v(det B) as
    # sum(b_vals): both Hermite forms of a full-rank pair are triangular
    rng = random.Random(55)
    for slope in (NU0, Slope(1, 2), Slope(2, 3)):
        for _ in range(6):
            P = psi(random_maximal_ml(rng, slope, rng.randrange(1, 4)), 12)
            diag = SnuSeries.one(Z5, slope)
            for i in reversed(range(P.dim)):
                diag = P.A.a[i][i] * diag
            assert det_cofactor(P.A) == diag
            assert det_cofactor(P.B).certified_valuation() == sum(P.b_vals)


def test_pair_to_ml_rejects_non_triangular():
    one = SnuSeries.one(Z5, NU0)
    z = SnuSeries.zero(Z5, NU0)
    u = poly(Z5, NU0, [(1, 1)])
    ident = SMat(Z5, NU0, [[one, z], [z, one]])
    upper = SMat(Z5, NU0, [[one, u], [z, one]])
    P = LocalPair(Z5, NU0, 2, upper, ident, [0, 1], [0, 1], [Fraction(0)] * 2)
    with pytest.raises(BadParameters):
        pair_to_ml(P, 10)
    # the same pair without the entry above the diagonal is accepted
    P.A = ident
    assert pair_to_ml(P, 10).L == [0, 0]
    # in B a certain digit above the diagonal is rejected too
    P.B = upper
    with pytest.raises(BadParameters):
        pair_to_ml(P, 10)
    # but hnf_u may leave a digit-free O-term there (zero at the working
    # level): the shape check passes it, the exact relations then refuse it
    P.B = SMat(Z5, NU0, [[one, SnuSeries(Z5, NU0, {}, 30, Fraction(15))], [z, one]])
    with pytest.raises(PrecisionExhausted):
        pair_to_ml(P, 10)


@pytest.mark.parametrize("slope", [NU0, Slope(1, 2)])
def test_psi_inverse_round_trip_by_rank(slope):
    # rank < dim goes through coordinates in the pi basis; (1 + u) is a
    # non-monomial u-unit at slope 1/2
    z = SnuSeries.zero(Z5, slope)
    one = SnuSeries.one(Z5, slope)
    u = poly(Z5, slope, [(1, 1)])
    pu = poly(Z5, slope, [(0, 5), (1, 1)])
    opu = poly(Z5, slope, [(0, 1), (1, 1)])
    for rank, cols in (
        (1, [[one, pu]]),
        (1, [[pu, z], [u * pu, z]]),
        (1, [[one, pu, u]]),
        (2, [[one, pu, z], [z, z, one]]),
        (2, [[one, pu, z], [z, u, opu], [u, u * pu, z]]),
        (2, [[one, z, opu], [z, one, z]]),
        (3, [[one, opu, z], [z, one, opu], [z, z, one]]),
        (3, [[one, z, z], [opu, u, z], [z, opu, pu]]),
    ):
        P = psi(SMat.from_columns(Z5, slope, len(cols[0]), cols), 12)
        assert P.rank == rank and P.dim == len(cols[0])
        gens, ml = psi_inverse(P, 12)
        assert psi(ml, 12).equal(P)


@pytest.mark.parametrize("slope", [NU0, Slope(1, 2)])
def test_psi_inverse_rank_zero(slope):
    # the zero module of dimension d: d x 0 generators, not a 0 x 0 matrix
    z = SnuSeries.zero(Z5, slope)
    for d, k in ((1, 1), (2, 1), (3, 2)):
        P = psi(SMat(Z5, slope, [[z] * k for _ in range(d)]), 12)
        assert P.rank == 0 and P.dim == d
        gens, ml = psi_inverse(P, 12)
        assert (gens.rows, gens.cols) == (d, 0)
        assert ml.dim == d and ml.columns == []
        assert psi(ml, 12).equal(P)


def test_verify_image_condition_one_hnf_per_component(monkeypatch):
    # a full-rank psi_inverse echelons neither component and tests no
    # membership: both triangular forms span E^d by their shape; below full
    # rank B is its own echelon and A's E-independent columns are tested in
    # it, one membership test per column and no echelon of either component
    slope = Slope(1, 2)
    z = SnuSeries.zero(Z5, slope)
    one = SnuSeries.one(Z5, slope)
    u = poly(Z5, slope, [(1, 1)])
    pu = poly(Z5, slope, [(0, 5), (1, 1)])
    opu = poly(Z5, slope, [(0, 1), (1, 1)])
    for cols, rank, want in (
        ([[one, z, z], [opu, u, z], [z, opu, pu]], 3, []),
        ([[one, pu, z], [z, u, opu], [u, u * pu, z]], 2, []),
    ):
        P = psi(SMat.from_columns(Z5, slope, 3, cols), 12)
        assert P.rank == rank and P.dim == 3
        if rank == 3:
            expected = pair_to_ml(P, 12).expand_generators()
        # the per-column membership tests with a fresh echelon each time
        assert all(
            pairrep._e_membership(X.col(j), Y, pairrep.hnf_u(Y, 12), 12)
            for X, Y in ((P.A, P.B), (P.B, P.A))
            for j in range(X.cols)
        )
        calls, tests = [], []
        real_hnf_u, real_membership = pairrep.hnf_u, pairrep._e_membership

        def counting(M, *args, **kwargs):
            if M is P.A or M is P.B:
                calls.append("A" if M is P.A else "B")
            return real_hnf_u(M, *args, **kwargs)

        def membership(*args):
            tests.append(args)
            return real_membership(*args)

        monkeypatch.setattr(pairrep, "hnf_u", counting)
        monkeypatch.setattr(pairrep, "_e_membership", membership)
        gens, ml = psi_inverse(P, 12)
        monkeypatch.undo()
        assert calls == want
        assert len(tests) == (0 if rank == 3 else rank)
        if rank == 3:
            assert gens.rows == expected.rows and gens.cols == expected.cols
            assert all(
                gens.a[i][j] == expected.a[i][j] for i in range(gens.rows) for j in range(gens.cols)
            )
        assert psi(ml, 12).equal(P)


@pytest.mark.parametrize("slope", [NU0, Slope(1, 2)], ids=str)
def test_full_rank_pivot_without_a_certain_digit_is_bad_parameters(slope):
    # a full-rank-shaped pair whose pivot is an exact zero or an O-term
    # (below and above the working level) spans no E^d: the shape check
    # refuses it, in either component
    z = SnuSeries.zero(Z5, slope)
    one = SnuSeries.one(Z5, slope)
    ident = SMat(Z5, slope, [[one, z], [z, one]])
    for pivot in (z, SnuSeries(Z5, slope, {}, 30, Fraction(3)), SnuSeries(Z5, slope, {}, 30, Fraction(15))):
        bad = SMat(Z5, slope, [[one, z], [z, pivot]])
        for A, B in ((bad, ident), (ident, bad)):
            P = LocalPair(Z5, slope, 2, A, B, [0, 1], [0, 1], [Fraction(0)] * 2)
            for fn in (psi_inverse, pair_to_ml):
                with pytest.raises(BadParameters, match="certain digit"):
                    fn(P, 10)


@pytest.mark.parametrize("cfg", [Z5, Z3, F2], ids=["Z5", "Z3", "GF2"])
@pytest.mark.parametrize("slope", [NU0, Slope(1, 2), Slope(2, 3)], ids=str)
def test_verify_image_condition_matches_the_two_hnf_oracle(cfg, slope):
    # psi pairs, and mixed pairs (A of one input, B of another of the same
    # rank): the same answer, or the same error class, as echeloning B anew
    n = 8
    compared = 0
    for d in (2, 3):
        rng = random.Random(f"{cfg!r}/{slope}/{d}/image")
        pairs = [P for P in (_outcome(psi, _random_matrix(rng, cfg, slope, d), n) for _ in range(5))
                 if not isinstance(P, type)]
        mixed = [
            LocalPair(cfg, slope, d, P.A, Q.B, P.a_rows, Q.b_rows, Q.b_vals)
            for P in pairs for Q in pairs if P is not Q and P.A.cols == Q.B.cols
        ]
        for X in pairs + mixed:
            assert _outcome(verify_image_condition, X, n) == _outcome(verify_image_condition_hnf, X, n)
            compared += 1
    assert compared >= 10


# psi of exact matrices whose pair fails its own image condition (the u
# side leaves certain digits above the level in B's third row)
IMAGE_CONDITION_FALSE = [
    (F2, [[[(1, 1)], [(0, 1), (1, 1)]], [[(1, 1)], [(1, 1)]], [[(1, 1)], [(1, 1)]]]),
    (Z3, [[[(1, 2)], [(0, 1), (1, 2)]], [[(1, 2)], [(1, 2)]], [[(0, 2), (1, 1)], [(0, 2), (1, 1)]]]),
]


@pytest.mark.parametrize("cfg", [Z5, Z3, F2], ids=["Z5", "Z3", "GF2"])
@pytest.mark.parametrize("slope", [NU0, Slope(1, 2), Slope(2, 3)], ids=str)
def test_one_membership_direction_matches_the_two_direction_oracle_below_full_rank(cfg, slope, monkeypatch):
    # lower-rank psi and mixed pairs, where the membership test decides:
    # testing A in B alone gives the oracle's answer or error class, and
    # echelons no component
    n = 8
    pairs = []
    for d in (2, 3):
        rng = random.Random(f"{cfg!r}/{slope}/{d}/lower-rank")
        drawn = [P for P in (_outcome(psi, _random_matrix(rng, cfg, slope, d), n) for _ in range(8))
                 if not isinstance(P, type) and 0 < P.rank < d]
        pairs += drawn + [
            LocalPair(cfg, slope, d, P.A, Q.B, P.a_rows, Q.b_rows, Q.b_vals)
            for P in drawn for Q in drawn if P is not Q and P.A.cols == Q.B.cols
        ]
    if slope == Slope(2, 3):
        pairs += [psi(SMat(c, slope, [[poly(c, slope, t) for t in r] for r in rows]), n)
                  for c, rows in IMAGE_CONDITION_FALSE if c is cfg]
    echeloned = []

    def counting(M, *args, **kwargs):
        echeloned.append(M)
        return hnf_u(M, *args, **kwargs)

    outcomes = []
    for P in pairs:
        monkeypatch.setattr(pairrep, "hnf_u", counting)
        got = _outcome(verify_image_condition, P, n)
        monkeypatch.undo()
        assert got == _outcome(verify_image_condition_hnf, P, n), P
        outcomes.append(got)
    assert echeloned == []
    assert len(pairs) >= 4 and True in outcomes


@pytest.mark.parametrize("n", [8, 12, 16])
@pytest.mark.parametrize("cfg, rows", IMAGE_CONDITION_FALSE, ids=["GF2", "Z3"])
def test_image_condition_false_on_psi_of_a_rank_two_matrix(cfg, rows, n):
    slope = Slope(2, 3)
    P = psi(SMat(cfg, slope, [[poly(cfg, slope, t) for t in r] for r in rows]), n)
    assert P.rank == 2 and P.dim == 3
    assert verify_image_condition(P, n) is False
    assert verify_image_condition_hnf(P, n) is False
