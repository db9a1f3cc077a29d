import random
from fractions import Fraction

import pytest

from slomod.coeffs import INF, CoeffElem
from slomod.contfrac import Slope
from slomod.errors import BadParameters, SlopeMismatch
from slomod.precision import PrecisionLattice, reduce_series
from slomod.series import SnuSeries, euclid_div

from helpers import NU0, Z5, division_precision_plan, jagged_lattice, lattice_entry, lattice_for_mul, lattice_for_sum
from helpers import poly, random_exact_poly


def lattice_element(rng, P, tail_terms=2):
    """A random element of the lattice P (used to perturb representatives)."""
    coeffs = {}
    nu = P.slope.nu
    for i in range(P.u_prec):
        if rng.random() < 0.5:
            continue
        lv = P.level(i)
        if lv == INF:
            continue
        vmin = lv - nu * i
        v = -((-vmin.numerator) // vmin.denominator)  # ceil
        coeffs[i] = CoeffElem.from_int(Z5, rng.randrange(1, 5)).scale_pi(v + rng.randrange(0, 2))
    for k in range(tail_terms):
        i = P.u_prec + rng.randrange(0, 4)
        v = -int(nu * i)  # -floor(i nu): the free-region bound
        coeffs[i] = CoeffElem.from_int(Z5, rng.randrange(1, 5)).scale_pi(v + rng.randrange(0, 2))
    return SnuSeries(Z5, P.slope, coeffs)


def lattice_contains(P, x) -> bool:
    for i, c in x.coeffs.items():
        lv = P.level(i)
        if lv == INF:
            return False
        if c.val_lower() + x.nu * i < lv:
            return False
    return True


def test_sum_idempotent():
    P = PrecisionLattice.flat(NU0, 10, 5)
    S = lattice_for_sum(P, P)
    assert (S.slope, S.u_prec, S.levels) == (P.slope, P.u_prec, P.levels)


def test_sum_min_rule():
    P = PrecisionLattice.flat(NU0, 10, 5)
    Q = PrecisionLattice.flat(NU0, 8, 7)
    S = lattice_for_sum(P, Q)
    assert S.u_prec == 8
    assert all(lattice_entry(S, i) == 5 for i in range(8))


def test_sum_slope_mismatch():
    with pytest.raises(SlopeMismatch):
        lattice_for_sum(PrecisionLattice.flat(NU0, 4, 2), PrecisionLattice.flat(Slope(1, 2), 4, 2))


def test_sum_repr_compatibility_fuzz():
    rng = random.Random(3)
    P = PrecisionLattice.flat(NU0, 8, 5)
    Q = jagged_lattice(NU0, [7, 6, 5, 4, 4, 4, 3, 3])
    S = lattice_for_sum(P, Q)
    for _ in range(30):
        x = random_exact_poly(rng, Z5, NU0, max_deg=6)
        y = random_exact_poly(rng, Z5, NU0, max_deg=6)
        lhs = reduce_series(reduce_series(x, P) + reduce_series(y, Q), S)
        rhs = reduce_series(x + y, S)
        assert lhs.digits_agree(rhs)


def test_mul_exact_unit_keeps_lattice():
    # at slope 0 a valuation-0 multiplier leaves a flat lattice unchanged
    P = PrecisionLattice.flat(NU0, 8, 5)
    exact = PrecisionLattice(NU0, INF, {})
    out = lattice_for_mul(Fraction(0), Fraction(0), P, exact)
    assert out.u_prec == 8
    assert all(lattice_entry(out, i) == lattice_entry(P, i) for i in range(8))


def test_mul_flat_flat():
    P = PrecisionLattice.flat(NU0, 8, 5)
    Q = PrecisionLattice.flat(NU0, 8, 7)
    out = lattice_for_mul(Fraction(0), Fraction(0), P, Q)
    # y*P + x*P' + P*P' with valuation-0 scalars: min(5, 7, 5+7) = 5
    assert all(lattice_entry(out, i) == 5 for i in range(8))
    out2 = lattice_for_mul(Fraction(2), Fraction(1), P, Q)
    assert all(lattice_entry(out2, i) == min(5 + 1, 7 + 2) for i in range(8))


def test_mul_repr_compatibility_fuzz():
    rng = random.Random(7)
    for slope in (NU0, Slope(1, 2)):
        P = PrecisionLattice.flat(slope, 7, 5)
        Q = PrecisionLattice.flat(slope, 7, 6)
        for _ in range(25):
            x = random_exact_poly(rng, Z5, slope, max_deg=5)
            y = random_exact_poly(rng, Z5, slope, max_deg=5)
            xv, yv = x.certified_valuation(), y.certified_valuation()
            P0 = lattice_for_mul(xv, yv, P, Q)
            lhs = reduce_series(reduce_series(x, P) * reduce_series(y, Q), P0)
            rhs = reduce_series(x * y, P0)
            assert lhs.digits_agree(rhs)


def test_projection_transitivity():
    rng = random.Random(9)
    P = jagged_lattice(NU0, [6, 5, 5, 4, 3])
    Q = jagged_lattice(NU0, [4, 4, 3, 2, 2])  # Q contains P entrywise
    for _ in range(20):
        x = random_exact_poly(rng, Z5, NU0, max_deg=4)
        assert reduce_series(reduce_series(x, P), Q).digits_agree(reduce_series(x, Q))


def test_flat_lattice_regular():
    # s * P_f subset of P_f for s in the slope ring
    rng = random.Random(13)
    P = PrecisionLattice.flat(NU0, 8, 5)
    for _ in range(25):
        s = random_exact_poly(rng, Z5, NU0, max_deg=3)
        h = lattice_element(rng, P, tail_terms=0)
        prod = (s * h).truncate_u(8)
        assert lattice_contains(P, prod)


def test_division_plan_single_step():
    P_y, P_q, p_x = division_precision_plan(2, 8, 6, NU0)
    assert p_x == 2
    assert [lattice_entry(P_y, i) for i in range(2)] == [6, 6]


def test_division_plan_staircase():
    P_y, P_q, p_x = division_precision_plan(2, 1, 4, Slope(1, 6))
    assert p_x == 8
    for i in range(8):
        assert lattice_entry(P_y, i) == max(4 - (i // 2), 0)
    for i in range(6):
        assert lattice_entry(P_q, i) == max(4 - (i // 2 + 1), 0)


def test_division_plan_bad_parameters():
    with pytest.raises(BadParameters):
        division_precision_plan(0, 1, 4, NU0)
    with pytest.raises(BadParameters):
        division_precision_plan(2, 0, 4, NU0)


def test_division_stability_fuzz():
    # Perturbing inputs inside their declared lattices leaves the outputs
    # unchanged at the declared output lattices.
    rng = random.Random(29)
    slope = NU0
    failures = 0
    for _ in range(25):
        d = rng.randrange(1, 3)
        p_pi = rng.randrange(2, 5)
        x = poly(Z5, slope, [(d, 1)])
        for i in range(d):
            x = x + poly(Z5, slope, [(i, 5 * rng.randrange(0, 3))])
        lo = [i for i, c in x.coeffs.items() if i < d]
        if not lo:
            continue  # degenerate division is exact, nothing to fuzz
        e = min(1 + 0, min(c.val() for i, c in x.coeffs.items() if i < d))
        e = int(e)
        if e <= 0:
            continue
        P_y, P_q, p_x = division_precision_plan(d, e, p_pi, slope)
        Px = PrecisionLattice.flat(slope, p_x, p_pi)
        y = random_exact_poly(rng, Z5, slope, max_deg=p_x - 1)
        q1, r1 = euclid_div(reduce_series(y, P_y), reduce_series(x, Px), p_pi)
        y2 = y + lattice_element(rng, P_y)
        x2 = x + lattice_element(rng, Px)
        q2, r2 = euclid_div(reduce_series(y2, P_y), reduce_series(x2, Px), p_pi)
        flat_r = PrecisionLattice.flat(slope, max(d, 1), p_pi)
        if not reduce_series(r1, flat_r).digits_agree(reduce_series(r2, flat_r)):
            failures += 1
        if not reduce_series(q1, P_q).digits_agree(reduce_series(q2, P_q)):
            failures += 1
    assert failures == 0
