import random
from fractions import Fraction
from math import gcd

import pytest

from slomod.contfrac import (
    Slope,
    best_approx_denominators,
    cf_expand,
    monomial_generators,
)
from slomod.errors import BadDelta, BadGamma

from helpers import (
    divides_monomial,
    even_quotient_sum,
    generator_bound,
    nearest_ops,
    oracle_pos_best_approx,
    oracle_staircase,
)


def test_slope_nu_is_stored_once():
    s = Slope(2, 5)
    assert s.nu == Fraction(2, 5) and s.nu is s.nu


def test_cf_10_7():
    cf = cf_expand(Fraction(10, 7))
    assert cf.quotients == [1, 2, 3]
    assert (cf.p, cf.q) == ([1, 3, 10], [1, 2, 7])


def test_cf_integer():
    assert cf_expand(4).quotients == [4]


def test_cf_2_5():
    cf = cf_expand(Fraction(2, 5))
    assert cf.quotients == [0, 2, 2]
    assert Fraction(cf.p[-1], cf.q[-1]) == Fraction(2, 5)


def test_cf_no_trailing_one():
    # 3/2 = [1; 2], never [1; 1, 1]
    assert cf_expand(Fraction(3, 2)).quotients == [1, 2]


def test_convergent_recurrence_and_coprimality():
    rng = random.Random(2)
    for _ in range(100):
        b = rng.randrange(2, 400)
        a = rng.randrange(1, b)
        cf = cf_expand(Fraction(a, b))
        for k in range(2, len(cf.q)):
            assert cf.p[k] == cf.quotients[k] * cf.p[k - 1] + cf.p[k - 2]
            assert cf.q[k] == cf.quotients[k] * cf.q[k - 1] + cf.q[k - 2]
        assert all(gcd(p, q) == 1 for p, q in zip(cf.p, cf.q))


def test_nearest_ops_example():
    k_min, k_plus, br, brp = nearest_ops(Fraction(9, 10), 2)
    assert (k_min, k_plus) == (2, 1)
    assert br == Fraction(-1, 5)
    assert brp == Fraction(4, 5)


def test_nearest_ops_integral():
    k_min, k_plus, br, brp = nearest_ops(3, 2)
    assert k_min == 6 and br == 0
    assert k_plus == 5 and brp == 1


def test_nearest_ops_window_scan():
    rng = random.Random(6)
    for _ in range(200):
        den = rng.randrange(1, 50)
        num = rng.randrange(-60, 60)
        x = Fraction(num, den)
        b = rng.randrange(1, 12)
        k_min, k_plus, br, brp = nearest_ops(x, b)
        bx = b * x
        lo = int(bx) - 3
        best_abs = min(abs(bx - k) for k in range(lo, lo + 7))
        assert abs(br) == best_abs
        pos = [bx - k for k in range(lo, lo + 7) if bx - k > 0]
        assert brp == min(pos)


def test_best_approx_gamma_equals_b():
    sched = best_approx_denominators(Fraction(2, 5), 5)
    assert sched.values() == [5]


def test_best_approx_2_5():
    sched = best_approx_denominators(Fraction(2, 5), 1)
    assert sched.values() == oracle_pos_best_approx(2, 5, 1)


def test_best_approx_oracle_random():
    rng = random.Random(10)
    for _ in range(150):
        b = rng.randrange(2, 120)
        a = rng.randrange(1, 3 * b)
        if gcd(a, b) != 1:
            continue
        gamma = rng.choice([1, rng.randrange(1, b + 1), b])
        got = best_approx_denominators(Fraction(a, b), gamma).values()
        assert got == oracle_pos_best_approx(a, b, gamma), (a, b, gamma)


def test_best_approx_cardinality_bound():
    rng = random.Random(17)
    for _ in range(200):
        b = rng.randrange(2, 300)
        a = rng.randrange(1, b)
        if gcd(a, b) != 1:
            continue
        cf = cf_expand(Fraction(a, b))
        bound = 2 + even_quotient_sum(cf, cf.n // 2)
        sched = best_approx_denominators(Fraction(a, b), 1)
        assert len(sched.values()) <= bound


def test_bad_gamma():
    with pytest.raises(BadGamma):
        best_approx_denominators(Fraction(2, 5), 6)


def test_bracket_sign_pattern():
    # <x>_{q_j} > 0 for even j, < 0 for odd j
    rng = random.Random(23)
    for _ in range(80):
        b = rng.randrange(2, 200)
        a = rng.randrange(1, b)
        if gcd(a, b) != 1:
            continue
        x = Fraction(a, b)
        cf = cf_expand(x)
        for j, q in enumerate(cf.q[:-1]):
            _, _, br, _ = nearest_ops(x, q)
            if j == 0 and x - int(x) >= Fraction(1, 2):
                continue  # the stated exception: a_0 is not the nearest integer
            if j % 2 == 0:
                assert br > 0
            else:
                assert br < 0


def test_generators_trivial_delta():
    sched = monomial_generators(Slope(2, 5), 0)
    assert sched.pairs() == [(0, 0)]
    sched0 = monomial_generators(Slope(0, 1), 0)
    assert sched0.pairs() == [(0, 0)]
    with pytest.raises(BadDelta):
        monomial_generators(Slope(0, 1), 1)


def test_generators_vs_staircase_2_5():
    slope = Slope(2, 5)
    for delta in range(1, 5):
        got = monomial_generators(slope, delta).pairs()
        assert got == oracle_staircase(slope, delta), delta


def test_generators_vs_staircase_many_slopes():
    for alpha in range(2, 14):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            slope = Slope(beta, alpha)
            for delta in range(alpha):
                got = monomial_generators(slope, delta).pairs()
                assert got == oracle_staircase(slope, delta), (slope, delta)


def test_generator_completeness():
    # every admissible monomial within the window is divisible by a generator
    slope = Slope(3, 7)
    for delta in range(7):
        gens = monomial_generators(slope, delta).pairs()
        for x in range(3 * 7 + 1):
            num = -Fraction(delta, 7) - slope.nu * x
            y = -((-num.numerator) // num.denominator)
            assert any(divides_monomial(slope, g, (x, y)) for g in gens), (delta, x, y)


def test_generator_count_bound():
    for alpha in range(2, 20):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            slope = Slope(beta, alpha)
            for delta in range(alpha):
                sched = monomial_generators(slope, delta)
                assert len(sched.values()) <= generator_bound(slope)


def test_levels_arithmetic_along_subsequences():
    slope = Slope(5, 13)
    for delta in range(1, 13):
        sched = monomial_generators(slope, delta)
        for first, diff, length in sched.sequences:
            if length < 3:
                continue
            lv = [
                Fraction(sched.pi_exponent(first + j * diff)) + slope.nu * (first + j * diff)
                for j in range(length)
            ]
            steps = {lv[j + 1] - lv[j] for j in range(len(lv) - 1)}
            assert len(steps) == 1
