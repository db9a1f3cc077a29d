import random
from fractions import Fraction

import pytest

from slomod import gfq
from slomod.coeffs import INF, CoeffElem, FqConfig, ZpConfig
from slomod.errors import ConfigMismatch, NotDivisible, NotInvertible

from helpers import CoordGF

Z5 = ZpConfig(5)


def c_int(n, prec=INF, cfg=Z5):
    return CoeffElem.from_int(cfg, n, prec=prec)


def test_add_forced_carry():
    # (pi*1 at prec 3) + (pi*4 at prec 3) = pi^2 with relative precision cut by 1
    a = CoeffElem(Z5, 1, 1, 3, (Fraction(1),))
    b = CoeffElem(Z5, 1, 1, 3, (Fraction(4),))
    s = a + b
    assert s.num_val == 2
    assert s.prec == 2
    assert s.unit == (Fraction(1),)
    # 1 + 4 = pi at mixed precision
    s = c_int(1, prec=3) + c_int(4, prec=4)
    assert (s.num_val, s.prec, s.unit) == (1, 2, (Fraction(1),))


def test_add_exact_zero_identity():
    x = c_int(7, prec=4)
    assert x + CoeffElem.exact_zero(Z5) == x
    assert CoeffElem.exact_zero(Z5) + x == x


def test_add_mod_25():
    s = c_int(1, 2) + c_int(5, 2)
    assert s.num_val == 0
    assert s.unit == (Fraction(6),)


def test_mul_ramified_square_root():
    w = CoeffElem(Z5, 2, 1, INF, (Fraction(1), Fraction(0)))
    sq = w * w
    assert sq.ram == 2 and sq.num_val == 2  # w^2 = pi
    assert sq.unit == (Fraction(1), Fraction(0))


def test_mul_identity():
    a = c_int(13, prec=5)
    assert a * c_int(1) == a


def test_mul_mod_25():
    p = c_int(2, 2) * c_int(3, 2)
    assert p.unit == (Fraction(6),) and p.num_val == 0 and p.prec == 2


def test_inv_one():
    assert c_int(1).inv() == c_int(1)


def test_inv_6_mod_125():
    # oracle: 6 * 21 = 126 = 1 mod 125
    inv = c_int(6, 3).inv()
    assert inv.unit == (Fraction(21),)
    assert (inv * c_int(6, 3)).digits_agree(c_int(1, 3))


def test_inv_negates_valuation():
    a = c_int(3, prec=4).scale_pi(2)
    assert a.num_val == 2
    inv = a.inv()
    assert inv.num_val == -2
    assert (a * inv).digits_agree(c_int(1, 4))


def test_config_mismatch():
    with pytest.raises(ConfigMismatch):
        c_int(1) + CoeffElem.from_int(ZpConfig(7), 1)


def test_not_invertible():
    with pytest.raises(NotInvertible):
        CoeffElem.exact_zero(Z5).inv()
    with pytest.raises(NotInvertible):
        CoeffElem.o_term(Z5, 3).inv()


def _random_elem(rng, cfg, ram=1, prec=4):
    q = cfg.p if cfg.kind == "zp" else cfg.q
    v = rng.randrange(-2, 3)
    digits = [cfg.exa_from_int(rng.randrange(1, q))]
    for _ in range(ram - 1):
        digits.append(cfg.exa_from_int(rng.randrange(0, q)))
    e = CoeffElem(cfg, ram, 0, INF, tuple(digits)).reduce_prec(prec * ram)
    return e.scale_w(v)


@pytest.mark.parametrize("cfg,ram", [(Z5, 1), (Z5, 2), (FqConfig(4), 1), (FqConfig(2), 3)])
def test_ring_laws_at_output_precision(cfg, ram):
    rng = random.Random(11)
    for _ in range(40):
        a = _random_elem(rng, cfg, ram)
        b = _random_elem(rng, cfg, ram)
        c = _random_elem(rng, cfg, ram)
        assert ((a + b) + c).digits_agree(a + (b + c))
        assert (a * (b + c)).digits_agree(a * b + a * c)
        assert (a * b).digits_agree(b * a)


def test_inv_involution_and_reduction_degree():
    rng = random.Random(5)
    for cfg, ram in [(Z5, 2), (FqConfig(2), 3)]:
        for _ in range(25):
            a = _random_elem(rng, cfg, ram)
            ia = a.inv()
            assert ia.inv().digits_agree(a)
            # w-reduction: products keep digit vectors of length ram
            assert len((a * a).unit) == ram
            assert (a * ia).digits_agree(CoeffElem.from_int(cfg, 1, ram=ram))


def test_full_cancellation_gives_o_term():
    a = c_int(7, prec=3)
    d = a - a
    assert not d.has_witness()
    assert d.val_lower() == 3
    d = a + c_int(-7, prec=2)
    assert d.unit is None and d.val_lower() == 2
    assert (c_int(7) - c_int(7)).is_exact_zero()


def test_reduce_precision():
    a = c_int(126, prec=5)
    r = a.reduce_prec(2)
    assert r.prec == 2
    assert r.unit == (Fraction(1),)  # 126 mod 25 = 1


@pytest.mark.xfail(raises=AssertionError, strict=True)
def test_reduce_abs_w_below_the_valuation_keeps_only_the_bound():
    # reduce_prec(k <= 0) returns O(w^num_val), not O(w^(num_val + k)): 125
    # capped at absolute precision 1 reads O(pi^3), which claims the digits
    # at pi^1 and pi^2 that the cap dropped, and reduce_levels inherits it
    c = c_int(125).reduce_abs_w(1)
    assert not c.has_witness()
    assert c.abs_w() == 1


@pytest.mark.xfail(raises=AssertionError, strict=True)
def test_render_names_the_uniformizer_of_a_finite_precision_digit():
    # the O-term of a finite-precision digit prints without its uniformizer,
    # 'pi^3 + O(^7)', while a bare O-term prints 'O(pi^7)'; mending it
    # changes report digests
    assert CoeffElem.o_term(Z5, 7).render() == "O(pi^7)"
    assert CoeffElem.from_int(Z5, 125, prec=4).render() == "pi^3 + O(pi^7)"


def _unit_value(rng, cfg):
    """A random exact pi-unit: n/d with p dividing neither, or a rational
    function whose numerator and denominator have nonzero constant terms."""
    if cfg.kind == "zp":
        p = cfg.p
        num = rng.choice([1, -1]) * rng.randrange(1, 200)
        den = rng.randrange(1, 40)
        while num % p == 0:
            num += 1
        while den % p == 0:
            den += 1
        return Fraction(num, den)
    f = cfg.field
    nonzero = list(range(1, f.q))
    num = [rng.choice(nonzero)] + [rng.randrange(f.q) for _ in range(rng.randrange(0, 3))]
    den = [f.one] + [rng.randrange(f.q) for _ in range(rng.randrange(0, 3))]
    return gfq.RatFunc(f, tuple(num), tuple(den))


def _ram1_elements(rng, cfg):
    """Exact zero, O-terms and units times pi^v, v in [-3, 3], exact or at
    relative precision 1..4."""
    out = [CoeffElem.exact_zero(cfg)]
    out += [CoeffElem.o_term(cfg, v) for v in (-2, 0, 3)]
    for v in range(-3, 4):
        for prec in (INF, 1, 2, 3, 4):
            out.append(CoeffElem.from_exact(cfg, _unit_value(rng, cfg), prec=prec).scale_pi(v))
    return out


@pytest.mark.parametrize("cfg", [ZpConfig(3), Z5, FqConfig(2), FqConfig(4)], ids=repr)
def test_ram1_shortcut_matches_ramified_path(cfg):
    # The ram = 1 add/mul shortcut against the generic ram = 2 digit-vector
    # path, compared structurally after lifting.
    rng = random.Random(1212)
    elems = _ram1_elements(rng, cfg)
    pairs = [(a, b) for a in elems for b in elems if rng.random() < 0.3]
    for a in elems:
        pairs.append((a, -a))  # cancels to an O-term or exact zero
    pairs.append((CoeffElem.from_int(cfg, 1, prec=3), CoeffElem.from_int(cfg, -1, prec=2)))
    if cfg.kind == "zp":
        # sums that raise the valuation: 1 + (p - 1) = p, 1 + (p^2 - 1) = p^2
        p = cfg.p
        pairs.append((CoeffElem.from_int(cfg, 1, prec=3), CoeffElem.from_int(cfg, p - 1, prec=4)))
        pairs.append((CoeffElem.from_int(cfg, 1), CoeffElem.from_int(cfg, p * p - 1)))
    for a, b in pairs:
        a2, b2 = a.with_ram(2), b.with_ram(2)
        assert (a + b).with_ram(2) == a2 + b2, (a, b)
        assert (a - b).with_ram(2) == a2 - b2, (a, b)
        assert (a * b).with_ram(2) == a2 * b2, (a, b)
        assert (-a).with_ram(2) == -a2, a


@pytest.mark.parametrize("cfg", [Z5, FqConfig(4)], ids=repr)
def test_exa_shift_pi(cfg):
    rng = random.Random(7)
    a = _unit_value(rng, cfg)
    assert cfg.exa_shift_pi(a, 0) == a
    for j in (-3, -1, 1, 2):
        s = cfg.exa_shift_pi(a, j)
        assert cfg.exa_pi_val(s) == j
        assert cfg.exa_shift_pi(s, -j) == a
    if cfg.kind == "zp":
        assert cfg.exa_shift_pi(Fraction(3, 2), 2) == Fraction(75, 2)
        assert cfg.exa_shift_pi(Fraction(3, 2), -1) == Fraction(3, 10)
    else:
        pi = cfg.exa_shift_pi(cfg.exa_one(), 1)
        assert cfg.exa_shift_pi(a, 2) == a * pi * pi
        assert cfg.exa_shift_pi(a, -1) == a * cfg.exa_inv(pi)


def test_pshift_negative_needs_divisibility():
    f = gfq.GF(4)
    t2 = (f.zero, f.zero, f.one)
    assert gfq.pshift(t2, -2) == (f.one,)
    with pytest.raises(NotDivisible):
        gfq.pshift((f.one, f.one), -1)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25, 27])
def test_gf_tables_match_coordinate_oracle(q):
    # every element pair, against the schoolbook coordinate product
    f, o = gfq.GF(q), CoordGF(q)
    enc = o.to_int
    assert sorted(enc(a) for a in o.elements) == list(range(q))
    for a in o.elements:
        x = enc(a)
        assert f.elem_str(x) == o.elem_str(a), a
        assert f.neg(x) == enc(o.neg(a)), a
        if any(a):
            assert f.inv(x) == enc(o.inv(a)), a
        for b in o.elements:
            y = enc(b)
            assert f.add(x, y) == enc(o.add(a, b)), (a, b)
            assert f.mul(x, y) == enc(o.mul(a, b)), (a, b)
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)


def test_gf_elem_str_golden():
    # coordinates of 1, x, x^2 after "g", for elements outside the prime field
    f4, f8, f9, f25, f27 = (gfq.GF(q) for q in (4, 8, 9, 25, 27))
    x = 2  # x in GF(2^m)
    assert f4.elem_str(x) == "g01"
    assert f4.elem_str(f4.mul(x, x)) == "g11"
    assert f8.elem_str(f8.mul(x, f8.mul(x, x))) == "g101"
    assert f8.elem_str(f8.inv(x)) == "g011"
    assert f8.elem_str(f8.inv(f8.add(x, 1))) == "g001"
    x = 3  # x in GF(3^m)
    assert f9.elem_str(8) == "g22"
    assert f9.elem_str(f9.mul(x, x)) == "g20"
    assert f9.elem_str(f9.inv(x)) == "g02"
    assert f9.elem_str(f9.inv(f9.add(x, 1))) == "g21"
    assert f27.elem_str(f27.mul(x, f27.mul(x, x))) == "g201"
    assert f27.elem_str(f27.inv(x)) == "g012"
    assert f27.elem_str(f27.inv(f27.add(x, 1))) == "g211"
    assert f27.elem_str(f27.neg(x)) == "g020"
    x = 5  # x in GF(25)
    assert f25.elem_str(f25.mul(x, x)) == "g44"
    assert f25.elem_str(f25.neg(x)) == "g04"
    assert f25.elem_str(f25.inv(f25.add(x, 1))) == "g04"


@pytest.mark.parametrize("q", [2, 4, 9])
def test_ratfunc_shift_and_neg_match_construction(q):
    # the sliced shift and the gcd-free negation against a RatFunc built
    # (and reduced) from scratch, with t-powers on either side
    f = gfq.GF(q)
    rng = random.Random(q)
    for _ in range(60):
        num = (0,) * rng.randrange(0, 3) + tuple(rng.randrange(f.q) for _ in range(rng.randrange(0, 4)))
        den = (0,) * rng.randrange(0, 3) + (rng.randrange(1, q),)
        den += tuple(rng.randrange(f.q) for _ in range(rng.randrange(0, 3)))
        a = gfq.RatFunc(f, num, den)
        assert -a == gfq.RatFunc(f, gfq.pneg(f, a.num), a.den)
        assert (a + -a).is_zero()
        for k in range(-4, 5):
            if k >= 0:
                want = gfq.RatFunc(f, (0,) * k + a.num, a.den)
            else:
                want = gfq.RatFunc(f, a.num, (0,) * -k + a.den)
            assert a.shift(k) == want, (a, k)


@pytest.mark.parametrize("cfg", [Z5, FqConfig(4)], ids=repr)
def test_exa_dot_matches_mul_add_fold(cfg):
    rng = random.Random(11)
    for n in range(6):
        terms = [(_unit_value(rng, cfg), _unit_value(rng, cfg), rng.randrange(0, 4)) for _ in range(n)]
        want = cfg.exa_zero()
        for x, y, e in terms:
            want = want + cfg.exa_shift_pi(x * y, e)
        assert cfg.exa_dot(terms) == want
    x = _unit_value(rng, cfg)
    assert cfg.exa_is_zero(cfg.exa_dot([(x, cfg.exa_one(), 1), (-x, cfg.exa_one(), 1)]))
