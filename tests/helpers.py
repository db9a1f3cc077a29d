"""Shared builders and independent brute-force oracles for the test suite."""

import itertools
import random
from fractions import Fraction

from slomod import gfq
from slomod.coeffs import INF, CoeffElem, FqConfig, ZpConfig, _align, _isinf, _normalize, sum_products
from slomod.contfrac import Slope, cf_expand
from slomod.errors import BadParameters, NotDistinguishedCertificate, PrecisionExhausted, SlopeMismatch
from slomod.localized import SMat, _u_divider, _u_entry_val, _u_window, _valuation_index, hnf_u
from slomod.maxmod import MLModule
from slomod.pairrep import _e_membership
from slomod.precision import PrecisionLattice, _frac
from slomod.series import SnuSeries, _ceil, _newton_refine, euclid_div_full

Z3 = ZpConfig(3, 20)
Z5 = ZpConfig(5, 20)
Z7 = ZpConfig(7, 20)
F2 = FqConfig(2, 20)
NU0 = Slope(0, 1)


def poly(cfg, slope, terms, prec=INF):
    """Series from (exponent, integer) pairs; exact by default."""
    return SnuSeries.from_int_terms(cfg, slope, terms, prec=prec)


def mono(cfg, slope, uexp, piexp=0, c=1, ram=1):
    coeff = CoeffElem.from_int(cfg, c, ram=ram).scale_pi(piexp)
    return SnuSeries.monomial(cfg, slope, uexp, coeff)


def series_is_zeroish(x) -> bool:
    """No certain nonzero digit."""
    return all(not c.has_witness() for c in x.coeffs.values())


def assert_zero_at_precision(x, min_level=None):
    for i, c in x.coeffs.items():
        assert not c.has_witness(), f"nonzero digit at u^{i}: {c!r}"
        if min_level is not None:
            assert c.val_lower() + x.nu * i >= min_level


def mats_agree(A, B) -> bool:
    if A.rows != B.rows or A.cols != B.cols:
        return False
    return all(
        A.a[i][j].digits_agree(B.a[i][j])
        for i in range(A.rows)
        for j in range(A.cols)
    )


def _unit_range(cfg):
    return cfg.p if cfg.kind == "zp" else cfg.q


def random_exact_poly(rng, cfg, slope, max_deg=3, max_pi=3):
    """Random nonzero exact polynomial inside the slope ring."""
    while True:
        coeffs = {}
        for i in range(max_deg + 1):
            if rng.random() < 0.55:
                continue
            vmin = -int(slope.nu * i)  # -floor(nu i): level floor 0
            v = max(rng.randrange(0, max_pi + 1) - 1, vmin)
            c = rng.randrange(1, _unit_range(cfg))
            coeffs[i] = CoeffElem.from_int(cfg, c).scale_pi(v)
        if coeffs:
            return SnuSeries(cfg, slope, coeffs)


def square_draw(cfg, slope, size):
    """ROADMAP item 13's square input of one size: ``Random(5)``, entries of
    ``random_exact_poly`` with ``max_deg=1`` and ``max_pi=1``, row by row."""
    rng = random.Random(5)
    return SMat(cfg, slope, [[random_exact_poly(rng, cfg, slope, max_deg=1, max_pi=1) for _ in range(size)]
                             for _ in range(size)])


def random_unit(rng, cfg, slope, max_deg=4):
    """Random exact series unit: v_nu = 0 attained first at exponent 0."""
    coeffs = {0: CoeffElem.from_int(cfg, rng.randrange(1, _unit_range(cfg)))}
    for i in range(1, max_deg + 1):
        if rng.random() < 0.5:
            continue
        vmin = -int(slope.nu * i)
        v = max(rng.randrange(0, 3), vmin)
        if v + slope.nu * i == 0:
            v += 1  # keep the degree anchored at 0
        c = rng.randrange(1, _unit_range(cfg))
        coeffs[i] = CoeffElem.from_int(cfg, c).scale_pi(v)
    return SnuSeries(cfg, slope, coeffs)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def det_cofactor(M):
    """Determinant by cofactor expansion along the first row (factorial
    time: small matrices only)."""
    n = M.rows
    assert M.cols == n
    if n == 0:
        return SnuSeries.one(M.cfg, M.slope, M.ram)
    if n == 1:
        return M.a[0][0]
    acc = SnuSeries.zero(M.cfg, M.slope, M.ram)
    for j in range(n):
        e = M.a[0][j]
        if e.is_exact_zero():
            continue
        minor = SMat(M.cfg, M.slope, [[M.a[i][c] for c in range(n) if c != j] for i in range(1, n)], M.ram)
        term = e * det_cofactor(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def coeff_mul_fold(a, b):
    """CoeffElem product by the digit-vector convolution, folded with
    w^ram = pi and normalised once."""
    a, b = _align(a, b)
    cfg, ram = a.cfg, a.ram
    if a.zero or b.zero:
        return CoeffElem.exact_zero(cfg, ram)
    out_abs = min(a.num_val + b.abs_w(), b.num_val + a.abs_w())
    if a.unit is None or b.unit is None:
        return CoeffElem.o_term(cfg, out_abs, ram)
    prod = [cfg.exa_zero()] * (2 * ram - 1)
    for i, x in enumerate(a.unit):
        for j, y in enumerate(b.unit):
            prod[i + j] = prod[i + j] + x * y
    return _normalize(cfg, ram, a.num_val + b.num_val, prod, out_abs)


def add_fold(a, b):
    """CoeffElem sum by the digit vectors of both lifted to the common base
    w^min(v_a, v_b), added, folded with w^ram = pi and normalised once at
    min(abs_a, abs_b): the ram > 1 path of ``CoeffElem.__add__`` before the
    sum went through ``sum_products``, here used at every ram."""
    a, b = _align(a, b)
    if a.zero:
        return b
    if b.zero:
        return a
    cfg, ram = a.cfg, a.ram
    base = min(a.num_val, b.num_val)
    digits = [cfg.exa_zero()] * (ram + max(a.num_val, b.num_val) - base)
    for x in (a, b):
        for i, d in enumerate(x.unit or ()):
            digits[x.num_val - base + i] = digits[x.num_val - base + i] + d
    return _normalize(cfg, ram, base, digits, min(a.abs_w(), b.abs_w()))


def mul_fold(x, y):
    """x*y by the per-pair fold coeffs[k] + ca*cb: every partial sum of every
    output digit is a normalised CoeffElem."""
    a, b, up = _product_frame(x, y)
    coeffs = {}
    for i, ca in a.coeffs.items():
        for j, cb in b.coeffs.items():
            k = i + j
            if k >= up:
                continue
            prod = coeff_mul_fold(ca, cb)
            coeffs[k] = coeffs[k] + prod if k in coeffs else prod
    return _product_series(a, b, up, coeffs)


def series_strict(s):
    """Everything a series is: ram, u_prec, tail bound (with its type) and
    every digit in key order, its field values and their types."""
    digits = [
        (k, c.zero, c.num_val, c.prec, c.unit, None if c.unit is None else [type(d) for d in c.unit])
        for k, c in s.coeffs.items()
    ]
    return s.ram, s.u_prec, type(s.tail_bound), s.tail_bound, digits


def sum_products_exa_dot(cfg, ram, pairs, lone=()):
    """``sum_products`` by the generic body: the exact digits of every
    product and lone summand are summed per w-residue by the backend's
    ``exa_dot`` and normalised once by ``_normalize``.  This was the Z_p
    path at ram > 1 before the integer kernel, and is kept as its oracle."""
    abs_w = base = INF
    terms = [[] for _ in range(ram)]
    for x in lone:
        x = x.with_ram(ram)
        if x.zero:
            continue
        abs_w = min(abs_w, x.num_val + x.prec)
        if x.unit is None:
            continue
        base = min(base, x.num_val // ram)
        for i, d in enumerate(x.unit):
            if not cfg.exa_is_zero(d):
                s = x.num_val + i
                terms[s % ram].append((d, None, s // ram))
    for a, b in pairs:
        a, b = a.with_ram(ram), b.with_ram(ram)
        if a.zero or b.zero:
            continue
        v = a.num_val + b.num_val
        abs_w = min(abs_w, v + min(a.prec, b.prec))
        if a.unit is None or b.unit is None:
            continue
        base = min(base, v // ram)
        for i, x in enumerate(a.unit):
            for j, y in enumerate(b.unit):
                if not (cfg.exa_is_zero(x) or cfg.exa_is_zero(y)):
                    s = v + i + j
                    terms[s % ram].append((x, y, s // ram))
    if _isinf(base):
        return CoeffElem.exact_zero(cfg, ram) if _isinf(abs_w) else CoeffElem.o_term(cfg, abs_w, ram)
    digits = [cfg.exa_dot((x, y, e - base) for x, y, e in t) for t in terms]
    return _normalize(cfg, ram, base * ram, digits, abs_w)


def _digit_sum(ram):
    """The per-digit sum of the product oracles: ``sum_products`` at ram 1,
    which the Kronecker kernel is checked against, and the generic body at
    ram > 1, so that no oracle runs through the integer kernel there."""
    return sum_products if ram == 1 else sum_products_exa_dot


def mul_per_digit(x, y):
    """x*y with one ``sum_products`` per output exponent over the sparser
    factor, keys in first-seen order: the product loop before the Kronecker
    kernel, kept as its oracle."""
    a, b, up = _product_frame(x, y)
    total = _digit_sum(a.ram)
    sa, sb = (a.coeffs, b.coeffs) if len(a.coeffs) <= len(b.coeffs) else (b.coeffs, a.coeffs)
    coeffs = {
        k: total(a.cfg, a.ram, ((c, sb[k - i]) for i, c in sa.items() if k - i in sb))
        for k in dict.fromkeys(i + j for i in a.coeffs for j in b.coeffs)
        if k < up
    }
    return _product_series(a, b, up, coeffs)


def series_product_per_digit(cfg, ram, a, b, up, acc, sign):
    """``coeffs.series_product`` by the per-digit loop it took for GF(q)
    and for ram > 1 before the Kronecker kernel: one sum per product
    exponent over the sparser factor (negated for sign -1), with acc's
    digit as its lone summand."""
    total = _digit_sum(ram)
    ca, cb = a.coeffs, b.coeffs
    out = dict(acc)
    sa, sb = (ca, cb) if len(ca) <= len(cb) else (cb, ca)
    if sign < 0:
        sa = {i: -x for i, x in sa.items()}
    for k in dict.fromkeys(i + j for i in ca for j in cb):
        if k >= up:
            continue
        c = total(cfg, ram, ((x, sb[k - i]) for i, x in sa.items() if k - i in sb), (out[k],) if k in out else ())
        if c.zero:
            out.pop(k, None)
        else:
            out[k] = c
    return out


def _product_frame(x, y):
    """Both factors at the common ram, and the first exponent an unknown
    tail can reach, as in ``SnuSeries.__mul__``."""
    a, b = x, y
    if a.ram != b.ram:
        r = max(a.ram, b.ram)
        a, b = a.with_ram(r), b.with_ram(r)
    lo_a = min(a.coeffs, default=a.u_prec)
    lo_b = min(b.coeffs, default=b.u_prec)
    return a, b, min(a.u_prec + lo_b, b.u_prec + lo_a)


def _product_series(a, b, up, coeffs):
    tb = None
    if not _isinf(up):
        tb = min(a.tail_bound + b.lower_bound(), a.lower_bound() + b.tail_bound)
    return SnuSeries(a.cfg, a.slope, coeffs, up, tb, ram=a.ram)


def fraction_level(x, i, c):
    """The level v(c) + nu*i of a digit as a Fraction, as the level readers
    computed it before integer keys."""
    return c.val_lower() + x.nu * i


def fraction_levels(x, p):
    """The level readings of x by the Fraction formula, each an outcome
    ("ok", value) or ("raise", error class): lower_bound, visible_valuation,
    visible_degree, certified_val_deg, certified_valuation, the tail bound
    of truncate_u(p) and the level-zero witness exponents."""

    def outcome(fn):
        try:
            return ("ok", fn())
        except Exception as e:  # noqa: BLE001 - the class is the outcome
            return ("raise", type(e))

    def lower_bound():
        lb = x.tail_bound
        for i, c in x.coeffs.items():
            lb = min(lb, fraction_level(x, i, c))
        return lb

    def visible():
        best, arg = INF, -INF
        for i in sorted(x.coeffs):
            c = x.coeffs[i]
            if c.has_witness() and fraction_level(x, i, c) < best:
                best, arg = fraction_level(x, i, c), i
        return best, arg

    def certified_val_deg():
        v, d = visible()
        if _isinf(v):
            if x.is_exact_zero():
                raise NotDistinguishedCertificate
            raise PrecisionExhausted
        if x.tail_bound < v:
            raise PrecisionExhausted
        for i, c in x.coeffs.items():
            lb = fraction_level(x, i, c)
            if not c.has_witness() and (lb < v or (lb == v and i < d)):
                raise PrecisionExhausted
        return v, d

    def certified_valuation():
        v, _ = visible()
        if _isinf(v):
            if x.is_exact_zero():
                return INF
            raise PrecisionExhausted
        if x.tail_bound < v:
            raise PrecisionExhausted
        for i, c in x.coeffs.items():
            if not c.has_witness() and fraction_level(x, i, c) < v:
                raise PrecisionExhausted
        return v

    def truncated_tail():
        if p >= x.u_prec:
            return x.tail_bound
        tb = x.tail_bound
        for i, c in x.coeffs.items():
            if i >= p:
                tb = min(tb, fraction_level(x, i, c))
        return tb

    return [
        outcome(lower_bound),
        outcome(lambda: visible()[0]),
        outcome(lambda: visible()[1]),
        outcome(certified_val_deg),
        outcome(certified_valuation),
        outcome(truncated_tail),
        outcome(lambda: sorted(i for i, c in x.coeffs.items()
                               if c.has_witness() and fraction_level(x, i, c) == 0)),
    ]


def divide_fold(z, x, u_prec):
    """divide_by_unit by the sequential recurrence acc = z_j; acc -= x_i *
    b_{j-i}; b_j = acc * a_0^-1 (valid inputs only: no checks), each step
    by the fold oracles ``add_fold`` and ``coeff_mul_fold``."""
    vx, _ = x.certified_val_deg()
    lz = z.lower_bound()
    a0_inv = x.coeff(0).inv()
    xs = sorted(i for i in x.coeffs if i > 0)
    if not xs and z.is_polynomial():
        return z.map_coeffs(lambda i, c: coeff_mul_fold(c, a0_inv))
    cap = min(u_prec, z.u_prec, x.u_prec)
    if _isinf(cap):
        cap = z.u_prec
    b = {}
    for j in range(cap):
        acc = z.coeff(j)
        for i in xs:
            if i > j:
                break
            if (j - i) in b:
                acc = add_fold(acc, -coeff_mul_fold(x.coeffs[i], b[j - i]))
        bj = coeff_mul_fold(acc, a0_inv)
        if not bj.is_exact_zero():
            b[j] = bj
    return SnuSeries(z.cfg, z.slope, b, cap, lz - vx, ram=max(z.ram, x.ram))


def smith_saturation(M, n_level):
    """The saturation of the column span of M over the u-localization DVR
    by a Smith form: rows and columns are swapped to put the entry of least
    valuation of the lower-right block at (k, k), its column below and its
    row right of it are cleared, and each row operation is mirrored on
    U_inv.  The first ``rank`` columns of U_inv span the saturation."""
    hi_window = _u_window([e for r in M.a for e in r], n_level, M.slope)
    D = M.copy()
    U_inv = SMat.identity(M.cfg, M.slope, M.rows, M.ram)
    k = 0
    while k < min(D.rows, D.cols):
        best = None
        for i in range(k, D.rows):
            for j in range(k, D.cols):
                v = _u_entry_val(D.a[i][j], n_level)
                if v is not None and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        v, i, j = best
        _valuation_index(v, D.slope)  # BadParameters off the 1/alpha grid
        if i != k:
            D.a[i], D.a[k] = D.a[k], D.a[i]
            U_inv.swap_cols(i, k)
        D.swap_cols(j, k)
        piv = D.a[k][k]
        divide = None  # division by the pivot, made at its first use
        for r in range(k + 1, D.rows):
            if _u_entry_val(D.a[r][k], n_level) is not None:
                divide = divide or _u_divider(piv, n_level, hi_window)
                q = divide(D.a[r][k])
                for c in range(D.cols):
                    D.a[r][c] = D.a[r][c].addmul(-1, q, D.a[k][c])
                D.a[r][k] = SnuSeries.zero(D.cfg, D.slope, D.ram)
                U_inv.addmul_col(k, r, q)
        for c in range(k + 1, D.cols):
            if _u_entry_val(D.a[k][c], n_level) is not None:
                divide = divide or _u_divider(piv, n_level, hi_window)
                q = divide(D.a[k][c])
                for r in range(D.rows):
                    D.a[r][c] = D.a[r][c].addmul(-1, q, D.a[r][k])
                D.a[k][c] = SnuSeries.zero(D.cfg, D.slope, D.ram)
        k += 1
    return SMat.from_columns(M.cfg, M.slope, M.rows, [U_inv.col(j) for j in range(k)], M.ram)


def verify_image_condition_hnf(P, prec) -> bool:
    """``pairrep.verify_image_condition`` with a fresh u-side Hermite form
    of each component, B's included, instead of the echelon the pair
    states for B: rank equality plus cross membership of every generator."""
    if P.A.cols != P.B.cols:
        return False
    for X, Y in ((P.A, P.B), (P.B, P.A)):
        if X.cols:
            ech = hnf_u(Y, prec)
            if not all(_e_membership(X.col(j), Y, ech, prec) for j in range(X.cols)):
                return False
    return True


def geometric_u_invert_unit(w, n_level, hi_window):
    """``localized.u_invert_unit`` with the start it had before the
    ``divide_by_unit`` recurrence: the inverse of w's level-0 part as the
    geometric series sum (-t)^k, t = (level-0 part)/(first digit) - 1, of
    (hi_window - min t)/alpha + 2 steps, then the same Newton refinement."""
    alpha = w.slope.alpha
    lvl0 = {i: c for i, c in w.coeffs.items() if c.has_witness() and w.level_key(i, c) == 0}
    if not lvl0:
        raise PrecisionExhausted("unit has no certain level-zero digit")
    i0 = min(lvl0)
    base = SnuSeries.monomial(w.cfg, w.slope, -i0, lvl0[i0].inv())
    lvl0_s = SnuSeries(w.cfg, w.slope, lvl0, ram=w.ram)
    t = ((lvl0_s * base) - SnuSeries.one(w.cfg, w.slope, w.ram)).truncate_u(hi_window)
    acc = SnuSeries.one(w.cfg, w.slope, w.ram)
    pw = SnuSeries.one(w.cfg, w.slope, w.ram)
    steps = max(1, (hi_window - min(t.coeffs, default=hi_window)) // alpha + 2) if t.coeffs else 1
    for _ in range(steps):
        if not pw.coeffs:
            break
        pw = (-(pw * t)).truncate_u(hi_window)
        acc = acc + pw
    y = (acc * base).truncate_u(hi_window)
    budget = 2 * (_ceil(Fraction(n_level) * alpha).bit_length() + 3)
    return _newton_refine(w.truncate_u(hi_window), y, n_level, hi_window, budget)


def weierstrass_monic_exact(g, prec):
    """``localized._weierstrass_monic`` run on the exact pivot: the Euclidean
    division of pi^s u^d by g itself, every digit exact until the remainder
    is cut at level P = prec + max(0, s) + 1."""
    vg, d = g.certified_val_deg()
    s = _ceil(vg - g.nu * d)
    m = SnuSeries.monomial(g.cfg, g.slope, d, CoeffElem.from_int(g.cfg, 1, ram=g.ram).scale_pi(s))
    res = euclid_div_full(m, g, prec + max(0, s) + 1)
    return (m - res.r).scale_pi(-s)


def poly_divmod_series(y, x):
    """``series.poly_divmod`` as a loop on series: each step subtracts one
    quotient monomial times x with ``addmul`` and drops the O-term the
    exactly cancelling top digit leaves."""
    x._check_compat(y)
    dx = x.max_deg()
    lead_inv = x.coeffs[dx].inv()
    q = SnuSeries.zero(y.cfg, y.slope, ram=max(x.ram, y.ram))
    r = y
    while True:
        dr = r.max_deg()
        if dr is None or dr < dx:
            return q, r
        c = r.coeffs[dr] * lead_inv
        term = SnuSeries.monomial(y.cfg, y.slope, dr - dx, c)
        q = q + term
        r = r.addmul(-1, term, x)
        if r.max_deg() is not None and r.max_deg() >= dr:
            r = SnuSeries(r.cfg, r.slope, {i: cc for i, cc in r.coeffs.items() if i < dr}, INF, ram=r.ram)


def gcd_extended_series(x, y):
    """``series.gcd_extended`` as a loop on series: each Euclidean step is
    one ``poly_divmod_series`` and two ``addmul`` updates of the cofactor
    rows."""
    x._check_compat(y)
    if not (x.is_exact() and y.is_exact()):
        raise AssertionError("exact operands only")
    cfg, slope = x.cfg, x.slope
    ram = max(x.ram, y.ram)
    zero_s = SnuSeries.zero(cfg, slope, ram)
    one_s = SnuSeries.one(cfg, slope, ram)

    if y.is_exact_zero() and x.is_exact_zero():
        return zero_s, one_s, zero_s, zero_s, one_s
    if y.is_exact_zero():
        return x, one_s, zero_s, zero_s, one_s
    if x.is_exact_zero():
        return y, zero_s, one_s, -one_s, zero_s

    def key(s):
        v, d = s.certified_val_deg()
        return (d, v)

    swapped = False
    a, b = x, y
    if key(b) < key(a):
        a, b = b, a
        swapped = True
    # rows: (r, s, t) with r = s*x0 + t*y0 in the (a, b) frame; each step
    # swaps the rows of [[s0, t0], [s1, t1]], so its determinant is
    # (-1)^steps
    r0, s0, t0 = a, one_s, zero_s
    r1, s1, t1 = b, zero_s, one_s
    steps = 0
    while not r1.is_exact_zero():
        qq, rr = poly_divmod_series(r0, r1)
        r0, s0, t0, r1, s1, t1 = (
            r1,
            s1,
            t1,
            rr,
            s0.addmul(-1, qq, s1),
            t0.addmul(-1, qq, t1),
        )
        steps += 1
    lead = r0.coeffs[r0.max_deg()]
    c = lead.inv()
    g = r0.scale_coeff(c)
    k, l = s0.scale_coeff(c), t0.scale_coeff(c)
    # k*t1 - l*s1 = (-1)^steps * c, and swapping back to the (x, y) frame
    # flips its sign once more: scaling (s1, t1) by the inverse makes the
    # determinant exactly 1
    fix = -lead if (steps + swapped) % 2 else lead
    m, n = s1.scale_coeff(fix), t1.scale_coeff(fix)
    if swapped:
        return g, l, k, n, m
    return g, k, l, m, n


def zp_stored_value(x):
    """The exact Fraction a ram-1 Z_p element stores: unit * p^num_val, 0
    for an exact zero or an O-term."""
    if x.zero or x.unit is None:
        return Fraction(0)
    return x.unit[0] * Fraction(x.cfg.p) ** x.num_val


def zp_element(cfg, value, abs_w):
    """The ram-1 Z_p element of the exact Fraction value known modulo
    p^abs_w (INF: exact), from the definition: the valuation of value, its
    unit part reduced mod p^(abs_w - val), an O-term when val >= abs_w.  The
    unit is a Fraction when exact and an int residue otherwise."""
    p = cfg.p
    if value == 0:
        return CoeffElem.exact_zero(cfg) if _isinf(abs_w) else CoeffElem.o_term(cfg, abs_w)
    val, num, den = 0, value.numerator, value.denominator
    while num % p == 0:
        num, val = num // p, val + 1
    while den % p == 0:
        den, val = den // p, val - 1
    if _isinf(abs_w):
        return CoeffElem(cfg, 1, val, INF, (Fraction(num, den),))
    if val >= abs_w:
        return CoeffElem.o_term(cfg, abs_w)
    m = p ** (abs_w - val)
    return CoeffElem(cfg, 1, val, abs_w - val, (num * pow(den, -1, m) % m,))


def zp_product_oracle(a, b):
    """a*b over ram-1 Z_p: the exact Fraction product of the stored values,
    known to v_a + v_b + min(prec_a, prec_b)."""
    if a.zero or b.zero:
        return CoeffElem.exact_zero(a.cfg)
    abs_w = a.num_val + b.num_val + min(a.prec, b.prec)
    return zp_element(a.cfg, zp_stored_value(a) * zp_stored_value(b), abs_w)


def zp_sum_oracle(cfg, pairs, lone=None):
    """lone + sum a*b over ram-1 Z_p elements: the exact sum of the stored
    values at the lowest absolute precision of a term (v_a + v_b +
    min(prec_a, prec_b) for a product, v + prec for lone)."""
    value, abs_w = Fraction(0), INF
    for a, b in pairs:
        if a.zero or b.zero:
            continue
        abs_w = min(abs_w, a.num_val + b.num_val + min(a.prec, b.prec))
        value += zp_stored_value(a) * zp_stored_value(b)
    if lone is not None and not lone.zero:
        abs_w = min(abs_w, lone.num_val + lone.prec)
        value += zp_stored_value(lone)
    return zp_element(cfg, value, abs_w)


def assert_relations_hold(trace):
    """M.R has no certain digit in any (M, R) snapshot of a
    ``matrix_reduction`` trace."""
    for step, (M, R) in enumerate(trace):
        prod = M.matmul(R)
        assert not any(e.has_certain_digit() for row in prod.a for e in row), f"M.R != 0 at snapshot {step}"


def nearest_ops(x, b: int):
    """(min(x,b), min+(x,b), <x>_b, <x>+_b) for rational x and b >= 1.

    min(x,b) minimizes |b*x - k| over integers k (ties broken toward the
    smaller k); min+(x,b) minimizes b*x - k among k with b*x - k > 0.  The
    brackets are the corresponding residues b*x - k.
    """
    if b < 1:
        raise ValueError("b must be a positive integer")
    bx = Fraction(x) * b
    fl = bx.numerator // bx.denominator
    if bx == fl:
        k_min = fl
        k_plus = fl - 1
    else:
        lo, hi = fl, fl + 1
        if bx - lo < hi - bx:
            k_min = lo
        elif hi - bx < bx - lo:
            k_min = hi
        else:
            k_min = lo  # exact tie: smaller k
        k_plus = fl
    return k_min, k_plus, bx - k_min, bx - k_plus


def visible_degree(x):
    """Smallest stored exponent attaining the Gauss valuation of the
    truncated representative x; -inf when x has no certain nonzero digit."""
    m = x._visible_min()
    return -INF if m is None else m[1]


def oracle_pos_best_approx(a, b, gamma):
    """Denominators q in [gamma, b] passing the defining inequality against
    every smaller admissible denominator, plus the b endpoint (the descent
    always keeps the full denominator).  Residues scaled by b stay integral."""
    out = []
    res = {}
    for q in range(gamma, b + 1):
        r = (q * a) % b
        if r == 0:
            r = b
        res[q] = r
    for q in range(gamma, b + 1):
        if q == b or all(res[d] > res[q] for d in range(gamma, q)):
            out.append(q)
    if b not in out:
        out.append(b)
    return out


def oracle_staircase(slope: Slope, delta: int):
    """Minimal monomial staircase of { x : v_nu(x) >= -delta/alpha } by a
    direct scan of the defining conditions."""
    alpha, beta = slope.alpha, slope.beta
    pairs = []
    prev_level = None
    x = 0
    limit = 2 * alpha + 2
    while x <= limit:
        # minimal y with y + x*nu >= -delta/alpha
        num = -Fraction(delta, alpha) - Fraction(beta, alpha) * x
        y = -((-num.numerator) // num.denominator)
        level = y + Fraction(beta, alpha) * x
        if prev_level is None or level < prev_level:
            pairs.append((x, y))
            prev_level = level
            if level == -Fraction(delta, alpha):
                break
        x += 1
    return pairs


def divides_monomial(slope: Slope, gen, pt) -> bool:
    """pi^gy u^gx divides pi^y u^x in the slope ring."""
    gx, gy = gen
    x, y = pt
    if x < gx:
        return False
    return Fraction(y - gy) + slope.nu * (x - gx) >= 0


class CoordGF:
    """GF(p^m), m <= 3, with elements as length-m coordinate tuples over F_p
    in the power basis of the modulus: the first monic x^m + c_{m-1} x^(m-1)
    + ... + c_0 without a root in F_p (irreducible, as m <= 3) in
    lexicographic order of (c_0, ..., c_{m-1}); x itself when m = 1.  The
    product is the schoolbook one, reduced by the modulus: an oracle for
    the table arithmetic of ``gfq.GF``."""

    def __init__(self, q):
        p, m = gfq.factor_prime_power(q)
        assert m <= 3, "the root test decides irreducibility only up to degree 3"
        self.p, self.m = p, m
        self.one = (1,) + (0,) * (m - 1)
        self.elements = list(itertools.product(range(p), repeat=m))
        self.modulus = next(
            tail + (1,)
            for tail in self.elements
            if m == 1 or all(sum(c * r**i for i, c in enumerate(tail + (1,))) % p for r in range(p))
        )

    def to_int(self, a) -> int:
        """The ``gfq`` encoding: coordinates as base-p digits."""
        return sum(c * self.p**i for i, c in enumerate(a))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(len(prod) - 1, m - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(m):
                    prod[k - m + i] = (prod[k - m + i] - c * self.modulus[i]) % p
        return tuple(prod[:m])

    def inv(self, a):
        return next(b for b in self.elements if self.mul(a, b) == self.one)

    def elem_str(self, a) -> str:
        if self.m == 1:
            return str(a[0])
        if not any(a):
            return "0"
        if a == self.one:
            return "1"
        return "g" + "".join(str(x) for x in a)

    # -- schoolbook polynomials: an oracle for the ``gfq`` kernels --------
    # Arguments and results are polynomials in the ``gfq`` form: little-endian
    # sequences of encoded ints.  Results are trimmed tuples.

    def from_int(self, n):
        return tuple(n // self.p**i % self.p for i in range(self.m))

    def _coords(self, a):
        out = [self.from_int(x) for x in a]
        while out and not any(out[-1]):
            out.pop()
        return out

    def _encoded(self, a):
        out = [self.to_int(c) for c in a]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def poly_add(self, a, b):
        a, b = self._coords(a), self._coords(b)
        zero = (0,) * self.m
        n = max(len(a), len(b))
        a, b = a + [zero] * (n - len(a)), b + [zero] * (n - len(b))
        return self._encoded([self.add(x, y) for x, y in zip(a, b)])

    def poly_mul(self, a, b, trunc=None):
        a, b = self._coords(a), self._coords(b)
        out = [(0,) * self.m] * max(0, len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.add(out[i + j], self.mul(x, y))
        return self._encoded(out if trunc is None else out[:trunc])

    def poly_divmod(self, a, b):
        a, b = self._coords(a), self._coords(b)
        lead_inv = self.inv(b[-1])
        r = list(a)
        q = [(0,) * self.m] * max(0, len(a) - len(b) + 1)
        for k in range(len(q) - 1, -1, -1):
            c = q[k] = self.mul(r[k + len(b) - 1], lead_inv)
            for i, y in enumerate(b):
                r[k + i] = self.add(r[k + i], self.neg(self.mul(c, y)))
        return self._encoded(q), self._encoded(r)

    def poly_gcd(self, a, b):
        """The monic gcd, by Euclid's algorithm on ``poly_divmod``."""
        a, b = self._encoded(self._coords(a)), self._encoded(self._coords(b))
        while b:
            a, b = b, self.poly_divmod(a, b)[1]
        if not a:
            return a
        lead_inv = self.to_int(self.inv(self.from_int(a[-1])))
        return self.poly_mul(a, (lead_inv,))


# ---------------------------------------------------------------------------
# builders and oracles over library types that only the tests use
# ---------------------------------------------------------------------------


def slope_transport_inverse(x):
    """Back from slope nu = beta/alpha to slope 0: a_i gains w^(beta i)."""
    alpha, beta = x.slope.alpha, x.slope.beta
    coeffs = {i: c.scale_w(beta * i) for i, c in x.coeffs.items()}
    tb = None if _isinf(x.u_prec) else x.tail_bound
    return SnuSeries(x.cfg, Slope(0, 1), coeffs, x.u_prec, tb, ram=x.ram)


def even_quotient_sum(cf, limit: int) -> int:
    """sum of a_{2i} for i = 1..limit (0 when out of range)."""
    return sum(cf.quotients[2 * i] for i in range(1, limit + 1) if 2 * i <= cf.n)


def generator_bound(slope) -> int:
    """2 + sum of even-index partial quotients (the tight bound form)."""
    cf = cf_expand(slope.nu)
    return 2 + even_quotient_sum(cf, cf.n // 2)


def ml_from_matrix(M):
    """The MLModule of the columns of M with every w-exponent 0."""
    return MLModule(M.cfg, M.slope, M.rows, [M.col(j) for j in range(M.cols)], [0] * M.cols, M.ram)


def generator_count(ml) -> int:
    return sum(len(s.values()) for s in ml.schedules())


def ml_structurally_equal(a, b) -> bool:
    if a.dim != b.dim or a.L != b.L or a.slope != b.slope:
        return False
    if len(a.columns) != len(b.columns):
        return False
    for ca, cb in zip(a.columns, b.columns):
        for ea, eb in zip(ca, cb):
            if not ea.digits_agree(eb):
                return False
    return True


# -- the precision-lattice calculus (sums, products, Euclidean division) ----


def jagged_lattice(slope, entries):
    """entries: list of per-exponent pi-precisions p_i (INF allowed)."""
    nu = slope.nu
    levels = {}
    for i, p in enumerate(entries):
        if not _isinf(p):
            levels[i] = Fraction(p) + _frac(nu * i)
    return PrecisionLattice(slope, len(entries), levels)


def lattice_entry(P, i):
    """The pi-precision exponent p_i of the spec's normalized basis."""
    lv = P.level(i)
    if _isinf(lv):
        return INF
    return lv - _frac(P.slope.nu * i)


def lattice_for_sum(P, P2):
    """The lattice P + P2 governing a sum: per-exponent minimum."""
    if P.slope != P2.slope:
        raise SlopeMismatch("lattice slopes differ")
    up = min(P.u_prec, P2.u_prec)
    levels = {}
    if not _isinf(up):
        for i in range(up):
            lv = min(P.level(i), P2.level(i))
            if not _isinf(lv):
                levels[i] = lv
    return PrecisionLattice(P.slope, up, levels)


def lattice_for_mul(x_val, y_val, P, P2):
    """The lattice y*P + x*P2 + P*P2 governing a product.

    Only the (certified) valuations of the operands enter: scaling a lattice
    by an element of valuation w shifts every reachable level by w, and the
    product lattice takes min over splittings of each exponent.
    """
    if P.slope != P2.slope:
        raise SlopeMismatch("lattice slopes differ")
    x_val = Fraction(x_val)
    y_val = Fraction(y_val)
    up = min(P.u_prec, P2.u_prec)
    if _isinf(up):
        return PrecisionLattice(P.slope, INF, {})
    levels = {}
    for k in range(up):
        best = INF
        # y*P and x*P2: a scaled unknown can land at any exponent <= k
        for i in range(k + 1):
            best = min(best, y_val + P.level(i), x_val + P2.level(i))
            best = min(best, P.level(i) + P2.level(k - i))
        if not _isinf(best):
            levels[k] = best
    return PrecisionLattice(P.slope, up, levels)


def division_precision_plan(d: int, e, p_pi: int, slope):
    """Input/output lattices for precision-stable Euclidean division.

    Returns (P_y, P_q, p_x): divide repr(P_f(p_x, p_pi))(x) into
    repr(P(P_y))(y) and the quotient is good at P_q, the remainder flat at
    p_pi.  The staircase drops by e every d exponents; the quotient
    staircase sits one step lower (the proof's per-step loss).
    """
    e = Fraction(e)
    if d < 1 or e <= 0 or p_pi < 1:
        raise BadParameters(f"bad division plan parameters d={d}, e={e}, p_pi={p_pi}")
    nu = slope.nu
    p_x = _ceil(Fraction(p_pi) / e) * d
    y_levels = {}
    for i in range(p_x):
        entry = max(p_pi - (i // d) * e, Fraction(0))
        y_levels[i] = entry + _frac(nu * i)
    q_levels = {}
    for i in range(max(0, p_x - d)):
        entry = max(p_pi - (i // d + 1) * e, Fraction(0))
        q_levels[i] = entry + _frac(nu * i)
    P_y = PrecisionLattice(slope, p_x, y_levels)
    P_q = PrecisionLattice(slope, max(0, p_x - d), q_levels)
    return P_y, P_q, p_x
