"""Euclidean linear algebra over the two localizations of the slope ring.

pi side (pi inverted, Euclidean via the Weierstrass degree): exact column
echelon by extended-gcd 2x2 unimodular transforms, pivots normalized to the
canonical monic Weierstrass polynomial, rows above reduced by classical
division.  The elimination phase is exact on exact polynomial inputs; pivot
normalization may need a working pi-precision when the gcd has a nontrivial
unit part (its roots need not be rational), so normalized entries carry
honest finite precision.

u side (u^alpha/pi^beta inverted and completed, a DVR): pivots are the
canonical monomials mu_m = u^a pi^b of valuation m/alpha (pure pi powers
when the valuation is integral, matching the classical normal form), column
elimination divides by the minimum-valuation entry, inverting each pivot's
unit part once, and Smith forms give saturations.  hnf_u records its column
operations; the transform P with T = M.P is built from that record on
first read, so callers that read only T never pay for it.

Normal-form routines demand exact inputs and fail loudly with
PrecisionExhausted when a branch cannot be certified; precision-safe module
arithmetic lives in ``precise_sum``.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import CoeffElem, _isinf
from .contfrac import Slope
from .errors import BadParameters, PrecisionExhausted
from .series import (
    SnuSeries,
    _ceil,
    _floor,
    _newton_refine,
    divide_by_unit,
    euclid_div_full,
    gcd_extended,
    poly_divmod,
)


# ---------------------------------------------------------------------------
# matrices of series
# ---------------------------------------------------------------------------


class SMat:
    """A dense rows x cols matrix of SnuSeries over one ring and slope."""

    __slots__ = ("cfg", "slope", "rows", "cols", "a", "ram")

    def __init__(self, cfg, slope, entries, ram=1):
        self.cfg = cfg
        self.slope = slope
        self.a = [list(r) for r in entries]
        self.rows = len(self.a)
        self.cols = len(self.a[0]) if self.a else 0
        if any(len(r) != self.cols for r in self.a):
            raise BadParameters(f"ragged rows of lengths {[len(r) for r in self.a]}")
        self.ram = ram

    @classmethod
    def zeros(cls, cfg, slope, rows, cols, ram=1):
        z = SnuSeries.zero(cfg, slope, ram)
        return cls(cfg, slope, [[z] * cols for _ in range(rows)], ram)

    @classmethod
    def identity(cls, cfg, slope, n, ram=1):
        m = cls.zeros(cfg, slope, n, n, ram)
        one = SnuSeries.one(cfg, slope, ram)
        for i in range(n):
            m.a[i][i] = one
        return m

    @classmethod
    def from_columns(cls, cfg, slope, rows, columns, ram=1):
        """The rows x len(columns) matrix with these columns (rows x 0 for none)."""
        if any(len(c) != rows for c in columns):
            raise BadParameters(f"column lengths {[len(c) for c in columns]}, not {rows}")
        return cls(cfg, slope, [[c[i] for c in columns] for i in range(rows)], ram)

    def copy(self):
        return SMat(self.cfg, self.slope, self.a, self.ram)

    def col(self, j):
        return [self.a[i][j] for i in range(self.rows)]

    def swap_cols(self, j0, j1):
        if j0 != j1:
            for r in self.a:
                r[j0], r[j1] = r[j1], r[j0]

    def scale_col(self, j, k: CoeffElem):
        for i in range(self.rows):
            self.a[i][j] = self.a[i][j].scale_coeff(k)

    def scale_col_series(self, j, s: SnuSeries):
        for i in range(self.rows):
            self.a[i][j] = self.a[i][j] * s

    def addmul_col(self, j0, j1, q: SnuSeries):
        """C_j0 += q * C_j1."""
        for i in range(self.rows):
            self.a[i][j0] = self.a[i][j0].addmul(1, q, self.a[i][j1])

    def transform_cols_2x2(self, j0, j1, k, l, m, n):
        """(C_j0, C_j1) <- (k C_j0 + l C_j1, m C_j0 + n C_j1)."""
        for i in range(self.rows):
            x, y = self.a[i][j0], self.a[i][j1]
            self.a[i][j0] = (k * x).addmul(1, l, y)
            self.a[i][j1] = (m * x).addmul(1, n, y)

    def matmul(self, other: "SMat") -> "SMat":
        if self.cols != other.rows:
            raise BadParameters(f"matmul of {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = SMat.zeros(self.cfg, self.slope, self.rows, other.cols, self.ram)
        for i in range(self.rows):
            for j in range(other.cols):
                acc = SnuSeries.zero(self.cfg, self.slope, self.ram)
                for k in range(self.cols):
                    acc = acc.addmul(1, self.a[i][k], other.a[k][j])
                out.a[i][j] = acc
        return out

    def apply_to_vector(self, vec):
        if self.cols != len(vec):
            raise BadParameters(f"{self.rows}x{self.cols} matrix times a length-{len(vec)} vector")
        out = []
        for i in range(self.rows):
            acc = SnuSeries.zero(self.cfg, self.slope, self.ram)
            for k in range(self.cols):
                acc = acc.addmul(1, self.a[i][k], vec[k])
            out.append(acc)
        return out

    def is_exact(self):
        return all(e.is_exact() for r in self.a for e in r)

    def map(self, fn):
        return SMat(self.cfg, self.slope, [[fn(e) for e in r] for r in self.a], self.ram)

    def __repr__(self):
        body = "; ".join(", ".join(e.render() for e in r) for r in self.a)
        return f"[{body}]"


# ---------------------------------------------------------------------------
# pi-localization: echelon, HNF, kernel, membership
# ---------------------------------------------------------------------------


class EchelonPi:
    """Staircase form over the pi-localization: T = M.P with pivot t_i at
    (l{i}, i), pivots canonical monic Weierstrass polynomials."""

    __slots__ = ("T", "P", "pivot_rows", "pivots", "rank")

    def __init__(self, T, P, pivot_rows, pivots):
        self.T = T
        self.P = P
        self.pivot_rows = pivot_rows
        self.pivots = pivots
        self.rank = len(pivot_rows)


def _entry_key(e: SnuSeries):
    v, d = e.certified_val_deg()
    return (d, v)


def _require_exact(M: SMat, who: str):
    if not M.is_exact():
        raise PrecisionExhausted(f"{who} requires exactly-known entries")


def _unit_scale_exact(col, idx_lead):
    """Scale a column by the inverse of the unit part of the leading digit
    of its first nonzero entry (keeps entries exact)."""
    e = col[idx_lead]
    dmax = e.max_deg()
    lead = e.coeffs[dmax]
    # strip the valuation: unit part only
    unit = lead.scale_w(-lead.num_val)
    inv = unit.inv()
    return [x.scale_coeff(inv) for x in col]


def echelon_pi(M: SMat, prec, hnf=False) -> EchelonPi:
    """Column echelon (optionally Hermite) form over the pi-localization.

    Phase 1 eliminates with exact 2x2 Bezout transforms (entries stay exact
    polynomials), phase 2 rescales each pivot column so the pivot becomes
    the canonical monic polynomial with all lower terms of positive
    relative level (exact when deg_W = deg, otherwise computed at working
    precision ``prec``), phase 3 (hnf) reduces pivot-row entries to
    canonical residues of degree < d_i.
    """
    _require_exact(M, "echelon_pi")
    T, P, pivot_rows = _echelon_pi_phase1(M)
    # phase 2: pivot normalization; pivot i sits in column i
    pivots = []
    for col, row in enumerate(pivot_rows):
        g = T.a[row][col]
        vg, d = g.certified_val_deg()
        deg = g.max_deg()
        if d == deg:
            lead = g.coeffs[deg]
            inv = lead.inv()
            T.scale_col(col, inv)
            P.scale_col(col, inv)
            t = T.a[row][col]
        else:
            t = _weierstrass_monic(g, prec)
            # g = w * t with v(w) = vg - v(t), which may be negative: divide
            # pi^s g instead, s more levels deep, and shift the quotient back
            shift = max(0, _ceil(t.certified_valuation() - vg))
            w = euclid_div_full(g.scale_pi(shift), t, prec + shift).q.scale_pi(-shift)
            _scale_col_by_unit_inverse(T, col, w, prec)
            _scale_col_by_unit_inverse(P, col, w, prec)
            T.a[row][col] = t  # structurally exact: the true scaled pivot
        pivots.append(T.a[row][col])
    if hnf:
        for col, row in enumerate(pivot_rows):
            t = pivots[col]
            for j in range(col):
                e = T.a[row][j]
                if e.is_exact_zero():
                    continue
                q = _reduce_mod_monic(e, t, prec)
                if q is None:
                    continue
                T.addmul_col(j, col, -q)
                P.addmul_col(j, col, -q)
    return EchelonPi(T, P, pivot_rows, pivots)


def _weierstrass_monic(g: SnuSeries, prec) -> SnuSeries:
    """The canonical monic degree-deg_W factor of an exact polynomial g:
    t = (pi^s u^d - r)/pi^s from the Euclidean division of pi^s u^d by g."""
    vg, d = g.certified_val_deg()
    s = _ceil(vg - g.nu * d)
    m = SnuSeries.monomial(
        g.cfg, g.slope, d, CoeffElem.from_int(g.cfg, 1, ram=g.ram).scale_pi(s)
    )
    res = euclid_div_full(m, g, prec + max(0, s) + 1)
    t = (m - res.r).scale_pi(-s)
    return t


def _scale_col_by_unit_inverse(M: SMat, col, w: SnuSeries, prec):
    """Column *= w^{-1} for w of Weierstrass degree 0 (any valuation)."""
    vw = w.certified_valuation()
    for i in range(M.rows):
        e = M.a[i][col]
        if e.is_exact_zero():
            continue
        shift = max(0, _ceil(vw - e.lower_bound()))
        q = divide_by_unit(e.scale_pi(shift), w, u_prec=_col_cap(e, w, prec))
        M.a[i][col] = q.scale_pi(-shift)


def _col_cap(e: SnuSeries, w: SnuSeries, prec):
    cap = min(e.u_prec, w.u_prec)
    if _isinf(cap):
        nu = e.nu
        if nu > 0:
            cap = _ceil(Fraction(prec + 1, 1) / nu) + (e.max_deg() or 0) + 1
        else:
            cap = (e.max_deg() or 0) + (w.max_deg() or 0) + prec + 8
    return cap


def _reduce_mod_monic(e: SnuSeries, t: SnuSeries, prec):
    """Quotient q with e - q*t the canonical residue (deg < deg t).

    e may be a series: split off the polynomial part of degree >= deg t via
    Euclidean division by the monic t."""
    d = t.max_deg()
    if e.is_polynomial():
        q, _ = poly_divmod(e, t)
        return None if q.is_exact_zero() else q
    vt, _ = t.certified_val_deg()
    lb = e.lower_bound()
    shift = max(0, _ceil(vt - lb))
    res = euclid_div_full(e.scale_pi(shift), t, prec)
    q = res.q.scale_pi(-shift)
    return None if q.is_exact_zero() else q


def hnf_pi(M: SMat, prec) -> EchelonPi:
    return echelon_pi(M, prec, hnf=True)


def kernel_pi(M: SMat) -> list:
    """Columns spanning the syzygies of M over the pi-localization, exact,
    normalized (pi-cleared, first entry monic)."""
    _require_exact(M, "kernel")
    T, P, _ = _echelon_pi_phase1(M)
    out = []
    for j in range(M.cols):
        if all(T.a[i][j].is_exact_zero() for i in range(M.rows)):
            col = P.col(j)
            if all(e.is_exact_zero() for e in col):
                continue
            out.append(_normalize_kernel_col(col))
    return out


def _echelon_pi_phase1(M: SMat):
    """Exact staircase T = M.P without pivot normalization (enough for
    kernels): returns (T, P, pivot_rows), the pivot of row pivot_rows[i]
    in column i; M must be exact."""
    T = M.copy()
    P = SMat.identity(M.cfg, M.slope, M.cols, M.ram)
    pivot_rows = []
    frozen = 0
    for row in range(T.rows):
        active = [j for j in range(frozen, T.cols) if not T.a[row][j].is_exact_zero()]
        if not active:
            continue
        active.sort(key=lambda j: _entry_key(T.a[row][j]) + (j,))
        acc = active[0]
        for j in active[1:]:
            x, y = T.a[row][acc], T.a[row][j]
            g, k, l, m, n = gcd_extended(x, y)
            T.transform_cols_2x2(acc, j, k, l, m, n)
            P.transform_cols_2x2(acc, j, k, l, m, n)
            T.a[row][j] = SnuSeries.zero(T.cfg, T.slope, T.ram)  # m x + n y = 0
        T.swap_cols(acc, frozen)
        P.swap_cols(acc, frozen)
        pivot_rows.append(row)
        frozen += 1
    return T, P, pivot_rows


def _normalize_kernel_col(col):
    first = next(i for i, e in enumerate(col) if not e.is_exact_zero())
    col = _unit_scale_exact(col, first)
    low = min(e.certified_valuation() for e in col if not e.is_exact_zero())
    n = -_floor(low)
    return [e.scale_pi(n) for e in col]


_NOT_IN_SPAN = object()  # a pivot division's definite "no"


def _substitute(vec, T: SMat, steps, divide):
    """The triangular substitution of every solve against an echelon form T.

    For each step (i, row), ``divide(i, e)`` reads coordinate i off the
    residual entry e on that row: the quotient by the pivot of column i,
    None when e is zero at the caller's precision (the coordinate stays 0),
    or _NOT_IN_SPAN when e is certainly no multiple of that pivot.  Each
    quotient q leaves the whole residual as q times column i of T.  Returns
    (coordinates, residual), or None; what is left of the residual is the
    caller's to judge.
    """
    y = [SnuSeries.zero(T.cfg, T.slope, T.ram) for _ in range(T.cols)]
    residual = list(vec)
    for i, row in steps:
        q = divide(i, residual[row])
        if q is _NOT_IN_SPAN:
            return None
        if q is not None:
            y[i] = q
            for r in range(T.rows):
                residual[r] = residual[r].addmul(-1, q, T.a[r][i])
    return y, residual


def member_pi(vec, M: SMat, prec):
    """Coordinates X with M.X = vec over the pi-localization, or None.

    None is a definite "no" for exact data: it is returned only when a
    certain nonzero digit obstructs divisibility or lies outside the span.
    """
    ech = echelon_pi(M, prec)

    def divide(i, e):
        if not e.has_certain_digit():
            return None
        t = ech.pivots[i]
        vt, _ = t.certified_val_deg()
        shift = max(0, _ceil(vt - e.lower_bound()))
        res = euclid_div_full(e.scale_pi(shift), t, prec)
        if res.r.has_certain_digit():
            return _NOT_IN_SPAN  # certain nonzero remainder: not divisible
        return res.q.scale_pi(-shift)

    solved = _substitute(vec, ech.T, enumerate(ech.pivot_rows), divide)
    if solved is None or any(e.has_certain_digit() for e in solved[1]):
        return None
    return ech.P.apply_to_vector(solved[0])


# ---------------------------------------------------------------------------
# u-localization: the DVR side
# ---------------------------------------------------------------------------


def mu_monomial(cfg, slope: Slope, m: int, ram=1) -> SnuSeries:
    """The canonical monomial u^a pi^b of valuation m/alpha (a minimal >= 0);
    pure pi power when alpha | m."""
    alpha, beta = slope.alpha, slope.beta
    if alpha == 1:
        a = 0
    else:
        a = (m * pow(beta, -1, alpha)) % alpha
    b = (m - a * beta) // alpha
    return SnuSeries.monomial(
        cfg, slope, a, CoeffElem.from_int(cfg, 1, ram=ram).scale_pi(b)
    )


def _u_window(entries, n_level, slope: Slope) -> int:
    """The one u-exponent window of DVR-side work on ``entries`` at level
    precision n_level (hnf_u, smith_u, member_u, psi_inverse): the entries'
    largest |degree| plus 2 + 2*ceil(n_level) blocks of alpha exponents,
    plus 4.  A margin kept from the Hermite form, not a proven bound."""
    base = max((abs(e.max_deg() or 0) for e in entries), default=1)
    return (base + 2 + 2 * _ceil(n_level)) * slope.alpha + 4


def _valuation_index(v, slope: Slope) -> int:
    """m with v = m/alpha, the index of the canonical monomial mu_m."""
    m = Fraction(v) * slope.alpha
    if m.denominator != 1:
        raise BadParameters(f"valuation {v} is not a multiple of 1/{slope.alpha}")
    return int(m)


def u_invert_unit(w: SnuSeries, n_level, hi_window) -> SnuSeries:
    """Inverse of a u-localization unit (certified v_nu = 0) with every
    certain digit of 1 - w*y at level >= n_level, support below hi_window."""
    alpha = w.slope.alpha
    lvl0 = {
        i: c
        for i, c in w.coeffs.items()
        if c.has_witness() and w.level_key(i, c) == 0
    }
    if not lvl0:
        raise PrecisionExhausted("unit has no certain level-zero digit")
    i0 = min(lvl0)
    c0 = lvl0[i0]
    base = SnuSeries.monomial(w.cfg, w.slope, -i0, c0.inv())
    lvl0_s = SnuSeries(w.cfg, w.slope, lvl0, ram=w.ram)
    t = (lvl0_s * base) - SnuSeries.one(w.cfg, w.slope, w.ram)  # x-powers >= 1
    t = t.truncate_u(hi_window)
    # geometric series for the residue-field inverse
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


def _monomial_inverse(mu: SnuSeries) -> SnuSeries:
    """c^-1 u^-a for the monomial mu = c u^a."""
    ((i_mu, c),) = mu.coeffs.items()
    return SnuSeries.monomial(mu.cfg, mu.slope, -i_mu, c.inv())


def _u_divider(b: SnuSeries, n_level, hi_window):
    """The map a -> a / b in the u-localization (for v_nu(a) >= v_nu(b)).
    b = mu * w with mu the canonical monomial of its valuation and w a unit;
    the Newton inverse of w is computed once, for every a the map divides.
    When w is one exact digit c at u^0 (b is c*mu up to its u_prec), that
    inverse is the exact c^-1, so the map multiplies by c^-1 mu^-1 only."""
    m = _valuation_index(b.certified_valuation(), b.slope)
    mu_inv = _monomial_inverse(mu_monomial(b.cfg, b.slope, m, b.ram))
    w = (b * mu_inv).truncate_u(hi_window)
    c = w.coeffs.get(0)
    if len(w.coeffs) == 1 and c is not None and c.is_exact():
        inv = mu_inv.scale_coeff(c.inv())
        return lambda a: (a * inv).truncate_u(hi_window)
    w_inv = u_invert_unit(w, n_level, hi_window)
    return lambda a: (a * mu_inv * w_inv).truncate_u(hi_window)


def u_divide(a: SnuSeries, b: SnuSeries, n_level, hi_window) -> SnuSeries:
    """a / b in the u-localization (requires v_nu(a) >= v_nu(b))."""
    return _u_divider(b, n_level, hi_window)(a)


class EchelonU:
    """Staircase form over the u-localization: T = M.P below the working
    level, with pivot mu_{m_i} at (pivot_rows[i], i).  P is built on first
    read, by replaying on the identity the column operations hnf_u
    recorded on T."""

    __slots__ = ("T", "_ops", "_P", "pivot_rows", "pivot_vals", "rank")

    def __init__(self, T, ops, pivot_rows, pivot_vals):
        self.T = T
        self._ops = ops  # (SMat method, arguments), in the order applied to T
        self._P = None
        self.pivot_rows = pivot_rows
        self.pivot_vals = pivot_vals  # valuations m_i in 1/alpha units
        self.rank = len(pivot_rows)

    @property
    def P(self) -> SMat:
        if self._P is None:
            P = SMat.identity(self.T.cfg, self.T.slope, self.T.cols, self.T.ram)
            for op, args in self._ops:
                op(P, *args)
            self._P = P
        return self._P


def _u_entry_val(e: SnuSeries, n_level):
    """Certified valuation, or None when the entry is zero at level n."""
    if e.is_exact_zero():
        return None
    v = e.visible_valuation()
    if _isinf(v):
        if e.lower_bound() >= n_level:
            return None
        raise PrecisionExhausted("entry is ambiguous at the working level precision")
    return e.certified_valuation()


def hnf_u(M: SMat, n_level, hnf=True) -> EchelonU:
    """Echelon / Hermite form over the u-localization DVR.

    Pivots become the canonical valuation monomials mu_{m_i}; in Hermite
    form the entries on pivot rows are canonical residues (certain digits
    of level < m_i/alpha only).  Entries count as zero when they vanish at
    the working level precision ``n_level``.
    """
    hi_window = _u_window([e for r in M.a for e in r], n_level, M.slope)
    T = M.copy()
    ops = []

    def op(fn, *args):  # apply a column operation to T and record it for P
        fn(T, *args)
        ops.append((fn, args))

    pivot_rows, pivot_vals = [], []
    frozen = 0
    for row in range(T.rows):
        vals = {}
        for j in range(frozen, T.cols):
            v = _u_entry_val(T.a[row][j], n_level)
            if v is not None:
                vals[j] = v
        if not vals:
            continue
        jstar = min(vals, key=lambda j: (vals[j], j))
        m = _valuation_index(vals[jstar], T.slope)
        op(SMat.swap_cols, jstar, frozen)
        piv = T.a[row][frozen]
        divide = _u_divider(piv, n_level, hi_window)
        # clear the row to the right
        for j in range(frozen + 1, T.cols):
            if _u_entry_val(T.a[row][j], n_level) is not None:
                q = divide(T.a[row][j])
                op(SMat.addmul_col, j, frozen, -q)
                T.a[row][j] = SnuSeries.zero(T.cfg, T.slope, T.ram)
        # normalize the pivot to the canonical monomial
        mu = mu_monomial(T.cfg, T.slope, m, T.ram)
        op(SMat.scale_col_series, frozen, divide(mu))
        T.a[row][frozen] = mu  # structurally exact after unit scaling
        pivot_rows.append(row)
        pivot_vals.append(Fraction(m, T.slope.alpha))
        frozen += 1
    if hnf:
        for col, row in enumerate(pivot_rows):
            bound = pivot_vals[col]
            mu_inv = None
            for j in range(col):
                e = T.a[row][j]
                low, high = e.split_levels(bound)
                if not high.coeffs:
                    continue
                # the pivot is mu_m itself: dividing by it needs no unit inverse
                mu_inv = mu_inv or _monomial_inverse(T.a[row][col])
                q = (high * mu_inv).truncate_u(hi_window)
                op(SMat.addmul_col, j, col, -q)
                T.a[row][j] = low  # the canonical residue, structurally
    # tidy: reduce every entry at the working level
    for i in range(T.rows):
        for j in range(T.cols):
            T.a[i][j] = T.a[i][j].truncate_u(hi_window)
    return EchelonU(T, ops, pivot_rows, pivot_vals)


def member_u(vec, M: SMat, n_level):
    """Coordinates X with M.X = vec over the u-localization DVR, or None."""
    ech = hnf_u(M, n_level)
    y = _u_coordinates(vec, M, ech, n_level)
    return None if y is None else ech.P.apply_to_vector(y)


def _u_coordinates(vec, M: SMat, ech: EchelonU, n_level):
    """Coordinates Y with ech.T.Y = vec (ech the u-side echelon of M), or
    None: the yes/no of member_u, without reading ech.P."""
    hi_window = _u_window([e for r in M.a for e in r] + list(vec), n_level, M.slope)

    def divide(i, e):
        v = _u_entry_val(e, n_level)
        if v is None:
            return None
        if v < ech.pivot_vals[i]:
            return _NOT_IN_SPAN  # valuation obstruction: definite no
        return u_divide(e, ech.T.a[ech.pivot_rows[i]][i], n_level, hi_window)

    solved = _substitute(vec, ech.T, enumerate(ech.pivot_rows), divide)
    if solved is None or any(_u_entry_val(e, n_level) is not None for e in solved[1]):
        return None
    return solved[0]


def kernel_u(M: SMat, n_level) -> list:
    """Columns R with M.R = 0 (at the working level precision) spanning the
    u-localization syzygies."""
    ech = hnf_u(M, n_level, hnf=False)
    out = []
    for j in range(M.cols):
        if all(_u_entry_val(ech.T.a[i][j], n_level) is None for i in range(M.rows)):
            col = ech.P.col(j)
            if all(_u_entry_val(e, n_level) is None for e in col):
                continue
            out.append(col)
    return out


def smith_u(M: SMat, n_level):
    """Smith form over the u-localization DVR.

    Returns (vals, U_inv, rank): vals are the non-decreasing pivot
    valuations (in 1/alpha units) and the first ``rank`` columns of U_inv
    span the saturation of the column span.
    """
    hi_window = _u_window([e for r in M.a for e in r], n_level, M.slope)
    D = M.copy()
    U_inv = SMat.identity(M.cfg, M.slope, M.rows, M.ram)
    vals = []
    k = 0
    limit = min(D.rows, D.cols)
    while k < limit:
        best = None
        for i in range(k, D.rows):
            for j in range(k, D.cols):
                v = _u_entry_val(D.a[i][j], n_level)
                if v is not None and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        v, i, j = best
        m = _valuation_index(v, D.slope)
        # move pivot to (k, k): row swap mirrored on U_inv columns
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
        vals.append(Fraction(m, D.slope.alpha))
        k += 1
    return vals, U_inv, k


# ---------------------------------------------------------------------------
# module arithmetic over one localization
# ---------------------------------------------------------------------------


def _concat(M: SMat, M2: SMat) -> SMat:
    if M.rows != M2.rows:
        raise BadParameters("ambient dimensions differ")
    return SMat(M.cfg, M.slope, [M.a[i] + M2.a[i] for i in range(M.rows)], M.ram)


def module_sum(M: SMat, M2: SMat, loc: str, prec) -> SMat:
    """Generators of the sum: pivot columns of the echelon of (M M2)."""
    C = _concat(M, M2)
    ech = echelon_pi(C, prec) if loc == "pi" else hnf_u(C, prec)
    return SMat.from_columns(M.cfg, M.slope, M.rows, [ech.T.col(j) for j in range(ech.rank)], M.ram)


def module_intersect(M: SMat, M2: SMat, loc: str, prec) -> SMat:
    """Generators of the intersection via syzygies of the concatenation."""
    C = _concat(M, M2)
    kern = kernel_pi(C) if loc == "pi" else kernel_u(C, prec)
    gens = [M.apply_to_vector(col[: M.cols]) for col in kern]
    cols = [g for g in gens if any(e.has_certain_digit() for e in g)]
    return SMat.from_columns(M.cfg, M.slope, M.rows, cols, M.ram)
