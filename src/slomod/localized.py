"""Euclidean linear algebra over the two localizations of the slope ring.

Both localizations run one column-echelon loop, ``_echelon``, over a side
object that supplies its five ring-dependent steps: the pivot key, the
clearing of a row, the canonical pivot, the canonical residue and a last
tidy of T.

pi side (pi inverted, Euclidean via the Weierstrass degree): pivots of
least (deg_W, v), cleared by exact extended-gcd 2x2 unimodular transforms,
normalized to the canonical monic Weierstrass factor t of g = W*t (the
column divided by the unit W), residues by classical division.
Elimination is exact on exact polynomial inputs; pivot normalization may
need a working pi-precision when the gcd has a nontrivial unit part (its
roots need not be rational), so normalized entries carry honest finite
precision.  t and W are lifted quadratically to level P = prec +
max(0, s) + 1 (s the pi-shift that makes t integral) against the pivot
with its high digits reduced to level P: no digit below P is lost, and
the lifting's digits stay below p^P.

u side (u^alpha/pi^beta inverted and completed, a DVR): pivots of least
valuation, cleared by division by the pivot (its unit part inverted once),
normalized to the canonical monomials mu_m = u^a pi^b of valuation m/alpha
(pure pi powers when the valuation is integral, matching the classical
normal form), all work truncated at one u-window.  The echelon of B^t gives
the saturation of B's span, read off the inverse of its transform.

The loop records its column operations; the transform P with T = M.P is
built from that record on first read, so callers that read only T never
pay for it.  On T an operation skips the entries the loop already knows:
on the pivot row the cleared entries (zero), the pivot (the gcd, then t or
mu) and the u-side residues (their low parts); on the pi side also every
row above the pivot row, which holds exact zeros in the columns a step
combines.  P replays every operation in full.  Normal-form routines demand
exact inputs and fail loudly with PrecisionExhausted when a branch cannot
be certified; precision-safe module arithmetic lives in ``precise_sum``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd

from .coeffs import CoeffElem, _isinf
from .contfrac import Slope
from .errors import BadParameters, PrecisionExhausted
from .series import (
    SnuSeries,
    _ceil,
    _floor,
    _newton_refine,
    _pi_shift_divide,
    divide_by_unit,
    euclid_div_full,
    gcd_extended,
    hi_lo_split,
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

    # the column operations below act on the rows ``rows`` (all when None);
    # ``_echelon`` passes fewer for the entries of T it already knows

    def swap_cols(self, j0, j1):
        if j0 != j1:
            for r in self.a:
                r[j0], r[j1] = r[j1], r[j0]

    def scale_col(self, j, k: CoeffElem, rows=None):
        for i in range(self.rows) if rows is None else rows:
            self.a[i][j] = self.a[i][j].scale_coeff(k)

    def scale_col_series(self, j, s: SnuSeries, rows=None):
        for i in range(self.rows) if rows is None else rows:
            self.a[i][j] = self.a[i][j] * s

    def addmul_col(self, j0, j1, q: SnuSeries, rows=None):
        """C_j0 += q * C_j1."""
        for i in range(self.rows) if rows is None else rows:
            self.a[i][j0] = self.a[i][j0].addmul(1, q, self.a[i][j1])

    # the u side's twins of the two above take a memoized zero-argument
    # factor and call it only if a row reads it (``_reading``)

    def scale_col_by(self, j, factor, rows=None):
        """C_j *= factor()."""
        self.scale_col_series(j, *self._reading(j, factor, rows))

    def addmul_col_by(self, j0, j1, factor, rows=None):
        """C_j0 += factor() * C_j1."""
        self.addmul_col(j0, j1, *self._reading(j1, factor, rows))

    def _reading(self, j, factor, rows):
        """(factor(), the rows of ``rows`` with no exact zero in column j);
        (None, []) with no call when every product would be that zero."""
        rows = [i for i in (range(self.rows) if rows is None else rows) if not self.a[i][j].is_exact_zero()]
        return (factor() if rows else None), rows

    def transform_cols_2x2(self, j0, j1, k, l, m, n, rows=None):
        """(C_j0, C_j1) <- (k C_j0 + l C_j1, m C_j0 + n C_j1)."""
        for i in range(self.rows) if rows is None else rows:
            x, y = self.a[i][j0], self.a[i][j1]
            self.a[i][j0] = (k * x).addmul(1, l, y)
            self.a[i][j1] = (m * x).addmul(1, n, y)

    def matmul(self, other: "SMat") -> "SMat":
        if self.cols != other.rows:
            raise BadParameters(f"matmul of {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = [self.apply_to_vector(other.col(j)) for j in range(other.cols)]
        return SMat.from_columns(self.cfg, self.slope, self.rows, cols, self.ram)

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
# the column echelon over either localization
# ---------------------------------------------------------------------------


class Echelon:
    """Column echelon form T = M.P over one localization: the pivot of
    column i is T's entry on row pivot_rows[i], and pivot_vals[i] is the
    key it was chosen by (on the u side, its valuation m_i/alpha).  P is
    built on first read, by replaying on the identity the column operations
    recorded on T, with the u-side factors that T never read."""

    __slots__ = ("T", "_ops", "_P", "pivot_rows", "pivot_vals", "rank")

    def __init__(self, T, ops, pivot_rows, pivot_vals=()):
        self.T = T
        self._ops = ops  # (function, arguments), in the order applied to T
        self._P = None
        self.pivot_rows = pivot_rows
        self.pivot_vals = pivot_vals
        self.rank = len(pivot_rows)

    @property
    def pivots(self) -> list:
        return [self.T.a[row][i] for i, row in enumerate(self.pivot_rows)]

    @property
    def P(self) -> SMat:
        """T = M.P.  A factor that fails in the replay (PrecisionExhausted
        from a unit inverse) fails every read of P, and no P is kept."""
        if self._P is None:
            P = SMat.identity(self.T.cfg, self.T.slope, self.T.cols, self.T.ram)
            for op, args in self._ops:
                op(P, *args)
            self._P = P
        return self._P

    def inverse_transpose(self) -> SMat:
        """(P^-1)^t, replayed on the identity from the same record: a swap
        stays a swap and C_j0 += q C_j1 becomes C_j1 -= q C_j0.  The record
        must hold only those two (a u-side echelon without normalize or
        hnf); any other operation raises BadParameters."""
        Q = SMat.identity(self.T.cfg, self.T.slope, self.T.cols, self.T.ram)
        for op, args in self._ops:
            if op is SMat.swap_cols:
                Q.swap_cols(*args)
            elif op is SMat.addmul_col_by:
                j0, j1, factor = args
                Q.addmul_col(j1, j0, -factor())
            else:
                raise BadParameters(f"inverse_transpose replays swaps and column additions only, "
                                    f"not {op.__name__}")
        return Q


def _echelon(M: SMat, side, normalize=True, hnf=False) -> Echelon:
    """The column echelon (``hnf``: Hermite) form of M over the localization
    of ``side``.  Row by row, the nonzero entry of least key right of the
    pivots found so far is swapped into place, the rest of the row is
    cleared against it and it is made canonical; later rows touch only the
    columns right of it.  Every column operation goes through ``op``, which
    records it for P and applies it to T, on the rows that ``rows=`` names
    when it is given.  A u-side factor is a memoized zero-argument function
    that T calls only where a row reads it (``SMat.scale_col_by``); the
    factor of a full-rank echelon's last pivot scales only exact zeros of
    T, so only P's replay computes it.

    No entry of T is computed just to be overwritten.  On the pivot row the
    steps set what they already know: the cleared entries are zero; the
    pi-side pivot is the gcd that the clearing returns, then the monic
    factor t when its Weierstrass degree is below its degree; the u-side
    pivot is mu, and a u-side residue is its low part.  On the pi side the
    rows above the pivot row are not touched either: a key there is None
    only for an exact zero, so those rows hold exact zeros in every column
    the step combines, and stay so.  On the u side an entry above counts as
    zero only at the level n_level and keeps its digits, so those rows are
    updated.  P replays every operation on all its rows."""
    T = M.copy()
    ops = []

    def op(fn, *args, **rows):
        fn(T, *args, **rows)
        ops.append((fn, args))

    zero = SnuSeries.zero(T.cfg, T.slope, T.ram)
    pivot_rows, pivot_vals = [], []
    for row in range(T.rows):
        col = len(pivot_rows)
        keys = {}
        for j in range(col, T.cols):
            k = side.key(T.a[row][j])
            if k is not None:
                keys[j] = k
        if not keys:
            continue
        jstar, *rest = sorted(keys, key=lambda j: (keys[j], j))
        op(SMat.swap_cols, jstar, col)
        rest = [jstar if j == col else j for j in rest]
        side.clear(op, T, row, col, rest)
        for j in rest:
            T.a[row][j] = zero  # structurally: the clearing made it zero
        if normalize:
            side.normalize(op, T, row, col, keys[jstar])
        pivot_rows.append(row)
        pivot_vals.append(keys[jstar])
    if hnf:
        for col, row in enumerate(pivot_rows):
            side.reduce(op, T, row, col, pivot_vals[col])
    side.finish(T)
    return Echelon(T, ops, pivot_rows, pivot_vals)


def _kernel(M: SMat, ech: Echelon, is_zero) -> list:
    """The columns of P under the zero columns of the echelon T = M.P of M,
    those with an entry that is not ``is_zero``: the syzygies of M."""
    out = []
    for j in range(M.cols):
        if all(is_zero(ech.T.a[i][j]) for i in range(M.rows)):
            col = ech.P.col(j)
            if not all(is_zero(e) for e in col):
                out.append(col)
    return out


# ---------------------------------------------------------------------------
# pi-localization: echelon, HNF, kernel, membership
# ---------------------------------------------------------------------------


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


class _PiSide:
    """The pi-localization's steps of ``_echelon`` on exact input: pivots of
    least (deg_W, v), exact 2x2 Bezout clearing, canonical monic Weierstrass
    pivots and residues of lower degree, both at working precision ``prec``
    (None when neither is asked for)."""

    def __init__(self, prec):
        self.prec = prec

    @staticmethod
    def key(e: SnuSeries):
        if e.is_exact_zero():
            return None
        v, d = e.certified_val_deg()
        return d, v

    @staticmethod
    def clear(op, T: SMat, row, col, rest):
        below = range(row + 1, T.rows)
        for j in rest:
            g, k, l, m, n = gcd_extended(T.a[row][col], T.a[row][j])
            op(SMat.transform_cols_2x2, col, j, k, l, m, n, rows=below)
            T.a[row][col] = g  # k x + l y, exactly; m x + n y = 0

    def normalize(self, op, T: SMat, row, col, key):
        """Rescale the pivot column so the pivot becomes the canonical monic
        polynomial with all lower terms of positive relative level: exact
        when deg_W = deg, otherwise at working precision, by the inverse of
        the unit W = g/t that ``_weierstrass_monic`` returns with t."""
        g = T.a[row][col]
        deg = g.max_deg()
        if g.certified_val_deg()[1] == deg:
            op(SMat.scale_col, col, g.coeffs[deg].inv(), rows=range(row, T.rows))
            return
        t, w = _weierstrass_monic(g, self.prec)
        op(_scale_col_by_unit_inverse, col, w, self.prec, rows=range(row + 1, T.rows))
        T.a[row][col] = t  # structurally exact: the true scaled pivot

    def reduce(self, op, T: SMat, row, col, key):
        """Entries left of the pivot to canonical residues of degree < d."""
        t = T.a[row][col]
        for j in range(col):
            e = T.a[row][j]
            if not e.is_exact_zero():
                q = _reduce_mod_monic(e, t, self.prec)
                if q is not None:
                    op(SMat.addmul_col, j, col, -q, rows=range(row, T.rows))

    @staticmethod
    def finish(T: SMat):
        pass


def echelon_pi(M: SMat, prec, hnf=False) -> Echelon:
    """Column echelon (optionally Hermite) form over the pi-localization.

    Elimination is exact (entries stay exact polynomials); pivots are the
    canonical monic polynomials and, with ``hnf``, pivot-row entries are
    canonical residues, both at working precision ``prec`` when a pivot's
    Weierstrass degree is below its degree.  The transform P is built on
    first read (``Echelon.P``), so callers that need only T never replay it.
    """
    _require_exact(M, "echelon_pi")
    return _echelon(M, _PiSide(prec), hnf=hnf)


def _weierstrass_monic(g: SnuSeries, prec):
    """(t, W) with g = W*t: the canonical monic degree-deg_W factor t of an
    exact polynomial g, pi^s t known to level P = prec + max(0, s) + 1,
    s = ceil(v_nu(g) - nu*d), and the unit W.  t is lifted quadratically
    (von zur Gathen and Gerhard, "Modern Computer Algebra", 15.4) against
    g' = Lo(g, d) + Hi(g, d) reduced to level P, so that digits stay below
    p^P.  From t = u^d and y = W^-1 mod u^d, a step sets t += R*y mod t,
    (W, R) = divmod(g', t), y += y*(1 - W*y) mod t.  The digits hold
    g = W*t + R (those of g' carry g - g'), so if v(R) >= lam, g = W_g*t_g
    has t_g = t to level lam - v(W) and, as (W_g - W)*t_g = R - W*(t_g - t),
    W_g = W to level lam - nu*d.  The lift stops, after one step at least,
    at v(R) >= (P - s) + v(W) (O-terms count); v(R) gains e = v(Lo g) -
    v(g), then doubles (``_lifting_budget``).  For g = u^k h(u^G), G the
    gcd of its exponent differences, the digits of pi^s t at i >= k with
    i = d mod G are cut at level P and those of W at i = 0 mod G at level
    v(R) - nu*d (O-terms where the lift left none), the others exact zeros.
    If Lo(g, d) = 0, t = u^d and W = Hi(g, d)/u^d exactly."""
    vg, d = g.certified_val_deg()
    s = _ceil(vg - g.nu * d)
    one = CoeffElem.from_int(g.cfg, 1, ram=g.ram)
    m = SnuSeries.monomial(g.cfg, g.slope, d, one.scale_pi(s))
    lo, hi = hi_lo_split(g, d)
    if lo.is_exact_zero():
        return m.scale_pi(-s), hi.shift_u(-d)
    level = prec + max(0, s) + 1
    gp = lo + hi.reduce_levels(level)
    t = SnuSeries.monomial(g.cfg, g.slope, d, one)
    w, rem = poly_divmod(gp, t)
    y = divide_by_unit(m.shift_u(-d), w, u_prec=d)  # pi^s / W mod u^d
    y = SnuSeries(g.cfg, g.slope, y.coeffs, ram=y.ram).scale_pi(-s)
    target, v0 = level - s + vg - g.nu * d, rem.lower_bound()
    budget, steps = _lifting_budget(target - v0, v0 - vg), 0
    unit = SnuSeries.one(g.cfg, g.slope, ram=g.ram)
    while not steps or rem.lower_bound() < target:
        if steps == budget:
            raise PrecisionExhausted(f"Weierstrass lifting exceeded its budget "
                                     f"ceil(log2(gain/e))+2 = {budget} steps")
        if steps:
            y = poly_divmod(y.addmul(1, y, poly_divmod(unit.addmul(-1, w, y), t)[1]), t)[1]
        t = t + poly_divmod(rem * y, t)[1]
        w, rem = poly_divmod(gp, t)
        steps += 1
    k = g.min_exp()
    G = gcd(*(i - k for i in g.coeffs))

    def cut(x, lvl, exps):
        digits = {i: x.coeff(i).reduce_abs_w(_ceil(g.ram * (lvl - g.nu * i))) for i in exps}
        return SnuSeries(g.cfg, g.slope, digits, ram=g.ram)

    w = cut(w, rem.lower_bound() - g.nu * d, range(0, w.max_deg() + 1, G))
    return (m - cut(m - t.scale_pi(s), level, range(k, d, G))).scale_pi(-s), w


def _lifting_budget(gain, e) -> int:
    """ceil(log2(gain/e)) + 2 steps: v(R) gains e, then doubles."""
    return (max(1, _ceil(gain / e)) - 1).bit_length() + 2


def _scale_col_by_unit_inverse(M: SMat, col, w: SnuSeries, prec, rows=None):
    """Column *= w^{-1} for w of Weierstrass degree 0 (any valuation), on
    ``rows`` (all when None)."""
    vw = w.certified_valuation()
    for i in range(M.rows) if rows is None else rows:
        e = M.a[i][col]
        if not e.is_exact_zero():
            M.a[i][col] = _pi_shift_divide(divide_by_unit, e, w, _col_cap(e, w, prec), vx=vw)


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
    if e.is_polynomial():
        q = poly_divmod(e, t)[0]
    else:
        q = _pi_shift_divide(lambda y, x: euclid_div_full(y, x, prec).q, e, t)
    return None if q.is_exact_zero() else q


def hnf_pi(M: SMat, prec) -> Echelon:
    return echelon_pi(M, prec, hnf=True)


def kernel_pi(M: SMat) -> list:
    """Columns spanning the syzygies of M over the pi-localization, exact,
    normalized (pi-cleared, first entry monic)."""
    _require_exact(M, "kernel")
    ech = _echelon(M, _PiSide(None), normalize=False)
    return [_normalize_kernel_col(col) for col in _kernel(M, ech, SnuSeries.is_exact_zero)]


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
        res = _pi_shift_divide(euclid_div_full, e, ech.pivots[i], prec)
        if res.r.has_certain_digit():
            return _NOT_IN_SPAN  # certain nonzero remainder: not divisible
        return res.q

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
    precision n_level (hnf_u, saturation_u, member_u, psi_inverse): the
    entries' largest |degree| plus 2 + 2*ceil(n_level) blocks of alpha
    exponents, plus 4.  A margin kept from the Hermite form, not a proven
    bound."""
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
    certain digit of 1 - w*y at level >= n_level, support below hi_window.
    The start is the exact inverse of w's level-0 part modulo u^hi_window,
    by one ``divide_by_unit`` recurrence on that part shifted to u^0 and
    cut there; Newton steps then lift it to level n_level."""
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
    unit = (lvl0_s * base).truncate_u(hi_window)
    one = SnuSeries.one(w.cfg, w.slope, w.ram)
    y = (divide_by_unit(one, unit, u_prec=hi_window) * base).truncate_u(hi_window)
    budget = 2 * (_ceil(Fraction(n_level) * w.slope.alpha).bit_length() + 3)
    return _newton_refine(w.truncate_u(hi_window), y, n_level, hi_window, budget)


def _monomial_inverse(mu: SnuSeries) -> SnuSeries:
    """c^-1 u^-a for the monomial mu = c u^a."""
    ((i_mu, c),) = mu.coeffs.items()
    return SnuSeries.monomial(mu.cfg, mu.slope, -i_mu, c.inv())


def _u_divider(b: SnuSeries, n_level, hi_window):
    """The map a -> a / b in the u-localization (for v_nu(a) >= v_nu(b)).
    b = mu * w with mu the canonical monomial of its valuation and w a unit;
    the Newton inverse of w is computed at the map's first call, once for
    every a it divides, so a map that is never called inverts nothing.
    When w is one exact digit c at u^0 (b is c*mu up to its u_prec), that
    inverse is the exact c^-1, so the map multiplies by c^-1 mu^-1 only."""
    m = _valuation_index(b.certified_valuation(), b.slope)
    mu_inv = _monomial_inverse(mu_monomial(b.cfg, b.slope, m, b.ram))
    w = (b * mu_inv).truncate_u(hi_window)
    c = w.coeffs.get(0)
    if len(w.coeffs) == 1 and c is not None and c.is_exact():
        inv = mu_inv.scale_coeff(c.inv())
        return lambda a: (a * inv).truncate_u(hi_window)
    w_inv = cache(lambda: u_invert_unit(w, n_level, hi_window))
    return lambda a: (a * mu_inv * w_inv()).truncate_u(hi_window)


def u_divide(a: SnuSeries, b: SnuSeries, n_level, hi_window) -> SnuSeries:
    """a / b in the u-localization (requires v_nu(a) >= v_nu(b))."""
    return _u_divider(b, n_level, hi_window)(a)


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


class _USide:
    """The u-localization's steps of ``_echelon``: pivots of least
    valuation, clearing by the pivot's one divider, canonical monomial
    pivots mu_m and residues of level below theirs.  Entries count as zero
    when they vanish at level ``n_level``, and every product is truncated
    at the u-window of M."""

    def __init__(self, M: SMat, n_level):
        self.n_level = n_level
        self.window = _u_window([e for r in M.a for e in r], n_level, M.slope)
        self.divide = None  # division by the pivot of the current row

    def key(self, e: SnuSeries):
        return _u_entry_val(e, self.n_level)

    def clear(self, op, T: SMat, row, col, rest):
        """C_j -= (T[row][j] / pivot) C_col for each j in ``rest``, each
        quotient computed where a row of T or P reads it: one unit inverse
        of the pivot for all, none when only an unread P reads them."""
        self.divide = divide = _u_divider(T.a[row][col], self.n_level, self.window) if rest else None
        others = _other_rows(T, row)
        for j in rest:
            op(SMat.addmul_col_by, j, col, cache(lambda a=T.a[row][j]: -divide(a)), rows=others)

    def normalize(self, op, T: SMat, row, col, v):
        """Scale the pivot column by mu / pivot, so the pivot becomes mu.
        The factor is computed where a row reads it; the last pivot of a
        full-rank echelon has exact zeros above it, so its unit inverse is
        left to P's replay."""
        mu = mu_monomial(T.cfg, T.slope, _valuation_index(v, T.slope), T.ram)
        divide = self.divide or _u_divider(T.a[row][col], self.n_level, self.window)
        op(SMat.scale_col_by, col, cache(lambda: divide(mu)), rows=_other_rows(T, row))
        T.a[row][col] = mu  # structurally exact after unit scaling

    def reduce(self, op, T: SMat, row, col, v):
        """Entries left of the pivot to canonical residues: certain digits
        of level < v only."""
        mu_inv = None
        others = _other_rows(T, row)
        for j in range(col):
            low, high = T.a[row][j].split_levels(v)
            if high.coeffs:
                # the pivot is mu_m itself: dividing by it needs no unit inverse
                mu_inv = mu_inv or _monomial_inverse(T.a[row][col])
                op(SMat.addmul_col, j, col, -(high * mu_inv).truncate_u(self.window), rows=others)
                T.a[row][j] = low  # the canonical residue, structurally

    def finish(self, T: SMat):
        for r in T.a:
            r[:] = [e.truncate_u(self.window) for e in r]


def _other_rows(T: SMat, row) -> list:
    """Every row of T but the pivot row, whose entries the step sets."""
    return [r for r in range(T.rows) if r != row]


def hnf_u(M: SMat, n_level, hnf=True) -> Echelon:
    """Echelon / Hermite form over the u-localization DVR.

    Pivots become the canonical valuation monomials mu_{m_i}; in Hermite
    form the entries on pivot rows are canonical residues (certain digits
    of level < m_i/alpha only).  Entries count as zero when they vanish at
    the working level precision ``n_level``.
    """
    return _echelon(M, _USide(M, n_level), hnf=hnf)


def member_u(vec, M: SMat, n_level):
    """Coordinates X with M.X = vec over the u-localization DVR, or None."""
    ech = hnf_u(M, n_level)
    y = _u_coordinates(vec, M, ech, n_level)
    return None if y is None else ech.P.apply_to_vector(y)


def _u_coordinates(vec, M: SMat, ech: Echelon, n_level):
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
    return _kernel(M, hnf_u(M, n_level, hnf=False), lambda e: _u_entry_val(e, n_level) is None)


def saturation_u(B: SMat, n_level) -> SMat:
    """Columns spanning the saturation of the column span of B over the
    u-localization DVR, E-span cap O^d.  With T = B^t.P the column echelon
    of B^t, U = P^t is invertible and U.B vanishes below its first ``rank``
    rows, so the first ``rank`` columns of U^-1 = (P^-1)^t span it."""
    Bt = SMat(B.cfg, B.slope, [list(r) for r in zip(*B.a)], B.ram)
    ech = _echelon(Bt, _USide(Bt, n_level), normalize=False)
    Q = ech.inverse_transpose()
    return SMat.from_columns(B.cfg, B.slope, B.rows, [Q.col(j) for j in range(ech.rank)], B.ram)


# ---------------------------------------------------------------------------
# module arithmetic over one localization (a sum is the Hermite form of the
# concatenation: ``pairrep.pair_max_sum``)
# ---------------------------------------------------------------------------


def _concat(M: SMat, M2: SMat) -> SMat:
    if M.rows != M2.rows:
        raise BadParameters("ambient dimensions differ")
    return SMat(M.cfg, M.slope, [M.a[i] + M2.a[i] for i in range(M.rows)], M.ram)


def module_intersect(M: SMat, M2: SMat, loc: str, prec) -> SMat:
    """Generators of the intersection via syzygies of the concatenation."""
    C = _concat(M, M2)
    kern = kernel_pi(C) if loc == "pi" else kernel_u(C, prec)
    gens = [M.apply_to_vector(col[: M.cols]) for col in kern]
    cols = [g for g in gens if any(e.has_certain_digit() for e in g)]
    return SMat.from_columns(M.cfg, M.slope, M.rows, cols, M.ram)
