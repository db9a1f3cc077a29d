"""Maximal modules up to quasi-isomorphism.

The reduction works on a triple (M, R, L): M holds generator columns, R a
full-rank chunk of their relations (M.R = 0 holds *plainly* throughout), and
L[j] is the w-exponent making  g_j = w^{L[j]} C_j(M)  the actual generator
(w^alpha = pi).  Scaled data never leaves the plain matrices: the relation
coefficient on g_j is  w^{-L[j]} r_j , so its effective valuation is
vt_j = v_nu(r_j) - L[j]/alpha.

Bookkeeping reconciliation (the printed sources mix signs): the division
eligibility test compares the scaled valuations  vt_j  (minus sign, as in
the vector-addition variant of the algorithm); the enlargement step picks
the unique maximal-degree entry j0 (which then has strictly minimal vt),
moves the integer part of  delta = min_{j != j0} vt_j - vt_j0  into the
matrices (column j0 of M divided by pi^floor(delta), row j0 of R multiplied
by it) and the fractional remainder into L[j0] (an integer number of
w-units), so L stays integral and M.R = 0 is preserved verbatim.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import CoeffElem, _isinf
from .contfrac import GenSchedule, Slope, monomial_generators
from .errors import (
    BadParameters,
    BudgetExhausted,
    CertificateViolation,
    NonTermination,
    PrecisionExhausted,
    SlopeOrder,
)
from .localized import SMat, kernel_pi, member_pi, member_u
from .series import SnuSeries, _ceil, _floor, euclid_div_full


class MLModule:
    """A free module over the ramified extension of the slope ring, encoded
    by S_nu-columns plus per-column w-exponents in [0, alpha)."""

    __slots__ = ("cfg", "slope", "dim", "columns", "L", "ram")

    def __init__(self, cfg, slope, dim, columns, L, ram=1):
        self.cfg = cfg
        self.slope = slope
        self.dim = dim
        self.columns = [list(c) for c in columns]
        self.L = list(L)
        self.ram = ram
        for x in self.L:
            if not 0 <= x < slope.alpha:
                raise BadParameters(f"w-exponent {x} outside [0, alpha)")

    def as_matrix(self) -> SMat:
        return SMat.from_columns(self.cfg, self.slope, self.dim, self.columns, self.ram)

    def schedules(self):
        """Per column, the monomial generator schedule of
        w^L[i] * (extension ring) intersected with the slope ring: the
        monomials of v_nu >= L[i]/alpha, whose pi exponents are
        ceil(L[i]/alpha - x*nu)."""
        alpha = self.slope.alpha
        return [
            GenSchedule(monomial_generators(self.slope, -delta % alpha).sequences, self.slope, -delta)
            for delta in self.L
        ]

    def expand_generators(self) -> SMat:
        """Generators of the underlying maximal module over the slope ring:
        one monomial multiple of each column per schedule entry."""
        cols = []
        for col, sched in zip(self.columns, self.schedules()):
            for (a, b) in sched.pairs():
                mono = SnuSeries.monomial(
                    self.cfg, self.slope, a,
                    CoeffElem.from_int(self.cfg, 1, ram=self.ram).scale_pi(b),
                )
                cols.append([mono * e for e in col])
        return SMat.from_columns(self.cfg, self.slope, self.dim, cols, self.ram)

    def __repr__(self):
        mat = self.as_matrix()
        return f"MLModule(M={mat!r}, L={self.L})"


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def relations_approx(M: SMat) -> SMat:
    """A full-rank matrix R of S_nu-relations of the columns of M with
    pi-power cofinite index in the full syzygy module: the pi-localized
    kernel with denominators cleared per column."""
    return SMat.from_columns(M.cfg, M.slope, M.cols, kernel_pi(M), M.ram)


# ---------------------------------------------------------------------------
# the reduction
# ---------------------------------------------------------------------------


def _entry_data(e: SnuSeries):
    """(v, deg) of a nonzero relation entry, or None for zero (raises on
    ambiguity)."""
    if e.is_exact_zero():
        return None
    if not e.has_certain_digit():
        raise PrecisionExhausted("entry is ambiguous at working precision")
    return e.certified_val_deg()


def matrix_reduction(M: SMat, R: SMat, prec, L=None, trace=None):
    """Put the relation matrix in staircase form by quasi-isomorphisms.

    Returns (M1, R1, L1) with M1.R1 = 0; the columns of M1 whose R1-row is
    zero carry (with their L1 exponents) a basis of the maximal module of
    the span over the ramified extension.  ``trace``, when a list, collects
    (M, R) snapshots after every elementary operation.
    """
    cfg, slope = M.cfg, M.slope
    alpha = slope.alpha
    M = M.copy()
    R = R.copy()
    k = M.cols
    if R.rows != k:
        raise BadParameters("R must have one row per column of M")
    L = list(L) if L is not None else [0] * k

    def snapshot():
        if trace is not None:
            trace.append((M.copy(), R.copy()))

    snapshot()
    budget = _iteration_budget(R, alpha)
    steps = 0
    free_rows = set(range(k))
    for t in range(R.cols):
        while True:
            data = {}
            for j in sorted(free_rows):
                d = _entry_data(R.a[j][t])
                if d is not None:
                    data[j] = d
            if len(data) <= 1:
                break
            vt = {j: data[j][0] - Fraction(L[j], alpha) for j in data}
            pair = _pick_pair(data, vt)
            if pair is None:
                # enlargement: unique max-degree entry has minimal scaled
                # valuation; raise it to the second minimum
                j0 = max(data, key=lambda j: (data[j][1], -j))
                delta = min(v for j, v in vt.items() if j != j0) - vt[j0]
                if delta <= 0:
                    raise CertificateViolation(f"enlargement gap delta = {delta} is not positive")
                d_int = _floor(delta)
                shift = alpha * (delta - d_int)
                if shift.denominator != 1:
                    raise BadParameters(
                        f"enlargement shift alpha*(delta - floor(delta)) = {shift} "
                        "is not a whole number of w-units"
                    )
                frac_w = int(shift)
                if d_int:
                    for c in range(M.rows):
                        M.a[c][j0] = M.a[c][j0].scale_pi(-d_int)
                    for c in range(R.cols):
                        R.a[j0][c] = R.a[j0][c].scale_pi(d_int)
                L[j0] -= frac_w
                snapshot()
            else:
                j0, j1 = pair
                v0, v1 = data[j0][0], data[j1][0]
                if v0 > v1:
                    d0 = _ceil(v0 - v1)
                    for c in range(R.cols):
                        R.a[j1][c] = R.a[j1][c].scale_pi(d0)
                    for c in range(M.rows):
                        M.a[c][j1] = M.a[c][j1].scale_pi(-d0)
                    L[j1] += alpha * d0
                res = euclid_div_full(R.a[j1][t], R.a[j0][t], prec)
                q = res.q
                M.addmul_col(j0, j1, q)
                for c in range(R.cols):
                    R.a[j1][c] = R.a[j1][c].addmul(-1, q, R.a[j0][c])
                R.a[j1][t] = res.r  # the division's own remainder, structurally
                snapshot()
            steps += 1
            if steps > budget:
                raise NonTermination(
                    f"matrix reduction exceeded its iteration budget 10*mass+50 = {budget} steps"
                )
        if data:
            (jstar,) = data.keys()
            # r_{jstar,t} * g_jstar = 0 and the span is torsion free, so the
            # generator column is exactly zero
            z = SnuSeries.zero(cfg, slope, M.ram)
            for c in range(M.rows):
                M.a[c][jstar] = z
            for c in range(t + 1, R.cols):
                R.a[jstar][c] = z
            free_rows.discard(jstar)
            snapshot()
    return M, R, L


def _pick_pair(data, vt):
    """The Euclidean step of both reductions: the lexicographically smallest
    (j0, j1) of nonzero entries (data[j] = (v, deg)) whose scaled valuation
    vt and degree at j0 are at most those at j1; None when there is none."""
    best = None
    for j0 in data:
        for j1 in data:
            if j0 == j1:
                continue
            if vt[j0] <= vt[j1] and data[j0][1] <= data[j1][1]:
                key = (data[j0][1], vt[j0], j0, data[j1][1], vt[j1], j1)
                if best is None or key < best[0]:
                    best = (key, (j0, j1))
    return best[1] if best else None


def _iteration_budget(R: SMat, alpha) -> int:
    """10*mass+50 Euclidean steps, where the mass of R adds deg + 1 and
    alpha*ceil(level) (for a positive level) over its nonzero entries."""
    mass = 0
    for row in R.a:
        for e in row:
            if e.is_exact_zero():
                continue
            d = e.max_deg()
            mass += (d or 0) + 1
            lb = e.lower_bound()
            if not _isinf(lb) and lb > 0:
                mass += int(alpha * _ceil(lb))
    return 10 * mass + 50


# ---------------------------------------------------------------------------
# Max and friends
# ---------------------------------------------------------------------------


def max_module(M: SMat, prec) -> MLModule:
    """The maximal module of the column span, as an MLModule over the
    ramified extension; its ``schedules()`` realize the intersection with
    the base ring."""
    return _reduce_to_ml(M, None, prec)


def _reduce_to_ml(M: SMat, L, prec) -> MLModule:
    """Relations of the columns of M, the matrix reduction of (M, R, L) and
    the columns it frees."""
    M1, R1, L1 = matrix_reduction(M, relations_approx(M), prec, L)
    return _assemble_ml(M1, R1, L1)


def _assemble_ml(M1: SMat, R1: SMat, L1) -> MLModule:
    cfg, slope = M1.cfg, M1.slope
    alpha = slope.alpha
    cols, Ls = [], []
    for j in range(M1.cols):
        if any(e.has_certain_digit() for e in R1.a[j]):
            continue
        col = [M1.a[i][j] for i in range(M1.rows)]
        if all(e.is_exact_zero() for e in col):
            continue
        q, delta = divmod(L1[j], alpha)
        col = [e.scale_pi(q) for e in col]
        cols.append(col)
        Ls.append(delta)
    return MLModule(cfg, slope, M1.rows, cols, Ls, M1.ram)


def _pi_denominator(entries) -> int:
    """The least n >= 0 with no negative level left in pi^n times any entry."""
    lows = (e.lower_bound() for e in entries)
    return max((_ceil(-lb) for lb in lows if lb < 0), default=0)


def _u_denominator(entries, alpha) -> int:
    """The least n >= 0 with no negative u exponent left in u^(alpha*n)
    times any entry."""
    lows = (e.min_exp() for e in entries)
    return max((_ceil(Fraction(-lo, alpha)) for lo in lows if lo is not None and lo < 0), default=0)


def qis_closure_member(x, M: SMat, n_budget: int, prec) -> bool:
    """Membership of x in the maximal module of the span of M, tested via
    the two localizations with the power witnesses capped at n_budget."""
    Xp = member_pi(x, M, prec)
    if Xp is None:
        return False
    Xu = member_u(x, M, prec)
    if Xu is None:
        return False
    n = max(_pi_denominator(Xp), _u_denominator(Xu, M.slope.alpha))
    if n > n_budget:
        raise BudgetExhausted(f"membership witness needs power {n} > {n_budget}")
    return True


def max_sum_ml(A: MLModule, B: MLModule, prec) -> MLModule:
    """The maximal sum, computed by reducing the concatenated (M, L) data."""
    if A.slope != B.slope or A.dim != B.dim:
        raise BadParameters("summands live in different ambients")
    M = SMat.from_columns(A.cfg, A.slope, A.dim, A.columns + B.columns, A.ram)
    return _reduce_to_ml(M, A.L + B.L, prec)


def scalar_extend(A: MLModule, nu2: Slope) -> MLModule:
    """Base change to a bigger slope: per column the new w'-exponent is the
    minimum of b + nu'*a over the schedule endpoints (the level sequence is
    arithmetic along each subsequence, so endpoints suffice)."""
    if nu2.nu < A.slope.nu:
        raise SlopeOrder(f"target slope {nu2} below {A.slope}")
    if nu2 == A.slope:
        return MLModule(A.cfg, A.slope, A.dim, A.columns, A.L, A.ram)
    alpha2 = nu2.alpha
    cols, Ls = [], []
    for col, sched in zip(A.columns, A.schedules()):
        m = min(
            Fraction(sched.pi_exponent(a)) + nu2.nu * a
            for a in sched.endpoint_values()
        )
        q = _floor(m)
        delta2 = int(alpha2 * (m - q))
        new_col = [_reslope(e, nu2).scale_pi(q) for e in col]
        cols.append(new_col)
        Ls.append(delta2)
    return MLModule(A.cfg, nu2, A.dim, cols, Ls, A.ram)


def _reslope(e: SnuSeries, nu2: Slope) -> SnuSeries:
    """Reinterpret a series with non-negative support at a bigger slope.

    Unknown-tail levels lift by at least u_prec * (nu' - nu): this is the
    slope-bump effect that restores valuation certificates on truncated
    data."""
    tb = e.tail_bound
    if not _isinf(tb) and not _isinf(e.u_prec):
        tb = tb + e.u_prec * (nu2.nu - e.nu)
    return SnuSeries(e.cfg, nu2, dict(e.coeffs), e.u_prec, tb, ram=e.ram)
