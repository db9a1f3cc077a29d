"""Precision-safe maximal sums: the vector-addition reduction and the
slope-bump pipeline.

Finite-precision inputs cannot support a stable maximal sum at the original
slope (that would contain a stable gcd).  Under the extra hypothesis that
the second module lies in pi^-c times the first, bumping the slope to
nu' = nu + e*c/p_u makes every truncated tail absorbable; the sum of the
slope-extended modules is then computable from the truncated data alone,
and the output is independent of which representatives were supplied.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import INF, _isinf
from .contfrac import Slope
from .errors import (
    BadCoefficients,
    BadParameters,
    CertificateViolation,
    NonTermination,
    PrecisionExhausted,
)
from .localized import _NOT_IN_SPAN, SMat, _substitute, member_pi
from .maxmod import MLModule, _assemble_ml, _entry_data, _pick_pair, _reslope
from .precision import PrecisionLattice, reduce_series
from .series import SnuSeries, _ceil, divide_by_unit, euclid_div_full


class GapCertificate:
    """Caller-supplied promise that the second module lies in pi^-c times
    the first, at flat input precision (p_u, p_pi).  With e generator
    columns in the second module, the working slope becomes nu + e*c/p_u."""

    __slots__ = ("c", "p_u", "p_pi")

    def __init__(self, c: int, p_u: int, p_pi: int):
        if c < 0 or p_u < 1 or p_pi < 1:
            raise BadParameters("inconsistent gap certificate")
        self.c = c
        self.p_u = p_u
        self.p_pi = p_pi

    def bumped_slope(self, slope: Slope, e: int) -> Slope:
        return Slope.from_fraction(slope.nu + Fraction(e * self.c, self.p_u))


def add_vector(M: SMat, lambdas, prec, p_u, L):
    """Generators of (span of M) +_max t for t = sum lambda_i C_i(M).

    The lambda_i are polynomials with possibly negative valuation; Euclidean
    reductions consolidate them (mirrored on the columns of M) and each
    rebalance divides one generator by a w power, certified by the relation
    itself.  Terminates when every scaled coefficient
    v_nu(lambda_j) - L[j]/alpha is >= 0, i.e. t lies in the scaled span.
    Returns the raw (M, L) pair (L integers of any sign).
    """
    alpha = M.slope.alpha
    h = M.cols
    if len(lambdas) != h:
        raise BadParameters("one lambda per generator column")
    lambdas = list(lambdas)
    for lam in lambdas:
        if not lam.is_polynomial():
            raise BadCoefficients("lambda coefficients must be polynomials")
        if lam.max_deg() is not None and lam.max_deg() >= p_u:
            raise BadCoefficients(f"lambda degree exceeds {p_u - 1}")
    M = M.copy()
    L = list(L)

    def data():
        out = {j: _entry_data(lam) for j, lam in enumerate(lambdas)}
        return {j: d for j, d in out.items() if d is not None}

    budget = _addition_budget(lambdas)
    exhausted = f"vector addition exceeded its budget 40*sum+60 = {budget} steps"
    steps = 0
    while True:
        d = data()
        vt = {j: d[j][0] - Fraction(L[j], alpha) for j in d}
        if all(v >= 0 for v in vt.values()):
            break
        # Euclidean consolidation
        while True:
            pair = _pick_pair(d, vt)
            if pair is None:
                break
            j0, j1 = pair
            v0, v1 = d[j0][0], d[j1][0]
            if v0 > v1:
                d0 = _ceil(v0 - v1)
                lambdas[j0] = lambdas[j0].scale_pi(-d0)
                for r in range(M.rows):
                    M.a[r][j0] = M.a[r][j0].scale_pi(d0)
                L[j0] -= alpha * d0
            res = euclid_div_full(lambdas[j1], lambdas[j0], prec)
            M.addmul_col(j0, j1, res.q)
            lambdas[j1] = res.r
            d = data()
            vt = {j: d[j][0] - Fraction(L[j], alpha) for j in d}
            steps += 1
            if steps > budget:
                raise NonTermination(exhausted)
        if not d:
            break
        j0 = min(d, key=lambda j: (vt[j], j))
        others = [vt[j] for j in d if j != j0]
        target = min(min(others) if others else Fraction(0), Fraction(0))
        if vt[j0] >= target:
            break
        L[j0] = int(alpha * (d[j0][0] - target))
        steps += 1
        if steps > budget:
            raise NonTermination(exhausted)
    return M, L


def _addition_budget(lambdas) -> int:
    """40*sum+60 steps, the sum running over deg + 2 of each lambda."""
    return 40 * sum((lam.max_deg() or 0) + 2 for lam in lambdas) + 60


def approx_max_sum(M1: SMat, M2: SMat, cert: GapCertificate, prec) -> MLModule:
    """Approximation of the maximal sum of the two slope-bumped modules.

    Inputs are flat (p_u, p_pi) approximations; they are first reduced to
    canonical class representatives, so the output depends only on the
    approximation classes.  Each generator t of the second module is
    decomposed over the first (CertificateViolation when a certified
    coefficient valuation drops below -c), its polynomial part added by the
    vector-addition reduction at the bumped slope, the tail absorbed by the
    slope bump.
    """
    if M1.slope != M2.slope:
        raise BadParameters("summands live at different slopes")
    cfg, slope = M1.cfg, M1.slope
    nu2 = cert.bumped_slope(slope, M2.cols)
    flat = PrecisionLattice.flat(slope, cert.p_u, cert.p_pi)
    M1 = M1.map(lambda e: reduce_series(e, flat))
    M2 = M2.map(lambda e: reduce_series(e, flat))
    # move to the bumped slope first: tails lift by p_u*(nu'-nu) = e*c, which
    # is what absorbs every truncated tail into the base module
    M1b = SMat(cfg, nu2, [[_reslope(e, nu2) for e in row] for row in M1.a], M1.ram)
    M2b = SMat(cfg, nu2, [[_reslope(e, nu2) for e in row] for row in M2.a], M2.ram)
    # the decomposition runs against the polynomial parts of the canonical
    # representatives (the t'' tails are exactly what the bump absorbs)
    M1s = M1b.map(_snap_poly)
    cur = M1b.copy()
    L = [0] * M1.cols
    for j in range(M2b.cols):
        t = [_snap_poly(e) for e in M2b.col(j)]
        lams = _solve_pi(M1s, t, prec)
        if lams is None:
            raise CertificateViolation("generator does not lie in the pi-span of the base")
        polys = []
        for lam in lams:
            lb = lam.lower_bound()
            try:
                v = lam.certified_valuation()
            except PrecisionExhausted:
                v = lb
            if v < -cert.c:
                raise CertificateViolation(
                    f"coefficient valuation {v} certifies the gap bound {cert.c} false"
                )
            poly_part = SnuSeries(
                lam.cfg, nu2,
                {i: c for i, c in lam.coeffs.items() if i < cert.p_u},
                ram=lam.ram,
            )
            polys.append(poly_part)
        cur, L = add_vector(cur, polys, prec, p_u=cert.p_u, L=L)
    k = len(L)
    R = SMat.zeros(cfg, nu2, k, 0, M1.ram)
    return _assemble_ml(cur, R, L)


def _snap_poly(e: SnuSeries) -> SnuSeries:
    """The stored-digit polynomial of a truncated representative."""
    return SnuSeries(e.cfg, e.slope, dict(e.coeffs), INF, ram=e.ram)


def _solve_pi(M: SMat, t, prec):
    """Coordinates of t in the pi-span of the columns of M.

    Exact matrices go through the echelon solver; approximate ones must be
    square and upper triangular with degree-zero diagonal pivots (certified)
    so back substitution with pi-shifted unit divisions is total."""
    if M.is_exact() and all(e.is_exact() for e in t):
        return member_pi(t, M, prec)
    if M.rows != M.cols:
        raise PrecisionExhausted("approximate solve needs a square triangular base")
    d = M.rows
    for i in range(d):
        for j in range(i):
            e = M.a[i][j]
            if not e.is_exact_zero():
                raise PrecisionExhausted("approximate solve needs an upper-triangular base")

    def divide(i, e):
        if not e.has_certain_digit():
            return None
        piv = M.a[i][i]
        if len(piv.coeffs) == 1 and piv.is_polynomial():
            # monomial pivot c * u^b: exact shift division
            (b,) = piv.coeffs.keys()
            if any(k < b and cc.has_witness() for k, cc in e.coeffs.items()):
                return _NOT_IN_SPAN
            ee = SnuSeries(
                e.cfg, e.slope,
                {k: cc for k, cc in e.coeffs.items() if k >= b},
                e.u_prec, e.tail_bound, ram=e.ram,
            )
            return ee.shift_u(-b).scale_coeff(piv.coeffs[b].inv())
        vp, dp = piv.certified_val_deg()
        if dp != 0:
            raise PrecisionExhausted("diagonal pivot does not have degree zero")
        s = max(0, _ceil(vp - e.lower_bound()))
        cap = e.u_prec
        if _isinf(cap):
            cap = (e.max_deg() or 0) + (piv.max_deg() or 0) + prec * M.slope.alpha + 8
        return divide_by_unit(e.scale_pi(s), piv, u_prec=cap).scale_pi(-s)

    # back substitution from the last row up: a solved row is never read
    # again, and no residual is left to check
    solved = _substitute(t, M, ((i, i) for i in reversed(range(d))), divide)
    return None if solved is None else solved[0]
