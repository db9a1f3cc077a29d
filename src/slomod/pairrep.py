"""The two-localization representation of maximal modules.

A maximal module is pinned down by the pair (M_pi, M_u) of its
localizations in Hermite Normal Form; the pair is in the image of the
correspondence exactly when both components generate the same vector space
over the common fraction-type field E.  At full rank each triangular
component spans E^d by its shape; below it B is its own u-side echelon.
Intersections and maximal sums act componentwise (a sum with one Hermite
form per side); saturation touches only the u component; conversions to and
from the (M, L) form go through determinant scalings and the matrix
reduction.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import CoeffElem
from .errors import BadParameters, NotFullRank, NotInImage
from .localized import (
    Echelon,
    SMat,
    _concat,
    _substitute,
    _u_coordinates,
    _u_window,
    hnf_pi,
    hnf_u,
    module_intersect,
    mu_monomial,
    saturation_u,
    u_divide,
)
from .maxmod import MLModule, _pi_denominator, _reduce_to_ml, _u_denominator, max_module
from .series import SnuSeries, _ceil


class LocalPair:
    """HNF matrices of the two localizations of one maximal module."""

    __slots__ = ("cfg", "slope", "dim", "A", "B", "a_rows", "b_rows", "b_vals", "ram")

    def __init__(self, cfg, slope, dim, A, B, a_rows, b_rows, b_vals, ram=1):
        self.cfg = cfg
        self.slope = slope
        self.dim = dim
        self.A = A
        self.B = B
        self.a_rows = list(a_rows)
        self.b_rows = list(b_rows)
        self.b_vals = list(b_vals)
        self.ram = ram

    @property
    def rank(self) -> int:
        return len(self.a_rows)

    def equal(self, other: "LocalPair") -> bool:
        """Structural comparison of the canonical forms (HNF uniqueness)."""
        if (
            self.dim != other.dim
            or self.slope != other.slope
            or self.a_rows != other.a_rows
            or self.b_rows != other.b_rows
            or self.b_vals != other.b_vals
            or self.A.cols != other.A.cols
            or self.B.cols != other.B.cols
        ):
            return False
        for i in range(self.dim):
            for j in range(self.A.cols):
                if not self.A.a[i][j].digits_agree(other.A.a[i][j]):
                    return False
            for j in range(self.B.cols):
                if not self.B.a[i][j].digits_agree(other.B.a[i][j]):
                    return False
        return True

    def __repr__(self):
        return f"LocalPair(A={self.A!r}, B={self.B!r})"


def _pair_from_hnfs(cfg, slope, dim, ep: Echelon, eu: Echelon, ram=1) -> LocalPair:
    A = SMat.from_columns(cfg, slope, dim, [ep.T.col(j) for j in range(ep.rank)], ram)
    B = SMat.from_columns(cfg, slope, dim, [eu.T.col(j) for j in range(eu.rank)], ram)
    return LocalPair(cfg, slope, dim, A, B, ep.pivot_rows, eu.pivot_rows, eu.pivot_vals, ram)


def psi(m, prec) -> LocalPair:
    """Localize a maximal module (MLModule, or a generator matrix which is
    first maximalized) into its canonical HNF pair."""
    if isinstance(m, SMat):
        m = max_module(m, prec)
    plain = m.as_matrix()
    ep = hnf_pi(plain, prec)
    u_cols = []
    for col, delta in zip(m.columns, m.L):
        mu = mu_monomial(m.cfg, m.slope, delta, m.ram)
        u_cols.append([mu * e for e in col])
    eu = hnf_u(SMat.from_columns(m.cfg, m.slope, m.dim, u_cols, m.ram), prec)
    return _pair_from_hnfs(m.cfg, m.slope, m.dim, ep, eu, m.ram)


def _e_divide(a: SnuSeries, b: SnuSeries, n_level, hi_window) -> SnuSeries:
    """a / b in the field E: pi-rescale until the DVR division applies."""
    vb = b.certified_valuation()
    lb = a.lower_bound()
    s = max(0, _ceil(vb - lb))
    return u_divide(a.scale_pi(s), b, n_level, hi_window).scale_pi(-s)


def _e_membership(vec, M: SMat, ech, prec) -> bool:
    """Is vec in the E-span of the columns of M (u-side echelon ``ech``)?
    Tested over the DVR after clearing a pi power bounded by the total
    pivot valuation."""
    shift = _ceil(sum(ech.pivot_vals, Fraction(0))) + 1 + _pi_denominator(vec)
    scaled = [e.scale_pi(shift) for e in vec]
    return _u_coordinates(scaled, M, ech, prec) is not None


def verify_image_condition(P: LocalPair, prec) -> bool:
    """Both components generate the same E-vector space.  A pi-side Hermite
    form has a nonzero pivot on each column, so A's columns are
    E-independent: with as many columns as B, A inside the E-span of B
    already makes the spans equal, and only A's generators are tested for
    membership.  B, a stored u-side Hermite form, is its own echelon, so
    nothing is echeloned (``psi_inverse`` needs no test at full rank, see
    ``_check_triangular``)."""
    if P.A.cols != P.B.cols:
        return False
    ech = Echelon(P.B, [], P.b_rows, P.b_vals)
    return all(_e_membership(P.A.col(j), P.B, ech, prec) for j in range(P.A.cols))


def psi_inverse(P: LocalPair, prec):
    """Generators over the slope ring of the unique preimage A cap B.

    Full-rank pairs go through the determinant recipe directly, with no
    membership test (``_check_triangular``); lower rank is reduced to the
    full-rank case in the coordinates of the pi basis.
    """
    if P.A.cols != P.B.cols:
        raise NotInImage("the two components have different ranks")
    if P.rank == P.dim:
        ml = pair_to_ml(P, prec)
        return ml.expand_generators(), ml
    if not verify_image_condition(P, prec):
        raise NotInImage("the two components span different E-subspaces")
    # coordinates w.r.t. the pi-side basis: solve A * Y = B over E
    hi_window = _u_window([e for M in (P.A, P.B) for r in M.a for e in r], prec, P.slope)

    def divide(i, e):
        return _e_divide(e, P.A.a[P.a_rows[i]][i], prec, hi_window) if e.has_certain_digit() else None

    Y_cols = [_substitute(P.B.col(j), P.A, enumerate(P.a_rows), divide)[0] for j in range(P.B.cols)]
    r = P.rank
    ep = Echelon(SMat.identity(P.cfg, P.slope, r, P.ram), [], list(range(r)))
    eu = hnf_u(SMat.from_columns(P.cfg, P.slope, r, Y_cols, P.ram), prec)
    ml_c = pair_to_ml(_pair_from_hnfs(P.cfg, P.slope, r, ep, eu, P.ram), prec)
    # map coordinate generators back through the basis
    M = P.A.matmul(ml_c.expand_generators())
    return M, max_module(M, prec)


def pair_intersect(P: LocalPair, Q: LocalPair, prec) -> LocalPair:
    """Componentwise intersection (the intersection of maximal modules is
    maximal, so no closure pass is needed)."""
    return _componentwise(module_intersect, P, Q, prec)


def pair_max_sum(P: LocalPair, Q: LocalPair, prec) -> LocalPair:
    """Componentwise sum, the pair of the maximal sum: one Hermite form of
    each concatenated side, whose first ``rank`` columns span the sum."""
    return _componentwise(lambda M, M2, loc, prec: _concat(M, M2), P, Q, prec)


def _componentwise(op, P: LocalPair, Q: LocalPair, prec) -> LocalPair:
    """The pair of Hermite forms of op on each localization of P and Q."""
    if P.dim != Q.dim or P.slope != Q.slope:
        raise BadParameters("pairs live in different ambients")
    ep = hnf_pi(op(P.A, Q.A, "pi", prec), prec)
    eu = hnf_u(op(P.B, Q.B, "u", prec), prec)
    return _pair_from_hnfs(P.cfg, P.slope, P.dim, ep, eu, P.ram)


def saturate(P: LocalPair, prec) -> LocalPair:
    """The pi-divisible closure: the pi component is unchanged; the u
    component becomes the saturation of its span, E-span cap O^d (the
    identity for full rank)."""
    if P.rank == P.dim:
        ident = SMat.identity(P.cfg, P.slope, P.dim, P.ram)
        eu = Echelon(ident, [], list(range(P.dim)), [Fraction(0)] * P.dim)
    else:
        eu = hnf_u(saturation_u(P.B, prec), prec)
    return _pair_from_hnfs(P.cfg, P.slope, P.dim, Echelon(P.A, [], P.a_rows), eu, P.ram)


def pair_to_ml(P: LocalPair, prec) -> MLModule:
    """The (M, L) representation of a full-rank pair: scale each side by the
    opposite determinant, concatenate, reduce.

    At full rank both Hermite forms are lower-triangular with a certain
    pivot on every row, so det A is the product of A's diagonal and
    v(det B) = sum(b_vals); a pair of any other shape is rejected."""
    if P.rank != P.dim:
        raise NotFullRank("pair_to_ml needs a full-rank pair")
    _check_triangular(P)
    alpha = P.slope.alpha
    # clear denominators
    a_shift = _pi_denominator(e for row in P.A.a for e in row)
    A = P.A.map(lambda e: e.scale_pi(a_shift))
    u_shift = _u_denominator((e for row in P.B.a for e in row), alpha)
    B = P.B
    if u_shift:
        c = CoeffElem.from_int(P.cfg, 1, ram=P.ram).scale_pi(-P.slope.beta * u_shift)
        xa = SnuSeries.monomial(P.cfg, P.slope, alpha * u_shift, c)
        B = B.map(lambda e: e * xa)
    # the u-side determinant only enters through a pi power that pushes the
    # pi-basis into the u-span; with monomial pivots we take the power
    # directly (ceil of the determinant valuation; xa has valuation 0)
    D_u = SnuSeries.one(P.cfg, P.slope, P.ram).scale_pi(_ceil(sum(P.b_vals, Fraction(0))))
    D_pi_raw = SnuSeries.one(P.cfg, P.slope, P.ram)
    for i in reversed(range(P.dim)):
        D_pi_raw = A.a[i][i] * D_pi_raw
    v_dpi = D_pi_raw.certified_valuation()
    w_exp = int(alpha * v_dpi)
    cols = []
    L = []
    for j in range(A.cols):
        cols.append([D_u * A.a[i][j] for i in range(A.rows)])
        L.append(0)
    for j in range(B.cols):
        cols.append([D_pi_raw * B.a[i][j] for i in range(B.rows)])
        L.append(-w_exp)
    M = SMat.from_columns(P.cfg, P.slope, P.dim, cols, P.ram)
    return _reduce_to_ml(M, L, prec)


def _check_triangular(P: LocalPair):
    """Both components square lower-triangular with a certain pivot digit in
    column i on row i: a full-rank pair, each component spanning E^d.  A is
    exact above its diagonal; hnf_u may leave a digit-free O-term there in B
    (zero at the working level), so only a certain digit rejects B."""
    n = P.dim
    if P.a_rows != list(range(n)) or P.b_rows != list(range(n)):
        raise BadParameters("full-rank pair without a pivot on every row")
    for M, nonzero in ((P.A, lambda e: not e.is_exact_zero()), (P.B, SnuSeries.has_certain_digit)):
        if M.rows != n or M.cols != n or any(
            nonzero(M.a[i][j]) for i in range(n) for j in range(i + 1, n)
        ):
            raise BadParameters("full-rank pair component is not lower-triangular")
        if not all(M.a[i][i].has_certain_digit() for i in range(n)):
            raise BadParameters("full-rank pair component has a pivot with no certain digit")
