"""Precision lattices: what is unknown about a series.

A lattice describes what is *unknown* about a series: the R-submodule

    sum_{i < u_prec} pi^{p_i} (u^i / pi^{floor(i nu)}) R
        + sum_{i >= u_prec} (u^i / pi^{floor(i nu)}) R.

Each exponent carries its *level* bound (the smallest possible
v(a_i) + nu*i of an unknown term, = p_i + frac(i nu)).  Only these
monomial-diagonal lattices are representable.  The library builds the flat
one (p_i = p_pi for every i < p_u), and ``precise_sum.approx_max_sum``
reduces its inputs modulo it with ``reduce_series``.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import INF, _isinf
from .contfrac import Slope
from .errors import SlopeMismatch
from .series import SnuSeries, _floor


class PrecisionLattice:
    __slots__ = ("slope", "u_prec", "levels")

    def __init__(self, slope: Slope, u_prec, levels):
        self.slope = slope
        self.u_prec = u_prec
        self.levels = {i: Fraction(v) for i, v in levels.items() if not _isinf(v)}

    @classmethod
    def flat(cls, slope: Slope, p_u: int, p_pi) -> "PrecisionLattice":
        nu = slope.nu
        levels = {i: p_pi + _frac(nu * i) for i in range(p_u)}
        return cls(slope, p_u, levels)

    def level(self, i: int) -> Fraction:
        """Lower bound on the level of the unknown part at exponent i."""
        if i in self.levels:
            return self.levels[i]
        if i < self.u_prec:
            return INF  # exact coefficient
        return _frac(self.slope.nu * i)


def _frac(x: Fraction) -> Fraction:
    return Fraction(x) - _floor(x)


def reduce_series(x: SnuSeries, P: PrecisionLattice) -> SnuSeries:
    """The representative of x modulo the lattice P."""
    if x.slope != P.slope:
        raise SlopeMismatch("series/lattice slope mismatch")
    up = min(x.u_prec, P.u_prec)
    nu = x.nu
    out = {}
    for i, c in x.coeffs.items():
        if not _isinf(up) and i >= up:
            continue
        lv = P.level(i)
        if _isinf(lv):
            out[i] = c
            continue
        abs_w = _floor(x.ram * (lv - nu * i))
        cc = c.reduce_abs_w(abs_w)
        if cc.is_exact_zero():
            continue
        if not cc.has_witness() and cc.val_lower() + nu * i >= lv:
            # no information beyond what the lattice already withholds:
            # the canonical representative stores nothing here
            continue
        out[i] = cc
    tb = None if _isinf(up) else Fraction(0)
    return SnuSeries(x.cfg, x.slope, out, up, tb, ram=x.ram)
