"""slomod: exact linear algebra over rings of pi-adically convergent series.

The package computes with finitely generated modules over the rings of
power series sum a_i u^i whose coefficients satisfy v(a_i) + nu*i >= 0 for a
rational slope nu = beta/alpha: Euclidean division and Weierstrass
preparation, Hermite forms over the two Euclidean localizations and the
u-side saturation, maximal modules up to quasi-isomorphism, continued-fraction
generator schedules, and precision-tracked module sums.
"""

from .coeffs import CoeffElem, FqConfig, RingConfig, ZpConfig
from .contfrac import (
    ContinuedFraction,
    GenSchedule,
    Slope,
    best_approx_denominators,
    cf_expand,
    monomial_generators,
)
from .series import (
    SnuSeries,
    divide_by_unit,
    euclid_div,
    gcd_extended,
    hi_lo_split,
    invert_unit,
    slope_transport,
    weierstrass_prep,
)

__all__ = [
    "CoeffElem",
    "ContinuedFraction",
    "FqConfig",
    "GenSchedule",
    "RingConfig",
    "Slope",
    "SnuSeries",
    "ZpConfig",
    "best_approx_denominators",
    "cf_expand",
    "divide_by_unit",
    "euclid_div",
    "gcd_extended",
    "hi_lo_split",
    "invert_unit",
    "monomial_generators",
    "slope_transport",
    "weierstrass_prep",
]
