"""Continued fractions, positive best approximations, generator schedules.

The enumeration problem solved here: the module N = { x : v_nu(x) >= -delta/alpha }
inside the slope-nu series ring is generated by finitely many monomials
pi^{beta_i} u^{alpha_i}; the u-exponents alpha_i are obtained from the
denominators q with q >= gamma for which min+(nu, q)/q is a positive best
approximation of nu relatively to gamma = delta/beta mod alpha, shifted by
-gamma.  The denominator list is a union of arithmetic sequences whose
common differences are odd-index convergent denominators, so it is emitted
in compact (first, diff, length) form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import BadDelta, BadGamma


class ContinuedFraction:
    """A finite continued fraction [a0; a1, ..., an] with the a_n != 1
    convention, together with its convergents p_k/q_k."""

    def __init__(self, quotients):
        quotients = list(quotients)
        if len(quotients) > 1 and quotients[-1] == 1:
            raise ValueError("final partial quotient must not be 1")
        if any(a < 1 for a in quotients[1:]):
            raise ValueError("partial quotients a_i (i >= 1) must be >= 1")
        self.quotients = quotients
        p, q = [], []
        for k, a in enumerate(quotients):
            if k == 0:
                p.append(a)
                q.append(1)
            elif k == 1:
                p.append(a * p[0] + 1)
                q.append(a)
            else:
                p.append(a * p[k - 1] + p[k - 2])
                q.append(a * q[k - 1] + q[k - 2])
        self.p = p
        self.q = q

    @property
    def n(self) -> int:
        return len(self.quotients) - 1

    def __eq__(self, other):
        return isinstance(other, ContinuedFraction) and self.quotients == other.quotients

    def __repr__(self):
        if not self.quotients:
            return "[]"
        head, *tail = self.quotients
        return f"[{head};{','.join(map(str, tail))}]" if tail else f"[{head}]"


def cf_expand(x) -> ContinuedFraction:
    """Unique expansion of a rational with final partial quotient != 1."""
    x = Fraction(x)
    quotients = []
    while True:
        a = x.numerator // x.denominator
        quotients.append(a)
        frac = x - a
        if frac == 0:
            break
        x = 1 / frac
    if len(quotients) > 1 and quotients[-1] == 1:
        quotients.pop()
        quotients[-1] += 1
    return ContinuedFraction(quotients)


class Slope:
    """A slope nu = beta/alpha >= 0 in lowest terms."""

    __slots__ = ("beta", "alpha", "nu")

    def __init__(self, beta: int, alpha: int):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if beta < 0:
            raise ValueError("negative slopes are not supported")
        if gcd(beta, alpha) != 1 and not (beta == 0 and alpha == 1):
            raise ValueError(f"{beta}/{alpha} not in lowest terms")
        if beta == 0 and alpha != 1:
            raise ValueError("slope 0 must be written 0/1")
        self.beta = beta
        self.alpha = alpha
        self.nu = Fraction(beta, alpha)

    @classmethod
    def from_fraction(cls, x) -> "Slope":
        x = Fraction(x)
        return cls(x.numerator, x.denominator)

    def __eq__(self, other):
        return (
            isinstance(other, Slope)
            and other.beta == self.beta
            and other.alpha == self.alpha
        )

    def __hash__(self):
        return hash((self.beta, self.alpha))

    def __repr__(self):
        return f"{self.beta}/{self.alpha}"


class GenSchedule:
    """A union of finite arithmetic sequences of integers.

    Stored as increasing, disjoint triples (first, diff, length); singleton
    sequences use diff 0.  When ``slope`` and ``delta`` are attached the
    values are generator u-exponents and each value x pairs with the pi
    exponent  ceil(-delta/alpha - x*nu).
    """

    def __init__(self, sequences, slope: Slope | None = None, delta: int | None = None):
        self.sequences = [tuple(s) for s in sequences]
        self.slope = slope
        self.delta = delta

    def values(self):
        out = []
        for first, diff, length in self.sequences:
            out.extend(first + j * diff for j in range(length))
        return out

    def pi_exponent(self, x: int) -> int:
        level = -Fraction(self.delta, self.slope.alpha) - x * self.slope.nu
        return -((-level.numerator) // level.denominator)  # ceil

    def pairs(self):
        """[(u_exponent, pi_exponent)] for every generator monomial."""
        return [(x, self.pi_exponent(x)) for x in self.values()]

    def endpoint_values(self):
        """First and last member of each arithmetic subsequence."""
        out = []
        for first, diff, length in self.sequences:
            out.append(first)
            if length > 1:
                out.append(first + (length - 1) * diff)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GenSchedule)
            and self.values() == other.values()
            and self.slope == other.slope
            and self.delta == other.delta
        )

    def __repr__(self):
        body = " ".join(f"({f},{d},{n})" for f, d, n in self.sequences)
        return f"GenSchedule[{body}]"


def best_approx_denominators(x, gamma: int) -> GenSchedule:
    """Ascending denominators q in [gamma, b] whose min+(x, q)/q is kept by
    the reverse-order positive-best-approximation descent.

    The descent starts at the full denominator b, repeatedly subtracts
    odd-index convergent denominators (emitting each stretch as one
    arithmetic sequence) and skips by even-index denominators, then appends
    gamma.  Runs in O(n), n the length of the continued fraction.
    """
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    if gamma < 1 or gamma > b:
        raise BadGamma(f"gamma = {gamma} out of range [1, {b}]")
    cf = cf_expand(x)
    q = cf.q
    n = cf.n

    sequences = [(b, 0, 1)]
    last = b
    nextqk = n - 2 if (n + 1) % 2 == 0 else n - 1
    while nextqk >= 0:
        if last - q[nextqk] >= gamma:
            lam = (last - q[nextqk] - gamma) // q[nextqk + 1]
            last -= lam * q[nextqk + 1]
        length = (last - gamma) // q[nextqk]
        if length > 0:
            first = last - length * q[nextqk]
            sequences.append((first, q[nextqk], length) if length > 1 else (first, 0, 1))
            last = first
        nextqk -= 2
    if last > gamma:
        sequences.append((gamma, 0, 1))
    sequences.reverse()
    return GenSchedule(sequences)


def monomial_generators(slope: Slope, delta: int) -> GenSchedule:
    """Generator schedule of N = { x : v_nu(x) >= -delta/alpha }.

    Returns the u-exponents alpha_i as a GenSchedule (pi exponents are
    recovered on demand via ``pairs``).  The staircase is minimal: each
    generator has strictly smaller level beta_i + alpha_i*nu than every
    admissible monomial with a smaller u-exponent.
    """
    alpha, beta = slope.alpha, slope.beta
    if not 0 <= delta < alpha:
        raise BadDelta(f"delta = {delta} out of range [0, {alpha})")
    if delta == 0:
        return GenSchedule([(0, 0, 1)], slope, 0)
    gamma = delta * pow(beta, -1, alpha) % alpha
    qs = best_approx_denominators(slope.nu, gamma)
    sequences = [(first - gamma, diff, length) for first, diff, length in qs.sequences]
    return GenSchedule(sequences, slope, delta)
