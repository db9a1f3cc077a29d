"""Exception hierarchy.

Every failure mode has its own class so error names are greppable in CLI
output and golden tests.  ``PrecisionExhausted`` is the generic "cannot
certify this branch from the digits we have" signal: routines that need a
certified valuation or Weierstrass degree raise it instead of guessing.
"""


class AlgebraError(Exception):
    """Base class for all computational-algebra errors in this package."""


class ConfigMismatch(AlgebraError):
    pass


class NotInvertible(AlgebraError):
    pass


class SlopeMismatch(AlgebraError):
    pass


class OutOfRange(AlgebraError):
    pass


class NotDivisible(AlgebraError):
    pass


class NotUnitDegree(AlgebraError):
    pass


class NotUnit(AlgebraError):
    pass


class ValuationOrder(AlgebraError):
    pass


class NotDistinguishedCertificate(AlgebraError):
    pass


class NotDistinguished(AlgebraError):
    pass


class RequiresExactInput(AlgebraError):
    pass


class UncertifiedValuation(AlgebraError):
    pass


class BadParameters(AlgebraError):
    pass


class PrecisionExhausted(AlgebraError):
    pass


class BadGamma(AlgebraError):
    pass


class BadDelta(AlgebraError):
    pass


class NonTermination(AlgebraError):
    pass


class BudgetExhausted(AlgebraError):
    """Membership budget ran out: the answer is *unknown*, not "no"."""


class SlopeOrder(AlgebraError):
    pass


class NotInImage(AlgebraError):
    pass


class NotFullRank(AlgebraError):
    pass


class CertificateViolation(AlgebraError):
    pass


class BadCoefficients(AlgebraError):
    pass


class ParseError(AlgebraError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
