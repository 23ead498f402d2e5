"""Exception hierarchy shared by all polyfract modules.

``ParseError`` and ``ValidationError`` signal malformed input files,
``TooLarge`` a tripped resource guard, and every ``PreconditionError``
subclass a violated operation precondition.  The CLI maps these three
families to distinct exit codes.
"""


class PolyfractError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PolyfractError):
    """Input text could not be parsed."""


class ValidationError(PolyfractError):
    """Parsed input violates a structural constraint."""


class TooLarge(PolyfractError):
    """A guarded search space exceeds its configured limit."""


class PreconditionError(PolyfractError):
    """An operation precondition does not hold."""


class ModulusMismatch(PreconditionError):
    """Operands live in residue rings with different moduli."""


class ArityMismatch(PreconditionError):
    """A point or grid has the wrong number of coordinates."""


class NotADivisor(PreconditionError):
    """Attempted projection onto a modulus that does not divide."""


class ZeroInput(PreconditionError):
    """Zero passed where a nonzero integer is required."""


class NotPrime(PreconditionError):
    """A claimed prime fails the primality check."""


class NotIntegerValued(PreconditionError):
    """A rational polynomial takes non-integer values on the integers."""


class BadVariableIndex(PreconditionError):
    """Variable index out of range for the operand."""


class BadDomain(PreconditionError):
    """The function's domain has the wrong shape for the operation."""


class BadCodomain(PreconditionError):
    """The function's codomain has the wrong shape for the operation."""


class MixedPrimes(PreconditionError):
    """Moduli that must share one prime involve several."""


class LengthMismatch(PreconditionError):
    """A sequence has the wrong length."""


class PreconditionFailed(PreconditionError):
    """A verified analytic precondition does not hold for the input."""


class NotAnnihilated(PreconditionError):
    """No difference power up to the safe bound annihilates the map."""


class NotPeriodic(PreconditionError):
    """The operand is not periodic with the stated period."""


class CoprimalityViolation(PreconditionError):
    """A required coprimality condition fails."""


class NotPolyfractal(PreconditionError):
    """The map cannot be represented by any rational polynomial;
    ``counterexample`` holds the ``classify.Counterexample`` that shows it."""

    def __init__(self, message: str, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class NotCyclic(PreconditionError):
    """Domain or codomain is not a single cyclic group."""


class InfiniteGroup(PreconditionError):
    """A finite group is required but a modulus is zero."""
