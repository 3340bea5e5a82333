"""Error types shared across the calculator.

Every failure mode is an explicit class so callers (and the expression
language) can report structured diagnostics instead of guessing.  The
`kind` property is the stable machine-readable name used in JSON output.
"""


class GrossError(Exception):
    """Base class for every calculator error."""

    @property
    def kind(self) -> str:
        return type(self).__name__


# arithmetic (gnum)

class UnsupportedSum(GrossError):
    """The sum would leave the representable closure."""


class UnsupportedProduct(GrossError):
    """The product would leave the representable closure."""


class UnsupportedPower(GrossError):
    """The power would leave the representable closure."""


class DivisionByZero(GrossError):
    pass


class NonExactDivision(GrossError):
    """Division is only supported when it is exact and representable."""


class NegativeExponent(GrossError):
    """Counts cannot be raised to negative (or negative-substituting) powers."""


class DepthLimitExceeded(GrossError):
    """Exponent nesting exceeded the implementation cap."""


class Undetermined(GrossError):
    """The ordering cannot be decided within the supported closure.

    This is an honest first-class verdict, not a bug: some exponential
    counts are only known through sandwich bounds.  A comparison that the
    sandwich left open carries the bounds it found, ``lower < x - y <= upper``
    for x and y in the order its message names them, as ``lower`` and
    ``upper``; any other leaves both None.
    """

    def __init__(self, message: str, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


# finite-substitution oracle

class NonIntegerExponent(GrossError):
    """Substitution produced a non-integer where an integer exponent is required."""


class ExponentTooLarge(GrossError):
    """An exact power whose bit bound passes gnum.MAX_POWER_BITS: a finite
    power, the terms times coefficient bits of a power of a count, the gap
    between two exponential counts, a cross-power or critical-length
    comparison, a substitution G := L."""


class CritRefNotSubstitutable(GrossError):
    """A critical digit length cannot be evaluated at this substitution point."""


class InvalidL(GrossError):
    """The substitution point violates the divisibility or size preconditions."""


# positional numerals (posnum)

class IncomparableSystems(GrossError):
    """Numerals from different systems (base/length/sign) have no common order."""


class Overflow(GrossError):
    """No successor exists: the numeral is already maximal."""


class Underflow(GrossError):
    """No representable predecessor exists."""


class NotInfinite(GrossError):
    """Critical digit lengths are only defined for infinite targets."""


class RepresentationLimit(GrossError):
    """The result exists but is too large to write out: an integer past
    MAX_DIGITS digits, or more than MAX_ITEMS items (the residue classes a
    set holds, the elements a progression skips below its start, members
    listed, numerals enumerated, digits written out by a borrow), or an
    exhaustive enumeration whose count's bit bound passes MAX_POWER_BITS."""


# observers

class NegativeCount(GrossError):
    """Counting systems observe counts; negatives are not counts."""


class NonIntegralCount(GrossError):
    """Counting systems observe whole counts; fractions are not counts."""


class ForeignToken(GrossError):
    """The token does not belong to the counting system it was used with."""


# expression language

class ParseError(GrossError):
    """Syntax error with position and an expected-token hint."""

    def __init__(self, message: str, line: int = 1, col: int = 1, expected: str = ""):
        super().__init__(message)
        self.line = line
        self.col = col
        self.expected = expected

    def __str__(self) -> str:
        base = super().__str__()
        loc = f" at line {self.line}, column {self.col}"
        hint = f" (expected {self.expected})" if self.expected else ""
        return base + loc + hint


class EvalError(GrossError):
    """Evaluation failed for a structural reason (arity, type, range)."""


class UnboundIdentifier(EvalError):
    pass


class UnreadableScript(GrossError):
    """A script given to ``gc run`` cannot be read as UTF-8 text."""
