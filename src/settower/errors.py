"""Error taxonomy shared by every settower module.

Each exception names the contract it enforces rather than the module that
raises it, so callers can catch one condition across the whole library.
"""


class SettowerError(Exception):
    """Base class for all library errors."""


class EmptyFamily(SettowerError):
    """Union or intersection applied to the empty family of sets."""


class SizeLimit(SettowerError):
    """A configured size or depth bound would be exceeded."""


class NotAPair(SettowerError):
    """Value does not have the {{x,y},{x}} ordered-pair shape."""


class NotANatural(SettowerError):
    """Value is not a natural number (or not a von Neumann natural)."""


class NotAnInteger(SettowerError):
    """Value is not an integer (a bool does not count as one)."""


class CarrierMismatch(SettowerError):
    """Relation endpoints do not line up for the requested operation."""


class BadExponent(SettowerError):
    """Relation power requires an exponent of at least 1."""


class UnknownAtom(SettowerError):
    """Atom not present in the relevant carrier."""


class NotEquivalence(SettowerError):
    """Operation requires an equivalence relation."""


class NotPreordering(SettowerError):
    """Operation requires a transitive relation."""


class NotOrdering(SettowerError):
    """Operation requires a transitive antisymmetric relation."""


class NotWellOrdering(SettowerError):
    """Operation requires an ordering with the minimum property."""


class NonTotalMap(SettowerError):
    """Pullback map must be defined on every carrier atom."""


class Underflow(SettowerError):
    """Partial subtraction sub_partial(m, n) needs m <= n."""


class BadOrder(SettowerError):
    """Density witness requires strictly ordered endpoints."""


class NegativeInput(SettowerError):
    """Operation is defined for non-negative values only."""


class EmptyList(SettowerError):
    """Supremum of an empty list is undefined."""


class NonPositiveDivisor(SettowerError):
    """Directed division rounds only for a strictly positive divisor."""


class NotBoundedAwayFromZero(SettowerError):
    """Reciprocal needs a positivity witness lo(n0) > 0."""


class EmptyBlock(SettowerError):
    """Choice function requires every block to be nonempty."""


class EmptyCarrier(SettowerError):
    """Operation requires a nonempty carrier."""


class ExprSyntaxError(SettowerError):
    """Expression text failed to parse; `position` is a 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class DivisionNearZero(SettowerError):
    """Divisor could not be bounded away from zero at probe precision."""


class PrecisionCap(SettowerError):
    """Requested precision exceeds the configured cap."""


class NotUTF8(SettowerError):
    """Input text is not valid UTF-8."""


class ParseError(SettowerError):
    """Relation file failed to parse; `line` is 1-based."""

    def __init__(self, message, line):
        super().__init__(f"{message} (line {line})")
        self.line = line
