"""Error taxonomy shared by every settower module.

Each exception names the contract it enforces rather than the module that
raises it, so callers can catch one condition across the whole library.
"""


class SettowerError(Exception):
    """Base class for all library errors."""


class EmptyFamily(SettowerError):
    """A family needs at least one member: the union or intersection of sets,
    and the independence check of relations."""


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
    """An exponent outside the power's domain: relation power needs at
    least 1, and an expression's ^ an exact natural number."""


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
    """A map must be total and land in its codomain: a pullback map on every
    domain atom, into the carrier, and a choice function on every block it
    is asked for, picking from that block."""


class Underflow(SettowerError):
    """Partial subtraction sub_partial(m, n) needs m <= n."""


class BadOrder(SettowerError):
    """A density witness needs exact endpoints in strict order."""


class NegativeInput(SettowerError):
    """Operation is defined for non-negative values only."""


class EmptyList(SettowerError):
    """A sum or a supremum needs at least one value."""


class NonPositiveDivisor(SettowerError):
    """Directed division rounds only for a strictly positive divisor."""


class NotBoundedAwayFromZero(SettowerError):
    """Reciprocal needs a positivity witness lo(n0) > 0."""


class EmptyBlock(SettowerError):
    """Nothing to choose from: a choice function needs every block nonempty,
    and a union of enumerations at least one block."""


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
