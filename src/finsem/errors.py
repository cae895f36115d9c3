"""Exception types shared across the workbench."""


class FinsemError(Exception):
    """Base class for every error raised by this package."""


class CycleError(FinsemError):
    """The cover relation closes into a cycle, violating antisymmetry."""


class NotTransitive(FinsemError, ValueError):
    """The order relation given is not transitive."""


class UnknownName(FinsemError, ValueError):
    """A selector or kind names none of the ones this package knows."""


class UnknownElement(FinsemError):
    """An element does not belong to the carrier it is used with."""


class TooLarge(FinsemError):
    """An enumeration would exceed its configured budget or size cap."""


class NotMonotone(FinsemError):
    pass


class NotJoinPreserving(FinsemError):
    pass


class NotMeetPreserving(FinsemError):
    pass


class StructureNotPreserved(FinsemError):
    """A map fails to preserve the algebraic structure required of it."""


class SideConditionViolated(FinsemError):
    pass


class CarrierMismatch(FinsemError):
    pass


class MonadMismatch(FinsemError):
    pass


class ScalarOutOfRange(FinsemError):
    pass


class NotNormalized(FinsemError):
    """Weights of a probability distribution do not sum to exactly 1."""


class LensViolation(FinsemError):
    """The outer open of a lens pair does not contain the inner one."""


class Incomparable(FinsemError):
    pass


class ModeMismatch(FinsemError):
    """A program construct is not available in the requested semantics mode."""


class RangeError(FinsemError):
    pass


class UndeclaredVariable(FinsemError):
    pass


def located(message, pos):
    """message, prefixed with `line:column: ` when pos gives them."""
    return message if pos is None else f"{pos[0]}:{pos[1]}: {message}"


class TypeMismatch(FinsemError):
    """An operator or an if condition is given an operand of the wrong type.

    pos is the (line, column) of the operator when it was parsed from source,
    and then prefixes the message as it does a ParseError's.
    """

    def __init__(self, message, pos=None):
        super().__init__(located(message, pos))
        self.pos = pos


class ParseError(FinsemError):
    """Syntax error with source position."""

    def __init__(self, message, line, column):
        super().__init__(located(message, (line, column)))
        self.line = line
        self.column = column
