"""Exception types shared across the workbench."""


class FinsemError(Exception):
    """Base class for every error raised by this package."""


class CycleError(FinsemError):
    """The cover relation closes into a cycle, violating antisymmetry."""


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


class TypeMismatch(FinsemError):
    """An operator or an if condition is given an operand of the wrong type."""


class ParseError(FinsemError):
    """Syntax error with source position."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
