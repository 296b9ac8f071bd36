"""Exception types shared across the library."""


class RieszLabError(Exception):
    """Base class for all library-specific errors."""


class SpaceMismatchError(RieszLabError):
    """Operands live on different spaces."""


class DegreeMismatchError(RieszLabError):
    """Degrees or arities do not line up."""


class PositivityError(RieszLabError):
    """An argument required to be nonnegative is not."""


class InvalidGeneratorError(RieszLabError):
    """Principal ideal generator must be nonnegative and nonzero."""


class UnsupportedFamilyError(RieszLabError):
    """Net family kind not supported by symbolic certification."""


class CertificateError(RieszLabError):
    """A convergence certificate failed verification where one was required."""


class BoundViolationError(RieszLabError):
    """A declared uniform bound is violated by the actual family."""


class RepresentationError(RieszLabError):
    """Operation incompatible with the object's representation."""


class NoWitnessError(RieszLabError):
    """The requested discontinuity witness does not exist."""


class MalformedInstanceError(RieszLabError):
    """A serialised instance failed validation; carries the field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class ConfigError(RieszLabError):
    """Infeasible or contradictory runner configuration."""


class InvariantViolation(RieszLabError):
    """An internal consistency check failed: two exact routes disagree."""
