"""Error types shared across the package.

Every failure mode that callers are expected to handle gets its own
class so that tests and the command line tool can react precisely.
"""


class HeunspecError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HeunspecError):
    """An argument lies outside the mathematical domain of an operation."""


class ArgumentError(HeunspecError):
    """Arguments are individually valid but mutually inconsistent."""


class ConvergenceError(HeunspecError):
    """An iterative process failed to reach its tolerance within its cap."""


class UndefinedError(HeunspecError):
    """The requested value is not defined for these parameters."""


class PoleError(HeunspecError):
    """Evaluation requested exactly at a pole of the function."""


class SingularPointError(HeunspecError):
    """Evaluation requested at a singular point of the potential or equation."""


class ConsistencyError(HeunspecError):
    """A quantity that must vanish for consistency failed its tolerance."""


class NoRootError(HeunspecError):
    """Root bracketing or refinement found no acceptable root."""
