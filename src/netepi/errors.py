"""Exception types shared across the package, and its integer check."""

from numbers import Integral


def is_integer(value) -> bool:
    """True for Python and numpy integers; bools are not counts."""
    return isinstance(value, Integral) and not isinstance(value, bool)


class NetepiError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NetepiError, ValueError):
    """A parameter is outside its mathematical domain."""


class ConfigError(NetepiError, ValueError):
    """A configuration file is malformed or violates a field constraint.

    ``field`` holds the dotted path of the offending entry, e.g.
    ``"distribution.gamma"``.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class StabilityError(NetepiError, RuntimeError):
    """The integrator produced a state outside the admissible range."""
