"""Exception types shared across the package, and its one domain vocabulary.

Every argument rule of the library and of the config reader is a
``Domain``: ``value in domain`` decides, and ``domain.what`` says in words
which values it holds.  ``check`` is the one place a rule turns into an
error naming the argument at fault: a DomainError "{name} must be {what},
got {value!r}" from a library entry point, a ConfigError "{field}: must be
{what}, got {value!r}" from the config reader.  The intervals of the model
parameters are declared in ``ode``, the degree bounds in ``degree``, and
the config rows take theirs from there, so the library accepts exactly
what a config may hold.
"""

from math import inf
from numbers import Integral, Real
from sys import float_info

import numpy as np


def is_integer(value) -> bool:
    """True for Python and numpy integers; bools are not counts.  A plain
    int is told apart by its type, before the slower abstract-class test."""
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A real number a float holds finitely (math.isfinite raises past it); no
    bool.  A float (numpy's float64 is one) or a plain int is told apart
    before the slower abstract-class test."""
    return ((isinstance(value, float) or type(value) is int
             or isinstance(value, Real) and not isinstance(value, bool))
            and abs(value) <= float_info.max)


class NetepiError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NetepiError, ValueError):
    """A parameter is outside its domain; ``field``: the argument at fault, if named."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class ConfigError(NetepiError, ValueError):
    """A configuration file is malformed or violates a field constraint.

    ``field`` (an argument, as ``message``, so the error pickles) holds the
    dotted path of the offending entry, e.g. ``"distribution.gamma"``.
    """

    def __init__(self, field, message):
        super().__init__(field, message)
        self.field, self.message = field, message

    def __str__(self):
        return f"{self.field}: {self.message}" if self.field else self.message


class StabilityError(NetepiError, RuntimeError):
    """The integrator produced a state outside the admissible range."""


class Domain:
    """The values one rule accepts (``value in domain``), and ``what`` they
    are in words, as an error message completes "must be ..."."""

    __slots__ = ("accepts", "what")

    def __init__(self, accepts, what):
        self.accepts, self.what = accepts, what

    def __contains__(self, value):
        return self.accepts(value)


class Interval(Domain):
    """The finite real numbers (no bool) from ``lo`` to ``hi``, either end
    open."""

    __slots__ = ("lo", "hi", "lo_open", "hi_open")

    def __init__(self, lo, hi, lo_open=False, hi_open=False):
        self.lo, self.hi, self.lo_open, self.hi_open = lo, hi, lo_open, hi_open
        self.what = ("a finite number" if (lo, hi) == (-inf, inf) else
                     f"a number in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}")

    def __contains__(self, value):
        return (is_number(value) and (self.lo < value if self.lo_open else self.lo <= value)
                and (value < self.hi if self.hi_open else value <= self.hi))


UNIT = Interval(0, 1)
OPEN_UNIT = Interval(0, 1, True, True)
POSITIVE = Interval(0, inf, True, True)
FINITE = Interval(-inf, inf, True, True)


def count(least) -> Domain:
    """The integers >= ``least``."""
    return Domain(lambda v: is_integer(v) and v >= least, f"an integer >= {least}")


def one_of(*options) -> Domain:
    """The strings ``options``."""
    names = [repr(option) for option in options]
    return Domain(lambda v: isinstance(v, str) and v in options,
                  " or ".join([", ".join(names[:-1]), names[-1]] if names[1:] else names))


def is_sequence(value) -> bool:
    """A list, a tuple or a 1-d array."""
    return isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1


def items_in(ok, what) -> Domain:
    """The sequences (``is_sequence``) whose every item passes ``ok``."""
    return Domain(lambda v: is_sequence(v) and all(map(ok, v)), what)


INTEGER = Domain(is_integer, "an integer")
SEED = count(0)
# a range [lower, upper] that a float can sample: its width is finite too
RANGE = Domain(lambda v: (isinstance(v, (list, tuple)) and len(v) == 2 and is_number(v[0])
                          and is_number(v[1]) and v[0] < v[1] and v[1] - v[0] <= float_info.max),
               "a pair [lower, upper] of finite numbers, lower < upper, with a finite width")
NUMBERS = items_in(is_number, "a sequence of finite numbers")


def check(name, value, domain, config=False):
    """``value`` if it is in ``domain``.  Otherwise a DomainError naming the
    argument ``name`` (its ``field``), or with ``config`` a ConfigError
    naming the field ``name``."""
    if value in domain:
        return value
    reason = f"must be {domain.what}, got {value!r}"
    raise ConfigError(name, reason) if config else DomainError(f"{name} {reason}", name)


def check_kind(name, value, kind, optional=False):
    """A DomainError naming ``name`` unless ``value`` is a ``kind`` (or None
    when ``optional``)."""
    if not (isinstance(value, kind) or optional and value is None):
        raise DomainError(f"{name} must be a {kind.__name__}, got {value!r}")
