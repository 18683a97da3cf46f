"""Exception taxonomy for hardylab.

Every failure mode the library reports deliberately (as opposed to plain
bugs) derives from :class:`HardyLabError`, so callers can catch one type.
"""

from __future__ import annotations


class HardyLabError(Exception):
    """Base class for all hardylab errors."""


class InvalidParameterError(HardyLabError, ValueError):
    """An argument violates a documented precondition (p <= 1, r <= 0, ...)."""


class DivergentIntegralError(HardyLabError, ArithmeticError):
    """The requested integral is infinite; reported as an error, never as a
    large float."""


class DoubleRangeError(HardyLabError, ArithmeticError):
    """A computed value left the double-precision range (overflow).  The
    input needs rescaling; this says nothing about divergence."""


class ZeroDenominatorError(HardyLabError, ArithmeticError):
    """A ratio was requested for an identically vanishing function."""


class FitDegenerateError(HardyLabError):
    """An extrapolation fit was requested with too few data points."""


class MalformedCSVError(HardyLabError, ValueError):
    """A step-function CSV file does not follow the `edge,value` format."""
