"""Tolerance policy.

A single default relative tolerance is used everywhere a contract is
checked; it can be overridden per call or globally through the
``HARDYLAB_DEFAULT_TOL`` environment variable.
"""

from __future__ import annotations

import os

from .grid import check_real

DEFAULT_TOLERANCE = 1e-6

ENV_VAR = "HARDYLAB_DEFAULT_TOL"


def check_tolerance(value, name: str) -> float:
    """``value`` as a float if it is a positive finite number; otherwise an
    :class:`InvalidParameterError` naming its source ``name``."""
    return check_real(value, name, 0.0)


def default_tolerance() -> float:
    """Return the default relative tolerance (env override included)."""
    raw = os.environ.get(ENV_VAR)
    return DEFAULT_TOLERANCE if raw is None else check_tolerance(raw, ENV_VAR)
