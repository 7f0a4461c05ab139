"""Exception hierarchy.

Two branches matter for the CLI exit-code mapping: ``ConfigurationError``
subclasses signal bad inputs or parameters (exit code 2), while
``NumericalError`` subclasses signal a computation that could not be
completed reliably (exit code 3).

``_in_range`` is the one finite-and-positive range rule: the library's
float parameters go through it by ``_check_positive``, the CLI's by
``cli._check_values``; ``_check_lam`` is the one range rule for lam, and
``_check_int`` the one integer rule (dimensions, powers, depths, degrees, counts).
"""

from math import isfinite
from sys import float_info

import numpy as np


class SphereKernError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SphereKernError):
    """Invalid parameter, option, or input configuration."""


class DomainError(ConfigurationError):
    """Numeric input outside the supported domain (e.g. |u| > 1 + 1e-12)."""


class ParameterError(ConfigurationError):
    """Parameter outside its valid range (e.g. delta not in (0, 1))."""


class UnsupportedSmoothnessError(ParameterError):
    """Power s outside the closed forms: kernels take s in {1, 2, 3}, ``rf_closed``
    also s = 0; or s not an integer."""


class UnsupportedDimensionError(ParameterError):
    """Dimension d not an integer or below the floor of the requested operation."""


class NumericalError(SphereKernError):
    """A numerical procedure failed to reach its accuracy contract."""


class IllConditionedGramError(NumericalError):
    """Cholesky factorization failed even after the jitter escalation."""


class SpectralAccuracyError(NumericalError):
    """A computed spectrum violates its reconstruction/mass tolerance."""


class FitError(NumericalError):
    """Too few usable data points for a requested regression/fit."""


class DegenerateFunctionError(NumericalError):
    """A synthetic ground-truth function degenerated (e.g. zero range)."""


class ExperimentError(NumericalError):
    """Too many repetitions of an experiment failed to produce results."""


def _in_range(value, allow_zero=False):
    """Whether ``value`` is finite and > 0 (>= 0 with ``allow_zero``).

    NaN and +-inf always fail, which a bare ``value <= 0`` test lets through.
    """
    return isfinite(value) and (value >= 0 if allow_zero else value > 0)


def _check_positive(value, message, allow_zero=False):
    """Raise ``ParameterError(message)`` unless ``_in_range(value, allow_zero)``."""
    if not _in_range(value, allow_zero):
        raise ParameterError(message)


def _check_lam(lam):
    """Raise ``ParameterError`` unless lam > 0 with lam^2 and 1/lam^2 both normal
    floats, about 1.5e-154 <= lam <= 6.7e153: the information-gain ledger
    divides by lam^2 and takes log1p(1/lam^2).  NaN fails the test."""
    if not (lam > 0 and float_info.min <= lam * lam <= 1.0 / float_info.min):
        raise ParameterError(
            f"lam must be positive with lam^2 and 1/lam^2 normal floats "
            f"(about 1.5e-154 <= lam <= 6.7e153), got {lam}"
        )


def _check_int(value, name, low, error=ParameterError):
    """``value`` as an int if it is a Python or numpy integer >= ``low``; a bool,
    a float (2.0 included), a string or a smaller integer raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise error(f"{name} must be a non-negative integer, got {value!r}" if low == 0
                    else f"need an integer {name} >= {low}, got {value!r}")
    return int(value)
