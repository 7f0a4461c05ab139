"""Exception hierarchy.

Two branches matter for the CLI exit-code mapping: ``ConfigurationError``
subclasses signal bad inputs or parameters (exit code 2), while
``NumericalError`` subclasses signal a computation that could not be
completed reliably (exit code 3).

``_in_range`` is the one finite-and-positive range rule: the library's
float parameters go through it by ``_check_positive``, the CLI's by
``cli._check_values``; ``_check_lam`` is the one rule for lam and lam^2.
"""

from math import isfinite
from sys import float_info


class SphereKernError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SphereKernError):
    """Invalid parameter, option, or input configuration."""


class DomainError(ConfigurationError):
    """Numeric input outside the supported domain (e.g. |u| > 1 + 1e-12)."""


class UnsupportedSmoothnessError(ConfigurationError):
    """Smoothness s outside the closed-form set {0, 1, 2, 3}."""


class UnsupportedDimensionError(ConfigurationError):
    """Dimension outside the supported range for the requested operation."""


class ParameterError(ConfigurationError):
    """Parameter outside its valid range (e.g. delta not in (0, 1))."""


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
    """Raise ``ParameterError`` unless lam > 0 and lam^2 is a normal float: below
    about 1.5e-154, 1/lam^2 in the variance-sum bound may overflow or divide by
    zero; above about 1.3e154, lam^2 is infinite.  NaN fails both tests.  From
    about 9.49e7 on, ``1 + 1/lam^2`` rounds to 1 and the bound's
    ``log(1 + 1/lam^2)`` divides by zero, so such a lam fails as well."""
    if not (lam > 0 and float_info.min <= lam * lam <= float_info.max):
        raise ParameterError(f"lam must be positive with lam^2 a normal float, got {lam}")
    if 1.0 + 1.0 / (lam * lam) == 1.0:
        raise ParameterError(
            f"lam must be below about 9.49e7, where 1 + 1/lam^2 rounds to 1, got {lam}"
        )
