"""Exception types shared across the package.

Every error raised by switchsde derives from :class:`SwitchSdeError`, so
callers can catch the package's failures without catching unrelated bugs.
"""

import numbers
import sys


class SwitchSdeError(Exception):
    """Base class for all switchsde errors."""


class ConfigError(SwitchSdeError):
    """A configuration value violates a documented requirement.

    The input-validation errors below (a malformed generator, a regime
    outside 1..N) derive from it, so the CLI reports them as config errors.
    """


def setting(data: dict, key: str, kind, default=None):
    """``data[key]``, or ``default`` when it is absent, checked to be of ``kind``.

    ``int`` takes an integer only, numpy's too (a bool, 40.0, a string or null
    is a ConfigError), ``float`` any finite real number, and ``str`` a string,
    each returned as ``kind`` (a float32 is bounded as a float: no overflow
    warning); ``[kind]`` a list or tuple of them, as a tuple (``[[float]]``: a matrix).
    """
    value = data.get(key, default)
    if isinstance(kind, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(setting({key: v}, key, kind[0]) for v in value)
    types, noun = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number"),
                   str: (str, "a string")}[kind]
    if isinstance(value, bool) or not isinstance(value, types) or kind is not str and not abs(
            value if isinstance(value, numbers.Integral) else float(value)) <= sys.float_info.max:
        raise ConfigError(f"{key} must be {noun}, got {value!r}")
    return kind(value)


def check_keys(data: dict, known, where: str) -> None:
    """Raise a ConfigError naming every key of ``data`` outside ``known``."""
    unknown = sorted(map(str, set(data) - set(known)))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


# --- generator / chain errors -------------------------------------------------

class NonSquareError(ConfigError):
    """Rate matrix is not square."""


class NegativeOffDiagonalError(ConfigError):
    """An off-diagonal transition rate is negative."""

    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"rate[{i},{j}] = {value} is negative (states are 1-based)")


class RowSumViolationError(ConfigError):
    """A generator row does not sum to zero within tolerance."""

    def __init__(self, i: int, row_sum: float):
        self.i, self.row_sum = i, row_sum
        super().__init__(f"row {i} sums to {row_sum}, expected 0 (states are 1-based)")


class ReducibleError(SwitchSdeError):
    """Generator has more than one closed communicating class."""


class JumpBudgetError(SwitchSdeError):
    """Chain simulation exceeded the configured switch budget."""


class OutOfHorizonError(SwitchSdeError):
    """Queried time lies outside the path horizon [0, T]."""


# --- time grid / Brownian errors ----------------------------------------------

class InvalidGridError(SwitchSdeError):
    """Time points do not form a valid grid."""


class HorizonMismatchError(SwitchSdeError):
    """Grids do not share the same endpoints."""


class NotRefinementError(SwitchSdeError):
    """A coarse grid point has no counterpart in the fine grid."""


# --- model errors ---------------------------------------------------------------

class NonFiniteError(SwitchSdeError):
    """Model coefficients or solution values produced NaN or infinity."""


class InvalidRegimeError(ConfigError):
    """Regime index outside {1, ..., N}."""


class DimensionMismatchError(SwitchSdeError):
    """A coefficient returned a value of the wrong shape."""


# --- solver errors --------------------------------------------------------------

class GridMismatchError(SwitchSdeError):
    """Brownian path does not realize every required event time."""


class LengthMismatchError(SwitchSdeError):
    """Skeleton length does not match the step count."""


class TimeNotRealizedError(SwitchSdeError):
    """Brownian value at the requested time is not available."""


class RegimeNotConstantError(SwitchSdeError):
    """A grid interval straddles a regime switch."""


# --- harness and output errors ----------------------------------------------------

class OutputError(SwitchSdeError):
    """An output file cannot be written, or the output directory cannot be used."""


class DegenerateFitError(SwitchSdeError):
    """Order regression is degenerate (fewer than two distinct step sizes)."""


class NonPositiveErrorValues(SwitchSdeError):
    """Order regression received an error estimate that is not positive and finite."""
