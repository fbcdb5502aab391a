"""Exception types shared across the package.

Every error raised by switchsde derives from :class:`SwitchSdeError`, so
callers can catch the package's failures without catching unrelated bugs.
"""


class SwitchSdeError(Exception):
    """Base class for all switchsde errors."""


class ConfigError(SwitchSdeError):
    """A configuration value violates a documented requirement.

    The input-validation errors below (a malformed generator, a regime
    outside 1..N) derive from it, so the CLI reports them as config errors.
    """


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


# --- harness errors -------------------------------------------------------------

class DegenerateFitError(SwitchSdeError):
    """Order regression is degenerate (fewer than two distinct step sizes)."""


class NonPositiveErrorValues(SwitchSdeError):
    """Order regression received a non-positive error estimate."""
