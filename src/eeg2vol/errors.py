"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: config/geometry problems -> 2,
data problems -> 3, numeric failures -> 4.
"""


class Eeg2VolError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(Eeg2VolError):
    """Invalid configuration, geometry mismatch, or bad usage."""

    exit_code = 2


class DimensionError(ConfigError):
    """Tensor extents incompatible with an operation."""


class DataError(Eeg2VolError):
    """Missing, malformed, or empty input data."""

    exit_code = 3


class NumericError(Eeg2VolError):
    """Non-finite values encountered during computation."""

    exit_code = 4
