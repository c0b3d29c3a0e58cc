"""Exception hierarchy shared across the package, and the one reader of
text input files, which raises them.

Exit-code mapping used by the CLI: config/geometry problems -> 2,
data problems -> 3, numeric failures -> 4.
"""

from pathlib import Path


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


def read_text(path, what, error):
    """The text of input file path. A file that is missing, a directory,
    unreadable or not decodable raises error naming what and path."""
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"{what} unreadable: {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} unreadable: {path}: {exc}") from None
