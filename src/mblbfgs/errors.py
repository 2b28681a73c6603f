"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage/configuration errors exit 1,
data errors exit 2; a ``NumericError`` or ``RedrawLimitError`` aborts its
run alone, and a grid with an aborted run exits 3.
"""


class MblbfgsError(Exception):
    """Base class for all package errors."""


class UsageError(MblbfgsError):
    """Caller violated a precondition (bad argument, dimension mismatch)."""


class ConfigurationError(UsageError):
    """A run or sampling configuration is internally inconsistent."""


class RedrawLimitError(ConfigurationError):
    """``MAX_REDRAWS`` fault-mode draws in a row had no responding node; a
    run ends there as ``aborted:redraws``."""


class DataError(MblbfgsError):
    """Malformed or out-of-range input data."""


class NumericError(MblbfgsError):
    """A computation produced a non-finite or otherwise unusable value."""
