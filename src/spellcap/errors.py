"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataFormatError and
OSError -> 3, NumericError -> 4.
"""


class SpellcapError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(SpellcapError, ValueError):
    """Invalid configuration: bad value, unknown key, violated contract."""


class DataFormatError(SpellcapError, ValueError):
    """Malformed file content (dataset lines, results files, checkpoint manifests)."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class NumericError(SpellcapError, ArithmeticError):
    """Non-finite loss or other numeric failure during training/inference."""
