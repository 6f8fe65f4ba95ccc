"""Exception types shared across the package, and the value rules of config
dataclass fields.

The CLI maps these onto exit codes: ConfigError -> 2, DataFormatError and
OSError -> 3, NumericError -> 4.
"""

import math
from dataclasses import MISSING, field, fields


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


# The rules a config field can carry, by name; the name is also the message.
RULES = {
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    "finite and positive": lambda v: 0 < v < math.inf,
    "finite and non-negative": lambda v: all(0 <= x < math.inf for x in v),  # a tuple
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in [0, 0.5]": lambda v: 0 <= v <= 0.5,
    "1..3": lambda v: 1 <= v <= 3,
}


def rule(name: str, default=MISSING):
    """A dataclass field whose value ``check_fields`` holds to ``RULES[name]``."""
    return field(default=default, metadata={"rule": name})


def check_fields(cfg) -> None:
    """Raise a ConfigError naming the first field of dataclass ``cfg`` that
    breaks its rule; a None value (an unset option) passes."""
    for f in fields(cfg):
        name, value = f.metadata.get("rule"), getattr(cfg, f.name)
        if name and value is not None and not RULES[name](value):
            raise ConfigError(f"{f.name} must be {name}, got {value!r}")
