"""Exception hierarchy, the memory cap, and the whole-number rule.

Everything that should terminate a CLI run with exit code 2 (a user or data
problem, as opposed to a bug) derives from ValidationError. Sizes from grid
files and SCM documents are read with :func:`whole_number`; an allocation a
size scales is checked with :func:`check_bytes` before it is made.
"""

import math
import numbers

# Bytes that simulate, oracle and evaluate may allocate; a grid's default cap.
MEMORY_CAP_BYTES = 1 << 30


class HeavytailError(Exception):
    """Base class for all package errors."""


class ValidationError(HeavytailError):
    """Invalid input, configuration, or data; maps to CLI exit code 2."""


class ConfigError(ValidationError):
    """Unresolvable or out-of-range configuration (e.g. bad k)."""


class DomainError(ValidationError):
    """Data unusable for the requested operation (degenerate or insufficient)."""


class ModeError(ValidationError):
    """Operation not defined for the SCM's coefficient mode."""


class CapacityError(ValidationError):
    """A resource guard tripped (combinatorial or memory limits)."""


def check_bytes(need: int, subject: str, cap: int = MEMORY_CAP_BYTES) -> None:
    """Raise CapacityError naming ``subject`` if ``need`` bytes exceed ``cap``."""
    if need > cap:
        raise CapacityError(
            f"{subject} needs about {need} bytes, over the memory cap of {cap} bytes")


def whole_number(value, what: str) -> int:
    """``value`` as an int: an integer or an integral float, but never a boolean."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer():
            return int(value)
    raise ValidationError(f"{what} must be a whole number, got {value!r}")
