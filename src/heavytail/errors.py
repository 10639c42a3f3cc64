"""Exception hierarchy, the memory cap, and the integer rules.

Everything that should terminate a CLI run with exit code 2 (a user or data
problem, as opposed to a bug) derives from ValidationError. Every count and
node id the library takes is read with :func:`integer`; sizes from grid files
and SCM documents, which may also be integral floats, with
:func:`whole_number`. An allocation a size scales is checked with
:func:`check_bytes` before it is made.
"""

import numbers
import operator

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


def integer(value, what: str, minimum: int | None = None, error=ValidationError) -> int:
    """``value`` as an int: an integer of any integer type, never a boolean or a float.

    Raises ``error`` naming ``what`` for any other value, or for one below
    ``minimum`` when it is given. It checks both ends of every SCM edge, so
    a plain int is taken as it is, without an operator.index call.
    """
    if type(value) is not int:
        try:
            number = operator.index(value)
        except TypeError:
            number = None
        if number is None or type(value) is bool:
            raise error(f"{what} must be a whole number, got {value!r}")
        value = number
    if minimum is not None and value < minimum:
        raise error(f"{what} must be >= {minimum}, got {value}")
    return value


def whole_number(value, what: str) -> int:
    """``value`` as an int: an integral float becomes an int, then the integer rule."""
    if (isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral)
            and float(value).is_integer()):
        value = int(value)
    return integer(value, what)
