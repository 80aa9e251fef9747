"""Exception types shared across the package, and the integer check of user input."""

import operator


class QmcforgeError(Exception):
    """Base class for all package errors."""


class UsageError(QmcforgeError, ValueError):
    """Bad arguments, violated preconditions, or unsupported parameter ranges."""


class ResourceLimitError(QmcforgeError, RuntimeError):
    """An enumeration or search would exceed the desk-scale resource caps."""


def as_int(value, what: str) -> int:
    """value as an int: Python and numpy integers pass; anything else, a
    float such as 31.0 included, is a UsageError rather than truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise UsageError(f"{what} must be an integer, got {value!r}") from None
