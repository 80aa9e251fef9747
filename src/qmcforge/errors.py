"""Exception types shared across the package, the checks of user input, and the budgets."""

import math
import operator

# bytes one call may allocate for a table it holds (1 GiB); read at call time
MEMORY_BUDGET = 1 << 30
# nanoseconds of estimated work one call may start (10 s); read at call time
WORK_BUDGET_NS = 10 * 10 ** 9


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


def fits(cells: int, bytes_per_cell: int) -> bool:
    """Whether a table of ``cells`` cells at ``bytes_per_cell`` bytes each fits MEMORY_BUDGET."""
    return cells * bytes_per_cell <= MEMORY_BUDGET


def require(cells: int, bytes_per_cell: int, what: str) -> None:
    """Refuse, before anything is allocated, a table that does not fit."""
    if not fits(cells, bytes_per_cell):
        raise ResourceLimitError(f"{what} needs {cells * bytes_per_cell} bytes, "
                                 f"budget {MEMORY_BUDGET} bytes")


def afford(units: int, ns_per_unit: float, what: str) -> None:
    """Refuse, before its work starts, a call of ``units`` at ``ns_per_unit`` over
    WORK_BUDGET_NS; units past 10^300 count as 10^300, so 2^s never overflows."""
    ns = min(units, 10 ** 300) * ns_per_unit
    if ns > WORK_BUDGET_NS:
        raise ResourceLimitError(f"{what} needs about {ns / 1e9:.3g} s, "
                                 f"budget {WORK_BUDGET_NS / 1e9:g} s")


def finite(value: float, what: str) -> float:
    """value, or a UsageError when it is not finite: kernels and dual terms are
    bounded, so only weights near the float64 limit push a merit past it."""
    if not math.isfinite(value):
        raise UsageError(f"{what} is {value}, not finite in float64: the weights are too large")
    return value


def finite_power(base: float, exponent: float, what: str) -> float:
    """float(base) ** exponent, or a UsageError when that is not a finite nonzero float."""
    try:
        value = float(base) ** exponent
    except OverflowError:
        value = math.inf
    if value == 0.0 or not math.isfinite(value):
        raise UsageError(f"{what}: {base:g}^{exponent:g} "
                         f"{'underflows' if value == 0.0 else 'overflows'} float64")
    return value
