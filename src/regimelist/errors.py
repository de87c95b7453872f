"""Exception hierarchy shared by the library and the CLI, the guard every
file reader runs under, and the check of config sections; the failures of
both are ValidationErrors.

The CLI maps these onto exit codes: ValidationError and its subclasses
exit with 2, everything else derived from RegimeListError exits with 3.
"""

import math
from contextlib import contextmanager


class RegimeListError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RegimeListError):
    """Malformed input: schema violations, out-of-range values, bad files."""


class CellError(ValidationError):
    """A dataset cell that fails validation.

    ``row`` is the subject's 0-based index; ``column`` is the cell's
    position among the characteristics, then the treatment, then the outcome.
    """

    def __init__(self, row: int, column: int, name: str, problem: str):
        super().__init__(f"row {row}, column {name!r}: {problem}")
        self.row, self.column, self.problem = row, column, problem


class InvalidPredicateError(ValidationError):
    """Predicate incompatible with the characteristic it tests."""


class ConvergenceError(RegimeListError):
    """Iterative fit did not reach tolerance within the iteration budget."""

    def __init__(self, message: str, gradient_norm: float):
        super().__init__(message)
        self.gradient_norm = gradient_norm


class SingularSystemError(RegimeListError):
    """Normal equations are singular and no ridge penalty was requested."""


class SizeLimitError(RegimeListError):
    """Instance exceeds a configured safety limit for exact computation."""


class EmptyCandidateSetError(RegimeListError):
    """Pattern mining produced no candidates (support threshold too high)."""


@contextmanager
def malformed(what: str):
    """Report the errors that reading a wrongly shaped record raises (a
    missing key, a wrong type, a number no double or int can hold) as one
    ValidationError naming ``what``."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"malformed {what}: {e!r}") from None


def config_values(section: dict, defaults: dict, what: str) -> dict:
    """``defaults`` updated from a config section.

    Every key of ``section`` must name a default, and its value must have
    the default's type; an int stands for a float, and is converted.  A
    float must be finite.
    """
    unknown = sorted(set(section) - set(defaults))
    if unknown:
        raise ValidationError(
            f"{what} config: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"known keys are {', '.join(defaults)}")
    values = dict(defaults)
    for key, value in section.items():
        want = type(defaults[key])
        if want is float and isinstance(value, int) and not isinstance(value, bool):
            with malformed(f"{what} config {key!r}"):
                value = float(value)
        if not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
            raise ValidationError(
                f"{what} config: {key!r} must be {want.__name__}, got {value!r}")
        if want is float and not math.isfinite(value):
            raise ValidationError(f"{what} config: {key!r} must be finite, got {value!r}")
        values[key] = value
    return values
