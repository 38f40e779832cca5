"""Exception types shared across the package, and the one integer-input rule."""

from numbers import Integral


class ValidationError(ValueError):
    """Malformed input: bad sequence text, out-of-range entry, bad parameter."""


def integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """int(value) for an Integral, bool excepted, in [low, high]; otherwise a
    ValidationError naming the parameter and its bound."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        value = int(value)
        if (low is None or value >= low) and (high is None or value <= high):
            return value
    bound = "" if low is None else f" >= {low}"
    if high is not None:
        bound = f" in [{low}, {high}]"
    raise ValidationError(f"{name} {value!r} must be an integer{bound}")


class LevelRangeError(ValidationError):
    """A level index was requested beyond an explicit prefix."""


class DimensionUndefinedError(ValidationError):
    """The contraction-limit value r does not exist for this sequence."""


class DivergenceError(ValueError):
    """A series was evaluated outside its half-plane of convergence."""


class PoleError(ValueError):
    """Evaluation requested too close to a pole."""

    def __init__(self, message, nearest_pole=None):
        super().__init__(message)
        self.nearest_pole = nearest_pole


class TailToleranceError(ValueError):
    """A certified truncation bound could not be pushed below the request."""

    def __init__(self, message, achieved_bound):
        super().__init__(message)
        self.achieved_bound = achieved_bound
