"""Exception types shared across the package, and the one check of each
kind of argument that the library's entry points take: a count, a real
number, and an instance of one of the package's types."""

import math


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class NotEuclidean(ValueError):
    """A squared-distance matrix is not realizable in Euclidean space."""


class NotSimplex(ValueError):
    """A point set is not affinely independent at the working tolerance."""


class NotAlmostRegular(ValueError):
    """A distance matrix violates the almost-regularity condition."""


class TrivialInput(ValueError):
    """The input is too small for the requested operation."""


class VerificationFailed(RuntimeError):
    """A freshly constructed certificate failed its own verification."""


class InvalidCertificate(ValueError):
    """A certificate is structurally invalid (before any metric check)."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def check_count(value, name: str, least: int) -> int:
    """`value` if it is an int (not a bool) of at least `least`, else
    InputError naming it."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InputError(f"{name} must be an integer >= {least}, got {_shown(value)}")
    return value


def check_real(value, name: str, positive: bool = True) -> float:
    """`value` as a float if it is an int or a float (not a bool), finite as
    a double and > 0, or >= 0 when not `positive`; else InputError naming
    it. A plain isinstance test: `PolygonSpec` runs this once per factor."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int past the largest double
            x = math.nan
        if math.isfinite(x) and (x > 0.0 if positive else x >= 0.0):
            return x
    rule = "a positive finite number" if positive else "a finite number >= 0"
    raise InputError(f"{name} must be {rule}, got {_shown(value)}")


def check_instance(value, cls: type, name: str):
    """`value` if it is an instance of `cls`, else InputError naming it."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise InputError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


def _shown(value) -> str:
    """repr(value), or the bit length of an int too long for repr."""
    try:
        return repr(value)
    except ValueError:  # more digits than Python's limit for str(int)
        return f"an int of {value.bit_length()} bits"
