"""Exception types shared across the package, and the one check of each
kind of argument that the library's entry points take: a count, a real
number, an instance of one of the package's types, and a sequence of ints
or of instances."""

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
    it."""
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


def check_sequence(values, name: str, cls: type, nonempty: bool = False) -> tuple:
    """`values` as a tuple if it is a tuple or a list, nonempty if
    `nonempty`, of instances of `cls` (of ints, not bools, for `int`; of
    anything for `object`), else InputError naming it."""
    kind = {int: "integers", object: "values"}.get(cls, f"{cls.__name__} instances")
    if not isinstance(values, (tuple, list)) or (nonempty and not values):
        size = "nonempty " if nonempty else ""
        got = type(values).__name__
        raise InputError(f"{name} must be a {size}tuple or list of {kind}, got {got}")
    for v in values:
        if not isinstance(v, cls) or (cls is int and isinstance(v, bool)):
            raise InputError(f"{name} must be {kind}, got {type(v).__name__}")
    return tuple(values)


def _shown(value) -> str:
    """repr(value), or the bit length of an int too long for repr."""
    try:
        return repr(value)
    except ValueError:  # more digits than Python's limit for str(int)
        return f"an int of {value.bit_length()} bits"
