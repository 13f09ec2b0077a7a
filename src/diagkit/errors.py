"""Shared exception types, and the one rule for a natural-number input."""

from typing import Any


class InputError(ValueError):
    """Structurally invalid input: bad dimensions, open terms, unknown symbols."""


class NotApplicableError(RuntimeError):
    """A construction's hypothesis is violated (e.g. the endomap has a fixed point)."""


def natural(n: Any, what: str, least: int = 0) -> int:
    """n if it is an `int` by type and at least `least` (0 or 1), else an `InputError`.

    By identity: `True` is no natural, and a decoder given 1.5 or -1 would
    index a row with a float or take the root of a negative.
    """
    if type(n) is not int or n < least:
        shape = "a natural number" if least == 0 else f"an int of at least {least}"
        raise InputError(f"{what} must be {shape}, got {n!r}")
    return n
