"""Exception types shared across the package, and the ASCII number rules."""

import math
import re

_DECIMAL = re.compile(r"[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def ascii_int(text: str, signed: bool = False) -> int:
    """A decimal integer in ASCII digits, with a leading '-' only when signed.
    ValueError on anything else (int() would read '+1', '1_0', ' 1', '٣')."""
    if type(text) is str:
        digits = text[1:] if signed and text[:1] == "-" else text
        if digits.isascii() and digits.isdigit():
            return int(text)
    raise ValueError(f"expected an integer in ASCII digits, got {text!r}")


def ascii_decimal(text: str) -> float:
    """A finite decimal >= 0 in ASCII digits, with optional '.digits' and exponent.
    ValueError on anything else (float() would read '1_0', ' 1', '+1', '٣', 'nan')."""
    if type(text) is str and _DECIMAL.fullmatch(text):
        value = float(text)
        if math.isfinite(value):
            return value
    raise ValueError(f"expected a finite ASCII decimal, got {text!r}")


class SteinerError(Exception):
    """Base class for all package-specific errors."""


class MalformedInput(SteinerError):
    """Input document could not be parsed at all."""


class NotATree(SteinerError):
    """Edge list parsed fine but does not describe a tree on 1..n."""


class EmptySet(SteinerError):
    """A Steiner distance query needs at least one vertex."""


class TooLarge(SteinerError):
    """Brute-force oracle refused: vertex count above its hard cap."""


class BudgetExceeded(SteinerError):
    """Hypermatrix construction would allocate more entries than allowed."""


class ConductorMismatch(SteinerError):
    """Cyclotomic operands live in fields with different moduli."""


class WrongShape(SteinerError):
    """Hypermatrix has the wrong order/dimension for the requested formula."""


class TooSmall(SteinerError):
    """Construction needs more vertices than the tree has."""


class EvenOrder(SteinerError):
    """Construction is only defined for odd hypermatrix order."""


class ZeroVector(SteinerError):
    """The zero vector can never serve as a nullvector certificate."""


class NotDegenerateZeroed(SteinerError):
    """Hypermatrix still carries a nonzero degenerate entry."""


class OrderTooLow(SteinerError):
    """Order-2 degenerate-zeroed matrices admit no unit nullvector."""
