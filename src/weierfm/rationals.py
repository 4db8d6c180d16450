"""Exact rational scalars and their canonical string form.

The whole library computes over ``fractions.Fraction``: already stored in
lowest terms with a positive denominator, exact under +, *, /, and of
arbitrary precision.

Serialized rationals are strings, never JSON numbers, so that round-trips
are bit-exact: an integer value renders as ``"z"``, anything else as
``"p/q"`` in lowest terms with the sign on the numerator.  ``0.5`` style
decimals are rejected on input; exactness is the point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Iterable, Sequence, TypeVar, Union

RationalLike = Union[int, Fraction]
T = TypeVar("T")

_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats loudly."""
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def is_int(value: object) -> bool:
    """Whether ``value`` is an integer proper: no bool, float or string."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_rational_vector(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(as_rational(v) for v in values)


def prevalidated(cls: type[T], *values: Any) -> T:
    """An instance of the dataclass ``cls`` holding ``values`` in field
    order, built without ``__init__`` or ``__post_init__``.

    For hot paths whose values already passed the checks and coercions those
    would run (Fractions from Fraction arithmetic, ints from a range); the
    public constructors keep every check.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__match_args__, values))
    return obj


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"z"`` in ASCII digits (no decimals, no other
    scripts' digits, no whitespace tricks)."""
    if not isinstance(text, str):
        raise ValueError(f"a rational must be a 'p/q' string, got {type(text).__name__}")
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed rational {text!r}: expected 'p' or 'p/q'")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    return Fraction(num, den)


def format_rational(value: RationalLike) -> str:
    """Canonical string form: ``"z"`` for integers, else ``"p/q"``."""
    f = as_rational(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rational_vector(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated rational vector, e.g. ``"1/2,-3"``."""
    stripped = text.strip()
    if not stripped:
        return ()
    return tuple(parse_rational(part) for part in stripped.split(","))


def format_rational_vector(values: Sequence[RationalLike]) -> str:
    return ",".join(format_rational(v) for v in values)
