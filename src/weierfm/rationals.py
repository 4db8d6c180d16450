"""Exact rational scalars and their canonical string form.

The whole library computes over ``fractions.Fraction``: already stored in
lowest terms with a positive denominator, exact under +, *, /, and of
arbitrary precision.

Serialized rationals are strings, never JSON numbers, so that round-trips
are bit-exact: an integer value renders as ``"z"``, anything else as
``"p/q"`` in lowest terms with the sign on the numerator.  ``0.5`` style
decimals are rejected on input; exactness is the point.

Decoded documents repeat a few strings many times (a 1 014-report scan
holds ~9 000 rationals but at most a few hundred distinct ones), so each
distinct string is parsed once: ``parse_rational`` checks the type, then
looks the text up in an LRU cache of ``RATIONAL_CACHE_SIZE`` entries.  The
cached ``Fraction`` is immutable, so decoded objects can share it; a string
that fails to parse is not cached and raises the same error every time.

Value classes keep their checks in their public constructors: field
types (``require``, ``is_int``), coercions (``as_rational``), then the
checks between fields.  The duality solver's relations and the stability
scan's values, and what the JSON decoders' own checks passed, are built
through ``trusted(cls)``: one constructor per class, generated on first
use, that only stores the fields.  Everything else, the ring's classes
included, goes through the public constructors.
"""

from __future__ import annotations

import re
from dataclasses import fields
from fractions import Fraction
from functools import cache, lru_cache
from typing import Any, Callable, Iterable, Sequence, TypeVar, Union

RationalLike = Union[int, Fraction]
T = TypeVar("T")

_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")
_ASCII_SPACE = " \t\n\r\f\v"

# Distinct strings parse_rational keeps parsed; ~16x the most distinct
# rationals measured in one decoded scan document.  Knocking the cache out
# costs codec 28 % of its throughput (BENCH_17.json).
RATIONAL_CACHE_SIZE = 4096


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats loudly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def is_int(value: object) -> bool:
    """Whether ``value`` is an integer proper: no bool, float or string."""
    return isinstance(value, int) and not isinstance(value, bool)


def require(value: Any, kind: type, what: str) -> None:
    """Refuse with ValueError a ``value`` that is not a ``kind``; an int
    must not be a bool (see :func:`is_int`)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        article = "an" if kind.__name__[0] in "AEIOUaeiou" else "a"
        raise ValueError(f"{what} must be {article} {kind.__name__}, got {value!r}")


def as_rational_vector(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(map(as_rational, values))


@cache
def trusted(cls: type[T]) -> Callable[..., T]:
    """The trusted constructor of the dataclass ``cls``: called with one
    value per field, in field order, it builds the instance without
    ``__init__`` or ``__post_init__``.

    It is generated on first use, once per class, as straight-line code
    from ``dataclasses.fields(cls)`` (``_obj = _new(_cls); _d = _obj.__dict__;
    _d['r'] = r; ...``), the way ``dataclasses`` writes an ``__init__``.  A
    frozen instance stays frozen: only its ``__dict__`` is written.  For
    callers whose values already passed the checks and coercions the
    constructor would run: the duality solver and the scan on values they
    computed, and the JSON decoders after their own checks.
    The public constructors keep every check.
    """
    if "__slots__" in cls.__dict__:
        raise TypeError(f"{cls.__name__} has __slots__ and no instance __dict__ to write")
    names = [f.name for f in fields(cls)]
    lines = [f"def build({', '.join(names)}):", "    _obj = _new(_cls)", "    _d = _obj.__dict__"]
    lines += [f"    _d[{name!r}] = {name}" for name in names]
    lines.append("    return _obj")
    namespace = {"_new": object.__new__, "_cls": cls}
    exec("\n".join(lines), namespace)
    build = namespace["build"]
    build.__qualname__ = f"trusted({cls.__qualname__})"
    return build


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"z"`` in ASCII digits (no decimals, no other
    scripts' digits, no whitespace tricks: only ASCII whitespace is
    stripped)."""
    if not isinstance(text, str):
        raise ValueError(f"a rational must be a 'p/q' string, got {type(text).__name__}")
    return _parse_rational(text)


@lru_cache(maxsize=RATIONAL_CACHE_SIZE)
def _parse_rational(text: str) -> Fraction:
    m = _RATIONAL_RE.match(text.strip(_ASCII_SPACE))
    if m is None:
        raise ValueError(f"malformed rational {text!r}: expected 'p' or 'p/q'")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    return Fraction(num, den)


def format_rational(value: RationalLike) -> str:
    """Canonical string form: ``"z"`` for integers, else ``"p/q"``."""
    num, den = as_rational(value).as_integer_ratio()
    return str(num) if den == 1 else f"{num}/{den}"


def parse_rational_vector(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated rational vector, e.g. ``"1/2,-3"``."""
    stripped = text.strip(_ASCII_SPACE)
    if not stripped:
        return ()
    return tuple(parse_rational(part) for part in stripped.split(","))


def format_rational_vector(values: Sequence[RationalLike]) -> str:
    return ",".join(format_rational(v) for v in values)
