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

A value class is declared with ``@value_class`` instead of
``@dataclass(frozen=True)``.  ``dataclasses`` keeps its field list and
compiles none of its methods: the class gets one generated ``__init__``,
straight-line code that stores the fields into ``__dict__`` in field order,
and shares ``==``, ``hash``, ``repr`` and the frozen ``__setattr__`` and
``__delattr__`` with every other value class, each giving what
``dataclass(frozen=True)`` gives.  Its public constructor checks each field
against the field's annotation (a ``Fraction`` through ``as_rational``, any
other class through ``require``, a tuple, and only a tuple, entry by
entry; a value already of the exact ``Fraction`` or other class skips
its check, which would return it unchanged), then runs the class's
``_check`` hook, which holds the checks between fields.  The check table is built from the annotations on a
class's first construction, never at import, and kept per class; every
annotation must name classes its module binds, or that construction
raises NameError.  An optional field, ``X | None``, takes None or what X
takes.  One rule, ``tuple_item``, reads a tuple type's item type and
length, for these checks and for the codec's generated decoders and
encoders.  The duality solver's pages and relations and the
stability scan's values, and what the JSON decoders' own checks passed,
are built through ``trusted(cls)``: one constructor per class, generated
on first use by the same generator as ``__init__``, that only stores the
fields.  Every class the codec reads
is a value class, so each decodes trusted: its decoder's checks and its
``_check`` hook are what its constructor would run.
"""

from __future__ import annotations

import re
import reprlib
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cache, lru_cache
from types import UnionType
from typing import Any, Callable, Sequence, TypeVar, Union, get_args, get_origin

RationalLike = Union[int, Fraction]
T = TypeVar("T")

_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")
_ASCII_SPACE = " \t\n\r\f\v"

# Distinct strings parse_rational keeps parsed; ~16x the most distinct
# rationals measured in one decoded scan document.  Knocking the cache out
# costs codec 29 % of its throughput (BENCH_35.json).
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


class _Quote(reprlib.Repr):
    """``reprlib``'s bounded quote, with a dataclass instance quoted as
    ``ClassName(...)``: ``reprlib`` cuts an instance's ``repr()`` only after
    building all of it, which for a scan holds every report."""

    def repr_instance(self, x: Any, level: int) -> str:
        if is_dataclass(x) and not isinstance(x, type):
            return f"{type(x).__name__}(...)"
        return super().repr_instance(x, level)


_quote = _Quote().repr


def require(value: Any, kind: Any, what: str) -> None:
    """Refuse with ValueError a ``value`` that is not a ``kind``, a class or
    a union of classes; an int must not be a bool (see :func:`is_int`).  The
    message names the value's type and quotes it as ``reprlib`` does, a
    dataclass instance as ``ClassName(...)``."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        names = " or ".join(k.__name__ for k in get_args(kind) or (kind,))
        article = "an" if names[0] in "AEIOUaeiou" else "a"
        raise ValueError(
            f"{what} must be {article} {names}, got {type(value).__name__} {_quote(value)}"
        )


def value_class(cls: type[T]) -> type[T]:
    """Make ``cls`` a frozen value class whose constructor checks each field
    against its annotation (see :func:`_checker`), then runs the class's
    ``_check`` hook, if it has one.

    ``dataclasses`` only keeps the field list, so ``fields``, ``replace``
    and ``__match_args__`` work, and compiles no method.  The class gets one
    ``__init__``, generated as straight-line code like :func:`trusted`'s
    (see :func:`_store_fields`), which stores the fields, the declared
    defaults filling any left out, then calls ``self.__post_init__()``;
    and the methods every value class shares, which read ``__dict__`` in
    field order with ``dataclass(frozen=True)``'s results: ``==`` within
    one class (NotImplemented across classes), the hash of the field tuple,
    ``Name(x=..., ...)`` as the repr, and FrozenInstanceError on every
    assignment or deletion.  A class without a docstring gets
    ``Name(x: 'type', ...)``, as ``dataclasses`` writes it."""
    if own := _SHARED.keys() & vars(cls).keys():
        raise TypeError(f"{cls.__name__} defines {', '.join(sorted(own))}, which value classes share")
    cls.__post_init__ = _check_fields
    # A placeholder, or dataclasses parses object's signature for the docstring.
    doc, cls.__doc__ = cls.__doc__, "-"
    dataclass(init=False, repr=False, eq=False)(cls)
    fs = fields(cls)
    if any(f.default_factory is not MISSING or not f.init for f in fs):
        raise TypeError(f"{cls.__name__} has a field that is not a plain constructor argument")
    params = [f.name if f.default is MISSING else f"{f.name}=_dflt_{f.name}" for f in fs]
    cls.__init__ = init = _store_fields(
        cls, "__init__", ["self", *params], "_d = self.__dict__", "self.__post_init__()",
        {f"_dflt_{f.name}": f.default for f in fs})
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in fs} | {"return": None}
    cls.__doc__ = doc or f"{cls.__name__}({', '.join(map(_param_text, fs))})"
    for name, method in _SHARED.items():
        setattr(cls, name, method)
    return cls


def _param_text(f: Any) -> str:
    """The field ``f`` as ``inspect.signature`` writes the parameter of a
    postponed annotation: ``x: 'type'``, then ``= default`` if it has one."""
    return f"{f.name}: {f.type!r}" + ("" if f.default is MISSING else f" = {f.default!r}")


def _value_eq(self: Any, other: Any) -> Any:
    if other.__class__ is self.__class__:
        return self.__dict__ == other.__dict__
    return NotImplemented


def _value_hash(self: Any) -> int:
    return hash(tuple(self.__dict__.values()))


@reprlib.recursive_repr()
def _value_repr(self: Any) -> str:
    values = ", ".join([f"{name}={value!r}" for name, value in self.__dict__.items()])
    return f"{self.__class__.__qualname__}({values})"


def _frozen_setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# The methods value_class installs, the same functions on every value class.
_SHARED = {"__eq__": _value_eq, "__hash__": _value_hash, "__repr__": _value_repr,
           "__setattr__": _frozen_setattr, "__delattr__": _frozen_delattr}


def is_value_class(cls: type) -> bool:
    """Whether ``cls`` was made by :func:`value_class`."""
    return getattr(cls, "__post_init__", None) is _check_fields


def _check_fields(self: Any) -> None:
    checks, hook = _field_checks(type(self))
    values = self.__dict__
    for name, check, exact in checks:
        value = values[name]
        if type(value) is not exact:
            values[name] = check(value)
    if hook is not None:
        hook(self)


def field_types(cls: type) -> dict[str, Any]:
    """The annotation of each field of the dataclass ``cls``, by name, as
    its module resolves it (NameError for a name the module does not bind)."""
    namespace = vars(sys.modules[cls.__module__])
    # Annotations are postponed, so f.type is the annotation's text.
    return {f.name: eval(f.type, namespace) for f in fields(cls)}


def stored_type(hint: Any) -> Any:
    """X for the optional type ``X | None``, and ``hint`` itself otherwise:
    the type such a field stores when it is not None.  The codec reads an
    optional field as the X it stores, since the one it decodes,
    LineBundleX.twist, holds None only as a constructor default that the
    class's ``_check`` hook replaces."""
    args = get_args(hint)
    if get_origin(hint) in (Union, UnionType) and len(args) == 2 and type(None) in args:
        return args[0] if args[1] is type(None) else args[1]
    return hint


@cache
def _field_checks(cls: type) -> tuple[tuple[tuple[str, Callable[[Any], Any], Any], ...], Any]:
    """The (field name, check, exact class) triples of the value class
    ``cls``, read from its annotations, and its ``_check`` hook (None if it
    has none).  A value of the exact class skips the check, which would
    return it unchanged (see :func:`_checker`)."""
    checks = tuple((name, *_checker(hint, name)) for name, hint in field_types(cls).items())
    return checks, getattr(cls, "_check", None)


def tuple_item(hint: Any) -> tuple[Any, int | None]:
    """The item type and the length (None: any) of the homogeneous tuple
    type ``hint``, ``tuple[X, ...]`` or ``tuple[X, X]``; TypeError for any
    other type."""
    args = get_args(hint)
    if get_origin(hint) is tuple and len(set(args) - {Ellipsis}) == 1:
        return args[0], None if args[-1] is Ellipsis else len(args)
    raise TypeError(f"{hint!r} is not a homogeneous tuple type")


def _checker(hint: Any, what: str) -> tuple[Callable[[Any], Any], Any]:
    """The check of the field ``what`` of type ``hint``, which returns the
    value to store: a ``Fraction`` goes through :func:`as_rational`
    (TypeError on a float); ``tuple[X, ...]`` takes a tuple, never a list,
    set, dict or generator, and checks each entry as an X, so a rational
    vector ``tuple[Fraction, ...]`` is one of these; ``tuple[X, X]`` takes
    one of that length (see :func:`tuple_item`); ``X | None`` takes None or
    what X takes; any other class, or union of classes, goes through
    :func:`require` (ValueError).  With it, the exact class whose values the
    check returns unchanged: ``Fraction``, or the other class itself (a bool
    is not exactly an int, and no value's class is a union); None for a
    tuple or an optional type, whose checks always run."""
    stored = stored_type(hint)
    if stored is not hint:
        check, _ = _checker(stored, what)
        return (lambda value: value if value is None else check(value)), None
    if hint is Fraction:
        return as_rational, Fraction
    if get_origin(hint) is tuple:
        item_type, size = tuple_item(hint)
        item, _ = _checker(item_type, f"an entry of {what}")

        def check(value: Any) -> Any:
            require(value, tuple, what)
            if size is not None and len(value) != size:
                raise ValueError(f"{what} must have {size} entries, got {len(value)}")
            return tuple(map(item, value))
        return check, None
    # The exact type passes at once; anything else gets require's rules.
    return (lambda value: value if type(value) is hint else require(value, hint, what) or value), hint


@cache
def trusted(cls: type[T]) -> Callable[..., T]:
    """The trusted constructor of the dataclass ``cls``: called with one
    value per field, in field order, it builds the instance without
    ``__init__`` or ``__post_init__``.

    It is generated on first use, once per class, by the generator that
    writes a value class's ``__init__`` (see :func:`_store_fields`), as
    ``_obj = _new(_cls); _d = _obj.__dict__; _d['r'] = r; ...``.  A frozen
    instance stays frozen: only its ``__dict__`` is written.  For callers
    whose values already passed the checks and coercions the constructor
    would run: the duality solver and the scan on values they computed, and
    the JSON decoders after their own checks.
    The public constructors keep every check.
    """
    if "__slots__" in cls.__dict__:
        raise TypeError(f"{cls.__name__} has __slots__ and no instance __dict__ to write")
    names = [f.name for f in fields(cls)]
    build = _store_fields(cls, "build", names, "_obj = _new(_cls); _d = _obj.__dict__",
                          "return _obj", {"_new": object.__new__, "_cls": cls})
    build.__qualname__ = f"trusted({cls.__qualname__})"
    return build


def _store_fields(
    cls: type, name: str, params: list[str], first: str, last: str, namespace: dict[str, Any]
) -> Callable[..., Any]:
    """The function ``name(*params)``, compiled with one ``exec`` in
    ``namespace`` as straight-line code, the way ``dataclasses`` writes an
    ``__init__``: ``first``, which binds ``_d`` to the instance's
    ``__dict__``, then ``_d['x'] = x`` for each field of ``cls`` in field
    order, then ``last``."""
    stores = [f"    _d[{f.name!r}] = {f.name}" for f in fields(cls)]
    exec("\n".join([f"def {name}({', '.join(params)}):", f"    {first}", *stores, f"    {last}"]),
         namespace)
    return namespace[name]


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
