"""JSON codecs for every value the package exposes.

Design rules:

* rationals are strings, ``"z"`` for integers and ``"p/q"`` in lowest
  terms otherwise, never JSON numbers (bit-exact round-trips);
* vectors of rationals are lists of such strings;
* enums serialize to their value strings;
* classes over a surface model serialize without embedding the model;
  every ``*_from_json`` decoder takes ``(data, model=None)``, and those
  of classes over a surface model need the model.

Schemas (all keys required unless marked optional):

  SurfaceModel        {picard_rank: int, gram: [[int]], canonical: vec,
                       k_trivial: bool, omega_class: vec}
  SurfaceClass        {r: rat, d: vec, s: rat}
  ThreefoldClass      {alpha: SurfaceClass, beta: SurfaceClass}
  DivisorClassX       {a: rat, delta: vec}
  Polarization        {t: rat, s: rat, h: vec}
  LineBundleX         {m: int, twist: vec}
  TruncatedChar       {ch0: rat, ch1: DivisorClassX}
  TransformResult     {char: TruncatedChar, wit: str, locally_free: bool}
  SheafScenario       {n: int, c: int, wit: str, dim_shift: int}
  Conclusion          {kind: str, statement: str, via_dimension_only: bool}
  TermRef             {side: str, pos: [int, int], label: str}
  DerivedRelation     {kind: str, degree: int, ...} with kind-specific
                      fields: Identification {left, right: TermRef},
                      ForcedZero {term: TermRef},
                      ShortExact {sub, mid, quot: TermRef},
                      Forbidden {reason: str}
  DestabilizerCandidate {r: int, a: rat, delta: vec, e: int}
  EffectivityProxy    {a_nonneg: bool, pairing: rat}
  TraceStep           {name: str, value: rat, requirement: str,
                       satisfied: bool}
  StabilityReport     {candidate, verdict: str, target_slope: rat,
                       candidate_slope: rat, proxy, fiber_degree: rat,
                       trace: [TraceStep],
                       inadmissible_reasons: [str]}
  ScanResult          {any_violation: bool, candidate_count: int,
                       verdict_counts: {str: int}, reports: [...]}

Every schema above but ScanResult is its dataclass's own field list.  For
each such class one encoder and one decoder are generated from
``dataclasses.fields`` and :func:`weierfm.rationals.field_types`, reading
tuple types through :func:`weierfm.rationals.tuple_item`, the rule the
value classes' own checks read, each the first time it is needed: straight-line Python that reads and writes each
field by name, as ``dataclasses`` writes an ``__init__``, compiled with
``exec`` from source holding only field names, JSON keys, class names and
constant messages, never document data.  Keys are the field names in field
order, renamed where ``_RENAMES`` says (``fiber_deg`` is written
``fiber_degree``); a field typed ``SurfaceModel`` is left out and filled
from the decoder's ``model`` argument, which a decoder passes on to the
decoder of each nested class.  An optional field (``LineBundleX.twist``) is
written as the value it stores, never None.  Decoders take only the JSON
types the encoders write and raise ``ValueError`` otherwise, naming the
first missing key; a document with several faulty fields raises for the
first in field order.  Every class a decoder reads is a value class
(:func:`weierfm.rationals.value_class`), so once they pass it decodes
trusted: it is built through its trusted constructor
(:func:`weierfm.rationals.trusted`), and then its ``_check`` hook, if it
has one, runs the checks between fields that the decoder cannot express
(a model's shape and symmetry, a scenario's ranges, a relation's
antidiagonal and sides, a TermRef's label, a candidate's r and e ranges, a
vector's length against the model, a scan's ``any_violation``), which its
constructor runs after the field types; so each invariant is written once.
``ScanResult``, ``ScenarioSolution`` and ``TransformStabilityReport`` are
views (derived counts, renamed fields, a flattened scan) with hand-written
encoders.  ``ScanResult`` is read back through its generated decoder,
and then its ``candidate_count`` and ``verdict_counts`` must equal what
the decoded scan gives.

One table, ``_FORMS``, names each class with a JSON form: its layer
module, its decoder (none for the enums and the views only written) and
its view encoder, if any.  Importing this module loads no layer beyond
``ring``.  ``to_jsonable`` makes a class's encoder the first time it
meets the class, refusing with ``TypeError`` one that the table does not
name in that layer, so after that an encode is one dict lookup; an encoder
binds those of the classes it nests through the same check.  A
``*_from_json`` is made on its first access as a module attribute, from
the generated decoders of the classes that name it, importing their
layer, and stays in the namespace (``conclusion_from_json`` loads only
``verdicts``, which defines the duality verdict types, not the engine);
``scan_result_from_json``, which adds the check above, is written out.
The relations share ``relation_from_json`` and lead with a ``"kind"`` tag
naming their class.

Rationals decode through :func:`weierfm.rationals.parse_rational`, which
parses each distinct string once and keeps up to
``RATIONAL_CACHE_SIZE`` (4 096) of them; decoded objects share the cached
``Fraction`` instances, which are immutable.  Every other decoded value
is a new instance per document.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from importlib import import_module
from itertools import repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .rationals import (
    field_types, format_rational, parse_rational, stored_type, trusted, tuple_item,
)
from .ring import SurfaceModel

if TYPE_CHECKING:
    from .duality import DerivedRelation, ScenarioSolution
    from .stability import ScanResult, TransformStabilityReport

_RENAMES = {"fiber_deg": "fiber_degree"}
_LEAVES = {int: "an integer", bool: "a boolean", str: "a string"}

_enum_value = attrgetter("value")


# -- the errors a decoder raises -------------------------------------------------


def _wrong_type(kind: type, value: Any) -> ValueError:
    return ValueError(f"expected {_LEAVES[kind]}, got {type(value).__name__}")


def _not_an_object(owner: str, value: Any) -> ValueError:
    return ValueError(f"{owner} JSON must be an object, got {type(value).__name__}")


def _missing_key(owner: str, key: str) -> ValueError:
    return ValueError(f"{owner} JSON is missing key {key!r}")


def _not_a_list(value: Any) -> ValueError:
    return ValueError(f"expected a list, got {type(value).__name__}")


def _wrong_length(size: int, value: list) -> ValueError:
    return ValueError(f"expected a list of {size} entries, got {len(value)}")


def _not_a_member(kind: type[Enum], value: Any) -> ValueError:
    return ValueError(f"{value!r} is not a valid {kind.__name__}")


def _needs_model(owner: str) -> TypeError:
    return TypeError(f"decoding a {owner} needs its surface model")


# -- generated codecs ------------------------------------------------------------


def _is_enum(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, Enum)


# The message helpers a generated decoder raises through.
_HELPERS = {
    helper.__name__: helper
    for helper in (_wrong_type, _not_an_object, _missing_key, _not_a_list, _wrong_length,
                   _not_a_member, _needs_model)
}


class _Source:
    """The lines of one generated function and the names they read."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.names = {
            **_HELPERS, "_parse_rational": parse_rational,
            "_format_rational": format_rational, "_repeat": repeat,
        }

    def bind(self, name: str, value: Any) -> str:
        self.names[name] = value
        return name

    def function(self, name: str) -> Callable[..., Any]:
        exec("\n".join(self.lines), self.names)
        return self.names.pop(name)


def _encode_expr(src: _Source, hint: Any, expr: str, depth: int = 0) -> str:
    """Python source encoding the value ``expr`` of type ``hint``."""
    if hint in _LEAVES:
        return expr
    if hint is Fraction:
        return f"_format_rational({expr})"
    if _is_enum(hint):
        return f"{expr}.value"
    if is_dataclass(hint):
        return f"{src.bind(f'_{hint.__name__}_encode', _encoder(hint))}({expr})"
    item = tuple_item(hint)[0]
    if item in _LEAVES:
        return f"list({expr})"
    if item is Fraction:
        return f"list(map(_format_rational, {expr}))"
    if is_dataclass(item):
        return f"list(map({src.bind(f'_{item.__name__}_encode', _encoder(item))}, {expr}))"
    x = f"x{depth}"
    return f"[{_encode_expr(src, item, x, depth + 1)} for {x} in {expr}]"


def _decode_lines(src: _Source, hint: Any, var: str, pad: str, depth: int = 0) -> None:
    """Lines that check the JSON value ``var`` against ``hint`` and rebind
    ``var`` to its decoded value (a leaf is only checked, in place)."""
    add = src.lines.append
    if hint in _LEAVES:
        add(f"{pad}if type({var}) is not {hint.__name__}:")
        add(f"{pad}    raise _wrong_type({hint.__name__}, {var})")
    elif hint is Fraction:
        add(f"{pad}{var} = _parse_rational({var})")
    elif _is_enum(hint):
        name = hint.__name__
        members = src.bind(f"_{name}_members", {member.value: member for member in hint})
        add(f"{pad}try:")
        add(f"{pad}    {var} = {members}[{var}]")
        add(f"{pad}except (KeyError, TypeError):")
        add(f"{pad}    raise _not_a_member({src.bind(f'_{name}', hint)}, {var}) from None")
    elif is_dataclass(hint):
        decode = src.bind(f"_{hint.__name__}_decode", _decoder_of(hint))
        add(f"{pad}{var} = {decode}({var}, model)")
    else:
        item, size = tuple_item(hint)
        add(f"{pad}if type({var}) is not list:")
        add(f"{pad}    raise _not_a_list({var})")
        if size is not None:
            add(f"{pad}if len({var}) != {size}:")
            add(f"{pad}    raise _wrong_length({size}, {var})")
        x = f"x{depth}"
        if item in _LEAVES:
            add(f"{pad}for {x} in {var}:")
            _decode_lines(src, item, x, pad + "    ")
            add(f"{pad}{var} = tuple({var})")
        elif item is Fraction:
            add(f"{pad}{var} = tuple(map(_parse_rational, {var}))")
        elif is_dataclass(item):
            decode = src.bind(f"_{item.__name__}_decode", _decoder_of(item))
            add(f"{pad}{var} = tuple(map({decode}, {var}, _repeat(model)))")
        else:
            items = f"items{depth}"
            add(f"{pad}{items} = []")
            add(f"{pad}for {x} in {var}:")
            _decode_lines(src, item, x, pad + "    ", depth + 1)
            add(f"{pad}    {items}.append({x})")
            add(f"{pad}{var} = tuple({items})")


def _columns(cls: type) -> list[tuple[int, str, str | None, Any]]:
    """(position, field name, JSON key, field type) of each field of the
    dataclass ``cls``, the type it stores (see
    :func:`weierfm.rationals.stored_type`); a field typed ``SurfaceModel``
    has no key."""
    types = field_types(cls)
    columns = []
    for at, f in enumerate(fields(cls)):
        hint = stored_type(types[f.name])
        key = None if hint is SurfaceModel else _RENAMES.get(f.name, f.name)
        columns.append((at, f.name, key, hint))
    return columns


def _encoder_of(cls: type) -> Callable[[Any], dict]:
    """The encoder of one dataclass, generated for :func:`_encoder`, which
    keeps it, as one dict display, the way ``dataclasses`` writes an
    ``__init__``: its source holds only field names, JSON keys and the
    class name."""
    src = _Source()
    owner = cls.__name__
    # The classes relation_from_json reads lead with a tag naming the class.
    entries = [f"'kind': {owner!r}"] if owner in _kinds("relation_from_json") else []
    entries += [f"{key!r}: {_encode_expr(src, hint, f'obj.{name}')}"
                for _, name, key, hint in _columns(cls) if key is not None]
    src.lines += ["def encode(obj):", "    return {", *(f"        {e}," for e in entries), "    }"]
    return src.function("encode")


@cache
def _decoder_of(cls: type) -> Callable[..., Any]:
    """The decoder ``(data, model=None)`` of one dataclass, generated once
    per class as straight-line Python whose source holds only JSON keys,
    class names and constant messages, never document data.

    It checks in one fixed order: the document is an object, every key is
    present (the first missing one in field order is named), each field in
    field order (a nested class's decoder is passed ``model`` too), then
    the model if the class has a ``SurfaceModel`` field.  Only then does it
    build the value class through :func:`weierfm.rationals.trusted` and run
    its ``_check`` hook, if it has one, as its constructor runs that hook
    after checking each field's type, which the decoder has just checked."""
    owner = cls.__name__
    columns = _columns(cls)
    data = [(at, key, hint) for at, _, key, hint in columns if key is not None]
    src = _Source()
    add = src.lines.append
    add("def decode(data, model=None):")
    add("    if type(data) is not dict:")
    add(f"        raise _not_an_object({owner!r}, data)")
    add("    try:")
    for at, key, _ in data:
        add(f"        v{at} = data[{key!r}]")
    add("    except KeyError as exc:")
    add(f"        raise _missing_key({owner!r}, exc.args[0]) from None")
    for at, _, hint in data:
        _decode_lines(src, hint, f"v{at}", "    ")
    if len(data) < len(columns):
        add("    if model is None:")
        add(f"        raise _needs_model({owner!r})")
    values = ", ".join("model" if key is None else f"v{at}" for at, _, key, _ in columns)
    build = src.bind(f"_{owner}_trusted", trusted(cls))
    check = getattr(cls, "_check", None)
    if check is None:
        add(f"    return {build}({values})")
    else:
        src.lines += [f"    obj = {build}({values})",
                      f"    {src.bind(f'_{owner}_check', check)}(obj)", "    return obj"]
    return src.function("decode")


# -- views: JSON that is not the dataclass's own field list ------------------


def _scan_counts(scan: ScanResult) -> dict:
    """The fields a ScanResult derives from its reports."""
    return {
        "any_violation": scan.any_violation,
        "candidate_count": scan.candidate_count,
        "verdict_counts": scan.verdict_counts(),
    }


def _scan_json(obj: ScanResult) -> dict:
    return {**_scan_counts(obj), "reports": [to_jsonable(r) for r in obj.reports]}


def _solution_json(obj: ScenarioSolution) -> dict:
    return {
        "scenario": to_jsonable(obj.scenario),
        "left_degeneration_page": obj.left_page,
        "right_degeneration_page": obj.right_page,
        "relations": [to_jsonable(r) for r in obj.relations],
        "conclusion": to_jsonable(obj.conclusion),
    }


def _pipeline_json(obj: TransformStabilityReport) -> dict:
    return {
        "line_bundle": to_jsonable(obj.line_bundle),
        "transform": to_jsonable(obj.transform),
        "transform_slope": format_rational(obj.transform_slope),
        "search_rank": obj.search_rank,
        "target_slope": format_rational(obj.target_slope),
        "stable": obj.stable,
        **_scan_counts(obj.scan),
        "duality_step": to_jsonable(obj.duality_step) if obj.duality_step else None,
        "reduction": list(obj.reduction),
    }


class _Form(NamedTuple):
    layer: str  # the module that defines the class
    decoder: str | None = None  # the *_from_json that reads it back
    view: Callable[[Any], Any] | None = None  # encoder of a view


# Every class with a JSON form, by name.
_FORMS = {
    "SurfaceModel": _Form("ring", "surface_model_from_json"),
    "SurfaceClass": _Form("ring", "surface_class_from_json"),
    "ThreefoldClass": _Form("ring", "threefold_class_from_json"),
    "DivisorClassX": _Form("ring", "divisor_class_from_json"),
    "Polarization": _Form("fm", "polarization_from_json"),
    "LineBundleX": _Form("fm", "line_bundle_from_json"),
    "TruncatedChar": _Form("fm", "truncated_char_from_json"),
    "TransformResult": _Form("fm", "transform_result_from_json"),
    "WitType": _Form("verdicts"),
    "KernelChoice": _Form("fm"),
    "SheafScenario": _Form("duality", "scenario_from_json"),
    "Conclusion": _Form("verdicts", "conclusion_from_json"),
    "TermRef": _Form("duality", "term_ref_from_json"),
    "Identification": _Form("duality", "relation_from_json"),
    "ForcedZero": _Form("duality", "relation_from_json"),
    "ShortExact": _Form("duality", "relation_from_json"),
    "Forbidden": _Form("duality", "relation_from_json"),
    "ScenarioSolution": _Form("duality", None, _solution_json),
    "DestabilizerCandidate": _Form("stability", "candidate_from_json"),
    "EffectivityProxy": _Form("stability", "effectivity_proxy_from_json"),
    "TraceStep": _Form("stability", "trace_step_from_json"),
    "StabilityReport": _Form("stability", "stability_report_from_json"),
    "ScanResult": _Form("stability", "scan_result_from_json", _scan_json),
    "TransformStabilityReport": _Form("stability", None, _pipeline_json),
}


def _kinds(decoder: str) -> list[str]:
    """The names of the classes whose JSON ``decoder`` reads."""
    return [name for name, form in _FORMS.items() if form.decoder == decoder]


_ENCODERS: dict[type, Callable[[Any], Any]] = {Fraction: format_rational}


def _encoder(cls: type) -> Callable[[Any], Any]:
    """The encoder of ``cls``, the class its form names, made the first
    time and kept in ``_ENCODERS``, the one encoder cache; an encoder binds
    those of the classes it nests through here too."""
    if cls in _ENCODERS:
        return _ENCODERS[cls]
    form = _FORMS.get(cls.__name__)
    if form is None or cls.__module__ != f"{__package__}.{form.layer}":
        raise TypeError(f"no JSON form registered for {cls.__name__}")
    encode = _ENCODERS[cls] = form.view or (
        _enum_value if issubclass(cls, Enum) else _encoder_of(cls)
    )
    return encode


def to_jsonable(obj: Any) -> Any:
    try:
        encode = _ENCODERS[type(obj)]
    except KeyError:
        encode = _encoder(type(obj))
    return encode(obj)


def dumps(obj: Any, indent: int | None = 2) -> str:
    return json.dumps(to_jsonable(obj), ensure_ascii=False, indent=indent)


# -- decoders: (data, model=None); classes over a surface model need the model


def _same_json(value: Any, expected: Any) -> bool:
    """JSON equality that tells true from 1 and 1 from 1.0."""
    if type(value) is not type(expected):
        return False
    if type(expected) is dict:
        return value.keys() == expected.keys() and all(
            _same_json(value[key], expected[key]) for key in expected
        )
    return value == expected


def scan_result_from_json(data: Any, model: SurfaceModel | None = None) -> ScanResult:
    """The scan through ScanResult's generated decoder, whose ``_check``
    refuses an ``any_violation`` that its reports do not give;
    ``candidate_count`` and ``verdict_counts`` must equal what the decoded
    scan gives."""
    from .stability import ScanResult

    scan = _decoder_of(ScanResult)(data, model)
    for key, expected in _scan_counts(scan).items():
        if key not in data:
            raise ValueError(f"ScanResult JSON is missing key {key!r}")
        if not _same_json(data[key], expected):
            raise ValueError(
                f"ScanResult JSON {key!r} is {data[key]!r}, but its reports give {expected!r}"
            )
    return scan


def _relation_decoder(decoders: dict[str, Callable[..., Any]]) -> Callable[..., DerivedRelation]:
    def relation_from_json(data: Any, model: SurfaceModel | None = None) -> DerivedRelation:
        if type(data) is not dict or "kind" not in data:
            raise ValueError("DerivedRelation JSON must be an object with the key 'kind'")
        kind = data["kind"]
        if type(kind) is not str or kind not in decoders:
            raise ValueError(f"unknown relation kind {kind!r}")
        return decoders[kind](data, model)

    return relation_from_json


def __getattr__(name: str) -> Any:
    """Make the decoder ``name`` on first access, from the generated
    decoders of the classes whose forms name it, and keep it as a module
    attribute, so later reads never come back here."""
    kinds = _kinds(name)
    if not kinds:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_FORMS[kinds[0]].layer}", __package__)
    decoders = {kind: _decoder_of(getattr(module, kind)) for kind in kinds}
    decode = globals()[name] = (
        _relation_decoder(decoders) if len(kinds) > 1 else decoders[kinds[0]]
    )
    return decode


def __dir__() -> list[str]:
    return sorted({*globals(), *filter(None, (form.decoder for form in _FORMS.values()))})
