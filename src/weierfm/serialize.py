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

Every schema above but ScanResult is its dataclass's own field list, so
one plan per class, read once from ``dataclasses.fields`` and
``typing.get_type_hints``, drives both directions through an encoder and
a decoder closure cached by type.  Keys are the field names in field
order, renamed where ``_RENAMES`` says (``fiber_deg`` is written
``fiber_degree``); a field typed ``SurfaceModel`` is left out and filled
from the decoder's ``model`` argument.  Decoders take only the JSON types
the encoders write and raise ``ValueError`` otherwise, naming any missing
key.  ``ScanResult``, ``ScenarioSolution`` and ``TransformStabilityReport``
are views (derived counts, renamed fields, a flattened scan) with
hand-written encoders.  ``ScanResult`` is read back through its plan and
a check that its three derived fields equal what the decoded reports give.

One table, ``_FORMS``, names each class with a JSON form: its layer
module, its decoder (none for the enums and the views only written) and
its view encoder, if any.  Importing this module loads no layer beyond
``ring``.  ``to_jsonable`` makes a class's encoder the first time it
meets the class, refusing with ``TypeError`` one that the table does not
name in that layer, so after that an encode is one dict lookup.  A
decoder is made from the plans of the classes that name it on its first
access as a module attribute, importing their layer, and stays in the
namespace; ``scan_result_from_json``, which adds the check above, is
written out.  The relations share ``relation_from_json`` and lead with a
``"kind"`` tag naming their class.

Rationals decode through :func:`weierfm.rationals.parse_rational`, which
parses each distinct string once and keeps up to
``RATIONAL_CACHE_SIZE`` (4 096) of them; decoded objects share the cached
``Fraction`` instances, which are immutable.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from importlib import import_module
from itertools import repeat
from operator import attrgetter, itemgetter
from types import UnionType
from typing import (
    TYPE_CHECKING, Any, Callable, NamedTuple, Union, get_args, get_origin, get_type_hints,
)

from .rationals import format_rational, parse_rational
from .ring import SurfaceModel

if TYPE_CHECKING:
    from .duality import DerivedRelation, ScenarioSolution
    from .stability import ScanResult, TransformStabilityReport

_RENAMES = {"fiber_deg": "fiber_degree"}
_LEAVES = {int: "an integer", bool: "a boolean", str: "a string"}


class _Codec(NamedTuple):
    encode: Callable[[Any], Any]
    decode: Callable[..., Any]  # (value) or, if needs_model, (value, model)
    needs_model: bool = False


_enum_value = attrgetter("value")


def _wrong_type(kind: type, value: Any) -> ValueError:
    return ValueError(f"expected {_LEAVES[kind]}, got {type(value).__name__}")


def _enum(kind: type[Enum]) -> _Codec:
    members = {member.value: member for member in kind}

    def decode(value: Any) -> Enum:
        try:
            return members[value]
        except (KeyError, TypeError):
            raise ValueError(f"{value!r} is not a valid {kind.__name__}") from None

    return _Codec(_enum_value, decode)


def _tuple(hint: Any, size: int | None) -> _Codec:
    leaf = hint if hint in _LEAVES else None
    item = _Codec(list, None) if leaf else _field_codec(hint)
    encode_item, decode_item, needs_model = item

    def decode(value: Any, model: SurfaceModel | None = None) -> tuple:
        if type(value) is not list:
            raise ValueError(f"expected a list, got {type(value).__name__}")
        if size is not None and len(value) != size:
            raise ValueError(f"expected a list of {size} entries, got {len(value)}")
        if leaf is not None:
            for entry in value:
                if type(entry) is not leaf:
                    raise _wrong_type(leaf, entry)
            return tuple(value)
        if needs_model:
            return tuple(map(decode_item, value, repeat(model)))
        return tuple(map(decode_item, value))

    encode = list if leaf else lambda v: list(map(encode_item, v))
    return _Codec(encode, decode, needs_model)


def _field_codec(hint: Any) -> _Codec:
    """Codec of one non-leaf field type (leaves are handled by the caller)."""
    if hint is Fraction:
        return _Codec(format_rational, parse_rational)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return _enum(hint)
    if is_dataclass(hint):
        return _plan(hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        # None only as a constructor default (LineBundleX.twist): the stored
        # value is always set, so JSON carries the value's own form
        return _field_codec(args[0] if args[1] is type(None) else args[1])
    if origin is tuple and len(set(args) - {Ellipsis}) == 1:
        return _tuple(args[0], None if args[-1] is Ellipsis else len(args))
    raise TypeError(f"no JSON form for field type {hint!r}")


@cache
def _plan(cls: type) -> _Codec:
    """Encoder and decoder closures for one dataclass, built once per type.

    int, bool and str fields are copied out as they are and, on decode,
    only type-checked; every other field goes through its own codec.
    """
    hints = get_type_hints(cls)
    owner = cls.__name__
    # The classes relation_from_json reads lead with a tag naming the class.
    head = {"kind": owner} if owner in _kinds("relation_from_json") else {}
    model_at = None
    writers, keys, checks, plain, scoped = [], [], [], [], []
    for f in fields(cls):
        hint = hints[f.name]
        if hint is SurfaceModel:
            model_at = len(keys)
            continue
        key = _RENAMES.get(f.name, f.name)
        codec = None if hint in _LEAVES else _field_codec(hint)
        if codec is None:
            checks.append((len(keys), hint))
        else:
            (scoped if codec.needs_model else plain).append((len(keys), codec.decode))
        writers.append((key, attrgetter(f.name), codec and codec.encode))
        keys.append(key)
    get_values = itemgetter(*keys) if len(keys) > 1 else lambda d: (d[keys[0]],)

    def encode(obj: Any) -> dict:
        out = head.copy()
        for key, get, encode_field in writers:
            value = get(obj)
            out[key] = value if encode_field is None else encode_field(value)
        return out

    def decode(data: Any, model: SurfaceModel | None = None) -> Any:
        if type(data) is not dict:
            raise ValueError(f"{owner} JSON must be an object, got {type(data).__name__}")
        try:
            values = list(get_values(data))
        except KeyError as exc:
            raise ValueError(f"{owner} JSON is missing key {exc.args[0]!r}") from None
        for at, kind in checks:
            if type(values[at]) is not kind:
                raise _wrong_type(kind, values[at])
        for at, decode_field in plain:
            values[at] = decode_field(values[at])
        for at, decode_field in scoped:
            values[at] = decode_field(values[at], model)
        if model_at is not None:
            if model is None:
                raise TypeError(f"decoding a {owner} needs its surface model")
            values.insert(model_at, model)
        return cls(*values)

    return _Codec(encode, decode, model_at is not None or bool(scoped))


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
    "WitType": _Form("fm"),
    "KernelChoice": _Form("fm"),
    "SheafScenario": _Form("duality", "scenario_from_json"),
    "Conclusion": _Form("duality", "conclusion_from_json"),
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
    """Make and keep the encoder of ``cls``, the class its form names."""
    form = _FORMS.get(cls.__name__)
    if form is None or cls.__module__ != f"{__package__}.{form.layer}":
        raise TypeError(f"no JSON form registered for {cls.__name__}")
    encode = _ENCODERS[cls] = form.view or (
        _enum_value if issubclass(cls, Enum) else _plan(cls).encode
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
    """The reports through ScanResult's plan; ``any_violation``,
    ``candidate_count`` and ``verdict_counts`` must equal what those
    reports give.  ``model`` is unused."""
    from .stability import ScanResult, Verdict

    scan = _plan(ScanResult).decode(data)
    violation = any(report.verdict is Verdict.VIOLATION for report in scan.reports)
    for key, expected in _scan_counts(ScanResult(scan.reports, violation)).items():
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
    """Make the decoder ``name`` on first access, from the plans of the
    classes whose forms name it, and keep it as a module attribute, so
    later reads never come back here."""
    kinds = _kinds(name)
    if not kinds:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_FORMS[kinds[0]].layer}", __package__)
    decoders = {kind: _plan(getattr(module, kind)).decode for kind in kinds}
    decode = globals()[name] = (
        _relation_decoder(decoders) if len(kinds) > 1 else decoders[kinds[0]]
    )
    return decode


def __dir__() -> list[str]:
    return sorted({*globals(), *filter(None, (form.decoder for form in _FORMS.values()))})
