import dataclasses
import importlib
import itertools
import json
import operator
import typing
from dataclasses import make_dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weierfm import (
    Conclusion,
    ConclusionKind,
    DestabilizerCandidate,
    DivisorClassX,
    EnumerationBounds,
    Forbidden,
    ForcedZero,
    Identification,
    LineBundleX,
    Polarization,
    ScanResult,
    SheafScenario,
    ShortExact,
    Side,
    StabilityReport,
    SurfaceClass,
    SurfaceModel,
    ThreefoldClass,
    TransformResult,
    TruncatedChar,
    Verdict,
    WeierfmError,
    WitType,
    build_pages,
    certify,
    duality_decision,
    enumerate_candidates,
    get_preset,
    solve_scenario,
    transform_char,
)
from weierfm.duality import TermRef, left_label, right_label
from weierfm.rationals import is_value_class, parse_rational, stored_type
from weierfm.stability import EffectivityProxy, TraceStep
from weierfm import serialize


def rt(obj, parser, *args):
    """Round-trip through real JSON text and compare both ends bit-exactly."""
    text = json.dumps(serialize.to_jsonable(obj))
    back = parser(json.loads(text), *args)
    assert back == obj
    assert json.dumps(serialize.to_jsonable(back)) == text
    return back


def test_fraction_strings_are_canonical():
    assert serialize.to_jsonable(Fraction(4, 8)) == "1/2"
    assert serialize.to_jsonable(Fraction(-4, 2)) == "-2"
    assert json.loads(serialize.dumps(Fraction(1, 3), indent=None)) == "1/3"


def test_surface_model_round_trip(k3, demo):
    for model in (k3.model, demo.model):
        rt(model, serialize.surface_model_from_json)


def test_surface_and_threefold_class_round_trip(demo):
    model = demo.model
    u = model.surface(Fraction(1, 2), (Fraction(-3), Fraction(7, 5)), Fraction(2))
    rt(u, serialize.surface_class_from_json, model)
    x = model.theta() + model.fiber().scale(Fraction(5, 3))
    rt(x, serialize.threefold_class_from_json, model)


def test_divisor_and_polarization_round_trip(k3):
    rt(k3.model.divisor_x(a=Fraction(-1, 2), delta=(3,)),
       serialize.divisor_class_from_json, k3.model)
    pol = Polarization(k3.model, Fraction(2), Fraction(1, 2), k3.ample)
    rt(pol, serialize.polarization_from_json, k3.model)


def test_line_bundle_and_char_round_trip(demo):
    lb = LineBundleX(demo.model, -3, (Fraction(1, 2), Fraction(0)))
    rt(lb, serialize.line_bundle_from_json, demo.model)
    result = transform_char(lb)
    rt(result.char, serialize.truncated_char_from_json, demo.model)
    rt(result, serialize.transform_result_from_json, demo.model)


def test_scenario_and_conclusion_round_trip():
    scenario = SheafScenario(3, 2, WitType.WIT1, -1)
    rt(scenario, serialize.scenario_from_json)
    rt(duality_decision(scenario), serialize.conclusion_from_json)
    flagged = Conclusion(ConclusionKind.DUAL_IS_WIT1, "x", via_dimension_only=True)
    assert rt(flagged, serialize.conclusion_from_json).via_dimension_only


def test_each_relation_kind_round_trips():
    lref = TermRef(Side.LEFT, (0, 1), left_label(0, 1))
    rref = TermRef(Side.RIGHT, (1, 0), right_label(1, 0))
    rref2 = TermRef(Side.RIGHT, (2, -1), right_label(2, -1))
    rt(TermRef(Side.LEFT, (0, 3), left_label(0, 3)), serialize.term_ref_from_json)
    rt(Identification(1, lref, rref), serialize.relation_from_json)
    rt(ForcedZero(1, rref), serialize.relation_from_json)
    rt(ShortExact(1, rref, lref, rref2), serialize.relation_from_json)
    rt(Forbidden(2, "nothing survives"), serialize.relation_from_json)


@pytest.mark.parametrize(
    "side,label",
    [
        ("left", "anything"),
        ("left", right_label(0, 1)),
        ("right", left_label(0, 1)),
        ("left", left_label(1, 0)),
    ],
)
def test_term_ref_label_must_name_its_term(side, label):
    """A label is a function of side and position: a wrong one, another
    side's or another position's is refused, also inside a relation."""
    ref = {"side": side, "pos": [0, 1], "label": label}
    with pytest.raises(ValueError):
        serialize.term_ref_from_json(ref)
    with pytest.raises(ValueError):
        serialize.relation_from_json({"kind": "ForcedZero", "degree": 1, "term": ref})


def _ref_json(side, p, q):
    label = left_label(p, q) if side == "left" else right_label(p, q)
    return {"side": side, "pos": [p, q], "label": label}


@pytest.mark.parametrize(
    "doc",
    [
        # an Identification at degree 7 of two terms on antidiagonal 1
        {"kind": "Identification", "degree": 7,
         "left": _ref_json("left", 0, 1), "right": _ref_json("right", 1, 0)},
        # an Identification whose left is a Right ref and right a Left ref
        {"kind": "Identification", "degree": 1,
         "left": _ref_json("right", 1, 0), "right": _ref_json("left", 0, 1)},
        # a ShortExact at degree -3 naming one Left term as sub, mid and quot
        {"kind": "ShortExact", "degree": -3, "sub": _ref_json("left", 0, 1),
         "mid": _ref_json("left", 0, 1), "quot": _ref_json("left", 0, 1)},
        # the same three terms at their own degree: still all on one page
        {"kind": "ShortExact", "degree": 1, "sub": _ref_json("left", 0, 1),
         "mid": _ref_json("left", 0, 1), "quot": _ref_json("left", 0, 1)},
        # sub and quot swapped: the sub must be the term with the larger q
        {"kind": "ShortExact", "degree": 1, "sub": _ref_json("right", 2, -1),
         "mid": _ref_json("left", 0, 1), "quot": _ref_json("right", 1, 0)},
        # a ForcedZero whose term sits on antidiagonal 1, not 0
        {"kind": "ForcedZero", "degree": 0, "term": _ref_json("right", 1, 0)},
    ],
)
def test_relations_the_solver_cannot_emit_are_refused(doc):
    with pytest.raises(ValueError):
        serialize.relation_from_json(doc)


def test_unknown_relation_kind_is_rejected():
    with pytest.raises(ValueError):
        serialize.relation_from_json({"kind": "Mystery", "degree": 0})


def test_solution_serializes_one_way():
    payload = serialize.to_jsonable(solve_scenario(SheafScenario(3, 1, WitType.WIT0, 1)))
    assert payload["left_degeneration_page"] == 2
    assert payload["right_degeneration_page"] == 2
    assert payload["conclusion"]["kind"] == "DualIdentification"
    kinds = [r["kind"] for r in payload["relations"]]
    assert "Identification" in kinds and "ShortExact" in kinds
    for relation in payload["relations"]:
        serialize.relation_from_json(relation)  # every entry stays parseable


def test_stability_objects_round_trip(k3_pol):
    candidate = DestabilizerCandidate(1, Fraction(1, 2), (Fraction(-2),), 1)
    rt(candidate, serialize.candidate_from_json)
    rt(EffectivityProxy(True, Fraction(-8)), serialize.effectivity_proxy_from_json)
    rt(TraceStep("effectivity step", Fraction(-3, 2), "<= 0", True),
       serialize.trace_step_from_json)
    report = certify(2, k3_pol, candidate)
    rt(report, serialize.stability_report_from_json)
    scan = enumerate_candidates(
        2, k3_pol, EnumerationBounds(a_max=Fraction(1), delta_max=Fraction(0))
    )
    rt(scan, serialize.scan_result_from_json)


def _k3_scan_document(k3_pol):
    scan = enumerate_candidates(
        2, k3_pol, EnumerationBounds(a_max=Fraction(1), delta_max=Fraction(0))
    )
    return json.loads(serialize.dumps(scan))


@pytest.mark.parametrize(
    "key,value",
    [("any_violation", True), ("candidate_count", 99), ("verdict_counts", {"x": 1})],
)
def test_scan_fields_must_match_the_reports(k3_pol, key, value):
    doc = _k3_scan_document(k3_pol)
    assert doc["any_violation"] is False
    doc[key] = value
    with pytest.raises(ValueError, match=key):
        serialize.scan_result_from_json(doc)


def test_scan_counts_are_compared_as_json(k3_pol):
    """1.0 and True equal 1 in Python, not in the JSON schema."""
    doc = _k3_scan_document(k3_pol)
    for key, value in (("candidate_count", float(doc["candidate_count"])),
                       ("verdict_counts", {**doc["verdict_counts"], "Violation": False})):
        with pytest.raises(ValueError, match=key):
            serialize.scan_result_from_json({**doc, key: value})
    reordered = dict(reversed(doc["verdict_counts"].items()))
    serialize.scan_result_from_json({**doc, "verdict_counts": reordered})


def test_a_scan_with_a_violation_read_as_having_none_is_refused(k3_pol):
    """The other way round from the no-Violation scan read as having one."""
    report = certify(2, k3_pol, DestabilizerCandidate(1, Fraction(1, 2), (Fraction(-2),), 1))
    reports = (report, dataclasses.replace(report, verdict=Verdict.VIOLATION))
    doc = json.loads(serialize.dumps(ScanResult(reports, True)))
    serialize.scan_result_from_json(doc)
    with pytest.raises(ValueError, match="'any_violation' is False"):
        serialize.scan_result_from_json({**doc, "any_violation": False})


@pytest.mark.parametrize(
    "name,doc,message",
    [
        ("candidate", {"r": 1, "a": "1/x", "delta": ["0"], "e": True},
         "malformed rational '1/x'"),
        ("term_ref", {"side": "up", "pos": [0, 0], "label": 5}, "'up' is not a valid Side"),
    ],
    ids=["candidate", "term_ref"],
)
def test_the_first_faulty_field_is_named(name, doc, message):
    """A document with several faulty fields is refused for the first in
    field order, whatever their types: here a rational or an enum member
    before a boolean or a string."""
    with pytest.raises(ValueError, match=f"^{message}"):
        getattr(serialize, f"{name}_from_json")(doc)


@pytest.mark.parametrize("key", ["any_violation", "candidate_count", "verdict_counts"])
def test_scan_fields_are_required(k3_pol, key):
    doc = _k3_scan_document(k3_pol)
    del doc[key]
    with pytest.raises(ValueError, match=key):
        serialize.scan_result_from_json(doc)


def test_transform_stability_report_shape(k3, k3_pol):
    from weierfm import transform_stability

    report = transform_stability(
        LineBundleX(k3.model, 3), k3_pol,
        EnumerationBounds(a_max=Fraction(1), delta_max=Fraction(0)),
    )
    payload = serialize.to_jsonable(report)
    assert payload["search_rank"] == 3
    assert payload["stable"] is True
    assert payload["duality_step"]["kind"] == "DualIdentification"
    assert payload["candidate_count"] == payload["verdict_counts"]["Certified"] + \
        payload["verdict_counts"]["Inadmissible"] + payload["verdict_counts"]["Violation"]
    json.dumps(payload)


@pytest.mark.parametrize(
    "make",
    [
        object,
        lambda: Verdict.CERTIFIED,
        EnumerationBounds,
        lambda: Side.LEFT,
        lambda: build_pages(SheafScenario(3, 1, WitType.WIT0, 1))[0],
        lambda: get_preset("k3_quartic"),
        lambda: make_dataclass("Polarization", [("t", Fraction)])(Fraction(1)),
    ],
    ids=["object", "Verdict", "EnumerationBounds", "Side", "PageGrid", "Preset",
         "foreign-Polarization"],
)
def test_unregistered_types_fail_loudly(make):
    """Package types without a JSON form, and a class outside the package
    named like one with a form, are refused, not encoded by accident."""
    with pytest.raises(TypeError):
        serialize.to_jsonable(make())


@given(st.fractions())
def test_fraction_round_trip_property(q):
    from weierfm.rationals import parse_rational

    text = json.dumps(serialize.to_jsonable(q))
    assert parse_rational(json.loads(text)) == q


@given(st.integers(-30, 30), st.fractions(max_denominator=6))
def test_char_round_trip_property(k3, m, x):
    char = TruncatedChar(Fraction(m), k3.model.divisor_x(a=x, delta=(x + 1,)))
    rt(char, serialize.truncated_char_from_json, k3.model)


# -- malformed documents ------------------------------------------------------------

_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)


def _decoders():
    """Each decoder with one valid document, for a k3 model."""
    preset = get_preset("k3_quartic")
    model = preset.model
    pol = Polarization(model, Fraction(1), Fraction(1, 2), preset.ample)
    lb = LineBundleX(model, -2, (Fraction(1, 2),))
    candidate = DestabilizerCandidate(1, Fraction(1, 2), (Fraction(-2),), 1)
    report = certify(2, pol, candidate)
    scan = enumerate_candidates(
        2, pol, EnumerationBounds(a_max=Fraction(1, 2), delta_max=Fraction(0))
    )
    solution = solve_scenario(SheafScenario(3, 1, WitType.WIT0, 1))
    samples = {
        "surface_model": model,
        "surface_class": model.surface(1, (Fraction(1, 3),), 2),
        "threefold_class": model.theta() + model.fiber(),
        "divisor_class": model.divisor_x(a=Fraction(-1, 2), delta=(3,)),
        "polarization": pol,
        "line_bundle": lb,
        "truncated_char": transform_char(lb).char,
        "transform_result": transform_char(lb),
        "scenario": solution.scenario,
        "conclusion": solution.conclusion,
        "term_ref": solution.relations[0].left,
        "candidate": candidate,
        "effectivity_proxy": report.proxy,
        "trace_step": report.trace[0],
        "stability_report": report,
        "scan_result": scan,
    }
    out = {
        name: (lambda doc, decode=getattr(serialize, f"{name}_from_json"): decode(doc, model),
               serialize.to_jsonable(obj))
        for name, obj in samples.items()
    }
    left, right = solution.relations[0].left, solution.relations[0].right
    for relation in (Identification(0, left, right), ForcedZero(0, right),
                     solution.relations[1], Forbidden(2, "nothing survives")):
        out[type(relation).__name__] = (serialize.relation_from_json,
                                        serialize.to_jsonable(relation))
    return out


_DECODERS = _decoders()


def _mutate(doc, data):
    """A valid document with one subtree replaced by arbitrary JSON or one key dropped."""
    if isinstance(doc, (dict, list)) and doc and data.draw(st.booleans()):
        out = doc.copy()
        key = data.draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
        if isinstance(doc, dict) and data.draw(st.booleans()):
            del out[key]
        else:
            out[key] = _mutate(doc[key], data)
        return out
    return data.draw(_ANY_JSON)


# The decoders of the classes that hold a model, directly or in a field.
_MODEL_DECODERS = ("surface_class", "threefold_class", "divisor_class", "polarization",
                   "line_bundle", "truncated_char", "transform_result")


@pytest.mark.parametrize("name", sorted(n for n in _DECODERS if n.islower() and n != "surface_model"))
def test_decoders_without_a_model_need_one_only_for_classes_that_hold_it(name):
    """Called without ``model``, the decoder of a class that holds one
    refuses with TypeError, and any other decodes."""
    decode = getattr(serialize, f"{name}_from_json")
    doc = _DECODERS[name][1]
    if name in _MODEL_DECODERS:
        with pytest.raises(TypeError, match=r"^decoding a \w+ needs its surface model$"):
            decode(doc)
    else:
        assert serialize.to_jsonable(decode(doc)) == doc


def test_every_decoder_is_fuzzed():
    covered = {f"{name}_from_json" for name in _DECODERS if name.islower()}
    covered.add("relation_from_json")
    assert covered == {name for name in dir(serialize) if name.endswith("_from_json")}


@pytest.mark.parametrize("name", sorted(_DECODERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_malformed_documents_raise_only_documented_errors(name, data):
    """Arbitrary JSON, or a valid document with one edit, either decodes or
    raises ValueError or a WeierfmError; nothing else escapes.  The model is
    always passed, so not even the missing-model TypeError may."""
    decode, valid = _DECODERS[name]
    doc = _mutate(valid, data) if data.draw(st.booleans()) else data.draw(_ANY_JSON)
    try:
        decode(doc)
    except (ValueError, WeierfmError):
        pass


# -- value classes that documents repeat -----------------------------------------------

_REPEATED = {
    "trace_step": {"name": "effectivity step", "value": "-3/2", "requirement": "<= 0",
                   "satisfied": True},
    "effectivity_proxy": {"a_nonneg": False, "pairing": "-8"},
    "term_ref": _ref_json("right", 1, 0),
}


@pytest.mark.parametrize(
    "name,key,value",
    [
        # values of a JSON type the field never takes
        ("trace_step", "name", []),
        ("trace_step", "value", ["1"]),
        ("trace_step", "requirement", {}),
        ("trace_step", "satisfied", []),
        ("effectivity_proxy", "a_nonneg", []),
        ("effectivity_proxy", "pairing", {}),
        ("term_ref", "side", []),
        ("term_ref", "pos", [[1], 0]),
        ("term_ref", "label", []),
        # equal in Python to the valid document's value, not in JSON
        ("trace_step", "satisfied", 1),
        ("effectivity_proxy", "a_nonneg", 0),
        ("term_ref", "pos", [True, 0]),
    ],
)
def test_shared_decoders_check_before_the_cache(name, key, value):
    """The valid document of a class that scan and solution documents
    repeat, decoded twice, gives two equal values, each its own; a faulty
    one is refused with ValueError even right after it."""
    decode = getattr(serialize, f"{name}_from_json")
    valid = _REPEATED[name]
    first, again = decode(valid), decode(json.loads(json.dumps(valid)))
    assert first == again and first is not again
    assert serialize.to_jsonable(first) == valid
    with pytest.raises(ValueError):
        decode({**valid, key: value})


def test_decoded_scan_round_trips_and_the_scan_shares_value_objects(k3_pol):
    """A scan decodes back to itself, and the scan's own reports hold one
    object per distinct trace step, one per distinct trace and one per
    distinct proxy (k3 at two sizes, and the ρ = 2 lattice at t ≠ s, where
    25 deltas give 13 pairings)."""
    model = serialize.surface_model_from_json(
        json.loads((Path(__file__).parent / "data" / "hyperbolic_rho2.json").read_text())
    )
    rho2 = Polarization(model, Fraction(1, 2), Fraction(2), (Fraction(1), Fraction(2)))
    for n, pol, bounds, steps, traces, proxies in [
        (2, k3_pol, EnumerationBounds(a_max=Fraction(2), delta_max=Fraction(1)), 11, 21, 3),
        (3, k3_pol, None, 29, 195, 13),
        (3, rho2, EnumerationBounds(a_max=Fraction(2), delta_max=Fraction(2)), 21, 91, 13),
    ]:
        scan = enumerate_candidates(n, pol, bounds)
        back = serialize.scan_result_from_json(json.loads(serialize.dumps(scan)))
        assert back == scan
        for values, distinct in (
            ([step for report in scan.reports for step in report.trace], steps),
            ([report.trace for report in scan.reports], traces),
            ([report.proxy for report in scan.reports], proxies),
        ):
            assert len(set(map(id, values))) == len(set(values)) == distinct


def test_each_decoded_report_and_relation_is_its_own(k3_pol):
    """Reports and relations, and every value they hold (candidates,
    proxies, trace steps and term refs), are built anew on every decode."""
    doc = serialize.to_jsonable(
        certify(2, k3_pol, DestabilizerCandidate(1, Fraction(1, 2), (Fraction(-2),), 1))
    )
    first, again = (serialize.stability_report_from_json(json.loads(json.dumps(doc)))
                    for _ in range(2))
    assert first == again and first is not again
    assert first.candidate is not again.candidate and first.proxy is not again.proxy
    assert not any(map(operator.is_, first.trace, again.trace))
    solution = solve_scenario(SheafScenario(3, 1, WitType.WIT0, 1))
    relation = serialize.to_jsonable(solution.relations[0])
    first, again = (serialize.relation_from_json(json.loads(json.dumps(relation)))
                    for _ in range(2))
    assert first == again and first is not again
    assert first.left is not again.left and first.right is not again.right


# -- every class with a JSON form: public constructor, decoder, round trip ------------

_MODELS = [get_preset(name).model for name in ("k3_quartic", "enriques", "general_demo")]


def _ref(side, p, q):
    return TermRef(side, (p, q), left_label(p, q) if side is Side.LEFT else right_label(p, q))


def _short_exact(degree, side, q_quot, q_gap, p_mid):
    """A ShortExact of the shape the solver emits, on antidiagonal ``degree``:
    sub and quot on ``side``, the sub with the larger q, the mid opposite."""
    q_sub = q_quot + q_gap
    other = Side.RIGHT if side is Side.LEFT else Side.LEFT
    return ShortExact(degree, _ref(side, degree - q_sub, q_sub), _ref(other, p_mid, degree - p_mid),
                      _ref(side, degree - q_quot, q_quot))


def _strategies(model):
    """A strategy of publicly built values over ``model`` per class with a
    JSON decoder."""
    q = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    positive = st.fractions(min_value=Fraction(1, 6), max_value=5, max_denominator=6)
    vec = st.tuples(*[q] * model.picard_rank)
    small = st.integers(-4, 4)
    text = st.text(max_size=6)
    surface = st.builds(SurfaceClass, st.just(model), q, vec, q)
    divisor = st.builds(DivisorClassX, st.just(model), q, vec)
    char = st.builds(TruncatedChar, q, divisor)
    ref = st.builds(_ref, st.sampled_from(Side), small, small)
    candidate = st.builds(DestabilizerCandidate, st.integers(1, 5), q, vec, st.sampled_from((0, 1)))
    proxy = st.builds(EffectivityProxy, st.booleans(), q)
    step = st.builds(TraceStep, text, q, text, st.booleans())
    report = st.builds(StabilityReport, candidate, st.sampled_from(Verdict), q, q, proxy, q,
                       st.lists(step, max_size=3).map(tuple), st.lists(text, max_size=2).map(tuple))
    scenarios = []
    for n, c, wit, shift in itertools.product(range(1, 5), range(5), WitType, (-1, 0, 1)):
        if c <= n and 0 <= c - shift <= n:
            scenarios.append(SheafScenario(n, c, wit, shift))
    rank_one = st.builds(lambda g, k: SurfaceModel(1, ((g,),), (k,), False, (k,)),
                         st.integers(-4, 4), q)
    return {
        "SurfaceModel": st.just(model) | rank_one,
        "SurfaceClass": surface,
        "ThreefoldClass": st.builds(ThreefoldClass, surface, surface),
        "DivisorClassX": divisor,
        "Polarization": st.builds(Polarization, st.just(model), positive, positive,
                                  vec.filter(lambda h: model.pair(h, h) > 0)),
        "LineBundleX": st.builds(LineBundleX, st.just(model), small, vec),
        "TruncatedChar": char,
        "TransformResult": st.builds(TransformResult, char, st.sampled_from(WitType),
                                     st.booleans()),
        "SheafScenario": st.sampled_from(scenarios),
        "Conclusion": st.builds(Conclusion, st.sampled_from(ConclusionKind), text, st.booleans()),
        "TermRef": ref,
        "Identification": st.builds(
            lambda k, p, p2: Identification(k, _ref(Side.LEFT, p, k - p),
                                            _ref(Side.RIGHT, p2, k - p2)),
            small, small, small),
        "ForcedZero": ref.map(lambda r: ForcedZero(sum(r.pos), r)),
        "ShortExact": st.builds(_short_exact, small, st.sampled_from(Side), small,
                                st.integers(1, 3), small),
        "Forbidden": st.builds(Forbidden, small, text),
        "DestabilizerCandidate": candidate,
        "EffectivityProxy": proxy,
        "TraceStep": step,
        "StabilityReport": report,
        "ScanResult": st.lists(report, max_size=3).map(lambda reports: ScanResult(
            tuple(reports), any(r.verdict is Verdict.VIOLATION for r in reports))),
    }


_DECODED = {name: form.decoder for name, form in serialize._FORMS.items() if form.decoder}


def test_every_decoded_class_has_a_strategy():
    assert set(_strategies(_MODELS[0])) == set(_DECODED)


def test_every_decoded_class_is_a_value_class():
    """A decoder builds through the trusted constructor and the _check hook
    alone, which is what a value class's constructor runs after the field
    types the decoder has checked; so no other class may have a decoder."""
    classes = {name: getattr(importlib.import_module(f"weierfm.{serialize._FORMS[name].layer}"),
                             name) for name in _DECODED}
    assert [name for name, cls in classes.items() if not is_value_class(cls)] == []


@pytest.mark.parametrize("name", sorted(_DECODED))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_public_values_round_trip(name, data):
    model = data.draw(st.sampled_from(_MODELS))
    value = data.draw(_strategies(model)[name])
    rt(value, getattr(serialize, _DECODED[name]), model)


def _field(hint, value, model):
    """The value of a field of type ``hint`` that the JSON ``value`` gives,
    decoded on its own: int, bool and str values as they are."""
    hint = stored_type(hint)
    if hint is Fraction:
        return parse_rational(value)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(value)
    if dataclasses.is_dataclass(hint):
        return getattr(serialize, _DECODED[hint.__name__])(value, model)
    if typing.get_origin(hint) is tuple:
        if type(value) is not list:
            raise ValueError("not a list")
        return tuple(_field(typing.get_args(hint)[0], x, model) for x in value)
    return value


def _public(cls, doc, model):
    """``cls`` built by its public constructor from the fields ``doc`` gives,
    or None when a field does not decode or the constructor refuses."""
    hints = typing.get_type_hints(cls)
    try:
        values = [model if hints[f.name] is SurfaceModel else
                  _field(hints[f.name], doc[serialize._RENAMES.get(f.name, f.name)], model)
                  for f in dataclasses.fields(cls)]
        return cls(*values)
    except (KeyError, TypeError, ValueError, WeierfmError):
        return None


_EDIT_LEAVES = [0, 1, 2, -1, True, False, None, 1.0, "0", "1", "-1", "1/2", "x", "",
                *(member.value for kind in (Side, WitType, ConclusionKind, Verdict)
                  for member in kind)]
_EDIT_REFS = [_ref_json(side, p, q) for side in ("left", "right")
              for p in range(-1, 3) for q in range(-1, 3)]


def _edit(doc, data):
    """``doc`` with one subtree (never a relation's kind tag) replaced: a
    leaf by a nearby or mistyped value, a list entry dropped or repeated, or
    a term ref by another valid one."""
    if isinstance(doc, dict) and "label" in doc and data.draw(st.integers(0, 3)) == 0:
        return data.draw(st.sampled_from(_EDIT_REFS))
    keys = [key for key in doc if key != "kind"] if isinstance(doc, dict) else None
    if keys or (isinstance(doc, list) and doc):
        key = data.draw(st.sampled_from(keys or range(len(doc))))
        out = doc.copy()
        if isinstance(doc, list) and data.draw(st.integers(0, 3)) == 0:
            out[key:key + 1] = [] if data.draw(st.booleans()) else [doc[key]] * 2
        else:
            out[key] = _edit(doc[key], data)
        return out
    if type(doc) is int:
        return data.draw(st.sampled_from([doc - 1, doc + 1, *_EDIT_LEAVES]))
    if type(doc) is str:
        return data.draw(st.sampled_from([*_EDIT_LEAVES, *(ref["label"] for ref in _EDIT_REFS)]))
    return data.draw(st.sampled_from(_EDIT_LEAVES))


@pytest.mark.parametrize("name", sorted(_DECODED))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_decoders_accept_only_what_public_constructors_build(name, data):
    """A document with a few edits: when its decoder accepts it, the public
    constructor, given the fields the document gives, builds an equal value
    of the same field types; so a document whose fields the constructor
    refuses, its decoder refuses too."""
    model = data.draw(st.sampled_from(_MODELS))
    value = data.draw(_strategies(model)[name])
    doc = serialize.to_jsonable(value)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _edit(doc, data)
    expected = _public(type(value), doc, model)
    try:
        decoded = getattr(serialize, _DECODED[name])(doc, model)
    except (ValueError, WeierfmError):
        return
    assert expected is not None, doc
    assert type(decoded) is type(expected) and decoded == expected
    assert repr(decoded) == repr(expected)
