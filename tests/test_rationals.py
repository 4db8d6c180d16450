import ast
import copy
import dataclasses
import importlib
import inspect
import itertools
import pickle
import pkgutil
import sys
import textwrap
import types
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import weierfm
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
    SurfaceModel,
    TransformResult,
    TruncatedChar,
    WitType,
    certify,
    enumerate_candidates,
    get_preset,
    solve_scenario,
    target_slope,
    transform_stability,
)
from weierfm.duality import TermRef, build_pages, left_label, right_label
from weierfm.rationals import (
    _SHARED,
    RATIONAL_CACHE_SIZE,
    _field_checks,
    _parse_rational,
    as_rational,
    format_rational,
    format_rational_vector,
    is_value_class,
    parse_rational,
    parse_rational_vector,
    require,
    trusted,
    tuple_item,
    value_class,
)
from weierfm.stability import EffectivityProxy, TraceStep


def test_integers_format_without_denominator():
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(-14, 7)) == "-2"
    assert format_rational(0) == "0"


def test_fractions_format_in_lowest_terms_with_sign_on_numerator():
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(3, -6)) == "-1/2"


@pytest.mark.parametrize(
    "text,value",
    [
        ("7", Fraction(7)),
        ("-7", Fraction(-7)),
        ("+3/9", Fraction(1, 3)),
        ("0/5", Fraction(0)),
        (" 2/3 ", Fraction(2, 3)),
    ],
)
def test_parse_accepts_integer_and_slash_forms(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    # Non-ASCII decimal digits: Arabic-Indic, fullwidth, and one in a
    # denominator; then non-ASCII whitespace: an em space, a line separator.
    ["0.5", "1e3", "", "1/", "/2", "1/0", "1 / 2", "a", "١/٢", "１", "1/٢",
     "\u20031/2", "1/2\u2028"],
)
def test_parse_rejects_everything_else(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("value", [0, 0.5, None, ["1"], {}], ids=repr)
def test_parse_rejects_non_strings(value):
    with pytest.raises(ValueError):
        parse_rational(value)


def test_floats_and_bools_are_not_rationals():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    with pytest.raises(TypeError):
        DivisorClassX(get_preset("general_demo").model, 0, (1, 2.0))


@given(st.fractions())
def test_parse_inverts_format(q):
    assert parse_rational(format_rational(q)) == q


@given(st.fractions(max_denominator=12))
def test_repeated_parses_equal_a_fresh_fraction(q):
    """A small denominator bound makes strings repeat, so most of these
    parses come from the cache."""
    text = format_rational(q)
    first, second = parse_rational(text), parse_rational(text)
    assert first == second == Fraction(q.numerator, q.denominator)
    assert type(second) is Fraction


@pytest.mark.parametrize("text", ["1/0", "0.5", "\u20031/2"], ids=repr)
def test_parse_failures_repeat_their_message(text):
    """Failures are not cached: the second call raises what the first did."""
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as failure:
            parse_rational(text)
        messages.append(str(failure.value))
    assert messages[0] == messages[1]


def test_parse_cache_is_bounded():
    for k in range(RATIONAL_CACHE_SIZE + 100):
        assert parse_rational(f"{k}/7") == Fraction(k, 7)
    info = _parse_rational.cache_info()
    assert info.maxsize == RATIONAL_CACHE_SIZE
    assert info.currsize <= RATIONAL_CACHE_SIZE


def test_module_caches_are_the_audited_ones():
    """Every module-level functools cache in weierfm, with its maxsize, and
    the per-class shared-value caches that serialize makes inside its
    decoders: each bounded one was measured to pay for itself, and the
    unbounded ones (the generated codecs, trusted constructors and value
    classes' check tables) are keyed by a class.  A new cache is added here
    with its measured share.  The grid cache keeps 16 grids, and stability
    keeps none over a sixteenth of GRID_CACHE_SIZE units in it."""
    from weierfm import serialize
    from weierfm.duality import TERM_REF_CACHE_SIZE
    from weierfm.stability import POLARIZATION_CACHE_SIZE

    caches = {}
    for info in pkgutil.iter_modules(weierfm.__path__):
        module = importlib.import_module(f"weierfm.{info.name}")
        caches |= {(info.name, name): value.cache_info().maxsize
                   for name, value in vars(module).items()
                   if hasattr(value, "cache_info") and value.__module__ == module.__name__}
    assert caches == {
        ("duality", "_term_ref"): TERM_REF_CACHE_SIZE,
        ("rationals", "_field_checks"): None,
        ("rationals", "_parse_rational"): RATIONAL_CACHE_SIZE,
        ("rationals", "trusted"): None,
        ("serialize", "_columns"): None,
        ("serialize", "_decoder_of"): None,
        ("serialize", "_encoder_of"): None,
        ("stability", "_functionals"): POLARIZATION_CACHE_SIZE,
        ("stability", "_grid"): 16,
        ("stability", "target_slope"): POLARIZATION_CACHE_SIZE,
    }
    shared = {name: serialize._decoder_of(
                  getattr(importlib.import_module(f"weierfm.{form.layer}"), name)
              ).shared.cache_info().maxsize
              for name, form in serialize._FORMS.items() if form.shared}
    assert shared == dict.fromkeys(("TermRef", "EffectivityProxy", "TraceStep"),
                                   serialize._SHARED_CACHE_SIZE)


def test_vector_round_trip():
    vec = (Fraction(1, 2), Fraction(-3), Fraction(0))
    assert parse_rational_vector(format_rational_vector(vec)) == vec


def test_empty_vector_parses_to_empty_tuple():
    assert parse_rational_vector("") == ()
    assert format_rational_vector(()) == ""


def _k3_pol():
    preset = get_preset("k3_quartic")
    return Polarization(preset.model, 1, 1, preset.ample)


@pytest.mark.parametrize("value", [True, 1.0, 4.9], ids=["bool", "whole-float", "float"])
@pytest.mark.parametrize(
    "build,error",
    [
        pytest.param(lambda v: SheafScenario(v, 0, WitType.WIT0, 0),
                     ValueError, id="scenario-n"),
        pytest.param(lambda v: SheafScenario(3, v, WitType.WIT0, 0),
                     ValueError, id="scenario-c"),
        pytest.param(lambda v: SheafScenario(3, 1, WitType.WIT0, v),
                     ValueError, id="scenario-dim-shift"),
        pytest.param(lambda v: DestabilizerCandidate(v, 0, (0,), 0), ValueError,
                     id="candidate-r"),
        pytest.param(lambda v: DestabilizerCandidate(1, 0, (0,), v), ValueError,
                     id="candidate-e"),
        pytest.param(lambda v: SurfaceModel(v, ((4,),), (0,), True, (0,)), ValueError,
                     id="model-picard-rank"),
        pytest.param(lambda v: SurfaceModel(1, ((v,),), (0,), True, (0,)), ValueError,
                     id="model-gram"),
        pytest.param(lambda v: LineBundleX(get_preset("k3_quartic").model, v), ValueError,
                     id="line-bundle-m"),
        pytest.param(lambda v: target_slope(v, _k3_pol()), ValueError, id="target-slope-n"),
        pytest.param(lambda v: enumerate_candidates(v, _k3_pol()), ValueError,
                     id="scan-n"),
        pytest.param(lambda v: ForcedZero(v, _ref(Side.RIGHT, 1, 0)), ValueError,
                     id="forced-zero-degree"),
        pytest.param(lambda v: Identification(v, _ref(Side.LEFT, 0, 1), _ref(Side.RIGHT, 1, 0)),
                     ValueError, id="identification-degree"),
        pytest.param(lambda v: Forbidden(v, "k"), ValueError, id="forbidden-degree"),
        pytest.param(lambda v: TermRef(Side.LEFT, (v, 0), left_label(1, 0)), ValueError,
                     id="term-ref-pos"),
    ],
)
def test_int_fields_refuse_bools_and_floats(build, error, value):
    """An int field takes an int proper: True or 1.0 would encode to JSON
    that the strict decoders refuse, and 4.9 must not be truncated."""
    with pytest.raises(error):
        build(value)


@pytest.mark.parametrize("value", ["false", 1, None], ids=["string", "int", "none"])
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda v: SurfaceModel(1, ((4,),), (0,), v, (0,)), id="model-k-trivial"),
        pytest.param(lambda v: EffectivityProxy(v, Fraction(0)), id="proxy-a-nonneg"),
        pytest.param(lambda v: TraceStep("step", Fraction(0), "<= 0", v), id="trace-satisfied"),
        pytest.param(lambda v: Conclusion(ConclusionKind.FORBIDDEN, "x", v),
                     id="conclusion-via-dimension-only"),
        pytest.param(lambda v: TransformResult(_char(), WitType.WIT1, v),
                     id="transform-locally-free"),
        pytest.param(lambda v: ScanResult((), v), id="scan-any-violation"),
        pytest.param(lambda v: dataclasses.replace(_pipeline(), stable=v), id="pipeline-stable"),
    ],
)
def test_bool_fields_refuse_non_bools(build, value):
    """A bool field takes a bool proper: the string "false" is truthy, and
    the strict decoders refuse what a non-bool would encode to."""
    with pytest.raises(ValueError):
        build(value)


def _ref(side, p, q):
    return TermRef(side, (p, q), left_label(p, q) if side is Side.LEFT else right_label(p, q))


def _report():
    return certify(2, _k3_pol(), DestabilizerCandidate(1, 0, (0,), 0))


def _char():
    return TruncatedChar(-2, get_preset("k3_quartic").model.divisor_x(-1))


def _pipeline():
    pol = _k3_pol()
    return transform_stability(LineBundleX(pol.model, 2), pol, EnumerationBounds(1, 1))


def _solution():
    return solve_scenario(SheafScenario(3, 1, WitType.WIT0, 1))


@pytest.mark.parametrize(
    "build,error",
    [
        pytest.param(lambda: TraceStep("x", 0.5, "<= 0", True), TypeError, id="trace-value"),
        pytest.param(lambda: TraceStep(5, 0, "<= 0", True), ValueError, id="trace-name"),
        pytest.param(lambda: TraceStep("x", 0, None, True), ValueError, id="trace-requirement"),
        pytest.param(lambda: EffectivityProxy(True, 0.5), TypeError, id="proxy-pairing"),
        pytest.param(lambda: dataclasses.replace(_report(), verdict="Certified"), ValueError,
                     id="report-verdict"),
        pytest.param(lambda: dataclasses.replace(_report(), target_slope=0.5), TypeError,
                     id="report-target-slope"),
        pytest.param(lambda: dataclasses.replace(_report(), candidate=(1, 0, (0,), 0)),
                     ValueError, id="report-candidate"),
        pytest.param(lambda: dataclasses.replace(_report(), proxy=None), ValueError,
                     id="report-proxy"),
        pytest.param(lambda: dataclasses.replace(_report(), trace=list(_report().trace)),
                     ValueError, id="report-trace-list"),
        pytest.param(lambda: dataclasses.replace(_report(), inadmissible_reasons=("x", 1)),
                     ValueError, id="report-reasons"),
        pytest.param(lambda: ForcedZero(1, "Ext^0"), ValueError, id="forced-zero-term"),
        pytest.param(lambda: Forbidden("k", 5), ValueError, id="forbidden-reason"),
        pytest.param(lambda: Conclusion("DualIsWIT1", 3), ValueError, id="conclusion-kind"),
        pytest.param(lambda: Conclusion(ConclusionKind.FORBIDDEN, 3), ValueError,
                     id="conclusion-statement"),
        pytest.param(lambda: TermRef("left", (0, 1), left_label(0, 1)), ValueError,
                     id="term-ref-side"),
        pytest.param(lambda: TransformResult(_char(), "WIT1", True), ValueError,
                     id="transform-wit"),
        pytest.param(lambda: TransformResult((-2, None), WitType.WIT1, True), ValueError,
                     id="transform-char"),
        pytest.param(lambda: ScanResult([], 0), ValueError, id="scan-reports-list"),
        pytest.param(lambda: ScanResult((_report(), None), False), ValueError,
                     id="scan-report-entry"),
        pytest.param(lambda: TruncatedChar(1, 5), ValueError, id="char-ch1"),
        pytest.param(lambda: dataclasses.replace(_pipeline(), reduction=["x"]), ValueError,
                     id="pipeline-reduction-list"),
        pytest.param(lambda: dataclasses.replace(_pipeline(), duality_step="x"), ValueError,
                     id="pipeline-duality-step"),
        pytest.param(lambda: dataclasses.replace(_solution(), relations=list(_solution().relations)),
                     ValueError, id="solution-relations-list"),
        pytest.param(lambda: dataclasses.replace(_solution(), conclusion="DualIsWIT1"),
                     ValueError, id="solution-conclusion"),
        # A rational vector is a tuple: a set, a dict, a generator or a list
        # of rationals is refused, not read in its iteration order.
        pytest.param(lambda: LineBundleX(get_preset("general_demo").model, 1, {2, 1}),
                     ValueError, id="line-bundle-twist-set"),
        pytest.param(lambda: SurfaceModel(2, ((0, 1), (1, 0)), {0: 0, 1: -2}, False, (0, -2)),
                     ValueError, id="model-canonical-dict"),
        pytest.param(lambda: Polarization(_k3_pol().model, 1, 1, (x for x in (1,))), ValueError,
                     id="polarization-h-generator"),
        pytest.param(lambda: DivisorClassX(get_preset("k3_quartic").model, 1, [0]), ValueError,
                     id="divisor-delta-list"),
        pytest.param(lambda: DestabilizerCandidate(1, 0, [0], 0), ValueError,
                     id="candidate-delta-list"),
    ],
)
def test_value_fields_refuse_other_types(build, error):
    """Each field takes its own type: a float where a rational goes (as
    DestabilizerCandidate's a), a string where an enum member goes, or an
    int where a string goes would encode to JSON that the strict decoders
    refuse, or fail to encode at all."""
    with pytest.raises(error):
        build()


def test_a_refused_value_is_quoted_briefly():
    """A refusal names the value's type and quotes a bounded repr of it, not
    every report of a scan."""
    reports = enumerate_candidates(12, _k3_pol()).reports
    with pytest.raises(ValueError) as failure:
        ScanResult(list(reports), False)
    message = str(failure.value)
    assert message.startswith("reports must be a tuple, got list [StabilityRepo")
    assert len(message) < 400


def test_a_refused_dataclass_is_quoted_without_its_repr():
    """A dataclass instance is quoted as ``ClassName(...)``, alone or inside
    a tuple, without building its repr(), which for a scan holds every
    report."""

    @dataclasses.dataclass
    class Loud:
        def __repr__(self):
            raise AssertionError("repr() was called")

    with pytest.raises(ValueError, match=r"^x must be an int, got Loud Loud\(\.\.\.\)$"):
        require(Loud(), int, "x")
    with pytest.raises(ValueError, match=r"got tuple \(Loud\(\.\.\.\),\)$"):
        require((Loud(),), int, "x")


# -- trusted constructors --------------------------------------------------------------


def _samples():
    """One publicly built instance of every weierfm dataclass, by class."""
    preset = get_preset("general_demo")
    model = preset.model
    pol = _k3_pol()
    lb = LineBundleX(model, -2, (Fraction(1, 2), 0))
    report = _report()
    pipeline = transform_stability(LineBundleX(pol.model, 2), pol, EnumerationBounds(1, 1))
    solution = solve_scenario(SheafScenario(3, 1, WitType.WIT0, 1))
    values = [
        preset, model, model.surface(1, (Fraction(1, 3), 2), 2), model.theta() + model.fiber(),
        model.divisor_x(Fraction(-1, 2), (3, 0)), lb, pol, pipeline, pipeline.transform,
        pipeline.transform.char, pipeline.scan, solution, solution.scenario,
        solution.conclusion, *build_pages(solution.scenario), solution.left.terms[0, 0],
        solution.relations[0].left,
        Identification(1, _ref(Side.LEFT, 0, 1), _ref(Side.RIGHT, 1, 0)),
        ForcedZero(1, _ref(Side.RIGHT, 1, 0)),
        ShortExact(1, _ref(Side.RIGHT, 1, 0), _ref(Side.LEFT, 0, 1), _ref(Side.RIGHT, 2, -1)),
        Forbidden(2, "x"), report, report.candidate, report.proxy, report.trace[0],
        EnumerationBounds(),
    ]
    return {type(value): value for value in values}


def _weierfm_dataclasses():
    classes = set()
    for name in ("ring", "fm", "duality", "stability", "presets"):
        module = importlib.import_module(f"weierfm.{name}")
        classes |= {value for value in vars(module).values() if isinstance(value, type)
                    and dataclasses.is_dataclass(value) and value.__module__ == module.__name__}
    return classes


_SAMPLES = _samples()


def test_every_dataclass_has_a_sample():
    assert set(_SAMPLES) == _weierfm_dataclasses()


def _hash(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("cls", sorted(_SAMPLES, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_trusted_builds_what_the_constructor_builds(cls):
    """Given the checked field values of an instance, the trusted constructor
    builds a value equal to the public constructor's, with the same hash
    and repr, and as frozen: assigning or deleting any field of either
    raises FrozenInstanceError with the message dataclasses gives."""
    names = [f.name for f in dataclasses.fields(cls)]
    values = [getattr(_SAMPLES[cls], name) for name in names]
    built, public = trusted(cls)(*values), cls(*values)
    assert type(built) is cls and built == public and repr(built) == repr(public)
    assert vars(built) == {name: getattr(public, name) for name in names}
    assert _hash(built) == _hash(public)
    for instance, (name, value) in itertools.product((built, public), zip(names, values)):
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(instance, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(instance, name)
    assert list(vars(built)) == list(vars(public)) == names and built == public
    assert trusted(cls) is trusted(cls)


def _twin(cls):
    """What ``dataclass(frozen=True)`` makes of the fields of the value class
    ``cls``: a class of the same name, field types and defaults, picklable
    from the module ``value_class_twins``."""
    specs = [(f.name, f.type, dataclasses.field(default=f.default))
             for f in dataclasses.fields(cls)]
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True,
                                      namespace={"__qualname__": cls.__qualname__})
    twin.__module__ = "value_class_twins"
    return twin


def _frozen_error(instance, name, delete):
    with pytest.raises(dataclasses.FrozenInstanceError) as failure:
        delattr(instance, name) if delete else setattr(instance, name, None)
    return str(failure.value)


def _round_trips(value):
    return copy.deepcopy(value), pickle.loads(pickle.dumps(value)), dataclasses.replace(value)


@pytest.mark.parametrize("cls", sorted(_SAMPLES, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_value_classes_behave_as_frozen_dataclasses(cls, monkeypatch):
    """A value class's shared methods give what ``dataclass(frozen=True)``
    gives over the same fields and values: ``==`` (also with each field
    replaced in turn), NotImplemented across the two classes, hash, repr,
    the FrozenInstanceError messages, and the same again after
    ``copy.deepcopy``, a pickle round-trip and ``dataclasses.replace``.
    Its constructor has the dataclass's signature, and a class without a
    docstring the dataclass's ``__doc__``."""
    twin = _twin(cls)
    monkeypatch.setitem(sys.modules, "value_class_twins", types.ModuleType("value_class_twins"))
    setattr(sys.modules["value_class_twins"], cls.__qualname__, twin)
    names = [f.name for f in dataclasses.fields(cls)]
    values = [getattr(_SAMPLES[cls], name) for name in names]
    ours, theirs = cls(*values), twin(*values)
    assert repr(ours) == repr(theirs) and _hash(ours) == _hash(theirs)
    assert ours.__eq__(theirs) is NotImplemented and theirs.__eq__(ours) is NotImplemented
    assert ours != theirs
    for index in range(len(names)):
        other = values[:index] + [object()] + values[index + 1:]
        assert (ours == trusted(cls)(*other)) == (theirs == twin(*other)) is False
    for name in [*names, "not_a_field"]:
        for delete in (False, True):
            assert _frozen_error(ours, name, delete) == _frozen_error(theirs, name, delete)
    for mine, its in zip(_round_trips(ours), _round_trips(theirs)):
        assert type(mine) is cls and mine == ours and list(vars(mine)) == names
        assert repr(mine) == repr(its) and _hash(mine) == _hash(its) and its == theirs
    assert inspect.signature(cls) == inspect.signature(twin)
    source = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0]
    # Python 3.13 compiles docstrings with their indentation stripped.
    assert inspect.cleandoc(cls.__doc__) == (ast.get_docstring(source) or twin.__doc__)
    assert {name: vars(cls)[name] for name in _SHARED} == _SHARED
    assert (cls.__init__.__module__, cls.__init__.__qualname__) == (
        cls.__module__, f"{cls.__qualname__}.__init__")


def test_every_value_class_field_has_an_annotation_check():
    """Every field of every value class is checked from its annotation, in
    field order; none is left to a ``_check`` hook."""
    classes = {cls for cls in _weierfm_dataclasses() if is_value_class(cls)}
    assert _weierfm_dataclasses() - classes == set()
    for cls in classes:
        checked = [name for name, _ in _field_checks(cls)[0]]
        assert checked == [f.name for f in dataclasses.fields(cls)], cls.__name__


@pytest.mark.parametrize(
    "body,error",
    [("x: int\n    def __repr__(self): return 'x'", "defines __repr__, which value classes share"),
     ("x: int\n    __hash__ = None", "defines __hash__, which value classes share"),
     ("x: int = field(default_factory=int)", "has a field that is not a plain constructor argument"),
     ("x: int = field(default=0, init=False)", "has a field that is not a plain constructor argument")],
    ids=["repr", "hash", "default_factory", "init=False"],
)
def test_value_class_refuses_what_its_shared_init_and_methods_cannot_keep(body, error):
    """A class that defines one of the shared methods, or a field that is
    not a plain constructor argument, is refused where ``dataclass`` would
    keep the class's own method or build a different ``__init__``."""
    namespace = {"field": dataclasses.field}
    exec(f"class Odd:\n    {body}", namespace)
    with pytest.raises(TypeError, match=f"^Odd {error}$"):
        value_class(namespace["Odd"])


def test_an_annotation_its_module_does_not_bind_fails_the_first_construction():
    @value_class
    class Loose:
        x: "NotBoundAnywhere"  # noqa: F821

    with pytest.raises(NameError, match="NotBoundAnywhere"):
        Loose(1)


@pytest.mark.parametrize(
    "hint,expected",
    [(tuple[Fraction, ...], (Fraction, None)), (tuple[int, int], (int, 2)),
     (tuple[str], (str, 1)), (tuple[int, str], None), (tuple[()], None), (tuple, None),
     (list[int], None), (int, None)],
    ids=str,
)
def test_tuple_item_reads_homogeneous_tuple_types_only(hint, expected):
    if expected is None:
        with pytest.raises(TypeError, match="not a homogeneous tuple type"):
            tuple_item(hint)
    else:
        assert tuple_item(hint) == expected


def test_trusted_refuses_a_slotted_class():
    @dataclasses.dataclass(slots=True)
    class Slotted:
        x: int

    with pytest.raises(TypeError, match="Slotted has __slots__"):
        trusted(Slotted)
