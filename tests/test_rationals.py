from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weierfm import (
    DestabilizerCandidate,
    InfeasibleScenarioError,
    LineBundleX,
    Polarization,
    SheafScenario,
    SurfaceModel,
    WitType,
    enumerate_candidates,
    get_preset,
    target_slope,
)
from weierfm.rationals import (
    RATIONAL_CACHE_SIZE,
    _parse_rational,
    as_rational,
    as_rational_vector,
    format_rational,
    format_rational_vector,
    parse_rational,
    parse_rational_vector,
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
        as_rational_vector((1, 2.0))


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
                     InfeasibleScenarioError, id="scenario-n"),
        pytest.param(lambda v: SheafScenario(3, v, WitType.WIT0, 0),
                     InfeasibleScenarioError, id="scenario-c"),
        pytest.param(lambda v: SheafScenario(3, 1, WitType.WIT0, v),
                     InfeasibleScenarioError, id="scenario-dim-shift"),
        pytest.param(lambda v: DestabilizerCandidate(v, 0, (0,), 0), ValueError,
                     id="candidate-r"),
        pytest.param(lambda v: DestabilizerCandidate(1, 0, (0,), v), ValueError,
                     id="candidate-e"),
        pytest.param(lambda v: SurfaceModel(v, ((4,),), (0,), True, (0,)), ValueError,
                     id="model-picard-rank"),
        pytest.param(lambda v: SurfaceModel(1, ((v,),), (0,), True, (0,)), ValueError,
                     id="model-gram"),
        pytest.param(lambda v: LineBundleX(get_preset("k3_quartic").model, v), TypeError,
                     id="line-bundle-m"),
        pytest.param(lambda v: target_slope(v, _k3_pol()), ValueError, id="target-slope-n"),
        pytest.param(lambda v: enumerate_candidates(v, _k3_pol()), ValueError,
                     id="scan-n"),
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
    ],
)
def test_bool_fields_refuse_non_bools(build, value):
    """A bool field takes a bool proper: the string "false" is truthy, and
    the strict decoders refuse what a non-bool would encode to."""
    with pytest.raises(ValueError):
        build(value)
