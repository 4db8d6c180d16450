from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weierfm.rationals import (
    as_rational,
    as_rational_vector,
    format_rational,
    format_rational_vector,
    parse_rational,
    parse_rational_vector,
)


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


@pytest.mark.parametrize("text", ["0.5", "1e3", "", "1/", "/2", "1/0", "1 / 2", "a"])
def test_parse_rejects_everything_else(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("value", [0, 0.5, None, ["1"]], ids=repr)
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


def test_vector_round_trip():
    vec = (Fraction(1, 2), Fraction(-3), Fraction(0))
    assert parse_rational_vector(format_rational_vector(vec)) == vec


def test_empty_vector_parses_to_empty_tuple():
    assert parse_rational_vector("") == ()
    assert format_rational_vector(()) == ""
