import re
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weierfm import (
    DivisorClassX,
    HypothesisViolationError,
    KernelChoice,
    LineBundleX,
    ModelMismatchError,
    Polarization,
    SurfaceModel,
    TruncatedChar,
    UndefinedSlopeError,
    WitType,
    commutativity_check,
    dual_char,
    slope,
    transform_char,
    wit_classify,
)

NONZERO_M = [m for m in range(-5, 6) if m != 0]


# -- line bundle plumbing ----------------------------------------------------


def test_line_bundle_validates_m(k3):
    with pytest.raises(ValueError, match="^m must be an int, got Fraction"):
        LineBundleX(k3.model, Fraction(1, 2))
    with pytest.raises(ValueError, match="^m must be an int, got bool"):
        LineBundleX(k3.model, True)


@pytest.mark.parametrize("model", [None, "k3_quartic"], ids=["none", "preset-name"])
def test_line_bundle_needs_a_surface_model(model):
    with pytest.raises(ValueError, match=r"^model must be a SurfaceModel, got "):
        LineBundleX(model, 1)


def test_line_bundle_twist_defaults_to_zero(k3):
    assert LineBundleX(k3.model, 3).twist == (Fraction(0),)
    with pytest.raises(ValueError):
        LineBundleX(k3.model, 3, (1, 2))


def test_line_bundle_dual_is_an_involution(demo):
    lb = LineBundleX(demo.model, 4, (Fraction(1, 2), Fraction(-3)))
    assert lb.dual().dual() == lb
    assert lb.dual().m == -4
    assert lb.dual().twist == (Fraction(-1, 2), Fraction(3))


def test_line_bundle_render(k3, demo):
    assert LineBundleX(k3.model, -2).render() == "O_X(-2Θ)"
    lb = LineBundleX(demo.model, 1, (1, 0))
    assert lb.render() == "O_X(1Θ) ⊗ p*[1, 0]"


# -- transform characters ----------------------------------------------------


@pytest.mark.parametrize("m", NONZERO_M)
@pytest.mark.parametrize("name", ["k3_quartic", "enriques", "general_demo"])
def test_transform_character_formula(name, m):
    from weierfm import get_preset

    model = get_preset(name).model
    result = transform_char(LineBundleX(model, m))
    assert result.char.ch0 == m
    expected_delta = tuple(Fraction(m, 2) * k for k in model.canonical)
    assert result.char.ch1 == DivisorClassX(model, Fraction(-1), expected_delta)
    assert result.locally_free
    assert result.wit is (WitType.WIT0 if m > 0 else WitType.WIT1)


def test_transform_character_with_twist(demo):
    lb = LineBundleX(demo.model, 3, (Fraction(1), Fraction(-2)))
    ch1 = transform_char(lb).char.ch1
    # (3/2)·K + 3·twist with K = (-2, -2)
    assert ch1 == DivisorClassX(demo.model, Fraction(-1), (Fraction(0), Fraction(-9)))


def test_twist_enters_linearly(k3):
    base = transform_char(LineBundleX(k3.model, -4)).char.ch1
    twisted = transform_char(LineBundleX(k3.model, -4, (Fraction(2),))).char.ch1
    assert twisted - base == DivisorClassX(k3.model, Fraction(0), (Fraction(-8),))


def test_general_demo_m_one(demo):
    char = transform_char(LineBundleX(demo.model, 1)).char
    assert char.ch1.render() == "-Θ + p*[-1, -1]"


def test_rank_zero_transform(k3):
    result = transform_char(LineBundleX(k3.model, 0))
    assert result.char.ch0 == 0
    assert result.char.ch1 == k3.model.divisor_x(a=1)
    assert result.wit is WitType.WIT1
    assert not result.locally_free


@pytest.mark.parametrize("m,expected", [(1, WitType.WIT0), (7, WitType.WIT0),
                                        (0, WitType.WIT1), (-3, WitType.WIT1)])
def test_wit_classification(k3, m, expected):
    assert wit_classify(LineBundleX(k3.model, m)) is expected


# -- duals and slopes ---------------------------------------------------------


def test_dual_char_flips_ch1_only(demo):
    char = transform_char(LineBundleX(demo.model, 2)).char
    dual = dual_char(char)
    assert dual.ch0 == char.ch0
    assert dual.ch1 == -char.ch1
    assert dual_char(dual) == char


def test_char_negate_and_surface_twist(k3):
    """The odd shift is -x; tensoring with p*N is the product with
    ch(p*N) = (1, p*N), which moves ch1 by ch0·p*N."""
    char = TruncatedChar(Fraction(3), k3.model.divisor_x(a=1, delta=(2,)))
    assert -char == TruncatedChar(Fraction(-3), k3.model.divisor_x(a=-1, delta=(-2,)))
    bumped = char * TruncatedChar(Fraction(1), k3.model.divisor_x(delta=(1,)))
    assert bumped.ch0 == 3
    assert bumped.ch1 == k3.model.divisor_x(a=1, delta=(5,))


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda lb, pol: transform_char(None),
                     "line bundle must be a LineBundleX, got NoneType None",
                     id="transform_char-line-bundle"),
        pytest.param(lambda lb, pol: wit_classify(-2),
                     "line bundle must be a LineBundleX, got int -2",
                     id="wit_classify-line-bundle"),
        pytest.param(lambda lb, pol: dual_char(lb),
                     "character must be a TruncatedChar, got LineBundleX LineBundleX(...)",
                     id="dual_char-character"),
        pytest.param(lambda lb, pol: slope(None, pol),
                     "character must be a TruncatedChar, got NoneType None",
                     id="slope-character"),
        pytest.param(lambda lb, pol: slope(transform_char(lb).char, pol.h),
                     "polarization must be a Polarization, got tuple",
                     id="slope-polarization"),
        pytest.param(lambda lb, pol: commutativity_check(None),
                     "line bundle must be a LineBundleX, got NoneType None",
                     id="commutativity_check-line-bundle"),
        pytest.param(lambda lb, pol: commutativity_check(lb, "paper"),
                     "kernel must be a KernelChoice, got str 'paper'",
                     id="commutativity_check-kernel"),
    ],
)
def test_transform_entry_points_refuse_arguments_of_the_wrong_type(k3, k3_pol, call, message):
    """An argument that is not of its annotated class is refused with
    ValueError when the call starts, not met later as an AttributeError."""
    with pytest.raises(ValueError, match=re.escape(message)):
        call(LineBundleX(k3.model, -2), k3_pol)


@pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(1), Fraction(3)])
@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1), Fraction(3)])
@pytest.mark.parametrize("m", NONZERO_M)
def test_slope_closed_form_over_trivial_canonical(k3, t, s, m):
    """Ring integration must land on -s²H²/m, independent of t."""
    pol = Polarization(k3.model, t, s, k3.ample)
    char = transform_char(LineBundleX(k3.model, m)).char
    assert slope(char, pol) == Fraction(-4) * s * s / m


def test_slope_oracle_on_the_quartic(k3, k3_pol):
    char = transform_char(LineBundleX(k3.model, -2)).char
    assert slope(char, k3_pol) == 2


def test_twisted_slope_picks_up_the_mixed_term(k3):
    t, s = Fraction(2), Fraction(3)
    pol = Polarization(k3.model, t, s, k3.ample)
    m = -2
    char = transform_char(LineBundleX(k3.model, m, (Fraction(1),))).char
    # numerator: -s²H² + 2ts·(m·delta)·H with delta = twist
    expected = (-s * s * 4 + 2 * t * s * (m * 4)) / m
    assert slope(char, pol) == expected


def test_slope_sign_matches_wit_type(k3, k3_pol):
    for m in range(-6, 7):
        if m == 0:
            continue
        result = transform_char(LineBundleX(k3.model, m))
        positive = slope(result.char, k3_pol) > 0
        assert positive == (result.wit is WitType.WIT1)


def test_slope_needs_rank(k3, k3_pol):
    char = transform_char(LineBundleX(k3.model, 0)).char
    with pytest.raises(UndefinedSlopeError):
        slope(char, k3_pol)


def test_slope_refuses_mixed_models(k3, enriques, k3_pol):
    char = transform_char(LineBundleX(enriques.model, -1)).char
    with pytest.raises(ModelMismatchError):
        slope(char, k3_pol)


def test_polarization_validation(k3, demo):
    with pytest.raises(ValueError):
        Polarization(k3.model, Fraction(0), Fraction(1), k3.ample)
    with pytest.raises(ValueError):
        Polarization(k3.model, Fraction(1), Fraction(-1), k3.ample)
    with pytest.raises(ValueError):
        Polarization(demo.model, Fraction(1), Fraction(1), (Fraction(1), Fraction(-1)))
    with pytest.raises(TypeError):
        Polarization(k3.model, 0.5, Fraction(1), k3.ample)


def test_polarization_scaling(k3, k3_pol):
    doubled = k3_pol.scaled(2)
    assert (doubled.t, doubled.s) == (2, 2)
    assert doubled.h == k3_pol.h


def test_polarization_and_model_hash_their_fields(k3):
    """Polarizations key the stability caches, through the hash the
    dataclass generates from their fields."""
    model = SurfaceModel(1, ((4,),), (1,), False, (1,))
    pol = Polarization(model, Fraction(1, 2), 3, (1,))
    assert hash(pol) == hash((model, pol.t, pol.s, pol.h))
    assert hash(model) == hash(tuple(getattr(model, f.name) for f in fields(model)))
    assert [f.name for f in fields(pol)] == ["model", "t", "s", "h"]
    twin = Polarization(k3.model, 1, 1, k3.ample)
    assert hash(twin) == hash(Polarization(k3.model, 1, 1, k3.ample))
    assert twin == Polarization(k3.model, 1, 1, k3.ample)


# -- commutativity -------------------------------------------------------------


@pytest.mark.parametrize("kernel", list(KernelChoice))
@pytest.mark.parametrize("name", ["k3_quartic", "enriques"])
@pytest.mark.parametrize("m", NONZERO_M)
def test_dual_and_transform_commute_over_trivial_canonical(name, m, kernel):
    from weierfm import get_preset

    model = get_preset(name).model
    assert commutativity_check(LineBundleX(model, m), kernel)


def test_kernels_disagree_once_the_canonical_class_is_nonzero(demo):
    """On the P¹×P¹ base only the matched twist closes the square."""
    lb = LineBundleX(demo.model, 1)
    assert commutativity_check(lb, KernelChoice.PAPER)
    assert not commutativity_check(lb, KernelChoice.ALTERNATE)


@given(st.integers(min_value=-20, max_value=20).filter(lambda m: m != 0))
def test_commutativity_survives_twists(demo, m):
    lb = LineBundleX(demo.model, m, (Fraction(3, 2), Fraction(-5)))
    assert commutativity_check(lb, KernelChoice.PAPER)


def test_commutativity_needs_nonzero_m(k3):
    with pytest.raises(HypothesisViolationError):
        commutativity_check(LineBundleX(k3.model, 0))
