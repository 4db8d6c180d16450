import contextlib
import io
import operator
import os
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from weierfm import (
    DestabilizerCandidate,
    DivisorClassX,
    HypothesisViolationError,
    LineBundleX,
    ModelMismatchError,
    Polarization,
    SurfaceClass,
    SurfaceModel,
    ThreefoldClass,
    TruncatedChar,
    certify,
    commutativity_check,
    exp_divisor,
    fiber_degree,
    pullback,
    pushforward,
    surface_mul,
    transform_char,
    x_integrate,
    x_mul,
)
from weierfm import cli, serialize
from weierfm.presets import PRESETS

MODELS = tuple(p.model for p in PRESETS.values())

rationals = st.fractions(max_denominator=8)
models = st.sampled_from(MODELS)


@st.composite
def surface_classes(draw, model):
    d = tuple(draw(rationals) for _ in range(model.picard_rank))
    return model.surface(draw(rationals), d, draw(rationals))


@st.composite
def x_classes(draw, count):
    """count threefold classes over one shared model."""
    model = draw(models)
    out = tuple(
        ThreefoldClass(
            draw(surface_classes(model)), draw(surface_classes(model))
        )
        for _ in range(count)
    )
    return (model,) + out


def divisor_classes(model):
    vectors = st.lists(rationals, min_size=model.picard_rank, max_size=model.picard_rank)
    return st.builds(lambda a, d: DivisorClassX(model, a, tuple(d)), rationals, vectors)


@st.composite
def divisor_pairs(draw):
    model = draw(models)
    return draw(divisor_classes(model)), draw(divisor_classes(model))


# -- model validation --------------------------------------------------------


def test_gram_must_be_symmetric():
    with pytest.raises(ValueError):
        SurfaceModel(2, ((0, 1), (2, 0)), (0, 0), False, (0, 0))


def test_k_trivial_forces_zero_canonical():
    with pytest.raises(ValueError):
        SurfaceModel(1, ((2,),), (1,), True, (0,))


def test_vector_lengths_are_checked():
    with pytest.raises(ValueError):
        SurfaceModel(1, ((2,),), (0, 0), True, (0,))
    with pytest.raises(ValueError):
        SurfaceModel(2, ((2,),), (0, 0), True, (0, 0))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda m, v: SurfaceModel(2, m.gram, v, False, (0, 0)), "canonical must have length 2"),
        (lambda m, v: SurfaceModel(2, m.gram, (0, 0), False, v), "omega_class must have length 2"),
        (lambda m, v: m.surface(d=v), "degree-2 part must have length 2"),
        (lambda m, v: m.divisor_x(delta=v), "delta must have length 2"),
        (lambda m, v: Polarization(m, 1, 1, v), "h must have length 2"),
        (lambda m, v: LineBundleX(m, 1, v), "twist must have length 2"),
        (lambda m, v: m.pair(v, m.zero_vector()), "u must have length 2"),
        (lambda m, v: m.pair(m.zero_vector(), v), "v must have length 2"),
    ],
    ids=["canonical", "omega-class", "surface-class", "divisor", "polarization", "twist",
         "pair-u", "pair-v"],
)
@pytest.mark.parametrize("vector", [(1,), (1, 1, 1)], ids=["short", "long"])
def test_picard_vectors_need_rho_entries(demo, build, message, vector):
    """Each Picard vector is refused with the same message, naming it."""
    with pytest.raises(ValueError) as exc:
        build(demo.model, tuple(map(Fraction, vector)))
    assert str(exc.value) == message


def test_x_k_trivial_is_omega_matching_canonical(k3, demo):
    assert k3.model.x_k_trivial
    assert demo.model.x_k_trivial  # canonical nonzero, omega equal to it
    bent = SurfaceModel(1, ((4,),), (0,), True, (1,))
    assert not bent.x_k_trivial


@st.composite
def skew_models(draw):
    """Models whose threefold is not K-trivial: omega class ≠ K_S."""
    rho = draw(st.integers(1, 3))
    gram = [[0] * rho for _ in range(rho)]
    for i in range(rho):
        for j in range(i, rho):
            gram[i][j] = gram[j][i] = draw(st.integers(-4, 4))
    gram[0][0] = draw(st.integers(1, 6))  # so that h = e_0 polarizes
    k_trivial = draw(st.booleans())
    canonical = [0 if k_trivial else draw(st.integers(-3, 3)) for _ in range(rho)]
    offset = draw(st.lists(rationals, min_size=rho, max_size=rho).filter(any))
    omega = tuple(k + o for k, o in zip(canonical, offset))
    return SurfaceModel(rho, tuple(map(tuple, gram)), tuple(canonical), k_trivial, omega)


@settings(deadline=None, max_examples=50)
@given(skew_models(), st.integers(-4, 4).filter(bool))
def test_threefolds_that_are_not_k_trivial_are_refused(model, m):
    """Θ² = Θ·p*K_S and the transform character need omega = K_S."""
    lb = LineBundleX(model, m)
    pol = Polarization(model, 1, 1, (1,) + (0,) * (model.picard_rank - 1))
    theta = model.theta()
    refused = (
        lambda: x_mul(theta, theta),
        lambda: transform_char(lb),
        lambda: commutativity_check(lb),
        lambda: certify(2, pol, DestabilizerCandidate(1, 0, model.zero_vector(), 0)),
    )
    for call in refused:
        with pytest.raises(HypothesisViolationError):
            call()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(model))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["commute", "--model-file", path, "-m", str(m)])
    assert code == 2
    assert err.getvalue().startswith("error:") and "K-trivial" in err.getvalue()


def test_gram_pairing(demo):
    # hyperbolic plane: (a, b)·(c, d) = ad + bc
    assert demo.model.pair((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))) == 10


# -- fixed values ------------------------------------------------------------


def test_hyperplane_squared_on_quartic(k3):
    h = k3.model.divisor_surface((1,))
    hh = surface_mul(h, h)
    assert (hh.r, hh.d, hh.s) == (0, (Fraction(0),), Fraction(4))


def test_theta_squared_equals_theta_times_canonical(demo):
    theta = demo.model.theta()
    lhs = x_mul(theta, theta)
    rhs = x_mul(theta, pullback(demo.model.canonical_surface()))
    assert lhs == rhs


@pytest.mark.parametrize("name,expected", [("k3_quartic", 0), ("general_demo", 8)])
def test_theta_cubed_integrates_to_canonical_self_intersection(name, expected):
    model = PRESETS[name].model
    theta = model.theta()
    assert x_integrate(x_mul(x_mul(theta, theta), theta)) == expected


def test_omega_squared_against_minus_theta(k3, k3_pol):
    omega = k3_pol.omega().as_threefold()
    minus_theta = -k3.model.theta()
    assert x_integrate(x_mul(x_mul(omega, omega), minus_theta)) == -4


def test_exp_of_theta_with_nonzero_canonical(demo):
    """exp(Θ) = 1 + Θ + Θ·p*K/2 + Θ·p*(K²)/6 once Θ² is folded in."""
    model = demo.model
    result = exp_divisor(model.divisor_x(a=1))
    expected = ThreefoldClass(
        model.surface(1, (Fraction(-1), Fraction(-1)), Fraction(4, 3)),
        model.unit_surface(),
    )
    assert result == expected


def test_fiber_squares_to_zero_and_meets_theta_once(k3):
    model = k3.model
    f = model.fiber()
    assert x_mul(f, f).is_zero()
    assert x_integrate(x_mul(model.theta(), f)) == 1


def test_pullback_integrates_to_zero(k3):
    assert x_integrate(pullback(k3.model.point_surface())) == 0


# -- ring laws ---------------------------------------------------------------


@settings(deadline=None)
@given(x_classes(2))
def test_x_mul_commutes(data):
    _, x, y = data
    assert x_mul(x, y) == x_mul(y, x)


@settings(deadline=None)
@given(x_classes(3))
def test_x_mul_associates(data):
    _, x, y, z = data
    assert x_mul(x_mul(x, y), z) == x_mul(x, x_mul(y, z))


@settings(deadline=None)
@given(x_classes(3))
def test_x_mul_distributes_over_addition(data):
    _, x, y, z = data
    assert x_mul(x, y + z) == x_mul(x, y) + x_mul(x, z)


@settings(deadline=None)
@given(x_classes(2), rationals)
def test_scaling_commutes_with_multiplication(data, c):
    _, x, y = data
    assert x_mul(x.scale(c), y) == x_mul(x, y).scale(c)


@settings(deadline=None)
@given(x_classes(1))
def test_unit_is_neutral(data):
    model, x = data
    assert x_mul(model.unit_x(), x) == x


@settings(deadline=None)
@given(x_classes(1))
def test_projection_formula(data):
    model, x = data
    u = model.surface(2, model.canonical, Fraction(1, 3))
    assert pushforward(x_mul(pullback(u), x)) == surface_mul(u, pushforward(x))


@settings(deadline=None)
@given(models.flatmap(lambda m: st.tuples(surface_classes(m), surface_classes(m))))
def test_pullback_is_a_ring_map(pair):
    u, v = pair
    assert pullback(surface_mul(u, v)) == x_mul(pullback(u), pullback(v))


@settings(deadline=None)
@given(divisor_pairs())
def test_exp_turns_sums_into_products(pair):
    d1, d2 = pair
    assert exp_divisor(d1 + d2) == x_mul(exp_divisor(d1), exp_divisor(d2))


# -- divisor helpers ---------------------------------------------------------


def test_divisor_render(k3, demo):
    assert k3.model.divisor_x().render() == "0"
    assert k3.model.divisor_x(a=1).render() == "Θ"
    assert k3.model.divisor_x(a=-1).render() == "-Θ"
    assert k3.model.divisor_x(a=Fraction(3, 2)).render() == "3/2Θ"
    mixed = demo.model.divisor_x(a=-1, delta=(Fraction(1, 2), Fraction(-1)))
    assert mixed.render() == "-Θ + p*[1/2, -1]"
    assert demo.model.divisor_x(delta=(1, 0)).render() == "p*[1, 0]"


def test_fiber_degree_reads_the_theta_coefficient(k3):
    d = k3.model.divisor_x(a=Fraction(-3), delta=(5,))
    assert fiber_degree(d) == -3


def test_divisor_arithmetic(k3):
    model = k3.model
    d = model.divisor_x(a=2, delta=(3,))
    assert d - d == model.divisor_x()
    assert (-d).a == -2
    assert (d * Fraction(1, 2)).delta == (Fraction(3, 2),)
    assert d.as_threefold() == ThreefoldClass(
        model.surface(r=2), model.divisor_surface((3,))
    )


def _char_product(x, y):
    """(ch0·ch0′, ch0·ch1′ + ch0′·ch1), written out field by field."""
    return TruncatedChar(x.ch0 * y.ch0, DivisorClassX(
        x.model, x.ch0 * y.ch1.a + y.ch0 * x.ch1.a,
        tuple(x.ch0 * b + y.ch0 * a for a, b in zip(x.ch1.delta, y.ch1.delta))))


# Each class: a strategy of its values over one model, and its ring product
# (None: divisors have none; a truncated character's is the tensor product's).
_CLASSES = {
    "SurfaceClass": (surface_classes, surface_mul),
    "ThreefoldClass": (
        lambda m: st.builds(ThreefoldClass, surface_classes(m), surface_classes(m)), x_mul),
    "DivisorClassX": (divisor_classes, None),
    "TruncatedChar": (
        lambda m: st.builds(TruncatedChar, rationals, divisor_classes(m)), _char_product),
}


def _surface_sum(x, y):
    return SurfaceClass(x.model, x.r + y.r, tuple(a + b for a, b in zip(x.d, y.d)), x.s + y.s)


def _surface_scaled(x, c):
    return SurfaceClass(x.model, c * x.r, tuple(c * a for a in x.d), c * x.s)


def _basis(m):
    return [tuple(int(i == j) for j in range(m.picard_rank)) for i in range(m.picard_rank)]


def _surface_units(m):
    """One surface class per entry of r, d and s, nonzero there alone."""
    return [SurfaceClass(m, 1, (0,) * m.picard_rank, 0), SurfaceClass(m, 0, (0,) * m.picard_rank, 1),
            *(SurfaceClass(m, 0, e, 0) for e in _basis(m))]


def _surface_zero(m):
    return SurfaceClass(m, 0, (0,) * m.picard_rank, 0)


def _divisor_sum(x, y):
    return DivisorClassX(x.model, x.a + y.a, tuple(a + b for a, b in zip(x.delta, y.delta)))


def _divisor_scaled(x, c):
    return DivisorClassX(x.model, c * x.a, tuple(c * a for a in x.delta))


def _divisor_zero(m):
    return DivisorClassX(m, 0, (0,) * m.picard_rank)


def _divisor_units(m):
    """One divisor class per entry of a and delta, nonzero there alone."""
    return [DivisorClassX(m, 1, (0,) * m.picard_rank),
            *(DivisorClassX(m, 0, e) for e in _basis(m))]


# Each class written out field by field: x + y, x.scale(c), the zero over a
# model, and one class per entry that is nonzero there alone.  The +, scale
# and is_zero that _Linear derives are checked against them.
_FIELDWISE = {
    "SurfaceClass": (_surface_sum, _surface_scaled, _surface_zero, _surface_units),
    "ThreefoldClass": (
        lambda x, y: ThreefoldClass(_surface_sum(x.alpha, y.alpha), _surface_sum(x.beta, y.beta)),
        lambda x, c: ThreefoldClass(_surface_scaled(x.alpha, c), _surface_scaled(x.beta, c)),
        lambda m: ThreefoldClass(_surface_zero(m), _surface_zero(m)),
        lambda m: [ThreefoldClass(u, _surface_zero(m)) for u in _surface_units(m)]
        + [ThreefoldClass(_surface_zero(m), u) for u in _surface_units(m)]),
    "DivisorClassX": (_divisor_sum, _divisor_scaled, _divisor_zero, _divisor_units),
    "TruncatedChar": (
        lambda x, y: TruncatedChar(x.ch0 + y.ch0, _divisor_sum(x.ch1, y.ch1)),
        lambda x, c: TruncatedChar(c * x.ch0, _divisor_scaled(x.ch1, c)),
        lambda m: TruncatedChar(0, _divisor_zero(m)),
        lambda m: [TruncatedChar(1, _divisor_zero(m)),
                   *(TruncatedChar(0, u) for u in _divisor_units(m))]),
}


# No shrink phase: on a wrong operator, shrinking these nested draws took
# a minute or more per class while its memory grew; without it the first
# failing example is reported within seconds.
@pytest.mark.parametrize("kind", _CLASSES)
@settings(deadline=None, max_examples=40,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_operators_are_scale_and_the_ring_product(kind, data):
    """+, scale and is_zero act field by field; -x, x - y, c * x and x * c
    come from + and scale; x * y is the ring product, and a bool or float
    scalar is refused."""
    classes, product = _CLASSES[kind]
    total, scaled, zero, units = _FIELDWISE[kind]
    model = data.draw(models)
    x, y = data.draw(classes(model)), data.draw(classes(model))
    c = data.draw(rationals)
    assert x + y == total(x, y)
    assert x.scale(c) == scaled(x, c)
    assert x.scale(0).is_zero() and zero(model).is_zero()
    assert x.is_zero() == (x == zero(model))
    assert not any(u.is_zero() for u in units(model))
    assert -x == x.scale(-1)
    assert x - y == x + y.scale(-1) and (x - y) + y == x and (x - x).is_zero()
    assert c * x == x * c == x.scale(c)
    assert 3 * x == x * 3 == x.scale(3)
    if product is None:
        with pytest.raises(TypeError):
            x * y
    else:
        assert x * y == product(x, y)
    for refused in (lambda: True * x, lambda: x * False, lambda: 0.5 * x, lambda: x * 0.5):
        with pytest.raises(TypeError):
            refused()


def test_a_foreign_operand_is_a_type_error(k3):
    """+ and - take only a class of the same kind: a number, None, a string
    or another kind of class is a TypeError, on either side."""
    model = k3.model
    classes = (model.surface(r=1), model.theta(), model.divisor_x(a=1),
               TruncatedChar(1, model.divisor_x(a=1)))
    for x in classes:
        others = [y for y in classes if type(y) is not type(x)]
        for other in (1, Fraction(1, 2), None, "x", *others):
            for op in (operator.add, operator.sub):
                with pytest.raises(TypeError):
                    op(x, other)
                with pytest.raises(TypeError):
                    op(other, x)



@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda m: surface_mul(None, m.surface(r=1)),
                     "first factor must be a SurfaceClass, got NoneType None", id="surface_mul-u"),
        pytest.param(lambda m: surface_mul(m.surface(r=1), m.theta()),
                     "second factor must be a SurfaceClass, got ThreefoldClass ThreefoldClass(...)",
                     id="surface_mul-v"),
        pytest.param(lambda m: x_mul(m.surface(r=1), m.theta()),
                     "first factor must be a ThreefoldClass, got SurfaceClass SurfaceClass(...)",
                     id="x_mul-x"),
        pytest.param(lambda m: x_mul(m.theta(), 1),
                     "second factor must be a ThreefoldClass, got int 1", id="x_mul-y"),
        pytest.param(lambda m: x_integrate(m.surface(s=1)),
                     "threefold class must be a ThreefoldClass, got SurfaceClass", id="x_integrate"),
        pytest.param(lambda m: pullback(m.theta()),
                     "surface class must be a SurfaceClass, got ThreefoldClass", id="pullback"),
        pytest.param(lambda m: pushforward((1,)),
                     "threefold class must be a ThreefoldClass, got tuple (1,)", id="pushforward"),
        pytest.param(lambda m: exp_divisor(m.theta()),
                     "divisor must be a DivisorClassX, got ThreefoldClass", id="exp_divisor"),
        pytest.param(lambda m: fiber_degree("x"),
                     "divisor must be a DivisorClassX, got str 'x'", id="fiber_degree"),
    ],
)
def test_ring_entry_points_refuse_arguments_of_the_wrong_type(k3, call, message):
    """An argument that is not of its annotated class is refused with
    ValueError when the call starts, not met later as an AttributeError."""
    with pytest.raises(ValueError, match=re.escape(message)):
        call(k3.model)


def test_every_public_callable_refuses_arguments_of_the_wrong_type():
    """Every callable of ``weierfm.__all__`` with at most three required
    positionals, called with every combination of the probe values, either
    returns or raises TypeError, ValueError or a WeierfmError: none leaks
    an AttributeError or another error from deeper in the library."""
    import inspect
    import itertools

    import weierfm
    from weierfm import WeierfmError

    model = SurfaceModel(1, ((4,),), (Fraction(0),), True, (Fraction(0),))
    probes = (None, 1, 1.5, "x", True, (), (1,), model, [1], {})
    leaks = {}
    for name in weierfm.__all__:
        obj = getattr(weierfm, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        params = inspect.signature(obj).parameters.values()
        required = [p for p in params if p.default is p.empty
                    and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        if len(required) > 3:
            continue
        for args in itertools.product(probes, repeat=len(required)):
            try:
                obj(*args)
            except (TypeError, ValueError, WeierfmError):
                pass
            except Exception as exc:  # any other error leaks
                leaks.setdefault(name, f"{type(exc).__name__} on {args!r}: {exc}")
    assert leaks == {}

def test_mixing_models_raises(k3, enriques):
    with pytest.raises(ModelMismatchError):
        k3.model.theta() + enriques.model.theta()
    with pytest.raises(ModelMismatchError):
        x_mul(k3.model.theta(), enriques.model.theta())
    with pytest.raises(ModelMismatchError):
        k3.model.divisor_x(a=1) + enriques.model.divisor_x(a=1)
    with pytest.raises(ModelMismatchError):
        k3.model.surface(r=1) + enriques.model.surface(r=1)
    for x in (k3.model.surface(r=1), k3.model.theta(), k3.model.divisor_x(a=1)):
        assert x.scale(Fraction(-1, 2)).model is (x + x).model is k3.model
