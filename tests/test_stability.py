import dataclasses
import hashlib
import json
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weierfm import (
    ConclusionKind,
    DestabilizerCandidate,
    EnumerationBounds,
    HypothesisViolationError,
    InternalCheckError,
    LineBundleX,
    ModelMismatchError,
    Polarization,
    StabilityReport,
    SurfaceModel,
    Verdict,
    WitType,
    candidate_slope,
    certify,
    enumerate_candidates,
    target_slope,
    transform_stability,
)
from weierfm.stability import candidate_grid

HALF = Fraction(1, 2)


def cand(r=1, a=0, delta=(0,), e=0):
    return DestabilizerCandidate(r, Fraction(a), tuple(map(Fraction, delta)), e)


# -- targets -------------------------------------------------------------------


def test_target_slope_oracles(k3, k3_pol, enriques):
    assert target_slope(2, k3_pol) == 2
    pol = Polarization(enriques.model, Fraction(1), Fraction(3), enriques.ample)
    assert target_slope(1, pol) == 18


def test_target_slope_closed_form(k3):
    for n in (1, 2, 3, 5):
        for s in (HALF, Fraction(1), Fraction(2)):
            pol = Polarization(k3.model, Fraction(3), s, k3.ample)
            assert target_slope(n, pol) == s * s * 4 / n


def test_target_slope_requires_trivial_canonical(demo):
    pol = Polarization(demo.model, Fraction(1), Fraction(1), demo.ample)
    with pytest.raises(HypothesisViolationError):
        target_slope(2, pol)


def test_target_slope_validates_n(k3_pol):
    with pytest.raises(ValueError):
        target_slope(0, k3_pol)
    with pytest.raises(ValueError):
        target_slope(True, k3_pol)


# -- candidate slopes -----------------------------------------------------------


def test_candidate_slope_oracle(k3_pol):
    assert candidate_slope(cand(r=2, a=2, delta=(1,), e=0), k3_pol) == -8


def test_candidate_slope_scales_quadratically(k3_pol):
    c = cand(r=1, a=1, delta=(2,), e=1)
    base = candidate_slope(c, k3_pol)
    assert candidate_slope(c, k3_pol.scaled(3)) == 9 * base


def test_candidate_slope_checks_delta_length(k3_pol):
    with pytest.raises(ModelMismatchError):
        candidate_slope(cand(delta=(0, 0)), k3_pol)


def test_candidate_validation():
    with pytest.raises(ValueError):
        DestabilizerCandidate(0, Fraction(0), (Fraction(0),), 0)
    with pytest.raises(ValueError):
        DestabilizerCandidate(1, Fraction(0), (Fraction(0),), 2)
    with pytest.raises(TypeError):
        DestabilizerCandidate(1, 0.5, (Fraction(0),), 0)


# -- certification ----------------------------------------------------------------


def test_certified_candidate(k3_pol):
    report = certify(2, k3_pol, cand(r=1, a=1, delta=(0,), e=1))
    assert report.verdict is Verdict.CERTIFIED
    assert report.candidate_slope == 0
    assert report.target_slope == 2
    assert report.fiber_deg == 0
    assert report.inadmissible_reasons == ()
    assert all(step.satisfied for step in report.trace)


def test_trace_decomposition_sums_to_rank_times_slope(k3_pol):
    for c in (cand(r=1, a=1, e=1), cand(r=2, a=2, delta=(1,), e=0),
              cand(r=3, a=HALF, delta=(-1,), e=1)):
        report = certify(4, k3_pol, c)
        total = sum(step.value for step in report.trace)
        assert total == c.r * report.candidate_slope


def test_trace_step_names(k3_pol):
    report = certify(2, k3_pol, cand(r=1, a=1, e=1))
    assert [s.name for s in report.trace] == [
        "fiber-degree step",
        "effectivity step",
        "section-part step",
    ]
    assert [s.requirement for s in report.trace] == ["<= 0", "<= 0", "== 0"]


def test_positive_fiber_degree_is_inadmissible(k3_pol):
    report = certify(2, k3_pol, cand(r=1, a=0, e=1))
    assert report.verdict is Verdict.INADMISSIBLE
    assert report.fiber_deg == 1
    assert any("fiber degree" in reason for reason in report.inadmissible_reasons)


def test_fractional_fiber_degree_is_inadmissible(k3_pol):
    report = certify(2, k3_pol, cand(r=1, a=HALF, e=0))
    assert report.verdict is Verdict.INADMISSIBLE
    assert any("not an integer" in reason for reason in report.inadmissible_reasons)


def test_negative_pairing_is_inadmissible(k3_pol):
    report = certify(2, k3_pol, cand(r=1, a=1, delta=(-1,), e=0))
    assert report.verdict is Verdict.INADMISSIBLE
    assert report.proxy.pairing == -4
    assert not report.proxy.admissible


def test_rank_window_is_enforced(k3_pol):
    report = certify(2, k3_pol, cand(r=2, a=1, e=1))
    assert report.verdict is Verdict.INADMISSIBLE
    assert any("rank" in reason for reason in report.inadmissible_reasons)


def test_negative_a_is_inadmissible(k3_pol):
    report = certify(2, k3_pol, cand(r=1, a=-1, e=0))
    assert report.verdict is Verdict.INADMISSIBLE
    assert not report.proxy.a_nonneg


def test_verdicts_are_scale_invariant(k3_pol):
    candidates = [cand(r=1, a=a, delta=(d,), e=e)
                  for a in (0, 1, 2) for d in (-1, 0, 2) for e in (0, 1)]
    for c in candidates:
        plain = certify(3, k3_pol, c)
        scaled = certify(3, k3_pol.scaled(2), c)
        assert plain.verdict is scaled.verdict
        assert scaled.candidate_slope == 4 * plain.candidate_slope
        assert scaled.target_slope == 4 * plain.target_slope


def test_certification_needs_trivial_canonical(demo):
    pol = Polarization(demo.model, Fraction(1), Fraction(1), demo.ample)
    with pytest.raises(HypothesisViolationError):
        certify(2, pol, DestabilizerCandidate(1, Fraction(0), pol.model.zero_vector(), 0))


# -- enumeration -------------------------------------------------------------------


def test_grid_shape_and_order(k3):
    bounds = EnumerationBounds(a_max=Fraction(1), delta_max=Fraction(1))
    grid = candidate_grid(3, 1, bounds)
    # r in {1, 2}, a in {0, 1/2, 1}, delta in {-1, 0, 1}, e in {0, 1}
    assert len(grid) == 2 * 3 * 3 * 2
    assert grid[0] == DestabilizerCandidate(1, Fraction(0), (Fraction(-1),), 0)
    assert grid[1] == DestabilizerCandidate(1, Fraction(0), (Fraction(-1),), 1)
    assert grid[-1] == DestabilizerCandidate(2, Fraction(1), (Fraction(1),), 1)


def test_delta_axis_is_the_integers_within_the_bound():
    """A fractional delta_max bounds an axis of integers, so delta = 0 is
    always on it: 5/2 gives -2..2, and 1/3 gives 0 alone."""
    from weierfm.stability import _axes

    _, deltas, _ = _axes(1, EnumerationBounds(Fraction(5, 2), Fraction(5, 2)))
    assert deltas == [(Fraction(d),) for d in range(-2, 3)]
    _, deltas, _ = _axes(2, EnumerationBounds(Fraction(0), Fraction(1, 3)))
    assert deltas == [(Fraction(0), Fraction(0))]
    assert len(candidate_grid(3, 2, EnumerationBounds(Fraction(1, 2), Fraction(5, 2)))) == 2 * 2 * 25 * 2


def test_enumeration_oracle(k3_pol):
    bounds = EnumerationBounds(a_max=Fraction(2), delta_max=Fraction(2))
    scan = enumerate_candidates(2, k3_pol, bounds)
    assert scan.candidate_count == 50
    assert not scan.any_violation
    counts = scan.verdict_counts()
    assert counts["Violation"] == 0
    assert counts["Certified"] + counts["Inadmissible"] == 50
    for report in scan.reports:
        if report.verdict is not Verdict.INADMISSIBLE:
            assert report.candidate_slope <= 0 < report.target_slope


def test_rank_one_search_has_no_candidates(k3_pol):
    scan = enumerate_candidates(1, k3_pol)
    assert scan.candidate_count == 0
    assert not scan.any_violation


def test_bounds_validation():
    with pytest.raises(ValueError):
        EnumerationBounds(a_max=Fraction(-1))
    with pytest.raises(ValueError):
        EnumerationBounds(delta_max=Fraction(-1))


@pytest.mark.parametrize(
    "n,rho,a_max,delta_max",
    [(3, 1, 1, 1), (2, 1, 0, 0), (4, 2, Fraction(3, 2), Fraction(5, 2)),
     (5, 1, Fraction(7, 4), Fraction(1, 3)), (2, 3, HALF, 2)],
)
def test_scan_cap_counts_the_grid_exactly(monkeypatch, n, rho, a_max, delta_max):
    """A grid of exactly MAX_SCAN_CANDIDATES is built; one more is refused."""
    from weierfm import stability

    bounds = EnumerationBounds(a_max, delta_max)
    size = len(candidate_grid(n, rho, bounds))
    monkeypatch.setattr(stability, "MAX_SCAN_CANDIDATES", size)
    assert len(candidate_grid(n, rho, bounds)) == size
    monkeypatch.setattr(stability, "MAX_SCAN_CANDIDATES", size - 1)
    with pytest.raises(ValueError, match="above the cap"):
        candidate_grid(n, rho, bounds)


def test_scan_cap_refuses_before_building_anything(monkeypatch, k3, k3_pol):
    """(4 - 1)·2 000 001·13·2 candidates: refused without an axis or a cell."""
    from weierfm import stability

    def unreachable(*args):
        raise AssertionError("the grid was built past the scan cap")

    monkeypatch.setattr(stability, "_grid", unreachable)
    monkeypatch.setattr(stability, "_cells", unreachable)
    bounds = EnumerationBounds(a_max=Fraction(10**6))
    with pytest.raises(ValueError, match="156000078 candidates, above the cap 500000"):
        enumerate_candidates(4, k3_pol, bounds)
    with pytest.raises(ValueError, match="above the cap"):
        candidate_grid(4, 1, bounds)
    with pytest.raises(ValueError, match="above the cap"):
        transform_stability(LineBundleX(k3.model, -10**6), k3_pol)
    assert stability.MAX_SCAN_CANDIDATES == 500_000


# -- the pipeline --------------------------------------------------------------------


def small_bounds():
    return EnumerationBounds(a_max=Fraction(1), delta_max=Fraction(1))


def test_direct_pipeline_for_negative_m(k3, k3_pol):
    report = transform_stability(LineBundleX(k3.model, -2), k3_pol, small_bounds())
    assert report.search_rank == 2
    assert report.transform.wit is WitType.WIT1
    assert report.transform_slope == 2
    assert report.target_slope == 2
    assert report.stable
    assert report.duality_step is None
    assert any("direct certification" in line for line in report.reduction)


def test_positive_m_routes_through_duality(k3, k3_pol):
    report = transform_stability(LineBundleX(k3.model, 2), k3_pol, small_bounds())
    assert report.search_rank == 2
    assert report.duality_step is not None
    assert report.duality_step.kind is ConclusionKind.DUAL_IDENTIFICATION
    assert report.duality_step.statement == "ι*(Φ^0(E^D)) ⊗ p*L = (Φ^1E)^D"
    assert any("reduces to m = -2" in line for line in report.reduction)
    assert report.stable


def test_twists_are_stripped_with_a_note(k3, k3_pol):
    report = transform_stability(
        LineBundleX(k3.model, -2, (Fraction(3),)), k3_pol, small_bounds()
    )
    assert any("twist stripped" in line for line in report.reduction)
    assert report.stable


def test_rank_zero_bundle_is_refused(k3, k3_pol):
    with pytest.raises(HypothesisViolationError):
        transform_stability(LineBundleX(k3.model, 0), k3_pol, small_bounds())


def test_pipeline_needs_a_k_trivial_threefold(k3_pol):
    skew = SurfaceModel(1, ((4,),), (0,), True, (2,))
    pol = Polarization(skew, Fraction(1), Fraction(1), (Fraction(1),))
    with pytest.raises(HypothesisViolationError):
        transform_stability(LineBundleX(skew, -2), pol, small_bounds())
    # the scan's target slope goes through the transform, which refuses too
    with pytest.raises(HypothesisViolationError):
        enumerate_candidates(2, pol, small_bounds())


def test_pipeline_refuses_mixed_models(k3, enriques, k3_pol):
    with pytest.raises(ModelMismatchError):
        transform_stability(LineBundleX(enriques.model, -2), k3_pol, small_bounds())


def test_pipeline_refuses_nontrivial_canonical(demo):
    pol = Polarization(demo.model, Fraction(1), Fraction(1), demo.ample)
    with pytest.raises(HypothesisViolationError):
        transform_stability(LineBundleX(demo.model, -2), pol, small_bounds())


def test_polarization_caches_stay_bounded(k3):
    from weierfm.stability import POLARIZATION_CACHE_SIZE, _geometry

    for i in range(POLARIZATION_CACHE_SIZE + 8):
        pol = Polarization(k3.model, Fraction(1), Fraction(i + 1, 7), k3.ample)
        certify(2, pol, cand())
    for cached in (_geometry, target_slope):
        assert cached.cache_info().currsize <= POLARIZATION_CACHE_SIZE


@pytest.mark.parametrize(
    "spoil,message",
    [
        pytest.param("geometry", "ω² does not split", id="omega-split"),
        pytest.param("slope product", "closed-form slope numerators disagree",
                     id="ring-vs-closed-form"),
        pytest.param("trace products", "trace decomposition does not sum", id="trace-sum"),
        pytest.param("target slope", "target slope must be positive", id="target-sign"),
    ],
)
def test_internal_checks_catch_a_perturbed_ring(monkeypatch, capsys, k3, spoil, message):
    """A ring product off by Θ·p*[pt] (which integrates to 1), or a target
    slope of the wrong sign, is caught by the cross-check named in
    ``message``, and ``weierfm certify`` exits 3."""
    from weierfm import cli, stability
    from weierfm.ring import ThreefoldClass
    from weierfm.stability import _functionals, _geometry

    pol = Polarization(k3.model, Fraction(1), Fraction(1), k3.ample)
    _geometry.cache_clear()
    _functionals.cache_clear()
    target_slope.cache_clear()
    # Except in the "geometry" case, the geometry is cached from the true ring.
    true = None if spoil == "geometry" else _geometry(pol)
    point = ThreefoldClass(k3.model.point_surface(), k3.model.surface())
    real_mul, real_slope = stability.x_mul, stability.slope

    def spoiled_mul(x, y):
        product = real_mul(x, y)
        if spoil == "trace products" and y is true.omega_squared:
            return product
        return product + point

    if spoil == "target slope":
        monkeypatch.setattr(stability, "slope", lambda char, p: -real_slope(char, p))
    else:
        monkeypatch.setattr(stability, "x_mul", spoiled_mul)
    with pytest.raises(InternalCheckError, match=message):
        certify(2, pol, cand(a=1, e=1))
    code = cli.main(["certify", "--preset", "k3_quartic", "-t", "1", "-s", "1",
                     "-n", "2", "-r", "1", "--a", "1", "--e", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error:") and message in err


@pytest.mark.parametrize(
    "spoil,message",
    [
        pytest.param("all products", "closed-form slope numerators disagree",
                     id="ring-vs-closed-form"),
        pytest.param("trace products", "trace decomposition does not sum", id="trace-sum"),
    ],
)
def test_internal_checks_catch_a_linearly_perturbed_ring(monkeypatch, capsys, k3, spoil,
                                                         message):
    """A ring product whose degree is doubled is linear in its factors, so the
    basis functionals carry it into every candidate; it is caught for a
    candidate with delta ≠ 0, and ``weierfm certify`` exits 3."""
    from weierfm import cli, stability
    from weierfm.ring import ThreefoldClass
    from weierfm.stability import _functionals, _geometry

    pol = Polarization(k3.model, Fraction(1), Fraction(1), k3.ample)
    _geometry.cache_clear()
    _functionals.cache_clear()
    target_slope.cache_clear()
    true = _geometry(pol)
    point = ThreefoldClass(k3.model.point_surface(), k3.model.surface())
    real_mul = stability.x_mul

    def spoiled_mul(x, y):
        product = real_mul(x, y)
        if spoil == "trace products" and y is true.omega_squared:
            return product
        return product + point.scale(product.alpha.s)

    monkeypatch.setattr(stability, "x_mul", spoiled_mul)
    with pytest.raises(InternalCheckError, match=message):
        certify(2, pol, cand(a=1, delta=(1,), e=1))
    code = cli.main(["certify", "--preset", "k3_quartic", "-t", "1", "-s", "1",
                     "-n", "2", "-r", "1", "--a", "1", "--delta", "1", "--e", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error:") and message in err


def test_scan_ring_products_do_not_depend_on_the_grid(monkeypatch, k3):
    """The ring runs once per polarization; each candidate is a dot product."""
    from weierfm import stability
    from weierfm.stability import POLARIZATION_CACHE_SIZE, _functionals, _geometry

    assert _functionals.cache_info().maxsize == POLARIZATION_CACHE_SIZE
    pol = Polarization(k3.model, Fraction(1), Fraction(1), k3.ample)
    real_mul = stability.x_mul
    calls = []
    monkeypatch.setattr(stability, "x_mul", lambda x, y: calls.append(1) or real_mul(x, y))
    seen = []
    for delta_max in (1, 3):
        _geometry.cache_clear()
        _functionals.cache_clear()
        target_slope.cache_clear()
        calls.clear()
        scan = enumerate_candidates(3, pol, EnumerationBounds(Fraction(1), Fraction(delta_max)))
        seen.append((len(calls), scan.candidate_count))
    (small_calls, small_count), (large_calls, large_count) = seen
    assert small_calls == large_calls > 0
    assert small_count < large_count


@st.composite
def k_trivial_polarizations(draw):
    """A K-trivial model of rank 1-3 and a polarization on it."""
    rho = draw(st.integers(1, 3))
    gram = [[0] * rho for _ in range(rho)]
    for i in range(rho):
        for j in range(i, rho):
            gram[i][j] = gram[j][i] = draw(st.integers(-4, 4))
    zero = (0,) * rho
    model = SurfaceModel(rho, tuple(map(tuple, gram)), zero, True, zero)
    h = tuple(Fraction(x) for x in draw(st.lists(st.integers(-3, 3), min_size=rho,
                                                 max_size=rho)))
    assume(model.pair(h, h) > 0)
    positive = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)
    return Polarization(model, draw(positive), draw(positive), h)


@st.composite
def k_trivial_setups(draw):
    """A K-trivial polarization of rank 1-3 and a candidate."""
    pol = draw(k_trivial_polarizations())
    rho = pol.model.picard_rank
    halves = st.integers(-12, 12).map(lambda k: Fraction(k, 2))
    c = DestabilizerCandidate(
        draw(st.integers(1, 4)), draw(halves),
        tuple(draw(st.lists(halves, min_size=rho, max_size=rho))), draw(st.integers(0, 1)),
    )
    return pol, c


@settings(max_examples=60, deadline=None)
@given(k_trivial_setups())
def test_functionals_match_direct_ring_products(setup):
    """The slope numerator and all three trace values equal the ring's own
    integrals of ch1(F) against ω², its fiber part and its mixed part."""
    from weierfm import DivisorClassX
    from weierfm.ring import pullback, x_integrate, x_mul

    pol, c = setup
    model, t, s = pol.model, pol.t, pol.s
    omega = pol.omega().as_threefold()
    theta = model.theta()
    mixed = (x_mul(theta, theta).scale(t * t)
             + x_mul(theta, pullback(model.divisor_surface(pol.h))).scale(2 * t * s))
    fiber = pullback(model.surface(s=model.pair(pol.h, pol.h))).scale(s * s)
    minus_delta = tuple(-x for x in c.delta)
    ch1 = DivisorClassX(model, c.e - c.a, minus_delta).as_threefold()
    torsion = DivisorClassX(model, -c.a, minus_delta).as_threefold()
    section = DivisorClassX(model, Fraction(c.e), model.zero_vector()).as_threefold()

    report = certify(c.r + 1, pol, c)
    assert c.r * candidate_slope(c, pol) == x_integrate(x_mul(ch1, x_mul(omega, omega)))
    assert report.candidate_slope == candidate_slope(c, pol)
    assert [step.value for step in report.trace] == [
        x_integrate(x_mul(ch1, fiber)),
        x_integrate(x_mul(torsion, mixed)),
        x_integrate(x_mul(section, mixed)),
    ]


@settings(max_examples=40, deadline=None)
@given(
    k_trivial_polarizations(),
    st.integers(1, 5),
    st.sampled_from([Fraction(0), HALF, Fraction(3, 2)]),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(5, 2)]),
)
def test_scan_reports_equal_certify(pol, n, a_max, delta_max):
    """Every scan report equals ``certify`` of its candidate field by field,
    in ``candidate_grid`` order, and the reports of ranks r and r + 1 at one
    (a, delta, e) share their trace and proxy objects."""
    bounds = EnumerationBounds(a_max, delta_max)
    reports = enumerate_candidates(n, pol, bounds).reports
    assert [report.candidate for report in reports] == candidate_grid(
        n, pol.model.picard_rank, bounds
    )
    for report in reports:
        expected = certify(n, pol, report.candidate)
        for field in dataclasses.fields(StabilityReport):
            assert getattr(report, field.name) == getattr(expected, field.name), field.name
    per_rank = len(reports) // max(n - 1, 1)
    for low, high in zip(reports, reports[per_rank:]):
        assert high.candidate == dataclasses.replace(low.candidate, r=low.candidate.r + 1)
        assert high.trace is low.trace and high.proxy is low.proxy


@pytest.mark.parametrize(
    "spoiled,pattern",
    [
        pytest.param("omega_squared",
                     r"ring integration and closed-form slope numerators disagree: \S+ vs \S+",
                     id="omega-squared"),
        pytest.param("fiber",
                     r"trace decomposition does not sum to r times the candidate slope",
                     id="fiber"),
    ],
)
def test_scan_checks_catch_spoiled_functionals(monkeypatch, capsys, k3, spoiled, pattern):
    """A functional off by one on p*e_1, returned past the once-per-polarization
    checks, is caught by the scan's per-cell numerator check or per-cell
    trace check, and ``weierfm scan`` exits 3."""
    from weierfm import cli, stability

    real = stability._functionals

    def spoiled_functionals(pol):
        fns = real(pol)
        values = getattr(fns, spoiled)
        return fns._replace(**{spoiled: (values[0], values[1] + 1) + values[2:]})

    monkeypatch.setattr(stability, "_functionals", spoiled_functionals)
    pol = Polarization(k3.model, Fraction(1), Fraction(1), k3.ample)
    with pytest.raises(InternalCheckError) as exc:
        enumerate_candidates(3, pol)
    assert re.fullmatch(pattern, str(exc.value))
    code = cli.main(["scan", "--preset", "k3_quartic", "-m", "-3", "-t", "1", "-s", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert re.fullmatch(f"internal error: {pattern}\n", err)


# -- byte-stable scan output ------------------------------------------------------------

_TS = (HALF, Fraction(1), Fraction(2))
_FIVE_HALVES = EnumerationBounds(Fraction(5, 2), Fraction(5, 2))
_SIGNED_M = (-4, -3, -2, -1, 1, 2, 3, 4)


def _rho2():
    from pathlib import Path

    from weierfm.serialize import surface_model_from_json

    path = Path(__file__).parent / "data" / "hyperbolic_rho2.json"
    model = surface_model_from_json(json.loads(path.read_text()))
    return model, (Fraction(1), Fraction(2))


# sha256 over repr and JSON (the pipeline view and the scan with every report)
# of transform_stability at each (model, bounds, (t, s), m), pinned from the
# all-Fraction scan.  The first group runs every (t, s) in {1/2, 1, 2}²; ρ=2
# with default bounds has 4 394 cells per rank, so it runs one polarization
# and one sign.  The delta axis holds only integers, so the five-halves pins
# are also the output of delta_max = 2.
_SCAN_PINS = {
    "rho1-five-halves": (("k3_quartic", "enriques"), _FIVE_HALVES,
                         [(t, s) for t in _TS for s in _TS], _SIGNED_M, 12960,
                         "b71b2ed390b693e2ceefca34cb88554872a40c44ba0db210b61ac0df1e9f2583"),
    "rho1-default": (("k3_quartic", "enriques"), EnumerationBounds(),
                     [(HALF, Fraction(1)), (Fraction(2), HALF)], _SIGNED_M, 16224,
                     "6c61cdedc1e3cec89ebab0881cae9d73cf9078bbf335b4bb831741dde191ee6a"),
    "rho2-five-halves": (("rho2",), _FIVE_HALVES,
                         [(Fraction(1), Fraction(2)), (Fraction(2), HALF)], _SIGNED_M, 7200,
                         "ba66ac523b426034b46853af78b15b9a510c3df50ed3486f8236900afe7b2355"),
    "rho2-default": (("rho2",), EnumerationBounds(), [(Fraction(1), Fraction(1))], (-2,), 4394,
                     "0217487feb0a324356d0b5e58b009640426f17b2b83283a3eda2d6de3264d2d4"),
}


@pytest.mark.parametrize("key", list(_SCAN_PINS))
def test_scan_output_is_byte_stable(key):
    from weierfm import get_preset
    from weierfm.serialize import to_jsonable

    names, bounds, polarizations, ms, count, pin = _SCAN_PINS[key]
    digest = hashlib.sha256()
    total = 0
    for name in names:
        preset = None if name == "rho2" else get_preset(name)
        model, h = _rho2() if preset is None else (preset.model, preset.ample)
        for t, s in polarizations:
            pol = Polarization(model, t, s, h)
            for m in ms:
                report = transform_stability(LineBundleX(model, m), pol, bounds)
                total += report.scan.candidate_count
                digest.update(repr(report).encode())
                digest.update(json.dumps(to_jsonable(report)).encode())
                digest.update(json.dumps(to_jsonable(report.scan)).encode())
    assert total == count
    assert digest.hexdigest() == pin


@pytest.mark.parametrize("n,bounds", [(4, EnumerationBounds()), (3, _FIVE_HALVES)])
def test_scan_candidates_equal_public_candidates(k3, n, bounds):
    """Reports hold candidates equal to the publicly built ones, with the
    same field types, repr and hash, while the public constructor still
    refuses a float a and a bool r."""
    model, h = _rho2()
    for pol in (Polarization(k3.model, HALF, Fraction(2), k3.ample),
                Polarization(model, Fraction(2), HALF, h)):
        for report in enumerate_candidates(n, pol, bounds).reports:
            c = report.candidate
            public = DestabilizerCandidate(c.r, c.a, c.delta, c.e)
            assert c == public and hash(c) == hash(public) and repr(c) == repr(public)
            assert type(c.r) is int and type(c.e) is int and type(c.a) is Fraction
            assert type(c.delta) is tuple and all(type(x) is Fraction for x in c.delta)
            assert report == StabilityReport(*(getattr(report, f.name) for f in
                                               dataclasses.fields(StabilityReport)))
    with pytest.raises(TypeError):
        DestabilizerCandidate(1, 0.5, (Fraction(0),), 0)
    with pytest.raises(ValueError):
        DestabilizerCandidate(True, Fraction(0), (Fraction(0),), 0)
    with pytest.raises(TypeError):
        dataclasses.replace(c, a=0.5)
