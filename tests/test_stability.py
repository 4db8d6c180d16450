import dataclasses
import hashlib
import itertools
import json
import operator
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
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
    ScanResult,
    StabilityReport,
    SurfaceModel,
    Verdict,
    WitType,
    candidate_slope,
    certify,
    enumerate_candidates,
    get_preset,
    slope,
    target_slope,
    transform_char,
    transform_stability,
)
from weierfm.stability import GRID_CACHE_SIZE, _inertia, _lattice_fault, candidate_grid

HALF = Fraction(1, 2)


def cand(r=1, a=0, delta=(0,), e=0):
    return DestabilizerCandidate(r, Fraction(a), tuple(map(Fraction, delta)), e)


def test_scan_any_violation_is_what_its_reports_give(k3_pol):
    """A ScanResult's any_violation is true exactly when one of its reports
    is a Violation; the constructor refuses any other flag."""
    report = certify(2, k3_pol, cand())
    violation = dataclasses.replace(report, verdict=Verdict.VIOLATION)
    for reports, flag in (((), True), ((report,), True), ((report, violation), False)):
        with pytest.raises(ValueError, match=f"'any_violation' is {flag}, "
                                             f"but its reports give {not flag}"):
            ScanResult(reports, flag)
    assert ScanResult((report, violation), True).any_violation


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


def test_target_slope_is_the_ring_slope(k3, enriques):
    """The target slope is read off the ω² functional; it equals ``slope``'s
    two ring products on the transform of O_X(-nΘ)."""
    model, h = _rho2()
    for pol in (Polarization(k3.model, HALF, Fraction(2), k3.ample),
                Polarization(enriques.model, Fraction(1), Fraction(3), enriques.ample),
                Polarization(model, Fraction(2), HALF, h)):
        for n in range(1, 6):
            char = transform_char(LineBundleX(pol.model, -n)).char
            assert target_slope(n, pol) == slope(char, pol) > 0


def test_target_slope_requires_trivial_canonical(demo):
    pol = Polarization(demo.model, Fraction(1), Fraction(1), demo.ample)
    with pytest.raises(HypothesisViolationError):
        target_slope(2, pol)


def test_target_slope_validates_n(k3_pol):
    with pytest.raises(ValueError):
        target_slope(0, k3_pol)
    with pytest.raises(ValueError):
        target_slope(True, k3_pol)


@pytest.mark.parametrize("n", [True, 2.0], ids=["bool", "whole-float"])
def test_target_slope_validates_n_with_a_warm_cache(k3_pol, n):
    """True == 1 and 2.0 == 2 hash alike, so with the polarization's
    functionals cached, n is still refused: target_slope and certify check
    it (``_require_rank``) before they read the cached functionals."""
    assert (target_slope(1, k3_pol), target_slope(2, k3_pol)) == (4, 2)
    with pytest.raises(ValueError):
        target_slope(n, k3_pol)
    with pytest.raises(ValueError):
        certify(n, k3_pol, cand())


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

    deltas = _axes(3, 1, EnumerationBounds(Fraction(5, 2), Fraction(5, 2))).deltas
    assert deltas == tuple((Fraction(d),) for d in range(-2, 3))
    deltas = _axes(3, 2, EnumerationBounds(Fraction(0), Fraction(1, 3))).deltas
    assert deltas == ((Fraction(0), Fraction(0)),)
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
    "n,rho,message",
    [(-5, 1, "n must"), (0, 1, "n must"), (True, 1, "n must"), (2.5, 1, "n must"),
     (2, 0, "picard_rank must"), (2, 1.5, "picard_rank must"), (2, True, "picard_rank must")],
)
def test_candidate_grid_refuses_a_rank_that_is_not_a_positive_integer(n, rho, message):
    """candidate_grid applies the scan's rules for n and the Picard rank: no
    empty grid for n <= 0 or True, and no grid with delta = () for ρ = 0."""
    with pytest.raises(ValueError, match=f"^{message} be a positive integer"):
        candidate_grid(n, rho, EnumerationBounds())


def test_candidate_grid_reads_none_as_the_default_bounds():
    assert candidate_grid(2, 1, None) == candidate_grid(2, 1, EnumerationBounds())
    assert len(candidate_grid(2, 1, None)) == 13 * 13 * 2


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
    """(4 - 1)·2 000 001·13·2 candidates: refused without an axis or a cell.
    The grid steps are swapped for ones that refuse to be multiplied, which
    building either axis does; at n = 1 no axis is built either.  The grid
    cache starts empty, so the first call builds its grid rather than
    finding it kept."""
    from weierfm import stability

    def unreachable(*args):
        raise AssertionError("the grid was built past the scan cap")

    class Unbuilt(Fraction):
        __rmul__ = unreachable

    stability._grid.cache_clear()
    monkeypatch.setattr(stability, "A_STEP", Unbuilt(stability.A_STEP))
    monkeypatch.setattr(stability, "DELTA_STEP", Unbuilt(stability.DELTA_STEP))
    with pytest.raises(AssertionError, match="built past the scan cap"):
        candidate_grid(2, 1, EnumerationBounds(Fraction(0), Fraction(0)))
    assert candidate_grid(1, 3, None) == []
    monkeypatch.setattr(stability, "_cells", unreachable)
    bounds = EnumerationBounds(a_max=Fraction(10**6))
    with pytest.raises(ValueError, match="156000078 candidates, above the cap 500000"):
        enumerate_candidates(4, k3_pol, bounds)
    with pytest.raises(ValueError, match="above the cap"):
        candidate_grid(4, 1, bounds)
    with pytest.raises(ValueError, match="above the cap"):
        transform_stability(LineBundleX(k3.model, -10**6), k3_pol)
    assert stability.MAX_SCAN_CANDIDATES == 500_000


def test_scan_cap_counts_the_delta_entries_the_candidates_hold(monkeypatch):
    """A one-point delta axis keeps the candidate count at 2 for any ρ, but
    each candidate holds ρ delta entries: 2·10^8 of them are refused before
    an axis is built, and exactly ten times the candidate cap is let
    through.  The largest grid the candidate cap lets through with a wider
    delta axis, (n, ρ, delta_max, a_max) = (2, 10, 1, 3/2), holds 472 392 ×
    10 = 4 723 920 entries, under the 5 000 000 entry cap, so it is built."""
    from weierfm import stability

    def unreachable(*args):
        raise AssertionError("the grid was built past the entry cap")

    class Unbuilt(Fraction):
        __rmul__ = unreachable

    one_point = EnumerationBounds(Fraction(0), Fraction(0))
    monkeypatch.setattr(stability, "A_STEP", Unbuilt(stability.A_STEP))
    monkeypatch.setattr(stability, "DELTA_STEP", Unbuilt(stability.DELTA_STEP))
    with pytest.raises(ValueError, match="^the scan grid's 2 candidates hold more than "
                                         "5000000 delta entries in all"):
        candidate_grid(2, 10**8, one_point)
    with pytest.raises(AssertionError, match="built past the entry cap"):
        candidate_grid(2, 10, EnumerationBounds(Fraction(3, 2), Fraction(1)))
    monkeypatch.undo()
    monkeypatch.setattr(stability, "MAX_SCAN_CANDIDATES", 10)
    assert [len(c.delta) for c in candidate_grid(2, 50, one_point)] == [50, 50]
    with pytest.raises(ValueError, match="^the scan grid's 2 candidates hold more than 100 "):
        candidate_grid(2, 51, one_point)


@pytest.mark.parametrize(
    "call",
    [pytest.param(lambda pol: candidate_grid(2, 10**4, None), id="rank-10^4"),
     pytest.param(lambda pol: candidate_grid(2, 10**6, None), id="rank-10^6"),
     pytest.param(lambda pol: enumerate_candidates(10**4400, pol), id="n-10^4400"),
     pytest.param(lambda pol: candidate_grid(2, 1, EnumerationBounds(Fraction(10**4400), 0)),
                  id="a_max-10^4400"),
     pytest.param(lambda pol: enumerate_candidates(
         2, pol, EnumerationBounds(Fraction(10**4400, 3), Fraction(1, 2))), id="scan-a_max")],
)
def test_scan_cap_refuses_a_grid_too_large_to_count(k3_pol, call):
    """A grid past the cap by a power of ρ, by a huge n or by a huge a axis
    is refused with the cap's message: counting stops past the cap, so it
    builds no huge power and prints no number too long for ``str``."""
    with pytest.raises(ValueError, match="^the scan grid has too many candidates, above the cap"):
        call(k3_pol)


# -- the shared grid -----------------------------------------------------------------


@pytest.fixture
def grid_cache():
    """The grid cache, emptied before and after the test."""
    from weierfm import stability

    stability._grid.cache_clear()
    yield stability._grid
    stability._grid.cache_clear()


def test_scans_over_one_grid_share_its_candidates(k3, enriques, grid_cache):
    """Two polarizations, two presets of one Picard rank and both signs of m
    scan one rank-3 grid: every scan's reports hold the same candidate
    objects, the grid's, and every report still equals ``certify`` of its
    candidate field by field."""
    scans = []
    for preset in (k3, enriques):
        for t, s in ((Fraction(1), Fraction(1)), (HALF, Fraction(2))):
            pol = Polarization(preset.model, t, s, preset.ample)
            for m in (-3, 3):
                scan = transform_stability(LineBundleX(preset.model, m), pol, small_bounds()).scan
                for report in scan.reports:
                    assert report == certify(3, pol, report.candidate)
                scans.append(scan)
    first = [report.candidate for report in scans[0].reports]
    assert len(first) == 2 * 3 * 3 * 2
    for scan in scans[1:]:
        assert all(report.candidate is cand for report, cand in zip(scan.reports, first))
    assert grid_cache.cache_info()[:2] == (len(scans) - 1, 1)


def test_certify_reports_the_callers_own_candidate(k3_pol):
    candidate = cand(r=2, a=HALF, delta=(1,), e=1)
    assert certify(3, k3_pol, candidate).candidate is candidate


# A lattice a K-trivial surface can have, and an h with h·h > 0 on it, by ρ.
_LATTICES = {
    1: (((4,),), (Fraction(1),)),
    2: (((0, 1), (1, 0)), (Fraction(1), Fraction(1))),
    3: (((0, 1, 0), (1, 0, 0), (0, 0, -2)), (Fraction(1), Fraction(1), Fraction(0))),
}


@pytest.mark.parametrize(
    "n,rho,a_max,delta_max",
    [(3, 1, 1, 1), (2, 2, HALF, Fraction(5, 2)), (4, 3, 0, 1), (5, 1, Fraction(3, 2), 0)],
)
def test_candidate_grid_is_the_scan_grid_and_the_public_rule(grid_cache, n, rho, a_max,
                                                              delta_max):
    """``candidate_grid`` returns a new list of the scan's own candidates,
    rank by rank and in order, and they equal the candidates the public
    constructor builds from the axes that EnumerationBounds documents."""
    bounds = EnumerationBounds(a_max, delta_max)
    grid = candidate_grid(n, rho, bounds)
    gram, h = _LATTICES[rho]
    pol = Polarization(k_trivial_model(gram), Fraction(1), Fraction(1), h)
    scan = enumerate_candidates(n, pol, bounds)
    assert all(report.candidate is c for report, c in zip(scan.reports, grid, strict=True))
    again = candidate_grid(n, rho, bounds)
    assert again is not grid and all(map(operator.is_, again, grid))
    deltas = itertools.product(range(-int(delta_max), int(delta_max) + 1), repeat=rho)
    points = list(itertools.product(range(int(2 * a_max) + 1), list(deltas), (0, 1)))
    public = [DestabilizerCandidate(r, Fraction(a, 2), tuple(map(Fraction, delta)), e)
              for r in range(1, n) for a, delta, e in points]
    assert grid == public


def test_the_public_candidate_constructor_still_checks_its_fields():
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        DestabilizerCandidate(1, 0.5, (Fraction(0),), 0)
    with pytest.raises(ValueError, match="^r must be an int, got bool True$"):
        DestabilizerCandidate(True, Fraction(0), (Fraction(0),), 0)


@pytest.mark.parametrize(
    "call,error,message",
    [pytest.param(lambda pol: candidate_grid(True, 1, None), ValueError,
                  "^n must be a positive integer$", id="grid-bool-n"),
     pytest.param(lambda pol: enumerate_candidates(True, pol), ValueError,
                  "^n must be a positive integer$", id="scan-bool-n"),
     pytest.param(lambda pol: candidate_grid(2, True, None), ValueError,
                  "^picard_rank must be a positive integer$", id="grid-bool-rho"),
     pytest.param(lambda pol: enumerate_candidates(2, pol, {"a_max": 1}), ValueError,
                  "^bounds must be an EnumerationBounds, got dict", id="scan-dict-bounds"),
     pytest.param(lambda pol: candidate_grid(2, 1, [1, 1]), ValueError,
                  r"^bounds must be an EnumerationBounds, got list \[1, 1\]$",
                  id="grid-list-bounds"),
     pytest.param(lambda pol: candidate_grid(2, 1, (1, 1)), ValueError,
                  r"^bounds must be an EnumerationBounds, got tuple \(1, 1\)$",
                  id="grid-tuple-bounds"),
     pytest.param(lambda pol: enumerate_candidates(4, pol, EnumerationBounds(Fraction(10**6))),
                  ValueError, "^the scan grid has 156000078 candidates, above the cap 500000",
                  id="candidate-cap"),
     pytest.param(lambda pol: candidate_grid(2, 10**8, EnumerationBounds(Fraction(0),
                                                                        Fraction(0))),
                  ValueError, "^the scan grid's 2 candidates hold more than 5000000 delta",
                  id="entry-cap")],
)
def test_a_refused_grid_never_reaches_the_cache(k3_pol, grid_cache, call, error, message):
    """Every refusal keeps its class and message, and is raised before the
    cache is looked up, so it leaves the cache as it was: True is not n = 1
    or ρ = 1 there, and an unhashable bounds is never hashed.  A kept grid
    of n = 2 and of n = 1 (which builds no grid) changes none of this."""
    candidate_grid(2, 1, None)
    candidate_grid(1, 1, None)
    before = grid_cache.cache_info()
    for _ in range(2):
        with pytest.raises(error, match=message):
            call(k3_pol)
    assert grid_cache.cache_info() == before == (0, 1, 16, 1)


def _units(n, rho, bounds):
    """What a grid counts against its share of GRID_CACHE_SIZE: its
    candidates plus the delta entries of its delta axis."""
    deltas = (2 * int(bounds.delta_max) + 1) ** rho
    return (n - 1) * (int(2 * bounds.a_max) + 1) * deltas * 2 + deltas * rho


def test_grid_cache_evicts_the_least_recently_used_grids_by_weight(grid_cache):
    """The cache keeps at most maxsize grids, and only grids within their
    share of GRID_CACHE_SIZE, its maxsize-th part: a grid of more units
    (candidates plus delta-axis entries) is built on every call and never
    kept, even at two candidates, and a new grid past maxsize small ones
    evicts the least recently used one."""
    maxsize = grid_cache.cache_info().maxsize
    share = GRID_CACHE_SIZE // maxsize
    assert (maxsize, share) == (16, 4096)
    one_point = EnumerationBounds(Fraction(0), Fraction(0))
    # 2 candidates and share - 2 delta entries: kept; one entry more: not.
    wide = candidate_grid(2, share - 2, one_point)
    assert candidate_grid(2, share - 2, one_point)[0] is wide[0]
    wider = candidate_grid(2, share - 1, one_point)
    assert candidate_grid(2, share - 1, one_point)[0] is not wider[0]
    # k3 at n = 13 weighs 12·338 + 13 = 4 069 units: kept; n = 14, 4 407: not.
    default = EnumerationBounds()
    assert _units(13, 1, default) <= share < _units(14, 1, default)
    assert candidate_grid(13, 1, None)[0] is candidate_grid(13, 1, default)[0]
    heavy = candidate_grid(14, 1, None)
    assert candidate_grid(14, 1, None)[0] is not heavy[0]
    assert heavy == candidate_grid(14, 1, default)
    # Only the kept grids count as hits and misses.
    assert grid_cache.cache_info() == (2, 2, maxsize, 2)
    grid_cache.cache_clear()
    small = [EnumerationBounds(Fraction(i, 2), Fraction(0)) for i in range(maxsize + 1)]
    firsts = [candidate_grid(2, 1, bounds)[0] for bounds in small[:maxsize]]
    assert candidate_grid(2, 1, small[0])[0] is firsts[0]  # now the most recent
    candidate_grid(2, 1, small[maxsize])  # evicts small[1], the least recent
    assert grid_cache.cache_info() == (1, maxsize + 1, maxsize, maxsize)
    assert candidate_grid(2, 1, small[0])[0] is firsts[0]
    assert candidate_grid(2, 1, small[1])[0] is not firsts[1]


def test_grid_cache_stays_under_its_bound_across_many_grids(k3_pol, grid_cache):
    """k3 scans at n = 2..21 over the default and a small grid weigh 71 240
    and 3 840 units, more than GRID_CACHE_SIZE.  The cache keeps at most
    maxsize grids, and no grid over its share of GRID_CACHE_SIZE (n >= 14
    at the default bounds), so the grids it keeps hold at most
    GRID_CACHE_SIZE units.  The first grid is evicted, and a re-scan over it
    rebuilds it and equals the cold scan."""
    maxsize = grid_cache.cache_info().maxsize
    share = GRID_CACHE_SIZE // maxsize
    default, small = EnumerationBounds(), small_bounds()
    cold = enumerate_candidates(2, k3_pol)
    for n in range(2, 22):
        enumerate_candidates(n, k3_pol)
        enumerate_candidates(n, k3_pol, small)
    weights = [_units(n, 1, bounds) for n in range(2, 22) for bounds in (default, small)]
    assert (sum(weights[::2]), sum(weights[1::2])) == (71_240, 3_840)
    kept = sum(weight <= share for weight in weights)
    assert kept == 12 + 20 > maxsize
    assert grid_cache.cache_info() == (1, kept, maxsize, maxsize)
    for n in range(14, 22):
        assert enumerate_candidates(n, k3_pol).reports[0].candidate is not (
            candidate_grid(n, 1, None)[0])
    again = enumerate_candidates(2, k3_pol)
    assert again == cold
    assert again.reports[0].candidate is not cold.reports[0].candidate
    last = enumerate_candidates(13, k3_pol).reports[-1].candidate
    assert last is candidate_grid(13, 1, None)[-1]
    assert grid_cache.cache_info().currsize <= maxsize


def test_grid_cache_shared_by_threads_gives_the_single_thread_scans(k3, enriques,
                                                                   grid_cache):
    """Four threads run the same six scans, which read three kept grids
    (k3 and Enriques share two) and one over its share of GRID_CACHE_SIZE,
    never kept: every thread's scans equal the single-thread scans by
    value, and the cache keeps the three grids.  Two threads that miss one grid together may each build it, so
    only values, not candidate objects, are compared, and a miss may be
    counted once per thread."""
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier

    calls = [(LineBundleX(preset.model, m), Polarization(preset.model, t, s, preset.ample),
              bounds)
             for preset, m, t, s, bounds in (
                 (k3, -2, Fraction(1), Fraction(1), None),
                 (enriques, 2, HALF, Fraction(2), None),
                 (k3, 3, Fraction(1), Fraction(3), small_bounds()),
                 (enriques, -3, Fraction(2), Fraction(1), small_bounds()),
                 (k3, -14, Fraction(1), Fraction(1), EnumerationBounds(delta_max=Fraction(0))),
                 (k3, 14, HALF, Fraction(1), None))]
    want = [transform_stability(*call) for call in calls]
    grid_cache.cache_clear()
    start = Barrier(4)

    def run(_):
        start.wait()
        return [transform_stability(*call) for call in calls]

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(run, range(4)))
    assert results == [want] * 4
    info = grid_cache.cache_info()
    assert info.currsize == 3 <= info.maxsize
    assert info.hits + info.misses == 4 * 5 and info.misses >= 3


def test_a_sweep_block_reads_four_grids_and_then_finds_them_kept(k3, enriques,
                                                                 grid_cache):
    """The benchmark's sweep block scans k3 and Enriques at n = 2, 3 and 4
    and the ρ = 2 lattice at n = 2 and delta_max = 3, with both signs: 4
    grids of 351, 689, 1 027 and 1 372 units, each within its share of
    GRID_CACHE_SIZE.  The first block builds each once and finds it kept
    on every later scan; a second block only finds them kept."""
    gram, h = _LATTICES[2]
    rho2 = k_trivial_model(gram)
    block = [(LineBundleX(preset.model, sign * n),
              Polarization(preset.model, Fraction(1), Fraction(1), preset.ample), None)
             for preset in (k3, enriques) for n in (2, 3, 4) for sign in (-1, 1)]
    block += [(LineBundleX(rho2, sign * 2), Polarization(rho2, Fraction(1), Fraction(1), h),
               EnumerationBounds(delta_max=Fraction(3)))
              for sign in (-1, 1)]
    share = GRID_CACHE_SIZE // grid_cache.cache_info().maxsize
    units = [_units(n, 1, EnumerationBounds()) for n in (2, 3, 4)]
    units.append(_units(2, 2, EnumerationBounds(delta_max=Fraction(3))))
    assert units == [351, 689, 1_027, 1_372] and max(units) <= share
    for call in block:
        assert transform_stability(*call).stable
    assert grid_cache.cache_info()[:2] == (len(block) - 4, 4)
    for call in block:
        transform_stability(*call)
    assert grid_cache.cache_info()[:2] == (2 * len(block) - 4, 4)


def test_a_full_grid_cache_stays_under_16_mib():
    """maxsize grids, each just within its share of GRID_CACHE_SIZE,
    among them a one-point delta axis at ρ = share - 2 (two candidates
    holding a delta of 4 094 entries) and grids of ρ = 2 and 3, take less
    than 16 MiB: a unit took 176-207 B when the cache was sized, and about
    165 B in this fill."""
    import gc
    import tracemalloc

    from weierfm import stability

    maxsize = stability._grid.cache_info().maxsize
    share = GRID_CACHE_SIZE // maxsize
    keys = [(2, share - 2, EnumerationBounds(Fraction(0), Fraction(0)))]
    for rho, delta_max in ((2, 2), (3, 1)):
        deltas = (2 * delta_max + 1) ** rho
        a_len = (share - deltas * rho) // (2 * deltas)
        keys.append((2, rho, EnumerationBounds(Fraction(a_len - 1, 2), Fraction(delta_max))))
    n = 2
    while len(keys) < maxsize:
        a_len = (share - 13) // (26 * (n - 1))
        keys.append((n, 1, EnumerationBounds(Fraction(a_len - 1, 2), Fraction(6))))
        n += 1
    units = [_units(*key) for key in keys]
    assert max(units) <= share and sum(units) > 0.95 * GRID_CACHE_SIZE
    stability._grid.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key in keys:
            candidate_grid(*key)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        info = stability._grid.cache_info()
        stability._grid.cache_clear()
    assert (info.misses, info.currsize) == (maxsize, maxsize)
    assert grown < 16 * 2**20, grown


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


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda lb, pol: transform_stability(None, pol),
                     "line bundle must be a LineBundleX, got NoneType None",
                     id="transform_stability-line-bundle"),
        pytest.param(lambda lb, pol: transform_stability(lb, pol, (1, 1)),
                     r"bounds must be an EnumerationBounds, got tuple \(1, 1\)",
                     id="transform_stability-bounds"),
        pytest.param(lambda lb, pol: enumerate_candidates(2, pol, {"a_max": 1}),
                     "bounds must be an EnumerationBounds, got dict",
                     id="enumerate_candidates-bounds"),
        pytest.param(lambda lb, pol: certify(2, pol, (1, 0, (0,), 0)),
                     "candidate must be a DestabilizerCandidate, got tuple",
                     id="certify-candidate"),
        pytest.param(lambda lb, pol: candidate_slope(None, pol),
                     "candidate must be a DestabilizerCandidate, got NoneType None",
                     id="candidate_slope-candidate"),
        pytest.param(lambda lb, pol: target_slope(2, None),
                     "polarization must be a Polarization, got NoneType None",
                     id="target_slope-polarization"),
    ],
)
def test_scan_entry_points_refuse_arguments_of_the_wrong_type(k3, k3_pol, call, message):
    """An argument that is not of its annotated class is refused with
    ValueError when the call starts, not met later as an AttributeError."""
    with pytest.raises(ValueError, match=message):
        call(LineBundleX(k3.model, -2), k3_pol)


def test_violation_flag_comes_from_the_judged_verdicts(monkeypatch, k3, k3_pol):
    """Negative control: below a negative target, an admissible candidate of
    slope 0 is a Violation, so the scan's flag is set and the transform is
    not stable; the flag is what its reports give, and the public ScanResult
    constructor, which re-derives it, accepts it."""
    from weierfm import stability

    real = stability._functionals
    # A rank-1 target of -3 makes the rank-3 target -1.
    monkeypatch.setattr(stability, "_functionals",
                        lambda pol: real(pol)._replace(unit_target=Fraction(-3)))
    report = transform_stability(LineBundleX(k3.model, -3), k3_pol, small_bounds())
    scan = report.scan
    assert scan.any_violation is True and report.stable is False
    assert scan.any_violation == any(r.verdict is Verdict.VIOLATION for r in scan.reports)
    assert ScanResult(scan.reports, scan.any_violation) == scan


@pytest.mark.parametrize(
    "change,message",
    [({"stable": False}, "'stable' is False, but its scan gives True"),
     ({"search_rank": 7}, "'search_rank' is 7, but its line bundle gives 3"),
     ({"search_rank": -3}, "'search_rank' is -3, but its line bundle gives 3")],
    ids=["stable", "search-rank-7", "search-rank-negative"],
)
def test_transform_stability_report_refuses_contradictory_fields(k3, k3_pol, change, message):
    """A report's ``stable`` is what its scan gives and its ``search_rank``
    is |m|; the public constructor refuses a report that says otherwise, as
    ScanResult refuses a wrong ``any_violation``, and accepts the true one."""
    for m in (-3, 3):
        report = transform_stability(LineBundleX(k3.model, m), k3_pol, small_bounds())
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(report, **change)
        assert dataclasses.replace(report) == report


def test_polarization_caches_stay_bounded(k3):
    from weierfm.stability import POLARIZATION_CACHE_SIZE, _functionals

    for i in range(POLARIZATION_CACHE_SIZE + 8):
        pol = Polarization(k3.model, Fraction(1), Fraction(i + 1, 7), k3.ample)
        certify(2, pol, cand())
    assert _functionals.cache_info().currsize <= POLARIZATION_CACHE_SIZE


def _part_factors(model, h):
    """The factors of each (t, s)-free part of ω², by spoil id."""
    from weierfm.ring import pullback

    theta, ph = model.theta(), pullback(model.divisor_surface(h))
    return {"theta-squared": (theta, theta), "theta-h": (theta, ph), "h-squared": (ph, ph)}


def _assert_caught(capsys, pol, message, argv):
    """The functionals of ``pol`` are refused with InternalCheckError whose
    message is ``message``, once per polarization, before any cell, so
    ``certify`` is refused too, and ``weierfm certify`` on ``argv`` exits 3."""
    from weierfm import cli
    from weierfm.stability import _functionals

    for call in (lambda: _functionals(pol), lambda: certify(2, pol, cand(a=1, delta=(1,), e=1))):
        with pytest.raises(InternalCheckError) as exc:
            call()
        assert str(exc.value) == message
    code = cli.main(["certify", "--preset", "k3_quartic", "-t", "1", "-s", "1",
                     "-n", "2", "-r", "1", *argv])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"internal error: {message}\n"


_DISAGREE = "ring integration and closed-form slope numerators disagree: "


@pytest.mark.parametrize(
    "spoil,message",
    [
        pytest.param("all products", _DISAGREE + "1 vs 0", id="ring-vs-closed-form"),
        pytest.param("theta-squared", _DISAGREE + "1 vs 0", id="theta-squared"),
        pytest.param("theta-h", _DISAGREE + "1 vs 0", id="theta-h"),
        pytest.param("h-squared", _DISAGREE + "5 vs 4", id="h-squared"),
        pytest.param("target slope", "target slope must be positive", id="target-sign"),
    ],
)
def test_internal_checks_catch_a_perturbed_ring(monkeypatch, capsys, k3, spoil, message):
    """Every ring product off by Θ·p*[pt] (which integrates to 1), one
    part product of ω² (Θ², Θ·p*h or p*(h²)) off by the fiber class p*[pt]
    (whose integral against Θ is 1), or a target slope of the wrong sign,
    is caught by the check that ``message`` names; a ring spoil is quoted
    at the first coefficient that differs, here on Θ, ring value first,
    and ``weierfm certify`` exits 3."""
    from weierfm import stability
    from weierfm.ring import ThreefoldClass
    from weierfm.stability import _functionals

    pol = Polarization(k3.model, Fraction(1), Fraction(1), k3.ample)
    _functionals.cache_clear()
    point = ThreefoldClass(k3.model.point_surface(), k3.model.surface())
    factors = _part_factors(k3.model, k3.ample).get(spoil)
    real_mul, real_slope = stability.x_mul, stability._slope

    def spoiled_mul(x, y):
        product = real_mul(x, y)
        if factors is None:
            return product + point
        return product + k3.model.fiber() if (x, y) in (factors, factors[::-1]) else product

    if spoil == "target slope":
        monkeypatch.setattr(stability, "_slope", lambda fns, char: -real_slope(fns, char))
    else:
        monkeypatch.setattr(stability, "x_mul", spoiled_mul)
    _assert_caught(capsys, pol, message, ["--a", "1", "--e", "1"])


@pytest.mark.parametrize(
    "spoil",
    [pytest.param("all products", id="ring-vs-closed-form"), "theta-h", "h-squared"],
)
def test_internal_checks_catch_a_linearly_perturbed_ring(monkeypatch, capsys, k3, spoil):
    """A ring product whose degree is doubled, or a part product of ω²
    (Θ·p*h or p*(h²)) that is doubled, is linear in its factors, so the
    basis functionals carry it into every candidate; the closed form of
    the part's coefficients catches it once per polarization (k3: the
    coefficient 8 where e_1·H = H² = 4), and ``weierfm certify`` exits 3.
    Θ² is the zero class on a K-trivial base, so doubling it changes
    nothing; the test above perturbs it."""
    from weierfm import stability
    from weierfm.ring import ThreefoldClass
    from weierfm.stability import _functionals

    pol = Polarization(k3.model, Fraction(1), Fraction(1), k3.ample)
    _functionals.cache_clear()
    point = ThreefoldClass(k3.model.point_surface(), k3.model.surface())
    factors = _part_factors(k3.model, k3.ample).get(spoil)
    real_mul = stability.x_mul

    def spoiled_mul(x, y):
        product = real_mul(x, y)
        if factors is None:
            return product + point.scale(product.alpha.s)
        return product.scale(2) if (x, y) in (factors, factors[::-1]) else product

    monkeypatch.setattr(stability, "x_mul", spoiled_mul)
    _assert_caught(capsys, pol, _DISAGREE + "8 vs 4", ["--a", "1", "--delta", "1", "--e", "1"])


def test_scan_ring_products_do_not_depend_on_the_grid(monkeypatch, k3):
    """The ring runs once per polarization; each candidate is a dot product."""
    from weierfm import stability
    from weierfm.stability import POLARIZATION_CACHE_SIZE, _functionals

    assert _functionals.cache_info().maxsize == POLARIZATION_CACHE_SIZE
    pol = Polarization(k3.model, Fraction(1), Fraction(1), k3.ample)
    real_mul = stability.x_mul
    calls = []
    monkeypatch.setattr(stability, "x_mul", lambda x, y: calls.append(1) or real_mul(x, y))
    seen = []
    for delta_max in (1, 3):
        _functionals.cache_clear()
        calls.clear()
        scan = enumerate_candidates(3, pol, EnumerationBounds(Fraction(1), Fraction(delta_max)))
        seen.append((len(calls), scan.candidate_count))
    (small_calls, small_count), (large_calls, large_count) = seen
    assert small_calls == large_calls > 0
    assert small_count < large_count


@st.composite
def grams(draw, diagonal=st.integers(-4, 4), max_rank=3):
    """A symmetric integer matrix of rank 1 to ``max_rank``, its diagonal
    drawn from ``diagonal`` and every other entry from -4..4."""
    rho = draw(st.integers(1, max_rank))
    gram = [[0] * rho for _ in range(rho)]
    for i in range(rho):
        for j in range(i, rho):
            gram[i][j] = gram[j][i] = draw(diagonal if i == j else st.integers(-4, 4))
    return tuple(map(tuple, gram))


def k_trivial_model(gram):
    zero = (0,) * len(gram)
    return SurfaceModel(len(gram), gram, zero, True, zero)


@st.composite
def polarization_args(draw, model):
    """(model, t, s, h) with t, s in [1/4, 4] and h in -3..3; h·h may be <= 0."""
    h = tuple(Fraction(x) for x in draw(st.lists(st.integers(-3, 3), min_size=model.picard_rank,
                                                 max_size=model.picard_rank)))
    positive = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)
    return model, draw(positive), draw(positive), h


@st.composite
def k_trivial_polarizations(draw):
    """A K-trivial model of rank 1-3 whose lattice a surface can have (an
    even diagonal and signature (1, ρ - 1)), and a polarization on it."""
    gram = draw(grams(diagonal=st.integers(-2, 2).map(lambda k: 2 * k)))
    assume(_lattice_fault(gram) is None)
    model, t, s, h = draw(polarization_args(k_trivial_model(gram)))
    assume(model.pair(h, h) > 0)
    return Polarization(model, t, s, h)


def _det(m):
    """Determinant by expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _descartes_inertia(gram):
    """(positive, negative) eigenvalue counts of a symmetric matrix, by
    Descartes' rule of signs, which is exact on a polynomial with only real
    roots: the characteristic polynomial λ^ρ + Σ c_k λ^(ρ-k), with c_k
    (-1)^k times the sum of the principal k x k minors."""
    rho = len(gram)
    coeffs = [(-1) ** k * sum(_det([[gram[i][j] for j in idx] for i in idx])
                              for idx in itertools.combinations(range(rho), k))
              for k in range(rho + 1)]

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    mirrored = [c * (-1) ** (rho - k) for k, c in enumerate(coeffs)]
    return sign_changes(coeffs), sign_changes(mirrored)


@pytest.mark.parametrize(
    "gram,inertia",
    [
        (((4,),), (1, 0)),
        (((0,),), (0, 0)),
        (((0, 1), (1, 0)), (1, 1)),
        (((0, 0), (0, 0)), (0, 0)),
        (((0, 1, 0), (1, 0, 0), (0, 0, 0)), (1, 1)),
        (((0, 1, 1), (1, 0, 1), (1, 1, 0)), (1, 2)),
        (((2, 0), (0, 2)), (2, 0)),
    ],
)
def test_inertia_fixed_values(gram, inertia):
    """Zero diagonals, as in U, are pivoted past."""
    assert _inertia(gram) == inertia == _descartes_inertia(gram)


@settings(max_examples=200, deadline=None)
@given(grams(diagonal=st.integers(-2, 2), max_rank=4))
def test_inertia_matches_descartes_rule_of_signs(gram):
    assert _inertia(gram) == _descartes_inertia(gram)


def test_lattice_rules_name_what_fails():
    assert _lattice_fault(((4,),)) is None
    assert _lattice_fault(((2,),)) is None
    assert _lattice_fault(((0, 1), (1, 0))) is None
    assert "even base lattice" in _lattice_fault(((1,),))
    assert "odd diagonal entry" in _lattice_fault(((2, 1), (1, -1)))
    fault = _lattice_fault(((2, 0), (0, 2)))
    assert "signature (1, 1) by the Hodge index theorem" in fault
    assert "2 positive, 0 negative and 0 zero directions" in fault


_RANK_30 = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from fractions import Fraction
from weierfm import DestabilizerCandidate, Polarization, SurfaceModel, Verdict, certify
from weierfm.stability import _inertia, _lattice_fault
rho = 30
d = [2] + [-2] * (rho - 1)
diagonal = tuple(tuple(d[i] * (i == j) for j in range(rho)) for i in range(rho))
dense = tuple(tuple(sum(d[:min(i, j) + 1]) for j in range(rho)) for i in range(rho))
zero = (Fraction(0),) * rho
h = (Fraction(1),) + zero[1:]
for gram in (diagonal, dense):
    assert _inertia(gram) == (1, rho - 1) and _lattice_fault(gram) is None
    pol = Polarization(SurfaceModel(rho, gram, zero, True, zero), Fraction(1), Fraction(1), h)
    report = certify(2, pol, DestabilizerCandidate(1, Fraction(0), zero, 0))
    assert report.verdict is Verdict.CERTIFIED, report
"""


def test_lattice_check_stays_polynomial_at_rank_30():
    """The elimination's entries stay polynomial in size on <2> + <-2>^29
    and on the dense even lattice P^T·diag(2, -2, …, -2)·P of the same
    signature (P upper triangular of ones), checked alone and through
    ``certify``.  It runs in a child process whose time and address space
    are capped, so that a blow-up fails the test instead of hanging it."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RANK_30], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, encoding="utf-8", timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=80, deadline=None)
@given(grams().map(k_trivial_model).flatmap(polarization_args))
def test_lattices_no_surface_has_are_refused(args):
    """Every draw of the strategy that ``k_trivial_polarizations`` was
    before it was narrowed to realizable lattices (any diagonal, any
    signature) is refused or certified, none skipped: an h with h·h <= 0
    by Polarization; a lattice that breaks a rule by every stability entry
    point, which names the rule."""
    model, t, s, h = args
    if model.pair(h, h) <= 0:
        with pytest.raises(ValueError, match="h·h must be positive"):
            Polarization(*args)
        return
    pol = Polarization(*args)
    fault = _lattice_fault(model.gram)
    c = cand(delta=(0,) * model.picard_rank)
    calls = (
        lambda: target_slope(2, pol),
        lambda: certify(2, pol, c),
        lambda: candidate_slope(c, pol),
        lambda: enumerate_candidates(2, pol, small_bounds()),
        lambda: transform_stability(LineBundleX(model, -2), pol, small_bounds()),
    )
    for call in calls:
        if fault is None:
            call()
        else:
            with pytest.raises(HypothesisViolationError) as exc:
                call()
            assert str(exc.value).endswith(f"needs {fault}")


_HALVES = st.integers(-12, 12).map(lambda k: Fraction(k, 2))


@st.composite
def k_trivial_setups(draw, values=_HALVES):
    """A K-trivial polarization of rank 1-3 and a candidate whose a and
    delta entries are drawn from ``values``."""
    pol = draw(k_trivial_polarizations())
    rho = pol.model.picard_rank
    c = DestabilizerCandidate(
        draw(st.integers(1, 4)), draw(values),
        tuple(draw(st.lists(values, min_size=rho, max_size=rho))), draw(st.integers(0, 1)),
    )
    return pol, c


@settings(max_examples=60, deadline=None)
@given(k_trivial_setups())
def test_functionals_match_direct_ring_products(setup):
    """The slope numerator and all three trace values equal the ring's own
    integrals of ch1(F) against ω², its fiber part and its mixed part."""
    _assert_matches_ring_products(*setup)


@settings(max_examples=60, deadline=None)
@given(k_trivial_setups(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))))
def test_functionals_match_direct_ring_products_at_any_denominator(setup):
    """As above, with a and the delta entries over any denominator 1-7, not
    only the grid's halves and integers: the one common denominator of a
    candidate's integer terms takes in those of its axis values."""
    _assert_matches_ring_products(*setup)


def _assert_matches_ring_products(pol, c):
    from weierfm import DivisorClassX
    from weierfm.ring import pullback, x_integrate, x_mul

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


def _rho2():
    from pathlib import Path

    from weierfm.serialize import surface_model_from_json

    path = Path(__file__).parent / "data" / "hyperbolic_rho2.json"
    model = surface_model_from_json(json.loads(path.read_text()))
    return model, (Fraction(1), Fraction(2))


_K3 = get_preset("k3_quartic")
_ENRIQUES = get_preset("enriques")
_RHO2_MODEL, _RHO2_H = _rho2()


@settings(max_examples=20, deadline=None)
@example(Polarization(_K3.model, Fraction(3), Fraction(2, 3), _K3.ample))
@example(Polarization(_ENRIQUES.model, Fraction(1, 2), Fraction(5, 4), _ENRIQUES.ample))
@example(Polarization(_RHO2_MODEL, Fraction(7, 3), Fraction(3, 2), _RHO2_H))
@given(k_trivial_polarizations())
def test_target_slope_is_the_transform_slope_at_every_rank(pol):
    """The rank-n target, the rank-1 target over n, equals the slope of the
    transform of O_X(-nΘ) read off the ω² functional, derived for each n."""
    from weierfm.stability import _functionals, _slope

    omega_squared = _functionals(pol).omega_squared
    for n in range(1, 61):
        char = transform_char(LineBundleX(pol.model, -n)).char
        assert target_slope(n, pol) == _slope(omega_squared, char) > 0


# The one-point axes that certify runs, on k3 and on the ρ = 2 lattice.  On
# k3 at t = 1/4, s = 1/2, 2ts = 1/4 and D = 2, so 2ts's denominator does
# not divide D and the effectivity step -2ts·p over D² is an exact division.
@settings(max_examples=40, deadline=None)
@example(Polarization(_K3.model, Fraction(1), Fraction(1), _K3.ample), 3, Fraction(0), Fraction(0))
@example(Polarization(_RHO2_MODEL, HALF, Fraction(2), _RHO2_H), 3, Fraction(0), Fraction(0))
@example(Polarization(_K3.model, Fraction(1, 4), HALF, _K3.ample), 3, Fraction(3, 2),
         Fraction(5, 2))
@given(
    k_trivial_polarizations(),
    st.integers(1, 5),
    st.sampled_from([Fraction(0), HALF, Fraction(3, 2)]),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(5, 2)]),
)
def test_scan_reports_equal_certify(pol, n, a_max, delta_max):
    """Every scan report equals ``certify`` of its candidate field by field,
    in ``candidate_grid`` order, its effectivity step is -2ts·(delta·H) from
    the Gram matrix, and the reports of ranks r and r + 1 at one
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
        pairing = pol.model.pair(report.candidate.delta, pol.h)
        assert report.trace[1].value == -2 * pol.t * pol.s * pairing
    per_rank = len(reports) // max(n - 1, 1)
    for low, high in zip(reports, reports[per_rank:]):
        assert high.candidate == dataclasses.replace(low.candidate, r=low.candidate.r + 1)
        assert high.trace is low.trace and high.proxy is low.proxy


_NUMERATORS = r"ring integration and closed-form slope numerators disagree: \S+ vs \S+"


@pytest.fixture
def spoil_functionals(monkeypatch):
    """Make ``_functionals`` return one field (``index`` into a tuple field,
    None for a number) off by ``by``, past its once-per-polarization checks."""
    from weierfm import stability

    real = stability._functionals

    def spoil(field, index, by=1):
        def spoiled_functionals(pol):
            fns = real(pol)
            value = getattr(fns, field)
            if index is None:
                value += by
            else:
                value = value[:index] + (value[index] + by,) + value[index + 1:]
            return fns._replace(**{field: value})

        monkeypatch.setattr(stability, "_functionals", spoiled_functionals)

    return spoil


_SPOILS = [
    ("omega_squared", 0, _NUMERATORS, "omega-squared-theta"),
    ("omega_squared", 1, _NUMERATORS, "omega-squared"),
    ("gram_h", 0, _NUMERATORS, "gram-h"),
    ("two_ts", None, _NUMERATORS, "two-ts"),
    ("ss_hh", None, _NUMERATORS, "ss-hh"),
]
_K3_ONE = ["--preset", "k3_quartic", "-t", "1", "-s", "1"]
# Each entry point a spoiled functional reaches: (id, a library call on the
# polarization or None, a CLI argv that must exit 3 or None).  The default
# scan keeps the bare spoil ids.  The others read one fiber-degree-0 point
# at delta = 0, or a one-point delta axis.
_SPOILED_CALLS = [
    ("", lambda pol: enumerate_candidates(3, pol), ["scan", *_K3_ONE, "-m", "-3"]),
    ("certify", lambda pol: certify(2, pol, cand(a=1, e=1)), None),
    ("candidate-slope", lambda pol: candidate_slope(cand(a=1, e=1), pol), None),
    ("delta-zero-scan",
     lambda pol: enumerate_candidates(3, pol, EnumerationBounds(Fraction(6), Fraction(0))),
     None),
    ("cli-certify", None, ["certify", *_K3_ONE, "-n", "2", "-r", "1", "--a", "1", "--e", "1"]),
]


@pytest.mark.parametrize(
    "field,index,pattern,call,argv",
    [
        pytest.param(field, index, pattern, call, argv,
                     id=f"{call_id}-{spoil_id}" if call_id else spoil_id)
        for call_id, call, argv in _SPOILED_CALLS
        for field, index, pattern, spoil_id in _SPOILS
    ],
)
def test_scan_checks_catch_spoiled_functionals(capsys, k3, spoil_functionals, field, index,
                                               pattern, call, argv):
    """Every functional the scan reads, off by one (on its Θ entry where the
    spoil id ends in "theta", else on its first p*e_i entry; 2ts and s²H²
    are numbers) and returned past the once-per-polarization checks, is
    caught by the numerator check at every entry point that reads it, and
    the CLI exits 3."""
    from weierfm import cli

    spoil_functionals(field, index)
    pol = Polarization(k3.model, Fraction(1), Fraction(1), k3.ample)
    if call is not None:
        with pytest.raises(InternalCheckError) as exc:
            call(pol)
        assert re.fullmatch(pattern, str(exc.value))
    if argv is not None:
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert re.fullmatch(f"internal error: {pattern}\n", err)


@pytest.fixture
def spoil_coefficients(monkeypatch):
    """Make ``_coefficients`` return part ``part`` (0, 1, 2: A, B, C) off by
    one at basis index ``index``, past its own check, with the functionals'
    cache cleared before and after, so no spoiled functionals outlive the
    test."""
    from weierfm import stability

    real = stability._coefficients

    def spoil(part, index):
        def spoiled_coefficients(model, h):
            parts = list(real(model, h))
            parts[part] = parts[part][:index] + (parts[part][index] + 1,) + parts[part][index + 1:]
            return tuple(parts)

        monkeypatch.setattr(stability, "_coefficients", spoiled_coefficients)
        stability._functionals.cache_clear()

    yield spoil
    stability._functionals.cache_clear()


# (part, basis index, id): each of A, B and C off by one on Θ and on p*e_1.
_PART_SPOILS = [
    (part, index, f"{name}-{where}")
    for part, name in enumerate(("a", "b", "c"))
    for index, where in ((0, "theta"), (1, "e1"))
]


@pytest.mark.parametrize(
    "part,index,call,argv",
    [
        pytest.param(part, index, call, argv,
                     id=f"{call_id}-{spoil_id}" if call_id else spoil_id)
        for call_id, call, argv in _SPOILED_CALLS
        for part, index, spoil_id in _PART_SPOILS
    ],
)
def test_scan_checks_catch_spoiled_coefficients(capsys, k3, spoil_coefficients, part, index,
                                                call, argv):
    """Each (t, s)-free part of ω² (A, B or C) off by one, on Θ or on p*e_1,
    and returned past its closed-form check, makes the ω² functional differ
    from its closed form, which comes from the Gram matrix alone: the scan's
    numerator check catches it at every entry point, and the CLI exits 3."""
    from weierfm import cli

    spoil_coefficients(part, index)
    pol = Polarization(k3.model, Fraction(1), Fraction(1), k3.ample)
    if call is not None:
        with pytest.raises(InternalCheckError) as exc:
            call(pol)
        assert re.fullmatch(_NUMERATORS, str(exc.value))
    if argv is not None:
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert re.fullmatch(f"internal error: {_NUMERATORS}\n", err)


@pytest.mark.parametrize(
    "field,index,by,values",
    [
        pytest.param("omega_squared", 1, 1, "9 vs 8", id="omega-squared"),
        pytest.param("omega_squared", 0, Fraction(1, 3), "13/3 vs 4",
                     id="omega-squared-theta-third"),
        pytest.param("gram_h", 0, 1, "8 vs 10", id="gram-h"),
        pytest.param("two_ts", None, 1, "8 vs 12", id="two-ts"),
        pytest.param("ss_hh", None, 1, "4 vs 5", id="ss-hh"),
    ],
)
def test_a_spoiled_numerator_quotes_the_first_mismatch(k3, spoil_functionals, field, index, by,
                                                       values):
    """The numerator check names the ring's and the closed form's
    coefficients on the first basis class, in the order Θ, p*e_i, where
    they differ: k3, t = s = 1, n = 3."""
    spoil_functionals(field, index, by)
    pol = Polarization(k3.model, Fraction(1), Fraction(1), k3.ample)
    with pytest.raises(InternalCheckError, match=f"disagree: {values}$"):
        enumerate_candidates(3, pol)


# -- byte-stable scan output ------------------------------------------------------------

_TS = (HALF, Fraction(1), Fraction(2))
_FIVE_HALVES = EnumerationBounds(Fraction(5, 2), Fraction(5, 2))
_SIGNED_M = (-4, -3, -2, -1, 1, 2, 3, 4)


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


# -- the transform slope ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("k3_quartic", "enriques", "rho2")),
    st.sampled_from(_TS),
    st.sampled_from(_TS),
    st.integers(-4, 4).filter(bool),
    st.data(),
)
def test_transform_slope_is_the_ring_slope(name, t, s, m, data):
    """``transform_stability`` reads the transform slope off the cached ω²
    functionals; it equals ``slope``'s two ring products for every twist,
    both signs of m and every (t, s) in {1/2, 1, 2}²."""
    from weierfm import get_preset

    if name == "rho2":
        model, h = _rho2()
    else:
        preset = get_preset(name)
        model, h = preset.model, preset.ample
    twist = data.draw(st.lists(st.integers(-3, 3).map(Fraction), min_size=model.picard_rank,
                               max_size=model.picard_rank).map(tuple))
    lb, pol = LineBundleX(model, m, twist), Polarization(model, t, s, h)
    report = transform_stability(lb, pol, EnumerationBounds(Fraction(0), Fraction(0)))
    assert report.transform_slope == slope(transform_char(lb).char, pol)
