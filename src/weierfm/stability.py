"""Slope-stability certification for transforms of line bundles O_X(mΘ).

Over a base with numerically trivial canonical class, the transform of
O_X(-nΘ) (n >= 1) is, up to shift, a rank-n sheaf of slope

    target = s²·H_S²/n  >  0.

A destabilizing subsheaf F of rank 0 < r < n would sit in an extension

    0 -> F' -> F -> F'' -> 0,   ch1(F'') = -(aΘ + p*delta),  ch1(F') = eΘ

with a·Θ + p*delta effective and e in {0, 1}.  This module walks that
argument with exact numbers: the admissibility screen (effectivity proxy,
integral non-positive fiber degree, rank window), the slope of every
candidate both through the intersection ring and through the closed form

    candidate = [ -2ts·(delta·H_S) - a·s²·H_S² + e·s²·H_S² ] / r,

and a three-step trace whose entries sum exactly to r times the slope.
Admissible candidates always land at slope <= 0 < target; a Violation
verdict would be a genuine counterexample and the grid search exposes a
top-level flag for it.

Every integral a candidate needs is linear in ch1(F) = (e - a)Θ - p*delta.
So, once per polarization, the ring multiplies the basis {Θ, p*e_1, …,
p*e_ρ} by ω², by its fiber part and by its mixed part, and the integrals
are cached as three linear functionals.  They are checked there: the ω²
functional must equal its closed-form coefficients (s²H² on Θ,
2ts·(e_i·H) on p*e_i), and fiber + mixed must equal ω².  No ring product
runs per candidate.  The scan computes the O(ρ) dot products (δ·H and δ
against each functional) once per δ and the Θ terms once per (a, e), as
Fractions, and brings them all over one common denominator D.  Each
(a, δ, e) cell then runs on integers: a few subtractions, the check of its
ring slope numerator against the closed form, the signs of the trace steps
and the check that they sum to that numerator (r times the slope of every
rank).  Each distinct integer becomes a Fraction over D, and each distinct
trace a tuple of TraceSteps, once per scan.  A candidate looks up its
slope and verdict per distinct numerator; its DestabilizerCandidate and
StabilityReport are built from these checked values without re-running
the constructors' checks.

Positive m reduces to negative m through the dual line bundle: the
duality bookkeeping of :mod:`weierfm.duality` identifies the dual of the
m < 0 transform with the m > 0 transform up to an involution pullback and
a twist, none of which move slope stability.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import (
    HypothesisViolationError,
    InternalCheckError,
    ModelMismatchError,
)
from .fm import (
    LineBundleX,
    Polarization,
    TransformResult,
    WitType,
    slope,
    transform_char,
)
from .rationals import as_rational, as_rational_vector, is_int, prevalidated
from .ring import ThreefoldClass, pullback, x_integrate, x_mul

if TYPE_CHECKING:
    from .duality import Conclusion


class Verdict(Enum):
    CERTIFIED = "Certified"
    VIOLATION = "Violation"
    INADMISSIBLE = "Inadmissible"


@dataclass(frozen=True)
class DestabilizerCandidate:
    """One (r, a, delta, e) tuple from the destabilizer normal form."""

    r: int
    a: Fraction
    delta: tuple[Fraction, ...]
    e: int

    def __post_init__(self) -> None:
        if not is_int(self.r) or self.r < 1:
            raise ValueError("candidate rank r must be a positive integer")
        if not is_int(self.e) or self.e not in (0, 1):
            raise ValueError("e must be 0 or 1")
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "delta", as_rational_vector(self.delta))


@dataclass(frozen=True)
class EffectivityProxy:
    """Numerical stand-in for effectivity of aΘ + p*delta."""

    a_nonneg: bool
    pairing: Fraction  # delta·H_S

    def __post_init__(self) -> None:
        if not isinstance(self.a_nonneg, bool):
            raise ValueError(f"a_nonneg must be a bool, got {self.a_nonneg!r}")

    @property
    def admissible(self) -> bool:
        return self.a_nonneg and self.pairing >= 0


@dataclass(frozen=True)
class TraceStep:
    name: str
    value: Fraction
    requirement: str
    satisfied: bool

    def __post_init__(self) -> None:
        if not isinstance(self.satisfied, bool):
            raise ValueError(f"satisfied must be a bool, got {self.satisfied!r}")


@dataclass(frozen=True)
class StabilityReport:
    candidate: DestabilizerCandidate
    verdict: Verdict
    target_slope: Fraction
    candidate_slope: Fraction
    proxy: EffectivityProxy
    fiber_deg: Fraction
    trace: tuple[TraceStep, ...]
    inadmissible_reasons: tuple[str, ...] = ()


# Grid steps: a moves in halves, so the integrality screen is exercised,
# not assumed; each delta coordinate moves in whole steps.
A_STEP = Fraction(1, 2)
DELTA_STEP = Fraction(1)

# Largest grid a scan or candidate_grid builds.  A held scan report takes
# ~0.85 KiB, so this keeps the reports of one scan under ~420 MiB.
MAX_SCAN_CANDIDATES = 500_000


@dataclass(frozen=True)
class EnumerationBounds:
    """Grid bounds: a runs over 0..a_max in steps of ``A_STEP``, each delta
    coordinate over the multiples of ``DELTA_STEP`` (the integers) in
    [-delta_max, delta_max], so a fractional delta_max such as 5/2 gives
    -2..2 and the axis always holds 0.

    A rank-n scan over Picard rank ρ has (n - 1)·|a axis|·|δ axis|^ρ·2
    candidates; above ``MAX_SCAN_CANDIDATES`` it is refused with ValueError
    before anything is built (CLI ``scan`` exit 1)."""

    a_max: Fraction = Fraction(6)
    delta_max: Fraction = Fraction(6)

    def __post_init__(self) -> None:
        for name in ("a_max", "delta_max"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.a_max < 0 or self.delta_max < 0:
            raise ValueError("bounds must be nonnegative")


@dataclass(frozen=True)
class ScanResult:
    reports: tuple[StabilityReport, ...]
    any_violation: bool

    @property
    def candidate_count(self) -> int:
        return len(self.reports)

    def verdict_counts(self) -> dict[str, int]:
        counts = {v.value: 0 for v in Verdict}
        for report in self.reports:
            counts[report.verdict.value] += 1
        return counts


# -- cached polarization geometry ------------------------------------------

# Entries kept per cache keyed by a polarization, so that a long-lived
# process scanning many polarizations holds a bounded amount of geometry.
POLARIZATION_CACHE_SIZE = 128


class _Geometry(NamedTuple):
    omega_squared: ThreefoldClass
    mixed: ThreefoldClass  # t²Θ² + 2ts·Θ·p*h
    fiber: ThreefoldClass  # s²·p*(h·h), the complement of mixed inside ω²
    hh: Fraction  # H_S² = h·h


@lru_cache(maxsize=POLARIZATION_CACHE_SIZE)
def _geometry(pol: Polarization) -> _Geometry:
    """ω², its mixed and fiber parts, and H_S², once per polarization."""
    model = pol.model
    w = pol.omega().as_threefold()
    theta = model.theta()
    ph = pullback(model.divisor_surface(pol.h))
    mixed = x_mul(theta, theta).scale(pol.t * pol.t) + x_mul(theta, ph).scale(
        2 * pol.t * pol.s
    )
    hh = model.pair(pol.h, pol.h)
    fiber = pullback(model.surface(s=hh)).scale(pol.s * pol.s)
    omega_squared = x_mul(w, w)
    if mixed + fiber != omega_squared:
        raise InternalCheckError("ω² does not split into its mixed and fiber parts")
    return _Geometry(omega_squared, mixed, fiber, hh)


def _require_num_trivial(pol: Polarization, what: str) -> None:
    if not pol.model.k_trivial:
        raise HypothesisViolationError(
            f"{what} needs a numerically trivial canonical class on the base"
        )


class _Functionals(NamedTuple):
    """∫ b·G for each basis class b in {Θ, p*e_1, …, p*e_ρ} (in that order)
    and G in {ω², fiber part, mixed part}, with the closed-form constants.

    Every integral a candidate needs is linear in its ch1 = cΘ + p*d, so it
    is c·G[0] + Σ d_i·G[1 + i].
    """

    omega_squared: tuple[Fraction, ...]
    fiber: tuple[Fraction, ...]
    mixed: tuple[Fraction, ...]
    gram_h: tuple[Fraction, ...]  # gram·h, so that delta·H = Σ delta_i (gram·h)_i
    two_ts: Fraction  # 2ts
    ss_hh: Fraction  # s²·H_S²


def _dot(u: tuple[Fraction, ...], v: tuple[Fraction, ...]) -> Fraction:
    """u·v for vectors of one length >= 1 (a Picard rank)."""
    return sum(map(operator.mul, u[1:], v[1:]), u[0] * v[0])


@lru_cache(maxsize=POLARIZATION_CACHE_SIZE)
def _functionals(pol: Polarization) -> _Functionals:
    """Push the basis {Θ, p*e_i} through the ring against the cached ω² and
    its two parts, once per polarization, and check the results: the ω²
    functionals against their closed-form coefficients (s²H² on Θ,
    2ts·(e_i·H) on p*e_i), and fiber + mixed against ω²."""
    model = pol.model
    geometry = _geometry(pol)
    units = [
        tuple(Fraction(int(i == j)) for j in range(model.picard_rank))
        for i in range(model.picard_rank)
    ]
    basis = [model.theta()] + [pullback(model.divisor_surface(u)) for u in units]

    def integrals(g: ThreefoldClass) -> tuple[Fraction, ...]:
        return tuple(x_integrate(x_mul(b, g)) for b in basis)

    omega_squared = integrals(geometry.omega_squared)
    fiber = integrals(geometry.fiber)
    mixed = integrals(geometry.mixed)
    gram_h = tuple(model.pair(u, pol.h) for u in units)
    two_ts = 2 * pol.t * pol.s
    ss_hh = pol.s * pol.s * geometry.hh
    closed = (ss_hh,) + tuple(two_ts * g for g in gram_h)
    if omega_squared != closed:
        raise InternalCheckError(
            "ring integration and closed-form slope numerators disagree: "
            f"[{', '.join(map(str, omega_squared))}] vs "
            f"[{', '.join(map(str, closed))}] on the basis Θ, p*e_i"
        )
    if any(f + m != w for f, m, w in zip(fiber, mixed, omega_squared)):
        raise InternalCheckError(
            "trace decomposition does not sum to r times the candidate slope: "
            "fiber and mixed functionals do not add up to ω²"
        )
    return _Functionals(omega_squared, fiber, mixed, gram_h, two_ts, ss_hh)


# -- slopes -----------------------------------------------------------------


@lru_cache(maxsize=POLARIZATION_CACHE_SIZE)
def target_slope(n: int, pol: Polarization) -> Fraction:
    """Slope of the rank-n transform of O_X(-nΘ), computed via the ring."""
    if not is_int(n) or n < 1:
        raise ValueError("n must be a positive integer")
    _require_num_trivial(pol, "target slope")
    char = transform_char(LineBundleX(pol.model, -n)).char
    value = slope(char, pol)
    if value <= 0:
        raise InternalCheckError("target slope must be positive")
    return value


class _Cell(NamedTuple):
    """Everything a report at one (a, delta, e) point holds but its rank.

    ``numerator`` is an integer over ``denominator``, the common
    denominator of the scan's terms."""

    a: Fraction
    delta: tuple[Fraction, ...]
    e: int
    fiber_deg: Fraction
    numerator: int  # ∫ ch1(F)·ω² times denominator, checked against the closed form
    denominator: int
    proxy: EffectivityProxy
    trace: tuple[TraceStep, ...]
    reasons: tuple[str, ...]  # every inadmissibility reason but the rank


def _cells(fns: _Functionals, a_values, deltas, es) -> list[_Cell]:
    """One cell per (a, delta, e), e fastest, then delta, then a: the grid
    order.  The delta dot products run once per delta and the Θ terms once
    per (a, e), as Fractions.  A cell subtracts them as integers over their
    common denominator D and checks the ring's slope numerator against the
    closed form and the trace sum against it; each distinct integer becomes
    a Fraction, and each distinct trace a tuple of TraceSteps, once."""
    w, fiber, mixed = fns.omega_squared, fns.fiber, fns.mixed
    fraction_terms: list[Fraction] = []
    by_delta = []
    for delta in deltas:
        pairing = _dot(delta, fns.gram_h)
        reason = (f"effectivity proxy fails: delta·H = {pairing} < 0",) if pairing < 0 else ()
        terms = (fns.two_ts * pairing, _dot(delta, w[1:]), _dot(delta, fiber[1:]),
                 _dot(delta, mixed[1:]))
        fraction_terms += terms
        by_delta.append((delta, pairing, reason, terms))
    by_a = []
    for a in a_values:
        a_reason = (f"effectivity proxy fails: a = {a} < 0",) if a < 0 else ()
        by_e = []
        for e in es:
            fd = e - a
            if fd.denominator != 1:
                fd_reason = (f"fiber degree {fd} is not an integer",)
            else:
                fd_reason = (f"fiber degree +{fd} > 0",) if fd > 0 else ()
            terms = (fd * w[0], fd * fns.ss_hh, fd * fiber[0], -a * mixed[0], e * mixed[0])
            fraction_terms += terms
            by_e.append((e, fd, fd_reason, terms))
        by_a.append((a, a_reason, by_e))
    den = math.lcm(*(x.denominator for x in fraction_terms))
    fractions: dict[int, Fraction] = {}

    def rational(x: int) -> Fraction:
        value = fractions.get(x)
        if value is None:
            value = fractions[x] = Fraction(x, den)
        return value

    def scaled(terms: tuple[Fraction, ...]) -> tuple[int, ...]:
        return tuple(x.numerator * (den // x.denominator) for x in terms)

    by_delta = [(delta, pairing, reason, *scaled(terms))
                for delta, pairing, reason, terms in by_delta]
    traces: dict[tuple[int, int, int], tuple[TraceStep, ...]] = {}
    cells = []
    # ch1(F) splits as (-aΘ - p*delta) + eΘ, the torsion and section parts.
    for a, a_reason, by_e in by_a:
        rows = [(e, fd, fd_reason, *scaled(terms)) for e, fd, fd_reason, terms in by_e]
        for delta, pairing, pair_reason, ts_pairing, w_d, fiber_d, mixed_d in by_delta:
            proxy = EffectivityProxy(a >= 0, pairing)
            for e, fd, fd_reason, fd_w, fd_ss, fd_fiber, a_mixed, step3 in rows:
                ring_numerator, numerator = fd_w - w_d, fd_ss - ts_pairing
                if ring_numerator != numerator:
                    raise InternalCheckError(
                        "ring integration and closed-form slope numerators "
                        f"disagree: {rational(ring_numerator)} vs {rational(numerator)}"
                    )
                step1, step2 = fd_fiber - fiber_d, a_mixed - mixed_d
                # r times the slope is numerator / D at every rank r.
                if step1 + step2 + step3 != numerator:
                    raise InternalCheckError(
                        "trace decomposition does not sum to r times the candidate slope"
                    )
                trace = traces.get((step1, step2, step3))
                if trace is None:
                    trace = traces[step1, step2, step3] = (
                        TraceStep("fiber-degree step", rational(step1), "<= 0", step1 <= 0),
                        TraceStep("effectivity step", rational(step2), "<= 0", step2 <= 0),
                        TraceStep("section-part step", rational(step3), "== 0", step3 == 0),
                    )
                cells.append(_Cell(a, delta, e, fd, numerator, den, proxy, trace,
                                   a_reason + pair_reason + fd_reason))
    return cells


def _point(cand: DestabilizerCandidate, pol: Polarization, what: str) -> _Cell:
    """The cell of one candidate, on one-point axes, once the screens that
    need no geometry pass; ``what`` names the caller."""
    _require_num_trivial(pol, what)
    if len(cand.delta) != pol.model.picard_rank:
        raise ModelMismatchError(
            "candidate delta length does not match the surface model"
        )
    return _cells(_functionals(pol), (cand.a,), (cand.delta,), (cand.e,))[0]


def candidate_slope(cand: DestabilizerCandidate, pol: Polarization) -> Fraction:
    """∫ ch1(F)·ω² / r, cross-checked against the closed form."""
    cell = _point(cand, pol, "candidate slope")
    return Fraction(cell.numerator, cell.denominator * cand.r)


# -- certification -----------------------------------------------------------


def certify(n: int, pol: Polarization, cand: DestabilizerCandidate) -> StabilityReport:
    """Judge one candidate destabilizer against the rank-n transform.

    Inadmissible candidates are reported as such (with reasons), never
    errored: the grid search wants to see them excluded for the stated
    arithmetic reasons rather than silently skipped.
    """
    cell = _point(cand, pol, "stability certification")
    return _reports(n, (cand.r,), [cell], target_slope(n, pol))[0]


def _reports(
    n: int, ranks: Iterable[int], cells: list[_Cell], target: Fraction
) -> list[StabilityReport]:
    """The candidate of every rank in ``ranks`` at every cell, rank slowest,
    judged against the rank-n target.  Every field was checked when its cell
    was built, so candidates and reports skip their constructors' checks."""
    reports = []
    for r in ranks:
        rank_reason = () if r < n else (f"rank {r} is not below the transform rank {n}",)
        # A cell numerator's rank-r slope, and the verdict of an admissible
        # candidate at that slope.
        slopes: dict[int, tuple[Fraction, Verdict]] = {}
        for cell in cells:
            numerator = cell.numerator
            judged = slopes.get(numerator)
            if judged is None:
                cand_slope = Fraction(numerator, cell.denominator * r)
                judged = slopes[numerator] = (
                    cand_slope,
                    Verdict.VIOLATION if cand_slope >= target else Verdict.CERTIFIED,
                )
            cand_slope, verdict = judged
            reasons = rank_reason + cell.reasons
            reports.append(prevalidated(
                StabilityReport,
                prevalidated(DestabilizerCandidate, r, cell.a, cell.delta, cell.e),
                Verdict.INADMISSIBLE if reasons else verdict, target, cand_slope,
                cell.proxy, cell.fiber_deg, cell.trace, reasons,
            ))
    return reports


def _grid_len(limit: Fraction, step: Fraction, start: Fraction) -> int:
    return (limit - start) // step + 1


def _grid(limit: Fraction, step: Fraction, start: Fraction) -> list[Fraction]:
    return [start + i * step for i in range(_grid_len(limit, step, start))]


def _delta_start(bounds: EnumerationBounds) -> Fraction:
    """The least multiple of DELTA_STEP at or above -delta_max."""
    return -(bounds.delta_max // DELTA_STEP) * DELTA_STEP


def _check_scan_size(n: int, picard_rank: int, bounds: EnumerationBounds) -> None:
    """Refuse a grid above MAX_SCAN_CANDIDATES, counted before any axis
    is built."""
    count = (
        (n - 1)
        * _grid_len(bounds.a_max, A_STEP, Fraction(0))
        * _grid_len(bounds.delta_max, DELTA_STEP, _delta_start(bounds)) ** picard_rank
        * 2
    )
    if count > MAX_SCAN_CANDIDATES:
        raise ValueError(
            f"the scan grid has {count} candidates, above the cap "
            f"{MAX_SCAN_CANDIDATES}; lower the rank or the bounds"
        )


def _axes(picard_rank: int, bounds: EnumerationBounds) -> tuple[list, list, tuple]:
    """The a, delta and e axes of the grid, which runs over their product
    in that order."""
    coeff_values = _grid(bounds.delta_max, DELTA_STEP, _delta_start(bounds))
    return (
        _grid(bounds.a_max, A_STEP, Fraction(0)),
        list(itertools.product(coeff_values, repeat=picard_rank)),
        (0, 1),
    )


def candidate_grid(
    n: int, picard_rank: int, bounds: EnumerationBounds
) -> list[DestabilizerCandidate]:
    """The full deterministic candidate list for a rank-n search; a grid
    above MAX_SCAN_CANDIDATES is a ValueError."""
    _check_scan_size(n, picard_rank, bounds)
    points = list(itertools.product(*_axes(picard_rank, bounds)))
    return [DestabilizerCandidate(r, *point) for r in range(1, n) for point in points]


def enumerate_candidates(
    n: int,
    pol: Polarization,
    bounds: EnumerationBounds = EnumerationBounds(),
) -> ScanResult:
    """Certify every candidate on the grid; order is grid order.  The
    rank-independent part of a report is built once per (a, delta, e).
    A grid above MAX_SCAN_CANDIDATES is a ValueError."""
    _require_num_trivial(pol, "stability scan")
    if not is_int(n) or n < 1:
        raise ValueError("n must be a positive integer")
    _check_scan_size(n, pol.model.picard_rank, bounds)
    fns = _functionals(pol)
    target = target_slope(n, pol)
    cells = _cells(fns, *_axes(pol.model.picard_rank, bounds)) if n > 1 else []
    reports = tuple(_reports(n, range(1, n), cells, target))
    return ScanResult(
        reports=reports,
        any_violation=any(r.verdict is Verdict.VIOLATION for r in reports),
    )


# -- the line-bundle pipeline -------------------------------------------------


@dataclass(frozen=True)
class TransformStabilityReport:
    line_bundle: LineBundleX
    transform: TransformResult
    transform_slope: Fraction
    search_rank: int
    target_slope: Fraction
    scan: ScanResult
    stable: bool
    duality_step: Conclusion | None
    reduction: tuple[str, ...]


def transform_stability(
    lb: LineBundleX,
    pol: Polarization,
    bounds: EnumerationBounds = EnumerationBounds(),
) -> TransformStabilityReport:
    """Certify slope stability of the transform of O_X(mΘ) ⊗ p*N.

    Negative m is the direct case; positive m reduces to -m through the
    dual bundle, recording the duality identification that makes the
    reduction legitimate.  m = 0 has a torsion transform and no slope.
    """
    if lb.model != pol.model:
        raise ModelMismatchError("line bundle and polarization models differ")
    _require_num_trivial(pol, "transform stability")
    if lb.m == 0:
        raise HypothesisViolationError(
            "the m = 0 transform is torsion and has no slope"
        )
    result = transform_char(lb)
    mu = slope(result.char, pol)
    reduction: list[str] = []
    if any(x != 0 for x in lb.twist):
        reduction.append(
            "twist stripped: the transform of a p*-twisted bundle is the "
            "twisted transform, and twisting never moves slope stability"
        )
    duality_step: Conclusion | None = None
    if lb.m > 0:
        from .duality import SheafScenario, solve_scenario

        n = lb.m
        duality_step = solve_scenario(
            SheafScenario(n=3, c=0, wit=WitType.WIT1, dim_shift=0)
        ).conclusion
        reduction.append(
            f"m = {lb.m} > 0 reduces to m = {-lb.m}: the dual of that "
            "transform is this transform up to involution pullback and a "
            f"base twist ({duality_step.statement}), and slope stability "
            "is preserved under dualizing"
        )
    else:
        n = -lb.m
        reduction.append(
            f"direct certification for the rank-{n} transform of O_X({lb.m}Θ)"
        )
    scan = enumerate_candidates(n, pol, bounds)
    return TransformStabilityReport(
        line_bundle=lb,
        transform=result,
        transform_slope=mu,
        search_rank=n,
        target_slope=target_slope(n, pol),
        scan=scan,
        stable=not scan.any_violation,
        duality_step=duality_step,
        reduction=tuple(reduction),
    )
