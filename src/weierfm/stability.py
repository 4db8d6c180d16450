"""Slope-stability certification for transforms of line bundles O_X(mΘ).

Over a base with numerically trivial canonical class, the transform of
O_X(-nΘ) (n >= 1) is, up to shift, a rank-n sheaf of slope

    target = s²·H_S²/n  >  0.

Every entry point refuses a base that no such surface has: one whose
canonical class is not numerically trivial, or whose lattice breaks the
Hodge index theorem or Riemann–Roch parity (:func:`_lattice_fault`).

A destabilizing subsheaf F of rank 0 < r < n would sit in an extension

    0 -> F' -> F -> F'' -> 0,   ch1(F'') = -(aΘ + p*delta),  ch1(F') = eΘ

with a·Θ + p*delta effective and e in {0, 1}.  This module walks that
argument with exact numbers: the admissibility screen (effectivity proxy,
integral non-positive fiber degree, rank window), the slope of every
candidate both through the intersection ring and through the closed form

    candidate = [ -2ts·(delta·H_S) - a·s²·H_S² + e·s²·H_S² ] / r,

and a three-step trace of the closed form's terms, which sum to r times
the slope: the fiber-degree step (e - a)·s²·H_S² and the effectivity step
-2ts·(delta·H_S), each a nonnegative multiplier times a quantity that
admissibility makes non-positive, and the section-part step 0.
Admissible candidates always land at slope <= 0 < target; a Violation
verdict would be a genuine counterexample and the grid search exposes a
top-level flag for it.

Every integral a candidate needs is linear in ch1(F) = (e - a)Θ - p*delta.
With ω = tΘ + s·p*h, ω² = t²·Θ² + 2ts·Θ·p*h + s²·p*(h²).  So, once per
polarization, the ring multiplies the basis {Θ, p*e_1, …, p*e_ρ} by the
three parts Θ², Θ·p*h and p*(h²), which depend on neither t nor s, and
checks every coefficient against its closed form (:func:`_coefficients`):
Θ² gives 0 on every basis class, Θ·p*h gives e_i·H on p*e_i and 0 on Θ,
and p*(h²) gives H² on Θ and 0 on p*e_i.  Evaluated at (t, s), they give
the cached ω² functional.  No ring product runs per candidate.  Once per
scan, :func:`_cells` checks the ω² functional against its closed form
(s²H² on Θ, 2ts·(e_i·H) on p*e_i), computed from the Gram matrix alone,
so the ring's slope numerator equals the closed form at every cell and
no verdict reads a coefficient that has not been checked.  A cell reads
delta only through delta·H.  Each distinct step value becomes one
TraceStep, and each distinct trace one tuple of them, once per scan; each
TraceStep, and each EffectivityProxy (once per distinct (a >= 0, δ·H)),
is built through its public constructor.  The other values a scan holds
are built from these checked values through their class's trusted
constructor (:func:`weierfm.rationals.trusted`): a StabilityReport per
report, and the ScanResult.  A DestabilizerCandidate (r, a, δ, e) does
not depend on the polarization, so each is built once per grid, with its
grid, and every report of every scan over that grid holds the same
candidate object.  Each of these classes is a
:func:`weierfm.rationals.value_class`: its public constructor checks
every field against its annotation and refuses a float where a rational
goes, then runs its ``_check`` hook, and it decodes trusted.

The transform's own slope and the target slope are one quantity, the ω²
functional's dot product with the transform's ch1, over ch0, so
:func:`transform_stability` runs no ring product for it once the
functionals are cached.  The base is K-trivial, so the transform of
O_X(-nΘ) has ch1 = -Θ for every n: :func:`_functionals` derives the
rank-1 target once per polarization, and the rank-n target is that over
n, for :func:`target_slope`, :func:`certify`, :func:`enumerate_candidates`
and :func:`transform_stability` alike.

One rule checks that a rank n or ρ is a positive integer
(:func:`_require_rank`).  One rule builds the grid for
both :func:`enumerate_candidates` and :func:`candidate_grid`: it checks n,
counts the candidates against MAX_SCAN_CANDIDATES and the delta entries they
hold against ten times that, and only then looks the grid up, keyed on n,
ρ and the two axis lengths, in one ``functools.lru_cache`` of 16 grids,
building the axes and every rank's candidates on a miss.  A grid whose
candidates and delta-axis entries number more than its share of
GRID_CACHE_SIZE (a sixteenth) is built for its caller and never kept, so
the kept grids hold at most GRID_CACHE_SIZE of them in all.  A refused
grid is never looked up or kept.

Positive m reduces to negative m through the dual line bundle: the
duality bookkeeping of :mod:`weierfm.duality` identifies the dual of the
m < 0 transform with the m > 0 transform up to an involution pullback and
a twist, none of which move slope stability.
"""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    HypothesisViolationError,
    InternalCheckError,
    ModelMismatchError,
)
from .fm import LineBundleX, Polarization, TransformResult, TruncatedChar, transform_char
from .rationals import is_int, require, trusted, value_class
from .ring import SurfaceModel, pullback, x_integrate, x_mul
from .verdicts import Conclusion, WitType


class Verdict(Enum):
    CERTIFIED = "Certified"
    VIOLATION = "Violation"
    INADMISSIBLE = "Inadmissible"


@value_class
class DestabilizerCandidate:
    """One (r, a, delta, e) tuple from the destabilizer normal form."""

    r: int
    a: Fraction
    delta: tuple[Fraction, ...]
    e: int

    def _check(self) -> None:
        """The ranges of r and e, which the JSON decoder's type checks do
        not cover."""
        if self.r < 1:
            raise ValueError("candidate rank r must be a positive integer")
        if self.e not in (0, 1):
            raise ValueError("e must be 0 or 1")


@value_class
class EffectivityProxy:
    """Numerical stand-in for effectivity of aΘ + p*delta."""

    a_nonneg: bool
    pairing: Fraction  # delta·H_S

    @property
    def admissible(self) -> bool:
        return self.a_nonneg and self.pairing >= 0


@value_class
class TraceStep:
    name: str
    value: Fraction
    requirement: str
    satisfied: bool


@value_class
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
# not assumed; each delta coordinate moves in whole steps.  Every grid's e
# axis is the normal form's whole range.
A_STEP = Fraction(1, 2)
DELTA_STEP = Fraction(1)
_ES = (0, 1)

# Largest grid a scan or candidate_grid builds.  A held scan report takes
# 0.38-0.41 KiB (tracemalloc, U + <-2> with h = (1, 1, 0) at n = 2 and 5),
# so this keeps the reports of one scan under ~200 MiB.
MAX_SCAN_CANDIDATES = 500_000


@value_class
class EnumerationBounds:
    """Grid bounds: a runs over 0..a_max in steps of ``A_STEP``, each delta
    coordinate over the multiples of ``DELTA_STEP`` (the integers) in
    [-delta_max, delta_max], so a fractional delta_max such as 5/2 gives
    -2..2 and the axis always holds 0.

    A rank-n scan over Picard rank ρ has (n - 1)·|a axis|·|δ axis|^ρ·2
    candidates, each holding a δ of ρ entries; above ``MAX_SCAN_CANDIDATES``
    candidates, or above 10·``MAX_SCAN_CANDIDATES`` δ entries in all, it is
    refused with ValueError before anything is built (CLI ``scan`` exit
    1)."""

    a_max: Fraction = Fraction(6)
    delta_max: Fraction = Fraction(6)

    def _check(self) -> None:
        if self.a_max < 0 or self.delta_max < 0:
            raise ValueError("bounds must be nonnegative")


def _require_derived(owner: object, field: str, derived: object, source: str) -> None:
    """Refuse with ValueError an ``owner`` whose ``field`` is not
    ``derived``, the value that ``source`` (such as "its reports give")
    names."""
    value = getattr(owner, field)
    if value != derived:
        raise ValueError(
            f"{type(owner).__name__} {field!r} is {value!r}, but {source} {derived!r}"
        )


@value_class
class ScanResult:
    reports: tuple[StabilityReport, ...]
    any_violation: bool

    def _check(self) -> None:
        """``any_violation`` is whether some report is a Violation."""
        violation = any(report.verdict is Verdict.VIOLATION for report in self.reports)
        _require_derived(self, "any_violation", violation, "its reports give")

    @property
    def candidate_count(self) -> int:
        return len(self.reports)

    def verdict_counts(self) -> dict[str, int]:
        counts = {v.value: 0 for v in Verdict}
        for report in self.reports:
            counts[report.verdict.value] += 1
        return counts


# -- cached polarization geometry ------------------------------------------

# Entries kept by _functionals, the one cache keyed by a polarization, so
# that a long-lived process scanning many polarizations holds a bounded
# amount of geometry.
POLARIZATION_CACHE_SIZE = 128


def _require_num_trivial(pol: Polarization, what: str) -> _Functionals:
    """Refuse a base that no numerically K-trivial surface has: its
    canonical class must be numerically trivial, and its lattice must pass
    :func:`_lattice_fault`, which runs once per polarization, in the cached
    :func:`_functionals`.  Return those functionals.  Every entry point
    passes its polarization through here, so a value that is not one is
    refused with ValueError here too."""
    require(pol, Polarization, "polarization")
    if not pol.model.k_trivial:
        raise HypothesisViolationError(
            f"{what} needs a numerically trivial canonical class on the base"
        )
    fns = _functionals(pol)
    if fns.lattice_fault is not None:
        raise HypothesisViolationError(f"{what} needs {fns.lattice_fault}")
    return fns


def _lattice_fault(gram: tuple[tuple[int, ...], ...]) -> str | None:
    """The rule that the Gram matrix of a numerically K-trivial base breaks,
    or None: Num(S) has signature (1, ρ - 1) by the Hodge index theorem,
    and D² ≡ D·K_S = 0 (mod 2) by Riemann–Roch, so the diagonal is even."""
    rho = len(gram)
    positive, negative = _inertia(gram)
    if (positive, negative) != (1, rho - 1):
        return (
            f"a base lattice of signature (1, {rho - 1}) by the Hodge index theorem, "
            f"but the Gram matrix has {positive} positive, {negative} negative "
            f"and {rho - positive - negative} zero directions"
        )
    if any(gram[i][i] % 2 for i in range(rho)):
        return (
            "an even base lattice by Riemann–Roch (D² ≡ D·K_S = 0 mod 2), "
            "but the Gram matrix has an odd diagonal entry"
        )
    return None


def _inertia(gram: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    """The numbers of positive and negative directions of a symmetric
    integer matrix, by exact symmetric elimination over Fractions: each
    step takes a nonzero diagonal entry p as pivot and passes to its Schur
    complement, whose entries are ratios of minors, so their size stays
    polynomial in ρ.  Where the whole diagonal is zero but some entry g_kj
    is not, the basis change e_k -> e_k + e_j first makes the diagonal
    entry 2·g_kj."""
    rows = [list(map(Fraction, row)) for row in gram]
    positive = negative = 0
    while rows:
        k = next((i for i, row in enumerate(rows) if row[i]), None)
        if k is None:
            nonzero = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
            if not nonzero:
                break
            k, j = nonzero[0]
            rows[k] = [x + y for x, y in zip(rows[k], rows[j])]
            for row in rows:
                row[k] += row[j]
        pivot = rows[k]
        positive += pivot[k] > 0
        negative += pivot[k] < 0
        rows = [
            [x - row[k] / pivot[k] * y for c, (x, y) in enumerate(zip(row, pivot)) if c != k]
            for i, row in enumerate(rows)
            if i != k
        ]
    return positive, negative


class _Functionals(NamedTuple):
    """∫ b·ω² for each basis class b in {Θ, p*e_1, …, p*e_ρ} (in that
    order), as :func:`_functionals` evaluates it from the checked parts of
    :func:`_coefficients`, with the closed form's constants (from the Gram
    matrix, not the ring), the verdict of :func:`_lattice_fault` on the
    base and the rank-1 target slope, the slope of the transform of
    O_X(-Θ).

    The closed form of ω² is s²H² on Θ and 2ts·(e_i·H) on p*e_i, so
    ∫ ch1(F)·ω² = s²H²·(e - a) - 2ts·(delta·H): its two terms are the
    fiber-degree and effectivity steps of a trace.
    """

    omega_squared: tuple[Fraction, ...]
    gram_h: tuple[Fraction, ...]  # gram·h, so that delta·H = Σ delta_i (gram·h)_i
    two_ts: Fraction  # 2ts
    ss_hh: Fraction  # s²·H_S²
    lattice_fault: str | None  # _lattice_fault of the base's Gram matrix
    unit_target: Fraction  # the rank-1 target; rank n's is this over n


def _dot(u: tuple[Fraction, ...], v: tuple[Fraction, ...]) -> Fraction:
    """u·v for vectors of one length >= 1 (a Picard rank)."""
    return sum(map(operator.mul, u[1:], v[1:]), u[0] * v[0])


def _coefficients(
    model: SurfaceModel, h: tuple[Fraction, ...]
) -> tuple[tuple[Fraction, ...], ...]:
    """A, B and C: ∫ b·P for each basis class b in {Θ, p*e_1, …, p*e_ρ} (in
    that order) and P in Θ², Θ·p*h and p*(h²), the parts of
    ω² = t²·Θ² + 2ts·Θ·p*h + s²·p*(h²), which depend on neither t nor s.
    Each coefficient is checked against its closed form: A = 0, since
    Θ² = Θ·p*K_S and K_S is numerically trivial; B = 0 on Θ and e_i·H on
    p*e_i; C = H² on Θ and 0 on p*e_i.  So the check holds for every t and
    s, and it sees the t² part on its own.  The message quotes the first
    coefficient that differs, ring first."""
    rho = model.picard_rank
    units = [tuple(Fraction(int(i == j)) for j in range(rho)) for i in range(rho)]
    theta, ph = model.theta(), pullback(model.divisor_surface(h))
    basis = [theta] + [pullback(model.divisor_surface(u)) for u in units]
    parts = (x_mul(theta, theta), x_mul(theta, ph), x_mul(ph, ph))
    ring = tuple(tuple(x_integrate(x_mul(b, part)) for b in basis) for part in parts)
    gram_h, zeros = tuple(_dot(row, h) for row in model.gram), (0,) * rho
    closed = ((0, *zeros), (0, *gram_h), (_dot(gram_h, h), *zeros))
    for x, form in zip(itertools.chain(*ring), itertools.chain(*closed)):
        if x != form:
            raise InternalCheckError(
                f"ring integration and closed-form slope numerators disagree: {x} vs {form}"
            )
    return ring


# Knocking the cache out costs sweep 52 % of its throughput (BENCH_35.json).
@lru_cache(maxsize=POLARIZATION_CACHE_SIZE)
def _functionals(pol: Polarization) -> _Functionals:
    """Evaluate ω² = t²·A + 2ts·B + s²·C from the checked parts of
    :func:`_coefficients` at the polarization's (t, s), once per
    polarization.  The closed form's constants come from the Gram matrix
    alone, not from the ring, so the scan's own check (:func:`_cells`)
    compares two independent sources.  Read the rank-1 target slope off
    the ω² functional (:func:`_slope`), which must be positive."""
    model, t, s = pol.model, pol.t, pol.s
    two_ts, ss = 2 * t * s, s * s
    omega_squared = tuple(t * t * x + two_ts * y + ss * z
                          for x, y, z in zip(*_coefficients(model, pol.h)))
    gram_h = tuple(_dot(row, pol.h) for row in model.gram)
    unit_target = _slope(omega_squared, transform_char(LineBundleX(model, -1)).char)
    if unit_target <= 0:
        raise InternalCheckError("target slope must be positive")
    return _Functionals(omega_squared, gram_h, two_ts, ss * _dot(gram_h, pol.h),
                        _lattice_fault(model.gram), unit_target)


# -- slopes -----------------------------------------------------------------


def _slope(w: tuple[Fraction, ...], char: TruncatedChar) -> Fraction:
    """∫ ch1·ω² / ch0, read off the ω² functional ``w``, which
    :func:`_functionals` builds from the parts that :func:`_coefficients`
    checks against their closed forms."""
    return (char.ch1.a * w[0] + _dot(char.ch1.delta, w[1:])) / char.ch0


def _require_rank(name: str, value: object) -> None:
    """Refuse with ValueError a rank ``value`` (n or ρ) that is not a
    positive integer: a bool or a float is refused too."""
    if not is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer")


def target_slope(n: int, pol: Polarization) -> Fraction:
    """Slope of the rank-n transform of O_X(-nΘ): the rank-1 target that
    :func:`_functionals` reads off the ring-derived ω² functional, over n
    (the transform's ch1 is -Θ for every n on a K-trivial base)."""
    _require_rank("n", n)
    return _require_num_trivial(pol, "target slope").unit_target / n


def _ints(values, den: int) -> list[int]:
    """Each rational of ``values`` times ``den``, a multiple of its
    denominator."""
    return [x.numerator * (den // x.denominator) for x in values]


def _cells(fns: _Functionals, a_values, deltas, es) -> list[tuple]:
    """One cell per (a, delta, e), e fastest, then delta, then a: the grid
    order.  A cell is the tuple (fiber degree, numerator, D², proxy,
    trace, reasons) of what a report at its point reads but the rank and
    the candidate: ``numerator`` is r times the candidate's slope, an
    integer over D², and ``reasons`` every inadmissibility reason but the
    rank.

    Every term is an integer over D², for one D per call: the least common
    multiple of the denominators of the ω² functional, of its closed form
    (2ts as 2ts·(gram·h)), of gram·h, of the a values and of the delta
    entries.  The ω² functional must equal its closed form, coefficient by
    coefficient on their integers over D; the message quotes the first
    coefficient that differs, ring first.  So the numerator is the closed
    form's, the sum of two trace steps, each a multiplier times a
    constraint: the fiber-degree step (e - a)·s²H², once per (a, e), and
    the effectivity step -2ts·(delta·H), once per distinct pairing.  The
    section-part step is 0, since :func:`_coefficients` checks that A and
    B vanish on Θ.

    A cell reads delta only through p = delta·H·D², one dot product per
    delta, and all it holds of delta is built once per distinct p: the
    pairing, its reason, the effectivity step -2ts·p (an integer, since D
    clears the denominators of 2ts·(gram·h)) as one TraceStep, and one
    EffectivityProxy per sign of a on the a axis.  2ts > 0, so distinct
    pairings give distinct steps.  The fiber degree is built once per
    (a, e), each distinct fiber-degree step once per call as one
    TraceStep, and each distinct trace as one tuple of them."""
    closed = (fns.ss_hh, *(fns.two_ts * g for g in fns.gram_h))
    den = math.lcm(*{x.denominator for x in itertools.chain(
        fns.omega_squared, fns.gram_h, closed,
        a_values, itertools.chain.from_iterable(deltas))})
    scale = den * den
    closed = _ints(closed, den)
    for ring, form in zip(_ints(fns.omega_squared, den), closed):
        if ring != form:
            raise InternalCheckError(
                "ring integration and closed-form slope numerators disagree: "
                f"{Fraction(ring, den)} vs {Fraction(form, den)}"
            )
    ss, gram_h = closed[0], _ints(fns.gram_h, den)
    u, v = fns.two_ts.as_integer_ratio()
    signs = {a >= 0 for a in a_values}

    pairings = [sum(map(operator.mul, _ints(delta, den), gram_h)) for delta in deltas]
    # What a cell reads of delta, keyed by p.
    by_pairing: dict[int, tuple] = {}
    for p in set(pairings):
        pairing, step = Fraction(p, scale), -(u * p) // v
        by_pairing[p] = (
            {sign: EffectivityProxy(sign, pairing) for sign in signs},
            (f"effectivity proxy fails: delta·H = {pairing} < 0",) if p < 0 else (),
            step, TraceStep("effectivity step", Fraction(step, scale), "<= 0", step <= 0),
        )

    # The fiber-degree TraceSteps, keyed by their value over D².
    fiber_steps: dict[int, TraceStep] = {}
    section = TraceStep("section-part step", 0, "== 0", True)
    traces: dict[tuple[int, int], tuple[TraceStep, ...]] = {}
    cells = []
    for a in a_values:
        a_nonneg = a >= 0
        a_reason = () if a_nonneg else (f"effectivity proxy fails: a = {a} < 0",)
        a_int = a.numerator * (den // a.denominator)
        rows = []
        for e in es:
            fd = e - a
            if fd.denominator != 1:
                fd_reason = (f"fiber degree {fd} is not an integer",)
            else:
                fd_reason = (f"fiber degree +{fd} > 0",) if fd > 0 else ()
            step = (e * den - a_int) * ss
            if step not in fiber_steps:
                fiber_steps[step] = TraceStep(
                    "fiber-degree step", Fraction(step, scale), "<= 0", step <= 0)
            rows.append((fd, fd_reason, step, fiber_steps[step]))
        for p in pairings:
            proxies, pair_reason, effectivity, effectivity_step = by_pairing[p]
            cell_proxy, cell_reason = proxies[a_nonneg], a_reason + pair_reason
            for fd, fd_reason, fiber, fiber_step in rows:
                trace = traces.get((fiber, effectivity))
                if trace is None:
                    trace = traces[fiber, effectivity] = (fiber_step, effectivity_step, section)
                # r times the slope is numerator / D² at every rank r.
                cells.append((fd, fiber + effectivity, scale, cell_proxy, trace,
                              cell_reason + fd_reason))
    return cells


def _point(cand: DestabilizerCandidate, pol: Polarization, what: str) -> tuple:
    """The functionals of ``pol`` and the cell of one candidate (see
    :func:`_cells`), on one-point axes, once the screens that need no
    geometry pass; ``what`` names the caller."""
    require(cand, DestabilizerCandidate, "candidate")
    fns = _require_num_trivial(pol, what)
    if len(cand.delta) != pol.model.picard_rank:
        raise ModelMismatchError(
            "candidate delta length does not match the surface model"
        )
    return fns, _cells(fns, (cand.a,), (cand.delta,), (cand.e,))[0]


def candidate_slope(cand: DestabilizerCandidate, pol: Polarization) -> Fraction:
    """∫ ch1(F)·ω² / r, read off the closed form once :func:`_cells` has
    checked the ring's functionals against it."""
    _, (_, numerator, den, *_) = _point(cand, pol, "candidate slope")
    return Fraction(numerator, den * cand.r)


# -- certification -----------------------------------------------------------


def certify(n: int, pol: Polarization, cand: DestabilizerCandidate) -> StabilityReport:
    """Judge one candidate destabilizer against the rank-n transform.

    Inadmissible candidates are reported as such (with reasons), never
    errored: the grid search wants to see them excluded for the stated
    arithmetic reasons rather than silently skipped.  The report holds
    ``cand`` itself.  A bad ``n`` is refused before anything is resolved.
    """
    _require_rank("n", n)
    fns, cell = _point(cand, pol, "stability certification")
    reports, _ = _reports(n, ((cand.r, (cand,)),), [cell], fns.unit_target / n)
    return reports[0]


def _reports(
    n: int,
    ranks: Iterable[tuple[int, Sequence[DestabilizerCandidate]]],
    cells: list[tuple],
    target: Fraction,
) -> tuple[list[StabilityReport], bool]:
    """The report of every candidate in ``ranks``, rank slowest, judged
    against the rank-n target, and whether some report is a Violation: the
    flag is set where an admissible candidate's verdict is judged, so no
    second pass reads the reports.  ``ranks`` holds (r, the rank-r
    candidates) pairs, one candidate per cell of :func:`_cells` and in the
    cells' order; a report holds that candidate object, which a scan
    shares with every other scan over its grid while :func:`_axes` keeps
    that grid.  Every field was checked when its cell or candidate was
    built, so reports are built through the trusted constructor."""
    # The public constructors would cost sweep 53 % of its throughput (BENCH_35.json).
    report = trusted(StabilityReport)
    inadmissible, violation = Verdict.INADMISSIBLE, Verdict.VIOLATION
    any_violation = False
    reports = []
    for r, candidates in ranks:
        rank_reason = () if r < n else (f"rank {r} is not below the transform rank {n}",)
        # A cell numerator's rank-r slope, and the verdict of an admissible
        # candidate at that slope.
        slopes: dict[int, tuple[Fraction, Verdict]] = {}
        for cand, (fiber_deg, numerator, den, proxy, trace, cell_reasons) in zip(
            candidates, cells, strict=True
        ):
            judged = slopes.get(numerator)
            if judged is None:
                cand_slope = Fraction(numerator, den * r)
                judged = slopes[numerator] = (
                    cand_slope,
                    violation if cand_slope >= target else Verdict.CERTIFIED,
                )
            cand_slope, verdict = judged
            reasons = rank_reason + cell_reasons
            if reasons:
                verdict = inadmissible
            elif verdict is violation:
                any_violation = True
            reports.append(report(
                cand, verdict, target, cand_slope, proxy, fiber_deg, trace, reasons,
            ))
    return reports, any_violation


class _Grid(NamedTuple):
    """The a and delta axes of one rank-n grid, and the candidates of each
    rank 1..n - 1 (rank r at index r - 1), each rank's in grid order: a
    slowest, then delta, then e over ``_ES``."""

    a_values: tuple[Fraction, ...]
    deltas: tuple[tuple[Fraction, ...], ...]
    candidates: tuple[tuple[DestabilizerCandidate, ...], ...]


# The units (candidates plus the delta entries of the delta axis, which the
# candidates share) that the grids _grid keeps hold in all: _axes keeps a
# grid only within its share, GRID_CACHE_SIZE over _grid's maxsize.  A unit
# takes 176-207 B (tracemalloc, full caches of k3 grids, of ρ = 3 grids and
# of the smallest grids), so this holds at most ~13 MiB; a sweep block
# reads 4 grids of 3 439 units.
GRID_CACHE_SIZE = 65_536


# Knocking the cache out costs sweep 26 % of its throughput (BENCH_35.json).
@lru_cache(maxsize=16)
def _grid(n: int, picard_rank: int, a_len: int, k: int) -> _Grid:
    """The rank-n grid (n >= 2) over Picard rank ``picard_rank``, whose a
    axis has ``a_len`` values and whose delta coordinates run over
    -k..k times DELTA_STEP, once :func:`_axes` has checked these and the
    grid's size.  Every candidate is built once, through the trusted
    constructor: its fields are the axis values."""
    coeff_values = [i * DELTA_STEP for i in range(-k, k + 1)]
    a_values = tuple(i * A_STEP for i in range(a_len))
    deltas = tuple(itertools.product(coeff_values, repeat=picard_rank))
    points = list(itertools.product(a_values, deltas, _ES))
    candidate = trusted(DestabilizerCandidate)
    return _Grid(a_values, deltas, tuple(
        tuple([candidate(r, a, delta, e) for a, delta, e in points]) for r in range(1, n)
    ))


# The grid of n = 1: no rank, and empty axes, so it builds no delta product.
_NO_GRID = _Grid((), (), ())


def _axes(n: int, picard_rank: int, bounds: EnumerationBounds | None) -> _Grid:
    """The rank-n grid over Picard rank ``picard_rank`` (``bounds`` None:
    the default ``EnumerationBounds()``, built on the call, so an import
    builds no value); it runs over the ranks 1..n - 1 and then the axes'
    product, in that order.  The grid is counted from the two 1-D axis
    lengths and refused above MAX_SCAN_CANDIDATES before any axis is built,
    and so is a grid whose candidates hold more than 10·MAX_SCAN_CANDIDATES
    delta entries in all (count × ρ); an empty grid (n = 1) gets empty
    axes, so it builds no delta product.  Only a grid that passes every
    check is looked up in :func:`_grid`'s cache, keyed on n, ρ and the two
    axis lengths, all ints, so None and ``EnumerationBounds()``, or two
    bounds that give the same axes, share one entry, and a refused
    argument never reaches the cache.  The count also gives the grid's
    units, its candidates plus the delta entries of its axis; a grid of
    more units than GRID_CACHE_SIZE over the cache's maxsize bypasses the
    cache, built for its caller and never kept, so the kept grids hold at
    most GRID_CACHE_SIZE units in all.

    The count, (n - 1)·2·|δ axis|^ρ·|a axis|, is multiplied factor by
    factor.  Once a product before the a axis passes the cap, counting
    stops and the refusal says "too many" instead of the count.  It says
    so too for a count above MAX_SCAN_CANDIDATES², which only a huge a axis
    gives.  So a large ρ, n or a_max builds no huge power, and the refusal
    prints no number too long for ``str``."""
    _require_rank("n", n)
    _require_rank("picard_rank", picard_rank)
    bounds = EnumerationBounds() if bounds is None else bounds
    require(bounds, EnumerationBounds, "bounds")
    a_len = bounds.a_max // A_STEP + 1
    # The delta axis is every multiple of DELTA_STEP in [-delta_max, delta_max].
    k = bounds.delta_max // DELTA_STEP
    count = (n - 1) * 2
    for _ in range(picard_rank if k else 0):  # factors >= 3: stops within 13
        if not 0 < count <= MAX_SCAN_CANDIDATES:
            break
        count *= 2 * k + 1
    count = count * a_len if count <= MAX_SCAN_CANDIDATES else None
    if count is None or count > MAX_SCAN_CANDIDATES:
        many = "too many" if count is None or count > MAX_SCAN_CANDIDATES**2 else count
        raise ValueError(
            f"the scan grid has {many} candidates, "
            f"above the cap {MAX_SCAN_CANDIDATES}; lower the rank or the bounds"
        )
    # Each candidate stores a delta of picard_rank entries, so a one-point
    # delta axis must not let memory grow with the rank.
    if count * picard_rank > 10 * MAX_SCAN_CANDIDATES:
        raise ValueError(
            f"the scan grid's {count} candidates hold more than "
            f"{10 * MAX_SCAN_CANDIDATES} delta entries in all, one per Picard "
            "coordinate each; lower the rank or the bounds"
        )
    if n == 1:
        return _NO_GRID
    # count // ((n - 1)·2·|a axis|) is the delta axis's length.
    units = count + count // (2 * (n - 1) * a_len) * picard_rank
    if units > GRID_CACHE_SIZE // _grid.cache_parameters()["maxsize"]:
        return _grid.__wrapped__(n, picard_rank, a_len, k)
    return _grid(n, picard_rank, a_len, k)


def candidate_grid(
    n: int, picard_rank: int, bounds: EnumerationBounds | None
) -> list[DestabilizerCandidate]:
    """The full deterministic candidate list for a rank-n search (see
    :func:`_axes`); a grid above MAX_SCAN_CANDIDATES is a ValueError.  The
    list is new on every call, but its candidates are the grid's,
    immutable, and while :func:`_axes` keeps the grid, the same objects a
    scan over it reports."""
    return list(itertools.chain.from_iterable(_axes(n, picard_rank, bounds).candidates))


def enumerate_candidates(
    n: int,
    pol: Polarization,
    bounds: EnumerationBounds | None = None,
) -> ScanResult:
    """Certify every candidate on the grid of ``bounds`` (see :func:`_axes`);
    order is grid order.  The rank-independent part of a report is built
    once per (a, delta, e), and each report holds its grid's candidate,
    which :func:`candidate_grid` returns too while the grid is kept.  A
    grid above MAX_SCAN_CANDIDATES is a ValueError."""
    fns = _require_num_trivial(pol, "stability scan")
    grid = _axes(n, pol.model.picard_rank, bounds)
    target = fns.unit_target / n
    cells = _cells(fns, grid.a_values, grid.deltas, _ES)
    reports, any_violation = _reports(n, enumerate(grid.candidates, 1), cells, target)
    # The public constructor would cost sweep 9 % of its throughput (BENCH_35.json).
    return trusted(ScanResult)(tuple(reports), any_violation)


# -- the line-bundle pipeline -------------------------------------------------


@value_class
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

    def _check(self) -> None:
        """``stable`` is what the scan gives and ``search_rank`` is |m|."""
        _require_derived(self, "stable", not self.scan.any_violation, "its scan gives")
        _require_derived(self, "search_rank", abs(self.line_bundle.m), "its line bundle gives")


def transform_stability(
    lb: LineBundleX,
    pol: Polarization,
    bounds: EnumerationBounds | None = None,
) -> TransformStabilityReport:
    """Certify slope stability of the transform of O_X(mΘ) ⊗ p*N.

    Negative m is the direct case; positive m reduces to -m through the
    dual bundle, recording the duality identification that makes the
    reduction legitimate.  m = 0 has a torsion transform and no slope.

    The transform slope is read off the polarization's ω² functional, as
    the rank-1 target slope is (:func:`_slope`).
    """
    require(lb, LineBundleX, "line bundle")
    require(pol, Polarization, "polarization")
    if lb.model != pol.model:
        raise ModelMismatchError("line bundle and polarization models differ")
    fns = _require_num_trivial(pol, "transform stability")
    if lb.m == 0:
        raise HypothesisViolationError(
            "the m = 0 transform is torsion and has no slope"
        )
    result = transform_char(lb)
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
        transform_slope=_slope(fns.omega_squared, result.char),
        search_rank=n,
        target_slope=fns.unit_target / n,
        scan=scan,
        stable=not scan.any_violation,
        duality_step=duality_step,
        reduction=tuple(reduction),
    )
