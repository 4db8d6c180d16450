"""Closed forms that every benchmarked output is checked against.

The benchmark never asks the library to confirm its own answers.  Every
expected value below is derived in this file from the inputs the benchmark
generated (Gram matrix, canonical class, ample class, t, s, n, grid bounds)
with plain ``Fraction`` arithmetic:

* transform of O_X(mΘ):  ch0 = m,  ch1 = -Θ + p*((m/2)K_S);  (0, Θ) for m = 0;
* slope of aΘ + p*δ over a K-trivial base:  (a·s²H² + 2ts·δ·h) / ch0;
* candidate (r, a, δ, e) against the rank-n transform:
  slope = (-2ts·δ·h + (e - a)·s²H²) / r,  target = s²H²/n,
  trace = ((e - a)·s²H², -2ts·δ·h, 0);
* the WIT / dim_shift decision table of the duality engine.

A disagreement raises :class:`Mismatch`; the closed loop counts it as a
failed operation and carries on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

A_MAX = 6  # default EnumerationBounds: a in 0..6 step 1/2, delta in -6..6 step 1
DELTA_MAX = 6

VERDICTS = ("Certified", "Violation", "Inadmissible")
RELATION_KINDS = ("Identification", "ForcedZero", "ShortExact", "Forbidden")

# (wit, dim_shift) -> conclusion kind.  WIT0 may keep or raise dimension,
# WIT1 may keep or drop it; the other direction is impossible.
DECISION = {
    ("WIT0", 1): "DualIdentification",
    ("WIT0", 0): "DualIsWIT1",
    ("WIT0", -1): "Forbidden",
    ("WIT1", 1): "Forbidden",
    ("WIT1", 0): "DualIdentification",
    ("WIT1", -1): "DualIsWIT1",
}
DUAL_IS_WIT1 = "Φ^0(E^D) = 0, so E^D is WIT1"


class Mismatch(Exception):
    """An output disagrees with the benchmark's closed form."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def fmt(x) -> str:
    """Canonical rational string: "z" for integers, "p/q" otherwise."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_vec(values) -> list[str]:
    return [fmt(v) for v in values]


@dataclass(frozen=True)
class Lattice:
    """The benchmark's own record of a base surface: enough to derive
    every closed form without asking the library."""

    name: str
    gram: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]
    h: tuple[int, ...]

    @property
    def rho(self) -> int:
        return len(self.gram)

    def pair(self, u, v) -> Fraction:
        return sum(
            (Fraction(u[i]) * self.gram[i][j] * Fraction(v[j])
             for i in range(self.rho) for j in range(self.rho)),
            Fraction(0),
        )

    @property
    def h2(self) -> Fraction:
        return self.pair(self.h, self.h)

    def model_json(self) -> dict:
        """SurfaceModel document with real JSON ints and bools."""
        zero = all(k == 0 for k in self.canonical)
        return {
            "picard_rank": self.rho,
            "gram": [list(row) for row in self.gram],
            "canonical": fmt_vec(self.canonical),
            "k_trivial": zero,
            "omega_class": fmt_vec(self.canonical),
        }


K3 = Lattice("k3_quartic", ((4,),), (0,), (1,))
ENRIQUES = Lattice("enriques", ((2,),), (0,), (1,))
GENERAL_DEMO = Lattice("general_demo", ((0, 1), (1, 0)), (-2, -2), (1, 1))
# Built by the benchmark: a hyperbolic rank-2 lattice with K_S = omega = 0.
RHO2 = Lattice("rho2_hyperbolic", ((0, 1), (1, 0)), (0, 0), (1, 1))


# -- transforms and slopes ---------------------------------------------------


def transform_json(lat: Lattice, m: int) -> dict:
    """``transform --json`` for O_X(mΘ), no twist."""
    if m == 0:
        return {
            "char": {"ch0": "0", "ch1": {"a": "1", "delta": fmt_vec((0,) * lat.rho)}},
            "wit": "WIT1",
            "locally_free": False,
        }
    delta = [Fraction(m, 2) * k for k in lat.canonical]
    return {
        "char": {"ch0": fmt(m), "ch1": {"a": "-1", "delta": fmt_vec(delta)}},
        "wit": "WIT0" if m > 0 else "WIT1",
        "locally_free": True,
    }


def slope_value(lat: Lattice, t, s, ch0, a, delta) -> Fraction:
    return (a * s * s * lat.h2 + 2 * t * s * lat.pair(delta, lat.h)) / Fraction(ch0)


def dual_json(ch0, a, delta) -> dict:
    return {"ch0": fmt(ch0), "ch1": {"a": fmt(-a), "delta": fmt_vec(-Fraction(d) for d in delta)}}


# -- destabilizer grids --------------------------------------------------------


@lru_cache(maxsize=None)
def grid(n: int, rho: int, a_max: int, delta_max: int) -> tuple:
    """(r, a, delta, e) in the scan's grid order."""
    a_values = [Fraction(k, 2) for k in range(2 * a_max + 1)]
    d_values = [Fraction(k) for k in range(-delta_max, delta_max + 1)]
    return tuple(
        (r, a, delta, e)
        for r in range(1, n)
        for a in a_values
        for delta in itertools.product(d_values, repeat=rho)
        for e in (0, 1)
    )


def candidate_count(n: int, rho: int, a_max: int, delta_max: int) -> int:
    return (n - 1) * (2 * a_max + 1) * (2 * delta_max + 1) ** rho * 2


@dataclass(frozen=True)
class Expected:
    slope: Fraction
    target: Fraction
    fiber: Fraction
    pairing: Fraction
    trace: tuple[Fraction, Fraction, Fraction]
    failed_conditions: int
    verdict: str


def expected_candidate(lat: Lattice, t, s, n: int, r, a, delta, e) -> Expected:
    h2 = lat.h2
    pairing = lat.pair(delta, lat.h)
    fiber = Fraction(e) - a
    target = s * s * h2 / n
    slope = (-2 * t * s * pairing + fiber * s * s * h2) / r
    failed = (
        (r >= n)
        + (a < 0)
        + (pairing < 0)
        + (fiber.denominator != 1 or fiber > 0)
    )
    if failed:
        verdict = "Inadmissible"
    else:
        verdict = "Violation" if slope >= target else "Certified"
    trace = (fiber * s * s * h2, -2 * t * s * pairing, Fraction(0))
    return Expected(slope, target, fiber, pairing, trace, failed, verdict)


def check_rows(lat: Lattice, t, s, n: int, delta_max: int, rows) -> dict:
    """Check a scan's reports, given as (r, a, delta, e, verdict, slope,
    target, trace values) rows in grid order; return exact counts."""
    cands = grid(n, lat.rho, A_MAX, delta_max)
    expect(len(rows) == len(cands), f"{len(rows)} reports, expected {len(cands)}")
    counts = dict.fromkeys(VERDICTS, 0)
    for row, cand in zip(rows, cands):
        r, a, delta, e, verdict, slope, target, trace = row
        expect((r, a, tuple(delta), e) == cand, f"candidate {row[:4]} out of grid order")
        want = expected_candidate(lat, t, s, n, *cand)
        expect(verdict == want.verdict, f"{cand}: verdict {verdict}, expected {want.verdict}")
        expect(slope == want.slope, f"{cand}: slope {slope}, expected {want.slope}")
        expect(target == want.target, f"{cand}: target {target}, expected {want.target}")
        expect(tuple(trace) == want.trace, f"{cand}: trace {trace}, expected {want.trace}")
        if verdict != "Inadmissible":
            expect(slope <= 0, f"{cand}: admissible slope {slope} > 0")
        counts[verdict] += 1
    expect(counts["Violation"] == 0, "a violation was reported")
    return counts


# -- the stability pipeline ----------------------------------------------------


@dataclass(frozen=True)
class ScanSpec:
    lat: Lattice
    m: int
    t: Fraction
    s: Fraction
    delta_max: int

    @property
    def n(self) -> int:
        return abs(self.m)

    @property
    def candidates(self) -> int:
        return candidate_count(self.n, self.lat.rho, A_MAX, self.delta_max)

    @property
    def key(self) -> tuple:
        return (self.lat.name, self.m, fmt(self.t), fmt(self.s), self.delta_max)


def check_stability(spec: ScanSpec, report) -> dict:
    """Check a TransformStabilityReport (or an object with the same
    attributes) against the closed forms; return exact counts."""
    h2, s, n = spec.lat.h2, spec.s, spec.n
    expect(report.transform_slope == -s * s * h2 / spec.m, "transform slope")
    expect(report.target_slope == s * s * h2 / n, "target slope")
    expect(report.search_rank == n, "search rank")
    char = report.transform.char
    got = {"ch0": fmt(char.ch0), "ch1": {"a": fmt(char.ch1.a), "delta": fmt_vec(char.ch1.delta)}}
    expect(got == transform_json(spec.lat, spec.m)["char"], f"transform character {got}")
    expect(not report.scan.any_violation and report.stable, "any_violation set")
    rows = [
        (c.r, c.a, c.delta, c.e, rep.verdict.value, rep.candidate_slope,
         rep.target_slope, [step.value for step in rep.trace])
        for rep in report.scan.reports
        for c in (rep.candidate,)
    ]
    counts = check_rows(spec.lat, spec.t, s, n, spec.delta_max, rows)
    return {"candidates": len(rows), **counts}


def check_scan_json(spec: ScanSpec, payload: dict, full: bool) -> dict:
    """Check the ``scan --json`` document against the closed forms."""
    h2, s, n = spec.lat.h2, spec.s, spec.n
    expect(payload["line_bundle"] == {"m": spec.m, "twist": fmt_vec((0,) * spec.lat.rho)}, "line_bundle")
    expect(payload["transform"] == transform_json(spec.lat, spec.m), "transform")
    expect(payload["transform_slope"] == fmt(-s * s * h2 / spec.m), "transform_slope")
    expect(payload["target_slope"] == fmt(s * s * h2 / n), "target_slope")
    expect(payload["search_rank"] == n, "search_rank")
    expect(payload["stable"] is True and payload["any_violation"] is False, "stability flags")
    expect(payload["candidate_count"] == spec.candidates, "candidate_count")
    step = payload["duality_step"]
    if spec.m > 0:
        expect(step is not None and step["kind"] == "DualIdentification", "duality_step")
    else:
        expect(step is None, "duality_step")
    counts = payload["verdict_counts"]
    want = dict.fromkeys(VERDICTS, 0)
    for cand in grid(n, spec.lat.rho, A_MAX, spec.delta_max):
        want[expected_candidate(spec.lat, spec.t, s, n, *cand).verdict] += 1
    expect(counts == want, f"verdict_counts {counts}, expected {want}")
    if full:
        rows = [
            (
                rep["candidate"]["r"],
                Fraction(rep["candidate"]["a"]),
                tuple(Fraction(d) for d in rep["candidate"]["delta"]),
                rep["candidate"]["e"],
                rep["verdict"],
                Fraction(rep["candidate_slope"]),
                Fraction(rep["target_slope"]),
                [Fraction(st["value"]) for st in rep["trace"]],
            )
            for rep in payload["reports"]
        ]
        check_rows(spec.lat, spec.t, s, n, spec.delta_max, rows)
    return {"candidates": payload["candidate_count"], **counts}


def check_certify_json(lat: Lattice, t, s, n, r, a, delta, e, payload: dict) -> dict:
    want = expected_candidate(lat, t, s, n, r, a, delta, e)
    expect(payload["candidate"] == {"r": r, "a": fmt(a), "delta": fmt_vec(delta), "e": e}, "candidate")
    expect(payload["verdict"] == want.verdict, f"verdict {payload['verdict']}, expected {want.verdict}")
    expect(payload["candidate_slope"] == fmt(want.slope), "candidate_slope")
    expect(payload["target_slope"] == fmt(want.target), "target_slope")
    expect(payload["fiber_degree"] == fmt(want.fiber), "fiber_degree")
    expect(payload["proxy"] == {"a_nonneg": a >= 0, "pairing": fmt(want.pairing)}, "proxy")
    expect([st["value"] for st in payload["trace"]] == fmt_vec(want.trace), "trace values")
    expect(len(payload["inadmissible_reasons"]) == want.failed_conditions, "inadmissible reasons")
    return {want.verdict: 1}


# -- the duality engine --------------------------------------------------------


def feasible(n: int, c: int, shift: int) -> bool:
    return 0 <= c <= n and 0 <= c - shift <= n


def expected_conclusion(c: int, wit: str, shift: int) -> dict:
    kind = DECISION[(wit, shift)]
    if kind == "DualIsWIT1":
        return {"kind": kind, "statement": DUAL_IS_WIT1, "via_dimension_only": c == 0}
    if kind == "DualIdentification":
        i = 0 if wit == "WIT0" else 1
        return {"kind": kind, "statement": f"ι*(Φ^0(E^D)) ⊗ p*L = (Φ^{i}E)^D",
                "via_dimension_only": False}
    return {"kind": kind}


def relation_counts(kinds) -> dict:
    counts = dict.fromkeys(RELATION_KINDS, 0)
    for kind in kinds:
        counts[kind] += 1
    return counts


def check_conclusion(key: tuple, conclusion: dict) -> None:
    n, c, wit, shift = key
    want = expected_conclusion(c, wit, shift)
    got = {k: conclusion[k] for k in want}
    expect(got == want, f"scenario {key}: conclusion {got}, expected {want}")


def check_solution(key: tuple, sol) -> dict:
    """Check a ScenarioSolution; return its exact relation counts."""
    c = sol.conclusion
    check_conclusion(key, {"kind": c.kind.value, "statement": c.statement,
                           "via_dimension_only": c.via_dimension_only})
    expect(sol.right_page == 2, f"scenario {key}: right page {sol.right_page}")
    return {"left_page": sol.left_page,
            **relation_counts(type(rel).__name__ for rel in sol.relations)}


def check_ss_duality_json(key: tuple, payload: dict) -> dict:
    n, c, wit, shift = key
    expect(payload["scenario"] == {"n": n, "c": c, "wit": wit, "dim_shift": shift}, "scenario")
    check_conclusion(key, payload["conclusion"])
    expect(payload["right_degeneration_page"] == 2, "right page")
    return relation_counts(rel["kind"] for rel in payload["relations"])


# -- the codec -----------------------------------------------------------------


def check_encoded(text: str, reference: str, decoded, original) -> None:
    expect(text == reference, "encoding is not byte-identical")
    expect(decoded == original, "decoded object differs from the original")
