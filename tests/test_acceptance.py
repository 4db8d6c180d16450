"""Acceptance gate: seven end-to-end criteria, one console verdict line each.

Every check is exact (Fraction equality, no tolerances).  The verdict
lines are written through the capture so they always show up on the
console, pass or fail.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from weierfm import (
    Conclusion,
    ConclusionKind,
    DestabilizerCandidate,
    DivisorClassX,
    EnumerationBounds,
    Forbidden,
    ForcedZero,
    Identification,
    KernelChoice,
    LineBundleX,
    Polarization,
    SheafScenario,
    ShortExact,
    Side,
    SurfaceModel,
    ThreefoldClass,
    TruncatedChar,
    Verdict,
    WitType,
    certify,
    commutativity_check,
    duality_decision,
    enumerate_candidates,
    get_preset,
    pullback,
    pushforward,
    serialize,
    slope,
    solve_scenario,
    surface_mul,
    target_slope,
    transform_char,
    x_integrate,
    x_mul,
)
from weierfm.duality import TermRef, left_label, right_label
from weierfm.stability import EffectivityProxy, TraceStep

ALL_PRESETS = ("k3_quartic", "enriques", "general_demo")
TRIVIAL_PRESETS = ("k3_quartic", "enriques")


@pytest.fixture
def verdict(capfd):
    def _verdict(number, ok, detail):
        line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _verdict


def test_criterion_1_transform_characters(verdict):
    """Characters of O_X(mΘ) for every preset and -20 <= m <= 20, m != 0."""
    start = time.perf_counter()
    failures = 0
    checked = 0
    for name in ALL_PRESETS:
        model = get_preset(name).model
        for m in range(-20, 21):
            if m == 0:
                continue
            result = transform_char(LineBundleX(model, m))
            expected_ch1 = DivisorClassX(
                model, Fraction(-1), tuple(Fraction(m, 2) * k for k in model.canonical)
            )
            ok = (
                result.char.ch0 == m
                and result.char.ch1 == expected_ch1
                and result.locally_free
                and result.wit is (WitType.WIT0 if m > 0 else WitType.WIT1)
            )
            failures += 0 if ok else 1
            checked += 1
    elapsed = time.perf_counter() - start
    verdict(
        1,
        failures == 0 and elapsed < 1.0,
        f"{checked} characters, {failures} mismatches, {elapsed:.3f}s < 1s",
    )


def test_criterion_2_slope_closed_form(verdict):
    """Ring slope equals -s²H²/m across polarization and twist grids."""
    failures = 0
    checked = 0
    params = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
    for name in TRIVIAL_PRESETS:
        preset = get_preset(name)
        h_sq = preset.model.pair(preset.ample, preset.ample)
        for t, s in itertools.product(params, params):
            pol = Polarization(preset.model, t, s, preset.ample)
            for m in range(-10, 11):
                if m == 0:
                    continue
                value = slope(transform_char(LineBundleX(preset.model, m)).char, pol)
                if value != Fraction(-(s * s * h_sq), m):
                    failures += 1
                checked += 1
    verdict(2, failures == 0, f"{checked} slopes, {failures} mismatches")


def test_criterion_3_duality_table(verdict):
    """Engine vs closed form on every feasible scenario with n <= 4."""
    start = time.perf_counter()
    failures = []
    checked = 0
    for n in range(1, 5):
        for c in range(0, n + 1):
            for wit in WitType:
                for shift in (-1, 0, 1):
                    if not 0 <= c - shift <= n:
                        continue
                    scenario = SheafScenario(n, c, wit, shift)
                    solution = solve_scenario(scenario)
                    table = duality_decision(scenario)
                    ok = solution.conclusion.kind is table.kind
                    if table.kind is not ConclusionKind.FORBIDDEN:
                        ok = ok and solution.conclusion == table
                    ok = ok and solution.right_page == 2 and solution.left_page <= 3
                    if not ok:
                        failures.append(scenario)
                    checked += 1
    elapsed = time.perf_counter() - start
    verdict(
        3,
        not failures and elapsed < 5.0,
        f"{checked} scenarios agree with the closed form, right pages all "
        f"settle at 2, {elapsed:.3f}s < 5s",
    )


def test_criterion_4_commutativity(verdict):
    """Dual-transform square closes for both kernels over both trivial bases."""
    failures = 0
    checked = 0
    for name in TRIVIAL_PRESETS:
        model = get_preset(name).model
        for kernel in KernelChoice:
            for m in range(-10, 11):
                if m == 0:
                    continue
                if not commutativity_check(LineBundleX(model, m), kernel):
                    failures += 1
                checked += 1
    verdict(4, failures == 0, f"{checked} squares, {failures} failures")


def test_criterion_5_stability_scan(verdict):
    """Full destabilizer grids stay violation-free for every search rank."""
    start = time.perf_counter()
    bounds = EnumerationBounds(a_max=Fraction(6), delta_max=Fraction(6))
    params = (Fraction(1, 2), Fraction(1), Fraction(2))
    certified = 0
    problems = []
    for name in TRIVIAL_PRESETS:
        preset = get_preset(name)
        for t, s in itertools.product(params, params):
            pol = Polarization(preset.model, t, s, preset.ample)
            for n in (2, 3, 4):
                if target_slope(n, pol) <= 0:
                    problems.append((name, t, s, n, "target not positive"))
                scan = enumerate_candidates(n, pol, bounds)
                certified += scan.candidate_count
                if scan.any_violation:
                    problems.append((name, t, s, n, "violation flagged"))
                for report in scan.reports:
                    if (
                        report.verdict is not Verdict.INADMISSIBLE
                        and report.candidate_slope > 0
                    ):
                        problems.append((name, t, s, n, report.candidate))
    elapsed = time.perf_counter() - start
    verdict(
        5,
        not problems and elapsed < 60.0,
        f"{certified} candidates certified, no violations, admissible slopes "
        f"all <= 0 < target, {elapsed:.1f}s < 60s",
    )


def test_criterion_6_randomized_ring_identities(verdict):
    """10^4 exact ring law checks from one seeded generator."""
    rng = random.Random(377107)
    models = [get_preset(name).model for name in ALL_PRESETS]

    def coeff():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 8))

    def surface_class(model):
        d = tuple(coeff() for _ in range(model.picard_rank))
        return model.surface(coeff(), d, coeff())

    def x_class(model):
        return ThreefoldClass(surface_class(model), surface_class(model))

    start = time.perf_counter()
    checks = 0
    failures = 0
    while checks < 10_000:
        model = rng.choice(models)
        x, y, z = (x_class(model) for _ in range(3))
        u = surface_class(model)
        c = coeff()
        laws = (
            x_mul(x, y) == x_mul(y, x),
            x_mul(x_mul(x, y), z) == x_mul(x, x_mul(y, z)),
            x_mul(x, y + z) == x_mul(x, y) + x_mul(x, z),
            x_mul(x.scale(c), y) == x_mul(x, y).scale(c),
            pushforward(x_mul(pullback(u), x)) == surface_mul(u, pushforward(x)),
        )
        failures += sum(not ok for ok in laws)
        checks += len(laws)
    elapsed = time.perf_counter() - start
    verdict(
        6,
        failures == 0 and elapsed < 10.0,
        f"{checks} identity checks, {failures} failures, {elapsed:.2f}s < 10s",
    )


def test_criterion_7_serialization_round_trips(verdict):
    """100 objects per documented schema survive JSON bit-exactly."""
    rng = random.Random(94001)
    k3 = get_preset("k3_quartic")
    enriques = get_preset("enriques")

    def frac():
        return Fraction(rng.randint(-24, 24), rng.randint(1, 12))

    def pos_frac():
        return Fraction(rng.randint(1, 12), rng.randint(1, 6))

    def rnd_model():
        rho = rng.choice((1, 2))
        gram = [[0] * rho for _ in range(rho)]
        for i in range(rho):
            for j in range(i, rho):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        k_trivial = rng.random() < 0.5
        canonical = (
            (Fraction(0),) * rho
            if k_trivial
            else tuple(Fraction(rng.randint(-3, 3)) for _ in range(rho))
        )
        return SurfaceModel(
            rho,
            tuple(tuple(row) for row in gram),
            canonical,
            k_trivial,
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(rho)),
        )

    def rnd_preset_model():
        return rng.choice((k3.model, enriques.model, get_preset("general_demo").model))

    def vec(model):
        return tuple(frac() for _ in range(model.picard_rank))

    def rnd_scenario():
        while True:
            n = rng.randint(1, 4)
            c = rng.randint(0, n)
            shift = rng.choice((-1, 0, 1))
            if 0 <= c - shift <= n:
                return SheafScenario(n, c, rng.choice(list(WitType)), shift)

    def term_ref(side, p, q):
        label = left_label(p, q) if side is Side.LEFT else right_label(p, q)
        return TermRef(side, (p, q), label)

    def rnd_term_ref(side=None, degree=None):
        """A random ref, on ``side`` and antidiagonal ``degree`` if given."""
        side = side or rng.choice(list(Side))
        if side is Side.LEFT:
            p = rng.choice((-1, 0))
            return term_ref(side, p, rng.randint(0, 4) if degree is None else degree - p)
        q = rng.choice((-1, 0))
        return term_ref(side, rng.randint(0, 4) if degree is None else degree - q, q)

    def rnd_relation():
        """A random relation of the shape the solver emits: every ref on its
        antidiagonal, an Identification from left to right, a ShortExact's
        sub (the larger q) and quot on the page its mid is not on."""
        kind = rng.randrange(4)
        degree = rng.randint(-1, 6)
        if kind == 0:
            return Identification(
                degree, rnd_term_ref(Side.LEFT, degree), rnd_term_ref(Side.RIGHT, degree)
            )
        if kind == 1:
            return ForcedZero(degree, rnd_term_ref(degree=degree))
        if kind == 2:
            mid = rnd_term_ref(degree=degree)
            if mid.side is Side.LEFT:  # the pair is the Right antidiagonal's two terms
                sub, quot = term_ref(Side.RIGHT, degree, 0), term_ref(Side.RIGHT, degree + 1, -1)
            else:
                sub, quot = term_ref(Side.LEFT, -1, degree + 1), term_ref(Side.LEFT, 0, degree)
            return ShortExact(degree, sub, mid, quot)
        return Forbidden(degree, f"synthetic reason {degree}")

    def rnd_candidate(rho=1):
        return DestabilizerCandidate(
            rng.randint(1, 5),
            Fraction(rng.randint(0, 12), 2),
            tuple(Fraction(rng.randint(-6, 6)) for _ in range(rho)),
            rng.choice((0, 1)),
        )

    def rnd_trivial_pol():
        preset = rng.choice((k3, enriques))
        return Polarization(preset.model, pos_frac(), pos_frac(), preset.ample)

    cases = []

    def schema(name, make, parser, needs_model=False):
        cases.append((name, make, parser, needs_model))

    schema("SurfaceModel", rnd_model, serialize.surface_model_from_json)

    def make_surface():
        model = rnd_preset_model()
        return (
            model.surface(frac(), vec(model), frac()),
            model,
        )

    schema(
        "SurfaceClass", make_surface, serialize.surface_class_from_json, True
    )

    def make_threefold():
        model = rnd_preset_model()
        return (
            ThreefoldClass(
                model.surface(frac(), vec(model), frac()),
                model.surface(frac(), vec(model), frac()),
            ),
            model,
        )

    schema(
        "ThreefoldClass", make_threefold, serialize.threefold_class_from_json, True
    )

    def make_divisor():
        model = rnd_preset_model()
        return model.divisor_x(frac(), vec(model)), model

    schema("DivisorClassX", make_divisor, serialize.divisor_class_from_json, True)

    def make_pol():
        pol = rnd_trivial_pol()
        return pol, pol.model

    schema("Polarization", make_pol, serialize.polarization_from_json, True)

    def make_lb():
        model = rnd_preset_model()
        return LineBundleX(model, rng.randint(-30, 30), vec(model)), model

    schema("LineBundleX", make_lb, serialize.line_bundle_from_json, True)

    def make_char():
        model = rnd_preset_model()
        return TruncatedChar(frac(), model.divisor_x(frac(), vec(model))), model

    schema("TruncatedChar", make_char, serialize.truncated_char_from_json, True)

    def make_transform():
        model = rnd_preset_model()
        return transform_char(LineBundleX(model, rng.randint(-20, 20))), model

    schema(
        "TransformResult", make_transform, serialize.transform_result_from_json, True
    )

    schema("SheafScenario", rnd_scenario, serialize.scenario_from_json)
    schema(
        "Conclusion",
        lambda: duality_decision(rnd_scenario()),
        serialize.conclusion_from_json,
    )
    schema("TermRef", rnd_term_ref, serialize.term_ref_from_json)
    schema("DerivedRelation", rnd_relation, serialize.relation_from_json)
    schema("DestabilizerCandidate", rnd_candidate, serialize.candidate_from_json)
    schema(
        "EffectivityProxy",
        lambda: EffectivityProxy(rng.random() < 0.5, frac()),
        serialize.effectivity_proxy_from_json,
    )
    schema(
        "TraceStep",
        lambda: TraceStep(
            rng.choice(("fiber-degree step", "effectivity step", "section-part step")),
            frac(),
            rng.choice(("<= 0", "== 0")),
            rng.random() < 0.5,
        ),
        serialize.trace_step_from_json,
    )

    def make_report():
        pol = rnd_trivial_pol()
        return certify(rng.randint(2, 4), pol, rnd_candidate())

    schema("StabilityReport", make_report, serialize.stability_report_from_json)

    def make_scan():
        pol = rnd_trivial_pol()
        bounds = EnumerationBounds(
            a_max=Fraction(rng.randint(0, 2)), delta_max=Fraction(rng.randint(0, 1))
        )
        return enumerate_candidates(2, pol, bounds)

    schema("ScanResult", make_scan, serialize.scan_result_from_json)

    per_schema = 100
    failures = []
    for name, make, parser, needs_model in cases:
        for _ in range(per_schema):
            made = make()
            obj, model = made if needs_model else (made, None)
            text = json.dumps(serialize.to_jsonable(obj), sort_keys=True)
            data = json.loads(text)
            back = parser(data, model) if needs_model else parser(data)
            round_text = json.dumps(serialize.to_jsonable(back), sort_keys=True)
            if back != obj or round_text != text:
                failures.append(name)
                break
    verdict(
        7,
        not failures,
        f"{len(cases)} schemas x {per_schema} objects round-trip bit-exactly"
        + ("" if not failures else f"; failing: {sorted(set(failures))}"),
    )
