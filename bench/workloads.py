"""The four workloads: inputs built from the seed, one Op per input.

sweep    transform_stability over the criterion-5 mix plus a rho=2 lattice
codec    JSON encode / decode of objects held since set-up
duality  solve_scenario over every feasible scenario up to a dimension ceiling
cli      one ``python -m weierfm.cli <cmd> --json`` child process per call

Every workload's set-up imports the library afresh, so set-up time carries
the import.  The library is called with its default options only.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import oracle as o
from loop import FRACTION_SPEED, OUT, ROOT, SRC, HostSpeed, Op, fresh_import

TS = (Fraction(1, 2), Fraction(1), Fraction(2))  # criterion 5's t and s values
CLI_TIMEOUT_S = 120
SPAWN_REFERENCE_S = 0.040  # `python -c pass` on an idle 2-vCPU host, Python 3.11


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``TINY`` keeps the smoke tests short."""

    sweep_ns: tuple[int, ...] = (2, 3)  # both signs on both presets
    sweep_top_n: int = 4  # one sign per preset, seeded
    rho2_ns: tuple[int, ...] = (2,)
    rho2_delta_max: int = 3
    duality_max_n: int = 24
    codec_duality_max_n: int = 6


FULL = Scale()
TINY = Scale(sweep_ns=(2,), sweep_top_n=3, rho2_delta_max=1, duality_max_n=3,
             codec_duality_max_n=2)


def surface(wf, lat: o.Lattice):
    """The library's model for a lattice: its preset, or one the
    benchmark builds."""
    if lat.name in wf.PRESETS:
        return wf.get_preset(lat.name).model
    zero = tuple(Fraction(k) for k in lat.canonical)
    return wf.SurfaceModel(lat.rho, lat.gram, zero, all(k == 0 for k in zero), zero)


def scan_inputs(wf, spec: o.ScanSpec):
    model = surface(wf, spec.lat)
    pol = wf.Polarization(model, spec.t, spec.s, tuple(Fraction(x) for x in spec.lat.h))
    bounds = (wf.EnumerationBounds() if spec.delta_max == o.DELTA_MAX
              else wf.EnumerationBounds(delta_max=Fraction(spec.delta_max)))
    return wf.LineBundleX(model, spec.m), pol, bounds


# -- sweep ---------------------------------------------------------------------


def sweep_specs(seed: int, scale: Scale) -> list[o.ScanSpec]:
    """The criterion-5 presets with n in {2, 3} and both signs, n = 4 with
    one sign each (one preset -4, the other +4), and the rho=2 lattice with
    both signs.  As many operations sit below the middle size class as
    above it, so the median latency lands inside one class, not on an edge
    between two."""
    rng = random.Random(f"sweep:{seed}")
    specs = [
        o.ScanSpec(lat, sign * n, rng.choice(TS), rng.choice(TS), dmax)
        for lat, ns, dmax in ((o.K3, scale.sweep_ns, o.DELTA_MAX),
                              (o.ENRIQUES, scale.sweep_ns, o.DELTA_MAX),
                              (o.RHO2, scale.rho2_ns, scale.rho2_delta_max))
        for n in ns
        for sign in (-1, 1)
    ]
    sign = rng.choice((-1, 1))
    for lat in (o.K3, o.ENRIQUES):
        specs.append(o.ScanSpec(lat, sign * scale.sweep_top_n, rng.choice(TS), rng.choice(TS),
                                o.DELTA_MAX))
        sign = -sign
    return specs


def traced_stability(wf, tracer, lb, pol, bounds):
    """transform_stability's steps, each through its public function."""
    result = tracer.call("fm.transform_char", wf.transform_char, lb)
    mu = tracer.call("fm.slope", wf.slope, result.char, pol)
    n = abs(lb.m)
    if lb.m > 0:
        tracer.call("duality.duality_decision", wf.duality_decision,
                    wf.SheafScenario(n=3, c=0, wit=wf.WitType.WIT1, dim_shift=0))
    target = tracer.call("stability.target_slope", wf.target_slope, n, pol)
    cands = tracer.call("stability.candidate_grid", wf.stability.candidate_grid,
                        n, pol.model.picard_rank, bounds)
    reports = tuple(tracer.call("stability.certify", wf.certify, n, pol, c) for c in cands)
    violation = any(r.verdict is wf.Verdict.VIOLATION for r in reports)
    return SimpleNamespace(
        transform=result, transform_slope=mu, search_rank=n, target_slope=target,
        stable=not violation, scan=SimpleNamespace(reports=reports, any_violation=violation),
    )


class Sweep:
    name = "sweep"
    unit = "candidates"
    setup_reps = 15
    children = False
    speed = FRACTION_SPEED

    def __init__(self, scale: Scale = FULL) -> None:
        self.scale = scale

    def setup(self, seed: int):
        (wf,) = fresh_import("weierfm")
        ops = []
        for spec in sweep_specs(seed, self.scale):
            lb, pol, bounds = scan_inputs(wf, spec)
            ops.append(Op(
                key=spec.key,
                units=spec.candidates,
                call=lambda lb=lb, pol=pol, b=bounds: wf.transform_stability(lb, pol, b),
                check=lambda out, spec=spec: o.check_stability(spec, out),
                kind=f"rho{spec.lat.rho}",
                traced=lambda tracer, lb=lb, pol=pol, b=bounds:
                    traced_stability(wf, tracer, lb, pol, b),
            ))
        return SimpleNamespace(wf=wf, ops=ops)


# -- codec ---------------------------------------------------------------------


def codec_objects(wf, ser, scale: Scale) -> list[tuple[str, object, object]]:
    """(kind, object, decoder): stability reports from a rho=1 and a rho=2
    scan, relations and conclusions from duality solutions.  The objects do
    not depend on the seed (only their order does): their sizes set the
    codec's cost, and a seed should not move it."""
    objects = []
    for lat, n, t, s, dmax in ((o.K3, 2, TS[0], TS[1], o.DELTA_MAX),
                               (o.RHO2, 2, TS[1], TS[2], scale.rho2_delta_max)):
        spec = o.ScanSpec(lat, -n, t, s, dmax)
        report = wf.transform_stability(*scan_inputs(wf, spec))
        objects += [("StabilityReport", r, ser.stability_report_from_json)
                    for r in report.scan.reports]
    for n, c, wit, shift in duality_keys(scale.codec_duality_max_n):
        sol = wf.solve_scenario(wf.SheafScenario(n, c, wf.WitType(wit), shift))
        objects += [("DerivedRelation", rel, ser.relation_from_json) for rel in sol.relations]
        objects.append(("Conclusion", sol.conclusion, ser.conclusion_from_json))
    return objects


def traced_encode(tracer, ser, obj):
    data = tracer.call("serialize.to_jsonable", ser.to_jsonable, obj)
    return tracer.call("json.dumps", json.dumps, data)


def traced_decode(tracer, decoder, text):
    data = tracer.call("json.loads", json.loads, text)
    return tracer.call("serialize.from_json", decoder, data)


class Codec:
    name = "codec"
    unit = "objects"
    setup_reps = 3
    children = False
    speed = FRACTION_SPEED

    def __init__(self, scale: Scale = FULL) -> None:
        self.scale = scale

    def setup(self, seed: int):
        wf, ser = fresh_import("weierfm", "weierfm.serialize")
        ops = []
        for i, (kind, obj, decoder) in enumerate(codec_objects(wf, ser, self.scale)):
            text = json.dumps(ser.to_jsonable(obj))
            counts = {f"{kind}.bytes": len(text.encode())}

            def check_encode(out, text=text, obj=obj, decoder=decoder, counts=counts):
                o.check_encoded(out, text, decoder(json.loads(out)), obj)
                return counts

            def check_decode(out, text=text, obj=obj, counts=counts):
                o.check_encoded(json.dumps(ser.to_jsonable(out)), text, out, obj)
                return counts

            ops += [
                Op((kind, i, "encode"), 1, lambda obj=obj: json.dumps(ser.to_jsonable(obj)),
                   check_encode, kind="encode",
                   traced=lambda tracer, obj=obj: traced_encode(tracer, ser, obj)),
                Op((kind, i, "decode"), 1, lambda d=decoder, t=text: d(json.loads(t)),
                   check_decode, kind="decode",
                   traced=lambda tracer, d=decoder, t=text: traced_decode(tracer, d, t)),
            ]
        return SimpleNamespace(wf=wf, ops=ops)


# -- duality -------------------------------------------------------------------


def duality_keys(max_n: int) -> list[tuple[int, int, str, int]]:
    return [
        (n, c, wit, shift)
        for n in range(1, max_n + 1)
        for c in range(n + 1)
        for wit in ("WIT0", "WIT1")
        for shift in (-1, 0, 1)
        if o.feasible(n, c, shift)
    ]


def page_statuses(grid) -> tuple:
    return tuple(sorted((pos, t.status.value) for pos, t in grid.terms.items()))


def traced_solve(wf, tracer, scenario):
    """solve_scenario's steps up to the relations, each through its public
    function; also notes whether degenerate() changed any status."""
    left, right = tracer.call("duality.build_pages", wf.build_pages, scenario)
    before = page_statuses(left), page_statuses(right)
    left, left_page = tracer.call("duality.degenerate", wf.degenerate, left)
    right, right_page = tracer.call("duality.degenerate", wf.degenerate, right)
    active = before != (page_statuses(left), page_statuses(right))
    relations = tracer.call("duality.compare_limits", wf.compare_limits, left, right)
    return SimpleNamespace(left_page=left_page, right_page=right_page,
                           relations=relations, degenerate_active=active)


def check_traced_solution(key, sol) -> dict:
    o.expect(sol.right_page == 2, f"scenario {key}: right page {sol.right_page}")
    return {"left_page": sol.left_page,
            **o.relation_counts(type(rel).__name__ for rel in sol.relations)}


class Duality:
    name = "duality"
    unit = "scenarios"
    setup_reps = 15
    children = False
    speed = FRACTION_SPEED

    def __init__(self, scale: Scale = FULL) -> None:
        self.scale = scale

    def setup(self, seed: int):
        (wf,) = fresh_import("weierfm")
        ops = []
        for key in duality_keys(self.scale.duality_max_n):
            n, c, wit, shift = key
            scenario = wf.SheafScenario(n=n, c=c, wit=wf.WitType(wit), dim_shift=shift)
            ops.append(Op(
                key, 1, lambda sc=scenario: wf.solve_scenario(sc),
                lambda out, key=key: o.check_solution(key, out), kind=f"n{n}",
                traced=lambda tracer, sc=scenario: traced_solve(wf, tracer, sc),
                traced_check=lambda out, key=key: check_traced_solution(key, out),
            ))
        return SimpleNamespace(wf=wf, ops=ops)


# -- cli -----------------------------------------------------------------------

MODEL_FILE = OUT / "rho2_lattice.json"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_cli(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "weierfm.cli", *argv], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, capture_output=True, encoding="utf-8",
        timeout=CLI_TIMEOUT_S,
    )


@dataclass(frozen=True)
class CliCase:
    """One command line, its documented exit code, and a check of its
    JSON payload that returns exact counts."""

    argv: tuple[str, ...]
    rc: int
    check: object = None

    def verify(self, proc) -> dict:
        o.expect(proc.returncode == self.rc,
                 f"exit code {proc.returncode}, expected {self.rc}: {proc.stderr.strip()[-200:]}")
        if self.rc != 0:
            o.expect(proc.stdout == "", "a refused call printed a result")
            return {f"exit{self.rc}": 1}
        return {"exit0": 1, **(self.check(json.loads(proc.stdout)) or {})}


def equals(want: dict):
    def check(payload):
        o.expect(payload == want, f"output {payload}, expected {want}")
        return {}
    return check


def vec_arg(values) -> str:
    return ",".join(o.fmt_vec(values))


def cli_cases(seed: int, model_file: str) -> list[CliCase]:
    """A seeded mix of all seven subcommands plus four documented refusals.

    Values of long flags are passed as ``--flag=value``: argparse reads a
    separate ``-1/2`` or ``-1,3`` as an option, not as a value.
    """
    rng = random.Random(f"cli:{seed}")
    mf = ["--model-file", model_file, "--h=1,1"]
    nonzero = [-3, -2, -1, 1, 2, 3]

    def src(lat):
        return mf if lat is o.RHO2 else ["--preset", lat.name]

    def vec(lat, lo, hi):
        return tuple(Fraction(rng.randint(lo, hi), rng.choice((1, 2))) for _ in range(lat.rho))

    cases = []
    for lat in (rng.choice((o.K3, o.ENRIQUES, o.GENERAL_DEMO)), o.RHO2):
        m = rng.randint(-6, 6)
        argv = ["transform", *src(lat)[:2], "-m", str(m), "--json"]
        cases.append(CliCase(tuple(argv), 0, equals(o.transform_json(lat, m))))
    for lat in (rng.choice((o.K3, o.ENRIQUES)), o.RHO2):
        t, s, ch0 = rng.choice(TS), rng.choice(TS), rng.choice(nonzero)
        a, delta = Fraction(rng.randint(-4, 4), 2), vec(lat, -3, 3)
        argv = ["slope", *src(lat), "-t", o.fmt(t), "-s", o.fmt(s), f"--ch0={ch0}",
                f"--ch1-theta={o.fmt(a)}", f"--ch1-delta={vec_arg(delta)}", "--json"]
        want = {"slope": o.fmt(o.slope_value(lat, t, s, ch0, a, delta))}
        cases.append(CliCase(tuple(argv), 0, equals(want)))
    for lat in (rng.choice((o.K3, o.ENRIQUES, o.GENERAL_DEMO)), o.RHO2):
        ch0, a, delta = rng.choice(nonzero), Fraction(rng.randint(-4, 4), 2), vec(lat, -3, 3)
        argv = ["dual", *src(lat)[:2], f"--ch0={ch0}", f"--ch1-theta={o.fmt(a)}",
                f"--ch1-delta={vec_arg(delta)}", "--json"]
        cases.append(CliCase(tuple(argv), 0, equals(o.dual_json(ch0, a, delta))))
    for lat in (rng.choice((o.K3, o.ENRIQUES)), o.RHO2):
        m, twist = rng.choice(nonzero), vec(lat, -2, 2)
        argv = ["commute", *src(lat)[:2], "-m", str(m), f"--twist={vec_arg(twist)}", "--json"]
        want = {"line_bundle": {"m": m, "twist": o.fmt_vec(twist)}, "kernel": "paper",
                "commutes": True}
        cases.append(CliCase(tuple(argv), 0, equals(want)))
    for key in rng.sample(duality_keys(6), 2):
        n, c, wit, shift = key
        argv = ["ss-duality", "-n", str(n), "-c", str(c), "--wit", wit,
                "--dim-shift", str(shift), "--json"]
        cases.append(CliCase(tuple(argv), 0,
                             lambda p, key=key: o.check_ss_duality_json(key, p)))
    for lat in (rng.choice((o.K3, o.ENRIQUES)), o.RHO2):
        t, s, n = rng.choice(TS), rng.choice(TS), rng.randint(2, 4)
        r, a, e = rng.randint(1, n), Fraction(rng.randint(-2, 12), 2), rng.randint(0, 1)
        delta = tuple(Fraction(rng.randint(-3, 3)) for _ in range(lat.rho))
        argv = ["certify", *src(lat), "-t", o.fmt(t), "-s", o.fmt(s), "-n", str(n),
                "-r", str(r), f"--a={o.fmt(a)}", f"--delta={vec_arg(delta)}", f"--e={e}",
                "--json"]
        cases.append(CliCase(tuple(argv), 0,
                             lambda p, args=(lat, t, s, n, r, a, delta, e):
                             o.check_certify_json(*args, p)))
    # The scans are a sixth of the calls and most of the time, so their
    # inputs are fixed and the 90th percentile lands inside the two
    # enriques scans of each block.
    one, two = Fraction(1), Fraction(2)
    for spec, full in ((o.ScanSpec(o.ENRIQUES, 3, one, two, o.DELTA_MAX), False),
                       (o.ScanSpec(o.ENRIQUES, -3, one, two, o.DELTA_MAX), False),
                       (o.ScanSpec(o.K3, -4, one, one, o.DELTA_MAX), True)):
        argv = ["scan", "--preset", spec.lat.name, "-m", str(spec.m), "-t", o.fmt(spec.t),
                "-s", o.fmt(spec.s), "--json"] + (["--full-reports"] if full else [])
        cases.append(CliCase(tuple(argv), 0,
                             lambda p, spec=spec, full=full: o.check_scan_json(spec, p, full)))
    preset = rng.choice((o.K3, o.ENRIQUES)).name
    n = rng.randint(1, 5)
    refusals = [
        CliCase(("scan", "--preset", preset, "-m", "0", "-t", "1", "-s", "1", "--json"), 2),
        CliCase(("slope", "--preset", preset, "-t", "1", "-s", "1", "--ch0", "0", "--json"), 2),
        CliCase(("transform", "--preset", "no_such_surface", "-m", "1", "--json"), 1),
        CliCase(("slope", "--preset", preset, "-t", "0.5", "-s", "1", "--ch0", "1", "--json"), 1),
        CliCase(("ss-duality", "-n", str(n), "-c", str(n + rng.randint(1, 3)), "--wit", "0",
                 "--dim-shift", "0", "--json"), 2),
    ]
    return cases + rng.sample(refusals, 4)


def subcommands(cli) -> set[str]:
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return set(action.choices)


def spawn_s(env: dict, argv: tuple[str, ...] = ("-c", "pass"), reps: int = 3) -> float:
    """Wall time of ``python <argv>`` now (median of ``reps``)."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=env, check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Cli:
    name = "cli"
    unit = "calls"
    setup_reps = 15
    children = True
    # Calls run in child processes, whose speed a start-up of the same
    # interpreter tracks better than an in-process kernel does.
    speed = HostSpeed(lambda: spawn_s(cli_env()), SPAWN_REFERENCE_S, 1.0)

    def setup(self, seed: int):
        (cli,) = fresh_import("weierfm.cli")
        OUT.mkdir(parents=True, exist_ok=True)
        MODEL_FILE.write_text(json.dumps(o.RHO2.model_json()), encoding="utf-8")
        model_file = str(MODEL_FILE.relative_to(ROOT))
        cases = cli_cases(seed, model_file)
        missing = subcommands(cli) - {c.argv[0] for c in cases}
        if missing:
            raise RuntimeError(f"cli mix misses subcommands {sorted(missing)}")
        env = cli_env()
        ops = []
        for case in cases:
            kind = case.argv[0] if case.rc == 0 else "refused"
            ops.append(Op(
                case.argv, 1, lambda argv=list(case.argv): run_cli(argv, env),
                case.verify, kind=kind,
                traced=lambda tracer, argv=list(case.argv):
                    tracer.call(f"cli.{argv[0]}", run_cli, argv, env),
            ))
        return SimpleNamespace(ops=ops)


WORKLOADS = {w.name: w for w in (Sweep, Codec, Duality, Cli)}


def peak_rss_kib(workload) -> int:
    who = resource.RUSAGE_CHILDREN if workload.children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss
