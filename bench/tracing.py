"""The traced run: spans around every call into a layer, plus layer probes.

Spans are recorded from the benchmark's own files around public functions;
nothing inside weierfm is patched.  Each span is (name, start, end, parent
span, op id) and the layer is the part of the name before the first dot.
The run

1. sets up once and takes one seeded block of the workload's operations;
2. runs that block untraced, then the same block traced, each operation
   split into the public calls it is made of (overhead = the difference);
3. runs fixed-size probes of every layer's public functions;
4. writes all spans to ``bench/out/`` and reports per-layer metrics, the
   self time of each layer over all spans, and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import oracle as o
from loop import FRACTION_SPEED, OUT, Tally, fresh_import, run_block
from workloads import (
    TS, cli_env, duality_keys, page_statuses, scan_inputs, spawn_s, surface, traced_stability,
)

LAYERS = ("bench", "fm", "ring", "stability", "duality", "serialize", "json",
          "rationals", "cli")
PROBE_SAMPLE = 200
PROBE_REPS = 3
SPAWN_REPS = 5


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: str | None = None

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def self_ms(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name.split(".")[0]] += end - start - child
        return {layer: ns / 1e6 for layer, ns in totals.items()}

    def total_ms(self, name: str, op_id: str | None = None) -> float:
        return sum(end - start for n, start, end, _, op in self.spans
                   if n == name and (op_id is None or op == op_id)) / 1e6

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]
        path.write_text(json.dumps(rows), encoding="utf-8")


class Checks:
    """Oracle checks on probe outputs, counted like operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def __call__(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(f"probe {what}: output disagrees with the closed form")

    def counts(self, what: str, check, *args) -> dict | None:
        """Run an oracle check; its counts, or None if the output is wrong."""
        try:
            counts = check(*args)
        except o.Mismatch:
            counts = None
        self(what, counts is not None)
        return counts


def scaled(measure) -> float:
    """A time from ``measure()``, scaled to the reference host speed."""
    before = FRACTION_SPEED.slowness()
    value = measure()
    return value * 2 / (before + FRACTION_SPEED.slowness())


def batch_us(tracer: Tracer, name: str, fn, arg_lists) -> float:
    """Mean µs per call of ``fn`` over ``arg_lists``; median of batches."""

    def batch():
        start = time.perf_counter_ns()
        for args in arg_lists:
            fn(*args)
        return (time.perf_counter_ns() - start) / len(arg_lists) / 1e3

    return statistics.median(scaled(lambda: tracer.call(name, batch))
                             for _ in range(PROBE_REPS))


def spawn_ms(tracer: Tracer, name: str, argv: tuple[str, ...], env: dict) -> float:
    return 1e3 * statistics.median(scaled(lambda: tracer.call(name, spawn_s, env, argv, 1))
                                   for _ in range(SPAWN_REPS))


# -- probes ------------------------------------------------------------------------


def probe_ring_fm_stability(tracer, wf, rng, checks) -> tuple[dict, list]:
    m: dict = {}
    k3 = surface(wf, o.K3)
    for rho, lat, n, dmax in ((1, o.K3, 4, o.DELTA_MAX), (2, o.RHO2, 3, 3)):
        t, s = rng.choice(TS), rng.choice(TS)
        _, pol, _ = scan_inputs(wf, o.ScanSpec(lat, -n, t, s, dmax))
        w = pol.omega().as_threefold()
        w2 = wf.x_mul(w, w)
        cands = rng.sample(o.grid(n, rho, o.A_MAX, dmax), PROBE_SAMPLE)
        ch1s = [wf.DivisorClassX(pol.model, Fraction(e) - a, tuple(-d for d in delta)).as_threefold()
                for _, a, delta, e in cands]
        m[f"ring.x_mul_rho{rho}.us"] = batch_us(tracer, "ring.x_mul", wf.x_mul,
                                                [(c, w2) for c in ch1s])
        for (r, a, delta, e), ch1 in zip(cands[:20], ch1s):
            want = o.expected_candidate(lat, t, s, n, r, a, delta, e)
            checks("ring.x_mul", wf.x_integrate(wf.x_mul(ch1, w2)) == r * want.slope)
        objs = [wf.DestabilizerCandidate(r, a, delta, e) for r, a, delta, e in cands]
        wf.certify(n, pol, objs[0])  # fill the per-polarization caches
        m[f"stability.certify_rho{rho}.us"] = batch_us(
            tracer, "stability.certify", wf.certify, [(n, pol, c) for c in objs])
        if rho == 1:
            m["stability.candidate_slope.us"] = batch_us(
                tracer, "stability.candidate_slope", wf.candidate_slope,
                [(c, pol) for c in objs])
            checks("stability.candidate_slope", all(
                wf.candidate_slope(c, pol) == o.expected_candidate(lat, t, s, n, *cand).slope
                for c, cand in zip(objs[:20], cands)))
            bounds = wf.EnumerationBounds()
            m["stability.candidate_grid.ms"] = batch_us(
                tracer, "stability.candidate_grid", wf.stability.candidate_grid,
                [(n, 1, bounds)]) / 1e3
            pol1 = pol

    t, s = pol1.t, pol1.s
    ms = [rng.choice([k for k in range(-20, 21) if k]) for _ in range(PROBE_SAMPLE)]
    lbs = [wf.LineBundleX(k3, k) for k in ms]
    m["fm.transform_char.us"] = batch_us(tracer, "fm.transform_char", wf.transform_char,
                                         [(lb,) for lb in lbs])
    chars = [wf.transform_char(lb).char for lb in lbs]
    m["fm.slope.us"] = batch_us(tracer, "fm.slope", wf.slope, [(c, pol1) for c in chars])
    checks("fm.slope", all(wf.slope(c, pol1) == -s * s * o.K3.h2 / k
                           for c, k in zip(chars, ms)))

    # One sweep operation, split into spans, for the share of certify and
    # the verdict mix; then the memory one held report costs.
    spec = o.ScanSpec(o.K3, -3, rng.choice(TS), rng.choice(TS), o.DELTA_MAX)
    lb, pol, bounds = scan_inputs(wf, spec)
    tracer.op_id = "probe.sweep"
    report = tracer.call("bench.op", traced_stability, wf, tracer, lb, pol, bounds)
    counts = (checks.counts("stability.transform_stability", o.check_stability, spec, report)
              or dict.fromkeys(o.VERDICTS, 0) | {"candidates": 1})
    m["stability.certify.share"] = (tracer.total_ms("stability.certify", "probe.sweep")
                                    / tracer.total_ms("bench.op", "probe.sweep"))
    m["stability.admissible_ratio"] = (counts["Certified"] + counts["Violation"]) / counts["candidates"]
    for verdict in o.VERDICTS:
        m[f"stability.verdict.{verdict}"] = counts[verdict]

    held_spec = o.ScanSpec(o.K3, -2, rng.choice(TS), rng.choice(TS), o.DELTA_MAX)
    _, held_pol, held_bounds = scan_inputs(wf, held_spec)
    wf.certify(2, held_pol, wf.DestabilizerCandidate(1, 0, (0,), 0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = tracer.call("stability.enumerate_candidates", wf.enumerate_candidates,
                           2, held_pol, held_bounds)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    m["stability.held_kb_per_report"] = grown / held.candidate_count / 1024
    return m, list(report.scan.reports)


def probe_duality(tracer, wf, checks) -> dict:
    m: dict = {}
    keys = [k for k in duality_keys(16) if k[0] == 16]
    scenarios = [wf.SheafScenario(n, c, wf.WitType(wit), shift) for n, c, wit, shift in keys]
    m["duality.build_pages.us"] = batch_us(tracer, "duality.build_pages", wf.build_pages,
                                           [(sc,) for sc in scenarios])
    pages = [wf.build_pages(sc) for sc in scenarios]
    m["duality.degenerate.us"] = batch_us(tracer, "duality.degenerate", wf.degenerate,
                                          [(g,) for pair in pages for g in pair])
    runs = []
    for _ in range(PROBE_REPS):
        settled = [(wf.degenerate(left)[0], wf.degenerate(right)[0]) for left, right in pages]
        runs.append(scaled(lambda: _compare_batch(tracer, wf, settled)))
    m["duality.compare_limits.us"] = statistics.median(runs)
    m["duality.solve_scenario.us"] = batch_us(tracer, "duality.solve_scenario",
                                              wf.solve_scenario, [(sc,) for sc in scenarios])
    kinds = dict.fromkeys(o.RELATION_KINDS, 0)
    active = 0
    for key, sc, (left, right) in zip(keys, scenarios, pages):
        counts = checks.counts("duality.solve_scenario", o.check_solution, key,
                               wf.solve_scenario(sc))
        if counts is None:
            continue
        for kind in o.RELATION_KINDS:
            kinds[kind] += counts[kind]
        before = page_statuses(left), page_statuses(right)
        after = page_statuses(wf.degenerate(left)[0]), page_statuses(wf.degenerate(right)[0])
        active += before != after
    for kind, count in kinds.items():
        m[f"duality.relations.{kind}"] = count
    m["duality.degenerate.active"] = active
    return m


def _compare_batch(tracer, wf, settled) -> float:
    """Like batch_us for compare_limits, which refines its pages in place
    and so needs freshly settled pages for every batch."""
    def batch():
        start = time.perf_counter_ns()
        for left, right in settled:
            wf.compare_limits(left, right)
        return (time.perf_counter_ns() - start) / len(settled) / 1e3
    return tracer.call("duality.compare_limits", batch)


def probe_serialize_rationals(tracer, wf, ser, reports, checks) -> dict:
    m: dict = {}
    dicts = [ser.to_jsonable(r) for r in reports]
    texts = [json.dumps(d) for d in dicts]
    loaded = [json.loads(t) for t in texts]
    m["serialize.to_jsonable.us"] = batch_us(tracer, "serialize.to_jsonable", ser.to_jsonable,
                                             [(r,) for r in reports])
    m["serialize.json_dumps.us"] = batch_us(tracer, "json.dumps", json.dumps,
                                            [(d,) for d in dicts])
    m["serialize.json_loads.us"] = batch_us(tracer, "json.loads", json.loads,
                                            [(t,) for t in texts])
    m["serialize.from_json.us"] = batch_us(tracer, "serialize.from_json",
                                           ser.stability_report_from_json,
                                           [(d,) for d in loaded])
    m["serialize.bytes_per_report"] = sum(len(t.encode()) for t in texts) / len(texts)
    m["serialize.encode_per_s"] = 1e6 / (m["serialize.to_jsonable.us"]
                                         + m["serialize.json_dumps.us"])
    m["serialize.decode_per_s"] = 1e6 / (m["serialize.json_loads.us"]
                                         + m["serialize.from_json.us"])
    checks("serialize.round_trip", all(ser.stability_report_from_json(d) == r
                                       for d, r in zip(loaded, reports)))

    values = [v for r in reports for v in
              (r.target_slope, r.candidate_slope, r.candidate.a, r.fiber_deg, r.proxy.pairing)]
    rat = wf.rationals
    m["rationals.format_rational.us"] = batch_us(tracer, "rationals.format_rational",
                                                 rat.format_rational, [(v,) for v in values])
    strings = [o.fmt(v) for v in values]
    m["rationals.parse_rational.us"] = batch_us(tracer, "rationals.parse_rational",
                                                rat.parse_rational, [(t,) for t in strings])
    checks("rationals", all(rat.format_rational(v) == t and rat.parse_rational(t) == v
                            for v, t in zip(values, strings)))
    return m


def cli_probe_argvs(rng) -> dict[str, list[str]]:
    t, s = o.fmt(rng.choice(TS)), o.fmt(rng.choice(TS))
    pol = ["-t", t, "-s", s]
    return {
        "transform": ["transform", "--preset", "k3_quartic", "-m", "-2", "--json"],
        "slope": ["slope", "--preset", "k3_quartic", *pol, "--ch0", "-2", "--ch1-theta", "-1",
                  "--json"],
        "dual": ["dual", "--preset", "k3_quartic", "--ch0", "2", "--ch1-theta", "-1", "--json"],
        "commute": ["commute", "--preset", "k3_quartic", "-m", "2", "--json"],
        "ss-duality": ["ss-duality", "-n", "3", "-c", "1", "--wit", "0", "--dim-shift", "0",
                       "--json"],
        "certify": ["certify", "--preset", "k3_quartic", *pol, "-n", "2", "-r", "1", "--a", "1",
                    "--e", "1", "--json"],
        "scan": ["scan", "--preset", "enriques", "-m", "3", *pol, "--json"],
    }


def probe_cli(tracer, cli, rng, checks) -> dict:
    m: dict = {}
    env = cli_env()
    start = spawn_ms(tracer, "cli.process_start", ("-c", "pass"), env)
    m["cli.process_start_ms"] = start
    m["cli.import_ms"] = spawn_ms(tracer, "cli.import", ("-c", "import weierfm.cli"), env) - start
    for sub, argv in cli_probe_argvs(rng).items():
        def main(argv=argv):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                begin = time.perf_counter()
                code = cli.main(argv)
                return code, (time.perf_counter() - begin) * 1e3
        codes = []

        def timed(main=main, sub=sub):
            code, ms = tracer.call(f"cli.main.{sub}", main)
            codes.append(code)
            return ms

        m[f"cli.main.{sub}.ms"] = statistics.median(scaled(timed) for _ in range(PROBE_REPS))
        checks(f"cli.main {sub}", codes == [0] * PROBE_REPS)
    return m


# -- the traced run ----------------------------------------------------------------


def traced_run(workload, seed: int, block) -> tuple[dict, int, int, list[str]]:
    """Return (per-layer metrics, attempted, failed, problems)."""
    untraced = Tally()
    run_block(block, untraced, workload.speed)

    tracer = Tracer()
    traced = Tally(counts=dict(untraced.counts))

    def traced_op(index, op):
        def call():
            tracer.op_id = f"{workload.name}.{index}"
            return tracer.call("bench.op", op.traced, tracer)
        return replace(op, call=call, check=op.traced_check or op.check)

    run_block([traced_op(i, op) for i, op in enumerate(block)], traced, workload.speed)

    checks = Checks()
    rng = random.Random(f"probe:{seed}")
    wf, ser, cli = fresh_import("weierfm", "weierfm.serialize", "weierfm.cli")
    tracer.op_id = "probe.layers"
    metrics, reports = probe_ring_fm_stability(tracer, wf, rng, checks)
    tracer.op_id = "probe.duality"
    metrics |= probe_duality(tracer, wf, checks)
    tracer.op_id = "probe.serialize"
    metrics |= probe_serialize_rationals(tracer, wf, ser, reports, checks)
    tracer.op_id = "probe.cli"
    metrics |= probe_cli(tracer, cli, rng, checks)

    for layer, ms in tracer.self_ms().items():
        metrics[f"self_ms.{layer}"] = ms
    overhead = traced.busy_s() - untraced.busy_s()
    metrics["trace.overhead_ms"] = overhead * 1e3
    metrics["trace.overhead_share"] = overhead / untraced.busy_s()
    metrics["trace.spans"] = len(tracer.spans)
    tracer.dump(OUT / f"trace-{workload.name}-{seed}.json")

    attempted = untraced.attempted + traced.attempted + checks.attempted
    failed = untraced.failed + traced.failed + len(checks.problems)
    problems = untraced.problems + traced.problems + checks.problems
    return metrics, attempted, failed, problems
