"""Closed-loop runner shared by every workload.

One client sends the next operation only after the previous one returned
and its output was checked.  Latency is the time inside the call; the
oracle's check runs outside it.  A run is made of whole blocks (one seeded
permutation of the workload's operations each), so every run measures the
same multiset of inputs and only their order depends on the seed.

Times are scaled to a reference host speed.  The host is shared, and
neighbours' load moved the wall time of identical work by up to 75% within
a minute.  So a fixed kernel that does not use weierfm is timed before the
first operation and again every ``HostSpeed.every_s`` (after every operation
that takes longer).  Each operation's wall time is divided by the mean
slowness (kernel time over its time on an idle host) of the two
calibrations around it and their two neighbours.  A millisecond in the
report is a millisecond on a host where the kernel takes its reference
time.  Raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from oracle import Mismatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

MAX_REPORTED_PROBLEMS = 5
REFERENCE_S = 0.0015  # reference_kernel's time on an idle 2-vCPU host, Python 3.11


def reference_kernel() -> None:
    """Fixed Fraction arithmetic, the kind weierfm spends its time in."""
    for i in range(1, 301):
        a = Fraction(i % 7 + 1, i % 5 + 2)
        b = Fraction(i % 3 + 1, i % 11 + 1)
        a * b + a - b


def kernel_s() -> float:
    """The reference kernel's wall time now (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass(frozen=True)
class HostSpeed:
    """A calibration kernel, its time on an idle host, and how often to
    time it."""

    measure: Callable[[], float]
    reference_s: float
    every_s: float

    def slowness(self) -> float:
        return self.measure() / self.reference_s


FRACTION_SPEED = HostSpeed(kernel_s, REFERENCE_S, 0.2)


class SourceMissing(RuntimeError):
    """The library sources are not in this checkout."""


def require_sources() -> None:
    if not (SRC / "weierfm" / "__init__.py").is_file():
        raise SourceMissing(f"no weierfm sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_import(*names: str) -> list:
    """Import weierfm modules from scratch (new module objects, empty
    caches), so that repeated set-ups each pay the import."""
    require_sources()
    for key in [k for k in sys.modules if k == "weierfm" or k.startswith("weierfm.")]:
        del sys.modules[key]
    modules = [importlib.import_module(name) for name in names]
    for mod in modules:
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise SourceMissing(f"{mod.__name__} imported from {mod.__file__}, not {SRC}")
    return modules


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` verifies its output and
    returns the exact counts it produced.  ``key`` names the input; the
    same key must always give the same counts."""

    key: Any
    units: int
    call: Callable[[], Any]
    check: Callable[[Any], dict]
    kind: str = "op"
    # The same operation split into public calls, each in a span, and the
    # check for that form when it differs from ``check``.
    traced: Callable[[Any], Any] | None = None
    traced_check: Callable[[Any], dict] | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    blocks: int = 0
    wall_s: float = 0.0
    # One entry per attempted op: raw seconds, units (0 if it failed),
    # kind, and the index of the slowness calibration taken just before it.
    raw_s: list[float] = field(default_factory=list)
    units: list[int] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    segments: list[int] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    counts: dict[str, dict] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, op: Op, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(f"{op.kind} {op.key!r}: {message}")

    def record_counts(self, op: Op, counts: dict) -> None:
        key = json.dumps(op.key, sort_keys=True, default=str)
        seen = self.counts.setdefault(key, counts)
        if seen != counts:
            self.fail(op, f"exact counts drifted: {counts} after {seen}")

    @property
    def scales(self) -> list[float]:
        cal = self.calibrations
        return [1 / statistics.fmean(cal[max(0, i - 1): i + 3]) for i in self.segments]

    def latencies(self) -> list[float]:
        return [t * s for t, s in zip(self.raw_s, self.scales)]

    def busy_s(self, raw: bool = False) -> float:
        """Time inside operations that succeeded."""
        scales = [1.0] * len(self.raw_s) if raw else self.scales
        return sum(t * s for t, s, u in zip(self.raw_s, scales, self.units) if u)

    def throughput(self, kind: str | None = None) -> float:
        busy = done = 0.0
        for t, s, u, k in zip(self.raw_s, self.scales, self.units, self.kinds):
            if u and kind in (None, k):
                busy += t * s
                done += u
        return done / busy if busy else 0.0

    def block_totals(self) -> dict:
        """Exact counts summed over one block (each key once)."""
        totals: dict[str, int] = {}
        for counts in self.counts.values():
            for name, value in counts.items():
                totals[name] = totals.get(name, 0) + value
        return dict(sorted(totals.items()))

    def digest(self) -> str:
        text = json.dumps(self.counts, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_op(op: Op, tally: Tally) -> Any:
    """Time one call, check its output, and account for it (unscaled)."""
    tally.attempted += 1
    tally.kinds.append(op.kind)
    start = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a failing operation is counted, the run goes on
        tally.raw_s.append(time.perf_counter() - start)
        tally.units.append(0)
        tally.fail(op, "raised " + "".join(traceback.format_exception_only(exc)).strip())
        return None
    tally.raw_s.append(time.perf_counter() - start)
    tally.units.append(0)
    try:
        counts = op.check(out)
    except Mismatch as exc:
        tally.fail(op, f"wrong output: {exc}")
        return out
    except Exception as exc:  # an output the oracle cannot even read is wrong too
        tally.fail(op, f"malformed output: {exc!r}")
        return out
    tally.record_counts(op, counts)
    tally.units[-1] = op.units
    return out


def run_block(ops: list[Op], tally: Tally, speed: HostSpeed = FRACTION_SPEED) -> None:
    """Run ``ops`` in order, calibrating the host speed between segments."""
    if not tally.calibrations:
        tally.calibrations.append(speed.slowness())
    began = time.perf_counter()
    for i, op in enumerate(ops):
        run_op(op, tally)
        tally.segments.append(len(tally.calibrations) - 1)
        if i == len(ops) - 1 or time.perf_counter() - began >= speed.every_s:
            tally.calibrations.append(speed.slowness())
            began = time.perf_counter()


def closed_loop(next_block: Callable[[], list[Op]], seconds: float,
                speed: HostSpeed = FRACTION_SPEED) -> Tally:
    """Run whole blocks until ``seconds`` are spent; at least one block.

    A further block starts only if it is expected to end no more than half
    a block past the deadline, so runs of equal length do equal work.
    """
    tally = Tally()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if tally.blocks and elapsed + 0.5 * elapsed / tally.blocks > seconds:
            break
        run_block(next_block(), tally, speed)
        tally.blocks += 1
    tally.wall_s = time.perf_counter() - start
    return tally


def timed_setups(setup: Callable[[], Any], reps: int) -> tuple[Any, list[float]]:
    """Set up ``reps`` times; keep the last state and every scaled duration."""
    durations = []
    state = None
    for _ in range(reps):
        state = None
        gc.collect()
        before = FRACTION_SPEED.slowness()
        start = time.perf_counter()
        state = setup()
        elapsed = time.perf_counter() - start
        durations.append(elapsed * 2 / (before + FRACTION_SPEED.slowness()))
    return state, durations


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(tally: Tally, setup_s: list[float], peak_rss_kib: int) -> dict:
    latencies = tally.latencies()
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "throughput": (tally.throughput(), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MiB"),
    }
