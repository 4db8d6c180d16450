"""Smoke tests of the benchmark itself: python3 -m pytest bench -q

Each workload runs a few operations on tiny inputs and must pass its
oracle; the same operations with a perturbed output must be counted as
failures.  The command-line contract is checked against BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from loop import ROOT, closed_loop
from workloads import TINY, Cli, Codec, Duality, Sweep

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def perturb_sweep(report):
    return dataclasses.replace(report, target_slope=report.target_slope + 1)


def perturb_codec(out):
    return out + " " if isinstance(out, str) else dataclasses.replace(out, **{
        dataclasses.fields(out)[0].name: None})


def perturb_duality(solution):
    return dataclasses.replace(solution, right_page=solution.right_page + 1)


def perturb_cli(proc):
    return subprocess.CompletedProcess(proc.args, proc.returncode + 1, proc.stdout, proc.stderr)


CASES = [
    (Sweep(TINY), perturb_sweep, 3),
    (Codec(TINY), perturb_codec, 40),
    (Duality(TINY), perturb_duality, 20),
    (Cli(), perturb_cli, 18),
]


@pytest.mark.parametrize("workload, perturb, ops", CASES, ids=lambda c: getattr(c, "name", ""))
def test_workload_passes_and_perturbed_output_fails(workload, perturb, ops):
    state = workload.setup(7)
    rng = random.Random(7)
    block = rng.sample(state.ops, len(state.ops))[:ops]
    tally = closed_loop(lambda: block, 0, workload.speed)
    assert tally.attempted == len(block)
    assert tally.failed == 0, tally.problems

    bad = [dataclasses.replace(op, call=lambda op=op: perturb(op.call())) for op in block]
    tally = closed_loop(lambda: bad, 0)
    assert tally.failed / tally.attempted > 0
    assert tally.failed == tally.attempted, tally.problems


def test_same_seed_reproduces_exact_counts():
    digests = []
    for _ in range(2):
        state = Sweep(TINY).setup(11)
        digests.append(closed_loop(lambda: state.ops, 0).digest())
    assert digests[0] == digests[1]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    proc = run_bench(ROOT, "--workload", "duality", "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
