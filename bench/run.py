"""weierfm benchmark: one workload, one closed-loop client, checked outputs.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
traced run and reports the per-layer metrics.  Human-readable lines and
two JSON lines (``env``: where and what ran; ``counts``: the exact counts
the run produced) come first; the last line of standard output is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status 0 means the run completed (``correct`` says whether every
output matched its closed form); 2 means it could not run at all, for
instance because the library's sources are not in this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys

from loop import ROOT, SRC, SourceMissing, closed_loop, end_to_end, timed_setups
from workloads import WORKLOADS, peak_rss_kib


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".us"):
        return "us"
    if name.endswith((".ms", "_ms")) or name.startswith("self_ms."):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_kb_per_report"):
        return "KiB"
    if name.endswith("bytes_per_report"):
        return "B"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "weierfm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def env_stamp(args) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "loop": "closed",
    }


def measure(workload, seed: int, seconds: float):
    state, setups = timed_setups(lambda: workload.setup(seed), workload.setup_reps)
    rng = random.Random(f"order:{seed}")
    tally = closed_loop(lambda: rng.sample(state.ops, len(state.ops)), seconds, workload.speed)
    metrics = end_to_end(tally, setups, peak_rss_kib(workload))
    busy, raw = tally.busy_s(), tally.busy_s(raw=True)
    print(f"{workload.name}: {tally.attempted} ops in {tally.blocks} blocks, "
          f"{sum(tally.units)} {workload.unit}, busy {busy:.3f} s scaled "
          f"({raw:.3f} s wall, host speed {busy / raw:.3f}) of {tally.wall_s:.3f} s, "
          f"failed_ratio {tally.failed / tally.attempted:.6f}")
    for kind in sorted(set(tally.kinds)):
        print(f"  {kind}: {tally.kinds.count(kind)} ops, "
              f"{tally.throughput(kind):.1f} {workload.unit}/s")
    counts = {"block_totals": tally.block_totals(), "keys": len(tally.counts),
              "digest": tally.digest()}
    return metrics, tally.attempted, tally.failed, tally.problems, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]()
    try:
        stamp = env_stamp(args)
        if args.trace:
            from tracing import traced_run

            state = workload.setup(args.seed)
            rng = random.Random(f"order:{args.seed}")
            block = rng.sample(state.ops, len(state.ops))
            raw, attempted, failed, problems = traced_run(workload, args.seed, block)
            metrics = {name: (value, unit_of(name)) for name, value in raw.items()}
            counts = {name: value for name, value in raw.items() if unit_of(name) == "count"}
        else:
            metrics, attempted, failed, problems, counts = measure(
                workload, args.seed, args.seconds)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stamp["loadavg_after"] = os.getloadavg()
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"env": stamp}))
    print(json.dumps({"counts": counts}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
