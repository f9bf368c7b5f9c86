"""groupkit benchmark: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload {paper,large,tables} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. Every pass
over the workload's op list runs in a fresh interpreter (bench/worker.py) on
one thread; passes repeat until --seconds have passed.

--trace 0 prints the end-to-end metrics: setup_s (fresh interpreter to
groupkit imported and inputs generated; median over every worker start),
wall_s (median time of one pass over the op list), op_p50_ms (median op
latency of a pass, median over passes), op_tail_ms (a fixed percentile of all
op latencies of the run), peak_rss_mb (ru_maxrss of a pass's worker, median over
passes). Times are scaled to a reference machine speed measured alongside
them (speed.py).

--trace 1 alternates untraced passes with passes whose groupkit functions are
wrapped (bench/tracing.py), checks that all gave the same answers, and prints
the per-layer metrics, each the median over traced passes of its total in one
pass, plus trace.overhead_frac. Spans go to bench/out/.

Every line but the last is for people; the last is one JSON object with
correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from speed import REF_S, reference_s  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_STARTS = 15


def src_lines() -> int:
    """Non-blank lines of the Python files under src/groupkit."""
    return sum(1 for path in sorted((ROOT / "src" / "groupkit").rglob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def spawn(args: argparse.Namespace, *extra: str) -> tuple[float, float, dict | None]:
    """Start a worker; returns its time to ready, unscaled and scaled, and its report."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    refs = [reference_s() for _ in range(5)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        refs += [reference_s() for _ in range(5)]
        rest = proc.stdout.read()
        code = proc.wait()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker {' '.join(extra)} exited with {code}")
    report = json.loads(rest.splitlines()[-1]) if rest.strip() else None
    return ready, ready * REF_S / statistics.median(refs), report


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "groupkit" / "__init__.py").is_file():
        print(f"no groupkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    lines = src_lines()

    if args.trace == 0:
        starts = [spawn(args, "--setup-only") for _ in range(SETUP_STARTS)]
        passes: list[dict] = []
        begin = time.perf_counter()
        while (time.perf_counter() - begin < args.seconds
               or sum(len(p["latencies"]) for p in passes) < workload.min_samples):
            starts.append(spawn(args))
            passes.append(starts[-1][2])
        lat = [x for p in passes for x in p["latencies"]]
        metrics = {
            "setup_s": (statistics.median(scaled for _, scaled, _ in starts), "s"),
            "wall_s": (statistics.median(p["round_s"] for p in passes), "s"),
            "op_p50_ms": (1000 * statistics.median(statistics.median(p["latencies"]) for p in passes), "ms"),
            "op_tail_ms": (1000 * percentile(lat, workload.tail_pct), "ms"),
            "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
        }
        print(f"# {args.workload} seed={args.seed}: {len(passes)} passes, "
              f"{len(lat)} latency samples, op_tail_ms is p{workload.tail_pct:g}")
        print(f"# unscaled: setup_s = {statistics.median(raw for raw, _, _ in starts):.6g} s, "
              f"wall_s = {statistics.median(p['raw_round_s'] for p in passes):.6g} s")
    else:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        for stale in out_dir.glob(f"spans-{args.workload}-{args.seed}-*.jsonl"):
            stale.unlink()
        plain: list[dict] = []
        traced: list[dict] = []
        begin = time.perf_counter()
        while not traced or time.perf_counter() - begin < args.seconds:
            plain.append(spawn(args)[2])
            spans = out_dir / f"spans-{args.workload}-{args.seed}-{len(traced)}.jsonl"
            traced.append(spawn(args, "--trace", str(spans))[2])
        passes = plain + traced
        for name in traced[0]["missing"]:
            print(f"# {name} not found in groupkit: its metrics read 0")
        base = statistics.median(p["round_s"] for p in plain)
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_frac"] = statistics.median(p["round_s"] for p in traced) / base - 1
        layers["src.lines"] = lines
        units = tracing.metric_units()
        metrics = {name: (layers[name], unit) for name, (unit, _) in units.items()}
        print(f"# {len(plain)} untraced and {len(traced)} traced passes; "
              f"spans written to {out_dir.relative_to(ROOT)}/spans-{args.workload}-{args.seed}-*.jsonl")

    same = all(p["answers"] == passes[0]["answers"] for p in passes)
    if not same:
        print("# the passes gave different answers")
    run = {key: sum(p[key] for p in passes) for key in ("attempted", "failed")}
    run["failures"] = [f for p in passes for f in p["failures"]][:20]
    correct = same and run["failed"] == 0
    for failure in run["failures"]:
        print(f"# FAILED {failure}")
    print(f"# fail_frac = {run['failed'] / run['attempted']:.6f} "
          f"({run['failed']} of {run['attempted']} ops)")
    print(f"# src.lines = {lines}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
