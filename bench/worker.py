"""One pass of a workload in a fresh interpreter: set up, run the op list, report.

Started by run.py, never by hand. It prints "ready" once groupkit is imported
and the inputs are generated, then, unless --setup-only, runs the op list once
and prints one JSON line with the raw measurements. run.py starts a fresh
worker for every pass, so that no cache in groupkit outlives a pass, just as
none outlives a one-off CLI call.

Ops run in this process on its one thread. A per-op deadline comes from
signal.setitimer; an op that hits it fails with latency equal to the deadline.
Durations are scaled to the reference speed (speed.py) sampled while they run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import workloads as wl  # noqa: E402
from speed import SpeedLog  # noqa: E402


class Deadline(BaseException):
    """Raised in the op by SIGALRM; BaseException so groupkit cannot catch it."""


def _alarm(signum, frame):
    raise Deadline()


def time_sections(verify, spans: list) -> None:
    """Wrap the sections of verify.run_all; each call appends (start, end) to spans.

    run_all looks the sections up as module globals, so it calls the
    wrappers. This times paper's samples from outside groupkit.
    """
    for name in wl.PAPER_SECTIONS:
        def timed(*args, _fn=getattr(verify, name), **kwargs):
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                spans.append((start, time.perf_counter()))
        setattr(verify, name, timed)


def run_op(groupkit, op: wl.Op):
    """Perform one op; returns what check() compares.

    Functions are looked up on their modules at each call, so that the
    tracer's wrappers are the ones called.
    """
    if op.kind == "axioms":
        return bool(groupkit.core.verify_group_axioms(op.table))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = groupkit.cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
    if op.kind == "paper":
        report = json.loads(out.getvalue()) if rc in (0, 1) else []
        return rc, [(r["claim"], r["status"]) for r in report]
    return rc, out.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default="", help="write spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import groupkit
    import groupkit.cli

    if Path(groupkit.__file__).resolve().parent != SRC / "groupkit":
        print(f"groupkit imported from {groupkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    ops = workload.make(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    golden = None
    if args.workload == "large" and args.seed == wl.DEFAULT_SEED:
        golden = json.loads((BENCH / "golden_large.json").read_text())
    sections: list[tuple[float, float]] = []
    if args.workload == "paper":
        time_sections(groupkit.verify, sections)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _alarm)
    speed = SpeedLog()
    speed.start()
    results = []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, workload.deadline_s)
            try:
                answer = run_op(groupkit, op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = "done"
        except Deadline:
            answer, outcome = None, "deadline"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            answer, outcome = None, f"raised {type(exc).__name__}: {exc}"
        results.append((t0, time.perf_counter(), answer, outcome))
        # each op starts from a collected heap, as a one-off CLI call does,
        # so peak RSS does not depend on where collections fell
        gc.collect()
    speed.stop()

    # answers are checked after the pass so that checking is not timed
    round_s = raw_round_s = 0.0
    latencies: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    for op, (t0, t1, answer, outcome) in zip(ops, results):
        busy, scale = speed.span(t0, t1)
        elapsed = workload.deadline_s if outcome == "deadline" else busy * scale
        round_s += elapsed
        raw_round_s += busy
        ok = outcome == "done" and wl.check(op, answer, golden)
        if op.kind == "paper":
            # fail_frac counts claims; the latency samples are the sections
            n, bad = wl.PAPER_CLAIMS, 0 if ok else wl.PAPER_CLAIMS
            samples = [b * sc for b, sc in (speed.span(*s) for s in sections)] if ok else [elapsed]
        else:
            n, bad = 1, 0 if ok else 1
            samples = [elapsed]
        attempted += n
        failed += bad
        latencies += samples
        if bad:
            failures.append(f"{op.key}: {outcome}, got {answer!r}"[:300])

    report = {
        "round_s": round_s,
        "raw_round_s": raw_round_s,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "answers": [repr(answer) for _, _, answer, _ in results],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.summary()
        report["missing"] = tracer.missing
        tracer.write(args.trace)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
