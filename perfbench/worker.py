"""One workload in a fresh process: set up, then timed rounds of its ops.

    python3 perfbench/worker.py --workload W --seed N --setup-only
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --result PATH

``--setup-only`` stops after ``import spintrack`` and the scenario parse and
parameter build, so the caller can time a cold start.  Otherwise rounds of
the workload's ops repeat until the next round would overrun ``--seconds``
(at least one round; with ``--trace 1`` untraced and traced rounds
alternate, at least one of each).  The result, written as JSON to
``--result``, holds the round times, each op's time in every untraced
round, each op's outcome and output fingerprint, the peak resident set, and with tracing the per-round trace
summaries.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (needs the path set above)
from spans import Tracer  # noqa: E402


def run_round(wl, workdir: Path, tracer: Tracer | None):
    """Run every op once; returns (wall seconds, CPU seconds, per-op outcomes)."""
    outcomes = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for op in wl.ops:
        t_op = time.perf_counter()
        try:
            if tracer is None:
                res = op.run(workdir)
            else:
                with tracer.span(f"op.{op.name}"):
                    res = op.run(workdir)
            res["ok"] = True
        except workloads.GateError as exc:
            res = {"ok": False, "error": f"gate: {exc}"}
        except Exception as exc:  # an op that raises is a failed op, not a crash
            res = {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc(limit=8)}
        res["seconds"] = time.perf_counter() - t_op
        outcomes.append(res)
    return time.perf_counter() - t0, time.process_time() - c0, outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, ROOT)
    if args.setup_only:
        return 0

    workdir = ROOT / ".bench_out" / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    untraced, untraced_cpu, untraced_op_s, traced, summaries = [], [], [], [], []
    first: list[dict] | None = None
    attempted = failed = 0
    failures = []
    start = time.perf_counter()
    i = 0
    while True:
        tracing = args.trace == 1 and i % 2 == 1
        tracer = Tracer() if tracing else None
        if tracer is not None:
            with tracer.installed():
                seconds, _, outcomes = run_round(wl, workdir, tracer)
            summaries.append(tracer.summary())
            traced.append(seconds)
        else:
            seconds, cpu, outcomes = run_round(wl, workdir, None)
            untraced.append(seconds)
            untraced_cpu.append(cpu)
            untraced_op_s.append([res["seconds"] for res in outcomes])
        if first is None:
            first = outcomes
        for op, res, ref in zip(wl.ops, outcomes, first):
            attempted += 1
            if res["ok"] and ref.get("ok") and res["sha256"] != ref["sha256"]:
                res = {"ok": False, "error": "output differs from the first round"
                       + (" under tracing" if tracing else "")}
            if not res["ok"]:
                failed += 1
                failures.append({"round": i, "op": op.name, **res})
        i += 1
        elapsed = time.perf_counter() - start
        if args.trace == 1 and not traced:
            continue
        upcoming = traced if args.trace == 1 and i % 2 == 1 else untraced
        if elapsed + statistics.median(upcoming) > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "work": wl.work,
        "round_s": untraced,
        "round_cpu_s": untraced_cpu,
        "op_s": untraced_op_s,
        "traced_round_s": traced,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "ops": [{"name": op.name, "inputs": op.inputs, "work": op.work, **res}
                for op, res in zip(wl.ops, first)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": summaries,
    }
    Path(args.result).write_text(json.dumps(result, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
