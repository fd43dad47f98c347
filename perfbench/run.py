"""spintrack benchmark: two workloads, timed end to end, traced per layer.

    python3 perfbench/run.py --workload ensemble|analysis \\
        --seed N --seconds S --trace 0|1 [--compare EARLIER_RESULT.json]

Run from the root of a source checkout; ``src/`` is imported directly, so
nothing needs installing.  Each workload runs in a fresh process at
``--workers 1`` with BLAS pinned to one thread:

* ``--trace 0`` times set-up (fresh interpreter -> ``import spintrack`` +
  scenario parse + parameter build, repeated and reported as a median) and
  the work phase (rounds of every op of the workload, each op gated for
  correctness), and prints the end-to-end metrics.
* ``--trace 1`` alternates untraced and traced rounds and prints the
  per-layer metrics from the traced ones, with the tracing overhead.

Every run writes its full result, provenance and per-op output fingerprints
to ``.bench_out/``.  ``--compare`` takes such a file from an earlier run and
reports per op whether the output is bit-identical, and each metric's ratio.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ensemble", "analysis")
SETUP_RUNS = 5
RUN_TIMEOUT_S = 170.0

# Layer-metric definitions.  Shares are self time over the traced round's
# wall time; they are 0 where a workload does not reach the function.
SHARE_FUNCTIONS = (
    "numerics.trial_normals", "numerics.ou_increment", "numerics.mat_expm",
    "lqg_filter.run_ensemble", "riccati.riccati_at_times",
    "riccati.linearized_riccati_curve", "total_covariance.integrate_theta",
    "freq.sensitivity_norm", "freq.bode", "freq.closure_frequency",
    "truth_sim.simulate_open_loop", "cli.write_csv", "cli.parse_scenario",
    "qsme.propagate_grid", "qsme.bayes_grid_update", "qsme.sme_step",
    "qsme.simulate_ramp_ensemble", "qsme.simulate_qnd_ensemble",
)
TOTAL_SHARE_FUNCTIONS = ("total_covariance.transient_error_curve",
                         "riccati.integrate_estimator_riccati")
CALL_COUNTS = ("numerics.ou_increment", "numerics.mat_expm",
               "riccati.integrate_estimator_riccati", "qsme.sme_step")
KERNEL_COUNTS = ("numerics.normals", "lqg_filter.run_ensemble.trial_steps",
                 "riccati.integrate_estimator_riccati.distinct",
                 "qsme.propagate_grid.hyp_steps", "qsme.batched_steps")
NORMAL_SOURCES = ("numerics.trial_normals", "numerics.RngStream.normals_at")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them (n >= 2)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timing(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, timeout):
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=timeout)


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = run_child(["--workload", workload, "--seed", str(seed), "--setup-only"], 60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr[-2000:]}")
    return times


def _git(*args):
    if not (ROOT / ".git").exists():  # a plain export inside some other repository
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cache_size(level: int):
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            if int((idx / "level").read_text()) == level and \
                    (idx / "type").read_text().strip() != "Instruction":
                return (idx / "size").read_text().strip()
        except OSError:
            continue
    return None


def provenance(seed: int, rounds: int) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build-info layout differs between numpy releases
        blas = None
    status = _git("status", "--porcelain")
    env = child_env()
    return {
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: env[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "seed": seed,
        "rounds": rounds,
    }


def end_to_end(res: dict, setup: list[float]) -> dict:
    wall = timing(res["round_s"])
    out = {
        "setup_s": {**timing(setup), "unit": "s"},
        "wall_s": {**wall, "unit": "s"},
        "cpu_s": {**timing(res["round_cpu_s"]), "unit": "s"},
        "peak_rss_mb": {"median": res["peak_rss_mb"], "n": 1, "unit": "MB"},
        "failed_frac": {"median": res["failed"] / res["attempted"], "n": res["attempted"],
                        "unit": "1"},
    }
    for metric, key in (("trial_steps_per_s", "trial_steps"),
                        ("state_updates_per_s", "state_updates")):
        if key in res["work"]:
            # over the time of the ops that do this work, not the whole round
            busy = [i for i, op in enumerate(res["ops"]) if op["work"]]
            rates = [res["work"][key] / sum(op_s[i] for i in busy) for op_s in res["op_s"]]
            out[metric] = {**timing(rates), "unit": "1/s", "work": res["work"][key]}
    return out


def per_layer(res: dict) -> dict:
    """Per-layer metrics from the traced rounds (medians over rounds)."""
    rounds = res["trace"]
    walls = res["traced_round_s"]

    def med(fn):
        return statistics.median(fn(s, w) for s, w in zip(rounds, walls))

    def fstat(s, name, key):
        return s["functions"].get(name, {}).get(key, 0)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (med(lambda s, w: sum(
            v["self_s"] for k, v in s["functions"].items()
            if k.startswith(layer + ".")) / w), "1")
    for name in SHARE_FUNCTIONS:
        out[f"{name}.self_share"] = (med(lambda s, w: fstat(s, name, "self_s") / w), "1")
    for name in TOTAL_SHARE_FUNCTIONS:
        out[f"{name}.total_share"] = (med(lambda s, w: fstat(s, name, "total_s") / w), "1")
    first = rounds[0]
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (fstat(first, name, "calls"), "count")
    for key in KERNEL_COUNTS:
        out[key] = (first["counts"].get(key, 0), "count")
    calls = fstat(first, "riccati.integrate_estimator_riccati", "calls")
    distinct = first["counts"].get("riccati.integrate_estimator_riccati.distinct", 0)
    out["riccati.integrate_estimator_riccati.useful_frac"] = (
        distinct / calls if calls else 1.0, "1")
    out["cli.write_csv.bytes"] = (first["counts"].get("cli.write_csv.bytes", 0), "B")
    normals = first["counts"].get("numerics.normals", 0)
    out["numerics.ns_per_normal"] = (med(lambda s, w: sum(
        fstat(s, n, "self_s") for n in NORMAL_SOURCES)) * 1e9 / normals if normals else 0.0, "ns")
    out["trace.spans"] = (first["spans"], "count")
    out["trace.round_s"] = (statistics.median(walls), "s")
    out["trace.overhead_frac"] = (statistics.median(walls) / statistics.median(res["round_s"])
                                  - 1.0, "1")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def compare(result: dict, earlier_path: str) -> dict:
    earlier = json.loads(Path(earlier_path).read_text())
    old_ops = {o["name"]: o for o in earlier.get("ops", [])}
    ops = {}
    for op in result["ops"]:
        old = old_ops.get(op["name"])
        ops[op["name"]] = None if old is None or "sha256" not in old or "sha256" not in op \
            else op["sha256"] == old["sha256"]

    def values(r):
        out = {k: m["median"] for k, m in r.get("end_to_end", {}).items()}
        out.update({k: m["value"] for k, m in r.get("metrics", {}).items()})
        return out

    before = values(earlier)
    ratios = {k: v / before[k] for k, v in values(result).items() if before.get(k)}
    return {"earlier": earlier_path, "bit_identical": ops, "ratio": ratios}


def report(result: dict, detail: dict):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"rounds {len(result['round_s'])} untraced, {len(result['traced_round_s'])} traced")
    for name, m in detail.items():
        if "q1" in m:
            print(f"  {name:<22} {m['median']:.6g} {m['unit']}  "
                  f"(median; q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})")
        else:
            print(f"  {name:<22} {m['median']:.6g} {m['unit']}  (n {m['n']})")
    for i, op in enumerate(result["ops"]):
        state = "ok" if op["ok"] else f"FAILED {op.get('error')}"
        op_s = [r[i] for r in result["op_s"]] or [op["seconds"]]
        print(f"  op {op['name']:<20} {statistics.median(op_s):8.3f} s  {state}  "
              f"{op.get('measured', {})}  "
              f"sha256 {op.get('sha256', '-')[:16]}")
    for f in result["failures"]:
        print(f"  failure round {f['round']} op {f['op']}: {f.get('error')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", help="result JSON of an earlier run")
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload '{args.workload}'; choose one of {WORKLOADS}")
    if not (ROOT / "src" / "spintrack" / "cli.py").is_file():
        return fail(f"no spintrack sources under {ROOT / 'src'}; run from a source checkout")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    started = time.perf_counter()

    setup = measure_setup(args.workload, args.seed) if args.trace == 0 else []
    raw_path = out_dir / f"worker-{args.workload}-{args.seed}-{args.trace}.json"
    raw_path.unlink(missing_ok=True)
    proc = run_child(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--result", str(raw_path)],
                     RUN_TIMEOUT_S - (time.perf_counter() - started))
    if proc.returncode != 0 or not raw_path.is_file():
        return fail(f"workload process exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    res = json.loads(raw_path.read_text())

    if args.trace == 0:
        detail = end_to_end(res, setup)
        metrics = {k: {"value": detail[k]["median"], "unit": detail[k]["unit"]}
                   for k in ("setup_s", "wall_s", "peak_rss_mb")}
    else:
        detail = {}
        metrics = per_layer(res)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(args.seed, len(res["round_s"]) + len(res["traced_round_s"])),
        "end_to_end": detail, "metrics": metrics, "work": res["work"],
        "round_s": res["round_s"], "traced_round_s": res["traced_round_s"],
        "op_s": res["op_s"],
        "ops": res["ops"], "failures": res["failures"],
        "attempted": res["attempted"], "failed": res["failed"],
        "trace_functions": res["trace"][0]["functions"] if res["trace"] else {},
    }
    if args.compare:
        result["compare"] = compare(result, args.compare)
    (out_dir / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str))

    report(result, detail)
    if args.trace == 1:
        print(f"  {'traced function':<46} {'calls':>8} {'total_s':>10} {'self_s':>10} errors")
        for name, f in sorted(result["trace_functions"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<46} {f['calls']:>8} {f['total_s']:>10.4f} {f['self_s']:>10.4f} "
                  f"{f['errors']}")
        for name, m in metrics.items():
            print(f"  {name:<52} {m['value']:.6g} {m['unit']}")
    if args.compare:
        cmp = result["compare"]
        for op, same in cmp["bit_identical"].items():
            print(f"  vs earlier: op {op} bit-identical: {same}")
        for name, r in cmp["ratio"].items():
            print(f"  vs earlier: {name} ratio {r:.4f}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
