"""The two benchmark workloads: their ops, inputs, gates and work counts.

An op is one CLI verb call or one oracle suite.  It fails on a non-zero
exit, an exception or a failed correctness gate.  Inputs come from the
benchmark seed: seed 0 reproduces the seeds in the shipped scenarios and
seed s uses (shipped seed XOR s), the convention ``qsme.run_all_suites``
already uses for its suite seeds.

Importing this module needs ``spintrack`` on the path (the workload
process puts the checkout's ``src/`` there).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import io
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from spintrack import cli, qsme

WORKLOADS = ("ensemble", "analysis")

MATCHED_MAX_Z = 5.0          # matched ensemble vs Riccati, every row
FROZEN_FINAL_REL = 0.05      # frozen-gain ensemble vs Riccati, final row ...
FROZEN_FINAL_SE = 3.0        # ... widened by this many standard errors
RICCATI_CROSS_ROUTE = 1e-6
MISMATCH_STEADY_REL = 0.02


@dataclass
class Op:
    """One timed unit of work and the gate its output must pass."""

    name: str
    run: Callable[[Path], dict]
    inputs: dict = field(default_factory=dict)
    work: int = 0          # trial-steps or state updates per run, from sizes


class GateError(Exception):
    """An op ran but its output failed the correctness gate."""


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _columns(text: str) -> dict[str, np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return {h: np.array([float(r[i]) for r in body]) for i, h in enumerate(header)}


def _require(cond: bool, what: str):
    if not cond:
        raise GateError(what)


# ---------------------------------------------------------------------------
# CLI verb ops (the montecarlo ensemble and the covariance analysis verbs)
# ---------------------------------------------------------------------------

def _verb_op(name: str, verb: str, scenario: Path, bench_seed: int, gate) -> Op:
    sc = cli.parse_scenario(str(scenario))
    if "J" in sc:
        p = cli.build_plant(sc)
        cli.build_priors(sc, p)
        cli.build_design(sc, p)
    seed = sc.get("seed", 0) ^ bench_seed

    def run(workdir: Path) -> dict:
        out = workdir / f"{name}.csv"
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main([verb, "--scenario", str(scenario), "--seed", str(seed),
                             "--out", str(out), "--workers", "1"])
        _require(code == 0, f"exit code {code}: {log.getvalue().strip()[-300:]}")
        data = out.read_bytes()
        measured = gate(sc, _columns(data.decode("utf-8")), log.getvalue())
        return {"sha256": sha256_bytes(data), "bytes": len(data), "measured": measured}

    work = sc["trials"] * int(round(sc["T"] / sc["dt"])) if verb == "montecarlo" else 0
    return Op(name, run, {"verb": verb, "scenario": scenario.name, "seed": seed}, work)


def _rows(cols: dict, expected: int):
    n = len(next(iter(cols.values())))
    _require(n == expected, f"{n} rows, expected {expected}")


def gate_matched(sc, cols, log):
    _rows(cols, 201)
    z = np.abs(cols["sigma_bE"] - cols["sigma_bR"]) / cols["se_bE"]
    max_z = float(np.max(z))
    _require(max_z <= MATCHED_MAX_Z, f"max |z| = {max_z:.3f} > {MATCHED_MAX_Z}")
    return {"max_z": max_z}


def gate_frozen(sc, cols, log):
    _rows(cols, 201)
    dev = float(cols["sigma_bE"][-1] / cols["sigma_bR"][-1] - 1.0)
    rel_se = float(cols["se_bE"][-1] / cols["sigma_bR"][-1])
    limit = FROZEN_FINAL_REL + FROZEN_FINAL_SE * rel_se
    _require(abs(dev) <= limit, f"final deviation {dev:.4f} beyond {limit:.4f}")
    return {"final_dev": dev, "final_rel_se": rel_se}


def gate_riccati(sc, cols, log):
    _rows(cols, 241)
    devs = np.concatenate([cols["bdev_analytic"], cols["bdev_linearized"]])
    worst = float(np.nanmax(devs))
    _require(worst <= RICCATI_CROSS_ROUTE, f"cross-route deviation {worst:.3e}")
    return {"cross_route_dev": worst}


def gate_mismatch_steady(sc, cols, log):
    _rows(cols, len(sc["f_sweep"]))
    rel = float(np.max(np.abs(cols["factor"] / cols["factor_predicted"] - 1.0)))
    _require(rel <= MISMATCH_STEADY_REL, f"factor deviation {rel:.4f}")
    return {"max_factor_dev": rel}


def gate_mismatch_transient(sc, cols, log):
    # criterion 7 ships red: the deviation is recorded, not gated
    _rows(cols, len(sc["f_sweep"]))
    valid = cols["valid"] == 1
    rel = np.abs(cols["factor"][valid] / cols["factor_predicted"][valid] - 1.0)
    return {"max_factor_dev_criterion7": float(np.max(rel))}


def gate_bode(sc, cols, log):
    # criterion 9 ships red: the closure ratio is recorded, not gated
    _rows(cols, sc["n_omega"])
    m = re.search(r"omega_C / omega_H: (\S+)", log)
    _require(m is not None, "no closure ratio in the report")
    return {"closure_ratio_criterion9": float(m.group(1))}


def gate_design(sc, cols, log):
    _rows(cols, 25)
    _require("criterion_met: 1" in log, "design criterion not met")
    return {"max_W1S": float(np.max(cols["W1S_inf"]))}


def gate_simulate(sc, cols, log):
    _rows(cols, int(round(sc["T"] / sc["dt"])) + 1)
    return {"rows": len(cols["t"])}


# ---------------------------------------------------------------------------
# oracle suites
# ---------------------------------------------------------------------------

# Sizes shrunk from the shipped battery (which takes over a minute) through
# the suites' public parameters only; every suite and its kind of step
# (single SME, Bayes grid, batched trajectories) stays.
#
# Only grid_kalman follows the benchmark seed: its verdict compares two
# estimators on one shared record (worst 0.019 against the 0.1 bar over
# 20 seeds).  The other seeded suites keep their shipped seeds, because
# their verdicts are hypothesis tests with a false-alarm rate per seed:
# two_point's 0.9 posterior bar (about 1 record in 12 misses it),
# variance_tracking's 3-sigma martingale band (z = 3.83 at one seed, while
# 60 other seeds gave mean 0.13 and sd 1.08) and ramp_statistics' 3-sigma
# slope and 3.5-sigma variance bands (0.97 of the slope bar at one seed in
# 20).  Re-seeding them would turn a sampling event into a failed op.
ORACLE_SUITES = (
    ("jx_decay", qsme.suite_jx_decay, {}, False),
    ("variance_tracking", qsme.suite_variance_tracking, {"trajectories": 50}, False),
    ("two_point", qsme.suite_two_point, {"records": 1}, False),
    ("grid_kalman", qsme.suite_grid_kalman, {"records": 1, "T": 5e-6}, True),
    ("ramp_statistics", qsme.suite_ramp_statistics, {"trajectories": 100}, False),
)


def _suite_args(fn, kwargs: dict) -> dict:
    args = {k: p.default for k, p in inspect.signature(fn).parameters.items()}
    args.update(kwargs)
    return args


def state_updates(name: str, a: dict) -> int:
    """Density-matrix updates one suite performs, from its sizes."""
    n = int(round(a["T"] / a["dt"]))
    if name == "jx_decay":
        return n                                   # SME steps
    if name in ("variance_tracking", "ramp_statistics"):
        return a["trajectories"] * n               # batched trajectory steps
    if name == "two_point":
        return a["records"] * n * (1 + 2)          # truth + 2 hypotheses
    if name == "grid_kalman":
        return a["records"] * n * (1 + a["points"])
    raise KeyError(name)


def _fingerprint(obj, h) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            h.update(repr(k).encode())
            _fingerprint(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _fingerprint(v, h)
    elif isinstance(obj, np.ndarray):
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        h.update(repr(obj).encode())


def _suite_op(name: str, fn, kwargs: dict) -> Op:
    work = state_updates(name, _suite_args(fn, kwargs))

    def run(workdir: Path) -> dict:
        res = fn(**kwargs)
        h = hashlib.sha256()
        _fingerprint(res, h)
        measured = {k: float(v) for k, v in res.items()
                    if isinstance(v, (bool, int, float, np.floating, np.bool_))
                    and k != "passed"}
        _require(bool(res["passed"]), f"suite {res['name']} failed: {measured}")
        return {"sha256": h.hexdigest(), "measured": measured}

    return Op(name, run, dict(kwargs), work)


# ---------------------------------------------------------------------------
# workload assembly
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    ops: list[Op]
    work: dict            # work per round, computed from sizes


def _covariance_ops(seed: int, scn: Path) -> list[Op]:
    table = (
        ("riccati_fluctuating", "riccati", "riccati_fluctuating.scn", gate_riccati),
        ("riccati_constant", "riccati", "constant_field_tables.scn", gate_riccati),
        ("mismatch_steady", "mismatch", "mismatch_steady.scn", gate_mismatch_steady),
        ("mismatch_transient", "mismatch", "mismatch_transient.scn", gate_mismatch_transient),
        ("bode", "bode", "bode_nominal.scn", gate_bode),
        ("design", "design", "robust_design.scn", gate_design),
        ("simulate", "simulate", "constant_field_tables.scn", gate_simulate),
    )
    return [_verb_op(op_name, verb, scn / scenario, seed, gate)
            for op_name, verb, scenario, gate in table]


def _oracle_ops(seed: int, scn: Path) -> list[Op]:
    base = cli.parse_scenario(str(scn / "qsme_verify.scn")).get("seed", 0) ^ seed
    ops = []
    for suite, fn, sizes, seeded in ORACLE_SUITES:
        kwargs = dict(sizes)
        defaults = _suite_args(fn, {})
        if "seed" in defaults:
            kwargs["seed"] = defaults["seed"] ^ (base if seeded else 0)
        ops.append(_suite_op(suite, fn, kwargs))
    return ops


def build(name: str, seed: int, root: Path) -> Workload:
    """Parse the scenarios, build parameters and assemble the ops.

    This is the set-up phase: it runs in every fresh workload process
    before any timed round.

    The deterministic analysis verbs share a workload with the oracle
    suites instead of having their own.  Alone, their rounds (about 4 s,
    mostly small-matrix ``expm`` calls with a high Python share) spread
    0.28 and 0.34 (quartile distance over median, ten seeds) on a 2-vCPU
    VM whose speed drifts over minutes, beyond the 0.25 bound; the
    numpy-heavy ensemble and oracle rounds spread about 0.11 in the same
    hours.  Both halves of ``analysis`` leave the RNG and the filter loop
    idle, so ``ensemble`` remains the workload that bypasses the analysis
    and oracle kernels, and ``analysis`` the one that bypasses the RNG.
    """
    scn = root / "src" / "spintrack" / "scenarios"
    if name == "ensemble":
        ops = [_verb_op("montecarlo_matched", "montecarlo", scn / "montecarlo_matched.scn",
                        seed, gate_matched),
               _verb_op("montecarlo_frozen", "montecarlo",
                        scn / "transfer_function_comparison.scn", seed, gate_frozen)]
        return Workload(name, ops, {"trial_steps": sum(op.work for op in ops)})
    if name == "analysis":
        oracle = _oracle_ops(seed, scn)
        return Workload(name, _covariance_ops(seed, scn) + oracle,
                        {"state_updates": sum(op.work for op in oracle)})
    raise KeyError(f"unknown workload '{name}'; choose one of {WORKLOADS}")
