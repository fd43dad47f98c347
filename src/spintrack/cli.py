"""Scenario runner: reproduce the headline analyses from declarative files.

Scenario files are plain ``key = value`` text (# comments allowed).  Core
keys follow the physical-parameter schema: J, gamma, M, eta, gamma_b,
sigma_bF, sigma_z0, sigma_b0, J_prime, lambda, dt, T, seed, trials.
Command-specific keys: mode, regime, f_sweep, t_eval, omega_min,
omega_max, n_omega, J_min, J_max, omega_Q, omega_1, omega_L, decimate.
Unknown keys are rejected.

Verbs
-----
simulate    one open-loop truth trajectory               -> CSV t,z,b,u,ydt
            (with mode set: one closed-loop trial        -> CSV t,z,b,u,z_tilde,b_tilde)
riccati     covariance solutions, three routes           -> CSV per-time rows
montecarlo  closed-loop ensemble vs the Riccati curve    -> CSV summary
mismatch    spin-number mismatch factor sweep            -> CSV + stdout table
bode        saturated-loop transfer functions            -> CSV + report
design      robust controller synthesis and J sweep      -> CSV + report
qsme-verify quantum-oracle suite battery                 -> CSV + report

Every command is deterministic given (scenario, seed); floats are written
with 17 significant digits so repeated runs are byte-identical.  Exit
codes: 0 success, 1 any other toolkit error (no verb raises one today),
2 configuration error, 3 numerical error, 4 a verification suite or
design criterion failed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from multiprocessing import Pool

import numpy as np

from . import freq, qsme, riccati, total_covariance as tc
from .errors import ConfigurationError, NumericalError, SpintrackError, UnsupportedCaseError
from .lqg_filter import (TRIAL_BLOCK, design_plant, design_prior, run_closed_loop, run_ensemble,
                         summarize_ensemble)
from .model import DesignParams, PlantParams, Priors
from .numerics import RngStream
from .truth_sim import simulate_open_loop

# every scenario key, with the parser of its value
_PARSERS = {
    **dict.fromkeys(("J", "gamma", "M", "eta", "gamma_b", "sigma_bF", "sigma_z0", "sigma_b0",
                     "J_prime", "lambda", "dt", "T", "t_eval", "omega_min", "omega_max",
                     "J_min", "J_max", "omega_Q", "omega_1", "omega_L"), float),
    **dict.fromkeys(("seed", "trials", "n_omega", "decimate"), int),
    **dict.fromkeys(("mode", "regime"), str),
    "f_sweep": lambda val: [float(x) for x in val.split(",") if x.strip()],
}


def parse_scenario(path: str) -> dict:
    """Load and validate a key = value scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: cannot read scenario file ({exc})") from exc
    values: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise ConfigurationError(f"{path}:{lineno}: unknown scenario key '{key}'")
        if key in values:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key '{key}'")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError:
            raise ConfigurationError(f"{path}:{lineno}: cannot parse '{val}' for scenario key "
                                     f"'{key}'") from None
    return values


def build_plant(sc: dict) -> PlantParams:
    try:
        return PlantParams(J=sc["J"], gamma=sc["gamma"], M=sc["M"],
                           eta=sc.get("eta", 1.0), gamma_b=sc.get("gamma_b", 0.0),
                           sigma_bF=sc.get("sigma_bF", 0.0))
    except KeyError as exc:
        raise ConfigurationError(f"scenario missing required key {exc}") from exc


def build_priors(sc: dict, p: PlantParams) -> Priors:
    return Priors(sigma_z0=sc.get("sigma_z0", p.J / 2.0), sigma_b0=sc.get("sigma_b0", 0.0))


def build_design(sc: dict, p: PlantParams) -> DesignParams:
    return DesignParams(J_prime=sc.get("J_prime", p.J), lam=sc.get("lambda", 0.0))


def _positive(sc: dict, *keys) -> list:
    """Values of required scenario keys that must be positive and finite."""
    for key in keys:
        if key not in sc:
            raise ConfigurationError(f"scenario missing required key '{key}'")
        if not 0 < sc[key] < math.inf:
            raise ConfigurationError(f"scenario key '{key}' must be positive and finite, "
                                     f"got {sc[key]}")
    return [sc[key] for key in keys]


def _fmt(x) -> str:
    return "%.17g" % x if isinstance(x, (float, np.floating)) else str(x)


def write_csv(path: str, header: list[str], columns: list[np.ndarray]):
    """One line per row, each entry as _fmt writes it: one format line from
    the column dtypes (%.17g for float columns, %s for the rest) applied
    to the rows of the columns' Python values."""
    columns = [np.asarray(col) for col in columns]
    line = ",".join("%.17g" if col.dtype.kind == "f" else "%s" for col in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in zip(*(col.tolist() for col in columns)))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(sc: dict, seed: int, out: str, workers: int) -> int:
    p = build_plant(sc)
    prior = build_priors(sc, p)
    dt, T = _positive(sc, "dt", "T")
    if "mode" in sc:
        # closed-loop trial: truth plus the filter history
        d = build_design(sc, p)
        res = run_closed_loop(p, prior, d, sc["mode"], RngStream(seed), dt, T)
        traj = res.trajectory
        write_csv(out, ["t", "z", "b", "u", "z_tilde", "b_tilde"],
                  [traj.t, traj.z, traj.b, traj.u, res.z_tilde, res.b_tilde])
        print(f"simulate ({sc['mode']}): {traj.n_steps} steps written to {out}")
        return 0
    traj = simulate_open_loop(p, prior, RngStream(seed), dt, T)
    write_csv(out, ["t", "z", "b", "u", "ydt"], [traj.t, traj.z, traj.b, traj.u, traj.ydt])
    print(f"simulate: {traj.n_steps} steps written to {out}")
    return 0


def cmd_riccati(sc: dict, seed: int, out: str, workers: int) -> int:
    p = build_plant(sc)
    prior = build_priors(sc, p)
    dt, T = _positive(sc, "dt", "T")
    if not dt < T:
        raise ConfigurationError(f"riccati: scenario key 'dt' (the first output time) must be "
                                 f"below 'T', got dt = {dt}, T = {T}")
    times = np.geomspace(dt, T, 241)
    cov = riccati.riccati_at_times(p, prior, times)
    sz_an = sb_an = sz_lin = sb_lin = np.full_like(times, np.nan)   # a route may not apply
    try:
        sz_an, sb_an = np.array([riccati.analytic_sigma(p, prior, t) for t in times]).T
    except UnsupportedCaseError:
        pass
    try:
        lin = riccati.linearized_riccati_curve(p, prior, times)
        sz_lin, sb_lin = lin.sigma_zR, lin.sigma_bR
    except UnsupportedCaseError as exc:
        print(f"riccati: linearized columns left NaN ({exc})")
    with np.errstate(divide="ignore", invalid="ignore"):
        dev_an = np.abs(sb_an / cov.sigma_bR - 1.0)
        dev_lin = np.abs(sb_lin / cov.sigma_bR - 1.0)
    write_csv(out, ["t", "sigma_zR", "sigma_cR", "sigma_bR",
                    "sigma_zR_analytic", "sigma_bR_analytic",
                    "sigma_zR_linearized", "sigma_bR_linearized",
                    "bdev_analytic", "bdev_linearized"],
              [times, cov.sigma_zR, cov.sigma_cR, cov.sigma_bR,
               sz_an, sb_an, sz_lin, sb_lin, dev_an, dev_lin])
    worst = np.fmax.reduce(np.concatenate([dev_an, dev_lin]))   # nan: no second route
    print(f"riccati: {len(times)} rows to {out}; worst cross-route deviation {worst:.3e}")
    return 0


def _mc_blocks(args):
    """Per-block ensemble sums of one worker's contiguous range of whole blocks."""
    p, prior, d, mode, seed, lo, hi, dt, T, decimate = args
    return run_ensemble(p, prior, d, mode, seed, hi - lo, dt, T, decimate=decimate,
                        trial_offset=lo)


def cmd_montecarlo(sc: dict, seed: int, out: str, workers: int) -> int:
    p = build_plant(sc)
    prior = build_priors(sc, p)
    d = build_design(sc, p)
    mode = sc.get("mode", "dynamic_gain")
    trials = sc.get("trials", 2000)
    dt, T = _positive(sc, "dt", "T")
    n = int(round(T / dt))
    decimate = sc.get("decimate", max(1, n // 200))
    if decimate < 1:
        raise ConfigurationError(f"scenario key 'decimate' must be positive, got {decimate}")
    # each worker takes a contiguous range of whole summation blocks;
    # summarize_ensemble adds all block sums in trial order, so the bytes do
    # not depend on the worker count
    blocks = -(-trials // TRIAL_BLOCK)
    workers = max(1, min(workers, blocks))
    edges = [TRIAL_BLOCK * (blocks * w // workers) for w in range(workers)] + [trials]
    jobs = [(p, prior, d, mode, seed, lo, hi, dt, T, decimate)
            for lo, hi in zip(edges[:-1], edges[1:])]
    if workers == 1:
        parts = [_mc_blocks(jobs[0])]
    else:
        with Pool(processes=workers) as pool:
            parts = pool.map(_mc_blocks, jobs)
    t_out = parts[0][0]
    summary = summarize_ensemble(np.concatenate([per_block for _, per_block in parts]), trials)
    cov = riccati.linearized_riccati_curve(design_plant(p, d), design_prior(d, prior), t_out)
    write_csv(out, ["t", "sigma_bE", "se_bE", "sigma_zE", "se_zE", "sigma_bR", "sigma_zR"],
              [t_out, summary["sigma_bE"], summary["se_bE"],
               summary["sigma_zE"], summary["se_zE"], cov.sigma_bR, cov.sigma_zR])
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(summary["sigma_bE"] / cov.sigma_bR - 1.0)
    print(f"montecarlo: {trials} trials ({mode}), {len(t_out)} rows to {out}; "
          f"max |sigma_bE/sigma_bR - 1| = {np.nanmax(rel):.4f}")
    return 0


def cmd_mismatch(sc: dict, seed: int, out: str, workers: int) -> int:
    regime = sc.get("regime")
    if regime not in ("fluctuating_steady", "constant_transient"):
        raise ConfigurationError("mismatch: scenario must set regime = fluctuating_steady "
                                 "or constant_transient")
    f_values = sc.get("f_sweep")
    if not f_values:
        raise ConfigurationError("mismatch: scenario must set f_sweep")
    p0 = build_plant(sc)
    d = build_design(sc, p0)
    for f in f_values:
        if not (f > 0 and f * d.J_prime < math.inf):
            raise ConfigurationError(f"scenario key 'f_sweep' needs f > 0 with f * J_prime "
                                     f"finite, got f = {f}")
    if regime == "constant_transient":
        t = _positive(sc, "t_eval")[0] if "t_eval" in sc else 1e-5
        # the late-time law 12 sigma_M / ((gamma J')^2 t^3): both priors
        # infinite on the design plant
        ref = riccati.analytic_sigma(design_plant(p0, d), (math.inf, math.inf), t)[1]
    sigma_b0 = sc.get("sigma_b0", 0.0)
    rows = []   # (f, t, sigma_bE, factor, factor_predicted, valid)
    for f in f_values:
        p = replace(p0, J=f * d.J_prime)
        prior = Priors(sigma_z0=p.J / 2.0, sigma_b0=sigma_b0)
        if regime == "fluctuating_steady":
            t, err, valid = math.inf, tc.steady_state_error(p, d), 1
            if d.lam > 0:
                ref = riccati.steady_state_gains(design_plant(p, d), d).sigma_bS
                pred = tc.mismatch_factors(f, "controlled_steady")
            else:
                ref = p.sigma_bFree
                pred = tc.mismatch_factors(f, "uncontrolled_fluctuating")
        else:
            err = float(tc.transient_error_curve(p, prior, d, np.array([t])).sigma_bE[0])
            try:
                pred, valid = tc.mismatch_factors(f, "controlled_transient"), 1
            except UnsupportedCaseError:
                pred, valid = math.nan, 0
        rows.append((f, t, err, err / ref, pred, valid))
    write_csv(out, ["f", "t", "sigma_bE", "factor", "factor_predicted", "valid"],
              [np.array(col) for col in zip(*rows)])
    print(f"mismatch ({regime}): factor at reference point vs prediction")
    for f, _, _, factor, pred, _ in rows:
        if math.isnan(pred):
            print(f"  f = {f:8.3g}: measured {factor:.4f}, prediction out of validity")
        else:
            print(f"  f = {f:8.3g}: measured {factor:.4f}  predicted {pred:.4f}  "
                  f"rel dev {abs(factor / pred - 1):.3f}")
    return 0


def cmd_bode(sc: dict, seed: int, out: str, workers: int) -> int:
    p = build_plant(sc)
    d = build_design(sc, p)
    gz, gb, gu = freq.closed_loop_tfs(p, d)
    sc = {"omega_min": 1e4, "omega_max": 1e12, "n_omega": 481, **sc}
    omega = np.geomspace(*_positive(sc, "omega_min", "omega_max", "n_omega"))
    cols = [omega]
    header = ["omega"]
    for name, tf in (("Gz", gz), ("Gb", gb), ("Gu", gu)):
        mag, phase = freq.bode(tf, omega)
        cols += [mag, phase]
        header += [f"{name}_mag_dB", f"{name}_phase_deg"]
    write_csv(out, header, cols)
    r = math.sqrt(p.sigma_bF / p.sigma_M)
    gj = p.gamma * d.J_prime
    omega_h = math.sqrt(0.5 * gj * r)
    wc = freq.closure_frequency(gu, p.gamma * p.J, hint=omega_h)
    print(f"bode: {len(omega)} rows to {out}")
    print(f"omega_H (formula): {_fmt(omega_h)}")
    print(f"omega_C (bisection): {_fmt(wc)}")
    print(f"omega_C / omega_H: {_fmt(wc / omega_h)}")
    # the exact |P G_u| = 1 crossover of the saturated loop, which the
    # first-order identity omega_C = 2 omega_H approximates
    print(f"crossover_closed_form: {_fmt(math.sqrt(2.0 + 2.0 * math.sqrt(2.0)))}")
    margins = freq.approximation_margins(p, d)
    print(f"lambda_margin: {_fmt(margins['lambda_margin'])}")
    print(f"gammaJ_margin: {_fmt(margins['gammaJ_margin'])}")
    try:
        cf = freq.char_freqs(p, d)
        for k in ("omega_L", "omega_H", "omega_C", "omega_Q", "G_uDC", "G_uAC"):
            print(f"{k}: {_fmt(getattr(cf, k))}")
    except ConfigurationError as exc:
        print(f"char_freqs: out of regime ({exc})")
    return 0


def cmd_design(sc: dict, seed: int, out: str, workers: int) -> int:
    sc = {"n_omega": 600, **sc}
    _positive(sc, "J_min", "J_max", "omega_Q", "omega_1", "gamma", "n_omega")
    if "omega_L" in sc:
        _positive(sc, "omega_L")
    c, w10 = freq.design_robust_controller(sc["J_min"], sc["J_max"], sc["omega_Q"],
                                           sc["omega_1"], sc["gamma"],
                                           omega_L=sc.get("omega_L"))
    w1 = freq.performance_weight(w10, sc["omega_1"])
    omega_h = sc["omega_1"] * w10
    omega_l = sc.get("omega_L", omega_h / 100.0)
    grid = np.geomspace(omega_l / 10.0, 10.0 * sc["omega_Q"], max(400, sc["n_omega"]))
    j_grid = np.geomspace(sc["J_min"], sc["J_max"], 25)
    norms = np.empty(25)
    stable = np.empty(25)
    for i, J in enumerate(j_grid):
        try:
            norms[i] = freq.sensitivity_norm(c, J, sc["gamma"], w1, grid)
            stable[i] = 1
        except NumericalError:
            norms[i] = math.inf
            stable[i] = 0
    write_csv(out, ["J", "W1S_inf", "stable"], [j_grid, norms, stable])
    ok = bool(np.all(stable == 1) and np.all(norms < 1.0))
    print(f"design: report for J in [{_fmt(sc['J_min'])}, {_fmt(sc['J_max'])}]")
    print(f"W10: {_fmt(w10)}")
    print(f"tradeoff_W10_omega1: {_fmt(w10 * sc['omega_1'])}")
    print(f"tradeoff_rhs: {_fmt(sc['omega_Q'] * sc['J_min'] / sc['J_max'])}")
    print(f"omega_L: {_fmt(omega_l)}")
    print(f"omega_H: {_fmt(omega_h)}")
    print(f"omega_Q: {_fmt(sc['omega_Q'])}")
    print(f"max_W1S: {_fmt(float(np.max(norms)))}")
    print(f"all_stable: {int(np.all(stable == 1))}")
    print(f"criterion_met: {int(ok)}")
    return 0 if ok else 4


def cmd_qsme_verify(sc: dict, seed: int, out: str, workers: int) -> int:
    suites = qsme.run_all_suites(seed=seed)
    by_name = {s["name"]: s for s in suites}
    blocks = []   # per block of rows: the columns suite, t, value, predicted
    for name, key in (("jx_decay", "jx"), ("variance_tracking", "dJz2")):
        s = by_name[name]
        rows = slice(None, None, max(1, len(s["t"]) // 200))
        blocks.append((np.full(len(s["t"][rows]), name), s["t"][rows], s[key][rows],
                       s["predicted"][rows]))
    # final posterior snapshot: rows are (hypothesis b, weight)
    b_vals, weights = by_name["grid_vs_kalman"]["posterior"]
    blocks.append((np.full(len(b_vals), "grid_posterior"), b_vals, weights,
                   np.full(len(b_vals), math.nan)))
    write_csv(out, ["suite", "t", "value", "predicted"], [np.concatenate(c) for c in zip(*blocks)])
    for s in suites:
        status = "pass" if s["passed"] else "FAIL"
        detail = {k: v for k, v in s.items()
                  if isinstance(v, (int, float, bool)) and k not in ("passed",)}
        print(f"{s['name']}: {status} " +
              " ".join(f"{k}={_fmt(v)}" for k, v in detail.items()))
    return 0 if all(s["passed"] for s in suites) else 4


_COMMANDS = {
    "simulate": cmd_simulate,
    "riccati": cmd_riccati,
    "montecarlo": cmd_montecarlo,
    "mismatch": cmd_mismatch,
    "bode": cmd_bode,
    "design": cmd_design,
    "qsme-verify": cmd_qsme_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spintrack",
                                     description="continuous-measurement magnetometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--scenario", required=True, help="scenario file path")
        sp.add_argument("--seed", type=int, default=None, help="override scenario seed")
        sp.add_argument("--out", required=True, help="output CSV path")
        sp.add_argument("--workers", type=int, default=1, help="worker processes")
    args = parser.parse_args(argv)
    try:
        sc = parse_scenario(args.scenario)
        seed = args.seed if args.seed is not None else sc.get("seed", 0)
        return _COMMANDS[args.command](sc, seed, args.out, max(1, args.workers))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except SpintrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
