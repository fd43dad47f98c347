"""Kalman filtering and LQG control against simulated measurement records.

The estimate m = (z~, b~) follows

    dm = A' m dt + B' u dt + K_O(t) [y dt - C m dt],    m(0) = (0, 0)

discretized by explicit Euler on the record grid (the record and filter
share dt; keep dt * K_O1 small, with the saturated gain as the proxy).
Primed quantities use the design spin J'; the observer's own prior is the
coherent variance J'/2 for spin together with the scenario field prior.
The controller applies u = -K_C m with the stationary controller gain.

Modes: ``dynamic_gain`` uses the time-dependent Riccati gain K_O(t);
``steady_gain`` freezes K_O at its stationary value for the whole run,
which is the filter a constant transfer function would realize.  Both
reach the same saturation level; the frozen-gain transient is worse.

One closed-loop step (plant, record, controller and filter update) is
written once, in ``_loop_step`` with the filter update in
``_filter_step``, as plain arithmetic with augmented assignments.  The
same lines run on Python floats for one trial (``run_closed_loop``,
``filter_record``) and in place on the trials-wide state rows of an
ensemble (``run_ensemble``).  Float and array arithmetic round alike, so
a trial of an ensemble equals the one-trial run bit for bit.

``run_ensemble`` reduces the trials in fixed blocks of TRIAL_BLOCK; its
docstring states the summation contract that makes the sums independent
of how an ensemble is split across workers.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .model import DesignParams, PlantParams, Priors
from .numerics import RngStream, trial_normals
from .riccati import controller_gain, integrate_estimator_riccati, steady_state_gains
from .truth_sim import Trajectory

MODES = ("dynamic_gain", "steady_gain")
TRIAL_BLOCK = 256  # trials per summation block of run_ensemble (the determinism contract)


@dataclass
class RunResult:
    """One closed-loop trial: truth trajectory plus the filter history.

    m[k] is the estimate at t[k] built from increments before t[k], so the
    grids align and innovation k is ydt[k] - m[k, 0] * dt.
    """

    trajectory: Trajectory
    m: np.ndarray

    @property
    def z_tilde(self) -> np.ndarray:
        return self.m[:, 0]

    @property
    def b_tilde(self) -> np.ndarray:
        return self.m[:, 1]


def design_prior(d: DesignParams, prior: Priors) -> Priors:
    """What the observer assumes initially: coherent spin variance J'/2
    plus the scenario's field prior."""
    return Priors(sigma_z0=d.J_prime / 2.0, sigma_b0=prior.sigma_b0)


def design_plant(p: PlantParams, d: DesignParams) -> PlantParams:
    """The plant the observer believes in: true rates with spin J'."""
    return replace(p, J=d.J_prime)


def _filter_step(mz, mb, ydt, u, k1, k2, gjp, gb, dt):
    """One observer step m += (A'm + B'u) dt + K_O (y dt - m_z dt), with
    A' = [[0, gjp], [0, -gb]] and B' = (gjp, 0).  On arrays the rows
    passed in are updated in place.  Each update builds its increment in
    one temporary, in the operation order of the formula above (y dt -
    m_z dt as m_z (-dt) + y dt, the same bits)."""
    innov = mz * -dt
    innov += ydt
    dm = gjp * mb
    dm += gjp * u
    dm *= dt
    mz += dm
    mz += k1 * innov
    dm = gb * mb
    dm *= dt
    mb -= dm
    innov *= k2
    mb += innov
    return mz, mb


def _loop_step(z, b, mz, mb, w1, w2, k1, k2, c):
    """One closed-loop step: u = -K_C m, y dt = z dt + sqrt(sigma_M) dW2,
    then the plant (z, b) and the filter.  w1, w2 are the scaled noises
    sqrt(sigma_bF) dW1 and sqrt(sigma_M) dW2; c holds the constants of
    _loop_setup.  Returns (z, b, z~, b~, u, y dt); on arrays the state rows
    passed in are updated in place."""
    gj, gjp, gb, kc0, kc1, dt = c
    u = kc0 * mz
    u += kc1 * mb
    u = -u
    ydt = z * dt
    ydt += w2
    dx = b + u
    dx *= gj
    dx *= dt
    z += dx
    dx = gb * b
    dx *= dt
    b -= dx
    b += w1
    mz, mb = _filter_step(mz, mb, ydt, u, k1, k2, gjp, gb, dt)
    return z, b, mz, mb, u, ydt


def filter_record(p: PlantParams, k1: np.ndarray, k2: np.ndarray, ydt: np.ndarray,
                  dt: float) -> np.ndarray:
    """Re-run the open-loop (u = 0) filter of plant p over a stored record;
    returns m with m[0] = 0.  k1, k2 are the gain components tabulated on
    the record grid."""
    if min(len(k1), len(k2)) < len(ydt) - 1:
        raise ConfigurationError("filter_record: gain tables are shorter than the record")
    gj, gb = p.gamma * p.J, p.gamma_b
    mz = mb = 0.0
    m = array("d", (mz, mb))
    for y, g1, g2 in zip(ydt[:-1].tolist(), k1.tolist(), k2.tolist()):
        mz, mb = _filter_step(mz, mb, y, 0.0, g1, g2, gj, gb, dt)
        m.extend((mz, mb))
    return np.array(m).reshape(-1, 2)


def _gain_arrays(p: PlantParams, prior: Priors, d: DesignParams, mode: str,
                 dt: float, n: int):
    """Observer gain components on the record grid, per mode."""
    if mode not in MODES:
        raise ConfigurationError(f"unknown filter mode '{mode}'; choose one of {MODES}")
    p_des = design_plant(p, d)
    if mode == "steady_gain":
        if not p.sigma_bF > 0:
            raise ConfigurationError("steady_gain mode needs sigma_bF > 0 (gains undefined otherwise)")
        g = steady_state_gains(p_des, d)
        k1 = np.full(n + 1, g.K_O[0])
        k2 = np.full(n + 1, g.K_O[1])
        return k1, k2
    cov = integrate_estimator_riccati(p_des, design_prior(d, prior), dt, n * dt)
    return cov.gain(p_des.sigma_M)


def _loop_setup(who: str, p: PlantParams, prior: Priors, d: DesignParams, mode: str,
                dt: float, T: float):
    """Step count, gain tables and the constants of _loop_step."""
    if not (dt > 0 and T > 0):
        raise ConfigurationError(f"{who}: dt and T must be positive")
    n = int(round(T / dt))
    k1, k2 = _gain_arrays(p, prior, d, mode, dt, n)
    kc0, kc1 = controller_gain(p, d)
    return n, k1, k2, (p.gamma * p.J, p.gamma * d.J_prime, p.gamma_b,
                       float(kc0), float(kc1), dt)


def _scaled_noise(w: np.ndarray, p: PlantParams):
    """Scale rows (dW1, dW2, dW1, ...) in place to the noises of _loop_step."""
    w[0::2] *= math.sqrt(p.sigma_bF)
    w[1::2] *= math.sqrt(p.sigma_M)
    return w


def run_closed_loop(p: PlantParams, prior: Priors, d: DesignParams, mode: str,
                    rng: RngStream, dt: float, T: float) -> RunResult:
    """Single closed-loop trial with u = -K_C m applied causally.

    Draw layout: z(0), b(0), then (dW1, dW2) per step; the vectorized
    ensemble consumes the identical layout per trial stream.
    """
    n, k1, k2, c = _loop_setup("run_closed_loop", p, prior, d, mode, dt, T)
    if T > 1.0 / p.M:
        warnings.warn("run_closed_loop: T exceeds 1/M; the small-time model is not valid there",
                      stacklevel=2)
    draws = rng.normals(2 + 2 * n)
    w = _scaled_noise(draws[2:] * math.sqrt(dt), p).tolist()
    x = (math.sqrt(prior.sigma_z0) * float(draws[0]),
         math.sqrt(prior.sigma_b0) * float(draws[1]), 0.0, 0.0, 0.0, 0.0)
    rows = array("d", x)     # per time: z, b, z~, b~, then u and y dt of the step before
    for w1, w2, g1, g2 in zip(w[0::2], w[1::2], k1.tolist(), k2.tolist()):
        x = _loop_step(x[0], x[1], x[2], x[3], w1, w2, g1, g2, c)
        rows.extend(x)
    h = np.array(rows).reshape(n + 1, 6)
    traj = Trajectory(t=np.arange(n + 1) * dt, z=h[:, 0], b=h[:, 1],
                      u=np.append(h[1:, 4], h[-1, 4]), ydt=np.append(h[1:, 5], 0.0), dt=dt)
    return RunResult(trajectory=traj, m=h[:, 2:4])


def _step_block(trials: int) -> int:
    """Steps per block of draws: about 2**16 trial-steps, so the draw block
    and its transposed copy stay in cache."""
    return min(256, max(8, (1 << 16) // trials))


def run_ensemble(p: PlantParams, prior: Priors, d: DesignParams, mode: str,
                 seed: int, trials: int, dt: float, T: float,
                 decimate: int = 1, trial_offset: int = 0):
    """Vectorized closed-loop ensemble; per-trial draws match run_closed_loop
    on trial stream seed XOR (trial_offset + k).

    Returns (t_out, sums) where sums stacks, per output time, the trial
    sums and sums of squares of (b~-b)^2 and (z~-z)^2 (rows: s1_b, s2_b,
    s1_z, s2_z).

    Summation contract: trials are cut into blocks of TRIAL_BLOCK,
    counted from ``trial_offset``; each block is reduced with numpy's
    pairwise sum, and the block sums are added in trial order starting
    from zero.  An ensemble split at block boundaries (the montecarlo
    verb gives each worker one range of whole blocks) therefore gives the
    same bits when its block sums are added in that same order.

    All trials advance together through _loop_step on the trials-wide
    state rows, so the gain table is solved once per call.  A non-finite
    state or sum raises DivergenceError naming the time.
    """
    t_out, parts = _ensemble_block_sums(p, prior, d, mode, seed, trials, dt, T,
                                        decimate, trial_offset)
    return t_out, _sum_blocks(parts)


def _ensemble_block_sums(p: PlantParams, prior: Priors, d: DesignParams, mode: str,
                         seed: int, trials: int, dt: float, T: float,
                         decimate: int = 1, trial_offset: int = 0):
    """run_ensemble before the last reduction: (t_out, per-block sums of
    shape (blocks, 4, times)), blocks of TRIAL_BLOCK in trial order."""
    if trials < 1:
        raise ConfigurationError("run_ensemble: need at least one trial")
    n, k1, k2, c = _loop_setup("run_ensemble", p, prior, d, mode, dt, T)

    out_idx = np.arange(0, n + 1, decimate)
    if out_idx[-1] != n:
        out_idx = np.append(out_idx, n)
    t_out = out_idx * dt
    out_pos = {int(k): i for i, k in enumerate(out_idx)}
    full, rest = divmod(trials, TRIAL_BLOCK)
    parts = np.zeros((full + (rest > 0), 4, len(out_idx)))

    ids = np.arange(trials) + trial_offset
    init = trial_normals(seed, ids, 2)
    state = np.zeros((4, trials))           # rows z, b, z~, b~
    z, b, mz, mb = state
    np.multiply(init[:, 0], math.sqrt(prior.sigma_z0), out=z)
    np.multiply(init[:, 1], math.sqrt(prior.sigma_b0), out=b)
    err = np.empty((4, trials))              # (b~-b)^2, its square, (z~-z)^2, its square

    def record(i):
        np.subtract(mb, b, out=err[0])
        np.subtract(mz, z, out=err[2])
        err[0] *= err[0]
        err[2] *= err[2]
        np.multiply(err[0], err[0], out=err[1])
        np.multiply(err[2], err[2], out=err[3])
        head = err[:, :full * TRIAL_BLOCK].reshape(4, full, TRIAL_BLOCK)
        parts[:full, :, i] = head.sum(axis=2).T
        if rest:
            parts[full, :, i] = err[:, full * TRIAL_BLOCK:].sum(axis=1)

    def step(j, k):
        _loop_step(z, b, mz, mb, w[2 * j], w[2 * j + 1], k1[k], k2[k], c)

    step_block = _step_block(trials)
    noise = np.empty((2 * min(step_block, n), trials))
    with np.errstate(over="ignore", invalid="ignore"):   # the guards below report these
        record(0)
        for k0 in range(0, n, step_block):
            k_end = min(k0 + step_block, n)
            # draws 2 + 2k and 3 + 2k are (dW1_k, dW2_k); one row per draw
            w = noise[:2 * (k_end - k0)]
            np.multiply(trial_normals(seed, ids, 2 * (k_end - k0), start=2 + 2 * k0).T,
                        math.sqrt(dt), out=w)
            _scaled_noise(w, p)
            start_state = state.copy()
            for j, k in enumerate(range(k0, k_end)):
                step(j, k)
                if (k + 1) in out_pos:
                    record(out_pos[k + 1])
            if not np.isfinite(state).all():
                # replay the block step by step to name the first bad step
                state[...] = start_state
                for j, k in enumerate(range(k0, k_end)):
                    step(j, k)
                    if not np.isfinite(state).all():
                        raise DivergenceError(
                            f"run_ensemble: non-finite state at t = {(k + 1) * dt:.6e}")
    bad = ~np.isfinite(parts).all(axis=(0, 1))
    if bad.any():
        raise DivergenceError(f"run_ensemble: error sums overflow at t = "
                              f"{t_out[np.argmax(bad)]:.6e}")
    return t_out, parts


def _sum_blocks(parts) -> np.ndarray:
    """Ensemble sums from per-block sums, added in block order from zero."""
    total = np.zeros_like(parts[0])
    for part in parts:
        total += part
    return total


def summarize_ensemble(sums: np.ndarray, trials: int):
    """Means and standard errors of (b~-b)^2 and (z~-z)^2 from trial sums."""
    if trials < 2:
        raise ConfigurationError("summarize_ensemble: need at least two trials for standard errors")
    out = {}
    for name, s1, s2 in (("b", sums[0], sums[1]), ("z", sums[2], sums[3])):
        mean = s1 / trials
        var = np.maximum(s2 / trials - mean ** 2, 0.0)
        out[f"sigma_{name}E"] = mean
        out[f"se_{name}E"] = np.sqrt(var / (trials - 1))
    return out


def run_open_loop_linefit(p: PlantParams, prior: Priors, J_assumed: float, records):
    """Estimate constant fields by least-squares line fits to the record rate.

    For each trajectory the rate samples w_k = ydt_k / dt scatter around
    the ramp z(t) = z(0) + gamma J b t, so the fitted slope divided by
    gamma * J_assumed estimates b.  Returns one estimate per record.
    """
    if isinstance(records, Trajectory):
        records = [records]
    out = np.empty(len(records))
    for i, rec in enumerate(records):
        n = rec.n_steps
        if n < 3:
            raise ConfigurationError("run_open_loop_linefit: need at least 3 samples to fit a line")
        t = rec.t[:n]
        w = rec.ydt[:n] / rec.dt
        tbar = t.mean()
        slope = np.dot(t - tbar, w) / np.dot(t - tbar, t - tbar)
        out[i] = slope / (p.gamma * J_assumed)
    return out
