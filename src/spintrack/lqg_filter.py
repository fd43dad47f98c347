"""Kalman filtering and LQG control against simulated measurement records.

The estimate m = (z~, b~) follows

    dm = A' m dt + B' u dt + K_O(t) [y dt - C m dt],    m(0) = (0, 0)

discretized by explicit Euler on the record grid (the record and filter
share dt; both modes need dt * K_O1_steady < 0.1, checked in _loop_setup).
Primed quantities use the design spin J'; the observer's own prior is the
coherent variance J'/2 for spin together with the scenario field prior.
The controller applies u = -K_C m with the stationary controller gain.

Modes: ``dynamic_gain`` uses the time-dependent Riccati gain K_O(t);
``steady_gain`` freezes K_O at its stationary value for the whole run,
which is the filter a constant transfer function would realize.  Both
reach the same saturation level; the frozen-gain transient is worse.

One closed-loop step (the plant, whose field takes the open loop's exact
OU step, record, controller and filter update) is written once, in
``_loop_step`` with the filter update in ``_filter_step``.  The
same lines run on Python floats for one trial (``run_closed_loop``,
``filter_record``) and in place on the trials-wide state rows of an
ensemble (``run_ensemble``).  Float and array arithmetic round alike, so
a trial of an ensemble equals the one-trial run bit for bit.

``run_ensemble`` reduces the trials in fixed blocks of TRIAL_BLOCK and
``summarize_ensemble`` adds the blocks in order; their docstrings state
the summation contract that makes the sums independent of how an
ensemble is split across workers.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import replace

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .model import DesignParams, PlantParams, Priors
from .numerics import RngStream, trial_normals
from .riccati import controller_gain, integrate_estimator_riccati, steady_state_gains
from .truth_sim import Trajectory, field_step, step_count

MODES = ("dynamic_gain", "steady_gain")
TRIAL_BLOCK = 256  # trials per summation block of run_ensemble (the determinism contract)


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
    then the plant (Euler in z, the exact OU step b <- decay b + w1 of
    truth_sim.field_step) and the filter.  w1, w2 are the scaled noises of
    _scaled_noise; c holds the constants of _loop_setup.  Returns (z, b,
    z~, b~, u, y dt); on arrays the state rows passed in are updated in
    place."""
    gj, gjp, gb, decay, kc0, kc1, dt = c
    u = kc0 * mz
    u += kc1 * mb
    u = -u
    ydt = z * dt
    ydt += w2
    dx = b + u
    dx *= gj
    dx *= dt
    z += dx
    b *= decay
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


def _loop_setup(p: PlantParams, prior: Priors, d: DesignParams, mode: str, dt: float, n: int):
    """The observer gains of the mode on the grid of n steps, the constants
    of _loop_step and the field noise amplitude; both modes bound dt by the
    saturated gain, dt * K_O1_steady < 0.1, which steady_gain needs."""
    if mode not in MODES:
        raise ConfigurationError(f"unknown filter mode '{mode}'; choose one of {MODES}")
    p_des = design_plant(p, d)
    if mode == "steady_gain" or p.sigma_bF > 0:
        k_steady = steady_state_gains(p_des, d).K_O   # UnsupportedCaseError at sigma_bF = 0
        if dt * k_steady[0] >= 0.1:
            raise ConfigurationError(f"Euler filter: dt * K_O1_steady >= 0.1; choose dt below "
                                     f"{0.1 / k_steady[0]:.3e}")
    if mode == "dynamic_gain":
        cov = integrate_estimator_riccati(p_des, design_prior(d, prior), dt, n * dt)
        k1, k2 = cov.gain(p_des.sigma_M)
    else:
        k1, k2 = (np.full(n + 1, k) for k in k_steady)
    kc0, kc1 = controller_gain(p, d)
    decay, amp = field_step(p, dt)
    return k1, k2, (p.gamma * p.J, p.gamma * d.J_prime, p.gamma_b, decay,
                    float(kc0), float(kc1), dt), amp


def _scaled_noise(w: np.ndarray, draws: np.ndarray, amp: float, p: PlantParams, dt: float):
    """Scale rows (xi_1, xi_2, xi_1, ...) of standard normals into w, rows
    alike, as the noises of _loop_step: amp xi_1 for the field and
    (xi_2 sqrt(dt)) sqrt(sigma_M) for the record."""
    np.multiply(draws[0::2], amp, out=w[0::2])
    np.multiply(draws[1::2], math.sqrt(dt), out=w[1::2])
    w[1::2] *= math.sqrt(p.sigma_M)
    return w


def run_closed_loop(p: PlantParams, prior: Priors, d: DesignParams, mode: str,
                    rng: RngStream, dt: float, T: float) -> tuple[Trajectory, np.ndarray]:
    """Single closed-loop trial with u = -K_C m applied causally.

    Returns (trajectory, m): the truth trajectory and the filter history,
    columns (z~, b~).  m[k] is the estimate at t[k] built from increments
    before t[k], so the grids align and innovation k is ydt[k] - m[k, 0] dt.

    Draw layout: z(0), b(0), then (field, record) per step; the vectorized
    ensemble consumes the identical layout per trial stream.  A non-finite
    state raises DivergenceError naming the first such time.
    """
    n = step_count("run_closed_loop", p, dt, T)
    k1, k2, c, amp = _loop_setup(p, prior, d, mode, dt, n)
    draws = rng.normals(2 + 2 * n)
    w = _scaled_noise(draws[2:], draws[2:], amp, p, dt).tolist()
    x = (math.sqrt(prior.sigma_z0) * float(draws[0]),
         math.sqrt(prior.sigma_b0) * float(draws[1]), 0.0, 0.0, 0.0, 0.0)
    rows = array("d", x)     # per time: z, b, z~, b~, then u and y dt of the step before
    for w1, w2, g1, g2 in zip(w[0::2], w[1::2], k1.tolist(), k2.tolist()):
        x = _loop_step(x[0], x[1], x[2], x[3], w1, w2, g1, g2, c)
        rows.extend(x)
    h = np.array(rows).reshape(n + 1, 6)
    ok = np.isfinite(h[:, :4]).all(axis=1)
    if not ok.all():
        raise DivergenceError(f"run_closed_loop: non-finite state at t = {np.argmin(ok) * dt:.6e}")
    traj = Trajectory(t=np.arange(n + 1) * dt, z=h[:, 0], b=h[:, 1],
                      u=np.append(h[1:, 4], h[-1, 4]), ydt=np.append(h[1:, 5], 0.0), dt=dt)
    return traj, h[:, 2:4]


def _step_block(trials: int) -> int:
    """Steps per block of draws: about 2**16 trial-steps, so the noise block
    stays in cache."""
    return min(256, max(8, (1 << 16) // trials))


def run_ensemble(p: PlantParams, prior: Priors, d: DesignParams, mode: str,
                 seed: int, trials: int, dt: float, T: float, trial_offset: int = 0):
    """Vectorized closed-loop ensemble; per-trial draws match run_closed_loop
    on trial stream seed XOR (trial_offset + k), with output at t = 0, at
    every max(1, n // 200)-th of the n steps and at T.

    Returns (t_out, parts): parts[i] stacks, per output time, the sums and
    sums of squares of (b~-b)^2 and (z~-z)^2 (rows: s1_b, s2_b, s1_z,
    s2_z) over block i of the trials.  Blocks hold TRIAL_BLOCK trials,
    counted from ``trial_offset``, each reduced with numpy's pairwise sum;
    ``summarize_ensemble`` adds them in block order.  An ensemble split at
    block boundaries (the montecarlo verb gives each worker one range of
    whole blocks) therefore has the same blocks, and the same sums, as one
    call.

    All trials advance together through _loop_step on the trials-wide
    state rows, so the gain table is solved once per call.  A non-finite
    state or sum raises DivergenceError naming the time.
    """
    if trials < 1:
        raise ConfigurationError("run_ensemble: need at least one trial")
    n = step_count("run_ensemble", p, dt, T)
    k1, k2, c, amp = _loop_setup(p, prior, d, mode, dt, n)

    out_steps = list(range(0, n + 1, max(1, n // 200)))
    if out_steps[-1] != n:
        out_steps.append(n)
    t_out = np.array(out_steps) * dt
    full, rest = divmod(trials, TRIAL_BLOCK)
    parts = np.zeros((full + (rest > 0), 4, len(out_steps)))

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
    noise = np.empty((2 * min(step_block, n), trials))   # one row per draw, reused by every block
    with np.errstate(over="ignore", invalid="ignore"):   # the guards below report these
        record(0)
        row = 1                               # the next output row
        for k0 in range(0, n, step_block):
            k_end = min(k0 + step_block, n)
            cols = 2 * (k_end - k0)
            # draws 2 + 2k and 3 + 2k are step k's (field, record) normals, drawn
            # straight into the rows of the noise block and scaled there
            trial_normals(seed, ids, cols, start=2 + 2 * k0, out=noise[:cols].T)
            w = _scaled_noise(noise[:cols], noise[:cols], amp, p, dt)
            start_state = state.copy()
            for j, k in enumerate(range(k0, k_end)):
                step(j, k)
                if k + 1 == out_steps[row]:
                    record(row)
                    row += 1
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


def summarize_ensemble(parts: np.ndarray, trials: int):
    """Means and standard errors of (b~-b)^2 and (z~-z)^2 from the block
    sums of ``run_ensemble``.

    Summation contract: the blocks are added in block order starting from
    zero, so the result does not depend on how the blocks were split
    across calls.
    """
    if trials < 2:
        raise ConfigurationError("summarize_ensemble: need at least two trials for standard errors")
    sums = np.zeros_like(parts[0])
    for part in parts:
        sums += part
    out = {}
    for name, s1, s2 in (("b", sums[0], sums[1]), ("z", sums[2], sums[3])):
        mean = s1 / trials
        var = np.maximum(s2 / trials - mean ** 2, 0.0)
        out[f"sigma_{name}E"] = mean
        out[f"se_{name}E"] = np.sqrt(var / (trials - 1))
    return out


def run_open_loop_linefit(ydt: np.ndarray, dt: float):
    """Least-squares line fits to the record rates w = ydt / dt.

    Row r of ``ydt`` (shape (records, n)) holds the increments over
    [k dt, (k + 1) dt), whose rates scatter around the ramp
    z(t) = z(0) + gamma J b t.  Returns (slopes, intercepts), one per
    record; slope / (gamma J') estimates b under an assumed spin J'.
    """
    n = ydt.shape[-1]
    if n < 3:
        raise ConfigurationError("run_open_loop_linefit: need at least 3 samples to fit a line")
    t = np.arange(n) * dt
    w = ydt / dt
    tbar = t.mean()
    slopes = (w @ (t - tbar)) / float(np.dot(t - tbar, t - tbar))
    return slopes, w.mean(axis=1) - slopes * tbar
