"""The Monte Carlo: Kalman filtering and LQG control on simulated records.

The estimate m = (z~, b~) follows

    dm = A' m dt + B' u dt + K_O(t) [y dt - C m dt],    m(0) = (0, 0)

discretized by explicit Euler on the record grid (the record and filter
share dt).  Where a steady gain exists, a fluctuating field or the
steady_gain mode, _loop_setup requires dt * K_O1_steady < 0.1; a
constant-field dynamic_gain run is not checked.
Primed quantities use the design spin J' (``model.design_plant``); the
observer's own prior (``model.design_prior``) is the coherent variance
J'/2 for spin together with the scenario field prior.
The controller applies u = -K_C m with the stationary controller gain.

Modes: ``dynamic_gain`` uses the time-dependent Riccati gain K_O(t);
``steady_gain`` freezes K_O at its stationary value for the whole run,
which is the filter a constant transfer function would realize.  Both
reach the same saturation level; the frozen-gain transient is worse.

One closed-loop step (controller, record, the plant, whose field takes
the open loop's exact OU step, and the filter update) is linear in
x = (z, b, z~, b~) and the step's two normals xi: x <- A_k x + B_k xi.
``_step_maps`` derives (A_k, B_k) = (I + alpha dt, beta sqrt(dt)) from
the loop's one generator, ``model.closed_loop_generator``.
Between two bounds of a segment (the output rows, longer intervals split
into segments of at most SEGMENT_STEPS steps) the loop is therefore one
map, the lifted system of sampled-data control (Bamieh, Pearson, Francis
& Tannenbaum, Syst. Control Lett. 17, 79 (1991)):

    x_out = P x_in + Q xi,  P = A_{L-1}...A_0,  Q_j = A_{L-1}...A_{j+1} B_j,

with Q's columns in the (field, record)-per-step order of the draws.
``_lift`` builds the maps of many segments at once.  ``run_ensemble``
applies them to all trials, ``run_closed_loop`` to its one trial, and
both in tiles of TRIAL_BLOCK columns, zero-padded: every product has the
same shape whatever the trial count, so a trial's bits do not depend on
the trials beside it, and trial k of an ensemble equals the one-trial
run on its stream at every segment bound.  P x and Q xi are rounded
apart before their sum, so over a one-step segment the field row is the
exact OU step.  ``filter_record`` re-runs the open-loop filter over a
stored record, m <- (I + alpha_22 dt) m + K_O y dt on the same
generator's estimator block at lam = 0.

``run_ensemble`` reduces the trials in fixed blocks of TRIAL_BLOCK and
``summarize_ensemble`` adds the blocks in order; their docstrings state
the summation contract that makes the sums independent of how an
ensemble is split across workers.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .model import (DesignParams, PlantParams, Priors, closed_loop_generator, design_plant,
                    design_prior)
from .numerics import RngStream, trial_normals
from .riccati import controller_gain, integrate_estimator_riccati, steady_state_gains
from .truth_sim import Trajectory, field_step, step_count

MODES = ("dynamic_gain", "steady_gain")
TRIAL_BLOCK = 256  # trials per summation block and per product tile (the determinism contract)
SEGMENT_STEPS = 64   # most steps per segment map: its noise block has at most 128 rows
CHUNK_STEPS = 1024   # steps per run of segment maps built at once
DRAW_TILES = 8       # tiles of trials per noise draw: the block holds at most 128 x 2048 doubles


def filter_record(p: PlantParams, k1: np.ndarray, k2: np.ndarray, ydt: np.ndarray,
                  dt: float) -> np.ndarray:
    """Re-run the open-loop (u = 0) filter of plant p over a stored record;
    returns m with m[0] = 0.  k1, k2 are the gain components tabulated on
    the record grid.  The step m <- (I + alpha_22 dt) m + K_O ydt takes the
    estimator block alpha_22 of ``closed_loop_generator`` at lam = 0."""
    n = len(ydt) - 1
    if min(len(k1), len(k2)) < n:
        raise ConfigurationError("filter_record: gain tables are shorter than the record")
    alpha, _ = closed_loop_generator(p, DesignParams(J_prime=p.J), k1[:n], k2[:n], (0.0, 0.0))
    steps = (np.eye(2) + alpha[:, 2:, 2:] * dt).reshape(n, 4).tolist()
    mz = mb = 0.0
    m = array("d", (mz, mb))
    for (a00, a01, a10, a11), y, g1, g2 in zip(steps, ydt.tolist(), k1.tolist(), k2.tolist()):
        mz, mb = a00 * mz + a01 * mb + g1 * y, a10 * mz + a11 * mb + g2 * y
        m.extend((mz, mb))
    return np.array(m).reshape(-1, 2)


def _loop_setup(p: PlantParams, prior: Priors, d: DesignParams, mode: str, dt: float, n: int):
    """The observer gains of the mode on the grid of n steps and the
    constants (p, d, K_C, dt) of _step_maps.  Where a steady gain exists
    (a fluctuating field, or steady_gain, which needs one) it bounds dt,
    dt * K_O1_steady < 0.1; a constant-field dynamic_gain run is unchecked."""
    if mode not in MODES:
        raise ConfigurationError(f"unknown filter mode '{mode}'; choose one of {MODES}")
    if mode == "steady_gain" or p.sigma_bF > 0:
        k_steady = steady_state_gains(p, d).K_O   # UnsupportedCaseError at sigma_bF = 0
        if dt * k_steady[0] >= 0.1:
            raise ConfigurationError(f"Euler filter: dt * K_O1_steady >= 0.1; choose dt below "
                                     f"{0.1 / k_steady[0]:.3e}")
    if mode == "dynamic_gain":
        cov = integrate_estimator_riccati(design_plant(p, d), design_prior(d, prior), dt, n * dt)
        k1, k2 = cov.gain(p.sigma_M)
    else:
        k1, k2 = (np.full(n + 1, k) for k in k_steady)
    return k1, k2, (p, d, controller_gain(p, d), dt)


def _step_maps(g1: np.ndarray, g2: np.ndarray, c: tuple):
    """(A, B) of the closed-loop step x <- A x + B xi at observer gains
    (g1, g2), stacked over their shape: x = (z, b, z~, b~), xi = the step's
    (field, record) normals.  A = I + alpha dt, B = beta sqrt(dt) of
    ``closed_loop_generator``, but for the field row's exact OU step
    b <- decay b + amp xi_1 of truth_sim.field_step; c is from _loop_setup."""
    p, d, k_c, dt = c
    alpha, beta = closed_loop_generator(p, d, g1, g2, k_c)
    a = alpha * dt
    a += np.eye(4)
    b = beta[..., 1:3] * math.sqrt(dt)
    a[..., 1, 1], b[..., 1, 0] = field_step(p, dt)
    return a, b


def _lift(a: np.ndarray, b: np.ndarray):
    """(P, Q) of the segments stacked on the leading axis of a (m, L, 4, 4)
    and b (m, L, 4, 2): P = A_{L-1}...A_0 and Q[:, :, 2j:2j+2] =
    A_{L-1}...A_{j+1} B_j, by one backward scan over the steps."""
    m, steps = a.shape[:2]
    q = np.empty((m, 4, 2 * steps))
    q[..., -2:] = b[:, -1]
    r = a[:, -1]
    for j in range(steps - 2, -1, -1):
        np.matmul(r, b[:, j], out=q[..., 2 * j:2 * j + 2])
        r = r @ a[:, j]
    return r, q


def _schedule(n: int):
    """Output steps (0, every max(1, n // 200)-th step and n) and segment
    bounds: the output steps with every longer interval split evenly into
    segments of at most SEGMENT_STEPS steps."""
    out_steps = list(range(0, n + 1, max(1, n // 200)))
    if out_steps[-1] != n:
        out_steps.append(n)
    bounds = [0]
    for lo, hi in zip(out_steps, out_steps[1:]):
        pieces = -(-(hi - lo) // SEGMENT_STEPS)
        bounds += [lo + (hi - lo) * i // pieces for i in range(1, pieces + 1)]
    return out_steps, bounds


def _chunks(k1: np.ndarray, k2: np.ndarray, c: tuple, bounds: list):
    """The maps of the segments between ``bounds``, in runs of consecutive
    segments of about CHUNK_STEPS steps: yields (edges, idx, a, b, p, q).
    Segment i runs from step edges[i] to edges[i + 1]; its steps sit at
    the end of row i of idx (m, L), a and b, behind identity maps
    (idx = -1) that pad it to the longest segment's L.  (p[i], q[i]) is
    its _lift, the padding's columns of q[i] being zero."""
    steps = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    per = max(1, CHUNK_STEPS // steps)
    for lo in range(0, len(bounds) - 1, per):
        edges = np.array(bounds[lo:lo + per + 1])
        idx = edges[1:, None] - steps + np.arange(steps)
        idx[idx < edges[:-1, None]] = -1
        g = np.maximum(idx, 0)
        a, b = _step_maps(k1[g], k2[g], c)
        a[idx < 0] = np.eye(4)
        b[idx < 0] = 0.0
        yield (edges, idx, a, b) + _lift(a, b)


def _tiles(rows: np.ndarray) -> np.ndarray:
    """Rows (r, tiles * TRIAL_BLOCK) viewed as (tiles, r, TRIAL_BLOCK)."""
    return rows.reshape(len(rows), -1, TRIAL_BLOCK).swapaxes(0, 1)


def _step(a: np.ndarray, b: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a x + b w, the two products rounded apart before the sum."""
    y = a @ x
    y += b @ w
    return y


def _advance(x, maps, w, trials, k0):
    """State tiles x (tiles, 4, TRIAL_BLOCK) after the segment from step k0
    with maps (p, q, a, b), its noise rows w (draws, tiles * TRIAL_BLOCK)
    holding the first ``trials`` columns.  Every product runs on whole tiles, so a trial's
    bits do not depend on the other columns.  A trial whose state is not
    finite is replayed from x step by step through (a, b), and a replay
    that stays finite replaces that trial's state.  Returns (state, None),
    or (state, k) when a replayed trial is not finite after step k - 1."""
    p, q, a, b = maps
    y = _step(p, q, x, _tiles(w))
    ok = np.isfinite(y).all(axis=1)
    ok.reshape(-1)[trials:] = True
    if not ok.all():
        z = x
        for j in range(len(a)):
            z = _step(a[j], b[j], z, _tiles(w[2 * j:2 * j + 2]))
            if not np.isfinite(z).all(axis=1)[~ok].all():
                return y, k0 + j + 1
        y = np.where(ok[:, None], y, z)
    return y, None


def _diverged(who: str, k: int, dt: float) -> DivergenceError:
    """The error naming step k's time as the first with a non-finite state."""
    return DivergenceError(f"{who}: non-finite state at t = {k * dt:.6e}")


def _segments(chunk):
    """(k0, k1, (p, q, a, b)) per segment of a _chunks item, the maps cut to
    the segment's own steps."""
    edges, idx, a, b, p, q = chunk
    pad = a.shape[1] - np.diff(edges)
    for i, (lo, hi, j) in enumerate(zip(edges.tolist(), edges[1:].tolist(), pad.tolist())):
        yield lo, hi, (p[i], q[i, :, 2 * j:], a[i, j:], b[i, j:])


def run_closed_loop(p: PlantParams, prior: Priors, d: DesignParams, mode: str,
                    rng: RngStream, dt: float, T: float) -> tuple[Trajectory, np.ndarray]:
    """Single closed-loop trial with u = -K_C m applied causally.

    Returns (trajectory, m): the truth trajectory and the filter history,
    columns (z~, b~).  m[k] is the estimate at t[k] built from increments
    before t[k], so the grids align and innovation k is ydt[k] - m[k, 0] dt.

    Draw layout from position 0: z(0), b(0), then (field, record) per
    step; the vectorized ensemble reads it per trial stream.  The trial is
    the one-trial ensemble: the states at segment bounds come from the
    ensemble's segment maps on a one-column tile, so they equal that
    trial's rows of run_ensemble bit for bit; the steps inside a segment
    are filled by the step maps from the segment's start, for all segments
    of a chunk at once.  A non-finite state raises DivergenceError naming
    the first such time.
    """
    n = step_count("run_closed_loop", p, dt, T)
    k1, k2, c = _loop_setup(p, prior, d, mode, dt, n)
    draws = rng.normals_at(0, 2 + 2 * n)
    xi = draws[2:].reshape(n, 2)
    h = np.empty((n + 1, 4))                 # per time: z, b, z~, b~
    h[0] = (math.sqrt(prior.sigma_z0) * draws[0], math.sqrt(prior.sigma_b0) * draws[1], 0.0, 0.0)
    x = np.zeros((1, 4, TRIAL_BLOCK))
    x[0, :, 0] = h[0]
    w = np.zeros((2 * SEGMENT_STEPS, TRIAL_BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):   # the guards below report these
        for chunk in _chunks(k1, k2, c, _schedule(n)[1]):
            starts = []
            for k0, k_end, maps in _segments(chunk):
                starts.append(x[0, :, 0])
                w[:2 * (k_end - k0), 0] = draws[2 + 2 * k0:2 + 2 * k_end]
                x, k = _advance(x, maps, w[:2 * (k_end - k0)], 1, k0)
                if k is not None:
                    raise _diverged("run_closed_loop", k, dt)
                h[k_end] = x[0, :, 0]
            # the steps inside the segments, all segments of the chunk at once
            _, idx, a, b, _, _ = chunk
            noise = np.where(idx[..., None] < 0, 0.0, xi[idx])[..., None]
            y = np.array(starts)[..., None]
            for j in range(idx.shape[1] - 1):
                y = _step(a[:, j], b[:, j], y, noise[:, j])
                inner = idx[:, j] >= 0
                h[idx[inner, j] + 1] = y[inner, :, 0]
    ok = np.isfinite(h).all(axis=1)
    if not ok.all():
        raise _diverged("run_closed_loop", np.argmin(ok), dt)
    kc0, kc1 = c[2]
    u = kc0 * h[:, 2]
    u += kc1 * h[:, 3]
    ydt = h[:-1, 0] * dt
    ydt += math.sqrt(p.sigma_M * dt) * xi[:, 1]
    traj = Trajectory(t=np.arange(n + 1) * dt, z=h[:, 0], b=h[:, 1],
                      u=np.append(-u[:-1], -u[-2]), ydt=np.append(ydt, 0.0), dt=dt)
    return traj, h[:, 2:4]


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

    The step is linear, so each segment between output rows (split into
    segments of at most SEGMENT_STEPS steps) is one map x <- P x + Q xi
    over all its draws, built once per call from the step maps and
    applied to every block of trials as one tile, zero-padded to
    TRIAL_BLOCK columns.  A segment's normals are drawn for at most
    DRAW_TILES tiles at a time, which bounds the noise block and changes
    no bit.  A non-finite state or sum raises DivergenceError naming the
    time.
    """
    if trials < 1:
        raise ConfigurationError("run_ensemble: need at least one trial")
    n = step_count("run_ensemble", p, dt, T)
    k1, k2, c = _loop_setup(p, prior, d, mode, dt, n)
    out_steps, bounds = _schedule(n)
    t_out = np.array(out_steps) * dt
    full, rest = divmod(trials, TRIAL_BLOCK)
    tiles = full + (rest > 0)
    parts = np.zeros((tiles, 4, len(out_steps)))

    ids = np.arange(trials) + trial_offset
    init = trial_normals(seed, ids, 2)
    x = np.zeros((4, tiles * TRIAL_BLOCK))   # rows z, b, z~, b~; padding columns stay zero
    np.multiply(init[:, 0], math.sqrt(prior.sigma_z0), out=x[0, :trials])
    np.multiply(init[:, 1], math.sqrt(prior.sigma_b0), out=x[1, :trials])
    x = _tiles(x).copy()
    err = np.empty((4, tiles, TRIAL_BLOCK))   # (b~-b)^2, its square, (z~-z)^2, its square

    def record(i):
        np.subtract(x[:, 3], x[:, 1], out=err[0])
        np.subtract(x[:, 2], x[:, 0], out=err[2])
        err[0] *= err[0]
        err[2] *= err[2]
        np.multiply(err[0], err[0], out=err[1])
        np.multiply(err[2], err[2], out=err[3])
        parts[:full, :, i] = err[:, :full].sum(axis=2).T
        if rest:
            parts[full, :, i] = err[:, full, :rest].sum(axis=1)

    steps = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    # one row per draw, reused by every segment and group of DRAW_TILES tiles
    noise = np.zeros((2 * steps, min(tiles, DRAW_TILES) * TRIAL_BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):   # the guards below report these
        record(0)
        row = 1                               # the next output row
        for chunk in _chunks(k1, k2, c, bounds):
            for k0, k_end, maps in _segments(chunk):
                first_bad = []
                for g in range(0, tiles, DRAW_TILES):
                    g_end = min(tiles, g + DRAW_TILES)
                    lo, hi = g * TRIAL_BLOCK, min(trials, g_end * TRIAL_BLOCK)
                    # draws 2 + 2k and 3 + 2k are step k's (field, record) normals,
                    # drawn straight into the rows of the noise block
                    w = noise[:2 * (k_end - k0), :(g_end - g) * TRIAL_BLOCK]
                    trial_normals(seed, ids[lo:hi], len(w), start=2 + 2 * k0,
                                  out=w[:, :hi - lo].T)
                    w[:, hi - lo:] = 0.0
                    x[g:g_end], k = _advance(x[g:g_end], maps, w, hi - lo, k0)
                    first_bad += [] if k is None else [k]
                if first_bad:
                    raise _diverged("run_ensemble", min(first_bad), dt)
                if k_end == out_steps[row]:
                    record(row)
                    row += 1
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
