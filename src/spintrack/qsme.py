"""Small-spin quantum oracle: conditioned spin states and gridded Bayes.

A spin of magnitude J is monitored continuously in Jz while a total field
h = b + u rotates it about y.  Under efficient measurement (eta = 1) a
pure state stays pure, and in the Jz eigenbasis it is a real vector psi of
length 2J+1.  It obeys the Ito stochastic Schroedinger equation

    d psi = [(gamma h / 2) K^T dt - (M/2) (Jz - <Jz>)^2 dt
             + sqrt(M) (Jz - <Jz>) dWbar] psi,        then normalize,

with the record y dt = <Jz> dt + sqrt(sigma_M) dWbar, sigma_M = 1/(4 M).
Here Jy = iK/2, where K is real, antisymmetric and tridiagonal with
K[i+1, i] = amp[i] = -K[i, i+1] from the ladder amplitudes;
spin_operators builds it once and SpinOperators carries it, so on a row
stack of states the field term is one product, psi @ K.  The Ito
product of the back-action terms reproduces the measurement dissipator
M (Jz rho Jz - {Jz^2, rho}/2) of the master equation for rho = psi psi^T,
which is therefore positive semidefinite by construction.

One private kernel, ``_sse_update``, steps a (batch, dim) stack of such
states for the Bayes grid and the trajectory simulator; it rejects
eta != 1, where a conditioned state is mixed.  Its update order: the
measurement term in one temporary, f = ((M dt/2) dz - sqrt(M) dWbar) dz
psi with dz = Jz - <Jz>, then psi - f; the field term psi @ K scaled in
place by gamma dt h / 2 and added (skipped when every h is 0); then the
norm guard and an in-place normalization.  sme_step is the
unconditional (eta = 0) zero-field equation, pure dephasing, on the first
superdiagonal of rho that <Jx> reads.  Both enforce dt M (2J+1) < 0.5,
and the entry points name the time of a step that fails.

Field estimation with unknown constant b keeps one conditioned state per
field hypothesis, all filtered against the same physical record: the
hypothesis innovation is dWbar_b = 2 sqrt(M) (y dt - <Jz>_b dt) and the
unnormalized weights follow d pbar = 4 M eta <Jz>_b pbar y dt.

This module exists at desk scale (J up to about 50) to validate the
Gaussian/Kalman reduction used everywhere else:

* eta = 0 reduces to the unconditional equation, <Jx>(t) = J exp(-M t/2);
* QND conditioning (h = 0, eta = 1) collapses <Delta Jz^2> along the
  deterministic curve sigma_z0 sigma_M / (sigma_M + sigma_z0 t);
* the record statistics reproduce the classical-equivalent model: a ramp
  of gradient gamma b J on top of an offset of variance J/2 plus white
  shot noise;
* the gridded posterior mean tracks the Kalman field estimate run on the
  same record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InstabilityError, NumericalError, UnsupportedCaseError
from .lqg_filter import filter_record
from .model import PlantParams, Priors
from .numerics import trial_normals
from .riccati import linearized_riccati_curve


@dataclass
class SpinOperators:
    """Spin J in the Jz eigenbasis m = J ... -J: the eigenvalues mz and the
    J+ amplitudes amp[i] = <i| J+ |i+1>.  Jx = (J+ + J-)/2, and Jy = iK/2
    with K[i+1, i] = amp[i] = -K[i, i+1], so that for a row stack
    (psi @ K)[:, i] = amp[i] psi[:, i+1] - amp[i-1] psi[:, i-1]."""

    J: float
    mz: np.ndarray
    amp: np.ndarray
    K: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.mz)


def spin_operators(J: float) -> SpinOperators:
    """Jz eigenvalues and ladder amplitudes for spin J."""
    two_j = 2.0 * J
    if J < 0 or abs(two_j - round(two_j)) > 1e-12:
        raise ConfigurationError(f"spin_operators: 2J must be a nonnegative integer, got J = {J}")
    m = J - np.arange(int(round(two_j)) + 1)
    amp = np.sqrt(J * (J + 1.0) - m[1:] * (m[1:] + 1.0))
    K = np.diag(amp, -1) - np.diag(amp, 1)
    return SpinOperators(J=J, mz=m, amp=amp, K=K)


def coherent_state_x(J: float) -> np.ndarray:
    """The maximal-Jx eigenstate (spin polarized along x) as a real unit
    vector: amplitude sqrt(C(2J, i) / 2^(2J)) on basis state i."""
    n = spin_operators(J).dim - 1   # rejects a J with 2J not a nonnegative integer
    return np.sqrt([math.comb(n, i) / 2 ** n for i in range(n + 1)])


def _jz_mean(psi: np.ndarray, mz: np.ndarray) -> np.ndarray:
    """<Jz> of each state of a (batch, dim) stack."""
    return (psi * psi) @ mz


def _check_step(ops: SpinOperators, p: PlantParams, dt: float) -> None:
    if not dt * p.M * ops.dim < 0.5:
        raise ConfigurationError("SME step: dt * M * (2J+1) too large; reduce the step")


def _require_at_least(who: str, name: str, value: int, low: int) -> None:
    if value < low:
        raise ConfigurationError(f"{who}: {name} must be at least {low}, got {value}")


def _at_time(err: NumericalError, k: int, dt: float) -> NumericalError:
    """The same error, naming the start time of the failing step k."""
    return type(err)(f"{err} (step at t = {k * dt:.6e})")


def _sse_update(psi: np.ndarray, jz: np.ndarray, h, dwbar, ops: SpinOperators,
                p: PlantParams, dt: float) -> np.ndarray:
    """The one Ito-Euler step of the stochastic Schroedinger equation.

    psi is a (batch, dim) stack of real unit vectors with <Jz> values jz;
    h (the field) and dwbar (the sqrt(dt)-scaled Wiener increments) are
    scalars or one value per state.  h = 0 skips the precession.  The
    result is normalized; a norm that is not positive and finite raises
    InstabilityError.
    """
    _check_step(ops, p, dt)
    if p.eta != 1.0:
        raise UnsupportedCaseError("SSE step: a conditioned state is pure only at eta = 1, "
                                   f"got eta = {p.eta}")
    dz = ops.mz - jz[:, None]
    f = (0.5 * p.M * dt) * dz
    f -= math.sqrt(p.M) * np.asarray(dwbar)[..., None]
    f *= dz
    f *= psi
    out = psi - f
    h = np.asarray(h)
    if np.count_nonzero(h):
        # gamma h K psi dt; the sign makes a positive field drive <Jz>
        # upward, matching the state-space convention dz = +gamma J h dt
        kpsi = psi @ ops.K
        kpsi *= (0.5 * p.gamma * dt) * h[..., None]
        out += kpsi
    norm2 = np.einsum("bi,bi->b", out, out)
    if not (np.minimum.reduce(norm2) > 0.0 and np.maximum.reduce(norm2) < math.inf):
        raise InstabilityError("SSE step: state norm is not positive and finite; reduce the step")
    out /= np.sqrt(norm2)[:, None]
    return out


def sme_step(coh: np.ndarray, ops: SpinOperators, p: PlantParams, dt: float) -> np.ndarray:
    """One Ito-Euler step of the unconditional (eta = 0) zero-field
    equation, rho_ij <- rho_ij (1 - M (m_i - m_j)^2 dt / 2), in place on the
    superdiagonal coh_i = rho_{i,i+1} that <Jx> reads: a factor 1 - M dt / 2
    > 0 under the step guard.  A non-finite entry raises InstabilityError."""
    _check_step(ops, p, dt)
    coh *= 1.0 - (0.5 * p.M * dt)
    if not np.all(np.isfinite(coh)):
        raise InstabilityError("SME step: state is not finite; reduce the step")
    return coh


# ---------------------------------------------------------------------------
# gridded Bayesian field estimation
# ---------------------------------------------------------------------------

@dataclass
class FieldGrid:
    """Field hypotheses with weights and one conditioned state each.

    jz holds the <Jz> of each state, read once per step: the reweighting
    and the propagation through the same increment both use it.
    """

    b_values: np.ndarray
    p: np.ndarray
    psi: np.ndarray  # stack (n_b, dim)
    jz: np.ndarray
    ops: SpinOperators

    def posterior_mean(self) -> float:
        return float(self.p @ self.b_values)


def _coherent_grid(ops: SpinOperators, b_values: np.ndarray, w: np.ndarray) -> FieldGrid:
    psi = np.tile(coherent_state_x(ops.J), (len(b_values), 1))
    return FieldGrid(b_values=b_values, p=w, psi=psi, jz=_jz_mean(psi, ops.mz), ops=ops)


def gaussian_grid(ops: SpinOperators, sigma_b0: float, n_points: int) -> FieldGrid:
    """Uniform grid over +-4 standard deviations with Gaussian prior weights."""
    if n_points < 2:
        raise ConfigurationError("gaussian_grid: need at least two hypotheses")
    sd = math.sqrt(sigma_b0)
    b_values = np.linspace(-4.0 * sd, 4.0 * sd, n_points)
    w = np.exp(-0.5 * (b_values / sd) ** 2)
    return _coherent_grid(ops, b_values, w / w.sum())


def two_point_grid(ops: SpinOperators, b0: float) -> FieldGrid:
    return _coherent_grid(ops, np.array([-b0, b0]), np.array([0.5, 0.5]))


def bayes_grid_update(grid: FieldGrid, ydt: float, p: PlantParams) -> FieldGrid:
    """Reweight hypotheses: pbar_b *= 1 + 4 M eta <Jz>_b ydt, then normalize.

    Uses each hypothesis's current <Jz>_b, so call before propagating the
    grid states through the same increment.
    """
    w = grid.jz * (4.0 * p.M * p.eta * ydt)
    w += 1.0
    w *= grid.p
    np.maximum(w, 0.0, out=w)
    total = w.sum()
    if not (total > 0.0 and math.isfinite(total)):
        raise NumericalError("bayes_grid_update: posterior weights degenerated")
    w /= total
    return FieldGrid(b_values=grid.b_values, p=w, psi=grid.psi, jz=grid.jz, ops=grid.ops)


def propagate_grid(grid: FieldGrid, ydt: float, p: PlantParams, dt: float) -> FieldGrid:
    """Condition every hypothesis state on the shared record increment."""
    dwbar = 2.0 * math.sqrt(p.M) * (ydt - grid.jz * dt)
    psi = _sse_update(grid.psi, grid.jz, grid.b_values, dwbar, grid.ops, p, dt)
    return FieldGrid(b_values=grid.b_values, p=grid.p, psi=psi, jz=_jz_mean(psi, grid.ops.mz),
                     ops=grid.ops)


def grid_filter_record(grid: FieldGrid, ydts: np.ndarray, p: PlantParams, dt: float):
    """Run reweight-then-propagate over a full record; returns the final
    grid and the posterior-mean history."""
    means = np.empty(len(ydts) + 1)
    means[0] = grid.posterior_mean()
    try:
        for k, ydt in enumerate(ydts.tolist()):
            grid = bayes_grid_update(grid, ydt, p)
            grid = propagate_grid(grid, ydt, p, dt)
            means[k + 1] = grid.posterior_mean()
    except NumericalError as err:
        raise _at_time(err, k, dt) from err
    return grid, means


# ---------------------------------------------------------------------------
# trajectory simulation
# ---------------------------------------------------------------------------

def unconditional_jx_decay(ops: SpinOperators, p: PlantParams, dt: float, n: int) -> np.ndarray:
    """<Jx>(t) under the eta = 0 (unconditional) equation; exact law is
    J exp(-M t / 2)."""
    psi = coherent_state_x(ops.J)
    # superdiagonal of rho = psi psi^T as a strided view: <Jx> sums as on the dense rho
    coh = np.outer(psi, psi).reshape(-1)[1::ops.dim + 1]
    jx = np.empty(n + 1)
    jx[0] = ops.amp @ coh   # tr(rho Jx) for a real symmetric rho
    try:
        for k in range(n):
            coh = sme_step(coh, ops, p, dt)
            jx[k + 1] = ops.amp @ coh
    except NumericalError as err:
        raise _at_time(err, k, dt) from err
    return jx


def simulate_ramp_ensemble(ops: SpinOperators, p: PlantParams, b: float, seed: int,
                           trajectories: int, dt: float, n: int):
    """Batched conditioned trajectories in a fixed field b, all advanced
    together; trajectory k draws from trial_stream(seed, k).

    Returns (ydts, jz_walks, mean_djz2): the physical records
    (trajectories, n), the <Jz> walks (trajectories, n + 1) and the
    trajectory-averaged <Delta Jz^2> (n + 1).  At b = 0 this is the QND
    ensemble.
    """
    _require_at_least("simulate_ramp_ensemble", "trajectories", trajectories, 1)
    _require_at_least("simulate_ramp_ensemble", "n", n, 1)
    psi = np.tile(coherent_state_x(ops.J), (trajectories, 1))
    draws = trial_normals(seed, np.arange(trajectories), n)
    draws *= math.sqrt(dt)
    mz2 = ops.mz * ops.mz
    jz_walks = np.empty((trajectories, n + 1))
    mean_djz2 = np.empty(n + 1)
    dwbars = draws.T          # row k: the sqrt(dt)-scaled increments of step k
    try:
        for k in range(n + 1):
            prob = psi * psi
            jz = prob @ ops.mz    # _jz_mean's product, sharing psi^2 with <Jz^2>
            jz_walks[:, k] = jz
            # the bits of np.mean, without its per-call dispatch
            mean_djz2[k] = np.add.reduce(prob @ mz2 - jz * jz) / trajectories
            if k == n:
                break
            psi = _sse_update(psi, jz, b, dwbars[k], ops, p, dt)
    except NumericalError as err:
        raise _at_time(err, k, dt) from err
    # the records y dt = <Jz> dt + sqrt(sigma_M) dWbar, elementwise as if per step
    ydts = jz_walks[:, :n] * dt
    draws *= math.sqrt(p.sigma_M)
    ydts += draws
    return ydts, jz_walks, mean_djz2


# ---------------------------------------------------------------------------
# verification suites (consumed by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------

def _suite_setup(who: str, J: float, gamma: float, M: float, dt: float, T: float):
    """Spin operators, plant and step count of a suite; a horizon of less
    than one step is a ConfigurationError."""
    if not (dt > 0 and T / dt > 0.5):
        raise ConfigurationError(f"{who}: need dt > 0 and T of at least one step, "
                                 f"got dt = {dt}, T = {T}")
    return spin_operators(J), PlantParams(J=J, gamma=gamma, M=M), int(round(T / dt))


def suite_jx_decay(J: float = 10, gamma: float = 1e6, M: float = 1e4,
                   dt: float = 1e-7, T: float = 1e-4) -> dict:
    """Unconditional spin-length decay against J exp(-M t / 2); 1% budget."""
    ops, p, n = _suite_setup("suite_jx_decay", J, gamma, M, dt, T)
    jx = unconditional_jx_decay(ops, p, dt, n)
    t = np.arange(n + 1) * dt
    predicted = J * np.exp(-M * t / 2.0)
    dev = float(np.max(np.abs(jx - predicted) / predicted))
    return {"name": "jx_decay", "passed": dev <= 0.01, "measured": dev,
            "tolerance": 0.01, "t": t, "jx": jx, "predicted": predicted}


def suite_variance_tracking(J: float = 10, gamma: float = 1e6, M: float = 1e4,
                            trajectories: int = 200, dt: float = 5e-9,
                            T: float = 1e-5, seed: int = 2024) -> dict:
    """Trajectory-averaged conditioned variance along the deterministic
    collapse curve sigma_z0 sigma_M / (sigma_M + sigma_z0 t); 5% budget.

    Also checks the QND structure: the averaged variance decreases
    monotonically (within averaging noise) and the <Jz> walk is unbiased.
    """
    _require_at_least("suite_variance_tracking", "trajectories", trajectories, 2)
    ops, p, n = _suite_setup("suite_variance_tracking", J, gamma, M, dt, T)
    _, walks, mean_djz2 = simulate_ramp_ensemble(ops, p, 0.0, seed, trajectories, dt, n)
    t = np.arange(n + 1) * dt
    sz0 = J / 2.0
    sm = p.sigma_M
    predicted = sz0 * sm / (sm + sz0 * t)
    dev = float(np.max(np.abs(mean_djz2 - predicted) / predicted))
    # martingale mean: 3 sigma band around zero at the final time
    final_walk = walks[:, -1]
    walk_se = float(np.std(final_walk, ddof=1) / math.sqrt(trajectories))
    unbiased = abs(float(np.mean(final_walk))) <= 3.0 * walk_se
    coarse = mean_djz2[:: max(1, n // 50)]
    monotone = bool(np.all(np.diff(coarse) <= 0.02 * coarse[:-1] + 1e-12))
    passed = dev <= 0.05 and unbiased and monotone
    return {"name": "variance_tracking", "passed": passed, "measured": dev,
            "tolerance": 0.05, "unbiased": unbiased, "monotone": monotone,
            "t": t, "dJz2": mean_djz2, "predicted": predicted}


def suite_two_point(J: float = 16, gamma: float = 1e6, M: float = 1e4,
                    b0: float = 2.8e-3, dt: float = 5e-9, T: float = 1e-4,
                    records: int = 3, seed: int = 3001) -> dict:
    """Posterior concentration on the true field of a two-hypothesis grid."""
    _require_at_least("suite_two_point", "records", records, 1)
    ops, p, n = _suite_setup("suite_two_point", J, gamma, M, dt, T)
    ydts, _, _ = simulate_ramp_ensemble(ops, p, +b0, seed, records, dt, n)
    finals = []
    for record in ydts:
        grid, _ = grid_filter_record(two_point_grid(ops, b0), record, p, dt)
        finals.append(float(grid.p[1]))
    worst = min(finals)
    return {"name": "two_point_posterior", "passed": worst >= 0.9,
            "measured": worst, "tolerance": 0.9, "finals": finals}


def suite_grid_kalman(J: float = 16, gamma: float = 1e6, M: float = 1e4,
                      sigma_b0: float = 5.6e-5, points: int = 41,
                      dt: float = 2.5e-9, T: float = 1e-5, records: int = 3,
                      seed: int = 4001) -> dict:
    """Gridded posterior mean against the Kalman field estimate on shared
    records; the worst deviation must stay within 10% of the tracking-error
    envelope sqrt(sigma_bR(t))."""
    _require_at_least("suite_grid_kalman", "records", records, 1)
    ops, p, n = _suite_setup("suite_grid_kalman", J, gamma, M, dt, T)
    prior = Priors(sigma_z0=J / 2.0, sigma_b0=sigma_b0)
    tgrid = np.arange(n + 1) * dt
    cov = linearized_riccati_curve(p, prior, tgrid)
    k1, k2 = cov.gain(p.sigma_M)
    env = np.sqrt(cov.sigma_bR)
    b_true = 1.5 * math.sqrt(sigma_b0)
    records_ydt, _, _ = simulate_ramp_ensemble(ops, p, b_true, seed, records, dt, n)
    devs = []
    posterior = None
    for ydts in records_ydt:
        grid = gaussian_grid(ops, sigma_b0, points)
        grid, means = grid_filter_record(grid, ydts, p, dt)
        m = filter_record(p, k1, k2, np.append(ydts, 0.0), dt)
        devs.append(float(np.max(np.abs(means - m[:, 1]) / env)))
        if posterior is None:
            posterior = (grid.b_values.copy(), grid.p.copy())
    worst = max(devs)
    return {"name": "grid_vs_kalman", "passed": worst <= 0.1, "measured": worst,
            "tolerance": 0.1, "devs": devs, "b_true": b_true, "posterior": posterior}


def suite_ramp_statistics(J: float = 10, gamma: float = 1e6, M: float = 1e4,
                          b: float = 0.03, dt: float = 1e-8, T: float = 1e-5,
                          trajectories: int = 600, seed: int = 5001) -> dict:
    """Record statistics against the classical-equivalent model: per-record
    line fits must show slope gamma b J and intercept variance J/2 above
    the known fit noise."""
    _require_at_least("suite_ramp_statistics", "trajectories", trajectories, 2)
    ops, p, n = _suite_setup("suite_ramp_statistics", J, gamma, M, dt, T)
    ydts, _, _ = simulate_ramp_ensemble(ops, p, b, seed, trajectories, dt, n)
    t = np.arange(n) * dt
    w = ydts / dt
    tbar = t.mean()
    stt = float(np.dot(t - tbar, t - tbar))
    slopes = (w @ (t - tbar)) / stt
    intercepts = w.mean(axis=1) - slopes * tbar
    v_noise = p.sigma_M / dt
    fit_var_intercept = v_noise * (1.0 / n + tbar ** 2 / stt)
    slope_mean = float(np.mean(slopes))
    slope_se = float(np.std(slopes, ddof=1) / math.sqrt(trajectories))
    slope_target = gamma * b * J
    slope_dev = abs(slope_mean / slope_target - 1.0)
    slope_tol = 0.05 + 3.0 * slope_se / slope_target
    var_measured = float(np.var(intercepts, ddof=1))
    var_predicted = J / 2.0 + fit_var_intercept
    var_se = var_predicted * math.sqrt(2.0 / trajectories)
    var_ok = abs(var_measured - var_predicted) <= 3.5 * var_se
    passed = slope_dev <= slope_tol and var_ok
    return {"name": "ramp_statistics", "passed": passed,
            "slope_dev": slope_dev, "slope_tol": slope_tol,
            "var_measured": var_measured, "var_predicted": var_predicted,
            "var_band": 3.5 * var_se}


def run_all_suites(seed: int = 0) -> list[dict]:
    """The full oracle battery with default desk-scale parameters."""
    return [
        suite_jx_decay(),
        suite_variance_tracking(seed=2024 ^ seed),
        suite_two_point(seed=3001 ^ seed),
        suite_grid_kalman(seed=4001 ^ seed),
        suite_ramp_statistics(seed=5001 ^ seed),
    ]
