"""Small-spin quantum oracle: conditional master equation and gridded Bayes.

For a spin of magnitude J monitored continuously in Jz while a total field
h = b + u rotates it about y, the conditioned density matrix obeys the
Ito equation

    d rho = -i [gamma h Jy, rho] dt + D[sqrt(M) Jz] rho dt
            + sqrt(eta) H[sqrt(M) Jz] rho dWbar

    D[c] rho = c rho c - (c^2 rho + rho c^2) / 2        (c Hermitian)
    H[c] rho = c rho + rho c - 2 <c> rho

with the record y dt = <Jz> dt + sqrt(sigma_M) dWbar, sigma_M = 1/(4 M eta).
Because Jz is diagonal, the measurement superoperators are elementwise in
the Jz eigenbasis; only the field commutator needs a matrix product.

One private kernel, ``_sme_update``, takes the Ito-Euler step of this
equation on a (batch, dim, dim) stack of dense complex states; sme_step
(one state), propagate_grid (one state per field hypothesis) and
simulate_ramp_ensemble (one state per trajectory) are thin entry points
to it.  Every step enforces dt M (2J+1) < 0.5 (ConfigurationError),
Hermitizes the state and renormalizes its trace; a trace that is not
positive and finite raises InstabilityError.

Field estimation with unknown constant b keeps one conditioned state per
field hypothesis, all filtered against the same physical record: the
hypothesis innovation is dWbar_b = 2 sqrt(M eta) (y dt - <Jz>_b dt) and
the unnormalized weights follow d pbar = 4 M eta <Jz>_b pbar y dt.

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

from .errors import ConfigurationError, InstabilityError, NumericalError
from .model import PlantParams
from .numerics import trial_normals


@dataclass
class SpinOperators:
    """Angular momentum matrices in the Jz eigenbasis (m = J ... -J)."""

    J: float
    Jx: np.ndarray
    Jy: np.ndarray
    Jz: np.ndarray
    mz: np.ndarray  # diagonal of Jz

    @property
    def dim(self) -> int:
        return len(self.mz)


def spin_operators(J: float) -> SpinOperators:
    """Ladder-operator construction of (Jx, Jy, Jz) for spin J."""
    two_j = 2.0 * J
    if J < 0 or abs(two_j - round(two_j)) > 1e-12:
        raise ConfigurationError(f"spin_operators: 2J must be a nonnegative integer, got J = {J}")
    dim = int(round(two_j)) + 1
    m = J - np.arange(dim)  # J, J-1, ..., -J
    jz = np.diag(m).astype(np.complex128)
    # J+ |J, m> = sqrt(J(J+1) - m(m+1)) |J, m+1>; basis index 0 is m = J
    amp = np.sqrt(J * (J + 1.0) - m[1:] * (m[1:] + 1.0))
    jp = np.zeros((dim, dim), dtype=np.complex128)
    jp[np.arange(dim - 1), np.arange(1, dim)] = amp
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    return SpinOperators(J=J, Jx=jx, Jy=jy, Jz=jz, mz=m.astype(np.float64))


def coherent_state_x(J: float) -> np.ndarray:
    """Density matrix of the maximal-Jx eigenstate (spin polarized along x)."""
    ops = spin_operators(J)
    vals, vecs = np.linalg.eigh(ops.Jx)
    psi = vecs[:, -1]
    return np.outer(psi, psi.conj())


def expectation(rho: np.ndarray, op: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ op)))


def _jz_moments(rho: np.ndarray, mz: np.ndarray):
    """(<Jz>, <Delta Jz^2>) per state of a (batch, dim, dim) stack, read off
    the populations since Jz is diagonal."""
    pops = np.real(np.einsum("bii->bi", rho))
    mean = pops @ mz
    return mean, pops @ (mz * mz) - mean * mean


def _sme_update(rho: np.ndarray, jz: np.ndarray, h, dwbar, ops: SpinOperators,
                p: PlantParams, dt: float, eta: float) -> np.ndarray:
    """The one Ito-Euler step of the conditional master equation.

    rho is a (batch, dim, dim) stack with <Jz> values jz; h (the field) and
    dwbar (the sqrt(dt)-scaled Wiener increments) are scalars or one value
    per state.  h = 0 skips the commutator and eta = 0 the measurement
    back-action.  The result is Hermitized and renormalized to unit trace;
    a trace that is not positive and finite raises InstabilityError.
    """
    M = p.M
    if dt * M * ops.dim >= 0.5:
        raise ConfigurationError("SME step: dt * M * (2J+1) too large; reduce the step")
    mi = ops.mz[:, None]
    mj = ops.mz[None, :]
    out = rho + rho * (M * (mi * mj - 0.5 * (mi * mi + mj * mj)) * dt)
    h = np.asarray(h, dtype=np.float64)
    if np.any(h != 0.0):
        # sign fixed so a positive field drives <Jz> upward, matching the
        # state-space convention dz = +gamma J h dt
        comm = ops.Jy @ rho - rho @ ops.Jy
        out = out + (-1j) * ((-p.gamma * dt) * h)[..., None, None] * comm
    if eta > 0.0:
        meas = (mi + mj) * rho - 2.0 * jz[:, None, None] * rho
        out = out + math.sqrt(eta * M) * np.asarray(dwbar)[..., None, None] * meas
    out = 0.5 * (out + np.conj(np.transpose(out, (0, 2, 1))))
    traces = np.real(np.einsum("bii->b", out))
    if not np.all((traces > 0.0) & (traces < math.inf)):
        raise InstabilityError("SME step: state trace is not positive and finite; "
                               "reduce the step")
    return out / traces[:, None, None]


def sme_step(rho: np.ndarray, b: float, ops: SpinOperators, p: PlantParams,
             dt: float, dW: float, eta: float | None = None):
    """One step of a single conditioned state in field b.

    dW is the Wiener increment dWbar (already sqrt(dt)-scaled).  Returns
    (rho', ydt) with the emitted record increment; eta may be overridden
    (eta = 0 gives the unconditional equation, where the record is
    meaningless and ydt is returned as nan).
    """
    eta = p.eta if eta is None else eta
    jz, _ = _jz_moments(rho[None], ops.mz)
    out = _sme_update(rho[None], jz, b, dW, ops, p, dt, eta)[0]
    ydt = jz[0] * dt + math.sqrt(1.0 / (4.0 * p.M * eta)) * dW if eta > 0.0 else math.nan
    return out, float(ydt)


# ---------------------------------------------------------------------------
# gridded Bayesian field estimation
# ---------------------------------------------------------------------------

@dataclass
class FieldGrid:
    """Field hypotheses with weights and one conditioned state each."""

    b_values: np.ndarray
    p: np.ndarray
    rho: np.ndarray  # stack (n_b, dim, dim)
    ops: SpinOperators

    def posterior_mean(self) -> float:
        return float(self.p @ self.b_values)


def gaussian_grid(ops: SpinOperators, sigma_b0: float, n_points: int) -> FieldGrid:
    """Uniform grid over +-4 standard deviations with Gaussian prior weights."""
    if n_points < 2:
        raise ConfigurationError("gaussian_grid: need at least two hypotheses")
    sd = math.sqrt(sigma_b0)
    b_values = np.linspace(-4.0 * sd, 4.0 * sd, n_points)
    w = np.exp(-0.5 * (b_values / sd) ** 2)
    w /= w.sum()
    rho0 = coherent_state_x(ops.J)
    return FieldGrid(b_values=b_values, p=w, rho=np.tile(rho0, (n_points, 1, 1)), ops=ops)


def two_point_grid(ops: SpinOperators, b0: float) -> FieldGrid:
    rho0 = coherent_state_x(ops.J)
    return FieldGrid(b_values=np.array([-b0, b0]), p=np.array([0.5, 0.5]),
                     rho=np.tile(rho0, (2, 1, 1)), ops=ops)


def bayes_grid_update(grid: FieldGrid, ydt: float, p: PlantParams) -> FieldGrid:
    """Reweight hypotheses: pbar_b *= 1 + 4 M eta <Jz>_b ydt, then normalize.

    Uses each hypothesis's current <Jz>_b, so call before propagating the
    grid states through the same increment.
    """
    jz_means, _ = _jz_moments(grid.rho, grid.ops.mz)
    w = grid.p * (1.0 + 4.0 * p.M * p.eta * jz_means * ydt)
    w = np.maximum(w, 0.0)
    total = w.sum()
    if not (total > 0.0 and math.isfinite(total)):
        raise NumericalError("bayes_grid_update: posterior weights degenerated")
    return FieldGrid(b_values=grid.b_values, p=w / total, rho=grid.rho, ops=grid.ops)


def propagate_grid(grid: FieldGrid, ydt: float, p: PlantParams, dt: float) -> FieldGrid:
    """Condition every hypothesis state on the shared record increment."""
    jz_means, _ = _jz_moments(grid.rho, grid.ops.mz)
    dwbar = 2.0 * math.sqrt(p.M * p.eta) * (ydt - jz_means * dt)
    rho = _sme_update(grid.rho, jz_means, grid.b_values, dwbar, grid.ops, p, dt, p.eta)
    return FieldGrid(b_values=grid.b_values, p=grid.p, rho=rho, ops=grid.ops)


def grid_filter_record(grid: FieldGrid, ydts: np.ndarray, p: PlantParams, dt: float):
    """Run reweight-then-propagate over a full record; returns the final
    grid and the posterior-mean history."""
    means = np.empty(len(ydts) + 1)
    means[0] = grid.posterior_mean()
    for k, ydt in enumerate(ydts):
        grid = bayes_grid_update(grid, float(ydt), p)
        grid = propagate_grid(grid, float(ydt), p, dt)
        means[k + 1] = grid.posterior_mean()
    return grid, means


# ---------------------------------------------------------------------------
# trajectory simulation
# ---------------------------------------------------------------------------

def unconditional_jx_decay(ops: SpinOperators, p: PlantParams, dt: float, n: int) -> np.ndarray:
    """<Jx>(t) under the eta = 0 (unconditional) equation; exact law is
    J exp(-M t / 2)."""
    rho = coherent_state_x(ops.J)
    jx = np.empty(n + 1)
    jx[0] = expectation(rho, ops.Jx)
    for k in range(n):
        rho, _ = sme_step(rho, 0.0, ops, p, dt, 0.0, eta=0.0)
        jx[k + 1] = expectation(rho, ops.Jx)
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
    rho = np.tile(coherent_state_x(ops.J), (trajectories, 1, 1))
    draws = trial_normals(seed, np.arange(trajectories), n)
    sqrt_dt = math.sqrt(dt)
    sqrt_sm = math.sqrt(p.sigma_M)
    ydts = np.empty((trajectories, n))
    jz_walks = np.empty((trajectories, n + 1))
    mean_djz2 = np.empty(n + 1)
    for k in range(n + 1):
        jz, djz2 = _jz_moments(rho, ops.mz)
        jz_walks[:, k] = jz
        mean_djz2[k] = np.mean(djz2)
        if k == n:
            break
        dwbar = draws[:, k] * sqrt_dt
        ydts[:, k] = jz * dt + sqrt_sm * dwbar
        rho = _sme_update(rho, jz, b, dwbar, ops, p, dt, p.eta)
    return ydts, jz_walks, mean_djz2


# ---------------------------------------------------------------------------
# verification suites (consumed by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------

def suite_jx_decay(J: float = 10, gamma: float = 1e6, M: float = 1e4,
                   dt: float = 1e-7, T: float = 1e-4) -> dict:
    """Unconditional spin-length decay against J exp(-M t / 2); 1% budget."""
    ops = spin_operators(J)
    p = PlantParams(J=J, gamma=gamma, M=M)
    n = int(round(T / dt))
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
    ops = spin_operators(J)
    p = PlantParams(J=J, gamma=gamma, M=M)
    n = int(round(T / dt))
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
    ops = spin_operators(J)
    p = PlantParams(J=J, gamma=gamma, M=M)
    n = int(round(T / dt))
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
    from .model import Priors, build_system
    from .riccati import riccati_at_times
    from .lqg_filter import filter_record

    ops = spin_operators(J)
    p = PlantParams(J=J, gamma=gamma, M=M)
    n = int(round(T / dt))
    prior = Priors(sigma_z0=J / 2.0, sigma_b0=sigma_b0)
    a, bvec, _, _ = build_system(p)
    tgrid = np.arange(n + 1) * dt
    cov = riccati_at_times(p, prior, tgrid)
    k1, k2 = cov.gain(p.sigma_M)
    env = np.sqrt(cov.sigma_bR)
    b_true = 1.5 * math.sqrt(sigma_b0)
    records_ydt, _, _ = simulate_ramp_ensemble(ops, p, b_true, seed, records, dt, n)
    devs = []
    curves = []
    posterior = None
    for ydts in records_ydt:
        grid = gaussian_grid(ops, sigma_b0, points)
        grid, means = grid_filter_record(grid, ydts, p, dt)
        m = filter_record(a, bvec, k1, k2, np.append(ydts, 0.0), np.zeros(n + 1), dt)
        devs.append(float(np.max(np.abs(means - m[:, 1]) / env)))
        curves.append((means, m[:, 1]))
        if posterior is None:
            posterior = (grid.b_values.copy(), grid.p.copy())
    worst = max(devs)
    return {"name": "grid_vs_kalman", "passed": worst <= 0.1, "measured": worst,
            "tolerance": 0.1, "devs": devs, "t": tgrid, "envelope": env,
            "curves": curves, "b_true": b_true, "posterior": posterior}


def suite_ramp_statistics(J: float = 10, gamma: float = 1e6, M: float = 1e4,
                          b: float = 0.03, dt: float = 1e-8, T: float = 1e-5,
                          trajectories: int = 600, seed: int = 5001) -> dict:
    """Record statistics against the classical-equivalent model: per-record
    line fits must show slope gamma b J and intercept variance J/2 above
    the known fit noise."""
    ops = spin_operators(J)
    p = PlantParams(J=J, gamma=gamma, M=M)
    n = int(round(T / dt))
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
