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

One kernel, ``StateStack.step``, steps a (rows, dim) stack of such
states in place for the Bayes grid and the trajectory simulator; the
stack is set up once per run (guards, constants, buffers) and rejects
eta != 1, where a conditioned state is mixed.  Its update order: the
measurement term in one temporary, f = ((M dt/2) dz - sqrt(M) dWbar) dz
psi with dz = Jz - <Jz>, then psi - f; the field term psi @ K scaled by
gamma dt h / 2 and added (skipped when every h is 0); then an in-place
normalization, whose squared norms are checked once per block of steps.
sme_step is the unconditional (eta = 0) zero-field equation, pure
dephasing, on the first superdiagonal of rho that <Jx> reads.  Both
enforce dt M (2J+1) < 0.5, and a step that fails is named by its time.

Field estimation with unknown constant b keeps one conditioned state per
field hypothesis, all filtered against the same physical record: the
hypothesis innovation is dWbar_b = 2 sqrt(M) (y dt - <Jz>_b dt).  The
records are simulated in the same stack: each record contributes one
truth row in the true field, which emits y dt, followed by its
hypothesis rows, and every row of every record takes one step of the
stack per time, the time loop's only state work.  Given its own record, a
truth row's innovation 2 sqrt(M) (y dt - <Jz> dt) is its raw sqrt(dt) xi
up to rounding, since sigma_M = 1/(4 M).

The conditioned states never read the posterior weights: a hypothesis's
unnormalized weight is its likelihood of the record, the product over
steps of the factors 1 + 4 M eta <Jz>_b y dt of d pbar = 4 M eta <Jz>_b
pbar y dt (Gambetta & Wiseman, PRA 64, 042105).  So the loop stores the
<Jz> history, and after it one pass, bayes_grid_update, sums the logs of
the factors (clamped at 0) over time and normalizes the weights of every
record at every time.

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
from .lqg_filter import filter_record, run_open_loop_linefit
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


def _check_step(ops: SpinOperators, p: PlantParams, dt: float) -> None:
    if not dt * p.M * ops.dim < 0.5:
        raise ConfigurationError("SME step: dt * M * (2J+1) too large; reduce the step")


def _require_at_least(who: str, name: str, value: int, low: int) -> None:
    if value < low:
        raise ConfigurationError(f"{who}: {name} must be at least {low}, got {value}")


def _at_time(err: NumericalError, k: int, dt: float) -> NumericalError:
    """The same error, naming the start time of the failing step k."""
    return type(err)(f"{err} (step at t = {k * dt:.6e})")


_NORM_BLOCK = 128   # steps between two checks of the recorded norms


class StateStack:
    """A (rows, dim) stack of conditioned states, row i in the field
    b_values[i], and the one Ito-Euler step of the stochastic Schroedinger
    equation that advances them all together.

    What stays fixed over a run is set up here once: the step guard and the
    eta check, the constants M dt / 2, sqrt(M) and gamma dt b / 2 per row,
    whether any field is nonzero, and the buffers, so a step allocates
    nothing.  step() overwrites psi with its normalized successor and
    prob, jz with the successor's psi^2 and <Jz>.  The squared norms are
    recorded rather than tested per step: check() raises InstabilityError,
    naming the first step whose norm was not positive and finite, and runs
    by itself every _NORM_BLOCK steps; a run calls it once more at its end.
    A failed row stays non-finite until then.
    """

    def __init__(self, ops: SpinOperators, p: PlantParams, dt: float, b_values: np.ndarray,
                 psi: np.ndarray):
        _check_step(ops, p, dt)
        if p.eta != 1.0:
            raise UnsupportedCaseError("SSE step: a conditioned state is pure only at eta = 1, "
                                       f"got eta = {p.eta}")
        rows, dim = psi.shape
        self.b_values, self.ops, self.dt = b_values, ops, dt
        self.sqrt_m = math.sqrt(p.M)
        self._half_mdt = 0.5 * p.M * dt
        # gamma b K psi dt / 2; the sign makes a positive field drive <Jz>
        # upward, matching the state-space convention dz = +gamma J h dt
        self._rot = (0.5 * p.gamma * dt) * b_values[:, None] if np.count_nonzero(b_values) else None
        self.psi, self.prob, self.jz = psi, np.empty_like(psi), np.empty(rows)
        self._read_jz()
        self._jz_col = self.jz[:, None]
        self._dz, self._f, self._kpsi = np.empty((3, rows, dim))
        self._sdw, self._scale = np.empty((2, rows))
        self._sdw_col, self._scale_col = self._sdw[:, None], self._scale[:, None]
        self._norms = np.empty((_NORM_BLOCK, rows))
        self._steps = self._recorded = 0

    def step(self, dwbar: np.ndarray) -> None:
        """One step on the sqrt(dt)-scaled Wiener increments dwbar, one per
        row, in the update order of the module docstring."""
        psi = self.psi
        if self._rot is not None:
            kpsi = np.matmul(psi, self.ops.K, out=self._kpsi)
            kpsi *= self._rot
        dz = np.subtract(self.ops.mz, self._jz_col, out=self._dz)
        f = np.multiply(dz, self._half_mdt, out=self._f)
        np.multiply(dwbar, self.sqrt_m, out=self._sdw)
        f -= self._sdw_col
        f *= dz
        f *= psi
        psi -= f
        if self._rot is not None:
            psi += kpsi
        norm2 = np.einsum("bi,bi->b", psi, psi, out=self._norms[self._recorded])
        np.sqrt(norm2, out=self._scale)
        psi /= self._scale_col
        self._read_jz()
        self._steps += 1
        self._recorded += 1
        if self._recorded == _NORM_BLOCK:
            self.check()

    def _read_jz(self) -> None:
        np.matmul(np.multiply(self.psi, self.psi, out=self.prob), self.ops.mz, out=self.jz)

    def check(self) -> None:
        """Raise InstabilityError if a step since the last check left a
        norm that is not positive and finite, naming the first such step."""
        norms = self._norms[:self._recorded]
        ok = np.all((norms > 0.0) & (norms < math.inf), axis=1)
        if not ok.all():
            k = self._steps - self._recorded + int(np.argmin(ok))
            raise _at_time(InstabilityError(
                "SSE step: state norm is not positive and finite; reduce the step"), k, self.dt)
        self._recorded = 0


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

class FieldGrid(StateStack):
    """The stacked rows of a Bayes-grid run.

    Each record owns 1 + H consecutive rows: its truth state in the true
    field b, then one conditioned state per field hypothesis, all coherent
    along x at the start.  jz, read once per step, serves the record, the
    stored history and the innovations alike; jz_by_record and
    dwbar_by_record view it and the innovation buffer as
    (records, 1 + H), over which each record's increment broadcasts.
    """

    def __init__(self, ops: SpinOperators, p: PlantParams, dt: float, b: float,
                 hypotheses: np.ndarray, records: int):
        b_values = np.tile(np.concatenate(([b], hypotheses)), records)
        super().__init__(ops, p, dt, b_values,
                         np.tile(coherent_state_x(ops.J), (len(b_values), 1)))
        self.jz_by_record = self.jz.reshape(records, -1)
        self.dwbar = np.empty_like(self.jz)
        self.dwbar_by_record = self.dwbar.reshape(records, -1)


def _gaussian_hypotheses(sigma_b0: float, points: int):
    """Uniform grid over +-4 standard deviations and its normalized
    Gaussian prior weights."""
    if points < 2:
        raise ConfigurationError("gaussian grid: need at least two hypotheses")
    sd = math.sqrt(sigma_b0)
    b_values = np.linspace(-4.0 * sd, 4.0 * sd, points)
    w = np.exp(-0.5 * (b_values / sd) ** 2)
    return b_values, w / w.sum()


def bayes_grid_update(jz: np.ndarray, ydt: np.ndarray, weights: np.ndarray, p: PlantParams,
                      dt: float) -> np.ndarray:
    """The posterior weights of every record after every step.

    jz is the hypotheses' <Jz> history (n, records, H), read before each
    step, ydt the records (n, records) and weights the prior (H,).  Step
    k multiplies pbar_b by 1 + 4 M eta <Jz>_b ydt[k], clamped at 0; the
    products are summed as logs over time, from the log prior, and
    shifted by their maximum at each time before exp, so no weight
    overflows.  Returns the normalized weights (n + 1, records, H), row 0
    the prior.  A record whose weights all vanish or turn non-finite
    raises NumericalError naming the first such step.
    """
    n, records, hyps = jz.shape
    logw = np.empty((n + 1, records, hyps))
    f = np.multiply(jz, (4.0 * p.M * p.eta * ydt)[:, :, None], out=logw[1:])
    f += 1.0
    np.maximum(f, 0.0, out=f)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(f, out=f)
        logw[0] = np.log(weights)
        np.cumsum(logw, axis=0, out=logw)
        # a record with no finite maximum turns NaN here
        logw -= np.max(logw, axis=2, keepdims=True)
    w = np.exp(logw, out=logw)
    total = np.add.reduce(w, axis=2)   # at least 1 (the maximum's exp) unless NaN
    alive = np.all(total < math.inf, axis=1)
    if not alive.all():
        k = max(int(np.argmin(alive)) - 1, 0)   # row k + 1 holds the weights after step k
        raise _at_time(NumericalError("bayes_grid_update: posterior weights degenerated"), k, dt)
    w /= total[:, :, None]
    return w


def propagate_grid(grid: FieldGrid, ydt: np.ndarray) -> None:
    """Condition every row on its record's increment, ydt (records, 1):
    the innovations 2 sqrt(M) (ydt - <Jz> dt), then one step of the whole
    stack, in place."""
    dwbar = np.multiply(grid.jz_by_record, grid.dt, out=grid.dwbar_by_record)
    np.subtract(ydt, dwbar, out=dwbar)
    dwbar *= 2.0 * grid.sqrt_m
    grid.step(grid.dwbar)


def grid_filter_records(ops: SpinOperators, p: PlantParams, b: float, hypotheses: np.ndarray,
                        weights: np.ndarray, seed: int, records: int, dt: float, n: int):
    """Simulate records in the true field b and filter each on a Bayes grid
    over the field hypotheses with prior weights, all rows in one stack
    stepped together; record r draws from trial_stream(seed, r) in the
    layout of simulate_ramp_ensemble.  The time loop steps the states and
    stores every row's <Jz>; one bayes_grid_update after it gives the
    posterior at every time.

    Returns (ydts, walks, means, weights): the records (records, n), the
    truth <Jz> walks (records, n + 1), the posterior means
    (records, n + 1) and the final weights (records, H).
    """
    _require_at_least("grid_filter_records", "records", records, 1)
    grid = FieldGrid(ops, p, dt, b, hypotheses, records)
    draws = trial_normals(seed, np.arange(records), n)
    draws *= math.sqrt(dt)
    draws *= math.sqrt(p.sigma_M)   # the record noise, scaled as simulate_ramp_ensemble does
    noise = draws.T
    jzs = np.empty((n + 1, len(grid.jz)))
    truth_jz = grid.jz_by_record[:, 0]
    ydt = np.empty((records, 1))
    record = ydt[:, 0]
    for k in range(n):
        jzs[k] = grid.jz
        np.multiply(truth_jz, dt, out=record)
        record += noise[k]
        propagate_grid(grid, ydt)
    grid.check()
    jzs[n] = grid.jz
    jzs = jzs.reshape(n + 1, records, -1)
    walks = jzs[:, :, 0].T
    # the records again, elementwise with the bits of the loop's ydt
    ydts = walks[:, :n] * dt
    ydts += draws
    w = bayes_grid_update(jzs[:n, :, 1:], ydts.T, weights, p, dt)
    return ydts, walks, (w @ hypotheses).T, w[n].copy()


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
    stack = StateStack(ops, p, dt, np.full(trajectories, b),
                       np.tile(coherent_state_x(ops.J), (trajectories, 1)))
    draws = trial_normals(seed, np.arange(trajectories), n)
    draws *= math.sqrt(dt)
    mz2 = ops.mz * ops.mz
    jz_walks = np.empty((trajectories, n + 1))
    mean_djz2 = np.empty(n + 1)
    dwbars = draws.T          # row k: the sqrt(dt)-scaled increments of step k
    for k in range(n + 1):
        jz = stack.jz
        jz_walks[:, k] = jz
        # the bits of np.mean, without its per-call dispatch
        mean_djz2[k] = np.add.reduce(stack.prob @ mz2 - jz * jz) / trajectories
        if k == n:
            break
        stack.step(dwbars[k])
    stack.check()
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
    ops, p, n = _suite_setup("suite_two_point", J, gamma, M, dt, T)
    *_, weights = grid_filter_records(ops, p, +b0, np.array([-b0, b0]), np.array([0.5, 0.5]),
                                      seed, records, dt, n)
    finals = weights[:, 1].tolist()
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
    ops, p, n = _suite_setup("suite_grid_kalman", J, gamma, M, dt, T)
    hypotheses, prior_weights = _gaussian_hypotheses(sigma_b0, points)
    prior = Priors(sigma_z0=J / 2.0, sigma_b0=sigma_b0)
    tgrid = np.arange(n + 1) * dt
    cov = linearized_riccati_curve(p, prior, tgrid)
    k1, k2 = cov.gain(p.sigma_M)
    env = np.sqrt(cov.sigma_bR)
    b_true = 1.5 * math.sqrt(sigma_b0)
    ydts, _, means, weights = grid_filter_records(ops, p, b_true, hypotheses, prior_weights,
                                                  seed, records, dt, n)
    # the Kalman filter is a scalar recursion, run record by record
    devs = [float(np.max(np.abs(mean - filter_record(p, k1, k2, np.append(ydt, 0.0), dt)[:, 1])
                         / env)) for ydt, mean in zip(ydts, means)]
    worst = max(devs)
    return {"name": "grid_vs_kalman", "passed": worst <= 0.1, "measured": worst,
            "tolerance": 0.1, "devs": devs, "b_true": b_true,
            "posterior": (hypotheses, weights[0])}


def suite_ramp_statistics(J: float = 10, gamma: float = 1e6, M: float = 1e4,
                          b: float = 0.03, dt: float = 1e-8, T: float = 1e-5,
                          trajectories: int = 600, seed: int = 5001) -> dict:
    """Record statistics against the classical-equivalent model: per-record
    line fits must show slope gamma b J and intercept variance J/2 above
    the known fit noise."""
    _require_at_least("suite_ramp_statistics", "trajectories", trajectories, 2)
    ops, p, n = _suite_setup("suite_ramp_statistics", J, gamma, M, dt, T)
    ydts, _, _ = simulate_ramp_ensemble(ops, p, b, seed, trajectories, dt, n)
    slopes, intercepts = run_open_loop_linefit(ydts, dt)
    t = np.arange(n) * dt
    tbar = t.mean()
    stt = float(np.dot(t - tbar, t - tbar))
    fit_var_intercept = (p.sigma_M / dt) * (1.0 / n + tbar ** 2 / stt)
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
