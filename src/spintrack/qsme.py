"""Small-spin quantum oracle: conditioned spin states and gridded Bayes.

A spin of magnitude J is monitored continuously in Jz while a total field
h = b + u rotates it about y.  Under efficient measurement (eta = 1) a
pure state stays pure, and in the Jz eigenbasis it is a real vector psi of
length 2J+1.  Given the record y dt = <Jz> dt + sqrt(sigma_M) dWbar,
sigma_M = 1/(4 M), its unnormalized form obeys the linear equation

    d psi = [(gamma h / 2) K^T dt - (M/2) Jz^2 dt + 2 M Jz y dt] psi,

and the squared norm it accumulates is the likelihood of the record
(Gambetta & Wiseman, PRA 64, 042105 (2001)); normalized, it is the Ito
stochastic Schroedinger equation.  Here Jy = iK/2, where K is real,
antisymmetric and tridiagonal with K[i+1, i] = amp[i] = -K[i, i+1] from
the ladder amplitudes; spin_operators builds it once and SpinOperators
carries it.  rho = psi psi^T is positive semidefinite by construction.

One kernel, ``StateStack.step``, advances a stack of such states by dt on
the record increments ydt, one per record, for the Bayes grid and the
trajectory simulator alike.  It is the Kraus map of Rouchon & Ralph
(PRA 91, 012118 (2015)), in this order per row:

1. measure: psi_m <- psi_m exp(2 M m ydt - M m^2 dt), the exact step of
   the measurement part, which is diagonal in Jz.  Its exponent is
   shifted by M ydt^2 / dt, one constant per record, which turns the
   factor into the Gaussian kernel exp(-M (ydt - m dt)^2 / dt) <= 1;
2. record |psi|^2, the likelihood of ydt under the row's state up to
   that record's constant;
3. normalize;
4. rotate: psi <- psi exp(gamma h dt K / 2), the exact step of the field
   part, one orthogonal matrix per field, built once per run.  Every
   stack rotates: at h = 0 the matrix is exactly the identity, and the
   product with it changes no bit.

Steps 3 and 4 run as one pass, rotation first: dividing by the norm
commutes with an orthogonal map.  Only the splitting of the two parts
costs accuracy (first order in dt), so at h = 0 the step is exact at any
dt.  The guard dt M (2J+1) < 0.5, which the Ito-Euler form needed, is
kept as a bound on the step size.  The stack is set up once per run
(guard, eta check, rotations, buffers) and rejects eta != 1, where a
conditioned state is mixed.  sme_step is the unconditional (eta = 0)
zero-field equation, pure dephasing, on the first superdiagonal of rho
that <Jx> reads.  A step that fails is named by its time.

One record loop, the private function _run_records, serves the
trajectory simulator and the Bayes grid alike.  Group 0 of its stack
holds one truth row per record in the true field; before each step the
loop reads the truth rows' <Jz> and <Jz^2>, and each truth row emits
its record increment y dt = <Jz> dt + sqrt(sigma_M) dWbar, on which
every row of that record takes one step of the stack, the time loop's
only state work.  simulate_ramp_ensemble steps a stack of truth rows alone.  Field
estimation with unknown constant b, grid_filter_records, adds one group
per field hypothesis, all conditioned on the same physical records.  The
conditioned states never read the posterior weights: the squared norms
that step k records for a hypothesis are its likelihood factor of
ydt[k], so after the loop one pass, bayes_grid_update, sums their logs
over time from the log prior and normalizes the weights of every record
at every time, where the constant per record cancels.

The Bayes-grid suites step at 4 times the step of their draws:
grid_filter_records sums _DRAWS_PER_STEP = 4 consecutive draws of
trial_stream(seed, r) into each record increment, so its records lie on
the Brownian path that those draws lay out at dt / 4, and the declared
coarse steps (two_point 2e-8, grid_kalman 1e-8) move the results by
their discretization error only.

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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InstabilityError, NumericalError, UnsupportedCaseError
from .lqg_filter import filter_record, run_open_loop_linefit
from .model import PlantParams, Priors
from .numerics import mat_expm, trial_normals
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
    """Conditioned states in fixed fields, advanced together by the Kraus
    map of the module docstring.

    psi is a (groups, records, dim) stack, every state coherent along x at
    the start: group g holds one state per record in the field fields[g],
    and every row of record r is conditioned on the record's increment
    ydt[r].  b_values is the field of each row, group by group.

    What stays fixed over a run is set up here once: the step guard and
    the eta check, the rotation of each field, and the buffers, so a step
    allocates nothing.  Step k overwrites psi with its normalized
    successor and norms[k] with the squared norms of the measured states.
    The norms are checked in blocks rather than per step: check() raises
    InstabilityError, naming the first step whose norm was not positive
    and finite, and runs by itself every _NORM_BLOCK steps; a run calls it
    once more at its end.  A failed row stays non-finite until then.
    """

    def __init__(self, ops: SpinOperators, p: PlantParams, dt: float, fields: np.ndarray,
                 records: int, n: int):
        _check_step(ops, p, dt)
        if p.eta != 1.0:
            raise UnsupportedCaseError("SSE step: a conditioned state is pure only at eta = 1, "
                                       f"got eta = {p.eta}")
        fields = np.asarray(fields, dtype=np.float64)
        self.dt = dt
        self.b_values = np.repeat(fields, records)
        self.psi = np.tile(coherent_state_x(ops.J), (len(fields), records, 1))
        self.norms = np.empty((n, len(fields), records))
        self._mdt, self._gain = ops.mz * dt, -p.M / dt
        # psi @ exp(gamma h dt K / 2); the sign makes a positive field drive
        # <Jz> upward, matching the state-space convention dz = +gamma J h dt
        self._rot = mat_expm((0.5 * p.gamma * dt) * fields[:, None, None] * ops.K)
        self._f = np.empty((records, ops.dim))
        self._rotated = np.empty_like(self.psi)
        self._scale = np.empty((len(fields), records))
        self._scale_col = self._scale[:, :, None]
        self._steps = self._checked = 0

    def step(self, ydt: np.ndarray) -> None:
        """One step on the record increments ydt, one per record, in the
        update order of the module docstring."""
        f = np.subtract.outer(ydt, self._mdt, out=self._f)
        f *= f
        f *= self._gain
        np.exp(f, out=f)
        psi = self.psi
        psi *= f
        norm2 = np.einsum("gri,gri->gr", psi, psi, out=self.norms[self._steps])
        np.sqrt(norm2, out=self._scale)
        np.divide(np.matmul(psi, self._rot, out=self._rotated), self._scale_col, out=psi)
        self._steps += 1
        if self._steps - self._checked == _NORM_BLOCK:
            self.check()

    def check(self) -> None:
        """Raise InstabilityError if a step since the last check left a
        norm that is not positive and finite, naming the first such step."""
        norms = self.norms[self._checked:self._steps]
        ok = np.all((norms > 0.0) & (norms < math.inf), axis=(1, 2))
        if not ok.all():
            raise _at_time(InstabilityError("SSE step: state norm is not positive and finite"),
                           self._checked + int(np.argmin(ok)), self.dt)
        self._checked = self._steps


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


def _run_records(ops: SpinOperators, p: PlantParams, dt: float, fields: np.ndarray,
                 noise: np.ndarray, step: Callable[[StateStack, np.ndarray], None]):
    """The record loop of the module docstring: n steps of a stack in the
    fields, fields[0] the truth's, on the record noise (n, records).  Before
    step k the truth rows' <Jz> and <Jz^2> are read, and record k, <Jz> dt
    + noise[k], goes to step(stack, record).  Returns the stepped stack,
    the records (n, records) and the truth moments (n + 1, records)."""
    n, records = noise.shape
    stack = StateStack(ops, p, dt, fields, records, n)
    truth = stack.psi[0]
    prob = np.empty_like(truth)
    mz2 = ops.mz * ops.mz
    jz = np.empty((n + 1, records))
    jz2 = np.empty((n + 1, records))
    ydts = np.empty((n, records))
    for k in range(n + 1):
        np.multiply(truth, truth, out=prob)
        np.matmul(prob, ops.mz, out=jz[k])
        np.matmul(prob, mz2, out=jz2[k])
        if k == n:
            break
        record = np.multiply(jz[k], dt, out=ydts[k])
        record += noise[k]
        step(stack, record)
    stack.check()
    return stack, ydts, jz, jz2


# ---------------------------------------------------------------------------
# gridded Bayesian field estimation
# ---------------------------------------------------------------------------

def _gaussian_hypotheses(sigma_b0: float, points: int):
    """Uniform grid over +-4 standard deviations and its normalized
    Gaussian prior weights."""
    if points < 2:
        raise ConfigurationError("gaussian grid: need at least two hypotheses")
    sd = math.sqrt(sigma_b0)
    b_values = np.linspace(-4.0 * sd, 4.0 * sd, points)
    w = np.exp(-0.5 * (b_values / sd) ** 2)
    return b_values, w / w.sum()


def bayes_grid_update(norms: np.ndarray, weights: np.ndarray, dt: float) -> np.ndarray:
    """The posterior weights of every record after every step.

    norms (n, records, H) are the squared norms that each step recorded
    for the hypothesis rows, the likelihood factors of the record up to
    one constant per record and step; weights is the prior (H,).  The log
    weights are the cumulative sums of log norms from the log prior,
    shifted by their maximum at each time before exp, so no weight
    overflows.  Returns the normalized weights (n + 1, records, H), row 0
    the prior.  A record whose weights all vanish or turn non-finite
    raises NumericalError naming the first such step.
    """
    n, records, hyps = norms.shape
    logw = np.empty((n + 1, records, hyps))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(norms, out=logw[1:])
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


def propagate_grid(grid: StateStack, ydt: np.ndarray) -> None:
    """Condition every row of a grid on its record's increment, ydt
    (records,): one step of the whole stack, in place.  A grid is the
    StateStack of the fields (b, *hypotheses): group 0 holds every
    record's truth state, group 1 + j its state in hypothesis j.  The
    grid's one call per time step, which the benchmark traces and counts
    rows by."""
    grid.step(ydt)


_DRAWS_PER_STEP = 4   # fine draws summed into one record increment of a grid run


def grid_filter_records(ops: SpinOperators, p: PlantParams, b: float, hypotheses: np.ndarray,
                        weights: np.ndarray, seed: int, records: int, dt: float, n: int):
    """Simulate records in the true field b and filter each on a Bayes grid
    over the field hypotheses with prior weights, all rows in one stack
    stepped together.  Record r draws _DRAWS_PER_STEP * n normals from
    trial_stream(seed, r), the layout of simulate_ramp_ensemble at step
    dt / _DRAWS_PER_STEP, and sums each run of _DRAWS_PER_STEP into the
    noise of one step.  The record loop steps the states through
    propagate_grid; one bayes_grid_update after it gives the posterior at
    every time.

    Returns (ydts, walks, means, weights): the records (records, n), the
    truth <Jz> walks (records, n + 1), the posterior means
    (records, n + 1) and the final weights (records, H).
    """
    _require_at_least("grid_filter_records", "records", records, 1)
    draws = trial_normals(seed, np.arange(records), _DRAWS_PER_STEP * n)
    noise = np.add.reduce(draws.reshape(records, n, _DRAWS_PER_STEP), axis=2)
    noise *= math.sqrt(p.sigma_M * dt / _DRAWS_PER_STEP)
    grid, ydts, walks, _ = _run_records(ops, p, dt, np.concatenate(([b], hypotheses)), noise.T,
                                        propagate_grid)
    w = bayes_grid_update(grid.norms[:, 1:].transpose(0, 2, 1), weights, dt)
    return ydts.T, walks.T, (w @ hypotheses).T, w[n].copy()


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
    together, each on the record it emits; trajectory k draws one normal
    per step from trial_stream(seed, k).

    Returns (ydts, jz_walks, mean_djz2): the physical records
    (trajectories, n), the <Jz> walks (trajectories, n + 1) and the
    trajectory-averaged <Delta Jz^2> (n + 1).  At b = 0 this is the QND
    ensemble.
    """
    _require_at_least("simulate_ramp_ensemble", "trajectories", trajectories, 1)
    _require_at_least("simulate_ramp_ensemble", "n", n, 1)
    draws = trial_normals(seed, np.arange(trajectories), n)
    draws *= math.sqrt(dt)
    draws *= math.sqrt(p.sigma_M)
    _, ydts, jz, jz2 = _run_records(ops, p, dt, np.array([b]), draws.T, StateStack.step)
    mean_djz2 = np.add.reduce(jz2 - jz * jz, axis=1) / trajectories
    return ydts.T, jz.T, mean_djz2


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
                    b0: float = 2.8e-3, dt: float = 2e-8, T: float = 1e-4,
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
                      dt: float = 1e-8, T: float = 1e-5, records: int = 3,
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
