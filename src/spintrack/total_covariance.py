"""Joint truth-plus-estimator covariance under possibly mismatched design.

Stack the true state x = (z, b) and the estimation error e = m - x =
(z~-z, b~-b) into theta = (x, e).  For a linear plant, filter, and
controller the stack is a (time-dependent) Ornstein-Uhlenbeck process
d theta = alpha(t) theta dt + beta(t) dW with

    alpha = [[A - B K_C,                   -B K_C                    ],
             [A' - A - (B' - B) K_C,       A' - B' K_C - K_O(t) C + B K_C]]

    beta:  sqrt(sigma_bF) drives b and, with the opposite sign, b~-b; the
           measurement noise enters the error rows through sqrt(sigma_M) K_O(t).

Primes mark design quantities built with the assumed spin J'.  The
lower-left block, the coupling of the truth into the error, reduces to

    gamma (J' - J) [[-K_C1, 1 - K_C2], [0, 0]]:

zero for a matched design (separation), and as K_C2 -> 1 the field stops
driving the error however wrong J' is, the robustness feedback buys.
The 4x4 covariance Theta(t) = E[theta theta^T] obeys

    dTheta/dt = alpha Theta + Theta alpha^T + beta beta^T

from Theta(0) = S diag(sigma_z0, sigma_b0, 0, 0) S^T, with S the map from
(z, b, z~, b~) to (x, e): the estimate starts at zero whatever the truth
draw.  The magnetometry error sigma_bE = Theta[3, 3] is a direct entry,
with no cancellation and no Monte Carlo.

``build_alpha_beta`` builds alpha and beta as (n, 4, 4) stacks from
arrays of observer gains, one row per gain pair: the loop's one
generator, ``model.closed_loop_generator`` in (z, b, z~, b~), conjugated
by S (S alpha S^-1 and S beta).  The same stacks feed the two
consumers: ``integrate_theta`` takes one generator per interval of its
time grid and steps with exact constant-coefficient increments
Theta <- Phi Theta Phi^T + G (unconditionally stable, which matters for
aggressive control at rates up to lam * gamma * J * f), and
``steady_state_error`` solves the stationary Lyapunov equation of a
one-row stack.  The tests keep RK4 on the matrix flow as the independent
reference for the integrating-factor route.

Closed-form mismatch factors, f = J / J':

    uncontrolled saturation   (1 - f)^2           (times sigma_bFree)
    controlled steady state   (1 + f) / (2 f)
    controlled transient      (f^2 + 2) / (4 f^2 - 1),  valid for f > 1/2
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DimensionError, DivergenceError, InstabilityError,
                     NumericalError, UnsupportedCaseError)
from .model import (DesignParams, PlantParams, Priors, closed_loop_generator, design_plant,
                    design_prior)
from .numerics import _compose, _square, geometric_times, ou_increment
from .riccati import controller_gain, linearized_riccati_curve, steady_state_gains

REGIMES = ("uncontrolled_fluctuating", "controlled_steady", "controlled_transient")


@dataclass
class ThetaTrajectory:
    """Joint covariance history on a time grid: theta[k] is Theta(t[k]) in
    the coordinates (z, b, z~-z, b~-b), so the tracking-error variances
    (z~-z)^2 and sigma_bE are the diagonal entries theta[:, 2, 2] and
    theta[:, 3, 3] of the integration itself."""

    t: np.ndarray
    theta: np.ndarray

    @property
    def sigma_bE(self) -> np.ndarray:
        return self.theta[:, 3, 3]


# S maps the raw labeling (z, b, z~, b~) to (z, b, z~-z, b~-b)
_S, _S_INV = np.eye(4) - np.eye(4, k=-2), np.eye(4) + np.eye(4, k=-2)


def theta_init(prior: Priors) -> np.ndarray:
    """Initial joint covariance S diag(sigma_z0, sigma_b0, 0, 0) S^T: the
    estimate starts at zero, so each error starts at minus its truth."""
    return _S @ np.diag([prior.sigma_z0, prior.sigma_b0, 0.0, 0.0]) @ _S.T


def build_alpha_beta(p: PlantParams, d: DesignParams, k1, k2, k_c: np.ndarray):
    """Generator stacks (alpha, beta), each of shape (n, 4, 4), of the joint
    flow in (x, e) for n observer gains K_O = (k1[i], k2[i]) and the
    constant controller gain ``k_c``: ``model.closed_loop_generator``
    conjugated by S, S alpha S^-1 and S beta.

    Row i of a stack depends only on (k1[i], k2[i]), so the caller chooses
    the times the gains are frozen at (one row per ``integrate_theta``
    interval, or one row for a stationary solve).
    """
    alpha, beta = closed_loop_generator(p, d, k1, k2, k_c)
    return _S @ alpha @ _S_INV, _S @ beta


def _check_theta_psd(traj: ThetaTrajectory):
    """Name the first interval whose Theta is not finite (DivergenceError)
    or has an eigenvalue below -1e-9 trace (InstabilityError)."""
    finite = np.isfinite(traj.theta).all(axis=(1, 2))
    if not finite.all():
        i = int(np.argmin(finite))
        raise DivergenceError(f"joint covariance not finite at t = {traj.t[i]:.6e} "
                              f"(interval from t = {traj.t[max(i - 1, 0)]:.6e})")
    scale = np.maximum(np.trace(traj.theta, axis1=1, axis2=2), 1e-300)
    bad = np.linalg.eigvalsh(traj.theta)[:, 0] < -1e-9 * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise InstabilityError(f"joint covariance lost positivity at t = {traj.t[i]:.6e} "
                               f"(interval from t = {traj.t[max(i - 1, 0)]:.6e}); refine the grid")


def integrate_theta(alpha, beta, theta0: np.ndarray, times) -> ThetaTrajectory:
    """Propagate Theta over an explicit strictly increasing time grid.

    ``alpha`` and ``beta`` are ``build_alpha_beta`` stacks with one
    generator per interval, held constant over it; a stack of another
    length raises DimensionError, and a grid that does not increase
    strictly raises ConfigurationError.  ``theta0`` is in the coordinates
    of the stacks, (z, b, z~-z, b~-b), as ``theta_init`` returns it.

    Each interval takes the integrating-factor step, exact for
    piecewise-constant coefficients and stable for arbitrarily stiff
    stable generators: the affine map Theta <- Phi_k Theta Phi_k^T + G_k,
    from one stacked ``ou_increment`` call for all intervals.  An inclusive
    prefix scan of their composition (Hillis-Steele, ceil(log2 N) stacked
    passes; cf. Sarkka & Garcia-Fernandez, IEEE TAC 66, 299, 2021) turns
    them into the maps (Phi_k...Phi_0, G-bar_k) from t_0 to t_(k+1), so
    Theta_(k+1) = Phi_k...Phi_0 Theta_0 (...)^T + G-bar_k with no loop over
    intervals.  One check on the result names the start time of the first
    interval whose Theta is not finite (a non-finite or overflowing
    generator, doubling or scan) or loses positivity.
    """
    times = np.asarray(times, dtype=np.float64)
    if not len(alpha) == len(beta) == len(times) - 1:
        raise DimensionError(f"integrate_theta: {len(times)} times need {len(times) - 1} "
                             f"generators, got {len(alpha)} alpha and {len(beta)} beta")
    h = np.diff(times)
    if not (h > 0).all():
        k = int(np.argmin(h > 0))
        raise ConfigurationError(f"integrate_theta: times must increase strictly, but "
                                 f"t = {times[k + 1]:.6e} follows t = {times[k]:.6e}")
    theta0 = np.asarray(theta0, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):   # _check_theta_psd names the interval
        phi, g = ou_increment(alpha, beta @ beta.swapaxes(-1, -2), h)
        span = 1
        while span < len(phi):
            phi[span:], g[span:] = _compose(phi[span:], g[span:], phi[:-span], g[:-span])
            span *= 2
        theta = phi @ theta0 @ phi.swapaxes(1, 2) + g
        out = np.concatenate([theta0[None], 0.5 * (theta + theta.swapaxes(1, 2))])
    traj = ThetaTrajectory(times, out)
    _check_theta_psd(traj)
    return traj


def mismatch_factors(f: float, regime: str) -> float:
    """Closed-form error factor for spin-number mismatch f = J / J'; a
    factor past the float range raises NumericalError."""
    if not f > 0:
        raise ConfigurationError("mismatch_factors: f must be positive")
    if regime == "uncontrolled_fluctuating":
        return _square(1.0 - f, "1 - f")
    if regime == "controlled_steady":
        return (1.0 + f) / (2.0 * f)
    if regime == "controlled_transient":
        if f <= 0.5:
            raise UnsupportedCaseError(
                "mismatch_factors: the transient factor is valid for f > 1/2 only")
        return (f * f + 2.0) / (4.0 * f * f - 1.0)
    raise ConfigurationError(f"mismatch_factors: unknown regime '{regime}'; choose from {REGIMES}")


# ---------------------------------------------------------------------------
# steady-state and transient mismatch errors
# ---------------------------------------------------------------------------

def steady_state_error(p: PlantParams, d: DesignParams) -> float:
    """Saturated sigma_bE for a fluctuating field under a J' design.

    Solves the stationary Lyapunov equation a X + X a^T + q = 0 of the
    steady-gain generator in (z, b, z~-z, b~-b) as one linear system,
    (a (x) I + I (x) a) vec X = -vec q, of at most 16 unknowns.  For
    lam = 0 the full stack is not stationary (z integrates the field), but
    with no control nothing else depends on z, so the closed block (b,
    z~-z, b~-b) is solved instead.  A system singular in floats (a huge
    mismatch J / J') raises NumericalError.
    """
    if not p.fluctuating:
        raise UnsupportedCaseError("steady_state_error: needs a fluctuating field")
    g = steady_state_gains(p, d)
    alpha, beta = build_alpha_beta(p, d, g.K_O[:1], g.K_O[1:], g.K_C)
    q = beta @ beta.swapaxes(-1, -2)
    keep = slice(0, 4) if d.lam > 0 else slice(1, 4)
    a, q = alpha[0, keep, keep], q[0, keep, keep]
    if np.max(np.linalg.eigvals(a).real) >= 0:
        raise InstabilityError("steady_state_error: mismatched closed loop is unstable")
    eye = np.eye(len(a))
    try:
        return float(np.linalg.solve(np.kron(a, eye) + np.kron(eye, a), -q.reshape(-1))[-1])
    except np.linalg.LinAlgError:
        raise NumericalError(f"steady_state_error: the stationary Lyapunov system is singular "
                             f"in floats (J / J' = {p.J / d.J_prime:.3g})") from None


def transient_error_curve(p: PlantParams, prior: Priors, d: DesignParams,
                          t_eval: np.ndarray) -> ThetaTrajectory:
    """sigma_bE(t) for a constant field under a J' design, dynamic gains.

    Gains are the observer's own Riccati solution (J' system, J'/2 spin
    prior) at the interval midpoints where the joint flow freezes them; the
    flow starts from the true priors.  The integrating-factor route on a
    quasi-geometric grid handles large lam * J without step-size collapse.
    """
    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=np.float64))
    t_end = float(t_eval.max())
    p_des = design_plant(p, d)
    prior_des = design_prior(d, prior)
    offset = p.sigma_M / max(prior.sigma_z0, prior_des.sigma_z0)
    grid = np.union1d(geometric_times(t_end, 0.02, offset), t_eval)
    mid = 0.5 * (grid[:-1] + grid[1:])
    k1, k2 = linearized_riccati_curve(p_des, prior_des, mid).gain(p_des.sigma_M)
    alpha, beta = build_alpha_beta(p, d, k1, k2, controller_gain(p, d))
    traj = integrate_theta(alpha, beta, theta_init(prior), grid)
    idx = np.searchsorted(grid, t_eval)
    return ThetaTrajectory(t_eval, traj.theta[idx])
