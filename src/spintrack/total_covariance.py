"""Joint truth-plus-estimator covariance under possibly mismatched design.

Stack the true state and the estimate into theta = (z, b, z~, b~).  For a
linear plant, filter, and controller the stack is a (time-dependent)
Ornstein-Uhlenbeck process d theta = alpha(t) theta dt + beta(t) dW with

    alpha = [[A,          -B K_C'               ],
             [K_O'(t) C,  A' - B' K_C' - K_O'(t) C]]

    beta  = diag-structured: sqrt(sigma_bF) drives b, and the measurement
            noise enters the estimator rows through sqrt(sigma_M) K_O'(t).

Primes mark design quantities built with the assumed spin J'.  The 4x4
covariance Theta(t) = E[theta theta^T] then obeys the deterministic flow

    dTheta/dt = alpha Theta + Theta alpha^T + beta beta^T

from Theta(0) = diag(sigma_z0, sigma_b0, 0, 0) (the estimate starts at
zero regardless of the truth draw).  The magnetometry error is read off as
sigma_bE = Theta_bb + Theta_b~b~ - 2 Theta_bb~, with no Monte Carlo.

The flow is propagated in integrating-factor form, stepping with exact
constant-coefficient increments Theta <- Phi Theta Phi^T + G per
interval.  It is unconditionally stable, which matters for aggressive
control (rates up to lam * gamma * J * f).  The tests keep RK4 on the
matrix flow as the independent reference for this route.

Closed-form mismatch factors, f = J / J':

    uncontrolled saturation   (1 - f)^2           (times sigma_b0 or sigma_bFree)
    controlled steady state   (1 + f) / (2 f)
    controlled transient      (f^2 + 2) / (4 f^2 - 1),  valid for f > 1/2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, DivergenceError, InstabilityError, UnsupportedCaseError
from .model import DesignParams, PlantParams, Priors, build_design_system, build_system
from .numerics import geometric_times, ou_increment
from .riccati import controller_gain, linearized_riccati_curve, steady_state_gains
from .lqg_filter import design_plant, design_prior

REGIMES = ("uncontrolled_fluctuating", "uncontrolled_constant",
           "controlled_steady", "controlled_transient")


# change of variables to error coordinates (z, b, z~-z, b~-b); the
# magnetometry error becomes a direct variance entry instead of a
# cancellation-prone combination of order-one entries
_S_ERR = np.array([[1.0, 0.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0, 0.0],
                   [-1.0, 0.0, 1.0, 0.0],
                   [0.0, -1.0, 0.0, 1.0]])
_S_ERR_INV = np.array([[1.0, 0.0, 0.0, 0.0],
                       [0.0, 1.0, 0.0, 0.0],
                       [1.0, 0.0, 1.0, 0.0],
                       [0.0, 1.0, 0.0, 1.0]])


@dataclass
class ThetaTrajectory:
    """Joint covariance history on a time grid.

    thetas[k] is Theta(t[k]) in the raw labeling (z, b, z~, b~).  sigma_bE
    and sigma_zE are the error-coordinate variances of the integration,
    which stay accurate when the tracking error is many orders of magnitude
    below the field variance (rebuilding them from the raw entries as
    Theta_bb + Theta_b~b~ - 2 Theta_bb~ would cancel).
    """

    t: np.ndarray
    thetas: np.ndarray
    sigma_bE: np.ndarray
    sigma_zE: np.ndarray


def theta_init(prior: Priors) -> np.ndarray:
    """Initial joint covariance: truth variances, estimator rows zero."""
    return np.diag([prior.sigma_z0, prior.sigma_b0, 0.0, 0.0])


def build_alpha_beta(p: PlantParams, d: DesignParams, k_of_t, k_c: np.ndarray):
    """Assemble alpha(t), beta(t) callables for the joint flow.

    ``k_of_t`` is a callable t -> (K_O1, K_O2), the observer gain at time
    t; ``k_c`` is the constant controller gain.
    """
    a_true, b_true, c, _ = build_system(p)
    a_des, b_des = build_design_system(d, p)
    k_c = np.asarray(k_c, dtype=np.float64)
    sqrt_sbf = math.sqrt(p.sigma_bF)
    sqrt_sm = math.sqrt(p.sigma_M)

    # the blocks that do not depend on t; alpha(t) places the gain K_O(t)
    # in the K_O C column and subtracts it from the A' - B' K_C' column
    # (its zero column leaves the other entries as they are)
    const = np.zeros((4, 4))
    const[:2, :2] = a_true
    const[:2, 2:] = -np.outer(b_true, k_c)
    const[2:, 2:] = a_des - np.outer(b_des, k_c)

    def alpha(t: float) -> np.ndarray:
        k1, k2 = k_of_t(t)
        out = const.copy()
        out[2, 0] = k1
        out[3, 0] = k2
        out[2, 2] -= k1
        out[3, 2] -= k2
        return out

    def beta(t: float) -> np.ndarray:
        k1, k2 = k_of_t(t)
        out = np.zeros((4, 4))
        out[1, 1] = sqrt_sbf
        out[2, 2] = sqrt_sm * k1
        out[3, 2] = sqrt_sm * k2
        return out

    return alpha, beta


def _check_theta_psd(traj: ThetaTrajectory):
    scale = np.maximum(np.trace(traj.thetas, axis1=1, axis2=2), 1e-300)
    bad = np.linalg.eigvalsh(traj.thetas)[:, 0] < -1e-9 * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise InstabilityError(f"joint covariance lost positivity at t = {traj.t[i]:.6e} "
                               f"(interval from t = {traj.t[max(i - 1, 0)]:.6e}); refine the grid")


def integrate_theta(alpha, beta, theta0: np.ndarray, times) -> ThetaTrajectory:
    """Propagate Theta over an explicit increasing time grid.

    The flow is conjugated into the error coordinates (z, b, z~-z, b~-b),
    where the tracking-error variances are direct entries; they are
    returned as sigma_bE/sigma_zE, and the stored Theta snapshots are
    mapped back to the raw labeling.

    Each interval takes the integrating-factor step with alpha frozen at
    its midpoint, exact for piecewise-constant coefficients and stable for
    arbitrarily stiff stable generators.  The steps of all intervals come
    from one stacked ``ou_increment`` call; only the recursion
    Theta <- Phi Theta Phi^T + G runs per interval.  Numerical errors name
    the start time of the failing interval.
    """
    times = np.asarray(times, dtype=np.float64)
    s, s_inv = _S_ERR, _S_ERR_INV
    mid = 0.5 * (times[:-1] + times[1:])
    a = s @ np.array([alpha(t) for t in mid]).reshape(-1, 4, 4) @ s_inv
    bb = s @ np.array([beta(t) for t in mid]).reshape(-1, 4, 4)
    q = bb @ bb.swapaxes(1, 2)
    bad = ~(np.isfinite(a).all(axis=(1, 2)) & np.isfinite(q).all(axis=(1, 2)))
    if bad.any():
        k = int(np.argmax(bad))
        raise DivergenceError(f"integrate_theta: non-finite generator "
                              f"(interval from t = {times[k]:.6e})")
    phi, g = ou_increment(a, q, np.diff(times))
    theta = s @ np.asarray(theta0, dtype=np.float64) @ s.T
    out = np.empty((len(times), 4, 4))
    out[0] = theta
    for k in range(len(times) - 1):
        theta = phi[k] @ theta @ phi[k].T + g[k]
        theta = 0.5 * (theta + theta.T)
        out[k + 1] = theta

    raw = np.einsum("ij,njk,lk->nil", _S_ERR_INV, out, _S_ERR_INV)
    traj = ThetaTrajectory(times, raw, sigma_bE=out[:, 3, 3].copy(), sigma_zE=out[:, 2, 2].copy())
    _check_theta_psd(traj)
    return traj


def mismatch_factors(f: float, regime: str) -> float:
    """Closed-form error factor for spin-number mismatch f = J / J'."""
    if not f > 0:
        raise ConfigurationError("mismatch_factors: f must be positive")
    if regime in ("uncontrolled_fluctuating", "uncontrolled_constant"):
        return (1.0 - f) ** 2
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

    Controlled designs (lam > 0) solve the 4x4 stationary Lyapunov
    equation alpha X + X alpha^T + beta beta^T = 0 with frozen gains.  For
    lam = 0 the raw stack is not stationary (z integrates the field), so
    the closed stable subsystem (z - z~, b, b~) is solved instead.
    """
    if not p.fluctuating:
        raise UnsupportedCaseError("steady_state_error: needs a fluctuating field")
    g = steady_state_gains(design_plant(p, d), d)
    k1, k2 = g.K_O
    sm = p.sigma_M
    if d.lam > 0:
        alpha, beta = build_alpha_beta(p, d, lambda t: (k1, k2), g.K_C)
        a = _S_ERR @ alpha(0.0) @ _S_ERR_INV
        if np.max(np.linalg.eigvals(a).real) >= 0:
            raise InstabilityError("steady_state_error: mismatched closed loop is unstable")
        bb = _S_ERR @ beta(0.0)
        x = scipy.linalg.solve_continuous_lyapunov(a, -(bb @ bb.T))
        return float(x[3, 3])
    # lam = 0: the raw stack is not stationary (z integrates the field);
    # solve the closed stable subsystem (e_z, b, e_b) = (z~-z, b, b~-b)
    gj = p.gamma * p.J
    gjp = p.gamma * d.J_prime
    gb = p.gamma_b
    sqrt_sbf = math.sqrt(p.sigma_bF)
    sqrt_sm = math.sqrt(sm)
    a = np.array([[-k1, gjp - gj, gjp],
                  [0.0, -gb, 0.0],
                  [-k2, 0.0, -gb]])
    b_noise = np.array([[0.0, k1 * sqrt_sm],
                        [sqrt_sbf, 0.0],
                        [-sqrt_sbf, k2 * sqrt_sm]])
    x = scipy.linalg.solve_continuous_lyapunov(a, -(b_noise @ b_noise.T))
    return float(x[2, 2])


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
    mid = 0.5 * (grid[:-1] + grid[1:])   # the times integrate_theta freezes alpha at
    cov = linearized_riccati_curve(p_des, prior_des, mid)
    gains = dict(zip(mid, zip(*cov.gain(p_des.sigma_M))))
    alpha, beta = build_alpha_beta(p, d, gains.__getitem__, controller_gain(p, d))
    traj = integrate_theta(alpha, beta, theta_init(prior), grid)
    idx = np.searchsorted(grid, t_eval)
    return ThetaTrajectory(t_eval, traj.thetas[idx], traj.sigma_bE[idx], traj.sigma_zE[idx])
