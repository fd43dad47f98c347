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

``build_alpha_beta`` builds alpha and beta as (n, 4, 4) stacks from
arrays of observer gains, one row per gain pair.  The same stacks feed
the two consumers: ``integrate_theta`` takes one generator per interval
of its time grid and steps with exact constant-coefficient increments
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

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (ConfigurationError, DimensionError, DivergenceError, InstabilityError,
                     UnsupportedCaseError)
from .model import DesignParams, PlantParams, Priors, build_system
from .numerics import geometric_times, ou_increment
from .riccati import controller_gain, linearized_riccati_curve, steady_state_gains
from .lqg_filter import design_plant, design_prior

REGIMES = ("uncontrolled_fluctuating", "controlled_steady", "controlled_transient")


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


def build_alpha_beta(p: PlantParams, d: DesignParams, k1, k2, k_c: np.ndarray):
    """Generator stacks (alpha, beta), each of shape (n, 4, 4), of the joint
    flow for n observer gains K_O = (k1[i], k2[i]) and the constant
    controller gain ``k_c``.

    Row i of a stack depends only on (k1[i], k2[i]), so the caller chooses
    the times the gains are frozen at (one row per ``integrate_theta``
    interval, or one row for a stationary solve).
    """
    a_true, b_true, _, _ = build_system(p)
    a_des, b_des = build_system(design_plant(p, d))[:2]
    k1 = np.asarray(k1, dtype=np.float64)
    k2 = np.asarray(k2, dtype=np.float64)
    k_c = np.asarray(k_c, dtype=np.float64)

    # the gain sits in the K_O C column (C = [1, 0]) and is subtracted from
    # the first column of A' - B' K_C'
    alpha = np.zeros((len(k1), 4, 4))
    alpha[:, :2, :2] = a_true
    alpha[:, :2, 2:] = -np.outer(b_true, k_c)
    alpha[:, 2:, 2:] = a_des - np.outer(b_des, k_c)
    alpha[:, 2, 0] = k1
    alpha[:, 3, 0] = k2
    alpha[:, 2, 2] -= k1
    alpha[:, 3, 2] -= k2
    beta = np.zeros((len(k1), 4, 4))
    beta[:, 1, 1] = math.sqrt(p.sigma_bF)
    beta[:, 2, 2] = math.sqrt(p.sigma_M) * k1
    beta[:, 3, 2] = math.sqrt(p.sigma_M) * k2
    return alpha, beta


def _error_generator(alpha, beta):
    """(a, q) of the flow in the error coordinates: a = S alpha S^-1 and
    q = (S beta)(S beta)^T, on stacks or single matrices."""
    bb = _S_ERR @ beta
    return _S_ERR @ alpha @ _S_ERR_INV, bb @ bb.swapaxes(-1, -2)


def _check_theta_psd(traj: ThetaTrajectory):
    scale = np.maximum(np.trace(traj.thetas, axis1=1, axis2=2), 1e-300)
    bad = np.linalg.eigvalsh(traj.thetas)[:, 0] < -1e-9 * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise InstabilityError(f"joint covariance lost positivity at t = {traj.t[i]:.6e} "
                               f"(interval from t = {traj.t[max(i - 1, 0)]:.6e}); refine the grid")


def integrate_theta(alpha, beta, theta0: np.ndarray, times) -> ThetaTrajectory:
    """Propagate Theta over an explicit increasing time grid.

    ``alpha`` and ``beta`` are ``build_alpha_beta`` stacks with one
    generator per interval, held constant over it; a stack of another
    length raises DimensionError.  The flow is conjugated into the error
    coordinates (z, b, z~-z, b~-b), where the tracking-error variances are
    direct entries; they are returned as sigma_bE/sigma_zE, and the stored
    Theta snapshots are mapped back to the raw labeling.

    Each interval takes the integrating-factor step, exact for
    piecewise-constant coefficients and stable for arbitrarily stiff
    stable generators.  The steps of all intervals come from one stacked
    ``ou_increment`` call; only the recursion Theta <- Phi Theta Phi^T + G
    runs per interval.  Numerical errors name the start time of the
    failing interval.
    """
    times = np.asarray(times, dtype=np.float64)
    if not len(alpha) == len(beta) == len(times) - 1:
        raise DimensionError(f"integrate_theta: {len(times)} times need {len(times) - 1} "
                             f"generators, got {len(alpha)} alpha and {len(beta)} beta")
    a, q = _error_generator(alpha, beta)
    bad = ~(np.isfinite(a).all(axis=(1, 2)) & np.isfinite(q).all(axis=(1, 2)))
    if bad.any():
        k = int(np.argmax(bad))
        raise DivergenceError(f"integrate_theta: non-finite generator "
                              f"(interval from t = {times[k]:.6e})")
    phi, g = ou_increment(a, q, np.diff(times))
    theta = _S_ERR @ np.asarray(theta0, dtype=np.float64) @ _S_ERR.T
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
    if regime == "uncontrolled_fluctuating":
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

    Solves the stationary Lyapunov equation a X + X a^T + q = 0 of the
    steady-gain generator in the error coordinates (z, b, z~-z, b~-b).
    For lam = 0 the raw stack is not stationary (z integrates the field),
    but with no control nothing else depends on z, so the closed block
    (b, z~-z, b~-b) is solved instead.
    """
    if not p.fluctuating:
        raise UnsupportedCaseError("steady_state_error: needs a fluctuating field")
    g = steady_state_gains(design_plant(p, d), d)
    a, q = _error_generator(*build_alpha_beta(p, d, g.K_O[:1], g.K_O[1:], g.K_C))
    keep = slice(0, 4) if d.lam > 0 else slice(1, 4)
    a, q = a[0, keep, keep], q[0, keep, keep]
    if np.max(np.linalg.eigvals(a).real) >= 0:
        raise InstabilityError("steady_state_error: mismatched closed loop is unstable")
    return float(scipy.linalg.solve_continuous_lyapunov(a, -q)[-1, -1])


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
    return ThetaTrajectory(t_eval, traj.thetas[idx], traj.sigma_bE[idx], traj.sigma_zE[idx])
