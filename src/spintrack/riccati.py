"""Estimator and controller Riccati equations for the 2-state spin/field model.

The estimate covariance Sigma(t) = [[sigma_zR, sigma_cR], [sigma_cR,
sigma_bR]] obeys the forward matrix Riccati equation

    dSigma/dt = Sigma1 + A Sigma + Sigma A^T - Sigma C^T C Sigma / sigma_M

from Sigma(0) = diag(sigma_z0, sigma_b0), which in components is

    d sigma_zR = 2 gamma J sigma_cR - sigma_zR^2 / sigma_M
    d sigma_cR = gamma J sigma_bR - gamma_b sigma_cR - sigma_zR sigma_cR / sigma_M
    d sigma_bR = sigma_bF - 2 gamma_b sigma_bR - sigma_cR^2 / sigma_M

The observer gain is K_O(t) = Sigma(t) C^T / sigma_M = (sigma_zR,
sigma_cR) / sigma_M.  Three independent solution paths are provided:

* the linearized route Sigma = W U^{-1}, [W; U] under the constant
  Hamiltonian block [[A, Sigma1], [C^T C / sigma_M, -A^T]], exact at any
  set of times at once (Vaughan's negative-exponential form, or one jump
  from the prior for sigma_bF = 0); every gain table comes from it;
* closed forms for the constant-field case (the full expression with
  arbitrary priors plus its documented limits for zero/infinite priors);
* fixed-step RK4 on a deterministic quasi-geometric schedule (the local
  timescale of the transient is sigma_M / sigma_zR(t), which grows like
  elapsed time, so steps proportional to t + sigma_M/sigma_z0 keep the
  per-step gain-times-step product constant).

The controller Riccati for the quadratic cost with weight ratio
lam^2 = p/q runs in reverse time and is solved both in closed form,
K_C = [lam, 1/(1 + gamma_b/(gamma J' lam))], and by integration.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, InstabilityError, UnsupportedCaseError
from .model import DesignParams, PlantParams, Priors, build_system
from .numerics import geometric_times, mat_expm, stable_expm2

_SCHEDULE_STEP = 1.01 - 1.0  # fractional step growth of the geometric schedule


@dataclass
class CovTrajectory:
    """Riccati covariance history on an increasing time grid."""

    t: np.ndarray
    sigma_zR: np.ndarray
    sigma_cR: np.ndarray
    sigma_bR: np.ndarray

    def gain(self, sigma_M: float):
        """Observer gains (K_O1, K_O2) tabulated on the trajectory grid."""
        return self.sigma_zR / sigma_M, self.sigma_cR / sigma_M


@dataclass(frozen=True)
class SteadyGains:
    """Steady-state observer/controller gains and saturated variances."""

    K_O: np.ndarray     # observer gain, 2-vector
    K_C: np.ndarray     # controller gain, 1x2 stored as 2-vector
    sigma_zS: float
    sigma_bS: float


def _prior_values(prior) -> tuple[float, float]:
    if isinstance(prior, Priors):
        return prior.sigma_z0, prior.sigma_b0
    sz0, sb0 = prior
    return float(sz0), float(sb0)


def _finite_prior_values(prior) -> tuple[float, float]:
    """Priors of the numeric routes, which need them finite (the closed
    forms take infinite priors as limits)."""
    sz0, sb0 = _prior_values(prior)
    if not (math.isfinite(sz0) and math.isfinite(sb0) and sz0 > 0 and sb0 >= 0):
        raise ConfigurationError(
            f"numeric Riccati routes need finite priors with sigma_z0 > 0, got ({sz0}, {sb0}); "
            "use the closed forms for infinite priors")
    return sz0, sb0


def _is_constant_field(p: PlantParams) -> bool:
    return p.sigma_bF == 0.0 and p.gamma_b == 0.0


def _steady_gain(p: PlantParams, gj: float):
    """Exact stationary Riccati gain (k1, k2) for the coupling gj = gamma J."""
    r = math.sqrt(p.sigma_bF / p.sigma_M)
    k1 = math.sqrt(2.0 * gj * r + p.gamma_b ** 2) - p.gamma_b
    return k1, r - (p.gamma_b / gj) * k1


def exact_steady_sigma(p: PlantParams):
    """Exact stationary Riccati solution (sigma_zS, sigma_cS, sigma_bS).

    Valid whenever sigma_bF > 0.  With r = sqrt(sigma_bF / sigma_M) the
    stationary gain k1 = sigma_zS / sigma_M solves
    k1^2 + 2 gamma_b k1 = 2 gamma J r exactly.
    """
    if not p.sigma_bF > 0:
        raise UnsupportedCaseError("exact_steady_sigma: no steady state for sigma_bF = 0")
    gj = p.gamma * p.J
    sm = p.sigma_M
    k1, k2 = _steady_gain(p, gj)
    sz = sm * k1
    sc = sm * k2
    sb = sc * (p.gamma_b + k1) / gj
    return sz, sc, sb


def _schedule_offset(p: PlantParams, sz0: float, sb0: float) -> float:
    """Smallest dynamical timescale at t = 0, from parameters alone."""
    sm = p.sigma_M
    scales = [sm / sz0]
    if sb0 > 0:
        # onset of field information transfer through the z-c coupling
        scales.append((sm / (p.gamma ** 2 * p.J ** 2 * sb0)) ** (1.0 / 3.0))
    if p.gamma_b > 0:
        scales.append(1.0 / p.gamma_b)
    if p.sigma_bF > 0:
        sz_s, _, _ = exact_steady_sigma(p)
        scales.append(sm / sz_s)
    return min(scales)


def _internal_times(p: PlantParams, sz0: float, sb0: float, t_end: float, required: np.ndarray):
    """Union of the stability/accuracy schedule and required output times."""
    cap = math.inf
    if p.sigma_bF > 0:
        # RK4 stability cap after saturation (local rate ~ 2 K1_steady);
        # accuracy there is free since the solution is stationary
        sz_s, _, _ = exact_steady_sigma(p)
        cap = 0.5 * p.sigma_M / sz_s
        if p.gamma_b > 0:
            cap = min(cap, 0.2 / p.gamma_b)
    elif p.gamma_b > 0:   # decaying field: relative errors add up step by step
        cap = 0.01 / p.gamma_b   # within 1.2e-6 to gamma_b t = 340 (6.9e-5 at 10 without it)
    grid = geometric_times(t_end, _SCHEDULE_STEP, _schedule_offset(p, sz0, sb0), cap)
    return np.union1d(grid, required)


def _rk4_triple(rhs, x0, times: np.ndarray):
    """Unrolled RK4 of a three-component autonomous ODE over the given grid.

    ``rhs(x, y, z)`` returns the three derivatives; row k of the result is
    the state at times[k].  The loop runs on Python floats: the grid is
    read into a float buffer once and the states are appended to another,
    which becomes the (n, 3) result without a copy.
    """
    grid = array("d", np.asarray(times, dtype=np.float64).tobytes())
    sz, sc, sb = x0
    out = array("d", (sz, sc, sb))
    for k in range(len(grid) - 1):
        h = grid[k + 1] - grid[k]
        hh, h6 = 0.5 * h, h / 6.0
        az, ac, ab = rhs(sz, sc, sb)
        bz, bc, bb = rhs(sz + hh * az, sc + hh * ac, sb + hh * ab)
        cz, cc, cb = rhs(sz + hh * bz, sc + hh * bc, sb + hh * bb)
        dz, dc, db = rhs(sz + h * cz, sc + h * cc, sb + h * cb)
        sz += h6 * (az + 2.0 * bz + 2.0 * cz + dz)
        sc += h6 * (ac + 2.0 * bc + 2.0 * cc + dc)
        sb += h6 * (ab + 2.0 * bb + 2.0 * cb + db)
        if not (math.isfinite(sz) and math.isfinite(sc) and math.isfinite(sb)):
            raise InstabilityError(
                f"Riccati integration lost finiteness at t = {grid[k + 1]:.6e}")
        out.extend((sz, sc, sb))
    return np.frombuffer(out).reshape(-1, 3)


def _check_psd(traj: CovTrajectory):
    scale = np.maximum(np.abs(traj.sigma_zR) + np.abs(traj.sigma_bR), 1e-300)
    tol = 1e-9 * scale
    bad_diag = (traj.sigma_zR < -tol) | (traj.sigma_bR < -tol)
    bad_det = traj.sigma_cR ** 2 > traj.sigma_zR * traj.sigma_bR + tol * scale
    bad = bad_diag | bad_det | ~np.isfinite(traj.sigma_zR + traj.sigma_cR + traj.sigma_bR)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InstabilityError(f"Riccati covariance lost positivity or finiteness at "
                               f"t = {traj.t[k]:.6e}; use a smaller dt")


def riccati_at_times(p: PlantParams, prior, times) -> CovTrajectory:
    """Riccati solution sampled exactly at the requested times."""
    sz0, sb0 = _finite_prior_values(prior)
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    gj = p.gamma * p.J
    gb = p.gamma_b
    sbf = p.sigma_bF
    inv_sm = 1.0 / p.sigma_M

    def rhs(sz, sc, sb):
        return (2.0 * gj * sc - sz * sz * inv_sm,
                gj * sb - gb * sc - sz * sc * inv_sm,
                sbf - 2.0 * gb * sb - sc * sc * inv_sm)

    grid = _internal_times(p, sz0, sb0, float(times.max()), times)
    vals = _rk4_triple(rhs, (sz0, 0.0, sb0), grid)
    idx = np.searchsorted(grid, times)
    traj = CovTrajectory(times.copy(), vals[idx, 0], vals[idx, 1], vals[idx, 2])
    _check_psd(traj)
    return traj


def integrate_estimator_riccati(p: PlantParams, prior: Priors, dt: float, T: float) -> CovTrajectory:
    """Riccati solution on the uniform grid 0, dt, ..., T: the gain table.

    The uniform spacing is validated against the saturated gain
    (dt * K_O1_steady < 0.1 for fluctuating fields) so the output grid is
    safe to drive a discrete filter; the values themselves are exact at
    every grid time (``linearized_riccati_curve``).
    """
    if dt <= 0 or T <= 0:
        raise ConfigurationError("integrate_estimator_riccati: dt and T must be positive")
    if p.sigma_bF > 0:
        sz_s, _, _ = exact_steady_sigma(p)
        if dt * sz_s / p.sigma_M >= 0.1:
            raise ConfigurationError(
                "integrate_estimator_riccati: dt * K_O1_steady >= 0.1; choose dt below "
                f"{0.1 * p.sigma_M / sz_s:.3e}")
    n = int(round(T / dt))
    return linearized_riccati_curve(p, prior, np.arange(n + 1) * dt)


# ---------------------------------------------------------------------------
# constant-field closed forms
# ---------------------------------------------------------------------------

def analytic_sigma_b(p: PlantParams, prior, t: float) -> float:
    """Field tracking error sigma_bR(t) for constant fields.

    Implements the general-prior expression

        12 sb0 sm (sm + sz0 t)
        ----------------------------------------------------------
        12 sm^2 + g2 sb0 sz0 t^4 + 4 sm (3 sz0 t + g2 t^3 sb0)

    (g2 = gamma^2 J^2, sm = sigma_M) together with its limits when either
    prior is 0 or math.inf.  Fluctuating-field parameters are rejected.
    """
    if not _is_constant_field(p):
        raise UnsupportedCaseError(
            "analytic_sigma_b: closed form holds for constant fields only; integrate numerically")
    sz0, sb0 = _prior_values(prior)
    sm = p.sigma_M
    g2 = (p.gamma * p.J) ** 2
    if sb0 == 0.0:
        return 0.0
    if math.isinf(sb0):
        if sz0 == 0.0:
            return 3.0 * sm / (g2 * t ** 3) if t > 0 else math.inf
        if math.isinf(sz0):
            return 12.0 * sm / (g2 * t ** 3) if t > 0 else math.inf
        if t == 0.0:
            return math.inf
        return 12.0 * sm * (sm + sz0 * t) / (g2 * t ** 3 * (4.0 * sm + sz0 * t))
    if sz0 == 0.0:
        return 3.0 * sb0 * sm / (3.0 * sm + g2 * sb0 * t ** 3)
    if math.isinf(sz0):
        return 12.0 * sb0 * sm / (12.0 * sm + g2 * t ** 3 * sb0)
    num = 12.0 * sb0 * sm * (sm + sz0 * t)
    den = 12.0 * sm ** 2 + g2 * sb0 * sz0 * t ** 4 + 4.0 * sm * (3.0 * sz0 * t + g2 * t ** 3 * sb0)
    return num / den


def analytic_sigma_z(p: PlantParams, prior, t: float) -> float:
    """Spin tracking error sigma_zR(t) for constant fields (general prior
    expression plus zero/infinite prior limits)."""
    if not _is_constant_field(p):
        raise UnsupportedCaseError(
            "analytic_sigma_z: closed form holds for constant fields only; integrate numerically")
    sz0, sb0 = _prior_values(prior)
    sm = p.sigma_M
    g2 = (p.gamma * p.J) ** 2
    if sb0 == 0.0:
        if sz0 == 0.0:
            return 0.0
        if math.isinf(sz0):
            return sm / t if t > 0 else math.inf
        return sm * sz0 / (sm + sz0 * t)
    if sz0 == 0.0:
        if math.isinf(sb0):
            return 3.0 * sm / t if t > 0 else 0.0
        return 3.0 * g2 * sb0 * sm * t ** 2 / (3.0 * sm + g2 * sb0 * t ** 3)
    if math.isinf(sz0):
        if math.isinf(sb0):
            return 4.0 * sm / t if t > 0 else math.inf
        if t == 0.0:
            return math.inf
        return 4.0 * sm * (3.0 * sm + g2 * t ** 3 * sb0) / (12.0 * sm * t + g2 * t ** 4 * sb0)
    if math.isinf(sb0):
        if t == 0.0:
            return sz0
        return 4.0 * sm * (3.0 * sm + sz0 * t) / (t * (4.0 * sm + sz0 * t))
    num = 4.0 * sm * (g2 * sb0 * sz0 * t ** 3 + 3.0 * sm * (sz0 + g2 * t ** 2 * sb0))
    den = 12.0 * sm ** 2 + g2 * sb0 * sz0 * t ** 4 + 4.0 * sm * (3.0 * sz0 * t + g2 * t ** 3 * sb0)
    return num / den


def transient_sigma_b(p: PlantParams, t: float, J: float | None = None) -> float:
    """Late-time constant-field tracking error 12 sigma_M / (gamma^2 J^2 t^3),
    the same scaling a least-squares line fit to the record achieves."""
    gj = p.gamma * (p.J if J is None else J)
    return 12.0 * p.sigma_M / (gj ** 2 * t ** 3)


# ---------------------------------------------------------------------------
# steady-state gains
# ---------------------------------------------------------------------------

def controller_gain(p: PlantParams, d: DesignParams) -> np.ndarray:
    """Stationary controller gain K_C = [lam, 1/(1 + gamma_b/(gamma J' lam))].

    Exact stationary solution of the reverse-time cost Riccati; lam = 0
    means control off (K_C = 0).
    """
    if d.lam == 0.0:
        return np.zeros(2)
    gj = p.gamma * d.J_prime
    return np.array([d.lam, 1.0 / (1.0 + p.gamma_b / (gj * d.lam))])


def steady_state_gains(p: PlantParams, d: DesignParams) -> SteadyGains:
    """Stationary observer and controller gains for fluctuating fields.

    K_O is the exact stationary Riccati gain evaluated with the design
    spin J'.  The saturated variances are the large-spin closed forms
    (accurate once gamma J' >> gamma_b^2 sqrt(sigma_M / sigma_bF)):

        sigma_zS = sqrt(2 gamma J') sigma_M^(3/4) sigma_bF^(1/4)
        sigma_bS = sqrt(2 / (gamma J')) sigma_bF^(3/4) sigma_M^(1/4)
    """
    if not p.sigma_bF > 0:
        raise UnsupportedCaseError(
            "steady_state_gains: constant fields never saturate; no steady gain exists")
    gj = p.gamma * d.J_prime
    sm = p.sigma_M
    k1, k2 = _steady_gain(p, gj)
    sigma_zS = math.sqrt(2.0 * gj) * sm ** 0.75 * p.sigma_bF ** 0.25
    sigma_bS = math.sqrt(2.0 / gj) * p.sigma_bF ** 0.75 * sm ** 0.25
    return SteadyGains(K_O=np.array([k1, k2]), K_C=controller_gain(p, d),
                       sigma_zS=sigma_zS, sigma_bS=sigma_bS)


def controller_riccati_steady(p: PlantParams, d: DesignParams) -> np.ndarray:
    """Controller gain from reverse-time integration of the cost Riccati.

    Integrates dV/dT = P + A'^T V + V A' - V B' B'^T V / q (P = diag(lam^2, 0),
    q = 1) until stationary and returns K_C = B'^T V.  Must agree with the
    closed form to high accuracy; kept as an independent route.
    """
    if not d.lam > 0:
        raise ConfigurationError("controller_riccati_steady: lam must be positive")
    a = p.gamma * d.J_prime
    gb = p.gamma_b
    lam2 = d.lam ** 2
    horizon = 30.0 / (a * d.lam)
    h = 0.02 / (a * d.lam)
    steps = int(math.ceil(horizon / h))

    def rhs(v1, vc, v2):
        return (lam2 - (a * v1) ** 2,
                a * v1 - gb * vc - a * a * v1 * vc,
                2.0 * (a * vc - gb * v2) - (a * vc) ** 2)

    v1, vc, _ = _rk4_triple(rhs, (0.0, 0.0, 0.0), np.arange(steps + 1) * h)[-1]
    return np.array([a * v1, a * vc])


# ---------------------------------------------------------------------------
# linearized (Hamiltonian block) solution
# ---------------------------------------------------------------------------

_JUMP_HORIZON = 300.0   # largest gamma_b t of the jump for a decaying field


def linearized_riccati_curve(p: PlantParams, prior, times) -> CovTrajectory:
    """Sigma(t) = W U^{-1} at all requested times at once; [W; U] starts at
    [Sigma0; I] under the Hamiltonian H = [[A, Sigma1], [C^T C / sigma_M, -A^T]].

    sigma_bF > 0: Vaughan's negative-exponential form (IEEE TAC 14, 72,
    1969).  A balanced real Schur form and one Sylvester solve split
    H = S diag(H1, H2) S^{-1} into stable and anti-stable 2x2 blocks; with
    [C1; C2] = S^{-1} [Sigma0; I], M = exp(H1 t) C1 C2^{-1} exp(-H2 t) and
    Sigma = (S12 + S11 M)(S22 + S21 M)^{-1}.  Only decaying exponentials and
    no eigenvectors appear: the repeated eigenvalue at gamma J sqrt(sigma_bF
    / sigma_M) = gamma_b^2 / 2 is no special case.

    sigma_bF = 0: one exact jump exp(H t) [Sigma0; I] from the prior (one
    mat_expm call on the stack).  For a decaying field it grows like
    exp(gamma_b t), stays within 3e-13 of an 800-digit evaluation up to
    gamma_b t = _JUMP_HORIZON and overflows near 700: later t is unsupported.
    """
    sz0, sb0 = _finite_prior_values(prior)
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    a, _, c, sigma1 = build_system(p)
    h = np.block([[a, sigma1], [c.T @ c / p.sigma_M, -a.T]])
    start = np.array([[sz0, 0.0], [0.0, sb0], [1.0, 0.0], [0.0, 1.0]])
    if p.sigma_bF > 0:
        hb, bal = scipy.linalg.matrix_balance(h, permute=False)
        tt, q, _ = scipy.linalg.schur(hb, sort="lhp")
        x = scipy.linalg.solve_sylvester(tt[:2, :2], -tt[2:, 2:], -tt[:2, 2:])
        s = bal @ np.hstack([q[:, :2], q[:, :2] @ x + q[:, 2:]])
        c12 = np.linalg.solve(s, start)
        m = (stable_expm2(tt[:2, :2], times) @ (c12[:2] @ np.linalg.inv(c12[2:]))
             @ stable_expm2(-tt[2:, 2:], times))
        wu = s[:, 2:] + s[:, :2] @ m
    else:
        far = p.gamma_b * times > _JUMP_HORIZON
        if far.any():
            raise UnsupportedCaseError(f"linearized Riccati: decaying field past gamma_b t = "
                                       f"{_JUMP_HORIZON:g}, first at t = {times[far][0]:.6e}")
        wu = mat_expm(h * times[:, None, None]) @ start
    w, u = wu[:, :2], wu[:, 2:]
    det = u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0]
    traj = CovTrajectory(times.copy(),
                         (w[:, 0, 0] * u[:, 1, 1] - w[:, 0, 1] * u[:, 1, 0]) / det,
                         (w[:, 0, 1] * u[:, 0, 0] - w[:, 0, 0] * u[:, 0, 1]) / det,
                         (w[:, 1, 1] * u[:, 0, 0] - w[:, 1, 0] * u[:, 0, 1]) / det)
    _check_psd(traj)
    return traj
