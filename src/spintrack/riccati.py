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
* one closed form for the constant-field case, a rational function of t
  in homogeneous prior coordinates that covers zero and infinite priors
  and the late-time law without a case of its own;
* fixed-step RK4 on a deterministic quasi-geometric schedule (the local
  timescale of the transient is sigma_M / sigma_zR(t), which grows like
  elapsed time, so steps proportional to t + sigma_M/sigma_z0 keep the
  per-step gain-times-step product constant).

The controller Riccati for the quadratic cost with weight ratio
lam^2 = p/q runs in reverse time; its stationary solution is the closed
form K_C = [lam, 1/(1 + gamma_b/(gamma J' lam))].
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InstabilityError, NumericalError, UnsupportedCaseError
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


def _next_longer(times: np.ndarray, k: int, h: float) -> int:
    """Index of the first step after step k (step j runs from times[j] to
    times[j + 1]) that is longer than h, or the number of steps: a scan in
    windows of doubling width, so a run of m steps costs O(m) however far
    the grid goes on."""
    lo, width = k + 1, 16
    while lo < len(times) - 1:
        longer = np.flatnonzero(np.diff(times[lo:lo + width + 1]) > h)
        if longer.size:
            return lo + int(longer[0])
        lo += width
        width *= 2
    return len(times) - 1


def _rk4_triple(rhs, x0, times: np.ndarray):
    """Unrolled RK4 of a three-component autonomous ODE over the given grid.

    ``rhs(x, y, z)`` returns the three derivatives and must be autonomous
    and pure: the same floats in give the same floats out.  Row k of the
    result is the state at times[k].  The loop runs on Python floats: the
    grid is read into a float buffer once and the states are appended to
    another, which becomes the (n, 3) result.

    A step of size h is an exact fixed point when both its Euler probe
    x + h a (a = rhs(x)) and its result equal x bit for bit: every stage
    then reads x and returns a, and rounding to nearest is monotone, so
    every later step h' <= h returns x as well.  From such a step the
    loop repeats the row up to the next step longer than h and computes
    that one again; the rows are those of stepping through.  Repeats are
    counted in the loop and written once, by np.repeat, at the end.
    """
    times = np.asarray(times, dtype=np.float64)
    grid = array("d", times.tobytes())
    sz, sc, sb = x0
    out = array("d", (sz, sc, sb))
    repeats = []   # (row, further copies of it)
    k, steps = 0, len(grid) - 1
    while k < steps:
        h = grid[k + 1] - grid[k]
        hh, h6 = 0.5 * h, h / 6.0
        az, ac, ab = rhs(sz, sc, sb)
        bz, bc, bb = rhs(sz + hh * az, sc + hh * ac, sb + hh * ab)
        cz, cc, cb = rhs(sz + hh * bz, sc + hh * bc, sb + hh * bb)
        dz, dc, db = rhs(sz + h * cz, sc + h * cc, sb + h * cb)
        z1 = sz + h6 * (az + 2.0 * bz + 2.0 * cz + dz)
        c1 = sc + h6 * (ac + 2.0 * bc + 2.0 * cc + dc)
        b1 = sb + h6 * (ab + 2.0 * bb + 2.0 * cb + db)
        if not (math.isfinite(z1) and math.isfinite(c1) and math.isfinite(b1)):
            raise InstabilityError(
                f"Riccati integration lost finiteness at t = {grid[k + 1]:.6e}")
        if z1 == sz and c1 == sc and b1 == sb:
            bits = array("d", (sz, sc, sb)).tobytes()
            # bitwise, so a flip between +0.0 and -0.0 counts as a change
            if (bits == array("d", (z1, c1, b1)).tobytes()
                    == array("d", (sz + h * az, sc + h * ac, sb + h * ab)).tobytes()):
                j = _next_longer(times, k, h)
                repeats.append((len(out) // 3 - 1, j - k))
                k = j
                continue
        sz, sc, sb = z1, c1, b1
        out.extend((sz, sc, sb))
        k += 1
    rows = np.frombuffer(out).reshape(-1, 3)
    counts = np.ones(len(rows), dtype=np.intp)
    for row, extra in repeats:
        counts[row] += extra
    return np.repeat(rows, counts, axis=0)


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


def riccati_at_times(p: PlantParams, prior: Priors, times) -> CovTrajectory:
    """Riccati solution sampled exactly at the requested times."""
    sz0, sb0 = prior.sigma_z0, prior.sigma_b0
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
    """Riccati solution on the uniform grid 0, dt, ..., T: the gain table,
    exact at every grid time (``linearized_riccati_curve``); the filter's
    step bound on dt is checked in ``lqg_filter._loop_setup``, after
    ``truth_sim.step_count`` has checked dt and T."""
    n = int(round(T / dt))
    return linearized_riccati_curve(p, prior, np.arange(n + 1) * dt)


# ---------------------------------------------------------------------------
# constant-field closed form
# ---------------------------------------------------------------------------

def analytic_sigma(p: PlantParams, prior, t: float) -> tuple[float, float]:
    """Constant-field tracking errors (sigma_zR(t), sigma_bR(t)) for any priors.

    ``prior`` is a Priors or a (sigma_z0, sigma_b0) pair; only the pair
    can hold math.inf, which a Priors rejects.

    Each prior enters in homogeneous coordinates, sigma_z0 = a / alpha and
    sigma_b0 = c / beta, with (a, alpha) = (v, 1) for a finite value v and
    (1, 0) for math.inf.  The general-prior solution multiplied through by
    alpha beta is

        sigma_bR = 12 c sm (sm alpha + a t) / D
        sigma_zR = 4 sm (g2 c a t^3 + 3 sm (a beta + g2 t^2 c alpha)) / D
        D = 12 sm^2 alpha beta + g2 c a t^4 + 4 sm (3 a t beta + g2 t^3 c alpha)

    (g2 = gamma^2 J^2, sm = sigma_M).  D > 0 at every t > 0, so the one
    expression holds for every zero and infinite prior; t = 0 returns the
    prior.  A t at which t^4 or D is not a normal float (t < 1.2e-77, or D
    overflowing) would cost precision, so NumericalError names it.  Both
    priors infinite give the late-time law sigma_bR = 12 sm / (g2 t^3), the
    scaling a least-squares line fit to the record achieves.
    Fluctuating-field parameters are rejected.
    """
    if not _is_constant_field(p):
        raise UnsupportedCaseError(
            "analytic_sigma: closed form holds for constant fields only; integrate numerically")
    if isinstance(prior, Priors):
        sz0, sb0 = prior.sigma_z0, prior.sigma_b0
    else:
        sz0, sb0 = map(float, prior)
    t = float(t)   # a numpy t would warn where the float arithmetic below raises
    if t == 0.0:
        return sz0, sb0
    a, alpha = (1.0, 0.0) if math.isinf(sz0) else (sz0, 1.0)
    c, beta = (1.0, 0.0) if math.isinf(sb0) else (sb0, 1.0)
    sm = p.sigma_M
    g2 = (p.gamma * p.J) ** 2
    try:
        t4 = t ** 4
        den = (12.0 * sm ** 2 * (alpha * beta) + g2 * c * a * t4
               + 4.0 * sm * (3.0 * a * t * beta + g2 * t ** 3 * c * alpha))
    except OverflowError:
        t4 = den = math.inf
    if not (sys.float_info.min <= t4 < math.inf and sys.float_info.min <= den < math.inf):
        raise NumericalError(f"analytic_sigma: t^4 = {t4:.3g} and denominator {den:.3g} "
                             f"are not both normal floats at t = {t:.6e}")
    return (4.0 * sm * (g2 * c * a * t ** 3 + 3.0 * sm * (a * beta + g2 * t ** 2 * c * alpha)) / den,
            12.0 * c * sm * (sm * alpha + a * t) / den)


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


# ---------------------------------------------------------------------------
# linearized (Hamiltonian block) solution
# ---------------------------------------------------------------------------

_JUMP_HORIZON = 300.0   # largest gamma_b t of the jump for a decaying field


def linearized_riccati_curve(p: PlantParams, prior: Priors, times) -> CovTrajectory:
    """Sigma(t) = W U^{-1} at all requested times at once; [W; U] starts at
    [Sigma0; I] under the Hamiltonian H = [[A, Sigma1], [C^T C / sigma_M, -A^T]].

    sigma_bF > 0: Vaughan's negative-exponential form (IEEE TAC 14, 72,
    1969).  A balanced real Schur form and one Sylvester solve split
    H = S diag(H1, H2) S^{-1} into stable and anti-stable 2x2 blocks; with
    [C1; C2] = S^{-1} [Sigma0; I], M = exp(H1 t) C1 C2^{-1} exp(-H2 t) and
    Sigma = (S12 + S11 M)(S22 + S21 M)^{-1}.  Only decaying exponentials and
    no eigenvectors appear: the repeated eigenvalue at gamma J sqrt(sigma_bF
    / sigma_M) = gamma_b^2 / 2 is no special case.

    sigma_bF = 0: one exact jump exp(H t) [Sigma0; I] from the prior.  For
    a constant field (gamma_b = 0) H is nilpotent, H^4 = 0 exactly in
    floats, and the jump is the cubic (I + H t + (H t)^2/2 + (H t)^3/6)
    [Sigma0; I], with each H^k [Sigma0; I] formed once for all times.  For
    a decaying field (one mat_expm call on the stack) it grows like
    exp(gamma_b t), stays within 3e-13 of an 800-digit evaluation up to
    gamma_b t = _JUMP_HORIZON and overflows near 700: later t is unsupported.
    """
    sz0, sb0 = prior.sigma_z0, prior.sigma_b0
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
        if np.linalg.matrix_power(h, 4).any():
            wu = mat_expm(h * times[:, None, None]) @ start
        else:
            h1 = h @ start
            h2 = h @ h1
            h3 = h @ h2
            t = times[:, None, None]
            wu = start + t * (h1 + t * (0.5 * h2 + t * (h3 / 6.0)))
    w, u = wu[:, :2], wu[:, 2:]
    det = u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0]
    traj = CovTrajectory(times.copy(),
                         (w[:, 0, 0] * u[:, 1, 1] - w[:, 0, 1] * u[:, 1, 0]) / det,
                         (w[:, 0, 1] * u[:, 0, 0] - w[:, 0, 0] * u[:, 0, 1]) / det,
                         (w[:, 1, 1] * u[:, 0, 0] - w[:, 1, 0] * u[:, 0, 1]) / det)
    _check_psd(traj)
    return traj
