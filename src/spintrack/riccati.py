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

* the linearized route, one exact jump from the prior at any set of
  times at once: for sigma_bF > 0 measured from the exact steady state,
  Sigma = Sigma_s + Phi^T E0 (I + G E0)^-1 Phi with (Phi, G) from
  ``numerics.ou_increment``; for sigma_bF = 0 Sigma = W U^{-1}, [W; U]
  under the Hamiltonian block [[A, Sigma1], [C^T C / sigma_M, -A^T]];
  every gain table comes from it;
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

from .errors import InstabilityError, NumericalError, UnsupportedCaseError
from .model import DesignParams, PlantParams, Priors, build_system
from .numerics import _balancing, _square, geometric_times, mat_expm, ou_increment

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
    s = math.sqrt(2.0 * gj * r + _square(p.gamma_b, "gamma_b")) + p.gamma_b
    k1 = 2.0 * gj * r / s   # sqrt(2 gj r + gamma_b^2) - gamma_b without the cancellation
    return k1, r * k1 / s


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


def _internal_times(p: PlantParams, sz0: float, sb0: float, t_end: float, required: np.ndarray):
    """Union of the stability/accuracy schedule and required output times.

    The schedule starts at the smallest dynamical timescale at t = 0, from
    parameters alone."""
    sm = p.sigma_M
    scales = [sm / sz0]
    if sb0 > 0:
        # onset of field information transfer through the z-c coupling
        scales.append((sm / (_square(p.gamma, "gamma") * _square(p.J, "J") * sb0))
                      ** (1.0 / 3.0))
    if p.gamma_b > 0:
        scales.append(1.0 / p.gamma_b)
    cap = math.inf
    if p.sigma_bF > 0:
        sz_s, _, _ = exact_steady_sigma(p)
        scales.append(sm / sz_s)
        # RK4 stability cap after saturation (local rate ~ 2 K1_steady);
        # accuracy there is free since the solution is stationary
        cap = 0.5 * sm / sz_s
        if p.gamma_b > 0:
            cap = min(cap, 0.2 / p.gamma_b)
    elif p.gamma_b > 0:   # decaying field: relative errors add up step by step
        cap = 0.01 / p.gamma_b   # within 1.2e-6 to gamma_b t = 340 (6.9e-5 at 10 without it)
    grid = geometric_times(t_end, _SCHEDULE_STEP, min(scales), cap)
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


@np.errstate(over="ignore", invalid="ignore")   # an overflow is reported below
def _check_psd(traj: CovTrajectory, route: str):
    """InstabilityError at the first time whose covariance is not finite and
    positive semidefinite to 1e-9 of its scale; the determinant test squares
    that scale, so entries past about 4e158 fail it too."""
    scale = np.maximum(np.abs(traj.sigma_zR) + np.abs(traj.sigma_bR), 1e-300)
    tol = 1e-9 * scale
    bad_diag = (traj.sigma_zR < -tol) | (traj.sigma_bR < -tol)
    bound = traj.sigma_zR * traj.sigma_bR + tol * scale
    bad = bad_diag | ~(traj.sigma_cR ** 2 <= bound) | ~np.isfinite(bound + traj.sigma_cR)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InstabilityError(f"{route} Riccati covariance (sigma_zR, sigma_cR, sigma_bR) = "
                               f"({traj.sigma_zR[k]:.3e}, {traj.sigma_cR[k]:.3e}, "
                               f"{traj.sigma_bR[k]:.3e}) fails the check (finite, squares "
                               f"included, and positive semidefinite) at t = {traj.t[k]:.6e}")


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
    _check_psd(traj, "RK4")
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
    g2 = _square(p.gamma * p.J, "gamma J")
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
    means control off (K_C = 0).  J' is read from d only, never p.J.
    """
    if d.lam == 0.0:
        return np.zeros(2)
    gj = p.gamma * d.J_prime
    return np.array([d.lam, 1.0 / (1.0 + p.gamma_b / (gj * d.lam))])


def steady_state_gains(p: PlantParams, d: DesignParams) -> SteadyGains:
    """Stationary observer and controller gains for fluctuating fields.

    K_O is the exact stationary Riccati gain evaluated with the design
    spin J', read from d only (never p.J, so the true plant will do).
    The saturated variances are the large-spin closed forms
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
_JUMP_RUN = 512         # times per ou_increment call: bounds its stack of Pade blocks


def _balance(h: np.ndarray):
    """(D^-1 h D, e): h balanced by the power-of-two similarity D = diag(2**e)
    of ``numerics._balancing``, exact in floats."""
    e = _balancing(h[None])[0]
    return np.ldexp(h, e[None, :] - e[:, None]), e


@np.errstate(all="ignore")   # _check_psd reports a non-finite result
def _steady_jump(p: PlantParams, prior: Priors, times: np.ndarray) -> CovTrajectory:
    """Sigma(t) = Sigma_s + Phi^T E0 (I + G E0)^-1 Phi for sigma_bF > 0, with
    E0 = Sigma0 - Sigma_s and (Phi, G) = ou_increment(F^T, C^T C / sigma_M, t).

    Measured from the exact steady state Sigma_s (``exact_steady_sigma``),
    the error E = Sigma - Sigma_s obeys dE/dt = F E + E F^T - E C^T C E /
    sigma_M with the stable F = A - Sigma_s C^T C / sigma_M, so E^-1 obeys
    the linear d(E^-1)/dt = C^T C / sigma_M - F^T E^-1 - E^-1 F, whose
    solution is the formula: no inverse of E0, no growing exponential.
    The times go in runs of _JUMP_RUN.  I + G E0 is inverted by its
    adjugate and ou_increment balances F^T by powers of two, so a prior
    far from the steady state costs no digits: power-of-two coordinates
    that bring the diagonal of E0 near 1 moved 8 of 300 random plants,
    by at most 5.3e-15 relative, and are not used.
    """
    sz_s, sc_s, sb_s = exact_steady_sigma(p)
    sigma_s = np.array([[sz_s, sc_s], [sc_s, sb_s]])
    e0 = np.diag([prior.sigma_z0, prior.sigma_b0]) - sigma_s
    a, _, c, _ = build_system(p)
    r = c.T @ c / p.sigma_M
    f_t = (a - sigma_s @ r).T
    e = np.empty((len(times), 2, 2))
    for lo in range(0, len(times), _JUMP_RUN):
        t = times[lo:lo + _JUMP_RUN]
        phi, g = ou_increment(np.broadcast_to(f_t, t.shape + (2, 2)),
                              np.broadcast_to(r, t.shape + (2, 2)), t)
        n = np.eye(2) + g @ e0
        det = n[:, 0, 0] * n[:, 1, 1] - n[:, 0, 1] * n[:, 1, 0]
        adj = np.stack([n[:, 1, 1], -n[:, 0, 1], -n[:, 1, 0], n[:, 0, 0]], axis=-1)
        x = e0 @ adj.reshape(-1, 2, 2) / det[:, None, None]   # E0 (I + G E0)^-1
        e[lo:lo + _JUMP_RUN] = phi.swapaxes(1, 2) @ x @ phi
    return CovTrajectory(times.copy(), sz_s + e[:, 0, 0],
                         sc_s + 0.5 * (e[:, 0, 1] + e[:, 1, 0]), sb_s + e[:, 1, 1])


def linearized_riccati_curve(p: PlantParams, prior: Priors, times) -> CovTrajectory:
    """The Riccati solution at all requested times at once, exact at each.

    sigma_bF > 0: one jump from the prior measured from the exact steady
    state (``_steady_jump``): only decaying exponentials, from the same
    ``ou_increment`` kernel as the joint covariance, so the repeated
    eigenvalue at gamma J sqrt(sigma_bF / sigma_M) = gamma_b^2 / 2 is no
    special case.

    sigma_bF = 0: Sigma = W U^{-1}, [W; U] = exp(H t) [Sigma0; I] under
    the Hamiltonian H = [[A, Sigma1], [C^T C / sigma_M, -A^T]].  For a
    constant field (gamma_b = 0) H is nilpotent, H^4 = 0 exactly in
    floats, and the jump is the cubic (I + H t + (H t)^2/2 + (H t)^3/6)
    [Sigma0; I], with each H^k [Sigma0; I] formed once for all times.  For
    a decaying field it is D exp(Hb t) D^-1 [Sigma0; I], one mat_expm call
    on the stack of balanced Hb t; it grows like exp(gamma_b t), stays
    within 2.1e-13 of a 200-digit evaluation up to gamma_b t = _JUMP_HORIZON
    and overflows near 700: later t is unsupported.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if p.sigma_bF > 0:
        traj = _steady_jump(p, prior, times)
        _check_psd(traj, "linearized")
        return traj
    far = p.gamma_b * times > _JUMP_HORIZON
    if far.any():
        raise UnsupportedCaseError(f"linearized Riccati: decaying field past gamma_b t = "
                                   f"{_JUMP_HORIZON:g}, first at t = {times[far][0]:.6e}")
    a, _, c, sigma1 = build_system(p)
    h = np.block([[a, sigma1], [c.T @ c / p.sigma_M, -a.T]])
    start = np.array([[prior.sigma_z0, 0.0], [0.0, prior.sigma_b0], [1.0, 0.0], [0.0, 1.0]])
    if np.linalg.matrix_power(h, 4).any():
        hb, e = _balance(h)
        wu = np.ldexp(mat_expm(hb * times[:, None, None]), e[:, None] - e[None, :]) @ start
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
    _check_psd(traj, "linearized")
    return traj
