"""Closed-loop transfer functions, characteristic frequencies, loop shaping.

Once the observer and controller gains have saturated, the filter mapping
the record y to the estimate m is linear time-invariant:

    m(s) = (s I - A' + B' K_C + K_O C)^{-1} K_O y(s) = (G_z(s), G_b(s)) y(s)
    u(s) = -K_C m(s) = G_u(s) y(s)

G_u has the shelf-plus-rolloff shape G_uDC (1 + s/w_H) / (1 + (1 + s/w_Q) s/w_L)
with, in the regime lam^2 >> sqrt(sqrt(sigma_bF/sigma_M) / (2 gamma J')) and
gamma J' >> gamma_b^2 sqrt(sigma_M/sigma_bF),

    w_L -> gamma_b                      w_H -> sqrt((gamma J'/2) r)
    w_C -> sqrt(2 gamma J' r) = 2 w_H   w_Q -> lam gamma J'
    G_uDC -> -r / gamma_b               G_uAC -> -sqrt(2 r / (gamma J'))

where r = sqrt(sigma_bF / sigma_M).  The loop closes where
|P(jw) G_u(jw)| = 1 against the integrator plant P(s) = gamma J / s.

The robust designer inverts this structure: given spin bounds
[J_min, J_max], a hardware roll-off w_Q, and a performance band edge w_1,
the achievable suppression obeys the trade-off

    W10 * w_1 = w_Q * J_min / J_max                    (exact, by construction)

and the controller

    C(s) = |C|_C * 1/(1 + s/w_Q) * (w_H/w_L) (1 + s/w_H)/(1 + s/w_L),
    |C|_C = w_Q / (gamma J_max),   w_H = w_1 W10,   w_L below w_H (default w_H/100)

is checked against the criterion ||W1 S||_inf < 1 for every plant in the
family, W1(s) = W10 / (1 + s/w_1), S = 1/(1 + P C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import ConfigurationError, InstabilityError, UnsupportedCaseError
from .model import DesignParams, PlantParams, closed_loop_generator
from .numerics import _square
from .riccati import steady_state_gains


@dataclass
class RationalTF:
    """Ratio of real polynomials in s, coefficients in ascending degree."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        self.num = np.atleast_1d(np.asarray(self.num, dtype=np.float64))
        self.den = np.atleast_1d(np.asarray(self.den, dtype=np.float64))
        self.num = _trim(self.num)
        self.den = _trim(self.den)
        if len(self.den) == 0 or self.den[-1] == 0.0:
            raise ConfigurationError("RationalTF: denominator leading coefficient must be nonzero")

    def __call__(self, s):
        s = np.asarray(s, dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            return npoly.polyval(s, self.num) / npoly.polyval(s, self.den)


def _trim(c: np.ndarray) -> np.ndarray:
    # drop exact-zero leading coefficients only; with loop frequencies
    # spanning many decades a coefficient far below its neighbors can
    # still dominate at high |s|
    keep = len(c)
    while keep > 1 and c[keep - 1] == 0.0:
        keep -= 1
    return c[:keep].copy()


@dataclass(frozen=True)
class CharFreqs:
    """Characteristic frequencies and gains of the saturated loop."""

    omega_L: float
    omega_H: float
    omega_C: float
    omega_Q: float
    G_uDC: float
    G_uAC: float


def closed_loop_tfs(p: PlantParams, d: DesignParams):
    """(G_z, G_b, G_u) of the saturated filter/controller, exact rationals.

    With a = A' - B' K_C - K_O C, the estimator block of
    ``model.closed_loop_generator``, (G_z, G_b) = adj(s I - a) K_O /
    det(s I - a) and G_u = -K_C (G_z, G_b); needs a fluctuating field so
    the stationary gains exist.  A coefficient that overflows (lambda
    gamma J' past the float range) is a ConfigurationError naming lambda.
    """
    g = steady_state_gains(p, d)
    k1, k2 = g.K_O
    with np.errstate(over="ignore", invalid="ignore"):
        a = closed_loop_generator(p, d, k1, k2, g.K_C)[0][2:, 2:]
        den = np.array([a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0], -(a[0, 0] + a[1, 1]), 1.0])
        num_z = np.array([a[0, 1] * k2 - a[1, 1] * k1, k1])
        num_b = np.array([a[1, 0] * k1 - a[0, 0] * k2, k2])
        num_u = -(g.K_C[0] * num_z + g.K_C[1] * num_b)
    if not all(np.isfinite(c).all() for c in (den, num_z, num_b, num_u)):
        raise ConfigurationError(f"closed_loop_tfs: scenario key 'lambda' = {d.lam:.3g} gives "
                                 f"a loop coefficient that is not finite "
                                 f"(gamma J' = {p.gamma * d.J_prime:.3g})")
    return RationalTF(num_z, den), RationalTF(num_b, den), RationalTF(num_u, den)


def bode(tf: RationalTF, omega_grid) -> tuple[np.ndarray, np.ndarray]:
    """(magnitude dB, unwrapped phase deg) of tf(j omega) on a positive
    sorted grid.

    The closed-loop G_z, G_b and G_u have the denominator s^2 + b1 s + b0
    with b1 >= k1 > 0 and b0 >= 0, so no pole lies on omega > 0; a sample
    on a pole of another tf is whatever the division gives.
    """
    omega = np.asarray(omega_grid, dtype=np.float64)
    if np.any(omega <= 0) or np.any(np.diff(omega) <= 0):
        raise ConfigurationError("bode: omega grid must be positive and strictly increasing")
    h = tf(1j * omega)
    with np.errstate(divide="ignore"):
        mag = 20.0 * np.log10(np.abs(h))
    return mag, np.degrees(np.unwrap(np.angle(h)))


def approximation_margins(p: PlantParams, d: DesignParams) -> dict:
    """How strongly the two simplifying inequalities hold (as ratios)."""
    r = math.sqrt(p.sigma_bF / p.sigma_M)
    gj = p.gamma * d.J_prime
    lam_margin = d.lam ** 2 / math.sqrt(r / (2.0 * gj)) if d.lam > 0 else 0.0
    gj_margin = (gj / (_square(p.gamma_b, "gamma_b") * math.sqrt(p.sigma_M / p.sigma_bF))
                 if p.gamma_b > 0 else math.inf)
    return {"lambda_margin": lam_margin, "gammaJ_margin": gj_margin}


def char_freqs(p: PlantParams, d: DesignParams) -> CharFreqs:
    """Limit expressions for the loop frequencies; requires both
    approximation margins to be at least 100.

    omega_C is the first-order value 2 w_H; ``closure_frequency`` finds
    the closing frequency independently by bisection on |P G_u| = 1.
    """
    if not p.sigma_bF > 0:
        raise UnsupportedCaseError("char_freqs: needs a fluctuating field")
    m = approximation_margins(p, d)
    if m["lambda_margin"] < 100.0:
        raise UnsupportedCaseError(
            f"char_freqs: lam^2 / sqrt(r / (2 gamma J')) = {m['lambda_margin']:.3g} < 100")
    if m["gammaJ_margin"] < 100.0:
        raise UnsupportedCaseError(
            f"char_freqs: gamma J' / (gamma_b^2 sqrt(sigma_M/sigma_bF)) = {m['gammaJ_margin']:.3g} < 100")
    r = math.sqrt(p.sigma_bF / p.sigma_M)
    gj = p.gamma * d.J_prime
    omega_h = math.sqrt(0.5 * gj * r)
    freqs = CharFreqs(
        omega_L=p.gamma_b,
        omega_H=omega_h,
        omega_C=2.0 * omega_h,
        omega_Q=d.lam * gj,
        G_uDC=-r / p.gamma_b if p.gamma_b > 0 else -math.inf,
        G_uAC=-math.sqrt(2.0 * r / gj),
    )
    if not (freqs.omega_L < freqs.omega_H < freqs.omega_Q):
        raise UnsupportedCaseError(
            "char_freqs: frequency ordering w_L < w_H < w_Q violated "
            f"({freqs.omega_L:.3g}, {freqs.omega_H:.3g}, {freqs.omega_Q:.3g})")
    return freqs


def closure_frequency(gu: RationalTF, gammaJ: float, hint: float) -> float:
    """Frequency where |P(jw) G_u(jw)| = 1 with P = gamma J / s, by bisection."""

    def loop_mag(w):
        return abs(gammaJ / (1j * w) * gu(1j * w))

    lo, hi = hint * 1e-2, hint * 1e2
    for _ in range(8):
        if loop_mag(lo) > 1.0:
            break
        lo *= 1e-2
    for _ in range(8):
        if loop_mag(hi) < 1.0:
            break
        hi *= 1e2
    if not (loop_mag(lo) > 1.0 > loop_mag(hi)):
        raise UnsupportedCaseError("closure_frequency: could not bracket |P G_u| = 1")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if loop_mag(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-12:
            break
    return math.sqrt(lo * hi)


# ---------------------------------------------------------------------------
# robust loop shaping
# ---------------------------------------------------------------------------

def performance_weight(w10: float, omega_1: float) -> RationalTF:
    """W1(s) = W10 / (1 + s/w_1): suppression 1/W10 demanded below w_1."""
    return RationalTF([w10], [1.0, 1.0 / omega_1])


def design_robust_controller(J_min: float, J_max: float, omega_Q: float,
                             omega_1: float, gamma: float,
                             omega_L: float | None = None):
    """Shape a fixed controller for the integrator family gamma J / s,
    J in [J_min, J_max].

    Returns (C, W10).  W10 is pinned by the trade-off
    W10 * w_1 = w_Q * J_min / J_max, the flat gain by |C|_C = w_Q/(gamma J_max),
    and the gain shelf starts at w_H = w_1 W10 (the lowest closing
    frequency of the family).  w_L defaults to w_H / 100.
    """
    if not (0 < J_min <= J_max):
        raise ConfigurationError("design_robust_controller: need 0 < J_min <= J_max")
    if omega_Q <= 0 or omega_1 <= 0 or gamma <= 0:
        raise ConfigurationError("design_robust_controller: frequencies and gamma must be positive")
    w10 = omega_Q * J_min / (J_max * omega_1)
    omega_h = omega_1 * w10
    if omega_L is None:
        omega_L = omega_h / 100.0
    if not (omega_L < omega_h):
        raise ConfigurationError(
            f"design_robust_controller: infeasible ordering, need w_L ({omega_L:.3g}) < w_H ({omega_h:.3g})")
    if not (omega_h <= omega_Q):
        raise ConfigurationError(
            f"design_robust_controller: infeasible ordering, need w_H ({omega_h:.3g}) <= w_Q ({omega_Q:.3g})")
    gain = omega_Q / (gamma * J_max)
    # gain * 1/(1+s/wQ) * (wH/wL) * (1+s/wH)/(1+s/wL)
    num = np.array([1.0, 1.0 / omega_h]) * (gain * omega_h / omega_L)
    den = npoly.polymul([1.0, 1.0 / omega_Q], [1.0, 1.0 / omega_L])
    return RationalTF(num, den), w10


def nyquist_stable(loop_vals: np.ndarray) -> bool:
    """Grid winding check of 1 + L(jw) for an integrator-type loop.

    For open loops with no right-half-plane poles (one pole at the origin,
    handled by the indentation), closed-loop stability is equivalent to
    the unwrapped phase of 1 + L moving from -pi/2 to 0, a net change of
    +pi/2; any extra full or half turn marks an encirclement.  The grid
    must extend well below and above crossover (the documented density is
    at least 400 log-spaced points across the loop's active decades).
    """
    if np.max(np.abs(loop_vals)) < 1.0:
        return True  # a loop that never reaches unit magnitude cannot encircle -1
    arg = np.unwrap(np.angle(1.0 + loop_vals))
    delta = arg[-1] - arg[0]
    return 0.0 < delta < math.pi


def sensitivity_norm(c: RationalTF, J: float, gamma: float, w1: RationalTF,
                     omega_grid) -> float:
    """max over the grid of |W1(jw) S(jw)|, with local refinement.

    The grid must be positive, sorted, and have at least 400 points
    (log-spaced across the loop's active decades); the closed loop is
    first checked stable by the Nyquist winding on the same grid.
    """
    omega = np.asarray(omega_grid, dtype=np.float64)
    if len(omega) < 400:
        raise ConfigurationError("sensitivity_norm: grid too coarse; supply >= 400 log-spaced points")
    if np.any(omega <= 0) or np.any(np.diff(omega) <= 0):
        raise ConfigurationError("sensitivity_norm: grid must be positive and increasing")
    s = 1j * omega
    if not nyquist_stable(gamma * J / s * c(s)):
        raise InstabilityError(f"sensitivity_norm: closed loop unstable for J = {J:.4g}")

    def ws_mag(w):
        # |W1 S| at frequencies w, in one operation order for the grid and the refinement
        sv = 1j * w
        return abs(w1(sv) * (1.0 / (1.0 + gamma * J / sv * c(sv))))

    mags = ws_mag(omega)
    i = int(np.argmax(mags))
    lo = omega[max(i - 1, 0)]
    hi = omega[min(i + 1, len(omega) - 1)]
    # golden-section refinement on log frequency
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    x1 = b - gr * (b - a)
    x2 = a + gr * (b - a)
    f1, f2 = ws_mag(math.exp(x1)), ws_mag(math.exp(x2))
    while (b - a) > 1e-3:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + gr * (b - a)
            f2 = ws_mag(math.exp(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - gr * (b - a)
            f1 = ws_mag(math.exp(x1))
    return max(float(np.max(mags)), f1, f2)
