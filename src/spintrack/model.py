"""Physical parameters and state-space matrices for the magnetometry loop.

The plant is a collective spin of magnitude J polarized along x, precessing
in a y-axis field b(t) while its z-component is monitored continuously.  In
the small-angle regime the truth model is linear:

    dx = A x dt + B u dt + [0, sqrt(sigma_bF)]^T dW1,   x = (z, b)
    y dt = C x dt + sqrt(sigma_M) dW2

with A = [[0, gamma*J], [0, -gamma_b]], B = [gamma*J, 0]^T, C = [1, 0],
measurement sensitivity sigma_M = 1/(4*M*eta), and the field following an
Ornstein-Uhlenbeck process of bandwidth gamma_b and stationary variance
sigma_bF / (2*gamma_b).

The observer assumes spin J' (``design_plant``, ``design_prior``).  With
the Kalman filter and the controller u = -K_C m, (z, b, z~, b~) is one
linear system, whose one generator ``closed_loop_generator`` feeds the
joint covariance, the closed-loop step maps and the record filter.

Units are natural: time in seconds, field and spin dimensionless as in the
reference scenarios.  Quantum efficiency defaults to 1.  Constant-field
scenarios are encoded as gamma_b = 0, sigma_bF = 0 with sigma_b0 > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, UnsupportedCaseError


def _require_finite(who: str, name: str, value: float, positive: bool = False) -> None:
    """Raise unless value is finite and nonnegative (positive if asked);
    the comparisons are written so that NaN fails them."""
    above_low = 0 < value if positive else 0 <= value
    if not (above_low and value < math.inf):
        kind = "positive" if positive else "nonnegative"
        raise ConfigurationError(f"{who}: {name} must be {kind} and finite, got {value}")


@dataclass(frozen=True)
class PlantParams:
    """True plant: spin magnitude, coupling, measurement and field rates.

    J        collective spin (N/2 for N spin-1/2 particles)
    gamma    gyromagnetic ratio, 1/(field s)
    M        measurement rate, 1/s
    eta      detection quantum efficiency in (0, 1]
    gamma_b  field bandwidth, 1/s (0 for constant fields)
    sigma_bF field diffusion strength, field^2/s (0 for constant fields)
    """

    J: float
    gamma: float
    M: float
    eta: float = 1.0
    gamma_b: float = 0.0
    sigma_bF: float = 0.0

    def __post_init__(self):
        for name in ("J", "gamma", "M"):
            _require_finite("PlantParams", name, getattr(self, name), positive=True)
        if not (0.0 < self.eta <= 1.0):
            raise ConfigurationError("PlantParams: eta must lie in (0, 1]")
        for name in ("gamma_b", "sigma_bF"):
            _require_finite("PlantParams", name, getattr(self, name))

    @property
    def sigma_M(self) -> float:
        """Measurement sensitivity 1/(4*M*eta); the shot-noise intensity of y dt."""
        return 1.0 / (4.0 * self.M * self.eta)

    @property
    def sigma_bFree(self) -> float:
        """Stationary field variance sigma_bF / (2*gamma_b) of the OU field."""
        if not self.gamma_b > 0:
            raise UnsupportedCaseError(
                "sigma_bFree: stationary variance undefined for gamma_b = 0 (constant field)")
        return self.sigma_bF / (2.0 * self.gamma_b)

    @property
    def fluctuating(self) -> bool:
        return self.sigma_bF > 0 and self.gamma_b > 0


@dataclass(frozen=True)
class Priors:
    """Initial variances: sigma_z0 for spin (J/2 for a coherent state along x,
    imposed by the quantum state), sigma_b0 for the field (classical)."""

    sigma_z0: float
    sigma_b0: float

    def __post_init__(self):
        _require_finite("Priors", "sigma_z0", self.sigma_z0, positive=True)
        _require_finite("Priors", "sigma_b0", self.sigma_b0)


@dataclass(frozen=True)
class DesignParams:
    """Observer/controller design: assumed spin J_prime and control cost
    ratio lam = sqrt(p/q) (lam = 0 disables control)."""

    J_prime: float
    lam: float = 0.0

    def __post_init__(self):
        _require_finite("DesignParams", "J_prime", self.J_prime, positive=True)
        _require_finite("DesignParams", "lam (lambda)", self.lam)


def design_plant(p: PlantParams, d: DesignParams) -> PlantParams:
    """The plant the observer believes in: true rates with spin J'."""
    return replace(p, J=d.J_prime)


def design_prior(d: DesignParams, prior: Priors) -> Priors:
    """What the observer assumes initially: coherent spin variance J'/2
    plus the scenario's field prior."""
    return Priors(sigma_z0=d.J_prime / 2.0, sigma_b0=prior.sigma_b0)


def build_system(p: PlantParams):
    """State-space matrices (A, B, C, Sigma1) of the linear truth model."""
    gj = p.gamma * p.J
    a = np.array([[0.0, gj], [0.0, -p.gamma_b]])
    b = np.array([gj, 0.0])
    c = np.array([[1.0, 0.0]])
    sigma1 = np.array([[0.0, 0.0], [0.0, p.sigma_bF]])
    return a, b, c, sigma1


def closed_loop_generator(p: PlantParams, d: DesignParams, k1, k2, k_c):
    """Generator stacks (alpha, beta) of the closed loop in (z, b, z~, b~),
    stacked over the shape of the observer gains K_O = (k1, k2), with the
    controller u = -K_C m and primes for the design spin J':

        alpha = [[A, -B K_C], [K_O C, A' - B' K_C - K_O C]]

    beta holds sqrt(sigma_bF) on b and sqrt(sigma_M) K_O on the estimator
    rows.  gamma J' (1 - K_C2) is one product: gamma J' - gamma J' K_C2
    loses digits as K_C2 -> 1.
    """
    a, b, _, _ = build_system(p)
    k1, k2 = np.asarray(k1, dtype=np.float64), np.asarray(k2, dtype=np.float64)
    kc0, kc1 = k_c
    gjp = p.gamma * d.J_prime
    alpha = np.zeros(k1.shape + (4, 4))
    alpha[..., :2, :2] = a
    alpha[..., :2, 2:] = -np.outer(b, k_c)
    alpha[..., 2, 0] = k1
    alpha[..., 3, 0] = k2
    alpha[..., 2, 2] = -(gjp * kc0) - k1
    alpha[..., 2, 3] = gjp * (1.0 - kc1)
    alpha[..., 3, 2] = -k2
    alpha[..., 3, 3] = -p.gamma_b
    beta = np.zeros(k1.shape + (4, 4))
    beta[..., 1, 1] = math.sqrt(p.sigma_bF)
    beta[..., 2, 2] = math.sqrt(p.sigma_M) * k1
    beta[..., 3, 2] = math.sqrt(p.sigma_M) * k2
    return alpha, beta


def fluctuating_plant(J: float, gamma: float, M: float, gamma_b: float,
                      sigma_bfree: float, eta: float = 1.0) -> PlantParams:
    """Plant with an OU field specified by bandwidth and stationary variance."""
    return PlantParams(J=J, gamma=gamma, M=M, eta=eta, gamma_b=gamma_b,
                       sigma_bF=2.0 * gamma_b * sigma_bfree)

