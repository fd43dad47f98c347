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

Units are natural: time in seconds, field and spin dimensionless as in the
reference scenarios.  Quantum efficiency defaults to 1.  Constant-field
scenarios are encoded as gamma_b = 0, sigma_bF = 0 with sigma_b0 > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UnsupportedCaseError


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
        if not (self.J > 0 and self.gamma > 0 and self.M > 0):
            raise ConfigurationError("PlantParams: J, gamma, M must be positive")
        if not (0.0 < self.eta <= 1.0):
            raise ConfigurationError("PlantParams: eta must lie in (0, 1]")
        if self.gamma_b < 0 or self.sigma_bF < 0:
            raise ConfigurationError("PlantParams: gamma_b and sigma_bF must be nonnegative")

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
        if not self.sigma_z0 > 0:
            raise ConfigurationError("Priors: sigma_z0 must be positive (J/2 for a coherent state)")
        if self.sigma_b0 < 0:
            raise ConfigurationError("Priors: sigma_b0 must be nonnegative")


@dataclass(frozen=True)
class DesignParams:
    """Observer/controller design: assumed spin J_prime and control cost
    ratio lam = sqrt(p/q) (lam = 0 disables control)."""

    J_prime: float
    lam: float = 0.0

    def __post_init__(self):
        if not self.J_prime > 0:
            raise ConfigurationError("DesignParams: J_prime must be positive")
        if self.lam < 0:
            raise ConfigurationError("DesignParams: lam must be nonnegative")


def build_system(p: PlantParams):
    """State-space matrices (A, B, C, Sigma1) of the linear truth model."""
    gj = p.gamma * p.J
    a = np.array([[0.0, gj], [0.0, -p.gamma_b]])
    b = np.array([gj, 0.0])
    c = np.array([[1.0, 0.0]])
    sigma1 = np.array([[0.0, 0.0], [0.0, p.sigma_bF]])
    return a, b, c, sigma1


def fluctuating_plant(J: float, gamma: float, M: float, gamma_b: float,
                      sigma_bfree: float, eta: float = 1.0) -> PlantParams:
    """Plant with an OU field specified by bandwidth and stationary variance."""
    return PlantParams(J=J, gamma=gamma, M=M, eta=eta, gamma_b=gamma_b,
                       sigma_bF=2.0 * gamma_b * sigma_bfree)

