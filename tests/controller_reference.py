"""The controller gain by reverse-time integration of the cost Riccati,
kept in the tests as the independent route that the closed form
``riccati.controller_gain`` is checked against."""

import math

import numpy as np

from spintrack import riccati as ric
from spintrack.errors import ConfigurationError


def controller_riccati_steady(p, d):
    """Controller gain from reverse-time integration of the cost Riccati.

    Integrates dV/dT = P + A'^T V + V A' - V B' B'^T V / q (P = diag(lam^2, 0),
    q = 1) until stationary and returns K_C = B'^T V.
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

    v1, vc, _ = ric._rk4_triple(rhs, (0.0, 0.0, 0.0), np.arange(steps + 1) * h)[-1]
    return np.array([a * v1, a * vc])
