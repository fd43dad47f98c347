"""Stochastic truth-model simulation: OU field, spin precession, noisy record.

The plant is deliberately minimal.  Driven by the total field
h(t) = b(t) + u(t), the spin z-component ramps as dz = gamma J h dt while
the photocurrent record accumulates

    y(t) dt = z(t) dt + sqrt(sigma_M) dW2(t),

and the field follows db = -gamma_b b dt + sqrt(sigma_bF) dW1.  Initial
conditions are drawn from the priors: z(0) ~ N(0, sigma_z0) (the quantum
coherent-state variance), b(0) ~ N(0, sigma_b0).  The model holds for
t << 1/M, before measurement-induced damping of the spin length matters;
``step_count``, which every truth run calls, warns past 1/M.  Every truth
run steps z by Euler and the field by the exact OU step of ``field_step``.

``simulate_open_loop`` is the one open-loop (u = 0) simulator: field path,
spin ramp and record from one stream.  Closed-loop runs step the same
plant inside ``lqg_filter``, together with the controller and the filter,
and return their truth in a ``Trajectory`` too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigurationError
from .model import PlantParams, Priors
from .numerics import RngStream


@dataclass
class Trajectory:
    """Sampled truth run on the uniform grid t[k] = k dt.

    All arrays share length n+1.  ydt[k] is the measurement increment
    accumulated over [t[k], t[k+1]) and pairs with z[k] (start of
    interval); u[k] is the control held over the same interval.  The
    trailing entries ydt[n] and u[n] are padding (0 and the last held
    value) so the arrays stay aligned.
    """

    t: np.ndarray
    z: np.ndarray
    b: np.ndarray
    u: np.ndarray
    ydt: np.ndarray
    dt: float

    @property
    def n_steps(self) -> int:
        return len(self.t) - 1


def step_count(who: str, p: PlantParams, dt: float, T: float) -> int:
    """Steps n = round(T / dt) of truth run ``who``, at least one; checks dt,
    T and that the run's longest array, its 2 + 2n normals, fits numpy's
    largest index, and warns past 1/M."""
    if not (dt > 0 and T / dt > 0.5):
        raise ConfigurationError(f"{who}: dt and T must be positive, with T of at least one "
                                 f"step; got dt = {dt}, T = {T}")
    if not 2.0 + 2.0 * (T / dt) <= np.iinfo(np.intp).max:
        raise ConfigurationError(f"{who}: T / dt = {T / dt:.3g} steps need more normals than "
                                 f"numpy's largest index {np.iinfo(np.intp).max}; "
                                 f"got dt = {dt}, T = {T}")
    if T > 1.0 / p.M:
        warnings.warn(f"{who}: T exceeds 1/M; the small-time model is not valid there",
                      stacklevel=3)
    return int(round(T / dt))


def field_step(p: PlantParams, dt: float) -> tuple[float, float]:
    """(decay, amp) of the exact OU step b <- decay b + amp xi, xi ~ N(0, 1):
    decay = exp(-gamma_b dt), amp^2 = sigma_bF (1 - decay^2) / (2 gamma_b),
    and (1, sqrt(sigma_bF dt)) at gamma_b = 0."""
    if p.gamma_b == 0.0:
        return 1.0, math.sqrt(p.sigma_bF * dt)
    return (math.exp(-p.gamma_b * dt),
            math.sqrt(p.sigma_bF * -math.expm1(-2.0 * p.gamma_b * dt) / (2.0 * p.gamma_b)))


def simulate_open_loop(p: PlantParams, prior: Priors, rng: RngStream, dt: float, T: float) -> Trajectory:
    """Open-loop truth run (u = 0): field path, spin ramp and measurement
    record on the grid t[k] = k dt, k = 0 .. round(T / dt).

    Draw layout from position 0 of ``rng``: b(0), then one field increment
    per step, then z(0), then one measurement increment per step.
    """
    n = step_count("simulate_open_loop", p, dt, T)
    decay, amp = field_step(p, dt)
    draws = rng.normals_at(0, 2 + 2 * n)
    x, w = draws[:1 + n], draws[1 + n:]
    x[0] *= math.sqrt(prior.sigma_b0)
    x[1:] *= amp
    # b[k+1] = decay b[k] + x[k+1] on Python floats: the bits of an
    # elementwise loop at a fraction of its cost
    b = np.array(list(accumulate(x.tolist(), lambda bk, xk: decay * bk + xk)))
    # add.accumulate sums in order: z[k+1] = z[k] + gamma J b[k] dt
    z = np.cumsum(np.concatenate(([math.sqrt(prior.sigma_z0) * w[0]], p.gamma * p.J * b[:n] * dt)))
    ydt = np.zeros(n + 1)
    ydt[:n] = z[:n] * dt + math.sqrt(p.sigma_M) * (w[1:] * math.sqrt(dt))
    return Trajectory(t=np.arange(n + 1) * dt, z=z, b=b, u=np.zeros(n + 1), ydt=ydt, dt=dt)
