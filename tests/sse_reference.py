"""The stochastic Schroedinger step and the trajectory loop as first
written, kept in the tests as the references for ``qsme._sse_update``
(the field term as two shifted products of the ladder amplitudes, the
measurement term as one expression) and for ``qsme.simulate_ramp_ensemble``
(records and the averaged <Delta Jz^2> formed step by step with np.mean)."""

import math

import numpy as np

from spintrack import qsme
from spintrack.numerics import trial_normals


def shifted_kpsi(psi, amp):
    """Row i of the field term: amp[i] psi[i+1] - amp[i-1] psi[i-1]."""
    kpsi = np.zeros_like(psi)
    kpsi[:, :-1] = amp * psi[:, 1:]
    kpsi[:, 1:] -= amp * psi[:, :-1]
    return kpsi


def sse_update_reference(psi, jz, h, dwbar, ops, p, dt):
    """One Ito-Euler step of the stochastic Schroedinger equation, then
    normalization; no guards."""
    dz = ops.mz - jz[:, None]
    out = psi + psi * dz * (math.sqrt(p.M) * np.asarray(dwbar)[..., None] - (0.5 * p.M * dt) * dz)
    h = np.asarray(h)[..., None]
    if h.any():
        out += (0.5 * p.gamma * dt) * h * shifted_kpsi(psi, ops.amp)
    norm2 = np.einsum("bi,bi->b", out, out)
    return out / np.sqrt(norm2)[:, None]


def ramp_ensemble_reference(ops, p, b, seed, trajectories, dt, n):
    """simulate_ramp_ensemble's loop with one record column and one np.mean
    per step, stepping with the module's kernel."""
    psi = np.tile(qsme.coherent_state_x(ops.J), (trajectories, 1))
    draws = trial_normals(seed, np.arange(trajectories), n)
    sqrt_dt = math.sqrt(dt)
    sqrt_sm = math.sqrt(p.sigma_M)
    mz2 = ops.mz * ops.mz
    ydts = np.empty((trajectories, n))
    jz_walks = np.empty((trajectories, n + 1))
    mean_djz2 = np.empty(n + 1)
    for k in range(n + 1):
        jz = qsme._jz_mean(psi, ops.mz)
        jz_walks[:, k] = jz
        mean_djz2[k] = np.mean((psi * psi) @ mz2 - jz * jz)
        if k == n:
            break
        dwbar = draws[:, k] * sqrt_dt
        ydts[:, k] = jz * dt + sqrt_sm * dwbar
        psi = qsme._sse_update(psi, jz, b, dwbar, ops, p, dt)
    return ydts, jz_walks, mean_djz2
