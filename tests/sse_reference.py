"""The stochastic Schroedinger steps kept in the tests: the Ito-Euler step
the oracle used before the exact-measurement kernel, as the comparator of
the convergence study; the exact step written plainly (unshifted
exponent, a library exponential per row), as the reference for
``qsme.StateStack.step``; and the trajectory loop as first written, as the
reference for ``qsme.simulate_ramp_ensemble`` (records and the averaged
<Delta Jz^2> formed step by step with np.mean)."""

import math

import numpy as np
import scipy.linalg

from spintrack import qsme
from spintrack.numerics import trial_normals


def jz_mean(psi, mz):
    """<Jz> of each state of a (batch, dim) stack."""
    return (psi * psi) @ mz


def kernel_step(psi, fields, ydt, ops, p, dt):
    """One step of qsme's kernel on a copy of the (groups, records, dim)
    stack psi in the fields (groups,) on the increments ydt (records,);
    returns the successor and the squared norms it recorded, its norms
    checked."""
    psi = np.asarray(psi, dtype=np.float64)
    stack = qsme.StateStack(ops, p, dt, fields, psi.shape[1], 1)
    stack.psi[...] = psi
    stack.step(np.asarray(ydt, dtype=np.float64))
    stack.check()
    return stack.psi, stack.norms[0]


def sse_step(psi, h, ydt, ops, p, dt):
    """One kernel step of each row of a (batch, dim) stack on its own: row
    i in the field h (a scalar or one per row) on its increment ydt[i]."""
    h = np.broadcast_to(np.asarray(h, dtype=np.float64), (len(psi),))
    ydt = np.broadcast_to(np.asarray(ydt, dtype=np.float64), (len(psi),))
    return np.array([kernel_step(row[None, None], [hi], [yi], ops, p, dt)[0][0, 0]
                     for row, hi, yi in zip(psi, h, ydt)])


def shifted_kpsi(psi, amp):
    """Row i of psi @ K: amp[i] psi[i+1] - amp[i-1] psi[i-1]."""
    kpsi = np.zeros_like(psi)
    kpsi[:, :-1] = amp * psi[:, 1:]
    kpsi[:, 1:] -= amp * psi[:, :-1]
    return kpsi


def exact_step_reference(psi, h, ydt, ops, p, dt):
    """The exact-measurement step of each row of a (batch, dim) stack with
    no guards: psi_m exp(2 M m ydt - M m^2 dt), its squared norm,
    normalization, then exp(gamma h dt K / 2) by scipy.  Returns the
    successor and the unshifted squared norms."""
    h = np.broadcast_to(np.asarray(h, dtype=np.float64), (len(psi),))
    ydt = np.asarray(ydt, dtype=np.float64)
    out = psi * np.exp(2.0 * p.M * np.multiply.outer(ydt, ops.mz) - p.M * ops.mz ** 2 * dt)
    norm2 = np.sum(out * out, axis=1)
    out /= np.sqrt(norm2)[:, None]
    return (np.array([row @ scipy.linalg.expm(0.5 * p.gamma * hi * dt * ops.K)
                      for row, hi in zip(out, h)]), norm2)


def euler_step(psi, h, ydt, ops, p, dt):
    """One Ito-Euler step of the stochastic Schroedinger equation on the
    record increments ydt, through the innovations 2 sqrt(M) (ydt - <Jz>
    dt), then normalization; no guards.  Returns the successor and the
    Euler likelihood factors 1 + 4 M <Jz> ydt."""
    jz = jz_mean(psi, ops.mz)
    dwbar = 2.0 * math.sqrt(p.M) * (ydt - jz * dt)
    dz = ops.mz - jz[:, None]
    out = psi + psi * dz * (math.sqrt(p.M) * dwbar[:, None] - (0.5 * p.M * dt) * dz)
    out += (0.5 * p.gamma * dt) * np.asarray(h)[..., None] * (psi @ ops.K)
    norm2 = np.einsum("bi,bi->b", out, out)
    return out / np.sqrt(norm2)[:, None], 1.0 + 4.0 * p.M * jz * ydt


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
        jz = jz_mean(psi, ops.mz)
        jz_walks[:, k] = jz
        mean_djz2[k] = np.mean((psi * psi) @ mz2 - jz * jz)
        if k == n:
            break
        ydts[:, k] = jz * dt + sqrt_sm * (draws[:, k] * sqrt_dt)
        psi = kernel_step(psi[None], [b], ydts[:, k], ops, p, dt)[0][0]
    return ydts, jz_walks, mean_djz2
