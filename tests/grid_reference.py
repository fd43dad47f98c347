"""The Bayes-grid route as first written, kept in the tests as the reference
for ``qsme.grid_filter_records``: the truth simulated on its own by
``qsme.simulate_ramp_ensemble``, then each record filtered by its own
grid, one propagation per step, and its weights by the sequential
reweight-then-normalize recursion, the reference for
``qsme.bayes_grid_update``."""

import math

import numpy as np

from spintrack import qsme
from sse_reference import jz_mean, sse_step


def posterior_reference(jz, ydt, weights, p):
    """The weights (n + 1, records, H) of bayes_grid_update, one step at a
    time: multiply by 1 + 4 M eta <Jz>_b ydt, clamp at 0, normalize."""
    n, records, hyps = jz.shape
    w = np.empty((n + 1, records, hyps))
    w[0] = weights
    for k in range(n):
        wk = w[k] * (1.0 + 4.0 * p.M * p.eta * jz[k] * ydt[k][:, None])
        np.maximum(wk, 0.0, out=wk)
        w[k + 1] = wk / wk.sum(axis=1)[:, None]
    return w


def grid_records_reference(ops, p, b, hypotheses, weights, seed, records, dt, n):
    """(ydts, walks, means, weights) as grid_filter_records returns them."""
    ydts, walks, _ = qsme.simulate_ramp_ensemble(ops, p, b, seed, records, dt, n)
    means = np.empty((records, n + 1))
    finals = np.empty((records, len(hypotheses)))
    for r, record in enumerate(ydts):
        psi = np.tile(qsme.coherent_state_x(ops.J), (len(hypotheses), 1))
        jzs = np.empty((n, len(hypotheses)))
        for k, ydt in enumerate(record.tolist()):
            jz = jz_mean(psi, ops.mz)
            jzs[k] = jz
            dwbar = 2.0 * math.sqrt(p.M) * (ydt - jz * dt)
            psi = sse_step(psi, hypotheses, dwbar, ops, p, dt)
        w = posterior_reference(jzs[:, None], record[:, None], weights, p)[:, 0]
        means[r] = w @ hypotheses
        finals[r] = w[n]
    return ydts, walks, means, finals
