"""The Bayes-grid route as first written, kept in the tests as the reference
for ``qsme.grid_filter_records``: the truth simulated on its own by
``qsme.simulate_ramp_ensemble``, then each record filtered by its own
grid, one reweight-then-propagate pass per step."""

import math

import numpy as np

from spintrack import qsme


def grid_records_reference(ops, p, b, hypotheses, weights, seed, records, dt, n):
    """(ydts, walks, means, weights) as grid_filter_records returns them."""
    ydts, walks, _ = qsme.simulate_ramp_ensemble(ops, p, b, seed, records, dt, n)
    means = np.empty((records, n + 1))
    finals = np.empty((records, len(hypotheses)))
    for r, record in enumerate(ydts):
        psi = np.tile(qsme.coherent_state_x(ops.J), (len(hypotheses), 1))
        w = np.array(weights, dtype=float)
        means[r, 0] = w @ hypotheses
        for k, ydt in enumerate(record.tolist()):
            jz = qsme._jz_mean(psi, ops.mz)
            w = w * (1.0 + 4.0 * p.M * p.eta * jz * ydt)
            np.maximum(w, 0.0, out=w)
            w /= w.sum()
            dwbar = 2.0 * math.sqrt(p.M) * (ydt - jz * dt)
            psi = qsme._sse_update(psi, jz, hypotheses, dwbar, ops, p, dt)
            means[r, k + 1] = w @ hypotheses
        finals[r] = w
    return ydts, walks, means, finals
