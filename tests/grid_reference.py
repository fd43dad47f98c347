"""The Bayes-grid route as first written, kept in the tests as the reference
for ``qsme.grid_filter_records``: each record's truth simulated on its own
from its documented stream, then filtered by its own grid, one kernel step
per time, and its weights by the sequential reweight-then-normalize
recursion, the reference for ``qsme.bayes_grid_update``."""

import numpy as np

from spintrack import qsme
from sse_reference import jz_mean, kernel_step, record_noise


def posterior_reference(norms, weights):
    """The weights (n + 1, records, H) of bayes_grid_update, one step at a
    time: multiply by the step's squared norms, normalize."""
    n, records, hyps = norms.shape
    w = np.empty((n + 1, records, hyps))
    w[0] = weights
    for k in range(n):
        wk = w[k] * norms[k]
        w[k + 1] = wk / wk.sum(axis=1)[:, None]
    return w


def grid_records_reference(ops, p, b, hypotheses, weights, seed, records, dt, n, F):
    """(ydts, walks, means, weights) as grid_filter_records returns them,
    on the record noise of sse_reference.record_noise."""
    ydts = np.empty((records, n))
    walks = np.empty((records, n + 1))
    means = np.empty((records, n + 1))
    finals = np.empty((records, len(hypotheses)))
    noise = record_noise(p, seed, records, dt, n, F)
    for r in range(records):
        truth = qsme.coherent_state_x(ops.J)[None, None]
        hyps = np.tile(qsme.coherent_state_x(ops.J), (len(hypotheses), 1, 1))
        norms = np.empty((n, 1, len(hypotheses)))
        for k in range(n):
            walks[r, k] = jz_mean(truth[0], ops.mz)[0]
            ydts[r, k] = walks[r, k] * dt + noise[r, k]
            truth = kernel_step(truth, [b], ydts[r, k:k + 1], ops, p, dt)[0]
            hyps, norm2 = kernel_step(hyps, hypotheses, ydts[r, k:k + 1], ops, p, dt)
            norms[k, 0] = norm2[:, 0]
        walks[r, n] = jz_mean(truth[0], ops.mz)[0]
        w = posterior_reference(norms, weights)[:, 0]
        means[r] = w @ hypotheses
        finals[r] = w[n]
    return ydts, walks, means, finals
