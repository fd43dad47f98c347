"""Two independent references for the OU covariance increment that the
stacked Pade step of ``numerics.ou_increment`` is checked against:
Gauss-Legendre quadrature in floats, and the Van Loan block exponential in
50-digit arithmetic."""

import math

import mpmath
import numpy as np
import scipy.linalg

# 5-point Gauss-Legendre nodes/weights on [0, 1]
_GL_NODES = np.array([0.04691007703066800, 0.23076534494715845, 0.5,
                      0.76923465505284155, 0.95308992296933200])
_GL_WEIGHTS = np.array([0.11846344252809454, 0.23931433524968324, 0.28444444444444444,
                        0.23931433524968324, 0.11846344252809454])


def ou_increment_gl(alpha, q, dt):
    """(Phi, G) of ``ou_increment``: G is the quadrature of
    exp(alpha s) q exp(alpha^T s) on a sub-step with ||alpha h||_1 <= 0.25
    (machine accurate there), assembled by the same interval doubling."""
    alpha = np.asarray(alpha, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n = alpha.shape[0]
    if dt == 0.0:
        return np.eye(n), np.zeros((n, n))
    norm = np.linalg.norm(alpha, 1) * dt
    s = max(0, int(math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0)
    h = dt / (2.0 ** s)
    g = np.zeros((n, n))
    for node, w in zip(_GL_NODES, _GL_WEIGHTS):
        e = scipy.linalg.expm(alpha * (node * h))
        g += (w * h) * (e @ q @ e.T)
    phi = scipy.linalg.expm(alpha * h)
    for _ in range(s):
        g = g + phi @ g @ phi.T
        phi = phi @ phi
    return phi, 0.5 * (g + g.T)


def ou_increment_50_digits(alpha, q, dt):
    """(Phi, G) of ``ou_increment`` in 50-digit arithmetic: mpmath's block
    exponential on a sub-step with ||alpha h||_1 <= 0.25, so that the
    growing block exp(-alpha h) cancels no digits, then interval doubling."""
    with mpmath.workdps(50):
        a, qm = mpmath.matrix(np.asarray(alpha).tolist()), mpmath.matrix(np.asarray(q).tolist())
        n, h, s = a.rows, mpmath.mpf(dt), 0
        while mpmath.mnorm(a, 1) * h > 0.25:
            h, s = h / 2, s + 1
        block = mpmath.zeros(2 * n, 2 * n)
        for i in range(n):
            for j in range(n):
                block[i, j], block[i, n + j], block[n + i, n + j] = -a[i, j] * h, qm[i, j] * h, a[j, i] * h
        f = mpmath.expm(block)
        phi = f[n:, n:].T
        g = phi * f[:n, n:]
        for _ in range(s):
            g, phi = g + phi * g * phi.T, phi * phi
        return np.array(phi.tolist(), dtype=np.float64), np.array(g.tolist(), dtype=np.float64)
