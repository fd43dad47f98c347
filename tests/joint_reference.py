"""The joint truth-plus-estimator flow in the raw labeling (z, b, z~, b~)
and its conjugation into (z, b, z~-z, b~-b), kept in the tests as the
reference that ``total_covariance.build_alpha_beta`` must equal bit for
bit; and the per-interval recursion that ``integrate_theta``'s prefix
scan is checked against."""

import math

import numpy as np

from spintrack.model import build_system, design_plant
from spintrack.numerics import ou_increment

# S maps (z, b, z~, b~) to (z, b, z~-z, b~-b)
S_ERR = np.array([[1.0, 0.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0],
                  [-1.0, 0.0, 1.0, 0.0],
                  [0.0, -1.0, 0.0, 1.0]])
S_ERR_INV = np.array([[1.0, 0.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0, 0.0],
                      [1.0, 0.0, 1.0, 0.0],
                      [0.0, 1.0, 0.0, 1.0]])


def raw_alpha_beta(p, d, k1, k2, k_c):
    """(alpha, beta) stacks of the raw flow: alpha = [[A, -B K_C],
    [K_O C, A' - B' K_C - K_O C]], beta with sqrt(sigma_bF) on b and
    sqrt(sigma_M) K_O on the estimator rows.  The estimator's
    gamma J' (1 - K_C2) is one product, as the package writes it: the
    difference gamma J' - gamma J' K_C2 loses digits as K_C2 -> 1."""
    a_true, b_true, _, _ = build_system(p)
    a_des, b_des = build_system(design_plant(p, d))[:2]
    k1 = np.asarray(k1, dtype=np.float64)
    k2 = np.asarray(k2, dtype=np.float64)
    k_c = np.asarray(k_c, dtype=np.float64)
    alpha = np.zeros((len(k1), 4, 4))
    alpha[:, :2, :2] = a_true
    alpha[:, :2, 2:] = -np.outer(b_true, k_c)
    alpha[:, 2:, 2:] = a_des - np.outer(b_des, k_c)
    alpha[:, 2, 3] = a_des[0, 1] * (1.0 - k_c[1])
    alpha[:, 2, 0] = k1
    alpha[:, 3, 0] = k2
    alpha[:, 2, 2] -= k1
    alpha[:, 3, 2] -= k2
    beta = np.zeros((len(k1), 4, 4))
    beta[:, 1, 1] = math.sqrt(p.sigma_bF)
    beta[:, 2, 2] = math.sqrt(p.sigma_M) * k1
    beta[:, 3, 2] = math.sqrt(p.sigma_M) * k2
    return alpha, beta


def error_generator(alpha, beta):
    """(S alpha S^-1, (S beta)(S beta)^T) of raw stacks."""
    bb = S_ERR @ beta
    return S_ERR @ alpha @ S_ERR_INV, bb @ bb.swapaxes(-1, -2)


def to_error(theta_raw):
    """A raw-labeled covariance in (z, b, z~-z, b~-b): S Theta S^T."""
    return S_ERR @ np.asarray(theta_raw, dtype=np.float64) @ S_ERR.T


def integrate_theta_sequential(alpha, beta, theta0, times):
    """Theta on the grid by the loop Theta <- Phi_k Theta Phi_k^T + G_k over
    the intervals, symmetrised at every step, with the (Phi_k, G_k) of one
    stacked ``ou_increment`` call."""
    phi, g = ou_increment(alpha, beta @ beta.swapaxes(-1, -2), np.diff(times))
    out = [np.asarray(theta0, dtype=np.float64)]
    for phi_k, g_k in zip(phi, g):
        theta = phi_k @ out[-1] @ phi_k.T + g_k
        out.append(0.5 * (theta + theta.T))
    return np.array(out)
