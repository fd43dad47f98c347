"""Classical RK4, kept in the tests as the independent reference that the
integrating-factor route of ``total_covariance.integrate_theta`` and the
exact ``numerics.ou_increment`` are checked against, and that the unrolled
float loop behind ``riccati.riccati_at_times`` must equal bit for bit."""

import numpy as np

from spintrack import total_covariance as tc
from spintrack.errors import DivergenceError


def _rk4_step(f, t, x, h):
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_nonuniform(f, x0, times):
    """RK4 over an explicit increasing time grid; returns states on it."""
    times = np.asarray(times, dtype=np.float64)
    x = np.array(x0, dtype=np.float64, copy=True)
    out = np.empty((len(times),) + x.shape)
    out[0] = x
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        x = _rk4_step(f, times[k], x, h)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"rk4_nonuniform: non-finite state at t = {times[k + 1]:.6e}")
        out[k + 1] = x
    return out


def integrate_theta_rk4(alpha, beta, theta0, times) -> tc.ThetaTrajectory:
    """integrate_theta with RK4 on the matrix flow in place of the
    integrating-factor step: same error coordinates, same outputs."""
    s, s_inv = tc._S_ERR, tc._S_ERR_INV

    def rhs(t, th_flat):
        th = th_flat.reshape(4, 4)
        a = s @ alpha(t) @ s_inv
        bb = s @ beta(t)
        return (a @ th + th @ a.T + bb @ bb.T).reshape(-1)

    theta_w = s @ np.asarray(theta0, dtype=np.float64) @ s.T
    out = rk4_nonuniform(rhs, theta_w.reshape(-1), times).reshape(len(times), 4, 4)
    raw = np.einsum("ij,njk,lk->nil", s_inv, out, s_inv)
    traj = tc.ThetaTrajectory(np.asarray(times, dtype=np.float64), raw,
                              sigma_bE=out[:, 3, 3].copy(), sigma_zE=out[:, 2, 2].copy())
    tc._check_theta_psd(traj)
    return traj
