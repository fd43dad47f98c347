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


def joint_generator(p, d, gains, k_c):
    """t -> (alpha, beta) of the joint flow: one-row ``build_alpha_beta``
    calls on the observer gains (K_O1, K_O2) = gains(t)."""
    def at(t):
        k1, k2 = gains(t)
        alpha, beta = tc.build_alpha_beta(p, d, [k1], [k2], k_c)
        return alpha[0], beta[0]
    return at


def integrate_theta_rk4(generator, theta0, times) -> tc.ThetaTrajectory:
    """integrate_theta with RK4 on the matrix flow of the continuous-time
    generator t -> (alpha, beta) in place of the integrating-factor step
    on frozen intervals: same coordinates, same outputs."""
    def rhs(t, th_flat):
        th = th_flat.reshape(4, 4)
        a, beta = generator(t)
        return (a @ th + th @ a.T + beta @ beta.T).reshape(-1)

    theta0 = np.asarray(theta0, dtype=np.float64)
    out = rk4_nonuniform(rhs, theta0.reshape(-1), times).reshape(len(times), 4, 4)
    traj = tc.ThetaTrajectory(np.asarray(times, dtype=np.float64), out)
    tc._check_theta_psd(traj)
    return traj
