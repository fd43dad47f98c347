import math

import numpy as np
import pytest

from spintrack.model import PlantParams, Priors, fluctuating_plant
from spintrack.numerics import RngStream, trial_normals, trial_stream
from spintrack.truth_sim import field_step, simulate_open_loop


class _FirstDraw:
    """Stand-in stream whose draw at position 0 (b(0) in the open-loop
    layout) is prescribed and whose other draws are zero (noise-free runs)."""

    def __init__(self, first):
        self.first = first

    def normals_at(self, start, n):
        out = np.zeros(n)
        if start == 0:
            out[:1] = self.first
        return out


def _field(p, prior, rng, dt, T):
    """The field path b(0..T) of an open-loop run."""
    return simulate_open_loop(p, prior, rng, dt, T).b


def _final_fields(p, prior, seed, trials, dt, T):
    """b(T) of open-loop runs on trial streams 0 .. trials-1 of ``seed``."""
    return np.array([_field(p, prior, trial_stream(seed, k), dt, T)[-1]
                     for k in range(trials)])


class TestSimulateField:
    """The field part of the open-loop run."""

    def test_frozen_field(self):
        p = PlantParams(J=1.0, gamma=1.0, M=1.0)
        b = _field(p, Priors(1.0, 4.0), RngStream(1), 1e-3, 0.1)
        assert np.all(b == b[0])
        assert b[0] != 0.0

    def test_stationary_variance(self):
        # OU at stationarity: Var[b(T)] -> sigma_bF / (2 gamma_b) = 1
        p = fluctuating_plant(J=1e6, gamma=1e6, M=1e4, gamma_b=1e5, sigma_bfree=1.0)
        trials = 10_000
        b = _final_fields(p, Priors(1.0, 1.0), 21, trials, 1e-7, 5e-5)
        var = b.var(ddof=1)
        se = math.sqrt(2.0 / trials)
        assert abs(var - 1.0) < 3.0 * se + 0.01

    def test_stationary_variance_at_unit_step(self):
        # the exact OU step keeps sigma_bF / (2 gamma_b) = 1 at gamma_b dt = 1,
        # where an Euler step would give sigma_bF / (gamma_b (2 - gamma_b dt)) = 2
        p = fluctuating_plant(J=1e6, gamma=1e6, M=1e4, gamma_b=1e5, sigma_bfree=1.0)
        trials = 10_000
        b = _final_fields(p, Priors(1.0, 1.0), 21, trials, 1e-5, 5e-5)
        assert abs(b.var(ddof=1) - 1.0) < 3.0 * math.sqrt(2.0 / trials)

    def test_wiener_growth_without_damping(self):
        p = PlantParams(J=1.0, gamma=1.0, M=1.0, gamma_b=0.0, sigma_bF=1.0)
        trials = 10_000
        b = _final_fields(p, Priors(1.0, 0.5), 4, trials, 1e-3, 0.25)
        var = b.var(ddof=1)
        expected = 0.5 + 0.25
        assert abs(var / expected - 1.0) < 3.0 * math.sqrt(2.0 / trials)

    def test_ensemble_matches_scalar_path(self):
        # draw layout b(0), then one increment per step, on each trial stream
        p = fluctuating_plant(J=1.0, gamma=1.0, M=1.0, gamma_b=10.0, sigma_bfree=2.0)
        draws = trial_normals(9, np.arange(3), 21)
        decay, amp = field_step(p, 1e-3)
        mat = np.empty((3, 21))
        mat[:, 0] = draws[:, 0]
        for k in range(20):
            mat[:, k + 1] = decay * mat[:, k] + amp * draws[:, 1 + k]
        for k in range(3):
            b = _field(p, Priors(1.0, 1.0), trial_stream(9, k), 1e-3, 0.02)
            assert np.array_equal(mat[k], b)


class TestSimulatePlant:
    """The spin ramp and the measurement record of the open-loop run."""

    def _plant(self):
        return PlantParams(J=100.0, gamma=1.0, M=1e4)

    def test_noise_free_ramp(self):
        p = self._plant()
        prior = Priors(sigma_z0=50.0, sigma_b0=1.0)
        b0 = 0.25
        # constant field (gamma_b = sigma_bF = 0) from the draw b(0) = b0 / sqrt(sigma_b0)
        traj = simulate_open_loop(p, prior, _FirstDraw(b0), 1e-6, 1e-4)
        assert np.all(traj.b == b0)
        expected = traj.z[0] + p.gamma * p.J * b0 * traj.t
        assert np.allclose(traj.z, expected, rtol=1e-12)

    def test_record_invariant(self):
        # the open-loop draw layout: b(0), n field steps, z(0), then dW2 per step
        p = self._plant()
        prior = Priors(sigma_z0=50.0, sigma_b0=0.0)
        traj = simulate_open_loop(p, prior, RngStream(12), 1e-6, 1e-4)
        n = traj.n_steps
        draws = RngStream(12).normals_at(0, 2 * (n + 1))
        assert traj.z[0] == math.sqrt(prior.sigma_z0) * draws[n + 1]
        dW2 = draws[n + 2:] * math.sqrt(traj.dt)
        recon = traj.z[:n] * traj.dt + math.sqrt(p.sigma_M) * dW2
        assert np.array_equal(traj.ydt[:n], recon)

    def test_whiteness_of_residuals(self):
        p = self._plant()
        prior = Priors(sigma_z0=50.0, sigma_b0=1.0)
        trials, n = 200, 500
        resid = []
        for k in range(trials):
            traj = simulate_open_loop(p, prior, trial_stream(1000, k), 1e-7, n * 1e-7)
            r = (traj.ydt[:n] - traj.z[:n] * traj.dt) / math.sqrt(p.sigma_M * traj.dt)
            resid.append(r)
        pooled = np.concatenate(resid)
        m = len(pooled)
        assert m >= 1e5
        assert abs(pooled.mean()) < 3.0 / math.sqrt(m)
        assert abs(pooled.var() - 1.0) < 3.0 * math.sqrt(2.0 / m)

    def test_intercept_variance_matches_quantum_prior(self):
        # open-loop line fits across an ensemble: intercept variance = J/2
        # plus the known fit-noise contribution
        p = self._plant()
        prior = Priors(sigma_z0=p.J / 2.0, sigma_b0=1e-4)
        trials, n, dt = 10_000, 200, 5e-7
        draws = trial_normals(31, np.arange(trials), 2 + n)
        z0 = math.sqrt(prior.sigma_z0) * draws[:, 1]
        b0 = math.sqrt(prior.sigma_b0) * draws[:, 0]
        t = np.arange(n) * dt
        z = z0[:, None] + p.gamma * p.J * b0[:, None] * t[None, :]
        w = z + math.sqrt(p.sigma_M / dt) * draws[:, 2:]
        tbar = t.mean()
        stt = float(np.dot(t - tbar, t - tbar))
        slopes = (w @ (t - tbar)) / stt
        intercepts = w.mean(axis=1) - slopes * tbar
        fit_var = (p.sigma_M / dt) * (1.0 / n + tbar ** 2 / stt)
        expected = prior.sigma_z0 + fit_var
        measured = intercepts.var(ddof=1)
        assert abs(measured / expected - 1.0) < 3.5 * math.sqrt(2.0 / trials)

    def test_early_record_covariance_carries_spin_prior(self):
        # across trials, Cov[y(0), y(tau)] at early times equals the shared
        # spin offset variance sigma_z0 (the shot noise is independent)
        p = self._plant()
        prior = Priors(sigma_z0=p.J / 2.0, sigma_b0=1e-6)
        trials, n, dt = 10_000, 8, 1e-7
        draws = trial_normals(64, np.arange(trials), 2 + n)
        z0 = math.sqrt(prior.sigma_z0) * draws[:, 1]
        b0 = math.sqrt(prior.sigma_b0) * draws[:, 0]
        t = np.arange(n) * dt
        z = z0[:, None] + p.gamma * p.J * b0[:, None] * t[None, :]
        w = z + math.sqrt(p.sigma_M / dt) * draws[:, 2:]
        cov = np.cov(w[:, 0], w[:, 5])[0, 1]
        se = prior.sigma_z0 * math.sqrt(2.0 / trials) * 2.0
        assert abs(cov - prior.sigma_z0) < 3.0 * se

    def test_determinism(self):
        p = self._plant()
        prior = Priors(sigma_z0=1.0, sigma_b0=1.0)
        a = simulate_open_loop(p, prior, RngStream(77), 1e-6, 1e-4)
        b = simulate_open_loop(p, prior, RngStream(77), 1e-6, 1e-4)
        for name in ("t", "z", "b", "u", "ydt"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_long_horizon_warns(self):
        p = self._plant()
        prior = Priors(sigma_z0=1.0, sigma_b0=0.0)
        with pytest.warns(UserWarning, match="1/M"):
            simulate_open_loop(p, prior, RngStream(1), 1e-6, 2e-4)
