import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spintrack.errors import ConfigurationError, DivergenceError
from spintrack.model import DesignParams, PlantParams, Priors, build_system, fluctuating_plant
from spintrack.numerics import RngStream, trial_normals, trial_stream
from spintrack.lqg_filter import (MODES, TRIAL_BLOCK, design_plant, design_prior, filter_record,
                                  run_closed_loop, run_ensemble, run_open_loop_linefit,
                                  summarize_ensemble)
from spintrack.riccati import riccati_at_times
from spintrack.truth_sim import field_step, simulate_open_loop

FLUCT = fluctuating_plant(J=1e6, gamma=1e6, M=1e4, gamma_b=1e5, sigma_bfree=1.0)
PRIOR = Priors(sigma_z0=5e5, sigma_b0=1.0)
MATCHED = DesignParams(J_prime=1e6, lam=0.01)


class TestKalmanStep:
    def test_zero_innovation_zero_drift(self):
        m = filter_record(FLUCT, np.full(5, 1e8), np.full(5, 1e4), np.zeros(5), 1e-10)
        assert np.array_equal(m, np.zeros((5, 2)))

    def test_short_gain_table_rejected(self):
        with pytest.raises(ConfigurationError, match="shorter than the record"):
            filter_record(FLUCT, np.full(3, 1e8), np.full(5, 1e4), np.zeros(5), 1e-10)

    def test_zero_gain_is_pure_propagation(self):
        # one innovation kicks the estimate at step 0; with the gains off
        # afterwards the record is ignored and m <- m + A m dt
        a, _, _, _ = build_system(FLUCT)
        k1, k2 = np.zeros(6), np.zeros(6)
        k1[0], k2[0] = 1.0, 1e3
        m = filter_record(FLUCT, k1, k2, np.full(6, 0.5), 1e-12)
        ref = np.array([0.5, 500.0])
        assert np.array_equal(m[1], ref)
        for k in range(1, 5):
            ref = ref + (a @ ref) * 1e-12
            assert np.allclose(m[k + 1], ref)


class TestClosedLoop:
    def test_matched_ensemble_rides_riccati(self):
        # small ensemble here; the 2000-trial version is in the acceptance suite
        dt, T, trials = 5e-12, 5e-8, 400
        n = int(round(T / dt))
        t_out, sums = run_ensemble(FLUCT, PRIOR, MATCHED, "dynamic_gain", seed=77,
                                   trials=trials, dt=dt, T=T, decimate=n // 50)
        s = summarize_ensemble(sums, trials)
        cov = riccati_at_times(design_plant(FLUCT, MATCHED), design_prior(MATCHED, PRIOR), t_out)
        rel = np.abs(s["sigma_bE"] / cov.sigma_bR - 1.0)
        # pointwise s.e. is sqrt(2/400) = 7.1%; allow the max-over-grid inflation
        assert rel.max() < 0.25

    def test_lambda_does_not_change_estimation(self):
        # same seed, control on vs off: sigma_bE curves agree statistically
        dt, T, trials = 5e-12, 3e-8, 300
        n = int(round(T / dt))
        out = {}
        for lam in (0.0, 0.01):
            d = DesignParams(J_prime=1e6, lam=lam)
            t_out, sums = run_ensemble(FLUCT, PRIOR, d, "dynamic_gain", seed=5,
                                       trials=trials, dt=dt, T=T, decimate=n // 20)
            out[lam] = summarize_ensemble(sums, trials)["sigma_bE"]
        rel = np.abs(out[0.0] / out[0.01] - 1.0)
        assert rel.max() < 0.2

    def test_steady_gain_worse_in_transient_common_noise(self):
        # the exact ordering (frozen gains never beat the optimal schedule)
        # is proven deterministically in the joint-covariance tests; here the
        # Monte Carlo version is checked at Monte Carlo precision
        dt, T, trials = 5e-12, 3e-8, 200
        n = int(round(T / dt))
        curves = {}
        for mode in ("dynamic_gain", "steady_gain"):
            t_out, sums = run_ensemble(FLUCT, PRIOR, MATCHED, mode, seed=13,
                                       trials=trials, dt=dt, T=T, decimate=n // 25)
            curves[mode] = summarize_ensemble(sums, trials)["sigma_bE"]
        ratio = curves["steady_gain"] / curves["dynamic_gain"]
        transient = ratio[2:18]
        assert np.all(transient > 1.2)          # clearly worse mid-transient
        assert abs(ratio[-1] - 1.0) < 0.05      # equal at saturation

    def test_steady_mode_requires_fluctuating_field(self):
        p = PlantParams(J=1e6, gamma=1e6, M=1e4)
        with pytest.raises(ConfigurationError):
            run_closed_loop(p, PRIOR, MATCHED, "steady_gain", RngStream(0), 1e-10, 1e-8)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            run_closed_loop(FLUCT, PRIOR, MATCHED, "nonsense", RngStream(0), 5e-12, 1e-9)

    @pytest.mark.parametrize("dt, T", [(0.0, 1e-9), (-5e-12, 1e-9), (5e-12, 0.0),
                                       (math.nan, 1e-9), (5e-12, 2e-12), (5e-12, 2.5e-12)])
    def test_nonpositive_step_or_horizon_rejected(self, dt, T):
        # one check serves every truth run, the open loop included; a
        # horizon that rounds to no step is rejected with the rest
        with pytest.raises(ConfigurationError, match="simulate_open_loop: dt and T must be"):
            simulate_open_loop(FLUCT, PRIOR, RngStream(0), dt, T)
        with pytest.raises(ConfigurationError, match="dt and T must be positive"):
            run_closed_loop(FLUCT, PRIOR, MATCHED, "dynamic_gain", RngStream(0), dt, T)
        with pytest.raises(ConfigurationError, match="dt and T must be positive"):
            run_ensemble(FLUCT, PRIOR, MATCHED, "dynamic_gain", 0, 4, dt, T)

    def test_long_horizon_warns(self):
        # past 1/M = 1e-9 s every closed-loop run warns, at its caller's line
        p = replace(FLUCT, M=1e9)
        runs = (lambda: run_closed_loop(p, PRIOR, MATCHED, "dynamic_gain", RngStream(0),
                                        5e-12, 2e-9),
                lambda: run_ensemble(p, PRIOR, MATCHED, "dynamic_gain", 0, 4, 5e-12, 2e-9))
        for run in runs:
            with pytest.warns(UserWarning, match="T exceeds 1/M") as record:
                run()
            assert record[0].filename == __file__

    @pytest.mark.parametrize("p", [FLUCT, replace(FLUCT, gamma_b=0.0),
                                   replace(FLUCT, gamma_b=2e11)])
    def test_field_column_is_the_exact_step(self, p):
        # b[k+1] = decay b[k] + amp xi_k with xi_k at position 2 + 2k of the
        # trial's stream, the same step as the open loop's (gamma_b dt = 1 last)
        dt, n = 5e-12, 40
        res = run_closed_loop(p, PRIOR, MATCHED, "dynamic_gain", RngStream(3), dt, n * dt)
        decay, amp = field_step(p, dt)
        draws = RngStream(3).normals(2 + 2 * n)
        b = [math.sqrt(PRIOR.sigma_b0) * draws[1]]
        for k in range(n):
            b.append(decay * b[k] + amp * draws[2 + 2 * k])
        assert np.array_equal(res.trajectory.b, np.array(b))

    @settings(max_examples=40, deadline=None)
    @given(f=st.floats(0.5, 2.0), lam=st.one_of(st.just(0.0), st.floats(1e-4, 0.1)),
           mode=st.sampled_from(MODES), seed=st.integers(0, 2**32),
           k=st.integers(0, 10**6), steps=st.integers(1, 60))
    def test_single_run_is_the_ensemble_row(self, f, lam, mode, seed, k, steps):
        # one step serves both paths, so a one-trial ensemble reproduces the
        # one-trial run bit for bit; a one-element block sum is exact
        p = replace(FLUCT, J=f * MATCHED.J_prime)
        d = DesignParams(J_prime=MATCHED.J_prime, lam=lam)
        dt = 5e-12
        res = run_closed_loop(p, PRIOR, d, mode, trial_stream(seed, k), dt, steps * dt)
        t_out, (sums,) = run_ensemble(p, PRIOR, d, mode, seed, 1, dt, steps * dt,
                                      trial_offset=k)
        assert np.array_equal(t_out, res.trajectory.t)
        be = (res.b_tilde - res.trajectory.b) ** 2
        ze = (res.z_tilde - res.trajectory.z) ** 2
        assert np.array_equal(sums[0].view(np.uint64), be.view(np.uint64))
        assert np.array_equal(sums[2].view(np.uint64), ze.view(np.uint64))

    def test_ensemble_divergence_names_time(self):
        # a controller gain far beyond the explicit-Euler limit overflows
        d = DesignParams(J_prime=1e6, lam=1e3)
        dt, T, trials = 5e-12, 1e-9, 10
        first_bad = []
        for k in range(trials):
            with pytest.raises(DivergenceError, match="run_closed_loop: non-finite state") as exc:
                run_closed_loop(FLUCT, PRIOR, d, "steady_gain", trial_stream(1, k), dt, T)
            first_bad.append(float(str(exc.value).rpartition("t = ")[2]))
        t_bad = min(first_bad)
        assert 0.0 < t_bad < T
        # output only at 0 and T, so the state guard names the step itself
        with pytest.raises(DivergenceError, match=f"non-finite state at t = {t_bad:.6e}"):
            run_ensemble(FLUCT, PRIOR, d, "steady_gain", seed=1, trials=trials, dt=dt, T=T,
                         decimate=int(round(T / dt)))
        # finite states whose squared errors overflow the sums
        huge = Priors(sigma_z0=5e5, sigma_b0=1e300)
        with pytest.raises(DivergenceError, match="sums overflow at t = 0.000000e"):
            run_ensemble(FLUCT, huge, MATCHED, "steady_gain", seed=1, trials=trials, dt=dt,
                         T=2e-11)

    @settings(max_examples=20, deadline=None)
    @given(trials=st.integers(1, 700), first_block=st.integers(0, 3),
           steps=st.integers(1, 40), decimate=st.integers(1, 12),
           seed=st.integers(0, 2**32), mode=st.sampled_from(MODES))
    def test_ensemble_is_in_order_sum_of_block_calls(self, trials, first_block, steps,
                                                     decimate, seed, mode):
        # the worker-split invariance: one call per block gives the single
        # call's blocks bit for bit, and the summary adds them in block order
        dt = 5e-12
        offset = first_block * TRIAL_BLOCK
        args = (FLUCT, PRIOR, MATCHED, mode, seed)
        t_out, per_block = run_ensemble(*args, trials, dt, steps * dt, decimate=decimate,
                                        trial_offset=offset)
        total = np.zeros_like(per_block[0])
        for i, lo in enumerate(range(0, trials, TRIAL_BLOCK)):
            t_b, (part,) = run_ensemble(*args, min(TRIAL_BLOCK, trials - lo), dt, steps * dt,
                                        decimate=decimate, trial_offset=offset + lo)
            assert np.array_equal(t_b, t_out)
            assert np.array_equal(part.view(np.uint64), per_block[i].view(np.uint64))
            total += part
        assert len(per_block) == i + 1
        if trials > 1:
            summed = summarize_ensemble(total[None], trials)
            for key, value in summarize_ensemble(per_block, trials).items():
                assert np.array_equal(value, summed[key]), key

    def test_innovation_whiteness_matched(self):
        # gentle-gain regime so the O(K1 dt) variance correction stays
        # below the statistical band
        p = fluctuating_plant(J=100.0, gamma=1e6, M=1e4, gamma_b=10.0, sigma_bfree=20.0)
        prior = Priors(sigma_z0=50.0, sigma_b0=20.0)
        d = DesignParams(J_prime=100.0, lam=0.0)
        dt, T = 5e-9, 5e-5
        n = int(round(T / dt))
        pooled = []
        for k in range(12):
            res = run_closed_loop(p, prior, d, "dynamic_gain", trial_stream(400, k), dt, T)
            innov = (res.trajectory.ydt[:n] - res.m[:n, 0] * dt) / math.sqrt(p.sigma_M * dt)
            pooled.append(innov[n // 2:])  # saturated half
        pooled = np.concatenate(pooled)
        m = len(pooled)
        assert m >= 6e4
        assert abs(pooled.mean()) < 3.0 / math.sqrt(m)
        assert abs(pooled.var() - 1.0) < 3.0 * math.sqrt(2.0 / m) + 0.01

    def test_estimator_unbiased(self):
        dt, T, trials = 5e-12, 2e-8, 500
        n = int(round(T / dt))
        errs = np.zeros((trials, 3))
        for k in range(trials):
            res = run_closed_loop(FLUCT, PRIOR, MATCHED, "dynamic_gain", trial_stream(600, k), dt, T)
            for j, idx in enumerate((n // 4, n // 2, n)):
                errs[k, j] = res.m[idx, 1] - res.trajectory.b[idx]
        for j in range(3):
            se = errs[:, j].std(ddof=1) / math.sqrt(trials)
            assert abs(errs[:, j].mean()) < 3.0 * se

    def test_control_keeps_small_angle(self):
        d = DesignParams(J_prime=1e6, lam=0.1)
        res = run_closed_loop(FLUCT, PRIOR, d, "dynamic_gain", RngStream(8), 2e-12, 2e-8)
        assert np.max(np.abs(res.trajectory.z)) < 0.1 * FLUCT.J


class TestFilterRecord:
    def test_causality_by_record_splicing(self):
        p = PlantParams(J=100.0, gamma=1e6, M=1e4)
        prior = Priors(sigma_z0=50.0, sigma_b0=1e-4)
        dt, T = 1e-7, 5e-5
        n = int(round(T / dt))
        traj = simulate_open_loop(p, prior, RngStream(3), dt, T)
        cov = riccati_at_times(p, prior, traj.t)
        k1, k2 = cov.gain(p.sigma_M)
        m_ref = filter_record(p, k1, k2, traj.ydt, dt)
        spliced = traj.ydt.copy()
        k_star = n // 2
        spliced[k_star] += 10.0 * math.sqrt(p.sigma_M * dt)
        m_new = filter_record(p, k1, k2, spliced, dt)
        assert np.array_equal(m_new[: k_star + 1], m_ref[: k_star + 1])
        assert not np.allclose(m_new[k_star + 1:], m_ref[k_star + 1:])


def _ramp_records(p, draws, b0, dt):
    """Records of a constant field b0 built from the model: row k takes
    z(0) = sqrt(J/2) draws[k, 0] and one shot-noise draw per step after it."""
    t = np.arange(draws.shape[1] - 1) * dt
    z = math.sqrt(p.J / 2.0) * draws[:, :1] + p.gamma * p.J * b0 * t
    return z * dt + math.sqrt(p.sigma_M) * (draws[:, 1:] * math.sqrt(dt))


class TestOpenLoopLineFit:
    def test_noise_free_ramp_exact(self):
        p = PlantParams(J=100.0, gamma=1e6, M=1e4)
        ydt = _ramp_records(p, np.zeros((1, 101)), 0.004, 1e-7)
        slopes, intercepts = run_open_loop_linefit(ydt, 1e-7)
        assert slopes[0] / (p.gamma * p.J) == pytest.approx(0.004, rel=1e-12)
        assert abs(intercepts[0]) < 1e-12 * p.gamma * p.J * 0.004 * 1e-5

    def test_wrong_spin_scales_estimate(self):
        # the ramp of spin 2J read with the design spin J doubles the field estimate
        p = PlantParams(J=100.0, gamma=1e6, M=1e4)
        ydt = [_ramp_records(replace(p, J=j), np.zeros((1, 65)), 0.004, 1e-7) for j in (p.J, 2 * p.J)]
        est = [run_open_loop_linefit(y, 1e-7)[0][0] / (p.gamma * p.J) for y in ydt]
        assert est[1] == pytest.approx(2.0 * est[0], rel=1e-12)

    def test_variance_matches_line_fit_law(self):
        trials, n, dt = 2000, 100, 1e-7
        p = PlantParams(J=1e4, gamma=1e6, M=1e4)
        ydt = _ramp_records(p, trial_normals(51, np.arange(trials), 1 + n), 5e-4, dt)
        est = run_open_loop_linefit(ydt, dt)[0] / (p.gamma * p.J)
        predicted = 12.0 * p.sigma_M / (p.gamma ** 2 * p.J ** 2 * (n * dt) ** 3)
        measured = est.var(ddof=1)
        assert abs(measured / predicted - 1.0) < 0.1

    def test_too_few_samples(self):
        with pytest.raises(ConfigurationError, match="at least 3"):
            run_open_loop_linefit(np.zeros((4, 2)), 1e-3)
