import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spintrack.errors import ConfigurationError, DivergenceError
from spintrack.model import (DesignParams, PlantParams, Priors, build_system, design_plant,
                             design_prior, fluctuating_plant)
from spintrack.numerics import RngStream, trial_normals, trial_stream
from spintrack.lqg_filter import (DRAW_TILES, MODES, TRIAL_BLOCK, _chunks, _loop_setup,
                                  _segments, filter_record, run_closed_loop, run_ensemble,
                                  run_open_loop_linefit, summarize_ensemble)
from spintrack.riccati import controller_gain, riccati_at_times
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


def _first_bad_time(d, dt, T, trials):
    """The earliest time at which run_closed_loop names a non-finite state,
    over steady-gain trials 0 .. trials - 1 of seed 1."""
    first_bad = []
    for k in range(trials):
        with pytest.raises(DivergenceError, match="run_closed_loop: non-finite state") as exc:
            run_closed_loop(FLUCT, PRIOR, d, "steady_gain", trial_stream(1, k), dt, T)
        first_bad.append(float(str(exc.value).rpartition("t = ")[2]))
    return min(first_bad)


class TestClosedLoop:
    def test_matched_ensemble_rides_riccati(self):
        # small ensemble here; the 2000-trial version is in the acceptance suite
        dt, T, trials = 5e-12, 5e-8, 400
        t_out, sums = run_ensemble(FLUCT, PRIOR, MATCHED, "dynamic_gain", seed=77,
                                   trials=trials, dt=dt, T=T)
        s = summarize_ensemble(sums, trials)
        cov = riccati_at_times(design_plant(FLUCT, MATCHED), design_prior(MATCHED, PRIOR), t_out)
        rel = np.abs(s["sigma_bE"] / cov.sigma_bR - 1.0)[::4]    # every 200th step, 51 rows
        # pointwise s.e. is sqrt(2/400) = 7.1%; allow the max-over-grid inflation
        assert rel.max() < 0.25

    def test_lambda_does_not_change_estimation(self):
        # same seed, control on vs off: sigma_bE curves agree statistically
        dt, T, trials = 5e-12, 3e-8, 300
        out = {}
        for lam in (0.0, 0.01):
            d = DesignParams(J_prime=1e6, lam=lam)
            t_out, sums = run_ensemble(FLUCT, PRIOR, d, "dynamic_gain", seed=5,
                                       trials=trials, dt=dt, T=T)
            out[lam] = summarize_ensemble(sums, trials)["sigma_bE"][::10]   # every 300th step
        rel = np.abs(out[0.0] / out[0.01] - 1.0)
        assert rel.max() < 0.2

    def test_steady_gain_worse_in_transient_common_noise(self):
        # the exact ordering (frozen gains never beat the optimal schedule)
        # is proven deterministically in the joint-covariance tests; here the
        # Monte Carlo version is checked at Monte Carlo precision
        dt, T, trials = 5e-12, 3e-8, 200
        curves = {}
        for mode in ("dynamic_gain", "steady_gain"):
            t_out, sums = run_ensemble(FLUCT, PRIOR, MATCHED, mode, seed=13,
                                       trials=trials, dt=dt, T=T)
            curves[mode] = summarize_ensemble(sums, trials)["sigma_bE"]
        ratio = curves["steady_gain"] / curves["dynamic_gain"]
        transient = ratio[(t_out >= 2.4e-9) & (t_out <= 2.04e-8)]
        assert np.all(transient > 1.2)          # clearly worse mid-transient
        assert abs(ratio[-1] - 1.0) < 0.05      # equal at saturation

    def test_steady_mode_requires_fluctuating_field(self):
        p = PlantParams(J=1e6, gamma=1e6, M=1e4)
        with pytest.raises(ConfigurationError):
            run_closed_loop(p, PRIOR, MATCHED, "steady_gain", RngStream(0), 1e-10, 1e-8)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("run", [
        lambda mode, dt, T: run_closed_loop(FLUCT, PRIOR, MATCHED, mode, RngStream(0), dt, T),
        lambda mode, dt, T: run_ensemble(FLUCT, PRIOR, MATCHED, mode, 0, 4, dt, T),
    ], ids=["run_closed_loop", "run_ensemble"])
    def test_uniform_grid_guard(self, run, mode):
        # both gain modes drive the same Euler filter, so both meet its
        # step bound dt * K_O1_steady < 0.1
        with pytest.raises(ConfigurationError, match="dt \\* K_O1_steady >= 0.1"):
            run(mode, 1e-8, 1e-6)

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
        traj, _ = run_closed_loop(p, PRIOR, MATCHED, "dynamic_gain", RngStream(3), dt, n * dt)
        decay, amp = field_step(p, dt)
        draws = RngStream(3).normals_at(0, 2 + 2 * n)
        b = [math.sqrt(PRIOR.sigma_b0) * draws[1]]
        for k in range(n):
            b.append(decay * b[k] + amp * draws[2 + 2 * k])
        assert np.array_equal(traj.b, np.array(b))

    @settings(max_examples=40, deadline=None)
    @given(f=st.floats(0.5, 2.0), lam=st.one_of(st.just(0.0), st.floats(1e-4, 0.1)),
           mode=st.sampled_from(MODES), seed=st.integers(0, 2**32),
           k=st.integers(0, 10**6), steps=st.one_of(st.integers(1, 60), st.integers(390, 450),
                                                    st.integers(2000, 4000)))
    @example(f=1.3, lam=0.01, mode="dynamic_gain", seed=5, k=17, steps=2345)
    @example(f=0.7, lam=0.05, mode="steady_gain", seed=6, k=3, steps=13001)
    def test_single_run_is_the_ensemble_row(self, f, lam, mode, seed, k, steps):
        # one set of segment maps serves both paths, so a one-trial ensemble
        # reproduces the one-trial run bit for bit, on its output rows (every
        # max(1, n // 200)-th step and T); a one-element block sum is exact
        p = replace(FLUCT, J=f * MATCHED.J_prime)
        d = DesignParams(J_prime=MATCHED.J_prime, lam=lam)
        dt = 5e-12
        traj, m = run_closed_loop(p, PRIOR, d, mode, trial_stream(seed, k), dt, steps * dt)
        t_out, (sums,) = run_ensemble(p, PRIOR, d, mode, seed, 1, dt, steps * dt,
                                      trial_offset=k)
        rows = np.union1d(np.arange(0, steps + 1, max(1, steps // 200)), [steps])
        assert np.array_equal(t_out, traj.t[rows])
        be = (m[rows, 1] - traj.b[rows]) ** 2
        ze = (m[rows, 0] - traj.z[rows]) ** 2
        assert np.array_equal(sums[0].view(np.uint64), be.view(np.uint64))
        assert np.array_equal(sums[2].view(np.uint64), ze.view(np.uint64))

    def test_ensemble_divergence_names_time(self):
        # a controller gain far beyond the explicit-Euler limit overflows
        d = DesignParams(J_prime=1e6, lam=1e3)
        dt, T, trials = 5e-12, 1e-9, 10
        t_bad = _first_bad_time(d, dt, T, trials)
        assert 0.0 < t_bad < T
        # the state guard replays the segment to name the step itself
        with pytest.raises(DivergenceError, match=f"non-finite state at t = {t_bad:.6e}"):
            run_ensemble(FLUCT, PRIOR, d, "steady_gain", seed=1, trials=trials, dt=dt, T=T)
        # finite states whose squared errors overflow the sums
        huge = Priors(sigma_z0=5e5, sigma_b0=1e300)
        with pytest.raises(DivergenceError, match="sums overflow at t = 0.000000e"):
            run_ensemble(FLUCT, huge, MATCHED, "steady_gain", seed=1, trials=trials, dt=dt,
                         T=2e-11)

    def test_divergence_inside_a_segment_names_its_step(self):
        # at n = 2000 the output stride is 10 steps; the overflow falls inside
        # a segment, whose step-by-step replay names the step itself, the
        # time that the one-trial runs name too
        d = DesignParams(J_prime=1e6, lam=1e3)
        dt, T, trials = 5e-12, 1e-8, 10
        t_bad = _first_bad_time(d, dt, T, trials)
        assert round(t_bad / dt) % 10 != 0
        with pytest.raises(DivergenceError, match=f"non-finite state at t = {t_bad:.6e}"):
            run_ensemble(FLUCT, PRIOR, d, "steady_gain", seed=1, trials=trials, dt=dt, T=T)

    @settings(max_examples=20, deadline=None)
    @given(trials=st.integers(1, 700), first_block=st.integers(0, 3),
           steps=st.one_of(st.integers(1, 40), st.integers(400, 900)),
           seed=st.integers(0, 2**32), mode=st.sampled_from(MODES))
    @example(trials=300, first_block=1, steps=401, seed=7, mode="dynamic_gain")
    @example(trials=2 * TRIAL_BLOCK + 1, first_block=2, steps=250, seed=9, mode="dynamic_gain")
    @example(trials=DRAW_TILES * TRIAL_BLOCK + 1, first_block=1, steps=30, seed=3,
             mode="steady_gain")
    def test_ensemble_is_in_order_sum_of_block_calls(self, trials, first_block, steps, seed,
                                                     mode):
        # the worker-split invariance: one call per block gives the single
        # call's blocks bit for bit, and the summary adds them in block order;
        # past 400 steps the output stride exceeds 1 and T can fall off it
        dt = 5e-12
        offset = first_block * TRIAL_BLOCK
        args = (FLUCT, PRIOR, MATCHED, mode, seed)
        t_out, per_block = run_ensemble(*args, trials, dt, steps * dt, trial_offset=offset)
        total = np.zeros_like(per_block[0])
        for i, lo in enumerate(range(0, trials, TRIAL_BLOCK)):
            t_b, (part,) = run_ensemble(*args, min(TRIAL_BLOCK, trials - lo), dt, steps * dt,
                                        trial_offset=offset + lo)
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
            traj, est = run_closed_loop(p, prior, d, "dynamic_gain", trial_stream(400, k), dt, T)
            innov = (traj.ydt[:n] - est[:n, 0] * dt) / math.sqrt(p.sigma_M * dt)
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
            traj, m = run_closed_loop(FLUCT, PRIOR, MATCHED, "dynamic_gain", trial_stream(600, k),
                                      dt, T)
            for j, idx in enumerate((n // 4, n // 2, n)):
                errs[k, j] = m[idx, 1] - traj.b[idx]
        for j in range(3):
            se = errs[:, j].std(ddof=1) / math.sqrt(trials)
            assert abs(errs[:, j].mean()) < 3.0 * se

    def test_control_keeps_small_angle(self):
        d = DesignParams(J_prime=1e6, lam=0.1)
        traj, _ = run_closed_loop(FLUCT, PRIOR, d, "dynamic_gain", RngStream(8), 2e-12, 2e-8)
        assert np.max(np.abs(traj.z)) < 0.1 * FLUCT.J


def _reference_step(x, xi, g1, g2, c):
    """One closed-loop step on Python floats, term by term: u = -K_C m,
    y dt = z dt + s xi_2 with s = sqrt(sigma_M dt), the plant (Euler in z,
    the OU step in b), then the Euler filter update with gains (g1, g2);
    c = (plant, design, K_C, dt)."""
    p, d, (kc0, kc1), dt = c
    gj, gjp, gb = p.gamma * p.J, p.gamma * d.J_prime, p.gamma_b
    decay, amp = field_step(p, dt)
    s = math.sqrt(p.sigma_M * dt)
    z, b, mz, mb = x
    u = -(kc0 * mz + kc1 * mb)
    innov = z * dt + s * xi[1] - mz * dt
    return (z + gj * (b + u) * dt, decay * b + amp * xi[0],
            mz + gjp * (mb + u) * dt + g1 * innov, mb - gb * mb * dt + g2 * innov)


def _reference_maps(g1, g2, c):
    """[P | Q] of the steps at gains g1, g2, from _reference_step run from
    each unit state and with each unit draw, and its scale [|A_{L-1}|...|A_0|
    | ... |A_{L-1}|...|A_{j+1}| |B_j| ...], with each step's (A, B) read
    off _reference_step the same way."""
    steps, eye = len(g1), np.eye(6)
    cols = []
    for i in range(4 + 2 * steps):
        x = eye[i, :4] if i < 4 else np.zeros(4)
        for k in range(steps):
            x = _reference_step(x, (float(i == 4 + 2 * k), float(i == 5 + 2 * k)), g1[k], g2[k], c)
        cols.append(x)
    scale, later = np.empty((4, 4 + 2 * steps)), np.eye(4)   # later: |A_{L-1}|...|A_{k+1}|
    for k in range(steps - 1, -1, -1):
        ab = np.abs(np.array([_reference_step(e[:4], e[4:], g1[k], g2[k], c) for e in eye]).T)
        scale[:, 4 + 2 * k:6 + 2 * k] = later @ ab[:, 4:]
        later = later @ ab[:, :4]
    scale[:, :4] = later
    return np.array(cols).T, scale


class TestSegmentMaps:
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(st.integers(1, 60), min_size=1, max_size=2),
           gjp=st.floats(1e10, 1e13), f=st.floats(0.5, 2.0),
           gb=st.one_of(st.just(0.0), st.floats(1.0, 1e9)),
           r=st.one_of(st.just(0.0), st.floats(1e-6, 0.999)),
           sigma_bF=st.one_of(st.just(0.0), st.floats(0.2, 2e11)),
           M=st.floats(1.25, 1.25e12),
           seed=st.integers(0, 2**32))
    @example(steps=[1], gjp=1e10, f=1.0, gb=1.0, r=0.999, sigma_bF=0.0, M=1e4, seed=0)
    def test_lift_is_the_product_of_steps(self, steps, gjp, f, gb, r, sigma_bF, M, seed):
        # P = A_{L-1}...A_0 and Q_j = A_{L-1}...A_{j+1} B_j of every segment,
        # a shorter one padded in a chunk with a longer one, match the
        # reference steps to 1e-12 of the product of the steps' |A| and |B|;
        # the controller stays below its Euler limit, lam gamma J' dt < 1.
        # The field amplitude sqrt(sigma_bF dt) spans 0 and 1e-6 .. 1, the
        # record's sqrt(sigma_M dt) 1e-12 .. 1e-6
        dt = 5e-12
        d = DesignParams(J_prime=gjp / 1e6, lam=r / (gjp * dt))
        p = PlantParams(J=f * d.J_prime, gamma=1e6, M=M, gamma_b=gb, sigma_bF=sigma_bF)
        c = (p, d, controller_gain(p, d), dt)
        n = sum(steps)
        rng = np.random.default_rng(seed)
        g1, g2 = rng.uniform(0.0, 0.1 / dt, n + 1), rng.uniform(-1e6, 1e6, n + 1)
        bounds = np.cumsum([0] + steps).tolist()
        (chunk,) = _chunks(g1, g2, c, bounds)
        for k0, k_end, (lift_p, lift_q, _, _) in _segments(chunk):
            ref, scale = _reference_maps(g1[k0:k_end], g2[k0:k_end], c)
            assert lift_q.shape == (4, 2 * (k_end - k0))
            assert np.all(np.abs(np.hstack([lift_p, lift_q]) - ref) <= 1e-12 * scale)


class TestFilterRecord:
    @pytest.mark.parametrize("p, mode", [(FLUCT, "dynamic_gain"), (FLUCT, "steady_gain"),
                                         (replace(FLUCT, J=1.3e6), "dynamic_gain"),
                                         (replace(FLUCT, J=1.3e6), "steady_gain"),
                                         (PlantParams(J=1e6, gamma=1e6, M=1e4), "dynamic_gain")])
    def test_reproduces_the_closed_loop_estimates(self, p, mode):
        # at lam = 0 the loop's filter is the open-loop filter of the design
        # plant, so re-running it over the loop's own record with the loop's
        # gains gives the loop's estimates, to rounding: the two routes
        # round the record's two terms apart or together
        d = DesignParams(J_prime=1e6, lam=0.0)
        dt, n = 5e-12, 3000
        traj, m = run_closed_loop(p, PRIOR, d, mode, RngStream(5), dt, n * dt)
        k1, k2, _ = _loop_setup(p, PRIOR, d, mode, dt, n)
        m_rec = filter_record(design_plant(p, d), k1, k2, traj.ydt, dt)
        assert np.all(np.abs(m_rec - m) <= 1e-12 * np.abs(m).max(axis=0))

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
