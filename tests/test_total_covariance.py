import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from spintrack.errors import (ConfigurationError, DimensionError, DivergenceError,
                              InstabilityError, UnsupportedCaseError)
from spintrack.model import DesignParams, PlantParams, Priors, fluctuating_plant
from spintrack.numerics import geometric_times, ou_increment
from spintrack.riccati import (analytic_sigma, controller_gain, exact_steady_sigma,
                               riccati_at_times, steady_state_gains)
from spintrack.lqg_filter import design_plant
from spintrack import cli, total_covariance as tc

from joint_reference import (S_ERR, error_generator, integrate_theta_sequential,
                             raw_alpha_beta, to_error)
from rk4_reference import integrate_theta_rk4, joint_generator

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "spintrack" / "scenarios"
FLUCT = fluctuating_plant(J=1e6, gamma=1e6, M=1e4, gamma_b=1e5, sigma_bfree=1.0)
PRIOR = Priors(sigma_z0=5e5, sigma_b0=1.0)


def _matched_setup(lam=1e-4, t_end=5e-8, ratio=0.005):
    d = DesignParams(J_prime=1e6, lam=lam)
    grid = geometric_times(t_end, ratio, FLUCT.sigma_M / PRIOR.sigma_z0)
    cov = riccati_at_times(FLUCT, PRIOR, grid)
    k1, k2 = cov.gain(FLUCT.sigma_M)
    gen = joint_generator(FLUCT, d, lambda t: (np.interp(t, grid, k1), np.interp(t, grid, k2)),
                          controller_gain(FLUCT, d))
    return d, grid, cov, gen


def _frozen(p, d, g, intervals):
    """build_alpha_beta stacks with the steady gains g on every interval."""
    k1, k2 = g.K_O
    return tc.build_alpha_beta(p, d, np.full(intervals, k1), np.full(intervals, k2), g.K_C)


class TestStructure:
    def test_matched_uncontrolled_blocks(self):
        # separation: without control the truth ignores the error, and with
        # a matched design the error ignores the truth, exactly
        d = DesignParams(J_prime=1e6, lam=0.0)
        alpha, beta = tc.build_alpha_beta(FLUCT, d, [2.0], [3.0], np.zeros(2))
        a = alpha[0]
        assert np.array_equal(a[:2, 2:], np.zeros((2, 2)))      # no control feedthrough
        assert np.array_equal(a[2:, :2], np.zeros((2, 2)))      # no truth -> error coupling
        assert np.array_equal(a[2:, 2:], [[-2.0, FLUCT.gamma * 1e6], [-3.0, -FLUCT.gamma_b]])

    def test_beta_constant_field(self):
        p = PlantParams(J=1e6, gamma=1e6, M=1e4)
        d = DesignParams(J_prime=1e6, lam=0.0)
        _, beta = tc.build_alpha_beta(p, d, [2.0], [3.0], np.zeros(2))
        b = beta[0]
        sm = math.sqrt(p.sigma_M)
        expected = np.zeros((4, 4))
        expected[2, 2] = 2.0 * sm
        expected[3, 2] = 3.0 * sm
        assert np.allclose(b, expected)

    def test_lower_right_block_identity(self):
        # the error block: the estimator's A' - B' K_C - K_O C plus the
        # true feedback B K_C that the truth rows no longer carry
        d = DesignParams(J_prime=2e6, lam=0.5)
        kc = controller_gain(FLUCT, d)
        alpha, _ = tc.build_alpha_beta(FLUCT, d, [7.0], [11.0], kc)
        a = alpha[0]
        gj, gjp = FLUCT.gamma * FLUCT.J, FLUCT.gamma * d.J_prime
        a_des = np.array([[0.0, gjp], [0.0, -FLUCT.gamma_b]])
        b_des = np.array([gjp, 0.0])
        expected = (a_des - np.outer(b_des, kc) - np.array([[7.0, 0.0], [11.0, 0.0]])
                    + np.outer([gj, 0.0], kc))
        assert np.allclose(a[2:, 2:], expected)
        assert np.allclose(a[:2, 2:], -np.outer([gj, 0.0], kc))

    @settings(max_examples=40, deadline=None)
    @given(gains=st.lists(st.tuples(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12)),
                          min_size=1, max_size=12),
           f=st.floats(0.5, 2.0), lam=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)))
    def test_stack_rows_are_one_row_calls(self, gains, f, lam):
        # each row depends on its own gains only, bit for bit
        k1, k2 = np.array(gains).T
        p = fluctuating_plant(J=f * 1e6, gamma=1e6, M=1e4, gamma_b=1e5, sigma_bfree=1.0)
        d = DesignParams(J_prime=1e6, lam=lam)
        kc = controller_gain(p, d)
        alpha, beta = tc.build_alpha_beta(p, d, k1, k2, kc)
        assert alpha.shape == beta.shape == (len(k1), 4, 4)
        for k in range(len(k1)):
            a_k, b_k = tc.build_alpha_beta(p, d, k1[k:k + 1], k2[k:k + 1], kc)
            assert np.array_equal(alpha[k:k + 1].view(np.uint64), a_k.view(np.uint64))
            assert np.array_equal(beta[k:k + 1].view(np.uint64), b_k.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(gains=st.lists(st.tuples(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12)),
                          min_size=1, max_size=8),
           f=st.floats(0.01, 100.0), lam=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
           gamma_b=st.one_of(st.just(0.0), st.floats(1e3, 1e6)))
    def test_stacks_equal_conjugated_raw_reference(self, gains, f, lam, gamma_b):
        # S alpha S^-1 and (S beta)(S beta)^T of the raw flow, bit for bit
        # (negative zeros included), constant fields included
        k1, k2 = np.array(gains).T
        p = PlantParams(J=f * 1e6, gamma=1e6, M=1e4, gamma_b=gamma_b, sigma_bF=2.0 * gamma_b)
        d = DesignParams(J_prime=1e6, lam=lam)
        kc = controller_gain(p, d)
        alpha, beta = tc.build_alpha_beta(p, d, k1, k2, kc)
        alpha_raw, beta_raw = raw_alpha_beta(p, d, k1, k2, kc)
        a_ref, q_ref = error_generator(alpha_raw, beta_raw)
        q = beta @ beta.swapaxes(-1, -2)
        assert np.array_equal(alpha.view(np.uint64), a_ref.view(np.uint64))
        assert np.array_equal(beta.view(np.uint64), (S_ERR @ beta_raw).view(np.uint64))
        assert np.array_equal(q.view(np.uint64), q_ref.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(gains=st.tuples(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12)),
           f=st.floats(0.01, 100.0), lam=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)))
    def test_coupling_block_is_the_mismatch(self, gains, f, lam):
        # the truth -> error block is gamma (J' - J) [[-K_C1, 1 - K_C2], [0, 0]]
        # (the feedback robustness: K_C2 -> 1 cuts the field out of the
        # error) and vanishes for a matched design, both to the rounding of
        # the terms that build it
        k1, k2 = gains
        d = DesignParams(J_prime=1e6, lam=lam)
        for J in (f * 1e6, 1e6):
            p = fluctuating_plant(J=J, gamma=1e6, M=1e4, gamma_b=1e5, sigma_bfree=1.0)
            kc = controller_gain(p, d)
            alpha, _ = tc.build_alpha_beta(p, d, [k1], [k2], kc)
            gj, gjp = p.gamma * p.J, p.gamma * d.J_prime
            expected = (gjp - gj) * np.array([[-kc[0], 1.0 - kc[1]], [0.0, 0.0]])
            scale = abs(k1) + abs(k2) + (gj + gjp) * (1.0 + lam) + p.gamma_b
            assert np.max(np.abs(alpha[0, 2:, :2] - expected)) <= 4 * np.finfo(float).eps * scale


def _initial_error(theta0):
    """sigma_bE at t = 0 of the joint flow started from theta0, given in
    (z, b, z~-z, b~-b)."""
    d = DesignParams(J_prime=1e6, lam=0.0)
    gen = joint_generator(FLUCT, d, lambda t: (0.0, 0.0), np.zeros(2))
    return integrate_theta_rk4(gen, theta0, [0.0]).sigma_bE[0]


class TestMagnetometryError:
    def test_perfect_correlation_gives_zero(self):
        th = np.zeros((4, 4))
        for i in (1, 3):
            for j in (1, 3):
                th[i, j] = 2.5
        assert _initial_error(to_error(th)) == 0.0

    def test_initial_condition_returns_field_prior(self):
        theta0 = tc.theta_init(PRIOR)
        raw = np.diag([PRIOR.sigma_z0, PRIOR.sigma_b0, 0.0, 0.0])
        assert np.array_equal(theta0.view(np.uint64), to_error(raw).view(np.uint64))
        assert _initial_error(theta0) == PRIOR.sigma_b0

    def test_matched_saturation(self):
        d, grid, cov, gen = _matched_setup()
        traj = integrate_theta_rk4(gen, tc.theta_init(PRIOR), grid)
        _, _, sb = exact_steady_sigma(FLUCT)
        assert traj.sigma_bE[-1] == pytest.approx(sb, rel=5e-3)


class TestMatchedIdentity:
    def test_sigma_bE_equals_sigma_bR(self):
        d, grid, cov, gen = _matched_setup()
        traj = integrate_theta_rk4(gen, tc.theta_init(PRIOR), grid)
        rel = np.abs(traj.sigma_bE[1:] / cov.sigma_bR[1:] - 1.0)
        assert rel.max() < 1e-6

    def test_integrating_factor_matches_rk4_frozen_gains(self):
        # piecewise-constant gains: both routes solve the same flow
        d = DesignParams(J_prime=1e6, lam=1e-4)
        g = steady_state_gains(FLUCT, d)
        times = np.linspace(0.0, 2e-8, 400)
        rk4 = integrate_theta_rk4(joint_generator(FLUCT, d, lambda t: g.K_O, g.K_C),
                                  tc.theta_init(PRIOR), times)
        exm = tc.integrate_theta(*_frozen(FLUCT, d, g, len(times) - 1), tc.theta_init(PRIOR),
                                 times)
        rel = np.abs(exm.sigma_bE[1:] / rk4.sigma_bE[1:] - 1.0)
        assert rel.max() < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(f=st.floats(0.6, 3.0), log_lam=st.floats(-5.0, 0.0), log_gb=st.floats(4.0, 6.0))
    def test_theta_stays_psd_and_matches_rk4(self, f, log_lam, log_gb):
        # random mismatched designs around the paper's regime, frozen design
        # gains; the grid resolves the fastest closed-loop rate for RK4
        p = fluctuating_plant(J=f * 1e6, gamma=1e6, M=1e4, gamma_b=10 ** log_gb, sigma_bfree=1.0)
        d = DesignParams(J_prime=1e6, lam=10 ** log_lam)
        g = steady_state_gains(design_plant(p, d), d)
        alpha, beta = _frozen(p, d, g, 399)
        rate = np.max(np.abs(np.linalg.eigvals(alpha[0])))
        times = np.arange(400) * (0.01 / rate)
        exm = tc.integrate_theta(alpha, beta, tc.theta_init(PRIOR), times)
        for theta in exm.theta:
            assert np.linalg.eigvalsh(theta)[0] >= -1e-9 * np.trace(theta)
        rk4 = integrate_theta_rk4(joint_generator(p, d, lambda t: g.K_O, g.K_C),
                                  tc.theta_init(PRIOR), times)
        assert np.max(np.abs(exm.sigma_bE[1:] / rk4.sigma_bE[1:] - 1.0)) < 1e-6

    def test_prefix_scan_matches_the_sequential_recursion(self, monkeypatch):
        # every grid of the shipped transient sweep: the scanned Theta against
        # the per-interval loop on the same (Phi, G)
        sc = cli.parse_scenario(str(SCENARIOS / "mismatch_transient.scn"))
        p0 = cli.build_plant(sc)
        d = cli.build_design(sc, p0)
        runs = []
        integrate_theta = tc.integrate_theta

        def spy(*args):
            runs.append((args, integrate_theta(*args)))
            return runs[-1][1]

        monkeypatch.setattr(tc, "integrate_theta", spy)
        for f in sc["f_sweep"]:
            p = replace(p0, J=f * d.J_prime)
            tc.transient_error_curve(p, Priors(p.J / 2.0, sc["sigma_b0"]), d, [sc["t_eval"]])
        assert len(runs) == len(sc["f_sweep"])
        for args, traj in runs:
            seq = integrate_theta_sequential(*args)
            scale = np.abs(seq).max(axis=(1, 2))
            assert np.all(np.abs(traj.theta - seq).max(axis=(1, 2)) <= 1e-8 * scale)
            assert np.max(np.abs(traj.sigma_bE[1:] / seq[1:, 3, 3] - 1.0)) < 1e-10

    def test_failures_name_the_interval(self, monkeypatch):
        # a NaN gain on interval k surfaces from the generator check before
        # the exponentials, a non-positive increment from the positivity
        # check; both name t_k
        d = DesignParams(J_prime=1e6, lam=1e-4)
        g = steady_state_gains(FLUCT, d)
        times = np.linspace(0.0, 2e-8, 40)
        k = 17
        k1, k2 = np.full(39, g.K_O[0]), np.full(39, g.K_O[1])
        k1[k] = math.nan
        alpha, beta = tc.build_alpha_beta(FLUCT, d, k1, k2, g.K_C)
        with pytest.raises(DivergenceError, match=f"interval from t = {times[k]:.6e}"):
            tc.integrate_theta(alpha, beta, tc.theta_init(PRIOR), times)

        alpha, beta = _frozen(FLUCT, d, g, 39)

        def negative_at_k(a, q, h):
            phi, inc = ou_increment(a, q, h)
            inc[k] -= 1e3 * np.eye(4)
            return phi, inc

        monkeypatch.setattr(tc, "ou_increment", negative_at_k)
        with pytest.raises(InstabilityError, match=f"interval from t = {times[k]:.6e}"):
            tc.integrate_theta(alpha, beta, tc.theta_init(PRIOR), times)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, 38), i=st.integers(0, 3), j=st.integers(0, 3),
           poison=st.sampled_from([(0, math.nan), (0, math.inf), (0, -math.inf), (1, math.nan),
                                   (1, math.inf), (1, -math.inf), (1, 1e300)]))
    def test_poisoned_interval_is_named(self, k, i, j, poison):
        # a non-finite generator entry, or a noise entry whose intensity
        # beta beta^T overflows, on interval k: the one check, on Theta,
        # names t_k, and nothing warns on the way
        d = DesignParams(J_prime=1e6, lam=1e-4)
        times = np.linspace(0.0, 2e-8, 40)
        stacks = _frozen(FLUCT, d, steady_state_gains(FLUCT, d), 39)
        which, bad = poison
        stacks[which][k, i, j] = bad
        with pytest.raises(DivergenceError, match=re.escape(f"interval from t = {times[k]:.6e})")):
            tc.integrate_theta(*stacks, tc.theta_init(PRIOR), times)

    def test_one_generator_per_interval(self):
        d = DesignParams(J_prime=1e6, lam=1e-4)
        g = steady_state_gains(FLUCT, d)
        times = np.linspace(0.0, 2e-8, 40)
        for n in (38, 40):
            with pytest.raises(DimensionError, match="40 times need 39 generators"):
                tc.integrate_theta(*_frozen(FLUCT, d, g, n), tc.theta_init(PRIOR), times)
        alpha, beta = _frozen(FLUCT, d, g, 39)
        with pytest.raises(DimensionError, match="got 39 alpha and 38 beta"):
            tc.integrate_theta(alpha, beta[1:], tc.theta_init(PRIOR), times)

    def test_grid_must_increase_strictly(self):
        d = DesignParams(J_prime=1e6, lam=1e-4)
        g = steady_state_gains(FLUCT, d)
        for times, bad in (([0.0, 2e-8, 1e-8, 3e-8], 1e-8), ([0.0, 1e-8, 1e-8, 3e-8], 1e-8)):
            with pytest.raises(ConfigurationError, match=f"t = {bad:.6e} follows t = "):
                tc.integrate_theta(*_frozen(FLUCT, d, g, 3), tc.theta_init(PRIOR), times)

    def test_disconnected_filter_marginals(self):
        # K_O' = K_C' = 0: the truth marginals must follow the open plant
        d = DesignParams(J_prime=1e6, lam=0.0)
        gen = joint_generator(FLUCT, d, lambda t: (0.0, 0.0), np.zeros(2))
        times = np.linspace(0.0, 1e-6, 200)
        traj = integrate_theta_rk4(gen, tc.theta_init(PRIOR), times)
        a_true = np.array([[0.0, FLUCT.gamma * FLUCT.J], [0.0, -FLUCT.gamma_b]])
        q_true = np.diag([0.0, FLUCT.sigma_bF])
        p = np.diag([PRIOR.sigma_z0, PRIOR.sigma_b0])
        for k in range(1, len(times)):
            phi, g = ou_increment(a_true, q_true, times[k] - times[k - 1])
            p = phi @ p @ phi.T + g
        assert traj.theta[-1][0, 0] == pytest.approx(p[0, 0], rel=1e-8)
        assert traj.theta[-1][1, 1] == pytest.approx(p[1, 1], rel=1e-8)


class TestMismatchFactors:
    def test_matched_is_unity(self):
        assert tc.mismatch_factors(1.0, "controlled_steady") == 1.0
        assert tc.mismatch_factors(1.0, "controlled_transient") == 1.0
        assert tc.mismatch_factors(1.0, "uncontrolled_fluctuating") == 0.0

    def test_large_f_limits(self):
        assert tc.mismatch_factors(1e9, "controlled_steady") == pytest.approx(0.5, rel=1e-8)
        assert tc.mismatch_factors(1e9, "controlled_transient") == pytest.approx(0.25, rel=1e-8)

    def test_worse_than_no_estimation(self):
        assert tc.mismatch_factors(3.0, "uncontrolled_fluctuating") == 4.0

    def test_transient_validity_boundary(self):
        with pytest.raises(UnsupportedCaseError):
            tc.mismatch_factors(0.5, "controlled_transient")
        assert tc.mismatch_factors(0.51, "controlled_transient") > 0

    def test_unknown_regime(self):
        with pytest.raises(ConfigurationError):
            tc.mismatch_factors(1.0, "bogus")


class TestSteadyStateError:
    def test_controlled_factor_curve(self):
        d = DesignParams(J_prime=1e6, lam=1.0)
        for f in (0.5, 2.0, 10.0):
            p = fluctuating_plant(J=f * 1e6, gamma=1e6, M=1e4, gamma_b=1e5, sigma_bfree=1.0)
            err = tc.steady_state_error(p, d)
            ref = steady_state_gains(design_plant(p, d), d).sigma_bS
            assert err / ref == pytest.approx(tc.mismatch_factors(f, "controlled_steady"), rel=0.02)

    def test_uncontrolled_saturation(self):
        d = DesignParams(J_prime=1e6, lam=0.0)
        for f in (0.5, 2.0, 10.0):
            p = fluctuating_plant(J=f * 1e6, gamma=1e6, M=1e4, gamma_b=1e5, sigma_bfree=1.0)
            err = tc.steady_state_error(p, d)
            assert err == pytest.approx((1.0 - f) ** 2 * 1.0, rel=0.02)

    def test_matched_uncontrolled_is_optimal(self):
        d = DesignParams(J_prime=1e6, lam=0.0)
        err = tc.steady_state_error(FLUCT, d)
        _, _, sb = exact_steady_sigma(FLUCT)
        assert err == pytest.approx(sb, rel=1e-6)

    def test_uncontrolled_matches_hand_written_subsystem(self):
        # the lam = 0 block of the shared generator against the closed
        # (z~-z, b, b~-b) system written out by hand
        d = DesignParams(J_prime=1e6, lam=0.0)
        for f in (0.5, 0.75, 1.0, 1.25, 2.0, 10.0, 100.0):
            for gamma_b in (1e4, 1e5, 1e6):
                p = fluctuating_plant(J=f * 1e6, gamma=1e6, M=1e4, gamma_b=gamma_b,
                                      sigma_bfree=1.0)
                k1, k2 = steady_state_gains(design_plant(p, d), d).K_O
                gj, gjp = p.gamma * p.J, p.gamma * d.J_prime
                sqrt_sbf, sqrt_sm = math.sqrt(p.sigma_bF), math.sqrt(p.sigma_M)
                a = np.array([[-k1, gjp - gj, gjp],
                              [0.0, -gamma_b, 0.0],
                              [-k2, 0.0, -gamma_b]])
                b_noise = np.array([[0.0, k1 * sqrt_sm],
                                    [sqrt_sbf, 0.0],
                                    [-sqrt_sbf, k2 * sqrt_sm]])
                ref = scipy.linalg.solve_continuous_lyapunov(a, -(b_noise @ b_noise.T))[2, 2]
                assert tc.steady_state_error(p, d) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_constant_field_rejected(self):
        with pytest.raises(UnsupportedCaseError):
            tc.steady_state_error(PlantParams(J=1e6, gamma=1e6, M=1e4),
                                  DesignParams(J_prime=1e6, lam=1.0))

    def test_consistent_with_integration(self):
        # the stationary solve is a fixed point of the integrated flow
        d = DesignParams(J_prime=1e6, lam=1e-4)
        g = steady_state_gains(FLUCT, d)
        times = np.linspace(0.0, 3e-7, 300)
        traj = tc.integrate_theta(*_frozen(FLUCT, d, g, len(times) - 1), tc.theta_init(PRIOR),
                                  times)
        err = tc.steady_state_error(FLUCT, d)
        assert traj.sigma_bE[-1] == pytest.approx(err, rel=5e-3)


class TestTransientCurve:
    def test_matched_follows_transient_law(self):
        p = PlantParams(J=1e6, gamma=1e6, M=1e4)
        prior = Priors(sigma_z0=5e5, sigma_b0=1.0)
        d = DesignParams(J_prime=1e6, lam=1.0)
        t_eval = np.array([1e-6, 1e-5])
        traj = tc.transient_error_curve(p, prior, d, t_eval)
        for t, sb in zip(t_eval, traj.sigma_bE):
            assert sb == pytest.approx(analytic_sigma(p, (math.inf, math.inf), t)[1], rel=5e-3)

    def test_reference_mismatch_point(self):
        # f = 2 at late transient: measured factor sits near (but below)
        # the approximate closed form; see the acceptance suite discussion
        f = 2.0
        p = PlantParams(J=f * 1e6, gamma=1e6, M=1e4)
        prior = Priors(sigma_z0=p.J / 2.0, sigma_b0=1.0)
        d = DesignParams(J_prime=1e6, lam=1.0)
        traj = tc.transient_error_curve(p, prior, d, np.array([1e-5]))
        factor = traj.sigma_bE[0] / analytic_sigma(design_plant(p, d), (math.inf, math.inf),
                                                   1e-5)[1]
        assert 0.3 < factor < 0.45

    def test_psd_throughout(self):
        p = PlantParams(J=2e6, gamma=1e6, M=1e4)
        prior = Priors(sigma_z0=1e6, sigma_b0=1.0)
        d = DesignParams(J_prime=1e6, lam=1.0)
        traj = tc.transient_error_curve(p, prior, d, np.geomspace(1e-8, 1e-5, 8))
        for k in range(len(traj.t)):
            assert np.min(np.linalg.eigvalsh(traj.theta[k])) >= -1e-9 * np.trace(traj.theta[k])
        assert np.all(traj.sigma_bE >= 0.0)

    def test_infinite_spin_prior_rejected(self):
        # the grid offset sigma_M / sigma_z0 would be 0 and the grid never
        # advance; Priors rejects the infinite spin prior before the curve
        with pytest.raises(ConfigurationError, match="sigma_z0 must be positive and finite"):
            tc.transient_error_curve(PlantParams(J=1e6, gamma=1e6, M=1e4),
                                     Priors(sigma_z0=math.inf, sigma_b0=1.0),
                                     DesignParams(J_prime=1e6, lam=1.0), np.array([1e-5]))

    def test_error_variance_carried_from_integration(self, monkeypatch):
        # the snapshots at t_eval, and sigma_bE read from them, are those
        # of the integration, bit for bit
        p = PlantParams(J=2e6, gamma=1e6, M=1e4)
        prior = Priors(sigma_z0=1e6, sigma_b0=1.0)
        d = DesignParams(J_prime=1e6, lam=1.0)
        t_eval = np.array([1e-7, 1e-5])
        runs = []
        integrate_theta = tc.integrate_theta

        def spy(*args, **kwargs):
            runs.append(integrate_theta(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(tc, "integrate_theta", spy)
        traj = tc.transient_error_curve(p, prior, d, t_eval)
        (full,) = runs
        idx = np.searchsorted(full.t, t_eval)
        assert np.array_equal(traj.theta, full.theta[idx])
