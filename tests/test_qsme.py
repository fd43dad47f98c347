import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spintrack.errors import ConfigurationError, InstabilityError
from spintrack.model import PlantParams
from spintrack.numerics import RngStream
from spintrack import qsme


def _conditioned_step(rho, b, ops, p, dt, ydt):
    """sme_step conditioned on a given record increment: the innovation
    dW = (ydt - <Jz> dt) / sqrt(sigma_M) replaces the raw noise."""
    jz = qsme.expectation(rho, ops.Jz)
    out, _ = qsme.sme_step(rho, b, ops, p, dt, (ydt - jz * dt) / math.sqrt(p.sigma_M))
    return out


def _textbook_step(rho, h, dw, ops, p, dt, eta):
    """Dense Ito-Euler step written term by term from the module docstring,
    with H = -gamma h Jy, then Hermitized and renormalized."""
    jz, H = ops.Jz, -p.gamma * h * ops.Jy
    mean = np.trace(rho @ jz).real
    drho = (-1j * (H @ rho - rho @ H) * dt
            + p.M * (jz @ rho @ jz - 0.5 * (jz @ jz @ rho + rho @ jz @ jz)) * dt
            + math.sqrt(eta * p.M) * (jz @ rho + rho @ jz - 2.0 * mean * rho) * dw)
    out = rho + drho
    out = 0.5 * (out + out.conj().T)
    return out / np.trace(out).real


def _random_state(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestSpinOperators:
    def test_spin_half(self):
        ops = qsme.spin_operators(0.5)
        assert np.allclose(np.diag(ops.Jz), [0.5, -0.5])

    def test_spin_one_spectrum(self):
        ops = qsme.spin_operators(1.0)
        assert np.allclose(sorted(np.real(np.diag(ops.Jz))), [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("J", [0.5, 1.0, 2.5, 10.0])
    def test_commutators_and_trace(self, J):
        ops = qsme.spin_operators(J)
        comm = ops.Jx @ ops.Jy - ops.Jy @ ops.Jx
        assert np.max(np.abs(comm - 1j * ops.Jz)) < 1e-12
        comm_yz = ops.Jy @ ops.Jz - ops.Jz @ ops.Jy
        assert np.max(np.abs(comm_yz - 1j * ops.Jx)) < 1e-12
        assert abs(np.trace(ops.Jz)) < 1e-12

    def test_invalid_spin(self):
        with pytest.raises(ConfigurationError):
            qsme.spin_operators(0.7)


class TestCoherentState:
    @pytest.mark.parametrize("J", [0.5, 10.0])
    def test_moments(self, J):
        rho = qsme.coherent_state_x(J)
        ops = qsme.spin_operators(J)
        assert qsme.expectation(rho, ops.Jx) == pytest.approx(J, abs=1e-10)
        assert qsme.expectation(rho, ops.Jz) == pytest.approx(0.0, abs=1e-10)
        assert qsme.expectation(rho, ops.Jy) == pytest.approx(0.0, abs=1e-10)
        var = qsme.expectation(rho, ops.Jz @ ops.Jz) - qsme.expectation(rho, ops.Jz) ** 2
        assert var == pytest.approx(J / 2.0, abs=1e-10)

    def test_valid_density_matrix(self):
        rho = qsme.coherent_state_x(4.0)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


class TestSmeStep:
    def test_inert_when_everything_off(self):
        ops = qsme.spin_operators(2.0)
        # M enters every term; a vanishing measurement rate freezes the state
        p = PlantParams(J=2.0, gamma=1e6, M=1e-12)
        rho = qsme.coherent_state_x(2.0)
        out, _ = qsme.sme_step(rho, 0.0, ops, p, 1e-6, 0.0)
        assert np.max(np.abs(out - rho)) < 1e-15

    def test_trace_and_hermiticity_preserved(self):
        ops = qsme.spin_operators(5.0)
        p = PlantParams(J=5.0, gamma=1e6, M=1e4)
        rng = RngStream(1)
        rho = qsme.coherent_state_x(5.0)
        for k in range(200):
            rho, _ = qsme.sme_step(rho, 1e-3, ops, p, 1e-9,
                                   rng.normals(1)[0] * math.sqrt(1e-9))
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10

    def test_positivity_dip_scales_with_step(self):
        # plain Euler lets eigenvalues of an initially rank-deficient state
        # dip negative by O(dt); halving dt must shrink the dip
        ops = qsme.spin_operators(5.0)
        p = PlantParams(J=5.0, gamma=1e6, M=1e4)
        dips = {}
        for dt in (1e-9, 1e-10):
            rng = RngStream(1)
            rho = qsme.coherent_state_x(5.0)
            worst = 0.0
            for k in range(150):
                rho, _ = qsme.sme_step(rho, 1e-3, ops, p, dt,
                                       rng.normals(1)[0] * math.sqrt(dt))
                if k % 25 == 24:
                    worst = min(worst, float(np.min(np.linalg.eigvalsh(rho))))
            dips[dt] = worst
        assert dips[1e-10] > 4.0 * dips[1e-9]  # dips are negative

    def test_non_finite_increment_raises(self):
        ops = qsme.spin_operators(5.0)
        p = PlantParams(J=5.0, gamma=1e6, M=1e4)
        rho = qsme.coherent_state_x(5.0)
        with pytest.raises(InstabilityError, match="trace"):
            qsme.sme_step(rho, 1e-3, ops, p, 1e-9, math.nan)
        with pytest.raises(InstabilityError, match="trace"):
            qsme.propagate_grid(qsme.two_point_grid(ops, 1e-3), math.nan, p, 1e-9)

    def test_step_guard(self):
        # every public entry point to the SME update enforces dt M (2J+1) < 0.5
        ops = qsme.spin_operators(10.0)
        p = PlantParams(J=10.0, gamma=1e6, M=1e4)
        rho = qsme.coherent_state_x(10.0)
        ok_dt, bad_dt = 0.49 / (p.M * ops.dim), 0.51 / (p.M * ops.dim)
        entry_points = {
            "sme_step": lambda dt: qsme.sme_step(rho, 1e-3, ops, p, dt, 0.0),
            "unconditional_jx_decay": lambda dt: qsme.unconditional_jx_decay(ops, p, dt, 1),
            "propagate_grid": lambda dt: qsme.propagate_grid(qsme.two_point_grid(ops, 1e-3),
                                                             0.0, p, dt),
            "grid_filter_record": lambda dt: qsme.grid_filter_record(
                qsme.two_point_grid(ops, 1e-3), np.zeros(1), p, dt),
            "simulate_ramp_ensemble": lambda dt: qsme.simulate_ramp_ensemble(
                ops, p, 1e-3, 1, 2, dt, 1),
        }
        for name, call in entry_points.items():
            call(ok_dt)
            with pytest.raises(ConfigurationError, match="too large"):
                call(bad_dt)
                pytest.fail(f"{name} took a step above the guard")

    def test_record_and_raw_forms_agree(self):
        # feeding the emitted record back through the conditioning form
        # reproduces the conditioned state
        ops = qsme.spin_operators(3.0)
        p = PlantParams(J=3.0, gamma=1e6, M=1e4)
        rho = qsme.coherent_state_x(3.0)
        dw = 0.7 * math.sqrt(1e-8)
        stepped, ydt = qsme.sme_step(rho, 2e-3, ops, p, 1e-8, dw)
        recond = _conditioned_step(rho, 2e-3, ops, p, 1e-8, ydt)
        assert np.max(np.abs(stepped - recond)) < 1e-14

    def test_precession_sign_matches_state_space_model(self):
        # positive field must push <Jz> up at rate gamma <Jx> h
        ops = qsme.spin_operators(8.0)
        p = PlantParams(J=8.0, gamma=1e6, M=1e4)
        rho = qsme.coherent_state_x(8.0)
        b = 1e-3
        out, _ = qsme.sme_step(rho, b, ops, p, 1e-9, 0.0)
        jz = qsme.expectation(out, ops.Jz)
        assert jz == pytest.approx(p.gamma * b * 8.0 * 1e-9, rel=1e-6)


class TestBayesGrid:
    def test_uninformative_measurement_keeps_weights(self):
        ops = qsme.spin_operators(2.0)
        p = PlantParams(J=2.0, gamma=1e6, M=1e4)
        grid = qsme.gaussian_grid(ops, 1e-6, 11)
        # identical states across hypotheses: <Jz>_b all equal
        out = qsme.bayes_grid_update(grid, 1e-7, p)
        assert np.allclose(out.p, grid.p)

    def test_posterior_mean_of_symmetric_grid(self):
        ops = qsme.spin_operators(2.0)
        grid = qsme.gaussian_grid(ops, 1e-6, 21)
        assert grid.posterior_mean() == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_posterior_detected(self):
        ops = qsme.spin_operators(2.0)
        p = PlantParams(J=2.0, gamma=1e6, M=1e4)
        grid = qsme.two_point_grid(ops, 1e-3)
        grid.p = np.array([0.0, 0.0])
        with pytest.raises(Exception):
            qsme.bayes_grid_update(grid, 1e-7, p)

    def test_grid_propagation_matches_scalar_path(self):
        ops = qsme.spin_operators(2.0)
        p = PlantParams(J=2.0, gamma=1e6, M=1e4)
        grid = qsme.two_point_grid(ops, 2e-3)
        ydt = 3e-7
        out = qsme.propagate_grid(grid, ydt, p, 1e-8)
        for i, b in enumerate(grid.b_values):
            ref = _conditioned_step(grid.rho[i], b, ops, p, 1e-8, ydt)
            assert np.max(np.abs(out.rho[i] - ref)) < 1e-13


class TestSuites:
    def test_jx_decay_within_one_percent(self):
        s = qsme.suite_jx_decay(J=6, dt=2e-7, T=6e-5)
        assert s["passed"], s

    def test_variance_tracking_small(self):
        s = qsme.suite_variance_tracking(J=6, trajectories=80, dt=1e-8, T=6e-6, seed=12)
        assert s["passed"], {k: s[k] for k in ("measured", "unbiased", "monotone")}

    def test_ramp_statistics_suite(self):
        s = qsme.suite_ramp_statistics(trajectories=300, seed=71)
        assert s["passed"], s

    def test_qnd_ensemble_matches_scalar_steps(self):
        # the batched simulator at b = 0 is the QND ensemble
        ops = qsme.spin_operators(3.0)
        p = PlantParams(J=3.0, gamma=1e6, M=1e4)
        n = 40
        ydts, walks, _ = qsme.simulate_ramp_ensemble(ops, p, 0.0, seed=9,
                                                     trajectories=2, dt=1e-8, n=n)
        from spintrack.numerics import trial_stream
        for traj in range(2):
            rng = trial_stream(9, traj)
            rho = qsme.coherent_state_x(3.0)
            draws = rng.normals(n)
            for k in range(n):
                rho, ydt = qsme.sme_step(rho, 0.0, ops, p, 1e-8, draws[k] * math.sqrt(1e-8))
                assert ydts[traj, k] == pytest.approx(ydt, rel=1e-12, abs=1e-20)
            jz = qsme.expectation(rho, ops.Jz)
            assert walks[traj, -1] == pytest.approx(jz, abs=1e-10)


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(two_j=st.integers(1, 12), batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           h=st.floats(-2e-3, 2e-3), dw_sd=st.floats(-4.0, 4.0), eta=st.sampled_from([0.0, 1.0]),
           guard_frac=st.floats(1e-4, 0.99))
    def test_kernel_matches_textbook_step(self, two_j, batch, seed, h, dw_sd, eta, guard_frac):
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        dt = guard_frac * 0.5 / (p.M * ops.dim)
        rng = np.random.default_rng(seed)
        rho = np.stack([_random_state(rng, ops.dim) for _ in range(batch)])
        hs = h * rng.uniform(-1.0, 1.0, batch)
        dws = dw_sd * math.sqrt(dt) * rng.uniform(-1.0, 1.0, batch)
        jz = np.array([np.trace(r @ ops.Jz).real for r in rho])
        out = qsme._sme_update(rho, jz, hs, dws, ops, p, dt, eta)
        for i in range(batch):
            ref = _textbook_step(rho[i], hs[i], dws[i], ops, p, dt, eta)
            assert np.max(np.abs(out[i] - ref)) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(two_j=st.integers(1, 8), batch=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           b=st.floats(-0.05, 0.05), n=st.integers(1, 30))
    def test_records_do_not_depend_on_batch_size(self, two_j, batch, seed, b, n):
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        dt = 1e-8
        full = qsme.simulate_ramp_ensemble(ops, p, b, seed, batch, dt, n)
        part = qsme.simulate_ramp_ensemble(ops, p, b, seed, batch - 1, dt, n)
        for a, c in zip(full[:2], part[:2]):   # records and <Jz> walks, row by row
            scale = np.max(np.abs(a[:batch - 1]))
            assert np.max(np.abs(a[:batch - 1] - c)) <= 1e-12 * scale
