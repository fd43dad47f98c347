import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spintrack.errors import (ConfigurationError, InstabilityError, NumericalError,
                              UnsupportedCaseError)
from spintrack.model import PlantParams
from spintrack.numerics import RngStream
from spintrack import qsme
from grid_reference import grid_records_reference, posterior_reference
from sse_reference import (jz_mean, ramp_ensemble_reference, shifted_kpsi, sse_step,
                           sse_update_reference)


def _dense(ops):
    """Dense complex (Jx, Jy, Jz) built from the ladder amplitudes."""
    d = ops.dim
    jp = np.zeros((d, d))
    jp[np.arange(d - 1), np.arange(1, d)] = ops.amp
    return 0.5 * (jp + jp.T) + 0j, -0.5j * (jp - jp.T), np.diag(ops.mz) + 0j


def _moment(psi, op):
    return float(np.real(psi @ op @ psi))


def _step(psi, b, ops, p, dt, dw):
    """One conditioned step of a single state in field b; returns
    (psi', ydt) with the emitted record increment."""
    jz = jz_mean(psi[None], ops.mz)
    out = sse_step(psi[None], b, dw, ops, p, dt)[0]
    return out, float(jz[0] * dt + math.sqrt(p.sigma_M) * dw)


def _two_point(ops, p, dt, b0, records=1):
    """A stacked two-hypothesis grid, +-b0, with its truth rows in +b0."""
    return qsme.FieldGrid(ops, p, dt, b0, np.array([-b0, b0]), records)


def _two_point_run(ops, p, b0, seed, records, dt, n):
    """grid_filter_records on the two-hypothesis grid of _two_point."""
    return qsme.grid_filter_records(ops, p, b0, np.array([-b0, b0]), np.array([0.5, 0.5]),
                                    seed, records, dt, n)


def _conditioned_step(psi, b, ops, p, dt, ydt):
    """The step conditioned on a given record increment: the innovation
    dW = (ydt - <Jz> dt) / sqrt(sigma_M) replaces the raw noise."""
    jz = float(jz_mean(psi[None], ops.mz)[0])
    out, _ = _step(psi, b, ops, p, dt, (ydt - jz * dt) / math.sqrt(p.sigma_M))
    return out


def _textbook_step(rho, h, dw, ops, p, dt):
    """Dense Ito-Euler step of the conditional master equation, written
    term by term with H = -gamma h Jy, then Hermitized and renormalized:
    d rho = -i [H, rho] dt + D[sqrt(M) Jz] rho dt + H[sqrt(M) Jz] rho dW."""
    _, jy, jz = _dense(ops)
    H = -p.gamma * h * jy
    mean = np.trace(rho @ jz).real
    drho = (-1j * (H @ rho - rho @ H) * dt
            + p.M * (jz @ rho @ jz - 0.5 * (jz @ jz @ rho + rho @ jz @ jz)) * dt
            + math.sqrt(p.M) * (jz @ rho + rho @ jz - 2.0 * mean * rho) * dw)
    out = rho + drho
    out = 0.5 * (out + out.conj().T)
    return out / np.trace(out).real


class TestSpinOperators:
    def test_spin_half(self):
        ops = qsme.spin_operators(0.5)
        assert np.allclose(ops.mz, [0.5, -0.5])
        assert np.allclose(ops.amp, [1.0])

    def test_spin_one_spectrum(self):
        ops = qsme.spin_operators(1.0)
        assert np.allclose(sorted(ops.mz), [-1.0, 0.0, 1.0])
        assert np.allclose(ops.amp, [math.sqrt(2.0)] * 2)

    @pytest.mark.parametrize("J", [0.5, 1.0, 2.5, 10.0])
    def test_commutators_and_trace(self, J):
        jx, jy, jz = _dense(qsme.spin_operators(J))
        comm = jx @ jy - jy @ jx
        assert np.max(np.abs(comm - 1j * jz)) < 1e-12
        comm_yz = jy @ jz - jz @ jy
        assert np.max(np.abs(comm_yz - 1j * jx)) < 1e-12
        assert abs(np.trace(jz)) < 1e-12

    def test_invalid_spin(self):
        with pytest.raises(ConfigurationError):
            qsme.spin_operators(0.7)
        for J in (2.3, -1.0):
            with pytest.raises(ConfigurationError):
                qsme.coherent_state_x(J)


class TestCoherentState:
    @pytest.mark.parametrize("J", [0.5, 10.0])
    def test_moments(self, J):
        psi = qsme.coherent_state_x(J)
        jx, jy, jz = _dense(qsme.spin_operators(J))
        assert _moment(psi, jx) == pytest.approx(J, abs=1e-10)
        assert _moment(psi, jz) == pytest.approx(0.0, abs=1e-10)
        assert _moment(psi, jy) == pytest.approx(0.0, abs=1e-10)
        var = _moment(psi, jz @ jz) - _moment(psi, jz) ** 2
        assert var == pytest.approx(J / 2.0, abs=1e-10)

    def test_valid_density_matrix(self):
        psi = qsme.coherent_state_x(4.0)
        rho = np.outer(psi, psi)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
        jx, _, _ = _dense(qsme.spin_operators(4.0))
        assert np.max(np.abs(jx @ psi - 4.0 * psi)) < 1e-12   # the maximal-Jx eigenstate


class TestSmeStep:
    def test_inert_when_everything_off(self):
        ops = qsme.spin_operators(2.0)
        # M enters every term; a vanishing measurement rate freezes the state
        p = PlantParams(J=2.0, gamma=1e6, M=1e-12)
        psi = qsme.coherent_state_x(2.0)
        out, _ = _step(psi, 0.0, ops, p, 1e-6, 0.0)
        assert np.max(np.abs(out - psi)) < 1e-15
        coh = psi[:-1] * psi[1:]
        assert np.max(np.abs(qsme.sme_step(coh.copy(), ops, p, 1e-6) - coh)) < 1e-15

    def test_trace_and_hermiticity_preserved(self):
        ops = qsme.spin_operators(5.0)
        p = PlantParams(J=5.0, gamma=1e6, M=1e4)
        rng = RngStream(1)
        psi = qsme.coherent_state_x(5.0)
        coh0 = psi[:-1] * psi[1:]
        coh = coh0.copy()
        for k in range(200):
            psi, _ = _step(psi, 1e-3, ops, p, 1e-9, rng.normals(1)[0] * math.sqrt(1e-9))
            coh = qsme.sme_step(coh, ops, p, 1e-9)
        assert abs(psi @ psi - 1.0) < 1e-12
        # the dephasing step touches only the coherences <Jx> reads, each by
        # the same factor per step
        assert np.allclose(coh, coh0 * (1.0 - 0.5 * p.M * 1e-9) ** 200, rtol=1e-13, atol=0.0)

    def test_positivity_dip_scales_with_step(self):
        # psi psi^T is positive by construction at every step size
        ops = qsme.spin_operators(5.0)
        p = PlantParams(J=5.0, gamma=1e6, M=1e4)
        for dt in (1e-8, 1e-9):
            rng = RngStream(1)
            psi = qsme.coherent_state_x(5.0)
            n = int(round(2e-6 / dt))
            for k in range(n):
                psi, _ = _step(psi, 1e-3, ops, p, dt, rng.normals(1)[0] * math.sqrt(dt))
                if k % (n // 4) == n // 4 - 1:
                    assert np.min(np.linalg.eigvalsh(np.outer(psi, psi))) > -1e-15

    def test_dephasing_stable_under_its_guard(self):
        # just under dt M (2J+1) < 0.5 at J = 10 the dense Euler factor of
        # the far coherences fell below -1 and overflowed after about 550
        # steps; on the superdiagonal <Jx> reads it is 1 - M dt / 2 > 0
        ops = qsme.spin_operators(10.0)
        p = PlantParams(J=10.0, gamma=1e6, M=1e4)
        jx = qsme.unconditional_jx_decay(ops, p, 0.49 / (p.M * ops.dim), 600)
        assert np.all(np.isfinite(jx))
        assert np.all(np.diff(jx) < 0.0)

    def test_non_finite_increment_raises(self):
        ops = qsme.spin_operators(5.0)
        p = PlantParams(J=5.0, gamma=1e6, M=1e4)
        psi = qsme.coherent_state_x(5.0)
        with pytest.raises(InstabilityError, match="norm"):
            _step(psi, 1e-3, ops, p, 1e-9, math.nan)
        # the grid records the failed norm and raises at its next check
        grid = _two_point(ops, p, 1e-9, 1e-3)
        qsme.propagate_grid(grid, np.full((1, 1), math.nan))
        assert np.all(np.isnan(grid.jz))
        with pytest.raises(InstabilityError, match="norm"):
            grid.check()
        with pytest.raises(InstabilityError, match="not finite"):
            qsme.sme_step(np.full(ops.dim - 1, math.nan), ops, p, 1e-9)

    def test_failures_name_the_time(self, monkeypatch):
        ops = qsme.spin_operators(5.0)
        p = PlantParams(J=5.0, gamma=1e6, M=1e4)
        dt, k = 1e-9, 7
        draws = qsme.trial_normals

        def nan_at_k(*args):
            out = draws(*args)
            out[:, k] = math.nan
            return out

        monkeypatch.setattr(qsme, "trial_normals", nan_at_k)
        # a NaN record: the states, stepped before the posterior, fail first
        with pytest.raises(InstabilityError, match=f"norm.*t = {k * dt:.6e}"):
            _two_point_run(ops, p, 1e-3, 1, 2, dt, 12)
        with pytest.raises(InstabilityError, match=f"t = {k * dt:.6e}"):
            qsme.simulate_ramp_ensemble(ops, p, 1e-3, 1, 2, dt, 12)

        step = qsme.sme_step
        calls = []

        def nan_state_at_k(coh, *args):
            calls.append(None)
            return step(coh * math.nan if len(calls) == k + 1 else coh, *args)

        monkeypatch.setattr(qsme, "sme_step", nan_state_at_k)
        with pytest.raises(InstabilityError, match=f"t = {k * dt:.6e}"):
            qsme.unconditional_jx_decay(ops, p, dt, 12)

    @pytest.mark.parametrize("block_step", [-1, 0, 5])
    def test_norm_failure_in_any_block_names_its_time(self, monkeypatch, block_step):
        # the norms are checked every _NORM_BLOCK steps and once after the
        # loop: a failure on either side of a block's end names its step
        ops = qsme.spin_operators(2.0)
        p = PlantParams(J=2.0, gamma=1e6, M=1e4)
        dt, k = 1e-9, 2 * qsme._NORM_BLOCK + block_step
        draws = qsme.trial_normals

        def nan_at_k(*args):
            out = draws(*args)
            out[:, k] = math.nan
            return out

        monkeypatch.setattr(qsme, "trial_normals", nan_at_k)
        n = 2 * qsme._NORM_BLOCK + 20
        with pytest.raises(InstabilityError, match=f"norm.*t = {k * dt:.6e}"):
            _two_point_run(ops, p, 1e-3, 1, 2, dt, n)
        with pytest.raises(InstabilityError, match=f"norm.*t = {k * dt:.6e}"):
            qsme.simulate_ramp_ensemble(ops, p, 1e-3, 1, 2, dt, n)

    def test_inefficient_measurement_rejected(self):
        # a state conditioned on an inefficient measurement is mixed
        ops = qsme.spin_operators(2.0)
        p = PlantParams(J=2.0, gamma=1e6, M=1e4, eta=0.5)
        with pytest.raises(UnsupportedCaseError, match="eta"):
            qsme.propagate_grid(_two_point(ops, p, 1e-9, 1e-3), np.zeros((1, 1)))
        with pytest.raises(UnsupportedCaseError, match="eta"):
            _two_point_run(ops, p, 1e-3, 1, 2, 1e-9, 3)
        with pytest.raises(UnsupportedCaseError, match="eta"):
            qsme.simulate_ramp_ensemble(ops, p, 0.0, 1, 2, 1e-9, 3)

    def test_step_guard(self):
        # every public entry point to a state update enforces dt M (2J+1) < 0.5
        ops = qsme.spin_operators(10.0)
        p = PlantParams(J=10.0, gamma=1e6, M=1e4)
        psi = qsme.coherent_state_x(10.0)
        ok_dt, bad_dt = 0.49 / (p.M * ops.dim), 0.51 / (p.M * ops.dim)
        entry_points = {
            "sme_step": lambda dt: qsme.sme_step(psi[:-1] * psi[1:], ops, p, dt),
            "unconditional_jx_decay": lambda dt: qsme.unconditional_jx_decay(ops, p, dt, 1),
            "propagate_grid": lambda dt: qsme.propagate_grid(_two_point(ops, p, dt, 1e-3),
                                                             np.zeros((1, 1))),
            "grid_filter_records": lambda dt: _two_point_run(ops, p, 1e-3, 1, 2, dt, 1),
            "simulate_ramp_ensemble": lambda dt: qsme.simulate_ramp_ensemble(
                ops, p, 1e-3, 1, 2, dt, 1),
        }
        for name, call in entry_points.items():
            call(ok_dt)
            with pytest.raises(ConfigurationError, match="too large"):
                call(bad_dt)
                pytest.fail(f"{name} took a step above the guard")

    def test_record_and_raw_forms_agree(self):
        # a truth row stepped on the innovation of its own record walks as
        # the trajectory stepped on the raw noise
        ops = qsme.spin_operators(3.0)
        p = PlantParams(J=3.0, gamma=1e6, M=1e4)
        b, dt, n = 2e-3, 1e-8, 50
        ydts, walks, _ = qsme.simulate_ramp_ensemble(ops, p, b, 17, 2, dt, n)
        stacked_ydts, stacked_walks, _, _ = _two_point_run(ops, p, b, 17, 2, dt, n)
        assert np.max(np.abs(stacked_walks - walks)) <= 1e-12
        assert np.max(np.abs(stacked_ydts - ydts)) <= 1e-12 * dt

    def test_precession_sign_matches_state_space_model(self):
        # positive field must push <Jz> up at rate gamma <Jx> h; a vanishing
        # M keeps the measurement's -(M/2)(Jz-<Jz>)^2 dt term out of it
        ops = qsme.spin_operators(8.0)
        p = PlantParams(J=8.0, gamma=1e6, M=1e-12)
        b = 1e-3
        out, _ = _step(qsme.coherent_state_x(8.0), b, ops, p, 1e-9, 0.0)
        jz = float(jz_mean(out[None], ops.mz)[0])
        assert jz == pytest.approx(p.gamma * b * 8.0 * 1e-9, rel=1e-6)


class TestBayesGrid:
    def test_uninformative_measurement_keeps_weights(self):
        # <Jz>_b equal across hypotheses at every step: every factor of a
        # record is the same, so the prior holds at every time
        p = PlantParams(J=2.0, gamma=1e6, M=1e4)
        _, prior = qsme._gaussian_hypotheses(1e-6, 11)
        rng = np.random.default_rng(3)
        jz = np.repeat(rng.uniform(-2.0, 2.0, (40, 2, 1)), 11, axis=2)
        ydt = rng.normal(0.0, 3e-7, (40, 2))
        w = qsme.bayes_grid_update(jz, ydt, prior, p, 1e-8)
        assert w.shape == (41, 2, 11)
        assert np.allclose(w, prior)

    def test_posterior_mean_of_symmetric_grid(self):
        ops = qsme.spin_operators(2.0)
        p = PlantParams(J=2.0, gamma=1e6, M=1e4)
        hypotheses, weights = qsme._gaussian_hypotheses(1e-6, 21)
        _, _, means, _ = qsme.grid_filter_records(ops, p, 0.0, hypotheses, weights, 1, 2,
                                                  1e-8, 1)
        assert np.max(np.abs(means[:, 0])) <= 1e-15

    def test_degenerate_posterior_detected(self):
        # the check is per record and names the first step after which some
        # record's weights all vanish or turn non-finite: one bad record
        # among three, in the middle of a run as at its start
        p = PlantParams(J=2.0, gamma=1e6, M=1e4)
        dt, n, k = 1e-9, 12, 7
        prior = np.array([0.25, 0.75])
        jz = np.zeros((n, 3, 2))
        ydt = np.full((n, 3), 1e-7)
        clamp = -2.0 / (4.0 * p.M * 1e-7)   # factors 1 + 4 M <Jz> ydt = -1
        vanish = jz.copy()
        vanish[k, 1, 0] = clamp
        vanish[k - 2, 1, 1] = clamp   # one clamped hypothesis alone is no failure
        vanish[k + 2, 0] = clamp      # a later failure of another record is not named
        nan_record = ydt.copy()
        nan_record[k:, 2] = math.nan
        for jz_k, ydt_k, prior_k, step in ((vanish, ydt, prior, k), (jz, nan_record, prior, k),
                                           (jz, ydt, np.zeros(2), 0)):
            message = f"degenerated (step at t = {step * dt:.6e})"
            with pytest.raises(NumericalError, match=re.escape(message)):
                qsme.bayes_grid_update(jz_k, ydt_k, prior_k, p, dt)

    def test_grid_propagation_matches_scalar_path(self):
        ops = qsme.spin_operators(2.0)
        p = PlantParams(J=2.0, gamma=1e6, M=1e4)
        grid = _two_point(ops, p, 1e-8, 2e-3, records=2)
        psi = grid.psi.copy()
        ydt = np.array([[3e-7], [-1e-7]])   # each record's increment, for its three rows
        qsme.propagate_grid(grid, ydt)
        for i, b in enumerate(grid.b_values):
            ref = _conditioned_step(psi[i], b, ops, p, 1e-8, ydt[i // 3, 0])
            assert np.max(np.abs(grid.psi[i] - ref)) < 1e-13

    def test_one_jz_read_per_step_matches_two(self, monkeypatch):
        # the grid carries <Jz> of every row from one propagation to the
        # next step's record, history and propagation; reading it afresh
        # before the propagation changes no bit
        ops = qsme.spin_operators(3.0)
        p = PlantParams(J=3.0, gamma=1e6, M=1e4)
        hypotheses, weights = qsme._gaussian_hypotheses(4e-6, 7)

        def run():
            return qsme.grid_filter_records(ops, p, 2e-3, hypotheses, weights, 5, 2, 1e-8, 60)

        carried = run()
        propagate = qsme.propagate_grid

        def fresh(grid, *args):
            grid.jz[:] = jz_mean(grid.psi, ops.mz)
            return propagate(grid, *args)

        monkeypatch.setattr(qsme, "propagate_grid", fresh)
        for a, b in zip(carried, run()):
            assert np.array_equal(a, b)


class TestSuites:
    @pytest.mark.parametrize("call, match", [
        (lambda: qsme.suite_two_point(records=0), "records must be at least 1"),
        (lambda: qsme.suite_grid_kalman(records=0), "records must be at least 1"),
        (lambda: qsme.suite_variance_tracking(trajectories=1), "trajectories must be at least 2"),
        (lambda: qsme.suite_ramp_statistics(trajectories=1), "trajectories must be at least 2"),
        (lambda: qsme.suite_grid_kalman(points=1), "at least two hypotheses"),
        (lambda: qsme.suite_two_point(T=0.0), "T of at least one step"),
        (lambda: qsme.suite_jx_decay(dt=0.0), "dt > 0"),
        (lambda: qsme.simulate_ramp_ensemble(qsme.spin_operators(1.0), PlantParams(
            J=1.0, gamma=1e6, M=1e4), 0.0, 1, 0, 1e-9, 3), "trajectories must be at least 1"),
        (lambda: qsme.simulate_ramp_ensemble(qsme.spin_operators(1.0), PlantParams(
            J=1.0, gamma=1e6, M=1e4), 0.0, 1, 2, 1e-9, 0), "n must be at least 1"),
    ], ids=["two_point-records", "grid_kalman-records", "variance_tracking-trajectories",
            "ramp_statistics-trajectories", "grid_kalman-points", "two_point-T", "jx_decay-dt",
            "simulate-trajectories", "simulate-n"])
    def test_degenerate_sizes_rejected(self, call, match):
        # each crashed inside numpy, returned NaN standard errors, or
        # reported on zero steps
        with pytest.raises(ConfigurationError, match=match):
            call()

    def test_jx_decay_within_one_percent(self):
        s = qsme.suite_jx_decay(J=6, dt=2e-7, T=6e-5)
        assert s["passed"], s

    def test_variance_tracking_small(self):
        s = qsme.suite_variance_tracking(J=6, trajectories=80, dt=1e-8, T=6e-6, seed=12)
        assert s["passed"], {k: s[k] for k in ("measured", "unbiased", "monotone")}

    def test_ramp_statistics_suite(self):
        s = qsme.suite_ramp_statistics(trajectories=300, seed=71)
        assert s["passed"], s

    @pytest.mark.parametrize("suite, sizes", [
        (qsme.suite_two_point, {"dt": 5e-9, "T": 1e-7}),
        (qsme.suite_grid_kalman, {"dt": 2.5e-9, "T": 5e-8, "points": 5}),
    ], ids=["two_point", "grid_kalman"])
    def test_one_sse_update_per_step(self, monkeypatch, suite, sizes):
        # the truth and hypothesis rows of every record step as one stack,
        # and one posterior pass follows the time loop
        calls, posteriors = [], []
        update, posterior = qsme.StateStack.step, qsme.bayes_grid_update

        def counted(stack, *args):
            calls.append(len(stack.psi))
            return update(stack, *args)

        def counted_posterior(jz, *args):
            posteriors.append(jz.shape)
            return posterior(jz, *args)

        monkeypatch.setattr(qsme.StateStack, "step", counted)
        monkeypatch.setattr(qsme, "bayes_grid_update", counted_posterior)
        n = int(round(sizes["T"] / sizes["dt"]))
        hyps = sizes.get("points", 2)
        for records in (1, 3):
            calls.clear()
            posteriors.clear()
            suite(records=records, **sizes)
            assert calls == [records * (1 + hyps)] * n
            assert posteriors == [(n, records, hyps)]

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
            psi = qsme.coherent_state_x(3.0)
            draws = rng.normals(n)
            for k in range(n):
                psi, ydt = _step(psi, 0.0, ops, p, 1e-8, draws[k] * math.sqrt(1e-8))
                assert ydts[traj, k] == pytest.approx(ydt, rel=1e-12, abs=1e-20)
            jz = float(jz_mean(psi[None], ops.mz)[0])
            assert walks[traj, -1] == pytest.approx(jz, abs=1e-10)


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(two_j=st.integers(1, 12), batch=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
           h=st.floats(-2e-3, 2e-3), signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=4,
                                                    max_size=4),
           dt_frac=st.floats(0.01, 1.0))
    def test_kernel_matches_textbook_step(self, two_j, batch, seed, h, signs, dt_frac):
        # with dW = +-sqrt(dt) the (dW^2 - dt) term vanishes, and psi psi^T
        # after one step differs from the textbook rho step by
        # O(dt^(3/2)): the error over dt^(3/2) holds still as dt falls 10x
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(batch, ops.dim))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        hs = h * rng.uniform(-1.0, 1.0, batch)
        jz = jz_mean(psi, ops.mz)
        scaled = []
        for dt in np.array([1.0, 0.1]) * dt_frac * 1e-2 / (p.M * ops.dim ** 2):
            dws = np.array(signs[:batch]) * math.sqrt(dt)
            out = sse_step(psi, hs, dws, ops, p, dt)
            err = max(np.max(np.abs(np.outer(out[i], out[i]) - _textbook_step(
                np.outer(psi[i], psi[i]), hs[i], dws[i], ops, p, dt))) for i in range(batch))
            scaled.append(err / dt ** 1.5)
        assert 0.8 <= scaled[1] / scaled[0] <= 1.2

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

    @settings(max_examples=60, deadline=None)
    @given(two_j=st.integers(1, 12), batch=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           h=st.floats(-0.05, 0.05), dt_frac=st.floats(0.01, 0.99))
    def test_kernel_matches_reference(self, two_j, batch, seed, h, dt_frac):
        # the field term as one product with K, the measurement term in one
        # temporary: the step moves by rounding only
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        dt = dt_frac * 0.5 / (p.M * ops.dim)
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(batch, ops.dim))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        hs = h * rng.uniform(-1.0, 1.0, batch)
        dws = rng.normal(size=batch) * math.sqrt(dt)
        jz = jz_mean(psi, ops.mz)
        out = sse_step(psi, hs, dws, ops, p, dt)
        assert np.max(np.abs(out - sse_update_reference(psi, jz, hs, dws, ops, p, dt))) <= 1e-14
        # relative to the size of the two terms of each entry
        ref = shifted_kpsi(psi, ops.amp)
        scale = np.max(np.abs(psi) @ np.abs(ops.K))
        assert np.max(np.abs(psi @ ops.K - ref)) <= 1e-15 * scale

    @settings(max_examples=25, deadline=None)
    @given(two_j=st.integers(1, 8), trajectories=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
           b=st.floats(-0.05, 0.05), n=st.integers(1, 30))
    def test_ramp_loop_matches_per_step_reference(self, two_j, trajectories, seed, b, n):
        # records formed after the loop and the mean as add.reduce / count
        # give the bits of one record column and one np.mean per step
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        out = qsme.simulate_ramp_ensemble(ops, p, b, seed, trajectories, 1e-8, n)
        ref = ramp_ensemble_reference(ops, p, b, seed, trajectories, 1e-8, n)
        for a, c in zip(out, ref):   # records, <Jz> walks, mean_djz2
            assert np.array_equal(a, c)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), records=st.integers(1, 4), hyps=st.integers(2, 6),
           n=st.integers(60, 150), clamps=st.integers(0, 6))
    def test_posterior_matches_sequential_reference(self, seed, records, hyps, n, clamps):
        # random <Jz> histories and records with factors 1 + 4 M <Jz> ydt
        # in (0.1, 1.9), a few clamped ones (<= 0), and per record one
        # hypothesis with factors of 1e-12..1e-9 or 1e9..1e12: its
        # log-weight leaves the others by more than 1e3, and a plain
        # product of its factors overflows
        p = PlantParams(J=4.0, gamma=1e6, M=1e4)
        rng = np.random.default_rng(seed)
        ydt = rng.choice([-1.0, 1.0], (n, records)) * rng.uniform(1e-8, 1e-6, (n, records))
        factors = rng.uniform(0.1, 1.9, (n, records, hyps))
        sign = rng.choice([-1.0, 1.0], (1, records))
        factors[:, :, -1] = 10.0 ** (sign * rng.uniform(9.0, 12.0, (n, records)))
        clamped = []
        if hyps >= 3:   # never the first hypothesis or the extreme one, so every record lives
            for _ in range(clamps):
                k, r, h = rng.integers(n), rng.integers(records), rng.integers(1, hyps - 1)
                factors[k, r, h] = rng.uniform(-1.0, -0.01)
                clamped.append((k, r, h))
        jz = (factors - 1.0) / (4.0 * p.M * p.eta * ydt[:, :, None])
        prior = rng.uniform(0.1, 1.0, hyps)
        prior /= prior.sum()
        spread = np.cumsum(np.log(factors[:, :, [0, -1]]), axis=0)[-1]
        assert np.all(np.abs(spread[:, 1] - spread[:, 0]) > 1e3)
        w = qsme.bayes_grid_update(jz, ydt, prior, p, 1e-9)
        assert w.shape == (n + 1, records, hyps)
        assert np.all(np.isfinite(w))
        assert np.max(np.abs(w - posterior_reference(jz, ydt, prior, p))) <= 1e-12
        for k, r, h in clamped:
            assert np.all(w[k + 1:, r, h] == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(two_j=st.integers(1, 8), hyps=st.integers(2, 6), records=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
    def test_stacked_grid_matches_per_record_reference(self, two_j, hyps, records, seed, n):
        # one stack of truth and hypothesis rows against a truth simulation
        # followed by one grid per record: the truth rows take their raw
        # noise back from the record, so values move by rounding only
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        rng = np.random.default_rng(seed)
        hypotheses = np.sort(rng.uniform(-0.05, 0.05, hyps))
        weights = rng.uniform(0.1, 1.0, hyps)
        weights /= weights.sum()
        b = float(rng.uniform(-0.05, 0.05))
        out = qsme.grid_filter_records(ops, p, b, hypotheses, weights, seed, records, 1e-8, n)
        ref = grid_records_reference(ops, p, b, hypotheses, weights, seed, records, 1e-8, n)
        # records, walks, means, weights, each against the size of its terms
        for a, c, scale in zip(out, ref, (J * 1e-8, J, np.max(np.abs(hypotheses)), 1.0)):
            assert a.shape == c.shape
            assert np.max(np.abs(a - c)) <= 1e-12 * scale

    @settings(max_examples=25, deadline=None)
    @given(two_j=st.integers(1, 8), records=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           b=st.floats(-0.05, 0.05), n=st.integers(1, 30))
    def test_grid_records_do_not_depend_on_record_count(self, two_j, records, seed, b, n):
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        dt = 1e-8
        full = _two_point_run(ops, p, b, seed, records, dt, n)
        part = _two_point_run(ops, p, b, seed, records - 1, dt, n)
        # records, walks, means and weights row by row, each against the
        # size of its terms: another stack shape moves them by rounding
        for a, c, scale in zip(full, part, (J * dt, J, abs(b), 1.0)):
            assert np.max(np.abs(a[:records - 1] - c)) <= 1e-12 * scale
