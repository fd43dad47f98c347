import inspect
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
from spintrack.numerics import trial_normals
from grid_reference import grid_records_reference, posterior_reference
from sse_reference import (euler_step, exact_step_reference, jz_mean, kernel_step,
                           ramp_ensemble_reference, shifted_kpsi, sse_step)


def _dense(ops):
    """Dense complex (Jx, Jy, Jz) built from the ladder amplitudes."""
    d = ops.dim
    jp = np.zeros((d, d))
    jp[np.arange(d - 1), np.arange(1, d)] = ops.amp
    return 0.5 * (jp + jp.T) + 0j, -0.5j * (jp - jp.T), np.diag(ops.mz) + 0j


def _moment(psi, op):
    return float(np.real(psi @ op @ psi))


def _step(psi, b, ops, p, dt, dw):
    """One step of a single state in field b on the record it emits with
    the raw noise dw; returns (psi', ydt)."""
    ydt = float(jz_mean(psi[None], ops.mz)[0] * dt + math.sqrt(p.sigma_M) * dw)
    return sse_step(psi[None], b, ydt, ops, p, dt)[0], ydt


def _two_point(ops, p, dt, b0, records=1, n=1):
    """A stacked two-hypothesis grid, +-b0, with its truth rows in +b0."""
    return qsme.StateStack(ops, p, dt, np.array([b0, -b0, b0]), records, n)


def _two_point_run(ops, p, b0, seed, records, dt, n, F):
    """grid_filter_records on the two-hypothesis grid of _two_point."""
    return qsme.grid_filter_records(ops, p, b0, np.array([-b0, b0]), np.array([0.5, 0.5]),
                                    seed, records, dt, n, F)


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


def _nan_draw(k):
    """trial_normals with draw k of every stream replaced by NaN."""
    def draws(*args):
        out = trial_normals(*args)
        out[:, k] = math.nan
        return out
    return draws


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
            psi, _ = _step(psi, 1e-3, ops, p, 1e-9, rng.normals_at(k, 1)[0] * math.sqrt(1e-9))
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
                psi, _ = _step(psi, 1e-3, ops, p, dt, rng.normals_at(k, 1)[0] * math.sqrt(dt))
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
        qsme.propagate_grid(grid, np.full(1, math.nan))
        assert np.all(np.isnan(grid.psi))
        with pytest.raises(InstabilityError, match="norm"):
            grid.check()

    def test_failures_name_the_time(self, monkeypatch):
        ops = qsme.spin_operators(5.0)
        p = PlantParams(J=5.0, gamma=1e6, M=1e4)
        dt, k = 1e-9, 7
        # a NaN draw: the states, stepped before the posterior, fail first;
        # a step sums the F draws its suite declares
        F = qsme._TWO_POINT_F
        monkeypatch.setattr(qsme, "trial_normals", _nan_draw(F * k + 2))
        with pytest.raises(InstabilityError, match=f"norm.*t = {k * dt:.6e}"):
            _two_point_run(ops, p, 1e-3, 1, 2, dt, 12, F)
        for F in (qsme._VARIANCE_TRACKING_F, qsme._RAMP_STATISTICS_F):
            monkeypatch.setattr(qsme, "trial_normals", _nan_draw(F * k))
            with pytest.raises(InstabilityError, match=f"t = {k * dt:.6e}"):
                qsme.simulate_ramp_ensemble(ops, p, 1e-3, 1, 2, dt, 12, F)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_norm_failure_at_any_step_names_its_time(self, monkeypatch, where):
        # the norms are checked once, after the loop: a failure at the
        # first, a middle or the last step names that step
        ops = qsme.spin_operators(2.0)
        p = PlantParams(J=2.0, gamma=1e6, M=1e4)
        dt, n = 1e-9, 276
        k = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        named = f"norm.*t = {re.escape(f'{k * dt:.6e}')}"
        # the last draw of step k, and the first, at each suite's F
        F = qsme._GRID_KALMAN_F
        monkeypatch.setattr(qsme, "trial_normals", _nan_draw(F * k + F - 1))
        with pytest.raises(InstabilityError, match=named):
            _two_point_run(ops, p, 1e-3, 1, 2, dt, n, F)
        for F in (qsme._VARIANCE_TRACKING_F, qsme._RAMP_STATISTICS_F):
            monkeypatch.setattr(qsme, "trial_normals", _nan_draw(F * k))
            with pytest.raises(InstabilityError, match=named):
                qsme.simulate_ramp_ensemble(ops, p, 1e-3, 1, 2, dt, n, F)

    def test_inefficient_measurement_rejected(self):
        # a state conditioned on an inefficient measurement is mixed
        ops = qsme.spin_operators(2.0)
        p = PlantParams(J=2.0, gamma=1e6, M=1e4, eta=0.5)
        with pytest.raises(UnsupportedCaseError, match="eta"):
            qsme.propagate_grid(_two_point(ops, p, 1e-9, 1e-3), np.zeros(1))
        with pytest.raises(UnsupportedCaseError, match="eta"):
            _two_point_run(ops, p, 1e-3, 1, 2, 1e-9, 3, 4)
        with pytest.raises(UnsupportedCaseError, match="eta"):
            qsme.simulate_ramp_ensemble(ops, p, 0.0, 1, 2, 1e-9, 3, 4)

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
                                                             np.zeros(1)),
            "grid_filter_records": lambda dt: _two_point_run(ops, p, 1e-3, 1, 2, dt, 1, 4),
            "simulate_ramp_ensemble": lambda dt: qsme.simulate_ramp_ensemble(
                ops, p, 1e-3, 1, 2, dt, 1, 4),
        }
        for name, call in entry_points.items():
            call(ok_dt)
            with pytest.raises(ConfigurationError, match="too large"):
                call(bad_dt)
                pytest.fail(f"{name} took a step above the guard")

    def test_precession_sign_matches_state_space_model(self):
        # positive field must push <Jz> up at rate gamma <Jx> h; a vanishing
        # M keeps the measurement out of it, and the rotation is exact:
        # <Jz> = J sin(gamma h dt)
        ops = qsme.spin_operators(8.0)
        p = PlantParams(J=8.0, gamma=1e6, M=1e-12)
        b = 1e-3
        out, _ = _step(qsme.coherent_state_x(8.0), b, ops, p, 1e-9, 0.0)
        jz = float(jz_mean(out[None], ops.mz)[0])
        assert jz == pytest.approx(8.0 * math.sin(p.gamma * b * 1e-9), rel=1e-9)


class TestBayesGrid:
    def test_uninformative_measurement_keeps_weights(self):
        # norms equal across hypotheses at every step: every factor of a
        # record is the same, so the prior holds at every time
        _, prior = qsme._gaussian_hypotheses(1e-6, 11)
        rng = np.random.default_rng(3)
        norms = np.repeat(rng.uniform(1e-3, 1.0, (40, 2, 1)), 11, axis=2)
        w = qsme.bayes_grid_update(norms, prior, 1e-8)
        assert w.shape == (41, 2, 11)
        assert np.allclose(w, prior)

    def test_posterior_mean_of_symmetric_grid(self):
        ops = qsme.spin_operators(2.0)
        p = PlantParams(J=2.0, gamma=1e6, M=1e4)
        hypotheses, weights = qsme._gaussian_hypotheses(1e-6, 21)
        _, _, means, _ = qsme.grid_filter_records(ops, p, 0.0, hypotheses, weights, 1, 2,
                                                  1e-8, 1, 4)
        assert np.max(np.abs(means[:, 0])) <= 1e-15

    def test_degenerate_posterior_detected(self):
        # the check is per record and names the first step after which some
        # record's weights all vanish or turn non-finite: one bad record
        # among three, in the middle of a run as at its start
        dt, n, k = 1e-9, 12, 7
        prior = np.array([0.25, 0.75])
        norms = np.full((n, 3, 2), 0.5)
        vanish = norms.copy()
        vanish[k, 1, 0] = 0.0
        vanish[k - 2, 1, 1] = 0.0   # one vanishing hypothesis alone is no failure
        vanish[k + 2, 0] = 0.0      # a later failure of another record is not named
        nan_record = norms.copy()
        nan_record[k:, 2] = math.nan
        for norms_k, prior_k, step in ((vanish, prior, k), (nan_record, prior, k),
                                       (norms, np.zeros(2), 0)):
            message = f"degenerated (step at t = {step * dt:.6e})"
            with pytest.raises(NumericalError, match=re.escape(message)):
                qsme.bayes_grid_update(norms_k, prior_k, dt)

    def test_grid_propagation_matches_scalar_path(self):
        ops = qsme.spin_operators(2.0)
        p = PlantParams(J=2.0, gamma=1e6, M=1e4)
        grid = _two_point(ops, p, 1e-8, 2e-3, records=2)
        psi = grid.psi.copy()
        ydt = np.array([3e-7, -1e-7])   # each record's increment, for its three rows
        qsme.propagate_grid(grid, ydt)
        # b_values lists the rows group by group: truth, then -b0, then +b0
        for i, b in enumerate(grid.b_values):
            g, r = divmod(i, 2)
            ref = sse_step(psi[g, r][None], b, ydt[r], ops, p, 1e-8)[0]
            assert np.max(np.abs(grid.psi[g, r] - ref)) < 1e-13

    def test_hypothesis_rows_do_not_see_the_truth_rows(self):
        # the truth rows share the stack but not a bit of the hypotheses'
        # work: a stack of the hypothesis rows alone, stepped on the
        # records the grid run emitted, gives its posterior bit for bit
        ops = qsme.spin_operators(3.0)
        p = PlantParams(J=3.0, gamma=1e6, M=1e4)
        hypotheses, weights = qsme._gaussian_hypotheses(4e-6, 7)
        dt, n = 1e-8, 60
        ydts, _, means, finals = qsme.grid_filter_records(ops, p, 2e-3, hypotheses, weights,
                                                          5, 2, dt, n, 4)
        alone = qsme.StateStack(ops, p, dt, hypotheses, 2, n)
        for k in range(n):
            alone.step(np.ascontiguousarray(ydts[:, k]))
        w = qsme.bayes_grid_update(alone.norms.transpose(0, 2, 1), weights, dt)
        assert np.array_equal((w @ hypotheses).T, means)
        assert np.array_equal(w[n], finals)

    def test_truth_rows_do_not_see_the_hypotheses(self):
        # the truth rows share the record loop's stack with any hypothesis
        # set, and emit the same records and walks bit for bit
        ops = qsme.spin_operators(3.0)
        p = PlantParams(J=3.0, gamma=1e6, M=1e4)
        dt, n = 1e-8, 60
        runs = [qsme.grid_filter_records(ops, p, 2e-3, *qsme._gaussian_hypotheses(4e-6, points),
                                         5, 2, dt, n, 4) for points in (2, 7)]
        for few, many in zip(runs[0][:2], runs[1][:2]):
            assert np.array_equal(few, many)


class TestSuites:
    @pytest.mark.parametrize("call, match", [
        (lambda: qsme.suite_two_point(records=0), "records must be at least 1"),
        (lambda: qsme.suite_grid_kalman(records=0), "records must be at least 1"),
        (lambda: qsme.suite_variance_tracking(trajectories=1), "trajectories must be at least 2"),
        (lambda: qsme.suite_ramp_statistics(trajectories=1), "trajectories must be at least 2"),
        (lambda: qsme.suite_grid_kalman(points=1), "at least two hypotheses"),
        (lambda: qsme.suite_two_point(T=0.0), "T of at least one step"),
        (lambda: qsme.suite_jx_decay(dt=0.0), "dt and T must be positive"),
        (lambda: qsme.suite_variance_tracking(T=-1e-5), "dt and T must be positive"),
        (lambda: qsme.suite_grid_kalman(dt=math.nan), "dt and T must be positive"),
        (lambda: qsme.suite_ramp_statistics(dt=1e-8, T=4e-9), "T of at least one step"),
        (lambda: qsme.suite_two_point(dt=1e-30), r"suite_two_point: T / dt = 1e\+26 steps"),
        (lambda: qsme.simulate_ramp_ensemble(qsme.spin_operators(1.0), PlantParams(
            J=1.0, gamma=1e6, M=1e4), 0.0, 1, 0, 1e-9, 3, 1), "trajectories must be at least 1"),
        (lambda: qsme.simulate_ramp_ensemble(qsme.spin_operators(1.0), PlantParams(
            J=1.0, gamma=1e6, M=1e4), 0.0, 1, 2, 1e-9, 0, 1), "n must be at least 1"),
        (lambda: qsme.simulate_ramp_ensemble(qsme.spin_operators(1.0), PlantParams(
            J=1.0, gamma=1e6, M=1e4), 0.0, 1, 2, 1e-9, 3, 0), "F must be at least 1"),
        (lambda: _two_point_run(qsme.spin_operators(1.0), PlantParams(J=1.0, gamma=1e6, M=1e4),
                                1e-3, 1, 2, 1e-9, 3, 0), "F must be at least 1"),
    ], ids=["two_point-records", "grid_kalman-records", "variance_tracking-trajectories",
            "ramp_statistics-trajectories", "grid_kalman-points", "two_point-T", "jx_decay-dt",
            "variance_tracking-T", "grid_kalman-dt", "ramp_statistics-T", "two_point-index",
            "simulate-trajectories", "simulate-n", "simulate-F", "grid-F"])
    def test_degenerate_sizes_rejected(self, call, match):
        # each crashed inside numpy, returned NaN standard errors, or
        # reported on zero steps; the suites size their runs by step_count
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
        (qsme.suite_two_point, {"dt": 2e-8, "T": 2e-7}),
        (qsme.suite_grid_kalman, {"dt": 1e-8, "T": 1e-7, "points": 5}),
    ], ids=["two_point", "grid_kalman"])
    def test_one_sse_update_per_step(self, monkeypatch, suite, sizes):
        # the truth and hypothesis rows of every record step as one stack,
        # and one posterior pass follows the time loop
        calls, posteriors = [], []
        update, posterior = qsme.StateStack.step, qsme.bayes_grid_update

        def counted(stack, *args):
            calls.append(stack.psi.shape[:2])
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
            assert calls == [(1 + hyps, records)] * n
            assert posteriors == [(n, records, hyps)]

    def test_qnd_ensemble_matches_scalar_steps(self):
        # the batched simulator at b = 0 is the QND ensemble; a step sums
        # the F draws that variance_tracking declares
        ops = qsme.spin_operators(3.0)
        p = PlantParams(J=3.0, gamma=1e6, M=1e4)
        n, F = 40, qsme._VARIANCE_TRACKING_F
        ydts, walks, _ = qsme.simulate_ramp_ensemble(ops, p, 0.0, seed=9, trajectories=2,
                                                     dt=1e-8, n=n, F=F)
        from spintrack.numerics import trial_stream
        for traj in range(2):
            rng = trial_stream(9, traj)
            psi = qsme.coherent_state_x(3.0)
            dws = rng.normals_at(0, F * n).reshape(n, F).sum(axis=1) * math.sqrt(1e-8 / F)
            for k in range(n):
                psi, ydt = _step(psi, 0.0, ops, p, 1e-8, dws[k])
                assert ydts[traj, k] == pytest.approx(ydt, rel=1e-12, abs=1e-20)
            jz = float(jz_mean(psi[None], ops.mz)[0])
            assert walks[traj, -1] == pytest.approx(jz, abs=1e-10)


def _dJz2_move(coarse, fine, F):
    """The largest move of the averaged variance on the shared times,
    relative to the predicted curve."""
    return {"dJz2": np.max(np.abs(coarse["dJz2"] - fine["dJz2"][::F]) / coarse["predicted"])}


def _ramp_moves(coarse, fine, F):
    """The moves of the slope deviation, and of the intercept variance in
    units of its band."""
    return {"slope_dev": abs(coarse["slope_dev"] - fine["slope_dev"]),
            "var": abs(coarse["var_measured"] - fine["var_measured"]) / coarse["var_band"]}


class TestDeclaredSteps:
    # each stochastic suite at its declared F against F = 1, the run at the
    # draw step dt / F on the same draws, at a reduced size.  The bounds sit
    # just above the moves at the declared F (in brackets); at twice the
    # declared F, variance_tracking, two_point and ramp_statistics exceed a
    # bound, so a coarser F cannot move a verdict unseen
    @pytest.mark.parametrize("name, sizes, moves, bounds", [
        ("variance_tracking", {"trajectories": 50}, _dJz2_move,
         {"dJz2": 1.2e-4}),                                  # [8.6e-5]
        ("two_point", {"records": 2, "T": 2e-5},
         lambda c, f, F: {"finals": np.max(np.abs(np.subtract(c["finals"], f["finals"])))},
         {"finals": 6e-4}),                                  # [4.9e-4]
        ("grid_kalman", {"records": 1, "T": 5e-6},
         lambda c, f, F: {"devs": np.max(np.abs(np.subtract(c["devs"], f["devs"])))},
         {"devs": 1e-4}),                                    # [6.3e-5]
        ("ramp_statistics", {"trajectories": 100}, _ramp_moves,
         {"slope_dev": 5e-4, "var": 0.03}),                  # [1.7e-4, 0.022]
    ], ids=["variance_tracking", "two_point", "grid_kalman", "ramp_statistics"])
    def test_declared_step_moves_values_within_bounds(self, monkeypatch, name, sizes, moves,
                                                      bounds):
        suite = getattr(qsme, f"suite_{name}")
        F = getattr(qsme, f"_{name.upper()}_F")
        dt = inspect.signature(suite).parameters["dt"].default
        coarse = suite(**sizes)
        monkeypatch.setattr(qsme, f"_{name.upper()}_F", 1)
        fine = suite(dt=dt / F, **sizes)
        assert coarse["passed"] == fine["passed"]
        measured = moves(coarse, fine, F)
        assert all(measured[k] <= bounds[k] for k in bounds), measured


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(two_j=st.integers(1, 12), batch=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
           h=st.floats(-2e-3, 2e-3), signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=4,
                                                    max_size=4),
           dt_frac=st.floats(0.01, 1.0))
    def test_kernel_matches_textbook_step(self, two_j, batch, seed, h, signs, dt_frac):
        # with dW = +-sqrt(dt) the (dW^2 - dt) term of the textbook step
        # vanishes, and psi psi^T after one exact step on the record
        # <Jz> dt + sqrt(sigma_M) dW differs from the textbook rho step by
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
            out = sse_step(psi, hs, jz * dt + math.sqrt(p.sigma_M) * dws, ops, p, dt)
            err = max(np.max(np.abs(np.outer(out[i], out[i]) - _textbook_step(
                np.outer(psi[i], psi[i]), hs[i], dws[i], ops, p, dt))) for i in range(batch))
            scaled.append(err / dt ** 1.5)
        assert 0.8 <= scaled[1] / scaled[0] <= 1.2

    @settings(max_examples=25, deadline=None)
    @given(two_j=st.integers(1, 8), batch=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           b=st.floats(-0.05, 0.05), n=st.integers(1, 30), F=st.integers(1, 16))
    def test_records_do_not_depend_on_batch_size(self, two_j, batch, seed, b, n, F):
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        dt = 1e-8
        full = qsme.simulate_ramp_ensemble(ops, p, b, seed, batch, dt, n, F)
        part = qsme.simulate_ramp_ensemble(ops, p, b, seed, batch - 1, dt, n, F)
        for a, c in zip(full[:2], part[:2]):   # records and <Jz> walks, row by row
            scale = np.max(np.abs(a[:batch - 1]))
            assert np.max(np.abs(a[:batch - 1] - c)) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(two_j=st.integers(1, 12), batch=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           h=st.floats(-0.05, 0.05), dt_frac=st.floats(0.01, 0.99))
    def test_kernel_matches_reference(self, two_j, batch, seed, h, dt_frac):
        # the shifted exponent, the rotation after the norm is taken and
        # one rotation per field of a stack: the step moves by rounding
        # only, and the recorded norms by the shift's factor
        # exp(-2 M ydt^2 / dt), one per record
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        dt = dt_frac * 0.5 / (p.M * ops.dim)
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(batch, ops.dim))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        hs = h * rng.uniform(-1.0, 1.0, batch)
        ydt = jz_mean(psi, ops.mz) * dt + math.sqrt(p.sigma_M * dt) * rng.normal(size=batch)
        # the rows as the groups of one record, in the record's increment ydt[0]
        out, norms = kernel_step(psi[:, None], hs, ydt[:1], ops, p, dt)
        ref, ref_norms = exact_step_reference(psi, hs, np.full(batch, ydt[0]), ops, p, dt)
        assert np.max(np.abs(out[:, 0] - ref)) <= 1e-14
        assert np.allclose(norms[:, 0], ref_norms * math.exp(-2.0 * p.M * ydt[0] ** 2 / dt),
                           rtol=1e-13, atol=0.0)
        # each row alone, on its own increment
        ref = exact_step_reference(psi, hs, ydt, ops, p, dt)[0]
        assert np.max(np.abs(sse_step(psi, hs, ydt, ops, p, dt) - ref)) <= 1e-14
        # K acts on a row as the shifted ladder products, relative to the
        # size of the two terms of each entry
        scale = np.max(np.abs(psi) @ np.abs(ops.K))
        assert np.max(np.abs(psi @ ops.K - shifted_kpsi(psi, ops.amp))) <= 1e-15 * scale

    @settings(max_examples=25, deadline=None)
    @given(two_j=st.integers(1, 8), trajectories=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
           b=st.floats(-0.05, 0.05), n=st.integers(1, 30), F=st.integers(1, 16))
    def test_ramp_loop_matches_per_step_reference(self, two_j, trajectories, seed, b, n, F):
        # records formed after the loop and the mean as add.reduce / count
        # give the bits of one record column and one np.mean per step
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        out = qsme.simulate_ramp_ensemble(ops, p, b, seed, trajectories, 1e-8, n, F)
        ref = ramp_ensemble_reference(ops, p, b, seed, trajectories, 1e-8, n, F)
        for a, c in zip(out, ref):   # records, <Jz> walks, mean_djz2
            assert np.array_equal(a, c)

    @settings(max_examples=25, deadline=None)
    @given(two_j=st.integers(1, 8), rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           b=st.floats(-0.05, 0.05), n=st.integers(1, 20), F=st.integers(1, 16))
    def test_records_lie_on_the_fine_path(self, two_j, rows, seed, b, n, F):
        # a trajectory run and a grid run at dt both sum in runs of F the
        # record noise that a trajectory run at the draw step dt / F draws,
        # and their truth rows walk as lone states stepped on the records
        # they emit
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        dt = 4e-8
        fine_ydts, fine_walks, _ = qsme.simulate_ramp_ensemble(ops, p, b, seed, rows, dt / F,
                                                               F * n, 1)
        fine_noise = (fine_ydts - fine_walks[:, :-1] * (dt / F)).reshape(rows, n, F).sum(axis=2)
        scale = math.sqrt(p.sigma_M * dt)
        runs = (qsme.simulate_ramp_ensemble(ops, p, b, seed, rows, dt, n, F),
                _two_point_run(ops, p, b, seed, rows, dt, n, F))
        for ydts, walks, *_ in runs:
            assert np.max(np.abs(ydts - walks[:, :-1] * dt - fine_noise)) <= 1e-12 * scale
            for r in range(rows):
                psi = qsme.coherent_state_x(J)[None, None]
                for k in range(n):
                    psi = kernel_step(psi, [b], ydts[r, k:k + 1], ops, p, dt)[0]
                    assert abs(jz_mean(psi[0], ops.mz)[0] - walks[r, k + 1]) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), records=st.integers(1, 4), hyps=st.integers(2, 6),
           n=st.integers(60, 150), zeros=st.integers(0, 6))
    def test_posterior_matches_sequential_reference(self, seed, records, hyps, n, zeros):
        # random squared norms in (0.1, 1.9), a few vanishing ones, and per
        # record one hypothesis with norms of 1e-12..1e-9 or 1e9..1e12: its
        # log-weight leaves the others by more than 1e3, and a plain
        # product of its norms overflows
        rng = np.random.default_rng(seed)
        norms = rng.uniform(0.1, 1.9, (n, records, hyps))
        sign = rng.choice([-1.0, 1.0], (1, records))
        norms[:, :, -1] = 10.0 ** (sign * rng.uniform(9.0, 12.0, (n, records)))
        vanished = []
        if hyps >= 3:   # never the first hypothesis or the extreme one, so every record lives
            for _ in range(zeros):
                k, r, h = rng.integers(n), rng.integers(records), rng.integers(1, hyps - 1)
                norms[k, r, h] = 0.0
                vanished.append((k, r, h))
        prior = rng.uniform(0.1, 1.0, hyps)
        prior /= prior.sum()
        spread = np.cumsum(np.log(norms[:, :, [0, -1]]), axis=0)[-1]
        assert np.all(np.abs(spread[:, 1] - spread[:, 0]) > 1e3)
        w = qsme.bayes_grid_update(norms, prior, 1e-9)
        assert w.shape == (n + 1, records, hyps)
        assert np.all(np.isfinite(w))
        assert np.max(np.abs(w - posterior_reference(norms, prior))) <= 1e-12
        for k, r, h in vanished:
            assert np.all(w[k + 1:, r, h] == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(two_j=st.integers(1, 8), hyps=st.integers(2, 6), records=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), F=st.integers(1, 16))
    def test_stacked_grid_matches_per_record_reference(self, two_j, hyps, records, seed, n, F):
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
        out = qsme.grid_filter_records(ops, p, b, hypotheses, weights, seed, records, 1e-8, n, F)
        ref = grid_records_reference(ops, p, b, hypotheses, weights, seed, records, 1e-8, n, F)
        # records, walks, means, weights, each against the size of its terms
        for a, c, scale in zip(out, ref, (J * 1e-8, J, np.max(np.abs(hypotheses)), 1.0)):
            assert a.shape == c.shape
            assert np.max(np.abs(a - c)) <= 1e-12 * scale

    @settings(max_examples=25, deadline=None)
    @given(two_j=st.integers(1, 8), records=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           b=st.floats(-0.05, 0.05), n=st.integers(1, 30), F=st.integers(1, 16))
    def test_grid_records_do_not_depend_on_record_count(self, two_j, records, seed, b, n, F):
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        dt = 1e-8
        full = _two_point_run(ops, p, b, seed, records, dt, n, F)
        part = _two_point_run(ops, p, b, seed, records - 1, dt, n, F)
        # records, walks, means and weights row by row, each against the
        # size of its terms: another stack shape moves them by rounding
        for a, c, scale in zip(full, part, (J * dt, J, abs(b), 1.0)):
            assert np.max(np.abs(a[:records - 1] - c)) <= 1e-12 * scale


class TestExactStep:
    @settings(max_examples=40, deadline=None)
    @given(two_j=st.integers(1, 12), records=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 12), dt_frac=st.floats(0.01, 0.99))
    def test_zero_field_steps_compose(self, two_j, records, seed, n, dt_frac):
        # at h = 0 the measurement maps commute: n steps equal one step of
        # n dt on the summed record, and the recorded log-norms sum to the
        # log-likelihood of the increments under the initial mixture over
        # m, log sum_m psi_m^2 exp(-2 M sum_k (ydt_k - m dt)^2 / dt)
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        dt = dt_frac * 0.5 / (p.M * ops.dim * n)
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(1, records, ops.dim))
        psi /= np.linalg.norm(psi, axis=2)[:, :, None]
        ydts = rng.uniform(-J, J, records) * dt + math.sqrt(p.sigma_M * dt) * rng.normal(
            size=(n, records))
        stack = qsme.StateStack(ops, p, dt, [0.0], records, n)
        stack.psi[...] = psi
        for ydt in ydts:
            stack.step(ydt)
        stack.check()
        once = kernel_step(psi, [0.0], ydts.sum(axis=0), ops, p, n * dt)[0]
        assert np.max(np.abs(stack.psi - once)) <= 1e-12
        exponent = -2.0 * p.M / dt * ((ydts[:, :, None] - ops.mz * dt) ** 2).sum(axis=0)
        shift = exponent.max(axis=1)
        loglik = np.log(np.sum(psi[0] ** 2 * np.exp(exponent - shift[:, None]), axis=1)) + shift
        assert np.allclose(np.log(stack.norms[:, 0]).sum(axis=0), loglik, rtol=1e-11, atol=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(two_j=st.integers(1, 12), groups=st.integers(1, 3), records=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_zero_field_step_is_measure_then_normalize(self, two_j, groups, records, seed):
        # every stack rotates, and at h = 0 the rotation is exactly the
        # identity: a step is the measurement factor, the squared norm and
        # the division by the norm, bit for bit
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        dt = 0.25 / (p.M * ops.dim)
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(groups, records, ops.dim))
        psi /= np.linalg.norm(psi, axis=2)[:, :, None]
        ydt = rng.uniform(-J, J, records) * dt + math.sqrt(p.sigma_M * dt) * rng.normal(
            size=records)
        stepped, norms = kernel_step(psi, np.zeros(groups), ydt, ops, p, dt)
        measured = psi * np.exp(np.subtract.outer(ydt, ops.mz * dt) ** 2 * (-p.M / dt))
        norm2 = np.einsum("gri,gri->gr", measured, measured)
        assert np.array_equal(norms, norm2)
        assert np.array_equal(stepped, measured / np.sqrt(norm2)[:, :, None])

    @settings(max_examples=40, deadline=None)
    @given(two_j=st.integers(1, 16), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           fields=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4))
    def test_rotation_preserves_norm_and_is_exact(self, two_j, seed, n, fields):
        # fields of up to a radian per step: the rotation keeps every norm
        # at 1, and with the measurement switched off a coherent state
        # turns by exactly gamma h dt per step, <Jz> = J sin(n gamma h dt)
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        dt = 1e-7
        fields = np.array(fields) / (1e6 * dt * 5.0)
        rng = np.random.default_rng(seed)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        stack = qsme.StateStack(ops, p, dt, fields, 2, n)
        for _ in range(n):
            stack.step(math.sqrt(p.sigma_M * dt) * rng.normal(size=2))
            assert np.max(np.abs(np.einsum("gri,gri->gr", stack.psi, stack.psi) - 1.0)) <= 1e-13
        quiet = qsme.StateStack(ops, PlantParams(J=J, gamma=1e6, M=1e-30), dt, fields, 1, n)
        for _ in range(n):
            quiet.step(np.zeros(1))
        angle = p.gamma * fields * n * dt
        assert np.allclose(jz_mean(quiet.psi[:, 0], ops.mz), J * np.sin(angle), rtol=0.0,
                           atol=1e-12 * J)

    @settings(max_examples=30, deadline=None)
    @given(two_j=st.integers(1, 8), groups=st.integers(1, 4), records=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20))
    def test_results_do_not_depend_on_stacking(self, two_j, groups, records, seed, n):
        # a (groups, records) stack against every row stepped in a stack of
        # its own: the states and the recorded norms move by rounding only
        J = two_j / 2.0
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        dt = 1e-8
        rng = np.random.default_rng(seed)
        fields = rng.uniform(-0.05, 0.05, groups)
        ydts = math.sqrt(p.sigma_M * dt) * rng.normal(size=(n, records))
        psi = rng.normal(size=(groups, records, ops.dim))
        psi /= np.linalg.norm(psi, axis=2)[:, :, None]
        stack = qsme.StateStack(ops, p, dt, fields, records, n)
        stack.psi[...] = psi
        for ydt in ydts:
            stack.step(ydt)
        for g in range(groups):
            for r in range(records):
                alone = qsme.StateStack(ops, p, dt, fields[g:g + 1], 1, n)
                alone.psi[...] = psi[g, r]
                for ydt in ydts[:, r:r + 1]:
                    alone.step(ydt)
                assert np.max(np.abs(alone.psi[0, 0] - stack.psi[g, r])) <= 1e-13
                assert np.allclose(alone.norms[:, 0, 0], stack.norms[:, g, r], rtol=1e-13, atol=0)


class TestSharedPathConvergence:
    def test_exact_step_converges_and_beats_euler(self):
        # one Brownian path of fine increments at h = 1e-9, summed into
        # steps of 4h ... 32h; each step size simulates its own truth row
        # and two hypotheses +-b0 on it.  Against the exact step at h, the
        # root mean square over 8 records of the error in the final
        # log-odds falls at least about linearly in the step, and the
        # Ito-Euler step with its factors 1 + 4 M <Jz> ydt is worse at
        # every step
        J, b0, h, T, records = 2.0, 0.05, 1e-9, 2e-5, 8
        ops = qsme.spin_operators(J)
        p = PlantParams(J=J, gamma=1e6, M=1e4)
        fine = trial_normals(11, np.arange(records), int(round(T / h)))
        fine *= math.sqrt(p.sigma_M * h)
        factors = np.array([4, 8, 16, 32])
        ref = _exact_log_odds(ops, p, b0, fine, h)
        exact, euler = (np.array([np.sqrt(np.mean((run(ops, p, b0, coarse, h * f) - ref) ** 2))
                                  for f, coarse in ((f, _coarsen(fine, f)) for f in factors)])
                        for run in (_exact_log_odds, _euler_log_odds))
        slope = np.polyfit(np.log(factors), np.log(exact), 1)[0]
        assert slope >= 0.8, (exact, slope)
        assert np.all(exact < euler), (exact, euler)


def _coarsen(noise, factor):
    """Each run of factor increments of the (records, n) noise summed."""
    records, n = noise.shape
    return noise.reshape(records, n // factor, factor).sum(axis=2)


def _exact_log_odds(ops, p, b0, noise, dt):
    """Final log-odds of +b0 over -b0 per record: a grid whose truth rows
    in +b0 emit y dt = <Jz> dt + noise[:, k], stepped by the kernel."""
    records, n = noise.shape
    grid = _two_point(ops, p, dt, b0, records, n)
    for k in range(n):
        qsme.propagate_grid(grid, jz_mean(grid.psi[0], ops.mz) * dt + noise[:, k])
    grid.check()
    lognorms = np.log(grid.norms).sum(axis=0)
    return lognorms[2] - lognorms[1]


def _euler_log_odds(ops, p, b0, noise, dt):
    """_exact_log_odds with the Ito-Euler step and its likelihood factors."""
    records, n = noise.shape
    psi = np.tile(qsme.coherent_state_x(ops.J), (3 * records, 1))
    fields = np.tile([b0, -b0, b0], records)
    log_odds = np.zeros(records)
    for k in range(n):
        ydt = jz_mean(psi[0::3], ops.mz) * dt + noise[:, k]
        psi, factors = euler_step(psi, fields, np.repeat(ydt, 3), ops, p, dt)
        log_odds += np.log(factors[2::3]) - np.log(factors[1::3])
    return log_odds
