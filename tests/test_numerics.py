import math
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from spintrack import numerics
from spintrack.errors import ConfigurationError, DimensionError, DivergenceError
from spintrack.numerics import (RngStream, geometric_times, mat_expm, ou_increment,
                                trial_normals, trial_stream)

from ou_reference import ou_increment_50_digits, ou_increment_gl
from rk4_reference import rk4_nonuniform
from rng_reference import reference_normals


class TestMatExpm:
    def test_zero_matrix_gives_identity(self):
        assert np.allclose(mat_expm(np.zeros((2, 2))), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        out = mat_expm(np.diag([1.0, -2.0]))
        assert np.allclose(out, np.diag([math.e, math.exp(-2.0)]), rtol=1e-13)

    def test_nilpotent_series_truncates(self):
        out = mat_expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)

    def test_commuting_product_property(self):
        a = np.diag([0.3, -1.2])
        b = np.diag([2.0, 0.7])
        lhs = mat_expm(a + b)
        rhs = mat_expm(a) @ mat_expm(b)
        assert np.allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("norm", [0.1, 3.0, 40.0])
    def test_against_scipy(self, norm):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        a *= norm / np.linalg.norm(a, 1)
        ref = scipy.linalg.expm(a)
        assert np.allclose(mat_expm(a), ref, rtol=1e-11, atol=1e-11 * np.linalg.norm(ref))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            mat_expm(np.zeros((2, 3)))

    def test_stack_is_per_matrix(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(3, 4, 4))
        out = mat_expm(stack)
        for a, e in zip(stack, out):
            assert np.array_equal(e, mat_expm(a))


def _uniform(t1: float, dt: float) -> np.ndarray:
    return np.linspace(0.0, t1, int(round(t1 / dt)) + 1)


class TestOdeRk4:
    def test_zero_field_constant(self):
        xs = rk4_nonuniform(lambda t, x: 0.0 * x, np.array([2.0, -1.0]), _uniform(1.0, 0.1))
        assert np.allclose(xs[-1], [2.0, -1.0])

    def test_linear_decay(self):
        xs = rk4_nonuniform(lambda t, x: -x, np.array([1.0]), _uniform(1.0, 1e-3))
        assert abs(xs[-1, 0] - math.exp(-1.0)) < 1e-8

    def test_quadrature_of_cosine(self):
        xs = rk4_nonuniform(lambda t, x: np.array([math.cos(t)]), np.array([0.0]),
                            _uniform(2.0, 1e-3))
        assert abs(xs[-1, 0] - math.sin(2.0)) < 1e-8

    def test_fourth_order_convergence(self):
        def err(dt):
            xs = rk4_nonuniform(lambda t, x: -x, np.array([1.0]), _uniform(1.0, dt))
            return abs(xs[-1, 0] - math.exp(-1.0))

        assert err(0.02) / err(0.01) >= 8.0

    def test_lands_exactly_on_t1(self):
        # a shortened last step lands on the final grid time
        xs = rk4_nonuniform(lambda t, x: -x, np.array([1.0]), [0.0, 0.3, 0.6, 0.9, 1.0])
        assert xs.shape == (5, 1)
        assert abs(xs[-1, 0] - math.exp(-1.0)) < 1e-4

    def test_divergence_reports_time(self):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="t ="):
            rk4_nonuniform(lambda t, x: x * x * 1e8, np.array([1.0]), _uniform(10.0, 0.5))


class TestEulerMaruyama:
    def test_wiener_variance_growth(self):
        # identity diffusion: Var[x(T)] = T, Monte Carlo over 10^4 paths
        trials, n, dt = 10_000, 64, 1.0 / 64.0
        draws = trial_normals(99, np.arange(trials), n) * math.sqrt(dt)
        x_final = draws.sum(axis=1)
        var = x_final.var(ddof=1)
        se = math.sqrt(2.0 / trials)  # relative s.e. of a variance estimate
        assert abs(var - 1.0) < 3.0 * se


def _documented_draw(seed, trial, i):
    """Normal draw i of trial stream (seed, trial), in plain integers from the
    layout documented in ``numerics``."""
    mask = (1 << 64) - 1

    def mix(x):
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & mask
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & mask
        return x ^ (x >> 31)

    state0 = mix(mix(seed & mask) ^ trial)
    out = [mix((state0 + (j + 1) * 0x9E3779B97F4A7C15) & mask) for j in (2 * i, 2 * i + 1)]
    u1 = ((out[0] >> 11) + 1) * 2.0**-53
    u2 = (out[1] >> 11) * 2.0**-53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


class TestRngStream:
    def test_bitwise_reproducible(self):
        a = RngStream(42).normals_at(0, 1000)
        b = RngStream(42).normals_at(0, 1000)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(RngStream(1).normals_at(0, 100), RngStream(2).normals_at(0, 100))

    def test_trial_matrix_matches_streams(self):
        mat = trial_normals(11, np.arange(4), 6)
        for k in range(4):
            assert np.array_equal(mat[k], trial_stream(11, k).normals_at(0, 6))

    def test_trial_matrix_random_access(self):
        full = trial_normals(5, np.arange(3), 10)
        tail = trial_normals(5, np.arange(3), 4, start=6)
        assert np.array_equal(full[:, 6:], tail)

    def test_nearby_seeds_give_disjoint_ensembles(self):
        # pooled ensemble statistics must differ between adjacent seeds
        a = np.sort(trial_normals(1, np.arange(500), 1).ravel())
        b = np.sort(trial_normals(2, np.arange(500), 1).ravel())
        assert not np.allclose(a, b)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           trials=st.lists(st.integers(0, 2**62), min_size=1, max_size=40),
           start=st.integers(0, 2**40), n=st.integers(0, 70),
           block=st.sampled_from([1, 5, 64, numerics._BLOCK_NORMALS]))
    def test_trial_matrix_is_stream_draws_bit_for_bit(self, seed, trials, start, n, block):
        # small block sizes leave partial row blocks at every trial count
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_BLOCK_NORMALS", block)
            mat = trial_normals(seed, np.array(trials), n, start=start)
        assert mat.shape == (len(trials), n)
        for row, k in zip(mat, trials):
            ref = reference_normals(trial_stream(seed, k).seed, start, n)
            assert np.array_equal(row.view(np.uint64), ref.view(np.uint64))
            for i in ([0, n - 1] if n else []):
                # scalar libm may differ from numpy's SIMD log/cos in the last bit
                assert math.isclose(row[i], _documented_draw(seed, k, start + i),
                                    rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2**40),
           block=st.sampled_from([1, 5, 64, 300]), data=st.data())
    def test_stream_is_reference_bit_for_bit(self, seed, start, block, data):
        # a small block cuts one stream into position tiles with a partial last tile
        n = data.draw(st.integers(0, 3 * block), label="n")
        pieces = data.draw(st.lists(st.integers(0, 2 * block), max_size=6), label="pieces")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_BLOCK_NORMALS", block)
            at = RngStream(seed).normals_at(start, n)
            # consecutive pieces, each read at its own position, join into one run
            stream, ends = RngStream(seed), np.cumsum([0] + pieces).tolist()
            taken = np.concatenate([np.empty(0)] + [stream.normals_at(lo, hi - lo)
                                                    for lo, hi in zip(ends, ends[1:])])
        assert at.shape == (n,)
        assert np.array_equal(at.view(np.uint64), reference_normals(seed, start, n).view(np.uint64))
        ref = reference_normals(seed, 0, sum(pieces))
        assert np.array_equal(taken.view(np.uint64), ref.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2**40),
           cpus=st.integers(1, 5), block=st.sampled_from([4, 7, 64]),
           tiles=st.sampled_from([1, 2, 3, 7, 12]), long=st.booleans(), pad=st.integers(0, 3),
           data=st.data())
    def test_threaded_tiles_are_reference_bit_for_bit(self, seed, start, cpus, block, tiles,
                                                      long, pad, data):
        # tile counts of 1, 2, odd and above the thread count, with a partial
        # last tile, in both layouts (one long stream cut along its positions,
        # many short streams grouped by rows), into a fresh or a strided out
        if long:
            n = data.draw(st.integers(block * (tiles - 1) + 1, block * tiles), label="n")
            count = 1
        else:
            n = data.draw(st.integers(1, block), label="n")
            rows = block // n
            count = data.draw(st.integers(rows * (tiles - 1) + 1, rows * tiles), label="count")
        trials = data.draw(st.lists(st.integers(0, 2**62), min_size=count, max_size=count),
                           label="trials")
        out = np.full((count, n + pad), np.inf)[:, :n] if pad else None
        before = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_BLOCK_NORMALS", block)
            mp.setattr(numerics, "_cpus", lambda: cpus)
            mat = trial_normals(seed, np.array(trials), n, start=start, out=out)
        assert threading.active_count() == before
        assert out is None or (mat is out and np.all(out.base[:, n:] == np.inf))
        for row, k in zip(mat, trials):
            ref = reference_normals(trial_stream(seed, k).seed, start, n)
            assert np.array_equal(row.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_a_failing_tile_reaches_the_caller(self, monkeypatch, where):
        stream = RngStream(3)
        mix = numerics._mix64_inplace

        def failing(x, tmp):
            if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
                raise RuntimeError(f"tile failed in the {where}")
            mix(x, tmp)

        monkeypatch.setattr(numerics, "_BLOCK_NORMALS", 8)
        monkeypatch.setattr(numerics, "_cpus", lambda: 2)
        monkeypatch.setattr(numerics, "_mix64_inplace", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=where):
            stream.normals_at(0, 40)
        assert threading.active_count() == before

    def test_out_of_the_wrong_shape_or_type_is_rejected(self):
        for out in (np.empty((3, 4)), np.empty((2, 5)), np.empty((2, 4), dtype=np.float32)):
            with pytest.raises(DimensionError, match="out is"):
                trial_normals(1, np.arange(2), 4, out=out)

    def test_moments(self):
        draws = RngStream(2024).normals_at(0, 200_000)
        assert abs(draws.mean()) < 3.0 / math.sqrt(200_000)
        assert abs(draws.var() - 1.0) < 3.0 * math.sqrt(2.0 / 200_000)


class TestOuIncrement:
    def test_scalar_ou_exact(self):
        phi, g = ou_increment(np.array([[-3.0]]), np.array([[2.0]]), 0.7)
        assert abs(phi[0, 0] - math.exp(-2.1)) < 1e-14
        assert abs(g[0, 0] - (2.0 / 6.0) * (1.0 - math.exp(-4.2))) < 1e-14

    def test_matrix_case_against_rk4(self):
        a = np.array([[-2.0, 1.0], [0.5, -3.0]])
        q = np.array([[1.0, 0.2], [0.2, 0.5]])
        phi, g = ou_increment(a, q, 0.4)
        p0 = np.array([[0.5, 0.0], [0.0, 0.2]])

        def rhs(t, p_flat):
            p = p_flat.reshape(2, 2)
            return (a @ p + p @ a.T + q).reshape(-1)

        states = rk4_nonuniform(rhs, p0.reshape(-1), _uniform(0.4, 1e-4))
        ref = states[-1].reshape(2, 2)
        assert np.allclose(phi @ p0 @ phi.T + g, ref, rtol=1e-9)

    def test_stiff_stable_generator(self):
        # enormous decay rate: increment must neither overflow nor lose PSD
        a = np.array([[-1e15, 0.0], [1e12, -1e14]])
        q = np.diag([1.0, 2.0])
        phi, g = ou_increment(a, q, 1e-5)
        assert np.all(np.isfinite(phi)) and np.all(np.isfinite(g))
        assert np.min(np.linalg.eigvalsh(g)) > -1e-12 * np.trace(g)

    @pytest.mark.parametrize("dt", [1e-5, 1e-4, 7.6e-4])
    def test_badly_scaled_generator_keeps_the_small_entries(self, dt):
        # the steady-gain error flow (b, z~-z, b~-b) of a field tracker
        # designed for J' = J / 88.5: its entries span gamma_b = 1e4 to
        # gamma (J' - J) = -8.75e13, and an unbalanced step kept only 5 to
        # 6 digits of G, on the scale sqrt(G_ii G_jj) of each entry
        k1, k2 = 2.37831423e8, 2.82818929e4
        a = np.array([[-1e4, 0.0, 0.0], [-8.75e13, -k1, 1e12], [0.0, -k2, -1e4]])
        b = np.array([[1.0, 0.0], [0.0, k1], [-1.0, k2]]) * [math.sqrt(2e4), 5e-3]
        _, g = ou_increment(a, b @ b.T, dt)
        _, g_ref = ou_increment_50_digits(a, b @ b.T, dt)
        scale = np.sqrt(np.outer(np.diag(g_ref), np.diag(g_ref)))
        assert np.max(np.abs(g - g_ref) / scale) <= 1e-9

    def test_zero_interval(self):
        phi, g = ou_increment(np.array([[-1.0]]), np.array([[1.0]]), 0.0)
        assert phi[0, 0] == 1.0 and g[0, 0] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(-2.0, 3.0),
           margin=st.floats(-2.0, 2.0), log_dt=st.floats(-6.0, 0.0))
    def test_van_loan_matches_quadrature(self, seed, scale, margin, log_dt):
        # random stable 4x4 generators and PSD intensities, dt from 1e-6 to 1
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4)) * 10 ** scale
        a -= (np.max(np.linalg.eigvals(a).real) + 10 ** margin * np.abs(a).max()) * np.eye(4)
        b = rng.normal(size=(4, 4))
        phi, g = ou_increment(a, b @ b.T, 10 ** log_dt)
        phi_ref, g_ref = ou_increment_gl(a, b @ b.T, 10 ** log_dt)
        assert np.max(np.abs(phi - phi_ref)) <= 1e-11 * np.max(np.abs(phi_ref))
        assert np.max(np.abs(g - g_ref)) <= 1e-11 * np.max(np.abs(g_ref))
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-12 * np.trace(g)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(-2.0, 3.0),
           steps=st.lists(st.integers(0, 9), max_size=6), top=st.integers(6, 12),
           fill=st.floats(0.7, 1.0))
    def test_stack_rows_equal_two_d_calls(self, seed, scale, steps, top, fill):
        # row k of a stacked call is the 2-D call on row k, bit for bit, with
        # one stack mixing matrices of 0 up to >= 6 doubling sub-steps:
        # ||alpha_k||_1 dt_k = 0.2 fill 2**s_k takes s_k of them (balancing,
        # which seldom moves such matrices, can only take fewer)
        steps = [0, *steps, top]
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(len(steps), 4, 4)) * 10 ** scale
        for ak in a:
            ak -= (np.max(np.linalg.eigvals(ak).real) + np.abs(ak).max()) * np.eye(4)
        b = rng.normal(size=(len(steps), 4, 4))
        q = b @ b.swapaxes(1, 2)
        dt = 0.2 * fill * 2.0 ** np.array(steps) / np.abs(a).sum(axis=1).max(axis=1)
        phi, g = ou_increment(a, q, dt)
        assert phi.shape == g.shape == a.shape
        for k in range(len(steps)):
            phi_k, g_k = ou_increment(a[k], q[k], dt[k])
            assert np.array_equal(phi[k], phi_k) and np.array_equal(g[k], g_k)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_norm=st.floats(-3.0, 3.0),
           log_q=st.floats(-30.0, 30.0), margin=st.floats(-2.0, 2.0))
    def test_pade_step_matches_50_digits(self, seed, log_norm, log_q, margin):
        # random stable 4x4 generators with ||alpha||_1 dt from 1e-3 to 1e3
        # (0 to 12 doubling sub-steps) and intensities over 60 decades, which
        # moves the power-of-two scale of the q block
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4))
        a -= (np.max(np.linalg.eigvals(a).real) + 10 ** margin * np.abs(a).max()) * np.eye(4)
        b = rng.normal(size=(4, 4))
        q = b @ b.T * 10 ** log_q
        dt = 10 ** log_norm / np.linalg.norm(a, 1)
        phi, g = ou_increment(a, q, dt)
        phi_ref, g_ref = ou_increment_50_digits(a, q, dt)
        assert np.max(np.abs(phi - phi_ref)) <= 1e-11 * np.max(np.abs(phi_ref))
        assert np.max(np.abs(g - g_ref)) <= 1e-11 * np.max(np.abs(g_ref))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.finfo(float).max])
    @pytest.mark.parametrize("arg", ["alpha", "q", "dt"])
    @pytest.mark.parametrize("stacked", [False, True])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_poisoned_matrix_stays_its_own(self, bad, arg, stacked, seed, data):
        # a non-finite entry, or a finite one whose step norm overflows
        # (the largest float, against dt > 1 and ||alpha||_1 > 1), gives NaN
        # (Phi, G) for its own matrix only: the others keep their clean bits
        rng = np.random.default_rng(seed)
        size = data.draw(st.integers(1, 6)) if stacked else 1
        a = rng.normal(size=(size, 3, 3))
        for ak in a:
            ak -= (np.max(np.linalg.eigvals(ak).real) + 1.0) * np.eye(3)
        b = rng.normal(size=(size, 3, 3))
        q = b @ b.swapaxes(1, 2)
        dt = 10 ** rng.uniform(0.1, 2.0, size)
        phi, g = ou_increment(a, q, dt)
        k = data.draw(st.integers(0, size - 1))
        args = {"alpha": a.copy(), "q": q.copy(), "dt": dt.copy()}
        args[arg][(k,) + (rng.integers(3), rng.integers(3)) * (arg != "dt")] = bad
        args = [args[name] if stacked else args[name][0] for name in ("alpha", "q", "dt")]
        phi_bad, g_bad = (np.reshape(x, phi.shape) for x in ou_increment(*args))
        assert np.isnan(phi_bad[k]).all() and np.isnan(g_bad[k]).all()
        rest = np.arange(size) != k
        assert np.array_equal(phi_bad[rest], phi[rest]) and np.array_equal(g_bad[rest], g[rest])

    def test_overflowing_nilpotent_generator_keeps_the_stack(self):
        # the largest float below the diagonal of a zero generator: its
        # Pade block would be exactly singular and fail the stacked solve
        a = np.stack([np.zeros((3, 3)), -np.eye(3)])
        a[0, 2, 0] = np.finfo(float).max
        q = np.stack([np.eye(3)] * 2)
        phi, g = ou_increment(a, q, 2.0)
        assert np.isnan(phi[0]).all() and np.isnan(g[0]).all()
        phi_1, g_1 = ou_increment(a[1], q[1], 2.0)
        assert np.array_equal(phi[1], phi_1) and np.array_equal(g[1], g_1)

    def test_stack_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ou_increment(np.zeros((3, 4, 4)), np.zeros((4, 4)), 1.0)


def _geometric_reference(t_end, g, t_offset, cap=math.inf):
    """The schedule recursion of ``geometric_times`` written plainly."""
    times = [0.0]
    t = 0.0
    while t < t_end:
        t = min(t + min(g * (t + t_offset), cap), t_end)
        times.append(t)
    return np.array(times)


@settings(max_examples=60, deadline=None)
@given(g=st.floats(1e-3, 0.5), log_offset=st.floats(-12.0, -6.0), span=st.floats(0.0, 5.0),
       capped=st.booleans(), log_cap=st.floats(0.5, 3.0))
@example(g=0.01, log_offset=-9.0, span=4.0, capped=True, log_cap=4.3)   # a capped tail of 2e4 steps
def test_geometric_times_is_the_plain_recursion(g, log_offset, span, capped, log_cap):
    t_offset = 10 ** log_offset
    t_end = t_offset * 10 ** span
    args = (t_end, g, t_offset) + ((t_end * 10 ** -log_cap,) if capped else ())
    ts = geometric_times(*args)
    assert np.array_equal(ts, _geometric_reference(*args))
    assert ts[-1] == t_end


def test_geometric_times_monotone_and_lands():
    ts = geometric_times(1e-4, 0.01, 1e-10)
    assert ts[0] == 0.0 and ts[-1] == 1e-4
    assert np.all(np.diff(ts) > 0)
    capped = geometric_times(1e-4, 0.01, 1e-10, cap=1e-6)
    assert capped[-1] == 1e-4 and np.max(np.diff(capped)) <= 1e-6
    assert np.array_equal(capped[:10], ts[:10])
    for g, offset, t_end in ((0.01, 0.0, 1e-4), (0.0, 1e-10, 1e-4), (0.01, 1e-10, math.inf)):
        with pytest.raises(ConfigurationError):   # would never reach t_end
            geometric_times(t_end, g, offset)
