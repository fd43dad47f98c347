import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spintrack.errors import NumericalError, UnsupportedCaseError
from spintrack.model import DesignParams, PlantParams, Priors, build_system, fluctuating_plant
from spintrack import cli, riccati as ric

import closed_form_reference as closed_ref
from controller_reference import controller_riccati_steady
from rk4_reference import rk4_nonuniform

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "spintrack" / "scenarios"

FLUCT = fluctuating_plant(J=1e6, gamma=1e6, M=1e4, gamma_b=1e5, sigma_bfree=1.0)
CONST = PlantParams(J=1e6, gamma=1e6, M=1e4)
PRIOR = Priors(sigma_z0=5e5, sigma_b0=1.0)
INF = (math.inf, math.inf)
# a prior as a multiple of its scale: zero, infinite, or 1e-6 to 1e6
_PRIOR = st.sampled_from([0.0, math.inf]) | st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


def _closed(p, prior, times):
    """(sigma_zR, sigma_bR) of the closed form at each time."""
    return np.array([ric.analytic_sigma(p, prior, t) for t in times]).T


class TestNumericIntegration:
    def test_initial_condition_and_saturation(self):
        times = np.array([0.0, 1e-9, 5e-8])
        traj = ric.riccati_at_times(FLUCT, PRIOR, times)
        assert traj.sigma_bR[0] == 1.0
        assert traj.sigma_cR[0] == 0.0
        sz, _, sb = ric.exact_steady_sigma(FLUCT)
        assert traj.sigma_bR[-1] == pytest.approx(sb, rel=1e-6)
        assert traj.sigma_zR[-1] == pytest.approx(sz, rel=1e-6)

    def test_zero_prior_zero_field_stays_zero(self):
        p = CONST
        traj = ric.riccati_at_times(p, Priors(5e5, 0.0), np.geomspace(1e-9, 1e-5, 20))
        assert np.all(traj.sigma_bR == 0.0)

    def test_matches_analytic_constant_field(self):
        times = np.geomspace(1e-8, 1e-4, 31)
        traj = ric.riccati_at_times(CONST, PRIOR, times)
        _, ana = _closed(CONST, PRIOR, times)
        assert np.max(np.abs(traj.sigma_bR / ana - 1.0)) < 1e-6

    def test_uniform_grid_output(self):
        traj = ric.integrate_estimator_riccati(FLUCT, PRIOR, dt=1e-10, T=1e-8)
        assert len(traj.t) == 101
        assert np.allclose(np.diff(traj.t), 1e-10)

    def test_psd_everywhere(self):
        times = np.geomspace(1e-10, 1e-4, 50)
        traj = ric.riccati_at_times(FLUCT, PRIOR, times)
        assert np.all(traj.sigma_zR >= 0)
        assert np.all(traj.sigma_bR >= 0)
        assert np.all(traj.sigma_cR ** 2 <= traj.sigma_zR * traj.sigma_bR * (1 + 1e-12))

    def test_field_error_nonincreasing_constant_field(self):
        times = np.geomspace(1e-10, 1e-4, 60)
        traj = ric.riccati_at_times(CONST, PRIOR, times)
        assert np.all(np.diff(traj.sigma_bR) <= 1e-12)


class TestAnalyticForms:
    def test_zero_field_prior(self):
        assert ric.analytic_sigma(CONST, (5e5, 0.0), 1e-5)[1] == 0.0

    def test_reference_transient_value(self):
        # 12 sigma_M / (gamma^2 J^2 t^3) at t = 1e-5 for the headline numbers
        val = ric.analytic_sigma(CONST, PRIOR, 1e-5)[1]
        assert val == pytest.approx(3.0e-13, rel=0.01)
        asym = ric.analytic_sigma(CONST, INF, 1e-5)[1]
        assert val == pytest.approx(asym, rel=1e-4)
        # the mismatch verb's shipped reference point keeps the bits of
        # the separate late-time law
        assert asym == closed_ref.transient_sigma_b(CONST, 1e-5, CONST.J)

    def test_center_entry_approaches_asymptote(self):
        # cross-check the full expression against the late-time law
        for t in [3e-6, 1e-5, 3e-5]:
            full = ric.analytic_sigma(CONST, PRIOR, t)[1]
            asym = ric.analytic_sigma(CONST, INF, t)[1]
            assert abs(full / asym - 1.0) < 1e-4

    def test_zero_spin_prior_limit_is_4x_better(self):
        t = 1e-5
        finite = ric.analytic_sigma(CONST, (5e5, math.inf), t)[1]
        zero = ric.analytic_sigma(CONST, (0.0, math.inf), t)[1]
        assert finite / zero == pytest.approx(4.0, rel=1e-4)

    def test_infinite_priors_consistent_with_large_finite(self):
        t = 1e-5
        lim = ric.analytic_sigma(CONST, (5e5, math.inf), t)[1]
        big = ric.analytic_sigma(CONST, (5e5, 1e12), t)[1]
        assert lim == pytest.approx(big, rel=1e-3)

    def test_sigma_z_no_field(self):
        t = 1e-6
        sz0, sm = 5e5, CONST.sigma_M
        val = ric.analytic_sigma(CONST, (sz0, 0.0), t)[0]
        assert val == pytest.approx(sz0 * sm / (sm + sz0 * t), rel=1e-12)

    def test_sigma_z_initial_condition(self):
        assert ric.analytic_sigma(CONST, PRIOR, 0.0)[0] == pytest.approx(5e5)

    def test_sigma_z_field_uncertainty_costs_4x(self):
        t = 1e-4  # t >> sigma_M / sigma_z0
        with_field = ric.analytic_sigma(CONST, (5e5, math.inf), t)[0]
        without = ric.analytic_sigma(CONST, (5e5, 0.0), t)[0]
        assert with_field / without == pytest.approx(4.0, rel=1e-3)

    def test_limits_rederived_from_center_entry(self):
        # table limit entries must be limits of the general expression
        t = 2e-6
        assert ric.analytic_sigma(CONST, (1e14, 1.0), t)[0] == pytest.approx(
            ric.analytic_sigma(CONST, (math.inf, 1.0), t)[0], rel=1e-6)
        assert ric.analytic_sigma(CONST, (1e-12, 1.0), t)[1] == pytest.approx(
            ric.analytic_sigma(CONST, (0.0, 1.0), t)[1], rel=1e-4)

    def test_fluctuating_field_rejected(self):
        with pytest.raises(UnsupportedCaseError):
            ric.analytic_sigma(FLUCT, PRIOR, 1e-5)

    @pytest.mark.parametrize("t", [1e-75, 1e-70, 1e70])
    def test_extreme_times_keep_their_value(self, t):
        # t^4 and D stay normal floats: the late-time law to rounding
        law = 12.0 * CONST.sigma_M / ((CONST.gamma * CONST.J) ** 2 * t ** 3)
        assert ric.analytic_sigma(CONST, INF, t)[1] == pytest.approx(law, rel=1e-14)

    @pytest.mark.parametrize("t", [1e-80, 1e-81, 1e75, 1e80, 1e110])
    def test_times_out_of_float_range_raise(self, t):
        # 1e-80: subnormal t^4 (off by 1e-5); 1e-81: D = 0; 1e75: D = inf
        # (the result read 0.0); 1e80, 1e110: t ** 4, t ** 3 overflow
        with pytest.raises(NumericalError, match=re.escape(f"at t = {t:.6e}")):
            ric.analytic_sigma(CONST, INF, t)
        # a numpy time takes the same float path, without a RuntimeWarning
        with pytest.raises(NumericalError, match=re.escape(f"at t = {t:.6e}")):
            ric.analytic_sigma(CONST, INF, np.float64(t))

    @settings(max_examples=300, deadline=None)
    @given(j=st.floats(0.0, 8.0), gamma=st.floats(2.0, 8.0), m=st.floats(0.0, 6.0),
           z0=_PRIOR, b0=_PRIOR, span=st.floats(-4.0, 4.0))
    @example(j=6.0, gamma=6.0, m=4.0, z0=1.0, b0=1.0, span=0.0)
    def test_homogeneous_form_is_the_case_by_case_reference(self, j, gamma, m, z0, b0, span):
        # finite positive priors: the reference's operations in its order,
        # so the same bits.  A zero or infinite prior: the reference's limit
        # expression rounds differently; 1.5 million random draws over
        # these ranges measured at most 4.23 eps relative (spin error, zero
        # spin prior), so the bound is twice that, and below the
        # first-order count of both sides' roundings (about 11 eps there)
        p = PlantParams(J=10 ** j, gamma=10 ** gamma, M=10 ** m)
        prior = (p.J / 2.0 * z0, b0)
        t = (p.sigma_M / (p.gamma * p.J) ** 2) ** (1.0 / 3.0) * 10 ** span
        got = ric.analytic_sigma(p, prior, t)
        want = (closed_ref.analytic_sigma_z(p, prior, t),
                closed_ref.analytic_sigma_b(p, prior, t))
        if all(0.0 < v < math.inf for v in prior):
            assert np.array(got).tobytes() == np.array(want).tobytes()
        else:
            for g, w in zip(got, want):
                assert abs(g - w) <= 8.0 * np.finfo(float).eps * abs(w)
        assert ric.analytic_sigma(p, prior, 0.0) == prior


class TestSteadyState:
    def test_reference_gain(self):
        g = ric.steady_state_gains(FLUCT, DesignParams(J_prime=1e6, lam=0.1))
        assert g.K_O[0] == pytest.approx(4.23e8, rel=2e-3)

    def test_gain_matches_riccati_saturation(self):
        g = ric.steady_state_gains(FLUCT, DesignParams(J_prime=1e6, lam=0.0))
        traj = ric.riccati_at_times(FLUCT, PRIOR, np.array([5e-8]))
        k1 = traj.sigma_zR[-1] / FLUCT.sigma_M
        k2 = traj.sigma_cR[-1] / FLUCT.sigma_M
        assert k1 == pytest.approx(g.K_O[0], rel=1e-3)
        assert k2 == pytest.approx(g.K_O[1], rel=1e-3)

    def test_saturated_variances(self):
        g = ric.steady_state_gains(FLUCT, DesignParams(J_prime=1e6))
        assert g.sigma_bS == pytest.approx(9.46e-4, rel=5e-3)
        assert g.sigma_zS == pytest.approx(1.06e4, rel=5e-3)
        traj = ric.riccati_at_times(FLUCT, PRIOR, np.array([5e-8]))
        assert traj.sigma_bR[-1] == pytest.approx(g.sigma_bS, rel=5e-3)

    def test_constant_field_rejected(self):
        with pytest.raises(UnsupportedCaseError):
            ric.steady_state_gains(CONST, DesignParams(J_prime=1e6))

    def test_controller_gain_limits(self):
        assert np.array_equal(ric.controller_gain(FLUCT, DesignParams(J_prime=1e6, lam=0.0)),
                              np.zeros(2))
        kc = ric.controller_gain(CONST, DesignParams(J_prime=1e6, lam=2.5))
        assert np.allclose(kc, [2.5, 1.0])
        k_small = ric.controller_gain(FLUCT, DesignParams(J_prime=1e6, lam=1e-3))[1]
        k_big = ric.controller_gain(FLUCT, DesignParams(J_prime=1e6, lam=10.0))[1]
        assert k_small < k_big < 1.0

    def test_controller_riccati_matches_closed_form(self):
        d = DesignParams(J_prime=1e6, lam=0.1)
        num = controller_riccati_steady(FLUCT, d)
        ref = ric.controller_gain(FLUCT, d)
        assert np.max(np.abs(num / ref - 1.0)) < 1e-8

    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0, 10.0])
    def test_controller_riccati_is_the_reference_rk4_bit_for_bit(self, lam):
        d = DesignParams(J_prime=1e6, lam=lam)
        a, gb, lam2 = FLUCT.gamma * d.J_prime, FLUCT.gamma_b, lam ** 2
        h = 0.02 / (a * lam)

        def rhs(t, x):
            v1, vc, v2 = x
            return np.array([lam2 - (a * v1) ** 2,
                             a * v1 - gb * vc - a * a * v1 * vc,
                             2.0 * (a * vc - gb * v2) - (a * vc) ** 2])

        steps = int(math.ceil((30.0 / (a * lam)) / h))
        v1, vc, _ = rk4_nonuniform(rhs, [0.0, 0.0, 0.0], np.arange(steps + 1) * h)[-1]
        assert np.array_equal(controller_riccati_steady(FLUCT, d), [a * v1, a * vc])


class TestRk4FixedPoint:
    """The loop copies a step that returns its input bit for bit, and every
    following step up to the next longer one, without computing them."""

    def test_a_longer_step_leaves_the_fixed_point(self):
        # a derivative whose unit step stays below half an ulp of x = 1
        # (1.1e-16) and whose step of 1.5 does not
        times = np.cumsum([0.0, 1.0, 1.0, 0.5, 1.0, 1.5, 1.0, 100.0])
        got = ric._rk4_triple(lambda x, y, z: (1e-16, 0.0, -0.0), (1.0, 2.0, 0.0), times)
        ref = rk4_nonuniform(lambda t, x: np.array([1e-16, 0.0, -0.0]), [1.0, 2.0, 0.0], times)
        assert got.tobytes() == ref.tobytes()
        assert got[-1, 0] > got[-3, 0] > got[0, 0] == got[4, 0]

    def test_a_sign_flip_of_zero_is_a_change(self):
        # -0.0 + 0.0 is +0.0: equal as numbers, not as bits
        times = np.arange(6.0)
        got = ric._rk4_triple(lambda x, y, z: (0.0, 0.0, 0.0), (-0.0, 1.0, 1.0), times)
        ref = rk4_nonuniform(lambda t, x: np.zeros(3), [-0.0, 1.0, 1.0], times)
        assert got.tobytes() == ref.tobytes()
        assert math.copysign(1.0, got[1, 0]) == 1.0


class TestLinearized:
    def test_t_zero_returns_prior(self):
        sig = ric.linearized_riccati_curve(CONST, PRIOR, [0.0])
        assert (sig.sigma_zR[0], sig.sigma_cR[0], sig.sigma_bR[0]) == (5e5, 0.0, 1.0)

    def test_constant_field_matches_analytic(self):
        sig = ric.linearized_riccati_curve(CONST, PRIOR, [1e-5])
        ana_z, ana_b = ric.analytic_sigma(CONST, PRIOR, 1e-5)
        assert sig.sigma_bR[0] == pytest.approx(ana_b, rel=1e-8)
        assert sig.sigma_zR[0] == pytest.approx(ana_z, rel=1e-8)

    def test_fluctuating_matches_rk4(self):
        t = 5.0 / (2.0 * 2.115e8)
        sig = ric.linearized_riccati_curve(FLUCT, PRIOR, [t])
        traj = ric.riccati_at_times(FLUCT, PRIOR, np.array([t]))
        assert sig.sigma_bR[0] == pytest.approx(traj.sigma_bR[-1], rel=1e-6)

    def test_curve_matches_pointwise_solver(self):
        # walking the grid incrementally agrees with one solve per time
        times = np.geomspace(1e-8, 1e-4, 7)
        curve = ric.linearized_riccati_curve(FLUCT, PRIOR, times)
        for i, t in enumerate(times):
            sig = ric.linearized_riccati_curve(FLUCT, PRIOR, [t])
            assert curve.sigma_bR[i] == pytest.approx(sig.sigma_bR[0], rel=1e-9)

    @pytest.mark.parametrize("prior", [(math.inf, 1.0), (5e5, math.inf)])
    def test_closed_form_takes_infinite_priors(self, prior):
        # the numeric routes take a Priors, which rejects them
        # (test_model.py::TestValidation::test_priors_finite); the closed
        # form takes them as limits
        assert all(map(math.isfinite, ric.analytic_sigma(CONST, prior, 1e-8)))


class TestThreeRouteAgreement:
    def test_pairwise_agreement_constant_field(self):
        times = np.geomspace(1e-8, 1e-4, 17)
        rk4 = ric.riccati_at_times(CONST, PRIOR, times)
        lin = ric.linearized_riccati_curve(CONST, PRIOR, times)
        ana_z, ana_b = _closed(CONST, PRIOR, times)
        for series in (rk4.sigma_bR, lin.sigma_bR):
            assert np.max(np.abs(series / ana_b - 1.0)) < 1e-6
        for series in (rk4.sigma_zR, lin.sigma_zR):
            assert np.max(np.abs(series / ana_z - 1.0)) < 1e-6

    def test_pairwise_agreement_fluctuating(self):
        times = np.geomspace(1e-9, 1e-5, 9)
        rk4 = ric.riccati_at_times(FLUCT, PRIOR, times)
        lin = ric.linearized_riccati_curve(FLUCT, PRIOR, times)
        assert np.max(np.abs(lin.sigma_bR / rk4.sigma_bR - 1.0)) < 1e-6
        assert np.max(np.abs(lin.sigma_zR / rk4.sigma_zR - 1.0)) < 1e-6



def _cov_matrix(traj, i):
    return np.array([[traj.sigma_zR[i], traj.sigma_cR[i]], [traj.sigma_cR[i], traj.sigma_bR[i]]])


def _assert_routes_agree(p, prior, times):
    """Linearized route against RK4 within 1e-6, both positive semidefinite."""
    lin = ric.linearized_riccati_curve(p, prior, times)
    rk4 = ric.riccati_at_times(p, prior, times)
    for series, ref in ((lin.sigma_zR, rk4.sigma_zR), (lin.sigma_bR, rk4.sigma_bR)):
        assert np.max(np.abs(series / ref - 1.0)) < 1e-6
    for traj in (lin, rk4):
        for i in range(len(times)):
            eig = np.linalg.eigvalsh(_cov_matrix(traj, i))
            assert eig[0] >= -1e-12 * eig[1]
    return lin


def _assert_rk4_rows_are_the_reference(p, prior, times):
    """riccati_at_times against the reference RK4 on the same internal
    grid, bit for bit; returns the trajectory."""
    gj, gamma_b, sigma_bf, inv_sm = p.gamma * p.J, p.gamma_b, p.sigma_bF, 1.0 / p.sigma_M

    def rhs(t, x):
        sz, sc, sb = x
        return np.array([2.0 * gj * sc - sz * sz * inv_sm,
                         gj * sb - gamma_b * sc - sz * sc * inv_sm,
                         sigma_bf - 2.0 * gamma_b * sb - sc * sc * inv_sm])

    sz0, sb0 = prior.sigma_z0, prior.sigma_b0
    grid = ric._internal_times(p, sz0, sb0, float(times.max()), times)
    ref = rk4_nonuniform(rhs, [sz0, 0.0, sb0], grid)[np.searchsorted(grid, times)]
    traj = ric.riccati_at_times(p, prior, times)
    assert np.array_equal(np.column_stack([traj.sigma_zR, traj.sigma_cR, traj.sigma_bR]), ref)
    return traj


_LOG = st.floats(-1.0, 1.0)   # decades around a reference value
# The regime around the paper's J = gamma = 1e6, M = 1e4, where RK4's 1%
# schedule holds 1e-6: at corners of the wide ranges (J = 10 with
# gamma = 1e7 and M = 100) it misses the closed forms by up to 6e-5,
# while the linearized route stays exact there (the _WIDE tests).
_PAPER = dict(j=st.floats(4.0, 7.0), gamma=st.floats(5.5, 6.5), m=st.floats(3.0, 5.0))
_WIDE = dict(j=st.floats(1.0, 7.0), gamma=st.floats(4.0, 7.0), m=st.floats(2.0, 5.0))


def _fluctuating(j, gamma, m, gb, sbf):
    """Plant with gamma_b = 10**gb times the saturated gain K_O1, and that gain."""
    p0 = PlantParams(J=10 ** j, gamma=10 ** gamma, M=10 ** m, sigma_bF=10 ** sbf)
    rate = ric.exact_steady_sigma(p0)[0] / p0.sigma_M
    return PlantParams(J=p0.J, gamma=p0.gamma, M=p0.M, gamma_b=rate * 10 ** gb,
                       sigma_bF=p0.sigma_bF), rate


class TestRouteProperties:
    @settings(max_examples=40, deadline=None)
    @given(gb=st.floats(-3.0, 0.0), sbf=st.floats(-2.0, 6.0), z0=_LOG, b0=_LOG,
           span=st.floats(0.0, 1.5), **_PAPER)
    def test_fluctuating_field_routes_agree(self, j, gamma, m, gb, sbf, z0, b0, span):
        p, rate = _fluctuating(j, gamma, m, gb, sbf)
        prior = Priors(p.J / 2.0 * 10 ** z0, p.sigma_bF / (2.0 * p.gamma_b) * 10 ** b0)
        _assert_routes_agree(p, prior, np.geomspace(1e-4, 30.0 * 10 ** span, 25) / rate)

    @settings(max_examples=20, deadline=None)
    @given(gb=st.floats(-3.0, 0.0), sbf=st.floats(-2.0, 6.0), z0=_LOG, b0=_LOG,
           span=st.floats(-1.0, 0.5), **_PAPER)
    # a span of 300 / rate: the covariance reaches its exact fixed point and
    # about 1,350 of the 2,400 steps are copied rather than computed
    @example(j=6.0, gamma=6.0, m=4.0, gb=0.0, sbf=0.0, z0=0.0, b0=0.0, span=2.0)
    def test_rk4_rows_are_the_reference_rk4_bit_for_bit(self, j, gamma, m, gb, sbf, z0, b0,
                                                         span):
        # the float-buffer RK4 loop does the reference's operations in the
        # reference's order on the same internal grid
        p, rate = _fluctuating(j, gamma, m, gb, sbf)
        prior = Priors(p.J / 2.0 * 10 ** z0, p.sigma_bF / (2.0 * p.gamma_b) * 10 ** b0)
        _assert_rk4_rows_are_the_reference(p, prior, np.geomspace(1e-4, 3.0 * 10 ** span, 12) / rate)

    def test_a_time_inside_a_copied_step_keeps_the_reference_rows(self):
        # a required time splits one capped step deep in the stationary
        # tail into two shorter steps, both inside the copied stretch
        p, rate = _fluctuating(6.0, 6.0, 4.0, 0.0, 0.0)
        prior = Priors(p.J / 2.0, p.sigma_bF / (2.0 * p.gamma_b))
        times = np.geomspace(1e-4, 300.0, 12) / rate
        grid = ric._internal_times(p, prior.sigma_z0, prior.sigma_b0, float(times.max()), times)
        split = 0.5 * (grid[-20] + grid[-19])
        assert grid[-19] - grid[-20] == grid[-20] - grid[-21]   # a capped step
        traj = _assert_rk4_rows_are_the_reference(p, prior, np.sort(np.append(times, split)))
        assert traj.sigma_bR[-2] == traj.sigma_bR[-1]

    def test_stationary_tail_is_copied_not_stepped(self, monkeypatch):
        # the shipped fluctuating scenario: 85,491 steps, all but about 800
        # of them exact fixed points of the RK4 step
        sc = cli.parse_scenario(str(SCENARIOS / "riccati_fluctuating.scn"))
        p = cli.build_plant(sc)
        calls = []
        rk4 = ric._rk4_triple

        def counted(rhs, x0, times):
            def rhs_counted(*x):
                calls.append(None)
                return rhs(*x)
            return rk4(rhs_counted, x0, times)

        monkeypatch.setattr(ric, "_rk4_triple", counted)
        ric.riccati_at_times(p, cli.build_priors(sc, p), np.geomspace(sc["dt"], sc["T"], 241))
        assert 0 < len(calls) <= 4000

    @settings(max_examples=60, deadline=None)
    @given(gb=st.floats(-3.0, 1.0), sbf=st.floats(-4.0, 4.0), z0=_LOG, b0=_LOG, **_WIDE)
    def test_fluctuating_field_saturates_at_the_exact_steady_state(self, j, gamma, m, gb, sbf,
                                                                  z0, b0):
        p, rate = _fluctuating(j, gamma, m, gb, sbf)
        prior = Priors(p.J / 2.0 * 10 ** z0, p.sigma_bF / (2.0 * p.gamma_b) * 10 ** b0)
        times = np.geomspace(1e-4, 1e3, 30) / min(rate, p.gamma_b)
        lin = ric.linearized_riccati_curve(p, prior, times)
        for i in range(len(times)):
            eig = np.linalg.eigvalsh(_cov_matrix(lin, i))
            assert eig[0] >= -1e-12 * eig[1]
        sz, sc, sb = ric.exact_steady_sigma(p)
        assert lin.sigma_zR[-1] == pytest.approx(sz, rel=1e-9)
        assert lin.sigma_cR[-1] == pytest.approx(sc, rel=1e-9)
        assert lin.sigma_bR[-1] == pytest.approx(sb, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(z0=_LOG, b0=st.floats(-3.0, 1.0), span=st.floats(-1.0, 1.0), **_PAPER)
    def test_constant_field_routes_agree_with_closed_forms(self, j, gamma, m, z0, b0, span):
        p = PlantParams(J=10 ** j, gamma=10 ** gamma, M=10 ** m)
        prior = Priors(p.J / 2.0 * 10 ** z0, 10 ** b0)
        times = np.geomspace(1e-2, 1e4 * 10 ** span, 25) * p.sigma_M / prior.sigma_z0
        lin = _assert_routes_agree(p, prior, times)
        ana_z, ana_b = _closed(p, prior, times)
        assert np.max(np.abs(lin.sigma_bR / ana_b - 1.0)) < 1e-6
        assert np.max(np.abs(lin.sigma_zR / ana_z - 1.0)) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(z0=_LOG, b0=st.floats(-6.0, 2.0), span=st.floats(-1.0, 1.0), **_WIDE)
    def test_constant_field_jump_matches_closed_forms(self, j, gamma, m, z0, b0, span):
        p = PlantParams(J=10 ** j, gamma=10 ** gamma, M=10 ** m)
        prior = Priors(p.J / 2.0 * 10 ** z0, 10 ** b0)
        times = np.geomspace(1e-2, 1e4 * 10 ** span, 25) * p.sigma_M / prior.sigma_z0
        lin = ric.linearized_riccati_curve(p, prior, times)
        ana_z, ana_b = _closed(p, prior, times)
        assert np.max(np.abs(lin.sigma_bR / ana_b - 1.0)) < 1e-9
        assert np.max(np.abs(lin.sigma_zR / ana_z - 1.0)) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(z0=_LOG, b0=st.floats(-6.0, 2.0), span=st.floats(-1.0, 1.0), **_WIDE)
    def test_constant_field_jump_matches_50_digits(self, j, gamma, m, z0, b0, span):
        # the cubic jump of the nilpotent H against mpmath's exponential of
        # the same float H, with W U^-1 formed at 50 digits too
        p = PlantParams(J=10 ** j, gamma=10 ** gamma, M=10 ** m)
        prior = Priors(p.J / 2.0 * 10 ** z0, 10 ** b0)
        times = np.geomspace(1e-2, 1e4 * 10 ** span, 25) * p.sigma_M / prior.sigma_z0
        lin = ric.linearized_riccati_curve(p, prior, times)
        a, _, c, sigma1 = build_system(p)
        h = np.block([[a, sigma1], [c.T @ c / p.sigma_M, -a.T]])
        with mpmath.workdps(50):
            start = mpmath.matrix([[prior.sigma_z0, 0], [0, prior.sigma_b0], [1, 0], [0, 1]])
            for k, t in enumerate(times):
                wu = mpmath.expm(mpmath.matrix(h.tolist()) * mpmath.mpf(t)) * start
                ref = np.array((wu[:2, :] * wu[2:, :] ** -1).tolist(), dtype=np.float64)
                scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
                assert np.max(np.abs(_cov_matrix(lin, k) - ref) / scale) < 1e-14

    @settings(max_examples=20, deadline=None)
    @given(j=st.floats(4.0, 7.0), gb=st.floats(1.0, 6.0), z0=_LOG, horizon=st.floats(-1.0, 1.5))
    def test_decaying_field_jump_agrees_with_rk4(self, j, gb, z0, horizon):
        # sigma_bF = 0 < gamma_b: the single jump from the prior
        p = PlantParams(J=10 ** j, gamma=1e6, M=1e4, gamma_b=10 ** gb)
        _assert_routes_agree(p, Priors(p.J / 2.0 * 10 ** z0, 1.0),
                             np.geomspace(1e-3, 10 ** horizon, 20) / p.gamma_b)

    def test_repeated_eigenvalue_needs_no_special_case(self):
        # gamma J sqrt(sigma_bF / sigma_M) = gamma_b^2 / 2: the closed-loop
        # filter matrix has a double eigenvalue and the Hamiltonian block is
        # defective, which an eigenvector form of Vaughan's solution cannot
        # represent (measured: O(1) errors there)
        p0 = PlantParams(J=1e3, gamma=1e3, M=1e2, sigma_bF=1.0)
        gb = math.sqrt(2.0 * p0.gamma * p0.J * math.sqrt(p0.sigma_bF / p0.sigma_M))
        p = PlantParams(J=p0.J, gamma=p0.gamma, M=p0.M, gamma_b=gb, sigma_bF=p0.sigma_bF)
        _assert_routes_agree(p, Priors(p.J / 2.0, p.sigma_bF / (2.0 * gb)),
                             np.geomspace(1e-3, 30.0, 40) / gb)

    def test_decaying_field_past_the_jump_horizon_is_unsupported(self):
        p = PlantParams(J=1e6, gamma=1e6, M=1e4, gamma_b=1e5)
        times = np.array([1e-4, 2e-3, 3.5e-3, 4e-3])
        with pytest.raises(UnsupportedCaseError, match=f"t = {3.5e-3:.6e}"):
            ric.linearized_riccati_curve(p, PRIOR, times)
