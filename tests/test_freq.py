import math

import numpy as np
import pytest

from spintrack.errors import (ConfigurationError, InstabilityError, NumericalError,
                             UnsupportedCaseError)
from spintrack.model import DesignParams, PlantParams, fluctuating_plant
from spintrack.riccati import steady_state_gains
from spintrack import freq

FLUCT = fluctuating_plant(J=1e6, gamma=1e6, M=1e4, gamma_b=1e5, sigma_bfree=1.0)
DESIGN = DesignParams(J_prime=1e6, lam=0.2)


class TestRationalTF:
    def test_evaluation(self):
        tf = freq.RationalTF([1.0, 2.0], [1.0, 0.0, 1.0])  # (1+2s)/(1+s^2)
        val = tf(1j * 2.0)
        assert val == pytest.approx((1 + 4j) / (1 - 4.0))

    def test_keeps_small_leading_coefficients(self):
        # wide-range polynomials: the tiny quadratic coefficient dominates
        # at high frequency and must survive construction
        tf = freq.RationalTF([1e17], [1.00042e17, 1.00042e12, 1.0])
        assert len(tf.den) == 3
        assert abs(tf(1j * 1e14)) == pytest.approx(1e17 / 1e28, rel=1e-3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ConfigurationError):
            freq.RationalTF([1.0], [0.0])


class TestClosedLoopTFs:
    def test_matches_direct_resolvent(self):
        gz, gb, gu = freq.closed_loop_tfs(FLUCT, DESIGN)
        g = steady_state_gains(FLUCT, DESIGN)
        a = np.array([[0.0, 1e12], [0.0, -1e5]])
        b = np.array([1e12, 0.0])
        c = np.array([[1.0, 0.0]])
        ko = g.K_O.reshape(2, 1)
        kc = g.K_C.reshape(1, 2)
        for w in (1e4, 1e6, 4.2e8, 1e11):
            s = 1j * w
            m = s * np.eye(2) - a + np.outer(b, kc[0]) + ko @ c
            gm = np.linalg.solve(m, ko)
            assert gz(s) == pytest.approx(gm[0, 0], rel=1e-10)
            assert gb(s) == pytest.approx(gm[1, 0], rel=1e-10)
            assert gu(s) == pytest.approx((-kc @ gm)[0, 0], rel=1e-10)

    def test_dc_gain_limit(self):
        _, _, gu = freq.closed_loop_tfs(FLUCT, DESIGN)
        r = math.sqrt(FLUCT.sigma_bF / FLUCT.sigma_M)
        assert abs(gu(0.0).real) == pytest.approx(r / FLUCT.gamma_b, rel=0.05)

    def test_high_frequency_gain_limit(self):
        _, _, gu = freq.closed_loop_tfs(FLUCT, DesignParams(J_prime=1e6, lam=10.0))
        r = math.sqrt(FLUCT.sigma_bF / FLUCT.sigma_M)
        omega_h = math.sqrt(0.5e12 * r)
        expected = math.sqrt(2.0 * r / 1e12)
        assert abs(gu(1j * 10.0 * omega_h)) == pytest.approx(expected, rel=0.05)

    def test_estimation_tf_differs_with_control(self):
        _, gb_ctl, _ = freq.closed_loop_tfs(FLUCT, DesignParams(J_prime=1e6, lam=0.5))
        _, gb_off, _ = freq.closed_loop_tfs(FLUCT, DesignParams(J_prime=1e6, lam=1e-6))
        assert abs(gb_ctl(1j * 1e6)) != pytest.approx(abs(gb_off(1j * 1e6)), rel=1e-3)

    def test_shape_template(self):
        # |G_u| must follow G_uDC (1 + s/wH) / (1 + (1 + s/wQ) s/wL)
        d = DesignParams(J_prime=1e6, lam=0.2)
        _, _, gu = freq.closed_loop_tfs(FLUCT, d)
        cf = freq.char_freqs(FLUCT, d)
        num = np.array([abs(cf.G_uDC), abs(cf.G_uDC) / cf.omega_H])
        den = np.array([1.0, 1.0 / cf.omega_L, 1.0 / (cf.omega_L * cf.omega_Q)])
        template = freq.RationalTF(num, den)
        omega = np.geomspace(cf.omega_L / 10.0, 10.0 * cf.omega_Q, 60)
        ratio = np.abs(gu(1j * omega)) / np.abs(template(1j * omega))
        assert np.max(np.abs(ratio - 1.0)) < 0.05


class TestBode:
    def test_unity(self):
        mag, phase = freq.bode(freq.RationalTF([1.0], [1.0]), np.geomspace(1.0, 100.0, 16))
        assert np.allclose(mag, 0.0) and np.allclose(phase, 0.0)

    def test_integrator(self):
        omega = np.geomspace(0.1, 100.0, 31)
        mag, phase = freq.bode(freq.RationalTF([1.0], [0.0, 1.0]), omega)
        slope = (mag[-1] - mag[0]) / (math.log10(omega[-1]) - math.log10(omega[0]))
        assert slope == pytest.approx(-20.0, rel=1e-9)
        assert np.allclose(phase, -90.0)

    def test_controller_slope_structure(self):
        _, _, gu = freq.closed_loop_tfs(FLUCT, DESIGN)
        cf = freq.char_freqs(FLUCT, DESIGN)
        def slope(w_lo, w_hi):
            omega = np.geomspace(w_lo, w_hi, 9)
            mag, _ = freq.bode(gu, omega)
            return (mag[-1] - mag[0]) / (math.log10(w_hi) - math.log10(w_lo))
        assert abs(slope(cf.omega_L / 100.0, cf.omega_L / 10.0)) < 1.0       # flat shelf
        assert slope(cf.omega_L * 10.0, cf.omega_H / 10.0) == pytest.approx(-20.0, abs=1.5)
        assert abs(slope(cf.omega_H * 10.0, cf.omega_Q / 10.0)) < 1.5        # flat again

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            freq.bode(freq.RationalTF([1.0], [1.0]), np.array([1.0, 0.5]))

    def test_is_the_transfer_function_on_the_axis(self):
        omega = np.geomspace(1e4, 1e12, 481)
        for tf in freq.closed_loop_tfs(FLUCT, DESIGN):
            mag, phase = freq.bode(tf, omega)
            h = tf(1j * omega)
            assert np.array_equal(mag, 20.0 * np.log10(np.abs(h)))
            assert np.array_equal(phase, np.degrees(np.unwrap(np.angle(h))))


class TestCharFreqs:
    def test_reference_values(self):
        cf = freq.char_freqs(FLUCT, DESIGN)
        assert cf.omega_H == pytest.approx(2.115e8, rel=1e-3)
        assert cf.omega_C == pytest.approx(4.23e8, rel=1e-3)
        assert cf.omega_L == 1e5
        assert cf.omega_Q == pytest.approx(0.2 * 1e12)

    def test_out_of_regime_rejected(self):
        with pytest.raises(UnsupportedCaseError, match="lam"):
            freq.char_freqs(FLUCT, DesignParams(J_prime=1e6, lam=0.01))
        weak = fluctuating_plant(J=10.0, gamma=1.0, M=1e4, gamma_b=1e3, sigma_bfree=1.0)
        with pytest.raises(UnsupportedCaseError):
            freq.char_freqs(weak, DesignParams(J_prime=10.0, lam=1e6))

    def test_margin_past_the_float_range_is_numerical_error(self):
        # gamma_b^2 overflows a float: the documented class, not OverflowError
        wide = PlantParams(J=1e6, gamma=1e6, M=1e4, gamma_b=1e200, sigma_bF=2e5)
        with pytest.raises(NumericalError, match="gamma_b = 1e\\+200"):
            freq.approximation_margins(wide, DESIGN)

    def test_closure_bisection_structural_offset(self):
        # the exact |P G_u| = 1 crossing solves 2 sqrt(1+x^2) = x^2 with
        # x = w/wH, i.e. x = sqrt(2 + 2 sqrt(2)) = 2.1974, about 10% above
        # the first-order value 2; see the decisions record
        _, _, gu = freq.closed_loop_tfs(FLUCT, DesignParams(J_prime=1e6, lam=10.0))
        cf = freq.char_freqs(FLUCT, DesignParams(J_prime=1e6, lam=10.0))
        wc = freq.closure_frequency(gu, 1e12, hint=cf.omega_H)
        assert wc / cf.omega_H == pytest.approx(math.sqrt(2.0 + 2.0 * math.sqrt(2.0)), rel=0.01)


class TestRobustDesign:
    def test_tradeoff_exact(self):
        c, w10 = freq.design_robust_controller(1e5, 1e6, 1e9, 8e7, 1e6)
        assert w10 * 8e7 == 1e9 * 1e5 / 1e6

    def test_degenerate_family(self):
        c, w10 = freq.design_robust_controller(1e6, 1e6, 1e9, 1e7, 1e6)
        assert w10 == pytest.approx(1e9 / 1e7)
        # w_H = w_Q: the shelf zero sits on the roll-off pole, and the
        # uncancelled ratio evaluates to gain (w_H/w_L) / (1 + s/w_L)
        omega_h, omega_l, gain = 1e7 * w10, 1e7 * w10 / 100.0, 1e9 / (1e6 * 1e6)
        s = 1j * np.geomspace(1e3, 1e13, 201)
        cancelled = gain * (omega_h / omega_l) / (1.0 + s / omega_l)
        assert np.max(np.abs(c(s) / cancelled - 1.0)) < 1e-12

    def test_suppression_scales_with_spread(self):
        _, w10_matched = freq.design_robust_controller(1e6, 1e6, 1e9, 8e7, 1e6)
        _, w10_spread = freq.design_robust_controller(1e5, 1e6, 1e9, 8e7, 1e6)
        assert w10_matched / w10_spread == pytest.approx(10.0)

    def test_infeasible_ordering(self):
        with pytest.raises(ConfigurationError, match="ordering"):
            freq.design_robust_controller(1e5, 1e6, 1e9, 8e7, 1e6, omega_L=1e9)

    def test_sweep_satisfies_criterion(self):
        c, w10 = freq.design_robust_controller(1e5, 1e6, 1e9, 8e7, 1e6)
        w1 = freq.performance_weight(w10, 8e7)
        omega_h = 8e7 * w10
        grid = np.geomspace(omega_h / 1000.0, 1e10, 500)
        for J in np.geomspace(1e5, 1e6, 25):
            assert freq.sensitivity_norm(c, J, 1e6, w1, grid) < 1.0

    def test_margin_reported_at_family_edge(self):
        c, w10 = freq.design_robust_controller(1e5, 1e6, 1e9, 8e7, 1e6)
        w1 = freq.performance_weight(w10, 8e7)
        grid = np.geomspace(8e7 * w10 / 1000.0, 1e10, 500)
        worst = freq.sensitivity_norm(c, 1e5, 1e6, w1, grid)
        assert 0.5 < worst < 1.0  # tight but satisfied at J_min

    def test_loop_crossing_mid_family(self):
        # P C crosses 0 dB at |C|_C gamma J for J away from the band edges
        c, w10 = freq.design_robust_controller(1e5, 1e6, 1e9, 8e7, 1e6)
        J = math.sqrt(1e5 * 1e6)
        target = (1e9 / (1e6 * 1e6)) * 1e6 * J  # |C|_C gamma J

        def loop_mag(w):
            return abs(1e6 * J / (1j * w) * c(1j * w))

        lo, hi = target / 10.0, target * 10.0
        for _ in range(100):
            mid = math.sqrt(lo * hi)
            if loop_mag(mid) > 1.0:
                lo = mid
            else:
                hi = mid
        crossing = math.sqrt(lo * hi)
        assert crossing == pytest.approx(target, rel=0.05)


class TestSensitivityNorm:
    def _setup(self):
        c, w10 = freq.design_robust_controller(1e5, 1e6, 1e9, 8e7, 1e6)
        w1 = freq.performance_weight(w10, 8e7)
        grid = np.geomspace(8e5 / 100.0, 1e10, 450)
        return c, w1, grid

    def test_high_gain_limit(self):
        _, w1, grid = self._setup()
        huge = freq.RationalTF([1e9], [1.0])
        assert freq.sensitivity_norm(huge, 1e5, 1e6, w1, grid) < 1e-2

    def test_zero_controller_rejected_by_weight(self):
        _, w1, grid = self._setup()
        zero = freq.RationalTF([0.0], [1.0])
        val = freq.sensitivity_norm(zero, 1e5, 1e6, w1, grid)
        assert val == pytest.approx(abs(w1(0.0)), rel=1e-3)
        assert val > 1.0

    def test_grid_density_required(self):
        c, w1, _ = self._setup()
        with pytest.raises(ConfigurationError, match="400"):
            freq.sensitivity_norm(c, 1e5, 1e6, w1, np.geomspace(1.0, 1e10, 50))

    def test_unstable_loop_detected(self):
        # positive-feedback integrator: 1 + L has a right-half-plane zero
        bad = freq.RationalTF([-2.0], [1.0])
        w1 = freq.performance_weight(10.0, 1e5)
        grid = np.geomspace(1e2, 1e14, 500)  # spans the 2e11 crossover
        with pytest.raises(InstabilityError):
            freq.sensitivity_norm(bad, 1e5, 1e6, w1, grid)
