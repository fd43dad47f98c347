import math

import numpy as np
import pytest

from spintrack.errors import ConfigurationError, UnsupportedCaseError
from spintrack.cli import build_priors
from spintrack.lqg_filter import design_prior
from spintrack.model import DesignParams, PlantParams, Priors, build_system, fluctuating_plant


class TestBuildSystem:
    def test_nominal_matrices(self):
        p = PlantParams(J=1e6, gamma=1e6, M=1e4)
        a, b, c, s1 = build_system(p)
        assert np.allclose(a, [[0.0, 1e12], [0.0, 0.0]])
        assert np.allclose(b, [1e12, 0.0])
        assert np.allclose(c, [[1.0, 0.0]])
        assert np.allclose(s1, 0.0)

    def test_field_decay_entry(self):
        p = fluctuating_plant(J=1e6, gamma=1e6, M=1e4, gamma_b=1e5, sigma_bfree=1.0)
        a, _, _, s1 = build_system(p)
        assert a[1][1] == -1e5
        assert s1[1][1] == 2e5

    def test_cb_identity(self):
        p = PlantParams(J=3.0, gamma=7.0, M=1.0)
        a, b, c, _ = build_system(p)
        assert float((c @ b)[0]) == p.gamma * p.J

    def test_sigma1_psd(self):
        p = fluctuating_plant(J=10, gamma=1.0, M=1.0, gamma_b=2.0, sigma_bfree=0.5)
        _, _, _, s1 = build_system(p)
        assert np.min(np.linalg.eigvalsh(s1)) >= 0.0

    def test_deterministic(self):
        p = PlantParams(J=5.0, gamma=2.0, M=3.0)
        first = build_system(p)
        second = build_system(p)
        for x, y in zip(first, second):
            assert np.array_equal(x, y)


def _sigma_m(M, eta):
    return PlantParams(J=1.0, gamma=1.0, M=M, eta=eta).sigma_M


class TestSigmaM:
    def test_unit_efficiency(self):
        assert _sigma_m(1e4, 1.0) == pytest.approx(2.5e-5)

    def test_half_efficiency(self):
        assert _sigma_m(1e4, 0.5) == pytest.approx(5e-5)

    def test_monotone_in_rate_and_efficiency(self):
        vals = [_sigma_m(m, e) for m, e in [(1e3, 0.5), (1e4, 0.5), (1e4, 1.0), (1e6, 1.0)]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_zero_efficiency_rejected(self):
        # eta = 0 would discard the measurement; the plant cannot be built
        with pytest.raises(ConfigurationError, match="eta"):
            _sigma_m(1e4, 0.0)


class TestSigmaBFree:
    def test_reference_value(self):
        p = fluctuating_plant(J=1e6, gamma=1e6, M=1e4, gamma_b=1e5, sigma_bfree=1.0)
        assert p.sigma_bF == pytest.approx(2e5)
        assert p.sigma_bFree == pytest.approx(1.0)

    def test_zero_diffusion(self):
        p = PlantParams(J=1.0, gamma=1.0, M=1.0, gamma_b=1.0, sigma_bF=0.0)
        assert p.sigma_bFree == 0.0

    def test_linear_in_diffusion(self):
        p1 = PlantParams(J=1.0, gamma=1.0, M=1.0, gamma_b=2.0, sigma_bF=3.0)
        p2 = PlantParams(J=1.0, gamma=1.0, M=1.0, gamma_b=2.0, sigma_bF=6.0)
        assert p2.sigma_bFree == pytest.approx(2.0 * p1.sigma_bFree)

    def test_constant_field_rejected(self):
        with pytest.raises(UnsupportedCaseError, match="gamma_b = 0"):
            PlantParams(J=1.0, gamma=1.0, M=1.0).sigma_bFree


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(J=0.0, gamma=1.0, M=1.0),
        dict(J=1.0, gamma=-1.0, M=1.0),
        dict(J=1.0, gamma=1.0, M=1.0, eta=0.0),
        dict(J=1.0, gamma=1.0, M=1.0, eta=1.5),
        dict(J=1.0, gamma=1.0, M=1.0, gamma_b=-1.0),
        dict(J=math.nan, gamma=1.0, M=1.0),
        dict(J=1.0, gamma=math.nan, M=1.0),
        dict(J=1.0, gamma=1.0, M=math.nan),
        dict(J=1.0, gamma=1.0, M=1.0, eta=math.nan),
        dict(J=math.inf, gamma=1.0, M=1.0),
        dict(J=1.0, gamma=math.inf, M=1.0),
        dict(J=1.0, gamma=1.0, M=math.inf),
    ])
    def test_plant_invariants(self, kwargs):
        with pytest.raises(ConfigurationError):
            PlantParams(**kwargs)

    @pytest.mark.parametrize("name", ["gamma_b", "sigma_bF"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_field_rates_nonnegative_and_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be nonnegative and finite"):
            PlantParams(J=1.0, gamma=1.0, M=1.0, **{name: value})

    def test_priors(self):
        with pytest.raises(ConfigurationError):
            Priors(sigma_z0=0.0, sigma_b0=1.0)
        with pytest.raises(ConfigurationError):
            Priors(sigma_z0=1.0, sigma_b0=-1.0)

    @pytest.mark.parametrize("sigma_z0, sigma_b0, name", [
        (math.nan, 1.0, "sigma_z0"), (math.inf, 1.0, "sigma_z0"),
        (1.0, math.nan, "sigma_b0"), (1.0, math.inf, "sigma_b0"),
    ])
    def test_priors_finite(self, sigma_z0, sigma_b0, name):
        with pytest.raises(ConfigurationError, match=f"Priors: {name} must be"):
            Priors(sigma_z0=sigma_z0, sigma_b0=sigma_b0)

    def test_design(self):
        with pytest.raises(ConfigurationError):
            DesignParams(J_prime=0.0)
        assert DesignParams(J_prime=1.0, lam=0.0).lam == 0.0

    @pytest.mark.parametrize("J_prime, lam, name", [
        (math.nan, 0.0, "J_prime"), (math.inf, 0.0, "J_prime"), (1.0, -1.0, "lam"), (1.0, math.nan, "lam"),
        (1.0, math.inf, "lam"),
    ])
    def test_design_finite(self, J_prime, lam, name):
        with pytest.raises(ConfigurationError, match=f"DesignParams: {name}"):
            DesignParams(J_prime=J_prime, lam=lam)

    def test_coherent_prior_default(self):
        # scenarios without sigma_z0 and the observer both use the coherent J/2
        prior = build_priors({"sigma_b0": 1.0}, PlantParams(J=1e6, gamma=1.0, M=1.0))
        assert (prior.sigma_z0, prior.sigma_b0) == (5e5, 1.0)
        assert design_prior(DesignParams(J_prime=1e6), Priors(1.0, 1.0)).sigma_z0 == 5e5
