import numpy as np
import pytest

from exfree.calibration import (
    _multistart_lm,
    bus_period_model,
    damped_oscillation_model,
    fit_damped_oscillation,
    fit_stark_detuning,
    fit_tms_strength,
    generate_tmsv_trace,
    vacuum_probability,
)
from exfree.errors import InvalidParameterError
from exfree.model import khz_to_angular


G_TRUE = khz_to_angular(80.0)


class TestTmsStrengthFit:
    def test_noiseless_roundtrip(self):
        t = np.linspace(0.0, 4.0, 64)
        fit = fit_tms_strength(t, generate_tmsv_trace(G_TRUE, t))
        assert fit.converged
        assert fit.estimates["g"] == pytest.approx(G_TRUE, rel=1e-6)
        assert fit.estimates["a"] == pytest.approx(1.0, abs=1e-6)
        assert fit.estimates["b"] == pytest.approx(0.0, abs=1e-6)

    def test_noisy_roundtrip_within_uncertainty(self):
        t = np.linspace(0.0, 4.0, 128)
        trace = generate_tmsv_trace(G_TRUE, t, noise_sigma=0.01, seed=42)
        fit = fit_tms_strength(t, trace)
        assert fit.converged
        err = abs(fit.estimates["g"] - G_TRUE)
        assert err < 5.0 * fit.uncertainties["g"]
        assert fit.uncertainties["g"] > 0

    def test_deterministic_given_seed(self):
        t = np.linspace(0.0, 4.0, 64)
        a = generate_tmsv_trace(G_TRUE, t, noise_sigma=0.02, seed=3)
        b = generate_tmsv_trace(G_TRUE, t, noise_sigma=0.02, seed=3)
        assert np.array_equal(a, b)

    def test_constant_data_flagged(self):
        t = np.linspace(0.0, 4.0, 64)
        fit = fit_tms_strength(t, np.full_like(t, 0.7))
        assert not fit.converged or "degenerate-data" in fit.flags

    def test_too_few_samples(self):
        with pytest.raises(InvalidParameterError):
            fit_tms_strength(np.linspace(0, 1, 5), np.ones(5))

    def test_vacuum_probability_at_zero(self):
        assert vacuum_probability(G_TRUE, 0.0) == pytest.approx(1.0)


class TestStarkDetuningFit:
    def test_noiseless_roundtrip(self):
        d0_true = khz_to_angular(275.0)
        dd = np.array([khz_to_angular(x) for x in (100, 200, 300, 400, 500)])
        tau = bus_period_model(dd, d0_true, G_TRUE)
        fit = fit_stark_detuning(dd, tau, G_TRUE)
        assert fit.converged
        assert fit.estimates["delta_0"] == pytest.approx(d0_true, rel=1e-6)

    def test_noisy_roundtrip(self):
        d0_true = khz_to_angular(275.0)
        rng = np.random.default_rng(11)
        dd = np.array([khz_to_angular(x) for x in (100, 150, 200, 300, 400, 500)])
        tau = bus_period_model(dd, d0_true, G_TRUE) * (1 + rng.normal(0, 2e-3, dd.size))
        fit = fit_stark_detuning(dd, tau, G_TRUE)
        assert fit.converged
        assert fit.estimates["delta_0"] == pytest.approx(d0_true, rel=0.02)

    def test_under_determined(self):
        with pytest.raises(InvalidParameterError):
            fit_stark_detuning(np.array([1.0]), np.array([2.0]), G_TRUE)
        with pytest.raises(InvalidParameterError):
            fit_stark_detuning(np.array([1.0, 2.0, 3.0]), np.ones(3), G_TRUE)


class TestDampedOscillationFit:
    def test_roundtrip(self):
        t = np.linspace(0.0, 60.0, 400)
        truth = dict(tau1=40.0, tau_phi=25.0, omega=1.3, amplitude=0.45, offset=0.05)
        y = damped_oscillation_model(t, **truth)
        fit = fit_damped_oscillation(t, y)
        assert fit.converged
        for key, val in truth.items():
            assert fit.estimates[key] == pytest.approx(val, rel=1e-3), key

    def test_undamped_trace_flags_unbounded(self):
        t = np.linspace(0.0, 60.0, 400)
        y = 0.1 + 0.4 * (1 + np.cos(1.3 * t))
        fit = fit_damped_oscillation(t, y)
        # decay times are unidentifiable; either flagged or enormous
        big = fit.estimates.get("tau1", 0) > 1e4 or "unbounded-parameter" in fit.flags
        assert big

    def test_too_few_samples(self):
        with pytest.raises(InvalidParameterError):
            fit_damped_oscillation(np.linspace(0, 1, 8), np.ones(8))


class TestMultistart:
    def test_residual_bug_propagates(self):
        # only a start with non-finite residuals (a ValueError) is skipped
        def residual(x):
            return undefined_model(x)  # noqa: F821

        with pytest.raises(NameError):
            _multistart_lm(residual, [(1.0,), (2.0,)], ("x",))
