import numpy as np
import pytest

from exfree import calibration
from exfree.calibration import (
    _polish,
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

    def test_vacuum_probability_far_out_does_not_overflow(self):
        p0 = vacuum_probability(1.0, np.array([-1e4, -800.0, 800.0, 1e4]))
        assert np.all((p0 >= 0.0) & (p0 < 1e-300))

    def test_trace_far_from_time_origin(self):
        # g * span is 0.008 but g * t is about 2: the start grid must follow
        # g * max|t|, and no cosh may overflow on the way
        g = 0.002
        t = np.linspace(1000.0, 1004.0, 64)
        fit = fit_tms_strength(t, 1.0 / np.cosh(g * t) ** 2)
        assert fit.converged
        assert fit.estimates["g"] == pytest.approx(g, rel=1e-6)


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

    def test_nonpositive_period_rejected(self):
        dd = np.array([khz_to_angular(x) for x in (100, 200, 300, 400, 500)])
        tau = bus_period_model(dd, khz_to_angular(275.0), G_TRUE)
        tau[2] = 0.0
        with pytest.raises(InvalidParameterError):
            fit_stark_detuning(dd, tau, G_TRUE)


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
        # decay times are unidentifiable: flagged, while the oscillation is
        # still recovered
        assert "unbounded-parameter" in fit.flags
        assert fit.estimates["omega"] == pytest.approx(1.3, abs=1e-6)
        assert fit.estimates["amplitude"] == pytest.approx(0.4, abs=1e-6)
        assert fit.estimates["offset"] == pytest.approx(0.1, abs=1e-6)

    @pytest.mark.parametrize("seed", range(20))
    def test_noisy_roundtrip(self, seed):
        truth = dict(tau1=25.0, tau_phi=12.0, omega=0.5 * np.pi, amplitude=0.4, offset=0.1)
        t = np.linspace(0.0, 30.0, 240)
        rng = np.random.default_rng(seed)
        y = damped_oscillation_model(t, **truth) + rng.normal(0.0, 1e-3, t.size)
        fit = fit_damped_oscillation(t, y)
        assert fit.converged
        for key, val in truth.items():
            assert fit.estimates[key] == pytest.approx(val, rel=0.05), key

    def test_frequency_reported_nonnegative(self):
        t = np.linspace(0.0, 30.0, 240)
        y = damped_oscillation_model(t, 25.0, 12.0, -1.3, 0.4, 0.1)
        fit = fit_damped_oscillation(t, y)
        assert fit.estimates["omega"] == pytest.approx(1.3, rel=1e-6)

    @pytest.mark.parametrize("omega", [0.0, np.pi / (30.0 / 239)], ids=["none", "nyquist"])
    def test_real_poles_only(self, omega):
        # a trace whose poles are all real: a plain decay, or an oscillation
        # at the Nyquist frequency (pole -1)
        t = np.linspace(0.0, 30.0, 240)
        y = damped_oscillation_model(t, 1e12, 7.0, omega, 0.4, 0.1)
        fit = fit_damped_oscillation(t, y)
        assert fit.residual_norm < 1e-6
        assert fit.estimates["omega"] == pytest.approx(omega, abs=1e-6)

    def test_one_polish_of_few_model_calls(self, monkeypatch):
        calls = []
        model = calibration.damped_oscillation_model

        def counted(*args):
            calls.append(1)
            return model(*args)

        monkeypatch.setattr(calibration, "damped_oscillation_model", counted)
        t = np.linspace(0.0, 30.0, 240)
        y = model(t, 25.0, 12.0, 0.5 * np.pi, 0.4, 0.1)
        y = y + np.random.default_rng(0).normal(0.0, 1e-3, t.size)
        fit = fit_damped_oscillation(t, y)
        assert fit.converged
        assert len(calls) <= 100

    @pytest.mark.parametrize(
        "t",
        [np.linspace(0.0, 30.0, 240) ** 1.1, np.full(240, 3.0), np.linspace(30.0, 0.0, 240)],
        ids=["stretched", "constant", "decreasing"],
    )
    def test_non_uniform_grid_rejected(self, t):
        with pytest.raises(InvalidParameterError, match="uniformly sampled"):
            fit_damped_oscillation(t, np.cos(t))

    def test_too_few_samples(self):
        with pytest.raises(InvalidParameterError):
            fit_damped_oscillation(np.linspace(0, 1, 8), np.ones(8))


class TestPolish:
    def test_residual_bug_propagates(self):
        # only non-finite residuals at the start (a ValueError) are caught
        def residual(x):
            return undefined_model(x)  # noqa: F821

        with pytest.raises(NameError):
            _polish(residual, (1.0,), ("x",))
