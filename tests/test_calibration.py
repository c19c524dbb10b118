from dataclasses import replace

import numpy as np
import pytest

from exfree import calibration
from exfree.calibration import (
    UNBOUNDED_SCALE,
    FitResult,
    _polish,
    bus_period_model,
    damped_oscillation_model,
    fit_damped_oscillation,
    fit_stark_detuning,
    fit_tms_strength,
    generate_tmsv_trace,
    vacuum_probability,
)
from exfree.errors import InvalidParameterError, RegimeError
from exfree.model import khz_to_angular


G_TRUE = khz_to_angular(80.0)


class TestTmsStrengthFit:
    @pytest.mark.parametrize("g", [0.0, -G_TRUE])
    def test_trace_needs_a_positive_coupling(self, g):
        with pytest.raises(InvalidParameterError, match="^coupling must be positive$"):
            generate_tmsv_trace(g, np.linspace(0.0, 4.0, 64))

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

    def test_window_too_short_for_g_flagged_degenerate(self):
        # a 1e-3 us window at t = 1000 us: the polish converges, but g times
        # the window's span is below 1e-6, so the data cannot resolve g
        t = np.linspace(1000.0, 1000.001, 16)
        fit = fit_tms_strength(t, vacuum_probability(1e-4, t))
        assert not fit.converged
        assert fit.flags == ("degenerate-data",)

    @pytest.mark.parametrize("seed, noise", [(4, 1e-5), (1, 1e-3)])
    def test_noisy_window_far_from_origin_flagged_degenerate(self, seed, noise):
        # g * span is 0.008: the noise, amplified by a scaled Jacobian of
        # condition number 7e4 to 3e5, swamps a, b and g; the polish ended
        # at a = 786 (seed 4) and a = 7.6e24 (seed 1) with no such flag
        t = np.linspace(1000.0, 1004.0, 64)
        fit = fit_tms_strength(t, generate_tmsv_trace(0.002, t, noise_sigma=noise, seed=seed))
        assert not fit.converged
        assert "degenerate-data" in fit.flags

    def test_negative_g_of_the_polish_reported_positive(self, monkeypatch):
        # cosh is even in g, so -g fits as well as g: the polish may land on either
        polish = calibration._polish

        def mirrored(residual_fn, x0, names):
            fit = polish(residual_fn, x0, names)
            return replace(fit, estimates={**fit.estimates, "g": -fit.estimates["g"]})

        monkeypatch.setattr(calibration, "_polish", mirrored)
        t = np.linspace(0.0, 4.0, 64)
        fit = fit_tms_strength(t, generate_tmsv_trace(G_TRUE, t))
        assert fit.converged
        assert fit.estimates["g"] == pytest.approx(G_TRUE, rel=1e-6)

    def test_too_few_samples(self):
        with pytest.raises(InvalidParameterError):
            fit_tms_strength(np.linspace(0, 1, 5), np.ones(5))

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidParameterError, match="noise_sigma"):
            generate_tmsv_trace(G_TRUE, np.linspace(0.0, 4.0, 64), noise_sigma=-0.1, seed=1)

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

    @pytest.mark.parametrize("d0_khz", [10.0, -100.0], ids=["below-threshold", "at-zero"])
    def test_model_below_the_regime_raises(self, d0_khz):
        # (100 + 10)^2 < 8 * 200^2, and 100 - 100 = 0: no bus oscillation
        dd = np.array([khz_to_angular(x) for x in (100, 200, 300, 400, 500)])
        with pytest.raises(RegimeError):
            bus_period_model(dd, khz_to_angular(d0_khz), khz_to_angular(200.0))

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

    def test_short_undamped_trace_flags_decay_times_beyond_its_span(self):
        # 1e-4 us long: every estimate is below UNBOUNDED_SCALE, but the decay
        # times exceed UNBOUNDED_SCALE spans, far beyond what the trace resolves
        t = np.linspace(0.0, 1e-4, 200)
        omega = 2 * np.pi * 5e4
        fit = fit_damped_oscillation(t, 0.1 + 0.4 * (1 + np.cos(omega * t)))
        assert max(abs(v) for v in fit.estimates.values()) < UNBOUNDED_SCALE
        assert min(fit.estimates["tau1"], fit.estimates["tau_phi"]) > UNBOUNDED_SCALE * 1e-4
        assert fit.flags == ("unbounded-parameter",)
        assert fit.estimates["omega"] == pytest.approx(omega, rel=1e-6)

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


@pytest.mark.parametrize("n_values", [1, 19, 21])
@pytest.mark.parametrize(
    "fit",
    [fit_tms_strength, fit_damped_oscillation, lambda x, y: fit_stark_detuning(x, y, G_TRUE)],
    ids=["tms-strength", "damped-oscillation", "stark-detuning"],
)
def test_fits_refuse_values_of_another_length(fit, n_values):
    # 20 uniform, positive sample points; a single value used to broadcast
    with pytest.raises(InvalidParameterError, match="one value per sample point"):
        fit(np.linspace(1.0, 3.0, 20), np.full(n_values, 0.5))


def scipy_polish(residual_fn, x0, names) -> FitResult:
    """The reference for `_polish`: the same fit through scipy's wrapper of
    MINPACK lmder, with the same budget, covariance and flags."""
    from scipy.optimize import least_squares

    try:
        res = least_squares(
            residual_fn, np.asarray(x0, dtype=float), method="lm",
            max_nfev=calibration._MAX_NFEV,
        )
    except ValueError:  # non-finite residuals at the start
        return FitResult({}, {}, float("inf"), 0, False, ("nonconvergence",))
    m, n = res.jac.shape
    flags = []
    sigmas = {name: float("nan") for name in names}
    try:
        cov = np.linalg.inv(res.jac.T @ res.jac) * 2.0 * res.cost / max(m - n, 1)
        sigmas = {name: float(np.sqrt(max(d, 0.0))) for name, d in zip(names, np.diag(cov))}
    except np.linalg.LinAlgError:
        flags.append("singular-jacobian")
    if any(abs(v) > UNBOUNDED_SCALE for v in res.x):
        flags.append("unbounded-parameter")
    return FitResult(
        estimates={name: float(v) for name, v in zip(names, res.x)},
        uncertainties=sigmas,
        residual_norm=float(np.sqrt(2.0 * res.cost)),
        iterations=int(res.nfev),
        converged=bool(res.success) and "singular-jacobian" not in flags,
        flags=tuple(flags),
    )


def tms_case(seed):
    t = np.linspace(0.0, 4.0, 128)
    return fit_tms_strength, (t, generate_tmsv_trace(G_TRUE, t, noise_sigma=0.01, seed=seed))


def stark_case(seed):
    dd = khz_to_angular(np.array([100.0, 150.0, 200.0, 300.0, 400.0, 500.0]))
    noise = np.random.default_rng(seed).normal(0.0, 2e-3, dd.size)
    tau = bus_period_model(dd, khz_to_angular(275.0), G_TRUE) * (1 + noise)
    return fit_stark_detuning, (dd, tau, G_TRUE)


def damped_case(seed):
    t = np.linspace(0.0, 30.0, 240)
    noise = np.random.default_rng(seed).normal(0.0, 1e-3, t.size)
    return fit_damped_oscillation, (t, damped_oscillation_model(t, 25.0, 12.0, 1.5, 0.4, 0.1) + noise)


MEYER_T = 45.0 + 5.0 * np.arange(1, 17)
MEYER_Y = np.array([34780, 28610, 23650, 19630, 16370, 13720, 11540, 9744,
                    8261, 7030, 6005, 5147, 4427, 3820, 3307, 2872], dtype=float)
BOX_T = 0.1 * np.arange(1, 11)

#: Test problems of More, Garbow & Hillstrom, ACM Trans. Math. Softw. 7, 17
#: (1981): residuals and standard start.
MGH = {
    "rosenbrock": (lambda x: np.array([10 * (x[1] - x[0] ** 2), 1 - x[0]]), (-1.2, 1.0)),
    "freudenstein-roth": (
        lambda x: np.array([-13 + x[0] + ((5 - x[1]) * x[1] - 2) * x[1],
                            -29 + x[0] + ((x[1] + 1) * x[1] - 14) * x[1]]),
        (0.5, -2.0),
    ),
    "powell-badly-scaled": (
        lambda x: np.array([1e4 * x[0] * x[1] - 1, np.exp(-x[0]) + np.exp(-x[1]) - 1.0001]),
        (0.0, 1.0),
    ),
    "brown-badly-scaled": (
        lambda x: np.array([x[0] - 1e6, x[1] - 2e-6, x[0] * x[1] - 2]), (1.0, 1.0)
    ),
    "beale": (
        lambda x: np.array([1.5, 2.25, 2.625]) - x[0] * (1 - x[1] ** np.arange(1, 4)),
        (1.0, 1.0),
    ),
    "helical-valley": (
        lambda x: np.array([10 * (x[2] - 10 * np.arctan2(x[1], x[0]) / (2 * np.pi)),
                            10 * (np.hypot(x[0], x[1]) - 1), x[2]]),
        (-1.0, 0.0, 0.0),
    ),
    "box-3d": (
        lambda x: np.exp(-BOX_T * x[0]) - np.exp(-BOX_T * x[1])
        - x[2] * (np.exp(-BOX_T) - np.exp(-10 * BOX_T)),
        (0.0, 10.0, 20.0),
    ),
    "meyer": (lambda x: x[0] * np.exp(x[1] / (MEYER_T + x[2])) - MEYER_Y, (0.02, 4000.0, 250.0)),
}


def both_fits(monkeypatch, case):
    fit, args = case
    ours = fit(*args)
    monkeypatch.setattr(calibration, "_polish", scipy_polish)
    return ours, fit(*args)


class TestAgreementWithScipy:
    @pytest.mark.parametrize(
        "case",
        [make(seed) for make in (tms_case, stark_case, damped_case) for seed in range(10)],
        ids=[f"{name}-{seed}" for name in ("tms", "stark", "damped") for seed in range(10)],
    )
    def test_seeded_fit(self, monkeypatch, case):
        ours, ref = both_fits(monkeypatch, case)
        assert (ours.converged, ours.flags, ours.iterations) == (
            ref.converged, ref.flags, ref.iterations
        )
        assert ref.residual_norm > 1e-8
        for name, x in ref.estimates.items():
            sigma = ref.uncertainties[name]
            assert abs(ours.estimates[name] - x) <= 1e-6 * sigma + 1e-12 * max(1.0, abs(x)), name
            assert ours.uncertainties[name] == pytest.approx(sigma, rel=1e-6), name

    @pytest.mark.parametrize("problem", sorted(MGH))
    def test_classic_problem(self, problem):
        # the same path: trust radius, scaling and par follow MINPACK's rules
        residual, x0 = MGH[problem]
        names = [f"x{j}" for j in range(len(x0))]
        ours, ref = _polish(residual, x0, names), scipy_polish(residual, x0, names)
        assert (ours.converged, ours.flags, ours.iterations) == (
            ref.converged, ref.flags, ref.iterations
        )
        for name, x in ref.estimates.items():
            assert ours.estimates[name] == pytest.approx(x, rel=1e-6, abs=1e-12), name

    def test_far_from_time_origin(self, monkeypatch):
        # At the solution the scaled Jacobian has condition number 7e5, so
        # each step is set only to about 1e-10 relative.  Over some 560
        # evaluations along the valley the two paths part and stop at
        # different points of it: they agree to 0.005 sigma, not 1e-6 sigma.
        t = np.linspace(1000.0, 1004.0, 64)  # as test_trace_far_from_time_origin
        ours, ref = both_fits(monkeypatch, (fit_tms_strength, (t, vacuum_probability(0.002, t))))
        assert (ours.converged, ours.flags) == (ref.converged, ref.flags)
        assert ours.iterations == pytest.approx(ref.iterations, rel=0.05)
        for name, x in ref.estimates.items():
            sigma = ref.uncertainties[name]
            assert abs(ours.estimates[name] - x) <= 0.01 * sigma + 1e-12 * max(1.0, abs(x)), name

    def test_non_finite_start(self):
        def residual(x):
            return np.full(4, np.nan)

        expected = FitResult({}, {}, float("inf"), 0, False, ("nonconvergence",))
        assert _polish(residual, (1.0,), ("x",)) == expected
        assert scipy_polish(residual, (1.0,), ("x",)) == expected

    def test_evaluation_budget_runs_out(self, monkeypatch):
        monkeypatch.setattr(calibration, "_MAX_NFEV", 3)
        ours, ref = both_fits(monkeypatch, damped_case(0))
        assert not ours.converged and not ref.converged
        assert ours.iterations == ref.iterations == 3


class TestPolish:
    def test_residual_bug_propagates(self):
        # non-finite residuals at the start give "nonconvergence"; an error
        # raised by the residual itself propagates
        def residual(x):
            return undefined_model(x)  # noqa: F821

        with pytest.raises(NameError):
            _polish(residual, (1.0,), ("x",))
