"""Calibration fits: pair-interaction strength, pump-induced Stark detuning,
and damped population oscillations.

All fits use Levenberg-Marquardt least squares with finite-difference
Jacobians and a deterministic multi-start over a fixed set of
initializations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import pi

import numpy as np
from scipy.optimize import least_squares

from .errors import InvalidParameterError
from .model import REGIME_FACTOR

#: Parameter magnitude beyond which an estimate is reported as effectively
#: unbounded (e.g. a decay time fitted to an undamped trace).
UNBOUNDED_SCALE = 1e6


@dataclass(frozen=True)
class FitResult:
    estimates: dict[str, float]
    uncertainties: dict[str, float]
    residual_norm: float
    iterations: int
    converged: bool
    flags: tuple[str, ...] = ()


def _multistart_lm(residual_fn, inits, names) -> FitResult:
    best = None
    for x0 in inits:
        try:
            res = least_squares(residual_fn, np.asarray(x0, dtype=float), method="lm")
        except ValueError:  # non-finite residuals at this start
            continue
        if best is None or res.cost < best.cost:
            best = res
    if best is None:
        return FitResult({}, {}, float("inf"), 0, False, ("nonconvergence",))
    flags = []
    m, n = best.jac.shape
    sigmas = {name: float("nan") for name in names}
    try:
        jtj_inv = np.linalg.inv(best.jac.T @ best.jac)
        scale = 2.0 * best.cost / max(m - n, 1)
        diag = np.diag(jtj_inv) * scale
        sigmas = {name: float(np.sqrt(max(d, 0.0))) for name, d in zip(names, diag)}
    except np.linalg.LinAlgError:
        flags.append("singular-jacobian")
    if any(abs(v) > UNBOUNDED_SCALE for v in best.x):
        flags.append("unbounded-parameter")
    converged = bool(best.success) and "singular-jacobian" not in flags
    return FitResult(
        estimates={name: float(v) for name, v in zip(names, best.x)},
        uncertainties=sigmas,
        residual_norm=float(np.sqrt(2.0 * best.cost)),
        iterations=int(best.nfev),
        converged=converged,
        flags=tuple(flags),
    )


def vacuum_probability(g: float, t) -> np.ndarray:
    """Ideal vacuum-return probability of one cavity under pair pumping,
    P0(t) = 1/cosh^2(g t)."""
    return 1.0 / np.cosh(g * np.asarray(t, dtype=float)) ** 2


def generate_tmsv_trace(
    g: float, t_grid, noise_sigma: float | None = None, seed: int | None = None
) -> np.ndarray:
    """Synthetic calibration data: P0(t) with optional additive Gaussian noise."""
    if g <= 0:
        raise InvalidParameterError("coupling must be positive")
    p0 = vacuum_probability(g, t_grid)
    if noise_sigma:
        rng = np.random.default_rng(seed)
        p0 = p0 + rng.normal(0.0, noise_sigma, size=p0.shape)
    return p0


def fit_tms_strength(t, p0) -> FitResult:
    """Fit P0 = a/cosh^2(g t) + b; recovers the pair-interaction strength g."""
    t = np.asarray(t, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if t.size < 8:
        raise InvalidParameterError("need at least 8 samples to fit (a, b, g)")

    def residual(x):
        a, b, g = x
        return a / np.cosh(g * t) ** 2 + b - p0

    t_span = max(t.max() - t.min(), 1e-12)
    g_guesses = [0.2 / t_span, 0.5 / t_span, 1.0 / t_span, 2.0 / t_span, 5.0 / t_span]
    inits = [(p0.max() - p0.min(), p0.min(), g) for g in g_guesses]
    fit = _multistart_lm(residual, inits, ("a", "b", "g"))
    if fit.converged and abs(fit.estimates.get("g", 0.0)) * t_span < 1e-6:
        fit = replace(fit, converged=False, flags=fit.flags + ("degenerate-data",))
    # sign ambiguity: cosh is even in g
    if fit.estimates.get("g", 0.0) < 0:
        fit = replace(fit, estimates={**fit.estimates, "g": -fit.estimates["g"]})
    return fit


def bus_period_model(delta_d, delta_0: float, g: float) -> np.ndarray:
    """tau_S2 as a function of the intentional detuning, for known g."""
    delta = np.asarray(delta_d, dtype=float) + delta_0
    return 2.0 * pi / np.sqrt(delta**2 - 8.0 * g**2)


def fit_stark_detuning(delta_d, tau_s2, g: float) -> FitResult:
    """Recover the pump-induced Stark detuning delta_0 from (delta_d, tau_S2)
    pairs, fitting tau_S2 = 2*pi/sqrt((delta_d + delta_0)^2 - 8 g^2)."""
    delta_d = np.asarray(delta_d, dtype=float)
    tau_s2 = np.asarray(tau_s2, dtype=float)
    if delta_d.size < 2:
        raise InvalidParameterError("under-determined: need at least 2 points")
    if delta_d.size < 4:
        raise InvalidParameterError("need at least 4 points for a stable fit")

    def residual(x):
        (d0,) = x
        total = delta_d + d0
        arg = total**2 - 8.0 * g**2
        # keep the model defined when a trial step leaves the regime
        arg = np.where(arg > 1e-18, arg, 1e-18)
        return 2.0 * pi / np.sqrt(arg) - tau_s2

    base = REGIME_FACTOR * g
    inits = [(x,) for x in (0.1 * base, 0.5 * base, base, 2.0 * base, 4.0 * base)]
    return _multistart_lm(residual, inits, ("delta_0",))


def damped_oscillation_model(t, tau1, tau_phi, omega, amplitude, offset):
    """offset + amplitude * exp(-t/tau1) * [1 + exp(-t/tau_phi) cos(omega t)].

    Decaying exponents throughout: a population envelope must shrink with
    time.
    """
    t = np.asarray(t, dtype=float)
    return offset + amplitude * np.exp(-t / tau1) * (
        1.0 + np.exp(-t / tau_phi) * np.cos(omega * t)
    )


def fit_damped_oscillation(t, values) -> FitResult:
    """Fit a damped population oscillation; estimates (tau1, tau_phi, omega,
    amplitude, offset)."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if t.size < 16:
        raise InvalidParameterError("need at least 16 samples")
    span = max(t.max() - t.min(), 1e-12)

    # candidate frequencies: strongest local maxima of the spectrum (the
    # decay envelope itself leaks into the lowest bins, so one seed is not
    # reliable)
    detrended = values - values.mean()
    freqs = np.fft.rfftfreq(t.size, d=(t[1] - t[0]))
    mags = np.abs(np.fft.rfft(detrended))
    mags[0] = 0.0
    peaks = [
        k
        for k in range(1, mags.size - 1)
        if mags[k] >= mags[k - 1] and mags[k] >= mags[k + 1]
    ]
    peaks.sort(key=lambda k: -mags[k])
    omega_seeds = [2.0 * pi * freqs[k] for k in peaks[:3]] or [2.0 * pi / span]

    amp_seed = 0.5 * (values.max() - values.min())
    off_seed = values.min()

    def residual(x):
        tau1, tau_phi, omega, amplitude, offset = x
        # even continuation keeps LM stable if a step makes a tau negative
        return (
            damped_oscillation_model(t, abs(tau1), abs(tau_phi), omega, amplitude, offset)
            - values
        )

    inits = [
        (scale * span, scale * span, om, amp_seed, off_seed)
        for om in omega_seeds
        for scale in (0.5, 2.0, 20.0)
    ]
    fit = _multistart_lm(residual, inits, ("tau1", "tau_phi", "omega", "amplitude", "offset"))
    est = dict(fit.estimates)
    for key in ("tau1", "tau_phi"):
        if key in est:
            est[key] = abs(est[key])
    flags = fit.flags
    if any(est.get(k, 0.0) > UNBOUNDED_SCALE * span for k in ("tau1", "tau_phi")):
        if "unbounded-parameter" not in flags:
            flags = flags + ("unbounded-parameter",)
    return replace(fit, estimates=est, flags=flags)
