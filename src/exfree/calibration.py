"""Calibration fits: pair-interaction strength, pump-induced Stark detuning,
and damped population oscillations.

Each fit polishes one closed-form start with one Levenberg-Marquardt run,
a numpy port of MINPACK lmder (More, Lecture Notes in Math. 630, 105
(1978)) on forward-difference Jacobians: scipy's `least_squares(method=
"lm")` takes the same steps, up to rounding.  Stark detuning: every point
inverts to delta_0, and the start is their mean.  Pair strength and damped
oscillation: amplitude and offset are solved linearly on a fixed grid of the
remaining rate (variable projection: Golub & Pereyra, SIAM J. Numer. Anal.
10, 413 (1973)); the oscillation's frequency and total decay rate are its
complex pole pair, from a rank-4 Hankel SVD (matrix pencil: Hua & Sarkar,
IEEE Trans. ASSP 38, 814 (1990)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import pi

import numpy as np

from .errors import InvalidParameterError, RegimeError

#: Parameter magnitude beyond which an estimate is reported as effectively
#: unbounded (e.g. a decay time fitted to an undamped trace).
UNBOUNDED_SCALE = 1e6


@dataclass(frozen=True)
class FitResult:
    """Outcome of one calibration fit; `iterations` is the number of
    residual evaluations (`nfev`) of its single Levenberg-Marquardt polish,
    the Jacobians' difference columns not counted."""

    estimates: dict[str, float]
    uncertainties: dict[str, float]
    residual_norm: float
    iterations: int
    converged: bool
    flags: tuple[str, ...] = ()


#: Residual evaluations one polish may spend.  100 per parameter stop a
#: pair-strength fit far from t = 0 partway along its narrow valley.
_MAX_NFEV = 1000

#: ftol, xtol and gtol of the Levenberg-Marquardt stopping tests.
_TOL = 1e-8

_TINY = np.finfo(float).tiny


def _jacobian(fun, x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Forward differences of `fun` at `x`, where it takes the value `f`.

    The step is h = sqrt(eps) max(1, |x_j|) with the sign of x_j (+ at 0),
    and each column divides by the step x + h actually took.
    """
    h = np.sqrt(np.finfo(float).eps) * np.where(x >= 0, 1.0, -1.0)
    h = h * np.maximum(1.0, np.abs(x))
    jac = np.empty((f.size, x.size))
    for j in range(x.size):
        shifted = x.copy()
        shifted[j] += h[j]
        jac[:, j] = (fun(shifted) - f) / (shifted[j] - x[j])
    return jac


def _lm_parameter(s, c, delta: float, par: float) -> tuple[float, np.ndarray]:
    """MINPACK's lmpar on the SVD J D^-1 = U diag(s) V^T, with c = U^T f.

    The damped step is w = -V^T D p = s c / (s^2 + par): returns the par >= 0
    whose |w| lies within 10% of `delta`, or 0 when the Gauss-Newton step
    (the pseudo-inverse's) already fits, and that step w.  Starts from the
    previous `par`, kept inside the Newton bounds, and takes at most ten
    Newton steps on |w(par)| - delta.
    """
    w = np.divide(c, s, out=np.zeros_like(c), where=s > 0)
    wnorm = np.linalg.norm(w)
    fp = wnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, w

    def newton(par, w):  # the Newton correction of par for |w(par)| - delta
        wnorm = np.linalg.norm(w)
        return (wnorm - delta) / delta / (np.sum(w**2 / (s**2 + par)) / wnorm**2)

    low = newton(0.0, w) if np.all(s > 0) else 0.0
    grad = np.linalg.norm(s * c)
    high = grad / delta if grad > 0 else _TINY / min(delta, 0.1)
    par = min(max(par, low), high)
    if par == 0:
        par = grad / wnorm
    for count in range(1, 11):
        if par == 0:
            par = max(_TINY, 0.001 * high)
        w = s * c / (s**2 + par)
        wnorm = np.linalg.norm(w)
        previous, fp = fp, wnorm - delta
        if abs(fp) <= 0.1 * delta or (low == 0 and fp <= previous < 0) or count == 10:
            break
        correction = newton(par, w)
        if fp > 0:
            low = max(low, par)
        elif fp < 0:
            high = min(high, par)
        par = max(low, par + correction)
    return par, w


def _levenberg_marquardt(
    fun, x: np.ndarray, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """MINPACK lmder (More, Lecture Notes in Math. 630, 105 (1978)) from `x`,
    where `fun` takes the value `f`, with forward-difference Jacobians.

    Scaling D is the running maximum of the Jacobian column norms, the first
    trust radius is 100 |D x| (100 at x = 0), and the radius and par follow
    MINPACK's ratio rules.  Returns the solution, its residuals, the number
    of residual evaluations (difference columns excluded) and whether a
    stopping test (ftol, xtol or gtol) was met within _MAX_NFEV evaluations.
    """
    nfev, fnorm, par, first = 1, np.linalg.norm(f), 0.0, True
    while True:
        jac = _jacobian(fun, x, f)
        col_norms = np.linalg.norm(jac, axis=0)
        if first:
            diag = np.where(col_norms > 0, col_norms, 1.0)
            xnorm = np.linalg.norm(diag * x)
            delta = 100.0 * xnorm if xnorm > 0 else 100.0
        # gtol: the largest cosine between f and a column of J
        products = np.abs(jac.T @ f) / np.where(col_norms > 0, col_norms, np.inf)
        if fnorm == 0 or products.max() / fnorm <= _TOL:
            return x, f, nfev, True
        diag = np.maximum(diag, col_norms)
        u, s, vt = np.linalg.svd(jac / diag, full_matrices=False)
        c = u.T @ f
        while True:
            par, w = _lm_parameter(s, c, delta, par)
            step = -(vt.T @ w) / diag
            pnorm = np.linalg.norm(w)
            if first:
                delta = min(delta, pnorm)
            trial = x + step
            f_trial = fun(trial)
            nfev += 1
            fnorm1 = np.linalg.norm(f_trial)
            # actual and predicted reductions of |f|^2, relative to |f|^2
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            linear = (np.linalg.norm(jac @ step) / fnorm) ** 2
            damping = par * (pnorm / fnorm) ** 2
            prered = linear + 2.0 * damping
            dirder = -(linear + damping)
            ratio = actred / prered if prered != 0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5
            if ratio >= 1e-4:
                x, f, fnorm, first = trial, f_trial, fnorm1, False
                xnorm = np.linalg.norm(diag * x)
            ftol = abs(actred) <= _TOL and prered <= _TOL and 0.5 * ratio <= 1.0
            if ftol or delta <= _TOL * xnorm:
                return x, f, nfev, True
            if nfev >= _MAX_NFEV:
                return x, f, nfev, False
            if ratio >= 1e-4:
                break


def _polish(residual_fn, x0, names) -> FitResult:
    """One Levenberg-Marquardt run from `x0`, with linearized uncertainties."""
    x0 = np.asarray(x0, dtype=float)
    f0 = residual_fn(x0)
    if not np.all(np.isfinite(f0)):
        return FitResult({}, {}, float("inf"), 0, False, ("nonconvergence",))
    x, f, nfev, success = _levenberg_marquardt(residual_fn, x0, f0)
    jac = _jacobian(residual_fn, x, f)
    cost = 0.5 * np.dot(f, f)
    flags = []
    m, n = jac.shape
    sigmas = {name: float("nan") for name in names}
    try:
        jtj_inv = np.linalg.inv(jac.T @ jac)
        scale = 2.0 * cost / max(m - n, 1)
        diag = np.diag(jtj_inv) * scale
        sigmas = {name: float(np.sqrt(max(d, 0.0))) for name, d in zip(names, diag)}
    except np.linalg.LinAlgError:
        flags.append("singular-jacobian")
    if any(abs(v) > UNBOUNDED_SCALE for v in x):
        flags.append("unbounded-parameter")
    converged = success and "singular-jacobian" not in flags
    return FitResult(
        estimates={name: float(v) for name, v in zip(names, x)},
        uncertainties=sigmas,
        residual_norm=float(np.sqrt(2.0 * cost)),
        iterations=nfev,
        converged=converged,
        flags=tuple(flags),
    )


def _profile(shapes: np.ndarray, y: np.ndarray) -> tuple[int, float, float]:
    """Least squares of y = offset + amplitude * shape for every row of
    `shapes`; returns the row of least cost with its (amplitude, offset)."""
    centred = shapes - shapes.mean(axis=1, keepdims=True)
    y_centred = y - y.mean()
    cov = centred @ y_centred
    var = np.einsum("ij,ij->i", centred, centred)
    amplitude = np.divide(cov, var, out=np.zeros_like(cov), where=var > 0)
    k = int(np.argmax(amplitude * cov))  # cost = |y_centred|^2 - amplitude * cov
    return k, float(amplitude[k]), float(y.mean() - amplitude[k] * shapes[k].mean())


def _samples(points, values) -> tuple[np.ndarray, np.ndarray]:
    """Sample points and their values as 1-D float arrays of one length."""
    x, y = np.asarray(points, dtype=float), np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InvalidParameterError(f"need one value per sample point: {y.shape} for {x.shape}")
    return x, y


def _uniform_trace(times, values) -> tuple[np.ndarray, np.ndarray, float]:
    """A trace as float arrays with its sampling step; at least 16 samples
    on a uniform grid of increasing times."""
    t, y = _samples(times, values)
    if t.size < 16:
        raise InvalidParameterError("need at least 16 samples")
    dt = t[1] - t[0]
    if not dt > 0 or not np.allclose(np.diff(t), dt, rtol=1e-9, atol=1e-12):
        raise InvalidParameterError("trace must be uniformly sampled")
    return t, y, float(dt)


def _cosh2(x) -> np.ndarray:
    """cosh^2(x) with |x| clipped at 350, where 1/cosh^2 is below 1e-303 and
    cosh^2 still fits in a float: nothing overflows."""
    return np.cosh(np.clip(x, -350.0, 350.0)) ** 2


def vacuum_probability(g: float, t) -> np.ndarray:
    """Ideal vacuum-return probability of one cavity under pair pumping,
    P0(t) = 1/cosh^2(g t)."""
    return 1.0 / _cosh2(g * np.asarray(t, dtype=float))


def generate_tmsv_trace(
    g: float, t_grid, noise_sigma: float | None = None, seed: int | None = None
) -> np.ndarray:
    """Synthetic calibration data: P0(t) with optional additive Gaussian noise."""
    if g <= 0:
        raise InvalidParameterError("coupling must be positive")
    if seed is not None and seed < 0:
        raise InvalidParameterError("seed must be nonnegative")
    if noise_sigma is not None and not noise_sigma >= 0:
        raise InvalidParameterError("noise_sigma must be nonnegative")
    p0 = vacuum_probability(g, t_grid)
    if noise_sigma:
        rng = np.random.default_rng(seed)
        p0 = p0 + rng.normal(0.0, noise_sigma, size=p0.shape)
    return p0


#: Samples a pair-strength fit needs for its three parameters (a, b, g).
_TMS_MIN_SAMPLES = 8


def fit_tms_strength(t, p0) -> FitResult:
    """Fit P0 = a/cosh^2(g t) + b; recovers the pair-interaction strength g."""
    t, p0 = _samples(t, p0)
    if t.size < _TMS_MIN_SAMPLES:
        raise InvalidParameterError(f"need at least {_TMS_MIN_SAMPLES} samples to fit (a, b, g)")

    def residual(x):
        a, b, g = x
        return a / _cosh2(g * t) + b - p0

    t_span = max(t.max() - t.min(), 1e-12)
    # g * max|t|, not g * span, sets how far the shape falls on the grid
    g_grid = np.geomspace(1e-2, 30.0, 49) / max(np.abs(t).max(), 1e-12)
    # constant data: the centred covariances in _profile leave a start
    # amplitude at rounding level, far below the resolution of b, so the
    # Jacobian's g column vanishes and the fit reports "singular-jacobian"
    k, a, b = _profile(1.0 / _cosh2(np.outer(g_grid, t)), p0)
    fit = _polish(residual, (a, b, g_grid[k]), ("a", "b", "g"))
    if fit.converged and abs(fit.estimates.get("g", 0.0)) * t_span < 1e-6:
        fit = replace(fit, converged=False, flags=fit.flags + ("degenerate-data",))
    # sign ambiguity: cosh is even in g
    if fit.estimates.get("g", 0.0) < 0:
        fit = replace(fit, estimates={**fit.estimates, "g": -fit.estimates["g"]})
    return fit


def bus_period_model(delta_d, delta_0: float, g: float) -> np.ndarray:
    """tau_S2 as a function of the intentional detuning, for known g; a
    RegimeError unless every (delta_d + delta_0)^2 exceeds 8 g^2."""
    delta = np.asarray(delta_d, dtype=float) + delta_0
    arg = delta**2 - 8.0 * g**2
    if not np.all(arg > 0):
        raise RegimeError("a total detuning is at or below the oscillatory threshold 2*sqrt(2)*g")
    return 2.0 * pi / np.sqrt(arg)


def fit_stark_detuning(delta_d, tau_s2, g: float) -> FitResult:
    """Recover the pump-induced Stark detuning delta_0 from (delta_d, tau_S2)
    pairs, fitting tau_S2 = 2*pi/sqrt((delta_d + delta_0)^2 - 8 g^2)."""
    delta_d, tau_s2 = _samples(delta_d, tau_s2)
    if delta_d.size < 2:
        raise InvalidParameterError("under-determined: need at least 2 points")
    if delta_d.size < 4:
        raise InvalidParameterError("need at least 4 points for a stable fit")
    if np.any(tau_s2 <= 0):
        raise InvalidParameterError("bus periods must be positive")

    def residual(x):
        (d0,) = x
        total = delta_d + d0
        arg = total**2 - 8.0 * g**2
        # keep the model defined when a trial step leaves the regime
        arg = np.where(arg > 1e-18, arg, 1e-18)
        return 2.0 * pi / np.sqrt(arg) - tau_s2

    # each point inverts the model; the oscillatory regime fixes the root
    per_point = np.sqrt((2.0 * pi / tau_s2) ** 2 + 8.0 * g**2) - delta_d
    return _polish(residual, (float(per_point.mean()),), ("delta_0",))


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
    amplitude, offset), with omega >= 0.  The trace must be uniformly
    sampled."""
    t, values, dt = _uniform_trace(t, values)
    span = t[-1] - t[0]

    # The model is the sum of four exponentials with poles 1, exp(-dt/tau1)
    # and exp((-gamma +- i omega) dt), gamma = 1/tau1 + 1/tau_phi.  The
    # rank-4 row space of the Hankel matrix of the trace is shift invariant,
    # and the shift's eigenvalues are the poles.
    hankel = np.lib.stride_tricks.sliding_window_view(values, values.size // 3 + 1)
    basis = np.linalg.svd(hankel, full_matrices=False)[2][:4].T
    poles = np.linalg.eigvals(np.linalg.lstsq(basis[:-1], basis[1:], rcond=None)[0])
    # Weigh the poles on the trace; the one nearest 1 is the offset's.  The
    # pair weighs half the decay pole, so a far lighter complex pair is noise
    # and the trace oscillates at 0 or at the Nyquist frequency (pole -1).
    decaying = poles / np.maximum(np.abs(poles), 1.0)  # the model cannot grow
    vandermonde = decaying ** np.arange(t.size)[:, None]
    weights = np.abs(np.linalg.lstsq(vandermonde, values, rcond=None)[0])
    weights[np.argmin(np.abs(poles - 1.0))] = 0.0
    oscillating = np.where(poles.imag > 0, weights, 0.0)
    if oscillating.max() >= 0.1 * weights.max():
        weights = oscillating
    pair = poles[np.argmax(weights)]
    omega = abs(np.angle(pair)) / dt
    gamma = max(-np.log(max(abs(pair), np.finfo(float).tiny)) / dt, 0.0)

    # 1/tau1 takes a share of gamma; profile the share on a grid that is
    # dense at both ends, where one of the two times is unbounded
    h = np.geomspace(1e-6, 0.5, 24)
    share = np.concatenate([[0.0], h, 1.0 - h[-2::-1], [1.0]])
    shapes = np.exp(-np.outer(gamma * share, t)) + np.exp(-gamma * t) * np.cos(omega * t)
    k, amplitude, offset = _profile(shapes, values)
    cap = 10.0 * UNBOUNDED_SCALE * span  # beyond the unbounded threshold
    rates = np.maximum(gamma * np.array([share[k], 1.0 - share[k]]), 1.0 / cap)
    x0 = (*(1.0 / rates), omega, amplitude, offset)

    def residual(x):
        tau1, tau_phi, omega, amplitude, offset = x
        # even continuation keeps LM stable if a step makes a tau negative
        return (
            damped_oscillation_model(t, abs(tau1), abs(tau_phi), omega, amplitude, offset)
            - values
        )

    fit = _polish(residual, x0, ("tau1", "tau_phi", "omega", "amplitude", "offset"))
    # cos is even in omega, and the model in the times through abs()
    est = {
        k: abs(v) if k in ("tau1", "tau_phi", "omega") else v for k, v in fit.estimates.items()
    }
    flags = fit.flags
    unbounded = any(est.get(k, 0.0) > UNBOUNDED_SCALE * span for k in ("tau1", "tau_phi"))
    if unbounded and "unbounded-parameter" not in flags:
        flags = flags + ("unbounded-parameter",)
    return replace(fit, estimates=est, flags=flags)
