"""Closed-form Heisenberg-picture solutions and derived timescales.

These formulas assume equal couplings g1 = g2 = g and the oscillatory
regime delta > 2*sqrt(2)*g.  They serve as the independent oracle against
which the numerical propagators are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, cosh, pi, sin, sqrt, tanh

import numpy as np

from .errors import InvalidParameterError
from .model import REGIME_FACTOR, SystemParams, require_oscillatory


def _require_symmetric(params: SystemParams) -> float:
    if not np.isclose(params.g1, params.g2, rtol=1e-12, atol=0.0):
        raise InvalidParameterError(
            "closed-form solutions require g1 == g2; use the numerical "
            "propagators for asymmetric couplings"
        )
    return params.g1


def omega(params: SystemParams) -> float:
    """Characteristic rate Omega = sqrt(delta^2/8 - g^2) (rad/us)."""
    g = _require_symmetric(params)
    require_oscillatory(params)
    return sqrt(params.delta**2 / 8.0 - g**2)


@dataclass(frozen=True)
class CoeffSet:
    """Bogoliubov coefficients of the Heisenberg-picture mode mixing at time t.

    a1(t) = c11 a1 + c12 a2^dag + c13 a3, and cyclic; the commutator algebra
    imposes |c11|^2 + |c13|^2 - |c12|^2 = 1 and
    c11 conj(c31) + c13 conj(c33) - c12 conj(c32) = 0.
    """

    t: float
    c11: complex
    c12: complex
    c13: complex
    c21: complex
    c22: complex
    c23: complex
    c31: complex
    c32: complex
    c33: complex

    def bogoliubov_defects(self) -> tuple[float, float]:
        d1 = abs(abs(self.c11) ** 2 + abs(self.c13) ** 2 - abs(self.c12) ** 2 - 1.0)
        d2 = abs(
            self.c11 * np.conj(self.c31)
            + self.c13 * np.conj(self.c33)
            - self.c12 * np.conj(self.c32)
        )
        return d1, d2


def heisenberg_coeffs(params: SystemParams, t: float) -> CoeffSet:
    g = _require_symmetric(params)
    om = omega(params)
    delta = params.delta
    phase = np.exp(1j * delta * t / 2.0)
    c = cos(sqrt(2.0) * om * t)
    s = sin(sqrt(2.0) * om * t)
    minus = phase * (c - 1j * delta / (sqrt(8.0) * om) * s)
    plus = phase * (c + 1j * delta / (sqrt(8.0) * om) * s)
    c11 = 0.5 * (1.0 + minus)
    c31 = 0.5 * (minus - 1.0)
    c12 = -1j * g / (sqrt(2.0) * om) * phase * s
    return CoeffSet(
        t=t,
        c11=c11,
        c12=c12,
        c13=c31,
        c21=c12,
        c22=plus,
        c23=c12,
        c31=c31,
        c32=c12,
        c33=c11,
    )


def mean_photon_numbers(params: SystemParams, t: float, n1_0: int = 1):
    """Analytic (n1, n2, n3) for initial photons only in S1.

    n1 = n1(0)|c11|^2 + |c21|^2, n2 = (2 + n1(0))|c21|^2,
    n3 = n1(0)|c31|^2 + |c21|^2.
    """
    if n1_0 < 0:
        raise InvalidParameterError("initial photon number must be nonnegative")
    cs = heisenberg_coeffs(params, t)
    a11 = abs(cs.c11) ** 2
    a21 = abs(cs.c21) ** 2
    a31 = abs(cs.c31) ** 2
    return (n1_0 * a11 + a21, (2.0 + n1_0) * a21, n1_0 * a31 + a21)


def tau_st(params: SystemParams) -> float:
    """Full S1 <-> S3 transfer period tau_ST = pi/(delta/2 - sqrt(2)*Omega)."""
    om = omega(params)
    return pi / (params.delta / 2.0 - sqrt(2.0) * om)


def tau_s2(params: SystemParams) -> float:
    """Bus-population oscillation period tau_S2 = pi/(sqrt(2)*Omega)."""
    return pi / (sqrt(2.0) * omega(params))


def timing_ratio(params: SystemParams) -> float:
    """tau_ST / tau_S2; integer values are the sweet points."""
    om = omega(params)
    return sqrt(2.0) * om / (params.delta / 2.0 - sqrt(2.0) * om)


def sweet_point_detuning(g: float, k: int) -> float:
    """Detuning where tau_ST = k * tau_S2, so the bus empties exactly at swap.

    Closed form delta = g*sqrt(8*(1+k)^2/(1+2k)); cross-validated against a
    numeric root-find in `sweet_point_detuning_numeric`.
    """
    if g <= 0:
        raise InvalidParameterError("coupling must be positive")
    if k < 1:
        raise InvalidParameterError("sweet-point index must be a positive integer")
    return g * sqrt(8.0 * (1 + k) ** 2 / (1 + 2 * k))


def sweet_point_detuning_numeric(g: float, k: int) -> float:
    """Root-find of tau_ST/tau_S2 = k; independent check of the closed form.

    Bisection on the oscillatory regime's bracket, until it is narrower than
    1e-15 + 1e-14 * delta.
    """
    if g <= 0 or k < 1:
        raise InvalidParameterError("need g > 0 and k >= 1")

    def ratio_minus_k(delta):
        u = delta / 2.0
        root = sqrt(u * u - 2.0 * g * g)
        return root / (u - root) - k

    # the ratio rises from 0 at the regime boundary
    lo = REGIME_FACTOR * g * (1.0 + 1e-12)
    hi = REGIME_FACTOR * g * (10.0 + 4.0 * k)
    while hi - lo >= 1e-15 + 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ratio_minus_k(mid) < 0 else (lo, mid)
    return 0.5 * (lo + hi)


def g_eff(params: SystemParams) -> float:
    """Effective end-mode exchange rate g1*g2/delta."""
    if params.delta == 0:
        raise InvalidParameterError("g_eff undefined at delta = 0")
    return params.g1 * params.g2 / params.delta


def tmsv_joint_population(r: float, n: int) -> float:
    """P(n,n) of the two-mode squeezed vacuum, (tanh^n r / cosh r)^2."""
    if r < 0:
        raise InvalidParameterError("squeezing degree must be nonnegative")
    if n < 0:
        raise InvalidParameterError("photon number must be nonnegative")
    if r == 0:
        return 1.0 if n == 0 else 0.0
    return (tanh(r) ** n / cosh(r)) ** 2


def n2_amplitude(params: SystemParams) -> float:
    """Peak of |c21(t)|^2 = (g/(sqrt2*Omega))^2; per-photon bus leakage scale."""
    g = _require_symmetric(params)
    return (g / (sqrt(2.0) * omega(params))) ** 2


def bs_reference_timing(params: SystemParams) -> tuple[float, float]:
    """(tau_ST, bus-leakage amplitude) for the exchange-interaction baseline.

    Omega2 = sqrt(delta^2/8 + g^2) is always real, so there is no regime
    restriction: tau_ST = pi/(sqrt2*Omega2 - delta/2), amplitude
    (g/(sqrt2*Omega2))^2.
    """
    g = _require_symmetric(params)
    if params.delta < 0:
        raise InvalidParameterError("delta must be nonnegative for the comparison")
    om2 = sqrt(params.delta**2 / 8.0 + g**2)
    return (
        pi / (sqrt(2.0) * om2 - params.delta / 2.0),
        (g / (sqrt(2.0) * om2)) ** 2,
    )
