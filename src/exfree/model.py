"""Hamiltonian and dissipator builders for the three-mode chain.

Internal units: angular frequency in rad/us, time in us.  Configuration
files quote frequencies as f/2pi in kHz; use `khz_to_angular` to convert.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import sqrt
from typing import Optional

import numpy as np

from .errors import InvalidParameterError, RegimeError
from .fock import (
    ModeDims,
    OperatorMatrix,
    annihilation_op,
    embed_op,
    number_op,
)

TWO_PI = 2.0 * np.pi

#: Oscillation occurs only above delta = 2*sqrt(2)*g; below it the system
#: enters parametric oscillation and populations diverge.
REGIME_FACTOR = 2.0 * sqrt(2.0)

DEFAULT_DIMS = ModeDims((6, 5, 6))


def khz_to_angular(f_khz: float) -> float:
    """f/2pi in kHz -> angular frequency in rad/us."""
    return TWO_PI * f_khz * 1e-3


def angular_to_khz(omega: float) -> float:
    return omega / TWO_PI * 1e3


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the two-pump three-mode system.

    g1, g2: pair-creation coupling strengths (rad/us), both > 0.
    delta:  common pump detuning on the bus mode (rad/us).
    Per-mode coherence inputs are optional; a None T1 means no decay.
    """

    g1: float
    g2: float
    delta: float
    dims: ModeDims = DEFAULT_DIMS
    t1: tuple[Optional[float], ...] = (None, None, None)
    tphi: tuple[Optional[float], ...] = (None, None, None)
    n_th: tuple[float, ...] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.g1 <= 0 or self.g2 <= 0:
            raise InvalidParameterError("coupling strengths must be positive")
        if not isinstance(self.dims, ModeDims):
            object.__setattr__(self, "dims", ModeDims(self.dims))
        if any(len(v) != self.dims.n_modes for v in (self.t1, self.tphi, self.n_th)):
            raise InvalidParameterError("t1, tphi and n_th need one entry per mode")
        for t in (*self.t1, *self.tphi):
            if t is not None and t <= 0:
                raise InvalidParameterError("coherence times must be positive")
        if any(n < 0 for n in self.n_th):
            raise InvalidParameterError("thermal populations must be nonnegative")

    @classmethod
    def from_khz(cls, g1_khz, g2_khz, delta_khz, **kwargs) -> "SystemParams":
        """Build from lab-unit inputs (f/2pi in kHz)."""
        return cls(
            g1=khz_to_angular(g1_khz),
            g2=khz_to_angular(g2_khz),
            delta=khz_to_angular(delta_khz),
            **kwargs,
        )

    @property
    def g(self) -> float:
        """Common coupling; only meaningful when g1 == g2."""
        return max(self.g1, self.g2)

    def with_dims(self, dims) -> "SystemParams":
        return replace(self, dims=ModeDims(tuple(dims)))


def is_oscillatory(params: SystemParams) -> bool:
    return params.delta > REGIME_FACTOR * params.g


def require_oscillatory(params: SystemParams) -> None:
    if not is_oscillatory(params):
        raise RegimeError(
            f"delta={params.delta:.4g} rad/us is not above 2*sqrt(2)*g="
            f"{REGIME_FACTOR * params.g:.4g}; a quantum phase transition occurs "
            "below that threshold and the oscillatory solutions do not apply"
        )


def _lowering(params: SystemParams, mode: int) -> OperatorMatrix:
    """Annihilation operator of one mode, embedded in the joint space."""
    return embed_op(annihilation_op(params.dims[mode]), mode, params.dims)


def build_h_tms(params: SystemParams, pair: str) -> OperatorMatrix:
    """Pair-creation coupling g*(a_x^dag a_2^dag + a_x a_2) for one pump.

    pair is "S1S2" (x = mode 0, strength g1) or "S3S2" (x = mode 2, g2).
    """
    if pair == "S1S2":
        x, g = 0, params.g1
    elif pair == "S3S2":
        x, g = 2, params.g2
    else:
        raise InvalidParameterError(f"pair must be 'S1S2' or 'S3S2', got {pair!r}")
    pair_annihilation = _lowering(params, x) @ _lowering(params, 1)
    return g * (pair_annihilation + pair_annihilation.dag)


def build_h_detune(params: SystemParams) -> OperatorMatrix:
    """Bus detuning term delta * n_2."""
    return params.delta * embed_op(number_op(params.dims[1]), 1, params.dims)


def build_h_full(params: SystemParams) -> OperatorMatrix:
    """Full detuned two-pump Hamiltonian: both pair couplings plus delta*n_2."""
    return build_h_tms(params, "S1S2") + build_h_tms(params, "S3S2") + build_h_detune(params)


def build_h_eff(params: SystemParams) -> OperatorMatrix:
    """Effective end-mode exchange g_eff*(a1^dag a3 + a1 a3^dag), g_eff = g1 g2/delta.

    Valid in the far-detuned limit where the bus is adiabatically eliminated.
    """
    if params.delta == 0:
        raise InvalidParameterError("effective coupling g1*g2/delta undefined at delta=0")
    g_eff = params.g1 * params.g2 / params.delta
    exchange = _lowering(params, 0).dag @ _lowering(params, 2)
    return g_eff * (exchange + exchange.dag)


def build_h_bs_reference(params: SystemParams) -> OperatorMatrix:
    """Excitation-exchanging bus Hamiltonian used as the comparison baseline.

    g1*(a1^dag a2 + h.c.) + g2*(a3^dag a2 + h.c.) + delta*n_2; conserves the
    total photon number.
    """
    bus = _lowering(params, 1)
    hop1 = _lowering(params, 0).dag @ bus
    hop3 = _lowering(params, 2).dag @ bus
    return params.g1 * (hop1 + hop1.dag) + params.g2 * (hop3 + hop3.dag) + build_h_detune(params)


def collapse_operators(params: SystemParams) -> list[OperatorMatrix]:
    """Standard Lindblad dissipators from per-mode T1/Tphi/n_th.

    Per mode with finite T1: sqrt((1+n_th)/T1)*a (and sqrt(n_th/T1)*a^dag if
    n_th > 0); per mode with finite Tphi: sqrt(2/Tphi)*n.
    """
    dims = params.dims
    ops: list[OperatorMatrix] = []
    for k in range(dims.n_modes):
        t1 = params.t1[k]
        if t1 is not None:
            nth = params.n_th[k]
            a_k = _lowering(params, k)
            ops.append(float(np.sqrt((1.0 + nth) / t1)) * a_k)
            if nth > 0:
                ops.append(float(np.sqrt(nth / t1)) * a_k.dag)
        tphi = params.tphi[k]
        if tphi is not None:
            ops.append(float(np.sqrt(2.0 / tphi)) * embed_op(number_op(dims[k]), k, dims))
    return ops


#: Cavity T1 lifetimes (us) of the device characterization table, in mode
#: order (S1, S2, S3); thermal populations in the same order.
CAVITY_T1_US = (265.0, 300.0, 314.0)
CAVITY_N_TH = (0.03, 0.02, 0.025)


def with_cavity_decoherence(params: SystemParams, thermal: bool = False) -> SystemParams:
    """Attach the measured cavity T1s (optionally thermal populations)."""
    return replace(
        params,
        t1=CAVITY_T1_US,
        n_th=CAVITY_N_TH if thermal else (0.0, 0.0, 0.0),
    )
