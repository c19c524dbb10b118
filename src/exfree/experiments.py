"""Protocol-level experiment runners.

Each runner assembles the initial state, propagates it with the requested
method, applies any conditioning, and reports trajectories and figures of
merit in a `ProtocolResult`.  All runners are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, sqrt
from typing import Optional, Sequence

import numpy as np

from .analytic import bs_reference_timing, n2_amplitude, tau_st
from .calibration import _uniform_trace
from .dynamics import (EvolutionSpec, apply_jump, evolve_lindblad, evolve_trotter,
                       evolve_unitary, propagate_lindblad_matrix)
from .errors import DimensionError, InvalidParameterError
from .fock import (DensityMatrix, StateVector, _outer, binomial_code_state,
                   fock_probabilities, fock_state, mode_populations, partial_trace,
                   product_state)
from .metrics import (depolarizing_budget, negativity, optimize_mode_phase, parity_split,
                      pauli_table_02, process_fidelity_qubit_subspace, process_matrix,
                      qubit_pair_02, wigner)
from .model import (SystemParams, build_h_full, collapse_operators, is_oscillatory,
                    with_cavity_decoherence)

#: Effective discard rate (1/us) of the auxiliary-qubit herald; the failure
#: probability of that purification stage over a pump of length t is
#: 1 - exp(-GAMMA_Q * t).
DEFAULT_GAMMA_Q = 0.02


@dataclass
class ProtocolResult:
    """Uniform container returned by every runner.

    times/populations carry the sampled trajectory (populations has one
    column per mode); `series` holds extra named traces on the same grid,
    `scalars` the figures of merit, and `tables` structured summaries.
    `states` keeps final/conditioned states for further analysis and is not
    serialized by the CLI.
    """

    name: str
    times: Optional[np.ndarray] = None
    populations: Optional[np.ndarray] = None
    series: dict[str, np.ndarray] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)
    tables: dict[str, dict] = field(default_factory=dict)
    states: dict[str, object] = field(default_factory=dict)


def _sample_grid(spec: EvolutionSpec) -> np.ndarray:
    if spec.sample_times:
        return np.asarray(spec.sample_times, dtype=float)
    return np.linspace(0.0, spec.total_time, 801)


def _evolve_trajectory(
    params: SystemParams, psi0: StateVector, spec: EvolutionSpec, times: np.ndarray
):
    """The trajectory at the requested times: one StateVector or
    DensityMatrix with a leading sample axis."""
    if spec.method == "exact":
        return evolve_unitary(build_h_full(params), psi0, times)
    if spec.method == "trotter":
        return evolve_trotter(params, psi0, times, spec.trotter_dt)
    # "lindblad": EvolutionSpec admits no other method; psi psi^dag on psi's support
    rho0 = DensityMatrix._on_support(*_outer(psi0, psi0), psi0.dims)
    return evolve_lindblad(
        build_h_full(params), collapse_operators(params), rho0, times, spec.rtol
    )


def dominant_period(times, values) -> float:
    """Period of the dominant spectral line of a uniformly sampled trace.

    Detrends, applies a Hann window, zero-pads 16x, and refines the peak bin
    by parabolic interpolation of the log magnitude.  Robust against the
    fast ripple that makes naive peak picking unreliable on these
    trajectories.  A flat trace, whose detrended values are no more than
    the rounding of its mean, has no line: InvalidParameterError.
    """
    _, trace, dt = _uniform_trace(times, values)
    y = trace - trace.mean()
    # a flat trace leaves only the rounding of its mean: no weight at k >= 1
    if not np.abs(y).max() > y.size * np.finfo(float).eps * np.abs(trace).max():
        raise InvalidParameterError("no oscillation found in trace")
    y *= np.hanning(y.size)
    n_pad = int(2 ** np.ceil(np.log2(16 * y.size)))
    mag = np.abs(np.fft.rfft(y, n=n_pad))
    k = int(np.argmax(mag[1:])) + 1
    if 1 <= k < mag.size - 1 and mag[k - 1] > 0 and mag[k + 1] > 0:
        lm, l0, lp = np.log(mag[k - 1]), np.log(mag[k]), np.log(mag[k + 1])
        denom = lm - 2.0 * l0 + lp
        shift = 0.5 * (lm - lp) / denom if abs(denom) > 1e-300 else 0.0
    else:
        shift = 0.0
    freq = (k + shift) / (n_pad * dt)
    if freq <= 0:
        raise InvalidParameterError("no oscillation found in trace")
    return float(1.0 / freq)


def estimate_swap_time(times, end_mode_population) -> float:
    """Swap time from the end-mode population trace.

    The population returns to its initial value every full cycle, so the
    dominant period is twice the transfer time.
    """
    return 0.5 * dominant_period(times, end_mode_population)


def run_single_photon_qst(
    params: SystemParams, spec: Optional[EvolutionSpec] = None
) -> ProtocolResult:
    """Single-photon transfer |100> -> |001>: population trajectories and the
    measured swap time."""
    if spec is None:
        spec = EvolutionSpec(total_time=2.0 * tau_st(params))
    times = _sample_grid(spec)
    psi0 = fock_state(params.dims, (1, 0, 0))
    traj = _evolve_trajectory(params, psi0, spec, times)
    pops = mode_populations(traj)
    result = ProtocolResult(name="single-photon-qst", times=times, populations=pops)
    if is_oscillatory(params):
        result.scalars["swap_time_analytic"] = tau_st(params)
        # the spectral estimate needs a window many swap cycles long
        if times.size >= 64 and times[-1] - times[0] >= 8.0 * tau_st(params):
            result.scalars["swap_time_estimate"] = estimate_swap_time(times, pops[:, 2])
    result.states["final"] = traj[-1]
    return result


def transfer_choi(params: SystemParams, spec: EvolutionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized Choi matrices (raw, conditioned) of the S1 -> S3
    qubit-subspace channel of a transfer of duration `spec.total_time`.

    Block (i, j) of each 4x4 matrix is the {|0>,|1>} block of S3 after
    propagating |i00><j00|; `conditioned` keeps only the bus-vacuum (n2 = 0)
    rows and columns of the propagated matrix.  Traces below 2 measure
    leakage and, with conditioning, the discarded bus-occupied branch.
    The channel is linear, so two held images serve every method, those of
    u = |000><000| + i |100><100| and of |000><100|: "lindblad" propagates
    the two at `spec.rtol`, and the exact and Trotter methods form them from
    the propagated |000> and |100>.  All are reduced to S3 alike.
    """
    dims = params.dims
    t = np.array([spec.total_time])
    psi = [fock_state(dims, (i, 0, 0)) for i in range(2)]
    if spec.method != "lindblad":
        psi = [_evolve_trajectory(params, s, spec, t)[-1] for s in psi]
    u00, u11 = _outer(psi[0], psi[0]), _outer(psi[1], psi[1])
    # in different charge sectors, side by side in u: sorted at t = 0, |000> first
    images = [tuple(np.concatenate(x) for x in zip(u00, (u11[0], 1j * u11[1]))),
              _outer(psi[0], psi[1])]
    if spec.method == "lindblad":
        images = [(support, values[-1]) for support, values in propagate_lindblad_matrix(
            build_h_full(params), collapse_operators(params), images, t, spec.rtol)]

    def traced(support: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The raw and bus-vacuum S3 {|0>,|1>} blocks of one held image, in support order."""
        a, b, k, a2, b2, l = np.unravel_index(support, tuple(dims) * 2)
        on, blocks = (a == a2) & (b == b2) & (k < 2) & (l < 2), np.zeros((2, 4), dtype=complex)
        for row, kept in zip(blocks, (on, on & (b == 0))):
            np.add.at(row, 2 * k[kept] + l[kept], values[kept])
        return blocks.reshape(2, 2, 2)

    # the map and the partial trace keep Hermiticity: the images of u00 and
    # u11 are the Hermitian and anti-Hermitian parts of that of u00 + i u11,
    # and unit (1,0) is (0,1)^dag
    raw, conditioned = (
        np.block([[0.5 * (p + p.conj().T), u01], [u01.conj().T, -0.5j * (p - p.conj().T)]])
        for p, u01 in zip(*(traced(*held) for held in images))
    )
    return raw, conditioned


PURIFICATION_LEVELS = ("none", "qubit", "qubit+cavity")


def run_purified_qst(
    params: SystemParams,
    spec: Optional[EvolutionSpec] = None,
    purification: str = "qubit+cavity",
    gamma_q: float = DEFAULT_GAMMA_Q,
) -> ProtocolResult:
    """Qubit-state transfer with layered purification, over `spec`
    (default: exact, one swap time).

    Purification levels: "none" keeps every run (residual auxiliary-qubit
    excitations depolarize the output), "qubit" discards runs heralded by
    the auxiliary qubit, "qubit+cavity" additionally conditions on an empty
    bus at the end of the pump.  Process fidelities are phase-optimized.
    """
    if purification not in PURIFICATION_LEVELS:
        raise InvalidParameterError(
            f"purification must be one of {PURIFICATION_LEVELS}, got {purification!r}"
        )
    if not 0 <= gamma_q < np.inf:
        raise InvalidParameterError("gamma_q must be nonnegative and finite")
    if spec is None:
        spec = EvolutionSpec(total_time=tau_st(params))
    t = spec.total_time

    raw, conditioned = transfer_choi(params, spec)
    f_raw, phi_raw = process_fidelity_qubit_subspace(process_matrix(raw))
    scalars = {"fidelity_heralded": f_raw, "phase": phi_raw, "transfer_time": t}

    qubit_failure = 1.0 - exp(-gamma_q * t)
    scalars["qubit_failure_probability"] = qubit_failure
    scalars["fidelity_unpurified"] = 0.25 + (f_raw - 0.25) * exp(-gamma_q * t)

    if purification == "none":
        scalars["fidelity"] = scalars["fidelity_unpurified"]
        scalars["success_probability"] = 1.0
    elif purification == "qubit":
        scalars["fidelity"] = f_raw
        scalars["success_probability"] = 1.0 - qubit_failure
    else:
        f_cav, phi_cav = process_fidelity_qubit_subspace(process_matrix(conditioned))
        # cavity-stage discard probability for the average qubit input
        kept = float(np.trace(conditioned).real)
        total = float(np.trace(raw).real)
        cavity_failure = max(0.0, 1.0 - kept / total) if total > 0 else 1.0
        scalars.update(
            {
                "fidelity": f_cav,
                "phase": phi_cav,
                "cavity_failure_probability": cavity_failure,
                "success_probability": (1.0 - qubit_failure) * (1.0 - cavity_failure),
            }
        )
    return ProtocolResult(name="purified-qst", scalars=scalars)


def run_hom(
    params: SystemParams,
    spec: Optional[EvolutionSpec] = None,
    analysis_time: Optional[float] = None,
) -> ProtocolResult:
    """Two-photon interference |101>: joint photon statistics of the end
    modes and the entangled state at half the swap time.

    Reports the coincidence probability P11, the bunched probabilities
    P20/P02, and — at the analysis time, default tau_ST/2 — the fidelity to
    (|02> + i|20>)/sqrt(2) (phase-optimized), the negativity of the
    {|0>,|2>}-encoded qubit pair, and its full Pauli expectation table.
    """
    dims = params.dims
    if min(dims[0], dims[2]) < 3:
        raise DimensionError(f"P20, P02 and the {{|0>,|2>}} pair need 3 levels in S1 and S3, "
                             f"got dims {tuple(dims)}")
    t_swap = tau_st(params)
    if spec is None:
        spec = EvolutionSpec(total_time=2.0 * t_swap)
    if analysis_time is None:
        analysis_time = 0.5 * t_swap
    times = _sample_grid(spec)
    # one propagation serves the sampled trajectory and the analysis time,
    # inserted unless it is a sample (np.union1d would import numpy.ma)
    k_a = int(np.searchsorted(times, analysis_time))
    known = k_a < times.size and times[k_a] == analysis_time
    all_times = times if known else np.insert(times, k_a, analysis_time)
    traj = _evolve_trajectory(params, fock_state(dims, (1, 0, 1)), spec, all_times)
    sampled = np.searchsorted(all_times, times)
    pops = mode_populations(traj)[sampled]
    index, probs = traj._held_probabilities()  # the bus marginal, over n2 in support order
    n1, _, n3 = np.unravel_index(index, tuple(dims))
    joint = np.zeros((all_times.size, dims[0], dims[2]))
    np.add.at(joint, (slice(None), n1, n3), probs)
    series = {"P11": joint[sampled, 1, 1], "P20": joint[sampled, 2, 0], "P02": joint[sampled, 0, 2]}

    # entanglement analysis at the requested time
    rho13 = partial_trace(traj[k_a], keep=[0, 2])
    dims13 = rho13.dims

    # (|02> + i|20>)/sqrt2 on its two entries, |02> first
    flat = np.array([dims13.flat_index(occ) for occ in ((0, 2), (2, 0))])
    target = StateVector._on_support(flat, np.array([1.0, 1j]) / sqrt(2.0), dims13)
    fid, phi = optimize_mode_phase(rho13, target, mode=0)

    qubit_pair, weight = qubit_pair_02(rho13)

    diag_a = fock_probabilities(rho13)
    scalars = {
        "analysis_time": float(analysis_time),
        "P11": float(diag_a[1, 1]),
        "P20": float(diag_a[2, 0]),
        "P02": float(diag_a[0, 2]),
        "fidelity": fid,
        "phase": phi,
        "negativity": negativity(qubit_pair),
        "qubit_weight": weight,
    }
    return ProtocolResult(
        name="hom",
        times=times,
        populations=pops,
        series=series,
        scalars=scalars,
        tables={"pauli": pauli_table_02(qubit_pair)},
        states={"analysis": rho13},
    )


#: Single-photon-loss partners of the codewords: a/|.L> up to normalization.
_LOSS_PARTNER = {"0L": "0E", "+iL": "+iE"}


def run_binomial_transfer(
    params: SystemParams,
    label: str = "0L",
    spec: Optional[EvolutionSpec] = None,
    loss_after_transfer: bool = False,
    wigner_extent: Optional[float] = None,
    wigner_points: int = 41,
) -> ProtocolResult:
    """Transfer of a binomial codeword with parity-based error detection.

    Evolves |label> x |0> x |0> under `spec` (default: exact, one swap
    time), reduces to the target mode, and splits by photon-number parity:
    the even branch should match the codeword and — after a photon loss —
    the odd branch should match the corresponding error state.  Fidelities
    are phase-optimized.
    """
    if wigner_points < 2:
        raise InvalidParameterError("wigner_points must be at least 2")
    if spec is None:
        spec = EvolutionSpec(total_time=tau_st(params))
    t = spec.total_time
    dims = params.dims
    vacua = [fock_state((n,), (0,)) for n in dims[1:]]
    psi0 = product_state([binomial_code_state(label, dims[0]), *vacua])
    state = _evolve_trajectory(params, psi0, spec, np.array([t]))[-1]

    scalars = {"transfer_time": t, "loss_applied": float(loss_after_transfer)}
    rho3 = partial_trace(state, keep=[2])
    if loss_after_transfer:
        # exact on the reduced state: a3 acts only on the kept mode, so
        # Tr_12[a3 rho a3^dag] = a3 Tr_12[rho] a3^dag
        rho3, _ = apply_jump(rho3, 0)
    target = binomial_code_state(label, dims[2])

    fid, phi = optimize_mode_phase(rho3, target)
    scalars["fidelity_received"] = fid
    scalars["phase"] = phi

    p_even, rho_even, rho_odd = parity_split(rho3, mode=0)
    scalars["p_even"] = p_even
    if rho_even is not None:
        scalars["fidelity_even"], _ = optimize_mode_phase(rho_even, target)
    if rho_odd is not None and label in _LOSS_PARTNER:
        err = binomial_code_state(_LOSS_PARTNER[label], dims[2])
        scalars["fidelity_odd_error"], _ = optimize_mode_phase(rho_odd, err)

    result = ProtocolResult(
        name="binomial-transfer",
        scalars=scalars,
        states={"received": rho3, "even": rho_even, "odd": rho_odd},
    )
    if wigner_extent:
        axis = np.linspace(-wigner_extent, wigner_extent, wigner_points)
        re, im = np.meshgrid(axis, axis)
        alphas = re + 1j * im
        result.series["wigner_axis"] = axis
        result.series["wigner_received"] = wigner(rho3, alphas)
        result.series["wigner_target"] = wigner(target, alphas)
    return result


#: Measured per-stage infidelities of the reference device at the operating
#: point (fractions, not percent): residual auxiliary-qubit excitations,
#: bus photons left at the end of the pump, cavity decoherence during the
#: transfer, state preparation and tomography, and everything else.
DEVICE_ERROR_BUDGET = {
    "auxiliary-qubit excitation": 0.073,
    "residual bus photons": 0.060,
    "cavity decoherence": 0.042,
    "preparation and tomography": 0.089,
    "other": 0.037,
}


def combined_budget_fidelity(budget: Optional[dict[str, float]] = None) -> float:
    """Depolarizing-product fidelity 1/4 + 3*prod(1 - eps_i)/4 of a budget."""
    entries = DEVICE_ERROR_BUDGET if budget is None else budget
    return depolarizing_budget(list(entries.values()))


def cavity_decoherence_ablation(params: SystemParams, rtol: float = 1e-8) -> dict[str, float]:
    """Infidelity attributable to cavity decoherence alone.

    Compares the bus-conditioned transfer over one swap time with and
    without the measured cavity lifetimes (Lindblad at `rtol`); the
    depolarizing-channel share is 1 - (F_with - 1/4)/(F_without - 1/4).
    """
    t = tau_st(params)
    _, ideal = transfer_choi(params, EvolutionSpec(total_time=t))
    f_ideal, _ = process_fidelity_qubit_subspace(process_matrix(ideal))
    lindblad = EvolutionSpec(total_time=t, method="lindblad", rtol=rtol)
    _, noisy = transfer_choi(with_cavity_decoherence(params), lindblad)
    f_noisy, _ = process_fidelity_qubit_subspace(process_matrix(noisy))
    share = 1.0 - (f_noisy - 0.25) / (f_ideal - 0.25)
    return {
        "fidelity_without_decoherence": f_ideal,
        "fidelity_with_decoherence": f_noisy,
        "cavity_infidelity": share,
    }


def error_budget_report(
    params: Optional[SystemParams] = None,
    budget: Optional[dict[str, float]] = None,
    ablate_cavity: bool = False,
    rtol: float = 1e-8,
) -> ProtocolResult:
    """Multiplicative error budget and, optionally, a simulated cross-check
    of the cavity-decoherence line via Lindblad ablation."""
    entries = dict(DEVICE_ERROR_BUDGET if budget is None else budget)
    scalars = {"combined_fidelity": combined_budget_fidelity(entries)}
    tables = {"budget": entries}
    if ablate_cavity:
        if params is None:
            raise InvalidParameterError("cavity ablation needs system parameters")
        tables["cavity_ablation"] = cavity_decoherence_ablation(params, rtol=rtol)
    return ProtocolResult(name="error-budget", scalars=scalars, tables=tables)


def compare_tms_vs_bs(g: float, delta_values: Sequence[float]) -> ProtocolResult:
    """Pair-coupling transfer vs the excitation-exchange baseline.

    For each detuning: swap times and peak bus populations of both schemes.
    Detunings below the oscillatory threshold yield no pair-coupling swap
    and are reported as NaN.
    """
    if g <= 0:
        raise InvalidParameterError("coupling must be positive")
    rows = []
    for delta in delta_values:
        params = SystemParams(g1=g, g2=g, delta=float(delta))
        bs_tau, bs_leak = bs_reference_timing(params)
        oscillatory = is_oscillatory(params)
        tms_tau = tau_st(params) if oscillatory else float("nan")
        tms_leak = n2_amplitude(params) if oscillatory else float("nan")
        rows.append({"delta": float(delta), "tau_pair": tms_tau, "leak_pair": tms_leak,
                     "tau_exchange": bs_tau, "leak_exchange": bs_leak,
                     "tau_ratio": tms_tau / bs_tau, "leak_ratio": tms_leak / bs_leak})
    return ProtocolResult(name="pair-vs-exchange", tables={"rows": {"data": rows}})
