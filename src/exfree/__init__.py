"""Deterministic simulator and analysis toolkit for exchange-free bosonic
state transfer through a detuned bus mode."""

__version__ = "0.1.0"

from .analytic import (
    CoeffSet,
    bs_reference_timing,
    g_eff,
    heisenberg_coeffs,
    mean_photon_numbers,
    n2_amplitude,
    omega,
    sweet_point_detuning,
    sweet_point_detuning_numeric,
    tau_s2,
    tau_st,
    timing_ratio,
    tmsv_joint_population,
)
from .calibration import (
    FitResult,
    fit_damped_oscillation,
    fit_stark_detuning,
    fit_tms_strength,
    generate_tmsv_trace,
)
from .dynamics import (
    EvolutionSpec,
    apply_jump,
    evolve_lindblad,
    evolve_trotter,
    evolve_unitary,
    truncation_convergence_check,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    ExfreeError,
    ImpossibleOutcomeError,
    InvalidOperatorError,
    InvalidParameterError,
    RegimeError,
    TruncationError,
)
from .experiments import (
    DEVICE_ERROR_BUDGET,
    ProtocolResult,
    cavity_decoherence_ablation,
    combined_budget_fidelity,
    compare_tms_vs_bs,
    dominant_period,
    error_budget_report,
    estimate_swap_time,
    run_binomial_transfer,
    run_hom,
    run_purified_qst,
    run_single_photon_qst,
    transfer_choi,
)
from .fock import (
    DensityMatrix,
    ModeDims,
    OperatorMatrix,
    StateVector,
    annihilation_op,
    binomial_code_state,
    creation_op,
    embed_op,
    fock_state,
    identity_op,
    mode_populations,
    number_op,
    partial_trace,
    product_state,
)
from .metrics import (
    PauliTable,
    ProcessMatrix,
    choi_from_channel,
    depolarizing_budget,
    negativity,
    optimize_mode_phase,
    parity_split,
    pauli_table_02,
    process_fidelity,
    process_fidelity_qubit_subspace,
    process_matrix,
    state_fidelity,
    wigner,
)
from .model import (
    REGIME_FACTOR,
    SystemParams,
    build_h_bs_reference,
    build_h_detune,
    build_h_eff,
    build_h_full,
    build_h_tms,
    collapse_operators,
    is_oscillatory,
    khz_to_angular,
    require_oscillatory,
    with_cavity_decoherence,
)
