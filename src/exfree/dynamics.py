"""Numerical time evolution: exact unitary, first-order split-step, Lindblad.

Operators are sparse and no dense full-space operator is formed.  Each
propagator works on the connected blocks of a sparse nonzero pattern
(`_blocks`): the exact one diagonalizes H per block, a split-step trajectory
steps one small matrix per block of H that the start state touches, and the
Lindblad path integrates the sparse Liouvillian with RK45 on the blocks the
initial matrix touches.  All propagators are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import connected_components

from .errors import (
    ConvergenceError,
    ImpossibleOutcomeError,
    InvalidOperatorError,
    InvalidParameterError,
)
from .fock import (
    DensityMatrix,
    OperatorMatrix,
    StateVector,
    annihilation_op,
    embed_op,
    fock_state,
    mode_populations,
)
from .model import SystemParams, build_h_detune, build_h_full, build_h_tms


@dataclass(frozen=True)
class EvolutionSpec:
    """How to propagate: method, step/tolerance controls, output times."""

    total_time: float
    method: str = "exact-unitary"  # or "trotter" / "lindblad"
    trotter_dt: Optional[float] = None
    rtol: float = 1e-8
    sample_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.total_time < 0:
            raise InvalidParameterError("total_time must be nonnegative")
        if self.method not in ("exact-unitary", "trotter", "lindblad"):
            raise InvalidParameterError(f"unknown method {self.method!r}")
        if self.method == "trotter" and (self.trotter_dt is None or self.trotter_dt <= 0):
            raise InvalidParameterError("trotter method needs trotter_dt > 0")
        if self.rtol <= 0:
            raise InvalidParameterError("integrator tolerance must be positive")
        ts = tuple(float(t) for t in self.sample_times)
        if any(t < -1e-12 or t > self.total_time + 1e-9 for t in ts):
            raise InvalidParameterError("sample_times must lie within [0, total_time]")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidParameterError("sample_times must be strictly increasing")
        object.__setattr__(self, "sample_times", ts)


def _blocks(pattern: sparse.spmatrix) -> list[np.ndarray]:
    """Sorted index arrays of the connected components of a boolean sparse
    nonzero pattern (`A != 0`), one per block of A."""
    _, labels = connected_components(pattern, directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


class UnitaryPropagator:
    """exp(-iHt) via Hermitian eigendecomposition of each block of H;
    reusable across times.

    The blocks are the connected components of H's nonzero pattern: the
    charge sectors Q = n2 - n1 - n3 of the pair-coupling Hamiltonian, the
    photon-number sectors of the exchange baseline, single levels of a
    diagonal H.  An H without such structure is one block.  Each block has
    its own `eigh`.
    """

    def __init__(self, H: OperatorMatrix):
        if not H.is_hermitian(tol=1e-10):
            raise InvalidOperatorError("Hamiltonian must be Hermitian")
        self._blocks = [  # (indices, eigenvalues, eigenvectors)
            (idx, *np.linalg.eigh(H.sparse[idx][:, idx].toarray()))
            for idx in _blocks(H.sparse != 0)
        ]
        self.dims = H.dims

    def apply(self, psi: StateVector, times: Sequence[float]) -> list[StateVector]:
        """The states exp(-iHt) psi, one per entry of `times`."""
        if psi.dims.dims != self.dims.dims:
            raise InvalidParameterError("state dims do not match Hamiltonian dims")
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise InvalidParameterError("times must be a sequence")
        out = np.zeros((times.size, self.dims.total), dtype=complex)
        for idx, evals, evecs in self._blocks:
            x = psi.amplitudes[idx]
            if x.any():  # a block outside the support of psi stays zero
                phases = np.exp(-1j * np.outer(times, evals))
                out[:, idx] = (phases * (evecs.conj().T @ x)) @ evecs.T
        return [StateVector(row, psi.dims) for row in out]


def evolve_unitary(
    H: OperatorMatrix, psi: StateVector, times: Sequence[float]
) -> list[StateVector]:
    """Propagate a pure state under a Hermitian H, one state per time."""
    return UnitaryPropagator(H).apply(psi, times)


def evolve_trotter(
    params: SystemParams, psi: StateVector, times: Sequence[float], dt: float
) -> list[StateVector]:
    """First-order split-step trajectory of the full Hamiltonian, sampled at
    the sorted `times`.

    One step applies exp(-i H dt) of the pair coupling S1-S2, then of S3-S2,
    then of the bus detuning.  Each factor conserves the charge of the full
    H, so the step is one small product of three factors per block of the
    full H; blocks outside the support of psi are skipped.  Sample k lies
    round(t_k/dt) steps from the start and is reached from sample k-1, so a
    trajectory costs as many steps as its last sample.  dt should divide
    every sample time.
    """
    if dt <= 0:
        raise InvalidParameterError("dt must be positive")
    times = np.asarray(times, dtype=float)
    counts = np.rint(times / dt).astype(int)
    steps = np.diff(counts, prepend=0)  # between consecutive samples
    if np.any(steps < 0):
        raise InvalidParameterError("sample times must be nonnegative and sorted")
    if np.any((counts == 0) & (times > 0)):
        raise InvalidParameterError("dt larger than t")
    factors = (
        build_h_tms(params, "S1S2"), build_h_tms(params, "S3S2"), build_h_detune(params)
    )
    out = np.zeros((times.size, psi.dims.total), dtype=complex)
    for idx in _blocks(sum(h.sparse for h in factors) != 0):
        x = psi.amplitudes[idx]
        if not x.any():
            continue
        step = np.linalg.multi_dot(
            [_expm_hermitian(h.sparse[idx][:, idx].toarray(), dt) for h in factors]
        )
        for row, n_steps in zip(out, steps):
            for _ in range(n_steps):
                x = step @ x
            row[idx] = x
    return [StateVector(row / np.linalg.norm(row), psi.dims) for row in out]


def _expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) of a small dense Hermitian matrix."""
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def evolve_lindblad(
    H: OperatorMatrix,
    collapse_ops: Sequence[OperatorMatrix],
    rho: DensityMatrix,
    times: Sequence[float],
    rtol: float = 1e-8,
) -> list[DensityMatrix]:
    """Master-equation evolution, sampled at the sorted `times`.

    drho/dt = -i[H, rho] + sum_k (L rho L^dag - {L^dag L, rho}/2), integrated
    by `propagate_lindblad_matrix`.  Raises ConvergenceError if the
    integrator fails.
    """
    mats = propagate_lindblad_matrix(H, collapse_ops, [rho.elements], times, rtol)[0]
    return [DensityMatrix(0.5 * (m + m.conj().T), rho.dims) for m in mats]


def _liouvillian(
    H: OperatorMatrix, collapse_ops: Sequence[OperatorMatrix]
) -> sparse.csr_matrix:
    """Sparse Lindblad generator on the row-major vectorized matrix,
    vec(A rho B) = (A kron B^T) vec rho."""
    eye = sparse.identity(H.dims.total, dtype=complex, format="csr")
    h = H.sparse
    out = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
    for op in collapse_ops:
        c = op.sparse
        cdc = (c.conj().T @ c).tocsr()
        out = out + sparse.kron(c, c.conj()) - 0.5 * (
            sparse.kron(cdc, eye) + sparse.kron(eye, cdc.T)
        )
    return out.tocsr()


def propagate_lindblad_matrix(
    H: OperatorMatrix,
    collapse_ops: Sequence[OperatorMatrix],
    rho0s: Sequence[np.ndarray],
    times: Sequence[float],
    rtol: float = 1e-8,
) -> list[list[np.ndarray]]:
    """Linear Lindblad propagation of arbitrary (not necessarily Hermitian)
    matrices, used both for states and for channel basis elements; returns
    one list of matrices at `times` per initial matrix in `rho0s`.

    The Liouvillian and the connected components of its nonzero pattern are
    built once.  Only the components that touch the support of an initial
    matrix are integrated; every other entry stays zero.  With collapse
    operators a, a^dag and n these are the coherence sectors of the charge
    Q, so a channel matrix unit moves in one sector.  Each block is
    integrated with adaptive RK45 (atol = rtol * 1e-2) and scattered back.
    """
    if not H.is_hermitian(tol=1e-10):
        raise InvalidOperatorError("Hamiltonian must be Hermitian")
    if rtol <= 0:
        raise InvalidParameterError("integrator tolerance must be positive")
    d = H.dims.total
    rho0s = [np.asarray(rho0, dtype=complex) for rho0 in rho0s]
    times = [float(t) for t in times]
    if any(t < 0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise InvalidParameterError("times must be nonnegative and strictly increasing")
    t_end = max(times)
    if t_end == 0.0:
        return [[rho0.copy() for _ in times] for rho0 in rho0s]
    gen = _liouvillian(H, collapse_ops)
    blocks = _blocks(gen != 0)
    out = []
    for rho0 in rho0s:
        touched = np.zeros(d * d, dtype=bool)
        for idx in blocks:
            if rho0.ravel()[idx].any():
                touched[idx] = True
        keep = np.flatnonzero(touched)  # sorted: the RK45 state keeps its order
        block = gen[keep][:, keep]
        sol = solve_ivp(
            lambda _t, y: block @ y,
            (0.0, t_end),
            rho0.ravel()[keep],
            t_eval=times,
            rtol=rtol,
            atol=rtol * 1e-2,
            method="RK45",
        )
        if not sol.success:
            raise ConvergenceError(f"Lindblad integrator failed: {sol.message}")
        full = np.zeros((len(times), d * d), dtype=complex)
        full[:, keep] = sol.y.T
        out.append(list(full.reshape(-1, d, d)))
    return out


def apply_jump(state, mode: int):
    """Apply single-photon loss a_mode and renormalize.

    Returns (state_after, weight) where weight is the pre-normalization
    norm (pure state) or trace (density matrix).
    """
    if not isinstance(state, (StateVector, DensityMatrix)):
        raise InvalidParameterError("state must be a StateVector or DensityMatrix")
    a = embed_op(annihilation_op(state.dims[mode]), mode, state.dims)
    if isinstance(state, StateVector):
        vec = a @ state.amplitudes
        weight = float(np.linalg.norm(vec))
        if weight <= 1e-12:
            raise ImpossibleOutcomeError("annihilation of a vacuum-supported state")
        return StateVector(vec / weight, state.dims), weight
    m = a @ state.elements @ a.dag.sparse
    weight = float(np.trace(m).real)
    if weight <= 1e-12:
        raise ImpossibleOutcomeError("annihilation of a vacuum-supported state")
    return DensityMatrix(m / weight, state.dims), weight


@dataclass(frozen=True)
class TruncationReport:
    dims: tuple[int, ...]
    grown_dims: tuple[int, ...]
    max_population_difference: float
    passed: bool


def truncation_convergence_check(
    params: SystemParams,
    occupations: Sequence[int],
    t: float,
    grow: int = 2,
    tol: float = 1e-6,
) -> TruncationReport:
    """Repeat the exact evolution of the full three-mode Hamiltonian from a
    Fock start with `grow` extra levels per mode and compare per-mode
    populations at time t."""
    big = params.dims.grown(grow)
    pops = []
    for d in (params.dims, big):
        H = build_h_full(params.with_dims(d))
        pops.append(mode_populations(evolve_unitary(H, fock_state(d, occupations), (t,))[0]))
    diff = float(np.max(np.abs(pops[0] - pops[1])))
    return TruncationReport(tuple(params.dims), tuple(big), diff, diff < tol)
