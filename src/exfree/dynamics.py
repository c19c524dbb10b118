"""Numerical time evolution: exact unitary, first-order split-step, Lindblad.

Operators are sparse and no dense full-space operator is formed.  Each
propagator works only on the sectors its start occupies: the connected
components of a sparse nonzero pattern on which the start is nonzero
(`_occupied_sectors`).  The exact one diagonalizes H per occupied sector, a
split-step trajectory steps one small matrix per occupied sector of H, and
the Lindblad path integrates the sparse Liouvillian with RK45 on the
coherence sectors the initial matrix occupies.  All propagators are
deterministic.

A propagator returns its whole trajectory as one state with a leading sample
axis: a `StateVector` of shape (T, d) or a `DensityMatrix` of shape
(T, d, d), validated once; `traj[k]` is sample k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
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
    _check_modes,
    annihilation_op,
    embed_op,
)
from .model import SystemParams, build_h_detune, build_h_tms


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


def _occupied_sectors(
    pattern: sparse.spmatrix, starts: Sequence[np.ndarray]
) -> list[list[np.ndarray]]:
    """For each start (a state vector or a flattened matrix), the sorted index
    arrays of the connected components of the boolean sparse nonzero pattern
    `pattern` (`A != 0`) on which the start is nonzero.

    Evolution under A never leaves these components, and every other entry
    stays zero.  The components are labelled once for all starts.
    """
    _, labels = connected_components(pattern, directed=False)
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    return [[blocks[k] for k in np.unique(labels[np.flatnonzero(x)])] for x in starts]


def _check_start(state, dims) -> None:
    if state.dims.dims != dims.dims:
        raise InvalidParameterError("state dims do not match the system's dims")
    pure = isinstance(state, StateVector)
    if (state.amplitudes.ndim != 1) if pure else (state.elements.ndim != 2):
        raise InvalidParameterError("start must be a single state, not a trajectory")


def evolve_unitary(
    H: OperatorMatrix, psi: StateVector, times: Sequence[float]
) -> StateVector:
    """The trajectory exp(-iHt) psi of a Hermitian H, one sample per entry of
    `times`, as one (T, d) state.

    Each sector of H that psi occupies is diagonalized by one `eigh`.  The
    sectors are the connected components of H's nonzero pattern: the charge
    sectors Q = n2 - n1 - n3 of the pair-coupling Hamiltonian, the
    photon-number sectors of the exchange baseline, single levels of a
    diagonal H.  An H without such structure is one sector.
    """
    if not H.is_hermitian(tol=1e-10):
        raise InvalidOperatorError("Hamiltonian must be Hermitian")
    _check_start(psi, H.dims)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise InvalidParameterError("times must be a sequence")
    out = np.zeros((times.size, H.dims.total), dtype=complex)
    (sectors,) = _occupied_sectors(H.sparse != 0, [psi.amplitudes])
    for idx in sectors:
        evals, evecs = np.linalg.eigh(H.sparse[idx][:, idx].toarray())
        phases = np.exp(-1j * np.outer(times, evals))
        out[:, idx] = (phases * (evecs.conj().T @ psi.amplitudes[idx])) @ evecs.T
    return StateVector(out, psi.dims)


def evolve_trotter(
    params: SystemParams, psi: StateVector, times: Sequence[float], dt: float
) -> StateVector:
    """First-order split-step trajectory of the full Hamiltonian, sampled at
    the sorted `times`, as one (T, d) state.

    One step applies exp(-i H dt) of the pair coupling S1-S2, then of S3-S2,
    then of the bus detuning.  Each factor conserves the charge of the full
    H, so the step is one small product of three factors per block of the
    full H; blocks outside the support of psi are skipped.  Sample k lies
    t_k/dt steps from the start and is reached from sample k-1, so a
    trajectory costs as many steps as its last sample.  A sample time that
    is not a whole number of steps (to 1e-6 of a step) raises
    InvalidParameterError.
    """
    if dt <= 0:
        raise InvalidParameterError("dt must be positive")
    _check_start(psi, params.dims)
    times = np.asarray(times, dtype=float)
    counts = np.rint(times / dt).astype(int)
    if np.any(np.abs(times / dt - counts) > 1e-6):
        raise InvalidParameterError(f"sample times must be whole multiples of dt = {dt}")
    steps = np.diff(counts, prepend=0)  # between consecutive samples
    if np.any(steps < 0):
        raise InvalidParameterError("sample times must be nonnegative and sorted")
    if np.any((counts == 0) & (times > 0)):
        raise InvalidParameterError("dt larger than t")
    factors = (
        build_h_tms(params, "S1S2"), build_h_tms(params, "S3S2"), build_h_detune(params)
    )
    out = np.zeros((times.size, psi.dims.total), dtype=complex)
    (sectors,) = _occupied_sectors(sum(h.sparse for h in factors) != 0, [psi.amplitudes])
    for idx in sectors:
        x = psi.amplitudes[idx]
        step = np.linalg.multi_dot(
            [_expm_hermitian(h.sparse[idx][:, idx].toarray(), dt) for h in factors]
        )
        for row, n_steps in zip(out, steps):
            for _ in range(n_steps):
                x = step @ x
            row[idx] = x
    return StateVector(out / np.linalg.norm(out, axis=1, keepdims=True), psi.dims)


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
) -> DensityMatrix:
    """Master-equation evolution, sampled at the sorted `times`, as one
    (T, d, d) state.

    drho/dt = -i[H, rho] + sum_k (L rho L^dag - {L^dag L, rho}/2), integrated
    by `propagate_lindblad_matrix`.  Raises ConvergenceError if the
    integrator fails.
    """
    _check_start(rho, H.dims)
    (mats,) = propagate_lindblad_matrix(H, collapse_ops, [rho.elements], times, rtol)
    herm = mats.conj().swapaxes(-2, -1)
    herm += mats
    herm *= 0.5
    return DensityMatrix(herm, rho.dims)


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
) -> list[np.ndarray]:
    """Linear Lindblad propagation of arbitrary (not necessarily Hermitian)
    matrices, used both for states and for channel basis elements; returns
    one (len(times), d, d) array per initial matrix in `rho0s`.

    The Liouvillian and the connected components of its nonzero pattern are
    built once.  Only the components that touch the support of an initial
    matrix are integrated; every other entry stays zero.  With collapse
    operators a, a^dag and n these are the coherence sectors of the charge
    Q, so a channel matrix unit moves in one sector.  Each block is
    integrated with adaptive RK45 (atol = rtol * 1e-2) and scattered back.
    """
    from scipy.integrate import solve_ivp

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
        return [np.repeat(rho0[None], len(times), axis=0) for rho0 in rho0s]
    gen = _liouvillian(H, collapse_ops)
    out = []
    for rho0, sectors in zip(rho0s, _occupied_sectors(gen != 0, [r.ravel() for r in rho0s])):
        full = np.zeros((len(times), d * d), dtype=complex)
        if sectors:  # a zero matrix occupies no sector and stays zero
            # sorted: the RK45 state keeps its order
            keep = np.sort(np.concatenate(sectors))
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
            full[:, keep] = sol.y.T
        out.append(full.reshape(-1, d, d))
    return out


def apply_jump(state, mode: int):
    """Apply single-photon loss a_mode and renormalize.

    Returns (state_after, weight) where weight is the pre-normalization
    norm (pure state) or trace (density matrix).
    """
    if not isinstance(state, (StateVector, DensityMatrix)):
        raise InvalidParameterError("state must be a StateVector or DensityMatrix")
    _check_modes(state.dims, [mode])
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
