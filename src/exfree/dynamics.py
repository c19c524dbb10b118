"""Numerical time evolution: exact unitary, first-order split-step, Lindblad.

The exact propagator diagonalizes H block by block.  A split-step trajectory
builds its step matrix once and steps from one sample time to the next.  The
Lindblad path integrates a sparse Liouvillian with RK45, restricted to the
coherence sectors the initial matrix touches.  All propagators are
deterministic; post-selection is computed exactly via projectors rather than
by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
    ModeDims,
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
        if list(ts) != sorted(ts):
            raise InvalidParameterError("sample_times must be sorted")
        object.__setattr__(self, "sample_times", ts)


class UnitaryPropagator:
    """exp(-iHt) via Hermitian eigendecomposition of each block of H;
    reusable across times.

    The blocks are the connected components of H's nonzero pattern: the
    charge sectors Q = n2 - n1 - n3 of the pair-coupling Hamiltonian, the
    photon-number sectors of the exchange baseline, single levels of a
    diagonal H.  An H without such structure is one block.  Blocks of equal
    size are stacked, so each size costs one batched `eigh` and one batched
    product per application.
    """

    def __init__(self, H: OperatorMatrix):
        if not H.is_hermitian(tol=1e-10):
            raise InvalidOperatorError("Hamiltonian must be Hermitian")
        _, labels = connected_components(sparse.csr_matrix(H.elements != 0), directed=False)
        order = np.argsort(labels, kind="stable")
        members = np.split(order, np.cumsum(np.bincount(labels))[:-1])
        self._groups = []  # (indices (k, s), eigenvalues (k, s), eigenvectors (k, s, s))
        for size in sorted({len(m) for m in members}):
            idx = np.array([m for m in members if len(m) == size])
            evals, evecs = np.linalg.eigh(H.elements[idx[:, :, None], idx[:, None, :]])
            self._groups.append((idx, evals, evecs))
        self.dims = H.dims

    def matrix(self, t: float) -> np.ndarray:
        out = np.zeros((self.dims.total, self.dims.total), dtype=complex)
        for idx, evals, evecs in self._groups:
            phases = np.exp(-1j * evals * t)[:, None, :]
            out[idx[:, :, None], idx[:, None, :]] = (
                (evecs * phases) @ evecs.conj().transpose(0, 2, 1)
            )
        return out

    def apply(self, psi: StateVector, t: float) -> StateVector:
        if psi.dims.dims != self.dims.dims:
            raise InvalidParameterError("state dims do not match Hamiltonian dims")
        out = np.empty(self.dims.total, dtype=complex)
        for idx, evals, evecs in self._groups:
            # V^dag x as (x^dag V)^*: no conjugated copy of the eigenvectors
            coeffs = (psi.amplitudes[idx].conj()[:, None, :] @ evecs)[:, 0, :].conj()
            coeffs *= np.exp(-1j * evals * t)
            out[idx] = (evecs @ coeffs[:, :, None])[:, :, 0]
        return StateVector(out, psi.dims)


def evolve_unitary(H: OperatorMatrix, psi: StateVector, t: float) -> StateVector:
    """Propagate a pure state under a Hermitian H for time t."""
    return UnitaryPropagator(H).apply(psi, t)


def evolve_trotter(
    params: SystemParams,
    psi: StateVector,
    times: Sequence[float],
    dt: float,
    order: tuple[str, ...] = ("S1S2", "S3S2", "detune"),
) -> list[StateVector]:
    """First-order split-step trajectory of the full Hamiltonian, sampled at
    the sorted `times`.

    One step applies exp(-i H_a dt) for each factor in `order`; the default
    order is pair coupling S1-S2, then S3-S2, then the bus detuning.  The
    step matrix is built once; sample k lies round(t_k/dt) steps from the
    start and is reached from sample k-1, so a trajectory costs as many steps
    as its last sample.  dt should divide every sample time.
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
    builders = {
        "S1S2": lambda: build_h_tms(params, "S1S2"),
        "S3S2": lambda: build_h_tms(params, "S3S2"),
        "detune": lambda: build_h_detune(params),
    }
    try:
        factors = [UnitaryPropagator(builders[name]()).matrix(dt) for name in order]
    except KeyError as exc:
        raise InvalidParameterError(f"unknown split factor {exc.args[0]!r}") from exc
    step = np.linalg.multi_dot(factors) if len(factors) > 1 else factors[0]
    vec = psi.amplitudes
    out = []
    for n_steps in steps:
        for _ in range(n_steps):
            vec = step @ vec
        out.append(StateVector(vec / np.linalg.norm(vec), psi.dims))
    return out


def evolve_lindblad(
    H: OperatorMatrix,
    collapse_ops: Sequence[OperatorMatrix],
    rho: DensityMatrix,
    spec: EvolutionSpec,
) -> list[DensityMatrix]:
    """Master-equation evolution, sampled at spec.sample_times.

    drho/dt = -i[H, rho] + sum_k (L rho L^dag - {L^dag L, rho}/2), integrated
    by `propagate_lindblad_matrix`.  Raises ConvergenceError if the
    integrator fails.
    """
    mats = propagate_lindblad_matrix(
        H, collapse_ops, rho.elements, spec.sample_times or (spec.total_time,), spec.rtol
    )
    out = []
    for m in mats:
        m = 0.5 * (m + m.conj().T)
        out.append(DensityMatrix(m, rho.dims))
    return out


def _liouvillian(
    H: OperatorMatrix, collapse_ops: Sequence[OperatorMatrix]
) -> sparse.csr_matrix:
    """Sparse Lindblad generator on the row-major vectorized matrix,
    vec(A rho B) = (A kron B^T) vec rho."""
    eye = sparse.identity(H.dims.total, dtype=complex, format="csr")
    h = sparse.csr_matrix(H.elements)
    out = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
    for op in collapse_ops:
        c = sparse.csr_matrix(op.elements)
        cdc = (c.conj().T @ c).tocsr()
        out = out + sparse.kron(c, c.conj()) - 0.5 * (
            sparse.kron(cdc, eye) + sparse.kron(eye, cdc.T)
        )
    return out.tocsr()


def propagate_lindblad_matrix(
    H: OperatorMatrix,
    collapse_ops: Sequence[OperatorMatrix],
    rho0: np.ndarray,
    times: Sequence[float],
    rtol: float = 1e-8,
) -> list[np.ndarray]:
    """Linear Lindblad propagation of an arbitrary (not necessarily Hermitian)
    matrix; used both for states and for channel basis elements.

    Only the connected components of the Liouvillian's nonzero pattern that
    touch the support of rho0 are integrated; every other entry stays zero.
    With collapse operators a, a^dag and n these are the coherence sectors
    of the charge Q, so a channel matrix unit moves in one sector.  The block
    is integrated with adaptive RK45 (atol = rtol * 1e-2) and scattered back.
    """
    if not H.is_hermitian(tol=1e-10):
        raise InvalidOperatorError("Hamiltonian must be Hermitian")
    if rtol <= 0:
        raise InvalidParameterError("integrator tolerance must be positive")
    d = H.dims.total
    rho0 = np.asarray(rho0, dtype=complex)
    times = [float(t) for t in times]
    t_end = max(times)
    if t_end == 0.0:
        return [rho0.copy() for _ in times]
    gen = _liouvillian(H, collapse_ops)
    _, labels = connected_components(gen != 0, directed=False)
    keep = np.flatnonzero(np.isin(labels, labels[np.flatnonzero(rho0)]))
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
    out = []
    for k in range(sol.y.shape[1]):
        full = np.zeros(d * d, dtype=complex)
        full[keep] = sol.y[:, k]
        out.append(full.reshape(d, d))
    return out


def post_select(rho: DensityMatrix, projector: OperatorMatrix):
    """Condition on a projective outcome: returns (rho | outcome, probability)."""
    P = projector.elements
    if np.linalg.norm(P @ P - P) > 1e-10 * max(1.0, np.linalg.norm(P)):
        raise InvalidOperatorError("projector must be idempotent")
    if np.linalg.norm(P - P.conj().T) > 1e-10 * max(1.0, np.linalg.norm(P)):
        raise InvalidOperatorError("projector must be Hermitian")
    conditioned = P @ rho.elements @ P
    prob = float(np.trace(conditioned).real)
    if prob <= 1e-12:
        raise ImpossibleOutcomeError("post-selection outcome has zero probability")
    conditioned = conditioned / prob
    conditioned = 0.5 * (conditioned + conditioned.conj().T)
    return DensityMatrix(conditioned, rho.dims), prob


def vacuum_projector(dims, mode: int) -> OperatorMatrix:
    """Projector onto |0> of one mode (identity on the rest)."""
    dims = dims if isinstance(dims, ModeDims) else ModeDims(dims)
    p = np.zeros((dims[mode], dims[mode]), dtype=complex)
    p[0, 0] = 1.0
    return embed_op(OperatorMatrix(p, ModeDims((dims[mode],))), mode, dims)


def apply_jump(state, mode: int):
    """Apply single-photon loss a_mode and renormalize.

    Returns (state_after, weight) where weight is the pre-normalization
    norm (pure state) or trace (density matrix).
    """
    if isinstance(state, StateVector):
        a = embed_op(annihilation_op(state.dims[mode]), mode, state.dims)
        vec = a.elements @ state.amplitudes
        weight = float(np.linalg.norm(vec))
        if weight <= 1e-12:
            raise ImpossibleOutcomeError("annihilation of a vacuum-supported state")
        return StateVector(vec / weight, state.dims), weight
    if isinstance(state, DensityMatrix):
        a = embed_op(annihilation_op(state.dims[mode]), mode, state.dims)
        m = a.elements @ state.elements @ a.elements.conj().T
        weight = float(np.trace(m).real)
        if weight <= 1e-12:
            raise ImpossibleOutcomeError("annihilation of a vacuum-supported state")
        return DensityMatrix(m / weight, state.dims), weight
    raise InvalidParameterError("state must be a StateVector or DensityMatrix")


@dataclass(frozen=True)
class TruncationReport:
    dims: tuple[int, ...]
    grown_dims: tuple[int, ...]
    max_population_difference: float
    passed: bool


def truncation_convergence(
    h_builder: Callable[[ModeDims], OperatorMatrix],
    state_builder: Callable[[ModeDims], StateVector],
    dims,
    t: float,
    grow: int = 2,
    tol: float = 1e-6,
) -> TruncationReport:
    """Repeat a unitary evolution with `grow` extra levels per mode and compare
    per-mode populations at time t."""
    dims = dims if isinstance(dims, ModeDims) else ModeDims(dims)
    big = dims.grown(grow)
    pops = []
    for d in (dims, big):
        psi = evolve_unitary(h_builder(d), state_builder(d), t)
        pops.append(mode_populations(psi))
    diff = float(np.max(np.abs(pops[0] - pops[1])))
    return TruncationReport(tuple(dims), tuple(big), diff, diff < tol)


def truncation_convergence_check(
    params: SystemParams,
    occupations: Sequence[int],
    t: float,
    grow: int = 2,
    tol: float = 1e-6,
) -> TruncationReport:
    """Convergence check for the full three-mode Hamiltonian from a Fock start."""
    return truncation_convergence(
        lambda d: build_h_full(params.with_dims(d)),
        lambda d: fock_state(d, occupations),
        params.dims,
        t,
        grow=grow,
        tol=tol,
    )
