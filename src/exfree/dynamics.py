"""Numerical time evolution: exact unitary, first-order split-step, Lindblad.

Operators are sparse and no dense full-space operator is formed.  Each
propagator works only on the sectors its start occupies: the connected
components of a sparse nonzero pattern on which the start is nonzero,
labelled in numpy (`_occupied_sectors`).  The exact path is the one-factor
case of the Trotter split-step kernel, which samples off its dt grid by a
remainder step; both read the operators' numpy triplets and import no scipy.
The Lindblad path integrates the sparse Liouvillian with RK45, importing
`scipy.sparse` and `scipy.integrate` inside the call.  All propagators share
one time contract (`_check_times`) and are deterministic.

A propagator returns its whole trajectory as one state with a leading sample
axis: a `StateVector` of shape (T, d) or a `DensityMatrix` of shape
(T, d, d), validated once; `traj[k]` is sample k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

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
    ladder_op,
)
from .model import SystemParams, build_h_detune, build_h_tms


def _check_times(times) -> np.ndarray:
    """`times` as a float array: 1-D, finite, nonnegative, strictly increasing."""
    times = np.asarray(times, dtype=float)
    ok = times.ndim == 1 and np.all((times >= 0) & (times < np.inf))
    if not (ok and np.all(np.diff(times) > 0)):
        raise InvalidParameterError("times must be finite, nonnegative and strictly increasing")
    return times


@dataclass(frozen=True)
class EvolutionSpec:
    """How to propagate: method, step/tolerance controls, output times."""

    total_time: float
    method: str = "exact-unitary"  # or "trotter" / "lindblad"
    trotter_dt: Optional[float] = None
    rtol: float = 1e-8
    sample_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0 <= self.total_time < np.inf:
            raise InvalidParameterError("total_time must be finite and nonnegative")
        if self.method not in ("exact-unitary", "trotter", "lindblad"):
            raise InvalidParameterError(f"unknown method {self.method!r}")
        if self.method == "trotter" and not 0 < (self.trotter_dt or 0) < np.inf:
            raise InvalidParameterError("trotter method needs a finite trotter_dt > 0")
        if not 0 < self.rtol < np.inf:
            raise InvalidParameterError("integrator tolerance must be positive and finite")
        ts = tuple(_check_times(self.sample_times).tolist())
        if ts and ts[-1] > self.total_time + 1e-9:
            raise InvalidParameterError("sample_times must lie within [0, total_time]")
        object.__setattr__(self, "sample_times", ts)


def _occupied_sectors(
    edges: tuple[np.ndarray, np.ndarray, int], starts: Sequence[np.ndarray]
) -> list[list[np.ndarray]]:
    """For each start (a state vector or a flattened matrix), the sorted index
    arrays of the connected components of the undirected graph on n nodes
    with edges (rows[k], cols[k]), `edges` = (rows, cols, n), on which the
    start is nonzero.

    Evolution under a matrix with that nonzero pattern never leaves these
    components, and every other entry stays zero.  The components are
    labelled once for all starts, each by its smallest member: every root
    hooks to the smallest root it shares an edge with, then pointer jumping
    flattens the trees to stars (Shiloach & Vishkin, J. Algorithms 3, 57
    (1982)), until no edge joins two stars.  The label of a node never
    exceeds the node, so a star's root is its smallest member.
    """
    rows, cols, n = edges
    rows, cols = rows.astype(np.intp), cols.astype(np.intp)  # index once, not per gather
    labels = np.arange(n)
    while rows.size:
        ends = labels[rows], labels[cols]
        cross = ends[0] != ends[1]  # an edge inside one star stays inside: drop it
        rows, cols = rows[cross], cols[cross]
        np.minimum.at(labels, np.maximum(*ends)[cross], np.minimum(*ends)[cross])
        while not np.array_equal(labels[labels], labels):
            labels = labels[labels]
    labels = (np.cumsum(labels == np.arange(n)) - 1)[labels]  # 0, 1, ... by smallest member
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    # bincount, not np.unique, whose masked-array check imports numpy.ma
    return [[blocks[k] for k in np.flatnonzero(np.bincount(labels, x != 0))] for x in starts]


def _sector_block(h: OperatorMatrix, pos: np.ndarray, size: int) -> np.ndarray:
    """Dense block of h on one sector: `pos` maps each index of the sector to
    its place in the block and every other index to -1.  A sector is closed
    under h, so an entry whose row lies in it has its column there too."""
    place = pos[h.rows]
    inside = place >= 0
    block = np.zeros((size, size), dtype=complex)
    block[place[inside], pos[h.cols[inside]]] = h.vals[inside]
    return block


def _check_start(state, dims) -> None:
    if state.dims.dims != dims.dims:
        raise InvalidParameterError("state dims do not match the system's dims")
    pure = isinstance(state, StateVector)
    if (state.amplitudes.ndim != 1) if pure else (state.elements.ndim != 2):
        raise InvalidParameterError("start must be a single state, not a trajectory")


def _split_step(
    factors: Sequence[OperatorMatrix], psi: StateVector, times, dt: Optional[float] = None
) -> StateVector:
    """First-order split-step trajectory of H = sum(factors), one (T, d) state.

    A step of length s is exp(-i F_1 s) ... exp(-i F_m s): the last factor
    acts first.  Sample t = n dt + r takes n whole steps on from the previous
    sample's grid state, then one step of length r that is not carried
    forward.  With dt None there are no whole steps, and one factor is exact.
    Each factor has one `eigh` per sector of H that psi occupies.
    """
    _check_start(psi, factors[0].dims)
    times = _check_times(times)
    n_steps = np.zeros(times.size, int) if dt is None else np.floor(times / dt).astype(int)
    rest = times if dt is None else times - n_steps * dt
    d = psi.dims.total
    out = np.zeros((times.size, d), dtype=complex)
    # the factors' triplets together are the pattern: no operator sum is formed
    rows = np.concatenate([h.rows for h in factors])
    cols = np.concatenate([h.cols for h in factors])
    (sectors,) = _occupied_sectors((rows, cols, d), [psi.amplitudes])
    pos = np.full(d, -1)
    for idx in sectors:
        pos[idx] = np.arange(idx.size)
        eigs = [np.linalg.eigh(_sector_block(h, pos, idx.size)) for h in factors]
        pos[idx] = -1
        x = grid = psi.amplitudes[idx]
        if n_steps.any():
            step = reduce(np.matmul, [(v * np.exp(-1j * e * dt)) @ v.conj().T for e, v in eigs])
            grid = np.empty((times.size, idx.size), dtype=complex)
            for row, n in zip(grid, np.diff(n_steps, prepend=0)):
                for _ in range(n):
                    x = step @ x
                row[:] = x
        for evals, evecs in reversed(eigs):
            phases = np.exp(-1j * np.outer(rest, evals))
            grid = (phases * (evecs.conj().T @ grid.T).T) @ evecs.T
        out[:, idx] = grid
    return StateVector(out, psi.dims)


def evolve_unitary(
    H: OperatorMatrix, psi: StateVector, times: Sequence[float]
) -> StateVector:
    """The trajectory exp(-iHt) psi of a Hermitian H, one sample per entry of
    `times`, as one (T, d) state.

    Each sector of H that psi occupies has one `eigh`: a charge sector
    Q = n2 - n1 - n3 of the pair coupling, a photon-number sector of the
    exchange baseline, one level of a diagonal H, or all of an unstructured H.
    """
    if not H.is_hermitian(tol=1e-10):
        raise InvalidOperatorError("Hamiltonian must be Hermitian")
    return _split_step([H], psi, times)


def evolve_trotter(
    params: SystemParams, psi: StateVector, times: Sequence[float], dt: float
) -> StateVector:
    """First-order split-step trajectory of the full H at `times`, one (T, d) state.

    One step is exp(-i H dt) of the pair coupling S1-S2, times that of S3-S2,
    times that of the bus detuning; each conserves the charge of the full H.
    A sample off the dt grid takes one remainder step (`_split_step`).
    """
    if not 0 < dt < np.inf:
        raise InvalidParameterError("dt must be positive and finite")
    factors = [build_h_tms(params, b) for b in ("S1S2", "S3S2")] + [build_h_detune(params)]
    return _split_step(factors, psi, times, dt)


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
) -> "scipy.sparse.csr_matrix":
    """Sparse Lindblad generator on the row-major vectorized matrix,
    vec(A rho B) = (A kron B^T) vec rho."""
    from scipy import sparse

    d = H.dims.total
    h, *cs = [sparse.csr_matrix((op.vals, (op.rows, op.cols)), shape=(d, d))
              for op in (H, *collapse_ops)]
    eye = sparse.identity(d, dtype=complex, format="csr")
    out = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
    for c in cs:
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
    if not 0 < rtol < np.inf:
        raise InvalidParameterError("integrator tolerance must be positive and finite")
    d = H.dims.total
    rho0s = [np.asarray(rho0, dtype=complex) for rho0 in rho0s]
    times = _check_times(times)
    if not times.any():  # no sample after t = 0
        return [np.repeat(rho0[None], times.size, axis=0) for rho0 in rho0s]
    gen = _liouvillian(H, collapse_ops)
    out = []
    occupied = _occupied_sectors((*gen.nonzero(), d * d), [r.ravel() for r in rho0s])
    for rho0, sectors in zip(rho0s, occupied):
        full = np.zeros((times.size, d * d), dtype=complex)
        if sectors:  # a zero matrix occupies no sector and stays zero
            # sorted: the RK45 state keeps its order
            keep = np.sort(np.concatenate(sectors))
            block = gen[keep][:, keep]
            sol = solve_ivp(lambda _t, y: block @ y, (0.0, times[-1]), rho0.ravel()[keep],
                            t_eval=times, rtol=rtol, atol=rtol * 1e-2, method="RK45")
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
    a = ladder_op(state.dims, {mode: "a"})
    if isinstance(state, StateVector):
        out = a @ state.amplitudes
        weight = float(np.linalg.norm(out))
    else:
        out = (a @ (a @ state.elements).conj().T).conj().T  # a rho a^dag
        weight = float(np.trace(out).real)
    if weight <= 1e-12:
        raise ImpossibleOutcomeError("annihilation of a vacuum-supported state")
    return type(state)(out / weight, state.dims), weight
