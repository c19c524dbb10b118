"""Numerical time evolution: exact unitary, first-order split-step, Lindblad.

Operators are sparse and no dense full-space operator is formed.  Each
propagator works only on the sectors its start occupies: the connected
components of a sparse nonzero pattern on which the start is nonzero,
labelled in numpy (`_occupied_sectors`).  The exact path is the one-factor
case of the Trotter split-step kernel, which samples off its dt grid by a
remainder step; both read the operators' numpy triplets and import no scipy.
The Lindblad path assembles the Liouvillian only on the components its start
occupies, never the d^2 x d^2 one (`_lindblad_blocks`), and integrates each
with DOP853, importing `scipy.sparse` and `scipy.integrate` inside the call.
All propagators share one time contract (`_check_times`) and are
deterministic.

A propagator returns its whole trajectory as one state with a leading sample
axis: a `StateVector` of shape (T, d) or a `DensityMatrix` of shape
(T, d, d), validated once; `traj[k]` is sample k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Optional, Sequence

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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[k] + arange(counts[k]), concatenated in order of k."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _row_entries(op: OperatorMatrix, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (k, e): triplet e of `op` lies in row which[k], for every k and
    every such e, grouped by k in order."""
    ptr = np.searchsorted(op.rows, np.arange(op.dims.total + 1))
    count = (ptr[1:] - ptr[:-1])[which]
    return np.repeat(np.arange(which.size), count), _ranges(ptr[which], count)


def _lindblad_blocks(
    H: OperatorMatrix, collapse_ops: Sequence[OperatorMatrix], starts: Sequence[np.ndarray]
) -> Iterator[tuple[np.ndarray, "scipy.sparse.csr_matrix", list[int]]]:
    """The components of the Lindblad generator that the starts (d x d
    matrices) occupy, one at a time in the order of their smallest entry, as
    (keep, block, owners): the row-major flat indices i*d + j of the
    component, the generator on them as CSR, and the indices of the starts
    that occupy it.

    With K = -iH - sum_c c^dag c / 2 the generator is
    K rho + rho K^dag + sum_c c rho c^dag, so a Hilbert sector of the
    pattern of K, which is that of H + sum_c c^dag c, is closed under K, and
    the entries (i, j) of a sector pair (S, S') form one connected set.  The
    pairs are joined only by c rho c^dag: through each c's sector edges, the
    edge (Sa, Sb) times the edge (Sc, Sd) joins (Sa, Sc) with (Sb, Sd).  Each
    component is assembled from the triplets of K and of each c when it is
    reached: the d^2 x d^2 generator is never formed.
    """
    d = H.dims.total
    K = -1j * H
    for c in collapse_ops:  # c^dag c from the pairs of entries in one row of c
        e, f = _row_entries(c, c.rows)
        K = K + OperatorMatrix((c.cols[e], c.cols[f], -0.5 * c.vals[e].conj() * c.vals[f]), H.dims)
    sectors = _occupied_sectors((K.rows, K.cols, d), [np.ones(d)])[0]
    ns = len(sectors)
    sec = np.empty(d, dtype=np.intp)
    for k, idx in enumerate(sectors):
        sec[idx] = k
    joins = [np.zeros(0, dtype=np.intp)] * 2
    for c in collapse_ops:
        edge = np.zeros((ns, ns), dtype=bool)
        edge[sec[c.rows], sec[c.cols]] = True
        a, b = np.nonzero(edge)
        joins = [np.r_[j, np.add.outer(x * ns, x).ravel()] for j, x in zip(joins, (a, b))]
    occupied = [np.bincount(sec[r] * ns + sec[s], minlength=ns * ns)
                for r, s in (np.nonzero(x) for x in starts)]
    owners = {}
    for k, components in enumerate(_occupied_sectors((*joins, ns * ns), occupied)):
        for pairs in components:
            owners.setdefault(pairs[0], (pairs, []))[1].append(k)
    for first in sorted(owners):
        pairs, starts_in = owners[first]
        yield *_assemble(K, collapse_ops, sectors, pairs), starts_in


def _assemble(
    K: OperatorMatrix, collapse_ops: Sequence[OperatorMatrix], sectors: list[np.ndarray],
    pairs: np.ndarray,
) -> tuple[np.ndarray, "scipy.sparse.csr_matrix"]:
    """(keep, block) of the component made of the sector pairs `pairs`
    (node a * len(sectors) + b for the pair (S_a, S_b)), the pairs one
    after another in `keep`."""
    from scipy import sparse

    d = K.dims.total
    a, b = np.divmod(pairs, len(sectors))
    i = np.concatenate([np.repeat(sectors[x], sectors[y].size) for x, y in zip(a, b)])
    j = np.concatenate([np.tile(sectors[y], sectors[x].size) for x, y in zip(a, b)])
    keep = i * d + j
    at = np.empty(d * d, dtype=np.int32)  # the place in keep of each kept entry
    at[keep] = np.arange(keep.size)

    def place(k, l):
        return at[k * d + l]

    def terms():
        # K rho: (i, j) <- (k, j); rho K^dag: (i, j) <- (i, l)
        n, e = _row_entries(K, i)
        yield place(K.cols[e], j[n]), K.vals[e]
        n, e = _row_entries(K, j)
        yield place(i[n], K.cols[e]), K.vals[e].conj()
        for c in collapse_ops:  # c rho c^dag: (i, j) <- (k, l)
            n, e = _row_entries(c, i)
            m, f = _row_entries(c, j[n])
            yield place(c.cols[e[m]], c.cols[f]), c.vals[e[m]] * c.vals[f].conj()

    # each term yields its entries grouped by row, in row order, so they go
    # straight to their CSR slots: no COO copy of the entries is formed
    per_row = [np.bincount(op.rows, minlength=d) for op in (K, *collapse_ops)]
    counts = [per_row[0][i], per_row[0][j], *(n[i] * n[j] for n in per_row[1:])]
    indptr = np.r_[0, np.cumsum(sum(counts))]
    indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1], dtype=complex)
    free = indptr[:-1].copy()
    for count, (cols, vals) in zip(counts, terms()):
        slot = _ranges(free, count)
        indices[slot], data[slot] = cols, vals
        free += count
    block = sparse.csr_matrix((data, indices, indptr), shape=(i.size, i.size))
    block.sum_duplicates()
    return keep, block


def propagate_lindblad_matrix(
    H: OperatorMatrix,
    collapse_ops: Sequence[OperatorMatrix],
    rho0s: Sequence[np.ndarray],
    times: Sequence[float],
    rtol: float = 1e-8,
) -> list[np.ndarray]:
    """Linear Lindblad propagation of arbitrary (not necessarily Hermitian)
    matrices, used both for states and for channel inputs; returns one
    (len(times), d, d) array per initial matrix in `rho0s`.

    Only the components of the generator that an initial matrix occupies
    are assembled (`_lindblad_blocks`) and integrated; every other entry
    stays zero.  With collapse operators a, a^dag and n a component is a
    set of coherence sectors (Q, Q') of the charge Q; with cavity T1 each
    channel input occupies one.  Each occupied component of each matrix is
    integrated with adaptive DOP853 (atol = rtol * 1e-2) and scattered back.
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
    out = [np.zeros((times.size, d * d), dtype=complex) for _ in rho0s]
    # a zero matrix occupies no component and stays zero
    for keep, block, owners in _lindblad_blocks(H, collapse_ops, rho0s):
        for k in owners:
            sol = solve_ivp(lambda _t, y: block @ y, (0.0, times[-1]), rho0s[k].ravel()[keep],
                            t_eval=times, rtol=rtol, atol=rtol * 1e-2, method="DOP853")
            if not sol.success:
                raise ConvergenceError(f"Lindblad integrator failed: {sol.message}")
            out[k][:, keep] = sol.y.T
    return [full.reshape(-1, d, d) for full in out]


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
