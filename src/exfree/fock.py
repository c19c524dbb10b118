"""Truncated multi-mode bosonic Hilbert space.

Basis convention: modes are ordered (S1, S2, S3) and flattened row-major
with the last mode fastest, i.e. the amplitude of |n1 n2 n3> sits at index
n1*N2*N3 + n2*N3 + n3.  All other modules share this convention.
Operators are sparse CSR matrices, so no dense full-space operator is formed
unless `OperatorMatrix.elements` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, TruncationError, InvalidParameterError

NORM_TOL = 1e-9


@dataclass(frozen=True)
class ModeDims:
    """Per-mode Fock truncation sizes (number of levels, indices 0..N-1)."""

    dims: tuple[int, ...]

    def __init__(self, dims: Iterable[int]):
        given = tuple(dims)
        dims = tuple(int(n) for n in given)
        if dims != given:
            raise DimensionError(f"mode sizes must be whole numbers, got {given}")
        if not dims:
            raise DimensionError("need at least one mode")
        if any(n < 2 for n in dims):
            raise DimensionError(f"every mode needs >= 2 levels, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        return prod(self.dims)

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    def __len__(self):
        return len(self.dims)

    def __getitem__(self, i):
        return self.dims[i]

    def __iter__(self):
        return iter(self.dims)

    def flat_index(self, occupations: Sequence[int]) -> int:
        """Row-major flat index of a joint Fock state (last mode fastest)."""
        if len(occupations) != len(self.dims):
            raise DimensionError("occupation list does not match mode count")
        return int(np.ravel_multi_index(tuple(occupations), self.dims))

    def grown(self, extra: int) -> "ModeDims":
        """Same mode structure with `extra` additional levels per mode."""
        return ModeDims(tuple(n + extra for n in self.dims))


def _as_dims(dims) -> ModeDims:
    return dims if isinstance(dims, ModeDims) else ModeDims(dims)


@dataclass(frozen=True)
class OperatorMatrix:
    """Sparse complex matrix acting on the truncated joint Fock basis.

    Any dense or sparse input is stored as one canonical CSR matrix without
    explicit zeros, so its stored pattern is the operator's structure.
    """

    sparse: sp.csr_matrix
    dims: ModeDims

    def __post_init__(self):
        mat = sp.csr_matrix(self.sparse, dtype=complex, copy=True)
        if mat.shape != (self.dims.total, self.dims.total):
            raise DimensionError(
                f"matrix shape {mat.shape} inconsistent with dims {tuple(self.dims)}"
            )
        mat.sum_duplicates()
        mat.eliminate_zeros()
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "sparse", mat)

    @property
    def elements(self) -> np.ndarray:
        """Dense copy of the matrix."""
        return self.sparse.toarray()

    @property
    def dag(self) -> "OperatorMatrix":
        return OperatorMatrix(self.sparse.conj().T, self.dims)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return np.linalg.norm((self.sparse - self.sparse.conj().T).data) < tol

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            return OperatorMatrix(self.sparse @ other.sparse, self.dims)
        return self.sparse @ other

    def __add__(self, other):
        return OperatorMatrix(self.sparse + other.sparse, self.dims)

    def __sub__(self, other):
        return OperatorMatrix(self.sparse - other.sparse, self.dims)

    def __mul__(self, scalar):
        return OperatorMatrix(self.sparse * scalar, self.dims)

    __rmul__ = __mul__


@dataclass(frozen=True)
class StateVector:
    """Pure state over the truncated joint Fock basis; unit norm enforced."""

    amplitudes: np.ndarray
    dims: ModeDims

    def __post_init__(self):
        vec = np.asarray(self.amplitudes, dtype=complex).ravel()
        if vec.size != self.dims.total:
            raise DimensionError("amplitude length inconsistent with dims")
        if not np.isfinite(vec).all():
            raise InvalidParameterError("state has a non-finite amplitude")
        nrm = np.linalg.norm(vec)
        if abs(nrm - 1.0) > NORM_TOL:
            raise InvalidParameterError(f"state norm {nrm} deviates from 1")
        object.__setattr__(self, "amplitudes", vec)
        self.amplitudes.setflags(write=False)

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state; Hermitian, unit trace, (numerically) positive."""

    elements: np.ndarray
    dims: ModeDims

    def __post_init__(self):
        mat = np.asarray(self.elements, dtype=complex)
        if mat.shape != (self.dims.total, self.dims.total):
            raise DimensionError("density matrix shape inconsistent with dims")
        if not np.isfinite(mat).all():
            raise InvalidParameterError("density matrix has a non-finite entry")
        if np.linalg.norm(mat - mat.conj().T) > 1e-9 * max(1.0, np.linalg.norm(mat)):
            raise InvalidParameterError("density matrix is not Hermitian")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > 1e-6:
            raise InvalidParameterError(f"density matrix trace {tr} deviates from 1")
        object.__setattr__(self, "elements", mat)
        self.elements.setflags(write=False)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.elements)[0])


def annihilation_op(n_levels: int) -> OperatorMatrix:
    """Single-mode lowering operator, <n-1|a|n> = sqrt(n)."""
    if n_levels < 2:
        raise DimensionError(f"need at least 2 levels, got {n_levels}")
    diag = np.sqrt(np.arange(1, n_levels, dtype=float))
    return OperatorMatrix(sp.diags(diag, 1, dtype=complex), ModeDims((n_levels,)))


def creation_op(n_levels: int) -> OperatorMatrix:
    return annihilation_op(n_levels).dag


def number_op(n_levels: int) -> OperatorMatrix:
    if n_levels < 2:
        raise DimensionError(f"need at least 2 levels, got {n_levels}")
    return OperatorMatrix(sp.diags(np.arange(n_levels, dtype=complex)), ModeDims((n_levels,)))


def identity_op(dims) -> OperatorMatrix:
    dims = _as_dims(dims)
    return OperatorMatrix(sp.identity(dims.total, dtype=complex), dims)


def embed_op(op: OperatorMatrix, mode_index: int, dims) -> OperatorMatrix:
    """Embed a single-mode operator into the joint space (identity elsewhere).

    The joint indices, reshaped to (earlier modes, this mode, later modes),
    place entry (r, c) of `op` at rows joint[:, r, :] and columns
    joint[:, c, :]: the Kronecker product in one sparse construction.
    """
    dims = _as_dims(dims)
    if not 0 <= mode_index < dims.n_modes:
        raise DimensionError(f"mode index {mode_index} out of range for {tuple(dims)}")
    n = dims[mode_index]
    if op.dims.total != n:
        raise DimensionError(f"operator dimension {op.dims.total} != mode truncation {n}")
    joint = np.arange(dims.total).reshape(-1, n, prod(dims[mode_index + 1:]))
    entries = op.sparse.tocoo()
    rows, cols = joint[:, entries.row, :], joint[:, entries.col, :]
    values = np.broadcast_to(entries.data[:, None], rows.shape)
    mat = sp.csr_matrix((values.ravel(), (rows.ravel(), cols.ravel())), shape=(dims.total,) * 2)
    return OperatorMatrix(mat, dims)


def fock_state(dims, occupations: Sequence[int]) -> StateVector:
    """Joint Fock basis state |n1 n2 ...>."""
    dims = _as_dims(dims)
    for occ, n in zip(occupations, dims):
        if not 0 <= occ < n:
            raise TruncationError(f"occupation {occ} outside truncation {n}")
    vec = np.zeros(dims.total, dtype=complex)
    vec[dims.flat_index(occupations)] = 1.0
    return StateVector(vec, dims)


BINOMIAL_LABELS = ("0L", "1L", "+iL", "0E", "+iE")


def binomial_code_state(label: str, n_levels: int) -> StateVector:
    """Single-mode binomial codewords and their single-loss error states.

    |0L> = (|0>+|4>)/sqrt2, |1L> = |2>, |+iL> = (|0L>+i|1L>)/sqrt2;
    the error states are |0E> = |3> and |+iE> = (|1>+i|3>)/sqrt2.
    """
    if n_levels < 5:
        raise DimensionError(f"binomial code needs >= 5 levels, got {n_levels}")
    vec = np.zeros(n_levels, dtype=complex)
    if label == "0L":
        vec[0] = vec[4] = 1 / np.sqrt(2)
    elif label == "1L":
        vec[2] = 1.0
    elif label == "+iL":
        vec[0] = vec[4] = 0.5
        vec[2] = 1j / np.sqrt(2)
    elif label == "0E":
        vec[3] = 1.0
    elif label == "+iE":
        vec[1] = 1 / np.sqrt(2)
        vec[3] = 1j / np.sqrt(2)
    else:
        raise InvalidParameterError(f"unknown code label {label!r}; use one of {BINOMIAL_LABELS}")
    return StateVector(vec, ModeDims((n_levels,)))


def product_state(dims, single_mode_states: Sequence[np.ndarray]) -> StateVector:
    """Tensor product of per-mode amplitude vectors."""
    dims = _as_dims(dims)
    if len(single_mode_states) != dims.n_modes:
        raise DimensionError("need one factor per mode")
    vecs = [np.asarray(v, dtype=complex).ravel() for v in single_mode_states]
    for v, n in zip(vecs, dims):
        if v.size != n:
            raise DimensionError("factor length inconsistent with mode truncation")
    joint = reduce(np.kron, vecs)
    joint = joint / np.linalg.norm(joint)
    return StateVector(joint, dims)


def mode_populations(state) -> np.ndarray:
    """Mean photon number of each mode for a StateVector or DensityMatrix."""
    if isinstance(state, StateVector):
        probs = np.abs(state.amplitudes) ** 2
    else:
        probs = np.real(np.diag(state.elements))
    dims = state.dims
    occ = probs.reshape(tuple(dims))
    pops = []
    for k, n in enumerate(dims):
        marginal = occ.sum(axis=tuple(j for j in range(dims.n_modes) if j != k))
        pops.append(float(np.dot(np.arange(n), marginal)))
    return np.array(pops)


def partial_trace(state, keep: Sequence[int]) -> np.ndarray:
    """Reduced matrix of the modes in `keep` of a StateVector or
    DensityMatrix; returns a plain ndarray.

    A pure state is contracted from its amplitude tensor, so no full-space
    density matrix is formed.
    """
    dims = state.dims
    keep = sorted(keep)
    nm = dims.n_modes
    drop = [k for k in range(nm) if k not in keep]
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    if isinstance(state, StateVector):
        psi = state.amplitudes.reshape(tuple(dims))
        return np.tensordot(psi, psi.conj(), axes=(drop, drop)).reshape(d_keep, d_keep)
    shaped = state.elements.reshape(tuple(dims) * 2)
    for offset, k in enumerate(drop):
        ax = k - offset
        shaped = np.trace(shaped, axis1=ax, axis2=ax + (nm - offset))
    return shaped.reshape(d_keep, d_keep)
