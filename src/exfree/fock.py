"""Truncated multi-mode bosonic Hilbert space.

Basis convention: modes are ordered (S1, S2, S3) and flattened row-major
with the last mode fastest, i.e. the amplitude of |n1 n2 n3> sits at index
n1*N2*N3 + n2*N3 + n3.  All other modules share this convention.
Operators are canonical COO triplets in numpy, so no dense full-space operator
is formed unless `OperatorMatrix.elements` is read.  Every operator of the
model is one `ladder_sum`, built from Fock indices and canonicalized once;
`OperatorMatrix.is_hermitian` builds no operator.  A `StateVector` is held
on its support, the indices it may be nonzero on, so a trajectory on a few
sectors is checked and reduced without a dense (T, d) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from typing import Iterable, Sequence

import numpy as np

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


def _as_dims(dims) -> ModeDims:
    return dims if isinstance(dims, ModeDims) else ModeDims(dims)


def _check_modes(dims: ModeDims, modes: Sequence[int]) -> None:
    """Raise DimensionError unless `modes` are distinct mode indices of `dims`."""
    if len(set(modes)) != len(modes) or not all(0 <= m < dims.n_modes for m in modes):
        raise DimensionError(f"mode indices {list(modes)} are not distinct modes of {tuple(dims)}")


def _canonical(rows, cols, vals, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets of a d x d matrix sorted by (row, col), duplicates summed
    in input order, zeros dropped; the arrays are read-only."""
    key = np.ravel(rows).astype(np.intp) * d + np.ravel(cols).astype(np.intp)
    order = np.argsort(key, kind="stable")
    key, vals = key[order], np.ravel(vals).astype(complex)[order]
    first = np.diff(key, prepend=-1) != 0  # the first entry of each (row, col)
    summed = vals[first]
    np.add.at(summed, np.cumsum(first)[~first] - 1, vals[~first])
    nz = summed != 0
    out = (key[first][nz] // d, key[first][nz] % d, summed[nz])
    for arr in out:
        arr.setflags(write=False)
    return out


@dataclass(frozen=True, init=False, eq=False)
class OperatorMatrix:
    """Sparse complex matrix acting on the truncated joint Fock basis.

    Stored as canonical COO triplets `rows`, `cols`, `vals` (`_canonical`),
    so the stored pattern is the operator's structure.  The constructor takes
    a dense array or a triplet tuple (rows, cols, vals); a sum of ladder
    products is one `ladder_sum`, and `@` applies the matrix to an array.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dims: ModeDims

    def __init__(self, matrix, dims: ModeDims):
        d = dims.total
        if isinstance(matrix, tuple):
            rows, cols, vals = matrix
            index = np.concatenate([np.ravel(rows), np.ravel(cols)])
            if np.any((index < 0) | (index >= d)):
                raise DimensionError(f"triplet index outside dims {tuple(dims)}")
        else:
            mat = np.asarray(matrix)
            if mat.shape != (d, d):
                raise DimensionError(f"matrix shape {mat.shape} inconsistent with {tuple(dims)}")
            rows, cols = np.nonzero(mat)
            vals = mat[rows, cols]
        for name, arr in zip(("rows", "cols", "vals"), _canonical(rows, cols, vals, d)):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "dims", dims)

    @property
    def elements(self) -> np.ndarray:
        """Dense copy of the matrix."""
        out = np.zeros((self.dims.total,) * 2, dtype=complex)
        out[self.rows, self.cols] = self.vals
        return out

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """Whether ||M - M^dag||_F < tol, from the sorted keys row * d + col:
        an entry meets its mirror by binary search, or counts twice."""
        d = self.dims.total
        key, mirror = self.rows * d + self.cols, self.cols * d + self.rows
        at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
        diff = np.where(key[at] == mirror, self.vals - self.vals[at].conj(), np.sqrt(2) * self.vals)
        return np.linalg.norm(diff) < tol

    def __matmul__(self, other):
        """Product with a vector (d,) or a matrix (d, k)."""
        x = np.asarray(other)
        if x.ndim not in (1, 2) or x.shape[0] != self.dims.total:
            raise DimensionError(f"operand shape {x.shape} inconsistent with {tuple(self.dims)}")
        out = np.zeros(x.shape, dtype=np.result_type(complex, x))
        np.add.at(out, self.rows, self.vals.reshape((-1,) + (1,) * (x.ndim - 1)) * x[self.cols])
        return out


def _check_samples(arr: np.ndarray, state_ndim: int, dims: ModeDims, kind: str) -> None:
    """Raise unless `arr` is one state or a stack of them along one leading
    sample axis: each state has `state_ndim` axes of length dims.total."""
    shape = (dims.total,) * state_ndim
    if arr.ndim not in (state_ndim, state_ndim + 1) or arr.shape[-state_ndim:] != shape:
        raise DimensionError(f"{kind} shape {arr.shape} inconsistent with dims {tuple(dims)}")


@dataclass(frozen=True, init=False, eq=False)
class StateVector:
    """Pure state over the truncated joint Fock basis; unit norm enforced.

    Held on its support: the sorted flat indices `support` (k,), outside
    which every entry of every sample is zero, and `values` of shape (k,),
    or (T, k) for a trajectory of T samples that is validated once.  The
    constructor takes a dense array (d,) or (T, d) and keeps the indices
    that are nonzero in some sample, a NaN or an inf included; a propagator
    builds its trajectory on the sectors it occupies (`_on_support`).
    `amplitudes` is a read-only dense copy, made on each read, as
    `OperatorMatrix.elements` is.  `traj[k]` is sample k as a single state
    on the trajectory's support.
    """

    support: np.ndarray
    values: np.ndarray
    dims: ModeDims

    def __init__(self, amplitudes, dims: ModeDims):
        vec = np.asarray(amplitudes, dtype=complex)
        _check_samples(vec, 1, dims, "state")
        support = np.flatnonzero((vec != 0).reshape(-1, dims.total).any(axis=0))
        self._hold(support, vec[..., support], dims)  # a new array: no caller's is frozen

    @classmethod
    def _on_support(cls, support: np.ndarray, values: np.ndarray, dims: ModeDims) -> "StateVector":
        """The state with `values` (k,) or (T, k) on the sorted flat indices
        `support` (k,), validated as the constructor validates; `values` is
        frozen, not copied."""
        state = object.__new__(cls)
        state._hold(support, values, dims)
        return state

    def _hold(self, support: np.ndarray, values: np.ndarray, dims: ModeDims) -> None:
        """Check the shape and each sample's norm, then freeze and store."""
        if values.ndim not in (1, 2) or values.shape[-1] != support.size:
            raise DimensionError(f"state values shape {values.shape} inconsistent with its support")
        re, im = values.real, values.imag  # views: the norms allocate no (T, k) array
        nrm = np.ravel(np.sqrt(np.einsum("...i,...i", re, re) + np.einsum("...i,...i", im, im)))
        bad = ~(np.abs(nrm - 1.0) <= NORM_TOL)  # a NaN or inf entry makes its norm fail too
        if bad.any():
            if not np.isfinite(values).all():
                raise InvalidParameterError("state has a non-finite entry")
            raise InvalidParameterError(f"state norm {nrm[bad][0]} deviates from 1")
        for arr in (support, values):
            arr.setflags(write=False)
        for name, value in (("support", support), ("values", values), ("dims", dims)):
            object.__setattr__(self, name, value)

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only dense copy, of shape (d,) or (T, d)."""
        out = np.zeros(self.values.shape[:-1] + (self.dims.total,), dtype=complex)
        out[..., self.support] = self.values
        out.setflags(write=False)
        return out

    def __getitem__(self, k) -> "StateVector":
        if self.values.ndim == 1:
            raise TypeError("a single state has no samples")
        return StateVector._on_support(self.support, self.values[k], self.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state; checked finite, Hermitian and of unit trace, but not
    positive, which would cost an eigendecomposition per sample.

    `elements` has shape (d, d), or (T, d, d) for a trajectory of T samples
    that is checked one sample at a time; `traj[k]` is sample k as a single
    state.  It holds the exact Hermitian part (m + m^dag) / 2 of the given
    m, in a new read-only array: m itself is neither changed nor frozen,
    and no caller needs to symmetrize what it passes.
    """

    elements: np.ndarray
    dims: ModeDims

    def __post_init__(self):
        given = np.asarray(self.elements)
        _check_samples(given, 2, self.dims, "density matrix")
        d = self.dims.total
        mat = np.empty(given.shape, dtype=complex)
        # per sample, so that no scratch array is the size of a trajectory
        for m, out in zip(given.reshape(-1, d, d), mat.reshape(-1, d, d)):
            if not np.isfinite(m).all():
                raise InvalidParameterError("density matrix has a non-finite entry")
            dag = m.conj().T
            np.add(m, dag, out=out)
            out *= 0.5
            if np.linalg.norm(m - dag) > 1e-9 * max(1.0, np.linalg.norm(m)):
                raise InvalidParameterError("density matrix is not Hermitian")
            tr = np.trace(m).real
            if abs(tr - 1.0) > 1e-6:
                raise InvalidParameterError(f"density matrix trace {tr} deviates from 1")
        mat.setflags(write=False)
        object.__setattr__(self, "elements", mat)

    def __getitem__(self, k) -> "DensityMatrix":
        if self.elements.ndim == 2:
            raise TypeError("a single state has no samples")
        return DensityMatrix(self.elements[k], self.dims)


def _check_single(state) -> None:
    """Raise InvalidParameterError unless `state` is one StateVector or
    DensityMatrix, not a trajectory."""
    if isinstance(state, StateVector) and state.values.ndim == 1:
        return
    if isinstance(state, DensityMatrix) and state.elements.ndim == 2:
        return
    typed = isinstance(state, (StateVector, DensityMatrix))
    kind = "a trajectory" if typed else type(state).__name__
    raise InvalidParameterError(f"expected one StateVector or DensityMatrix, got {kind}")


#: Per ladder factor: the shift of the mode's occupation and the matrix
#: element as a function of the occupation n it acts on.
_LADDER = {
    "a": (-1, np.sqrt),
    "adag": (1, lambda n: np.sqrt(n + 1)),
    "n": (0, lambda n: n),
}


def ladder_sum(dims, terms: Sequence[tuple[complex, dict[int, str]]]) -> OperatorMatrix:
    """Sum of coef * (product of ladder operators on distinct modes, identity
    on the rest) over the (coef, factors) pairs of `terms`.

    `factors` maps a mode index to "a" (<n-1|a|n> = sqrt(n)), "adag"
    (<n+1|a^dag|n> = sqrt(n+1)) or "n" (<n|n|n> = n).  Such a product sends
    each joint Fock state to at most one Fock state, so its triplets come
    from the shifted joint indices alone; a state shifted out of the
    truncation is dropped.  The scaled triplets of all terms are
    canonicalized once, duplicates summed in term order.
    """
    dims = _as_dims(dims)
    occ = np.indices(dims.dims).reshape(dims.n_modes, -1)  # occupations of each column
    stride = np.cumprod((1,) + dims.dims[:0:-1])[::-1]  # of each mode in a flat index
    triplets = [(np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0, dtype=complex),)]  # sum of none: 0
    for coef, factors in terms:
        _check_modes(dims, list(factors))
        unknown = set(factors.values()) - set(_LADDER)
        if unknown:
            raise InvalidParameterError(f"unknown ladder factors {unknown}; use {list(_LADDER)}")
        inside, vals, offset = np.ones(dims.total, dtype=bool), np.ones(dims.total), 0
        for mode, factor in sorted(factors.items()):
            shift, element = _LADDER[factor]
            inside &= (occ[mode] + shift >= 0) & (occ[mode] + shift < dims[mode])
            vals *= element(occ[mode])
            offset += shift * int(stride[mode])
        cols = np.flatnonzero(inside)
        triplets.append((cols + offset, cols, vals[inside].astype(complex) * coef))
    return OperatorMatrix(tuple(map(np.concatenate, zip(*triplets))), dims)


def ladder_op(dims, factors: dict[int, str]) -> OperatorMatrix:
    """The one product of ladder operators `factors` (`ladder_sum`)."""
    return ladder_sum(dims, [(1, factors)])


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


def product_state(factors: Sequence[StateVector]) -> StateVector:
    """Tensor product of single StateVectors, on the joint dims of their
    modes in order."""
    single = [isinstance(f, StateVector) and f.values.ndim == 1 for f in factors]
    if not single or not all(single):
        raise InvalidParameterError("product_state takes one or more single StateVectors")
    joint = reduce(np.kron, [f.amplitudes for f in factors])
    joint = joint / np.linalg.norm(joint)
    return StateVector(joint, ModeDims(n for f in factors for n in f.dims))


def fock_probabilities(state) -> np.ndarray:
    """Joint Fock-level probabilities of a StateVector or DensityMatrix,
    shaped (*dims) for one state and (T, *dims) for a trajectory."""
    support, held = _held_probabilities(state)
    probs = np.zeros(held.shape[:-1] + (state.dims.total,))
    probs[..., support] = held
    return probs.reshape(probs.shape[:-1] + tuple(state.dims))


def _held_probabilities(state) -> tuple[np.ndarray, np.ndarray]:
    """(support, probs): the flat indices a StateVector holds and |values|^2
    on them, or every index and the diagonal of a DensityMatrix."""
    if isinstance(state, StateVector):
        return state.support, np.abs(state.values) ** 2
    return np.arange(state.dims.total), np.diagonal(state.elements, axis1=-2, axis2=-1).real


def mode_populations(state) -> np.ndarray:
    """Mean photon number of each mode for a StateVector or DensityMatrix:
    shape (n_modes,) for one state, (T, n_modes) for a trajectory.  Only
    the indices a StateVector holds are read."""
    support, probs = _held_probabilities(state)
    occupations = np.indices(tuple(state.dims)).reshape(state.dims.n_modes, -1)
    return probs @ occupations[:, support].T.astype(float)


def partial_trace(state, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state of the modes in `keep` of a StateVector or
    DensityMatrix: a DensityMatrix on the kept modes' dims, of shape
    (d_keep, d_keep) for one state and (T, d_keep, d_keep) for a trajectory.

    A pure state is contracted from its amplitude tensor, so no full-space
    density matrix is formed.
    """
    dims = state.dims
    keep = sorted(keep)
    _check_modes(dims, keep)
    kept = ModeDims(dims[k] for k in keep)
    nm = dims.n_modes
    drop = [k for k in range(nm) if k not in keep]
    if isinstance(state, StateVector):
        lead = state.amplitudes.shape[:-1]
        psi = state.amplitudes.reshape(lead + tuple(dims))
        order = [*range(len(lead)), *(len(lead) + k for k in keep + drop)]
        x = psi.transpose(order).reshape(lead + (kept.total, -1))
        return DensityMatrix(x @ x.conj().swapaxes(-2, -1), kept)
    lead = state.elements.shape[:-2]
    shaped = state.elements.reshape(lead + tuple(dims) * 2)
    for offset, k in enumerate(drop):
        ax = len(lead) + k - offset
        shaped = np.trace(shaped, axis1=ax, axis2=ax + (nm - offset))
    return DensityMatrix(shaped.reshape(lead + (kept.total,) * 2), kept)
