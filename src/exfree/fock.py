"""Truncated multi-mode bosonic Hilbert space.

Basis convention: modes are ordered (S1, S2, S3) and flattened row-major
with the last mode fastest, i.e. the amplitude of |n1 n2 n3> sits at index
n1*N2*N3 + n2*N3 + n3.  All other modules share this convention.
Operators are canonical COO triplets in numpy, so no dense full-space operator
is formed unless `OperatorMatrix.elements` is read.  Every operator of the
model is one `ladder_sum`, built from Fock indices and canonicalized once;
`OperatorMatrix.is_hermitian` builds no operator.  Every state is held on
its support, the flat indices it may be nonzero on, and is built, joined and
reduced from the entries it holds (`_gather` reads them at given indices,
`_outer` forms psi phi^dag on two supports, `partial_trace` returns the
entries it computes): no dense (d,) or (d, d) copy, and no (T, d) or
(T, d, d) one, is formed unless `.amplitudes` or `.elements` is read.
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
    products is one `ladder_sum`.  The propagators read the triplets.
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


@dataclass(frozen=True, init=False, eq=False)
class _Held:
    """A state, or a trajectory of T states, held on its support: the sorted flat
    indices `support` (k,), outside which every sample is zero, and `values` (k,)
    or (T, k), checked once by the type's `_checked`.  A dense state or stack of
    them (`_axes` axes of d) is held on its entries nonzero in some sample and their transposes."""

    support: np.ndarray
    values: np.ndarray
    dims: ModeDims

    def __init__(self, dense, dims: ModeDims):
        arr = np.asarray(dense, dtype=complex)
        shape = (dims.total,) * self._axes
        if arr.ndim not in (self._axes, self._axes + 1) or arr.shape[-self._axes:] != shape:
            raise DimensionError(f"{self._kind} shape {arr.shape} inconsistent with dims {tuple(dims)}")
        nonzero = (arr != 0).reshape((-1,) + shape).any(axis=0)  # a NaN or inf counts
        support = np.flatnonzero(nonzero | nonzero.T)  # a vector is its own transpose
        flat = arr.reshape(arr.shape[: arr.ndim - self._axes] + (nonzero.size,))
        self._hold(support, flat.take(support, axis=-1), dims)  # a new array: no caller's is frozen

    @classmethod
    def _on_support(cls, support: np.ndarray, values: np.ndarray, dims: ModeDims):
        """The state with `values` on the sorted `support`, held as `_checked` returns it."""
        state = object.__new__(cls)
        state._hold(support, values, dims)
        return state

    def _hold(self, support: np.ndarray, values: np.ndarray, dims: ModeDims) -> None:
        if values.ndim not in (1, 2) or values.shape[-1] != support.size:
            raise DimensionError(f"{self._kind} values shape {values.shape} inconsistent with its support")
        for name, arr in (("support", support), ("values", self._checked(support, values, dims))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "dims", dims)

    def _dense(self) -> np.ndarray:
        """Read-only dense copy, made on each read as `OperatorMatrix.elements` is."""
        out = _gather(self.support, self.values, np.arange(self.dims.total ** self._axes))
        out.setflags(write=False)
        return out.reshape(self.values.shape[:-1] + (self.dims.total,) * self._axes)

    def __getitem__(self, k):
        if self.values.ndim == 1:
            raise TypeError("a single state has no samples")
        return self._on_support(self.support, self.values[k], self.dims)


def _gather(support: np.ndarray, values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """`values` (..., k), held on the sorted `support`, at the flat indices
    `idx`: zero where not held."""
    at = np.searchsorted(support, idx)
    held = at < support.size
    held[held] = support[at[held]] == idx[held]
    out = np.zeros(values.shape[:-1] + idx.shape, dtype=complex)
    out[..., held] = values[..., at[held]]
    return out


def _norms(x: np.ndarray) -> np.ndarray:
    """The norm of each sample of `x` (..., k), from views: no array of x's size."""
    re, im = x.real, x.imag
    return np.sqrt(np.einsum("...i,...i", re, re) + np.einsum("...i,...i", im, im))


class StateVector(_Held):
    """Pure state over the truncated joint Fock basis; unit norm enforced.
    Held on its support (`_Held`); `amplitudes` (d,) or (T, d) is a dense copy."""

    _kind, _axes = "state", 1

    def _checked(self, support, values, dims):
        nrm = np.ravel(_norms(values))
        bad = ~(np.abs(nrm - 1.0) <= NORM_TOL)  # a NaN or inf entry makes its norm fail too
        if bad.any():
            if not np.isfinite(values).all():
                raise InvalidParameterError("state has a non-finite entry")
            raise InvalidParameterError(f"state norm {nrm[bad][0]} deviates from 1")
        return values

    amplitudes = property(_Held._dense)

    def _held_probabilities(self) -> tuple[np.ndarray, np.ndarray]:
        """(basis indices, probabilities) of the entries held."""
        return self.support, np.abs(self.values) ** 2


class DensityMatrix(_Held):
    """Mixed state; checked finite, Hermitian and of unit trace, but not positive,
    which would cost an eigendecomposition per sample.  Held (`_Held`) as the exact
    Hermitian part (m + m^dag) / 2 of m; `elements` (d, d) or (T, d, d) is a dense copy."""

    _kind, _axes = "density matrix", 2

    def _checked(self, support, values, dims):
        """The Hermitian part, if each sample is finite, Hermitian to 1e-9 relative
        and of trace 1 to 1e-6, in that order; j*d + i is found by binary search."""
        row, col = np.divmod(support, dims.total)
        mirror = col * dims.total + row
        at = np.searchsorted(support, mirror)
        if (support.take(at, mode="clip") != mirror).any():
            raise DimensionError("density matrix support is not closed under transposition")
        dag = values.take(at, axis=-1)
        np.conjugate(dag, out=dag)
        hermitian = values + dag
        hermitian *= 0.5
        np.subtract(values, dag, out=dag)  # the defect m - m^dag
        trace = values.compress(row == col, axis=-1).sum(axis=-1).real
        failed = np.array([~np.isfinite(values).all(axis=-1),
                           _norms(dag) > 1e-9 * np.maximum(1.0, _norms(values)),
                           np.abs(trace - 1.0) > 1e-6]).reshape(3, -1)
        if failed.any():
            k = failed.any(axis=0).argmax()  # the first bad sample, and its first failed check
            raise InvalidParameterError((
                "density matrix has a non-finite entry", "density matrix is not Hermitian",
                f"density matrix trace {np.ravel(trace)[k]} deviates from 1")[failed[:, k].argmax()])
        return hermitian

    elements = property(_Held._dense)

    def _held_probabilities(self) -> tuple[np.ndarray, np.ndarray]:
        """(basis indices, probabilities) of the diagonal entries held."""
        diagonal = self.support % (self.dims.total + 1) == 0  # entry (i, i) is i * (d + 1)
        return self.support[diagonal] // (self.dims.total + 1), self.values[..., diagonal].real


def _outer(psi: StateVector, phi: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """psi phi^dag of two single states, held on the flat indices i*d + j of
    their supports' products, row by row.  Each product is formed from real
    parts, unfused, as einsum forms it: psi psi^dag is Hermitian to the bit."""
    x, y = psi.values, phi.values.conj()
    values = np.empty((x.size, y.size), dtype=complex)
    values.real = np.multiply.outer(x.real, y.real) - np.multiply.outer(x.imag, y.imag)
    values.imag = np.multiply.outer(x.real, y.imag) + np.multiply.outer(x.imag, y.real)
    return np.add.outer(psi.support * psi.dims.total, phi.support).ravel(), values.ravel()


def _check_single(state) -> None:
    """Raise InvalidParameterError unless `state` is one StateVector or
    DensityMatrix, not a trajectory."""
    if not (isinstance(state, _Held) and state.values.ndim == 1):
        kind = "a trajectory" if isinstance(state, _Held) else type(state).__name__
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
    flat = np.array([dims.flat_index(occupations)])
    return StateVector._on_support(flat, np.ones(1, dtype=complex), dims)


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
    support, values = factors[0].support, factors[0].values
    for f in factors[1:]:  # the products of held entries, in the order of np.kron
        support = np.add.outer(support * f.dims.total, f.support).ravel()
        values = np.multiply.outer(values, f.values).ravel()
    dims = ModeDims(n for f in factors for n in f.dims)
    return StateVector._on_support(support, values / np.linalg.norm(values), dims)


def fock_probabilities(state) -> np.ndarray:
    """Joint Fock-level probabilities of a StateVector or DensityMatrix,
    shaped (*dims) for one state and (T, *dims) for a trajectory."""
    support, held = state._held_probabilities()
    probs = np.zeros(held.shape[:-1] + (state.dims.total,))
    probs[..., support] = held
    return probs.reshape(probs.shape[:-1] + tuple(state.dims))


def mode_populations(state) -> np.ndarray:
    """Mean photon number of each mode for a StateVector or DensityMatrix:
    shape (n_modes,) for one state, (T, n_modes) for a trajectory.  Only
    the entries a state holds are read."""
    support, probs = state._held_probabilities()
    occupations = np.indices(tuple(state.dims)).reshape(state.dims.n_modes, -1)
    return probs @ occupations[:, support].T.astype(float)


def partial_trace(state, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state of the modes in `keep` of a StateVector or
    DensityMatrix: a DensityMatrix on the kept modes' dims, of shape
    (d_keep, d_keep) for one state and (T, d_keep, d_keep) for a trajectory.

    Only the held entries are read.  A pure state contracts the rows and
    columns it holds, of its kept and its dropped occupations.  A mixed state
    scatters, one dropped mode after another, the held entries whose
    occupations of that mode agree.
    """
    dims = state.dims
    keep = sorted(keep)
    _check_modes(dims, keep)
    kept = ModeDims(dims[k] for k in keep)
    drop = [k for k in range(dims.n_modes) if k not in keep]
    lead = state.values.shape[:-1]
    if isinstance(state, StateVector):
        occ = np.unravel_index(state.support, tuple(dims))
        row, col = (reduce(lambda flat, k: flat * dims[k] + occ[k], modes, np.zeros_like(occ[0]))
                    for modes in (keep, drop))
        rows, cols = (np.flatnonzero(np.bincount(x)) for x in (row, col))
        x = np.zeros(lead + (rows.size, cols.size), dtype=complex)
        x[..., np.searchsorted(rows, row), np.searchsorted(cols, col)] = state.values
        support = np.add.outer(rows * kept.total, rows).ravel()
        values = (x @ x.conj().swapaxes(-2, -1)).reshape(lead + support.shape)
    else:
        support, values, now = state.support, state.values, tuple(dims)
        for m in (k - offset for offset, k in enumerate(drop)):  # mode k is the m-th left
            occ = np.unravel_index(support, now * 2)
            on = occ[m] == occ[m + len(now)]
            left = [o[on] for q, o in enumerate(occ) if q % len(now) != m]
            now = now[:m] + now[m + 1:]
            summed = np.zeros(lead + (prod(now) ** 2,), dtype=complex)
            np.add.at(summed, (..., np.ravel_multi_index(left, now * 2)), values[..., on])
            support, values = np.arange(summed.shape[-1]), summed
    return DensityMatrix._on_support(support, values, kept)
