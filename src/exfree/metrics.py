"""Figures of merit: fidelities, process matrices, negativity, Wigner maps,
parity conditioning, and two-qubit Pauli expectation tables."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import lgamma
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, InvalidOperatorError, InvalidParameterError
from .fock import DensityMatrix, ModeDims, StateVector, _check_modes, _check_single, _outer


def _as_matrix(state, n_modes: Optional[int] = None) -> np.ndarray:
    """Density matrix of one StateVector or DensityMatrix; with `n_modes`,
    the state must have that many modes."""
    _check_single(state)
    if isinstance(state, StateVector):
        state = DensityMatrix._on_support(*_outer(state, state), state.dims)
    if n_modes is not None and state.dims.n_modes != n_modes:
        raise DimensionError(f"need a {n_modes}-mode state, got dims {tuple(state.dims)}")
    return state.elements


def _best_phase(ks, coeffs) -> tuple[float, float]:
    """Exact global maximum (F, phi) of F(phi) = Re sum_k c_k e^{i k phi}.

    With m the gcd of the k whose c_k is exactly nonzero (the zeros come from
    the target's support), F depends on phi only through w = e^{i m phi}.  F
    is evaluated at phi = 0 and at the roots of sum_j j d_j w^(j+J), found by
    `np.roots`, with j = k/m, J = max |j| and d_j = c_j + conj(c_-j): the
    unit-circle roots are its stationary points.  phi lies in (-pi/m, pi/m].
    """
    c = np.asarray(coeffs, dtype=complex)
    ks, c = np.asarray(ks)[c != 0], c[c != 0]
    if not np.any(ks):
        return float(c.sum().real), 0.0
    m = int(np.gcd.reduce(np.abs(ks)))
    J = int(np.abs(ks).max()) // m
    d = np.zeros(2 * J + 1, dtype=complex)
    np.add.at(d, J + ks // m, c)
    d = d + d[::-1].conj()
    angles = np.angle(np.roots((np.arange(-J, J + 1) * d)[::-1]))
    angles[angles == -np.pi] = np.pi  # arctan2 gives -pi for a -0.0 imaginary part
    phis = np.concatenate(([0.0], angles / m))
    f = (np.exp(1j * np.outer(phis, ks)) @ c).real
    best = int(np.argmax(f))
    return float(f[best]), float(phis[best])


def optimize_mode_phase(state, target, mode: Optional[int] = None) -> tuple[float, float]:
    """Maximize fidelity over a deterministic phase rotation exp(i*phi*n).

    `state` and `target` are StateVectors or DensityMatrices on the same
    dims; `mode` selects which mode of `state` the rotation acts on (None
    for a single-mode state).  Returns (best_fidelity, best_phi).  The
    transferred state picks up a detuning-dependent phase per photon;
    comparisons to fixed-frame targets are made after this one-parameter
    optimization.
    """
    rho = _as_matrix(state)
    dims = state.dims
    if mode is None:
        if dims.n_modes != 1:
            raise InvalidParameterError("specify the mode for a multi-mode state")
        mode = 0
    _check_modes(dims, [mode])
    tgt = _as_matrix(target)
    if target.dims != dims:
        raise DimensionError(f"target dims {tuple(target.dims)} != state dims {tuple(dims)}")

    # F(phi) = sum_ij e^{i phi (n_i - n_j)} rho_ij tgt_ji is a short Fourier
    # series in phi with one coefficient per photon-number difference
    occ = np.indices(tuple(dims))[mode].ravel()
    g = rho * tgt.T
    diffs = occ[:, None] - occ[None, :]
    ks = np.arange(-(dims[mode] - 1), dims[mode])
    return _best_phase(ks, [g[diffs == k].sum() for k in ks])


@dataclass(frozen=True)
class ProcessMatrix:
    """Normalized Choi matrix of the S1->S3 qubit-subspace channel.

    Basis: input |i><j| on span{|0>,|1>} of the source mode tensored with the
    channel output on span{|0>,|1>} of the target mode; trace normalized to 1.
    """

    choi: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.choi, dtype=complex)
        if m.shape != (4, 4):
            raise DimensionError("Choi matrix must be 4x4")
        if not np.isfinite(m).all():
            raise InvalidOperatorError("Choi matrix has a non-finite entry")
        if np.linalg.norm(m - m.conj().T) > 1e-8:
            raise InvalidOperatorError("Choi matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-8:
            raise InvalidOperatorError("Choi matrix must be trace-normalized")
        if np.linalg.eigvalsh(m)[0] < -1e-8:
            raise InvalidOperatorError("Choi matrix must be completely positive")
        object.__setattr__(self, "choi", m)


def process_matrix(choi) -> ProcessMatrix:
    """Normalized process matrix of an unnormalized 4x4 Choi matrix.

    Hermitizes the matrix and divides it by its trace, which must be
    positive; a post-selected channel is renormalized this way.
    """
    m = np.asarray(choi, dtype=complex)
    if m.shape != (4, 4):
        raise DimensionError("Choi matrix must be 4x4")
    if not np.isfinite(m).all():
        raise InvalidOperatorError("Choi matrix has a non-finite entry")
    m = 0.5 * (m + m.conj().T)
    tr = np.trace(m).real
    if tr <= 1e-12:
        raise InvalidOperatorError("channel output has vanishing weight")
    return ProcessMatrix(m / tr)


def process_fidelity_qubit_subspace(pm: ProcessMatrix) -> tuple[float, float]:
    """Process fidelity of a qubit-subspace channel to the identity, maximized
    over a deterministic output phase diag(1, e^{i phi}).

    The fidelity is Tr(ideal C) between normalized Choi matrices, with ideal
    the projector onto (|00> + |11>)/sqrt2, so a fully depolarizing channel
    scores exactly 1/4 and the product error model F = 1/4 + 3*prod(P_i)/4
    holds.  With v = diag(1, e^{i phi}, 1, e^{i phi}) acting on the stored
    Choi matrix C, Tr(ideal v C v^dag) = (C00 + C33 + C03 e^{-i phi} +
    C30 e^{i phi})/2, maximized exactly by `_best_phase`.  Returns
    (fidelity, optimal_phase).
    """
    c = pm.choi
    return _best_phase((-1, 0, 1), (0.5 * c[0, 3], 0.5 * (c[0, 0] + c[3, 3]), 0.5 * c[3, 0]))


def depolarizing_budget(infidelities: Sequence[float]) -> float:
    """Combine independent error contributions: F = 1/4 + 3*prod(1-eps_i)/4."""
    prod = 1.0
    for eps in infidelities:
        if not 0.0 <= eps <= 1.0:
            raise InvalidParameterError(f"infidelity {eps} outside [0, 1]")
        prod *= 1.0 - eps
    return 0.25 + 0.75 * prod


def negativity(state) -> float:
    """Entanglement negativity of a two-mode state: sum of |negative
    eigenvalues| of its partial transpose on the second mode; zero for every
    separable state."""
    m = _as_matrix(state, n_modes=2)
    da, db = state.dims
    transposed = m.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)
    eigs = np.linalg.eigvalsh(transposed)
    return float(-eigs[eigs < 0].sum())


def wigner(state, alphas) -> np.ndarray:
    """Wigner function W(alpha) = (2/pi) Tr[D(alpha)^dag rho D(alpha) P],
    with P the photon-number parity.

    Evaluated from the displaced-parity Laguerre sum (Cahill & Glauber,
    Phys. Rev. 177, 1882 (1969)), exact for a state held in its n levels:
    W = (2/pi) e^{-2|alpha|^2} sum_{m<=k} (2 - delta_mk)
        Re[rho_mk (-1)^m (2 alpha)^(k-m) sqrt(m!/k!) L_m^(k-m)(4|alpha|^2)].
    The generalized Laguerre polynomials come from the three-term recurrence
    L_0 = 1, L_1 = 1 + d - x, (m+1) L_{m+1} = (2m+1+d-x) L_m - (m+d) L_{m-1}.
    `state` is a one-mode StateVector or DensityMatrix; `alphas` is any
    array of complex phase-space points; returns real values of the same
    shape.
    """
    rho = _as_matrix(state, n_modes=1)
    n = rho.shape[0]
    alphas = np.asarray(alphas, dtype=complex)
    x = 4.0 * np.abs(alphas) ** 2
    flat = x.ravel()
    log_fact = np.array([lgamma(k + 1) for k in range(n)])
    total = np.zeros(alphas.shape)
    # one pass per off-diagonal k - m = d, summing over m for the whole grid
    for d in range(n):
        m = np.arange(n - d)
        sqrt_ratio = np.exp(0.5 * (log_fact[m] - log_fact[m + d]))
        coef = rho[m, m + d] * (-1.0) ** m * sqrt_ratio
        lag = np.zeros((n - d + 1, flat.size))  # row j holds L_{j-1}; L_{-1} = 0
        lag[1] = 1.0
        for k in range(n - d - 1):
            lag[k + 2] = ((2 * k + 1 + d - flat) * lag[k + 1] - (k + d) * lag[k]) / (k + 1)
        term = (coef @ lag[1:]).reshape(alphas.shape) * (2.0 * alphas) ** d
        total += (1.0 if d == 0 else 2.0) * term.real
    return (2.0 / np.pi) * np.exp(-0.5 * x) * total


def parity_split(state, mode: int = 0):
    """Split a StateVector or DensityMatrix by photon-number parity of one
    mode.

    Returns (p_even, rho_even, rho_odd); the conditioned states are
    renormalized valid density matrices (None when the branch weight
    vanishes).
    """
    m = _as_matrix(state)
    dims = state.dims
    _check_modes(dims, [mode])
    even = np.indices(tuple(dims))[mode].ravel() % 2 == 0

    def branch(mask):
        sub = np.where(np.outer(mask, mask), m, 0.0)
        w = float(np.trace(sub).real)
        if w <= 1e-12:
            return w, None
        return w, DensityMatrix(sub / w, dims)

    p_even, rho_even = branch(even)
    p_odd, rho_odd = branch(~even)
    return p_even, rho_even, rho_odd


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

PAULI_PAIRS = tuple(
    f"{p}{q}" for p in "IXYZ" for q in "IXYZ" if (p, q) != ("I", "I")
)


@cache
def _pauli_products() -> dict[str, np.ndarray]:
    """The two-qubit Pauli product of each of `PAULI_PAIRS`, formed on first
    use and read-only."""
    products = {p: np.kron(_PAULI[p[0]], _PAULI[p[1]]) for p in PAULI_PAIRS}
    for op in products.values():
        op.setflags(write=False)
    return products


def qubit_pair_02(state) -> tuple[DensityMatrix, float]:
    """Project a two-mode state onto span{|0>,|2>} x span{|0>,|2>}.

    Returns the renormalized qubit pair, a DensityMatrix on (2, 2), and the
    in-subspace weight.  Convention: |0> is the +Z eigenstate and |2> the
    -Z eigenstate of each encoded qubit.
    """
    m = _as_matrix(state, n_modes=2)
    da, db = state.dims
    if min(da, db) < 3:
        raise DimensionError("the {|0>,|2>} encoding needs at least 3 levels per mode")
    idx = [i * db + j for i in (0, 2) for j in (0, 2)]
    qubit = m[np.ix_(idx, idx)]
    weight = float(np.trace(qubit).real)
    if weight < 1e-6:
        raise InvalidOperatorError("state has negligible weight in the {0,2} subspaces")
    return DensityMatrix(qubit / weight, ModeDims((2, 2))), weight


def pauli_table_02(pair) -> dict[str, float]:
    """The 15 non-identity two-qubit Pauli expectations of a qubit pair on
    (2, 2), such as the one `qubit_pair_02` returns."""
    qubit = _as_matrix(pair)
    if tuple(pair.dims) != (2, 2):
        raise DimensionError(f"need a qubit pair on dims (2, 2), got {tuple(pair.dims)}")
    return {p: float(np.real(np.trace(qubit @ op))) for p, op in _pauli_products().items()}
