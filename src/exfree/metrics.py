"""Figures of merit: fidelities, process matrices, negativity, Wigner maps,
parity conditioning, and two-qubit Pauli expectation tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import sqrtm
from scipy.special import eval_genlaguerre, gammaln

from .errors import DimensionError, InvalidOperatorError, InvalidParameterError
from .fock import DensityMatrix, ModeDims, StateVector

QubitChannel = Callable[[np.ndarray], np.ndarray]


def _as_matrix(state) -> np.ndarray:
    if isinstance(state, StateVector):
        v = state.amplitudes
        return np.outer(v, v.conj())
    if isinstance(state, DensityMatrix):
        return state.elements
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return np.outer(arr, arr.conj())
    return arr


def state_fidelity(a, b) -> float:
    """Fidelity between two states (pure or mixed), in [0, 1].

    Pure-pure reduces to |<a|b>|^2; the general case is the squared Uhlmann
    fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        if a.dims.dims != b.dims.dims:
            raise DimensionError("state dims do not match")
        return float(abs(a.overlap(b)) ** 2)
    ra, rb = _as_matrix(a), _as_matrix(b)
    if ra.shape != rb.shape:
        raise DimensionError("state dims do not match")
    # shortcut when one side is (numerically) pure
    for x, y in ((ra, rb), (rb, ra)):
        if abs(np.trace(x @ x).real - 1.0) < 1e-10:
            w, v = np.linalg.eigh(x)
            psi = v[:, -1]
            return float(np.real(psi.conj() @ y @ psi))
    root = sqrtm(ra)
    inner = sqrtm(root @ rb @ root)
    return float(np.real(np.trace(inner)) ** 2)


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

    `mode` selects which mode of `state` the rotation acts on (None for a
    single-mode state).  Returns (best_fidelity, best_phi).  The transferred
    state picks up a detuning-dependent phase per photon; comparisons to
    fixed-frame targets are made after this one-parameter optimization.
    """
    rho = _as_matrix(state)
    dims = state.dims if hasattr(state, "dims") else ModeDims((rho.shape[0],))
    if mode is None:
        if dims.n_modes != 1:
            raise InvalidParameterError("specify the mode for a multi-mode state")
        mode = 0
    tgt = _as_matrix(target)

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


IDEAL_CHOI = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)


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


def choi_from_channel(channel: QubitChannel, require_tp: bool = True) -> ProcessMatrix:
    """Build the (normalized) Choi matrix by propagating the 4 matrix units.

    With require_tp the map must preserve trace to 1e-6; post-selected
    channels set require_tp=False and the Choi is renormalized.
    """
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            choi[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = channel(unit)
    if require_tp:
        tp_defect = max(
            abs(np.trace(choi[:2, :2]).real - 1.0), abs(np.trace(choi[2:, 2:]).real - 1.0)
        )
        if tp_defect > 1e-6:
            raise InvalidOperatorError(
                f"channel is not trace preserving (defect {tp_defect:.2e}); "
                "declare post-selection explicitly"
            )
    return process_matrix(choi)


def process_fidelity(actual: ProcessMatrix, ideal: Optional[np.ndarray] = None) -> float:
    """Tr(choi_ideal choi_actual) with normalized Choi matrices.

    With this convention a fully depolarizing qubit channel scores exactly
    1/4 and the product error model F = 1/4 + 3*prod(P_i)/4 holds.
    """
    ideal_m = IDEAL_CHOI if ideal is None else np.asarray(ideal, dtype=complex)
    return float(np.real(np.trace(ideal_m @ actual.choi)))


def process_fidelity_qubit_subspace(pm: ProcessMatrix) -> tuple[float, float]:
    """Process fidelity of a qubit-subspace channel to the identity, maximized
    over a deterministic output phase diag(1, e^{i phi}).

    With v = diag(1, e^{i phi}, 1, e^{i phi}) acting on the stored Choi
    matrix C, Tr(IDEAL v C v^dag) = (C00 + C33 + C03 e^{-i phi} + C30 e^{i phi})/2,
    maximized exactly by `_best_phase`.  Returns (fidelity, optimal_phase).
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


def partial_transpose(rho: np.ndarray, dims2: tuple[int, int]) -> np.ndarray:
    """Transpose the second factor of a bipartite density matrix."""
    da, db = dims2
    r = np.asarray(rho, dtype=complex).reshape(da, db, da, db)
    return r.transpose(0, 3, 2, 1).reshape(da * db, da * db)


def negativity(rho, dims2: tuple[int, int]) -> float:
    """Entanglement negativity: sum of |negative eigenvalues| of the partial
    transpose; zero for every separable state."""
    m = _as_matrix(rho)
    da, db = dims2
    if m.shape[0] != da * db:
        raise DimensionError("bipartition does not match matrix size")
    eigs = np.linalg.eigvalsh(partial_transpose(m, dims2))
    return float(-eigs[eigs < 0].sum())


def wigner(rho_single_mode, alphas) -> np.ndarray:
    """Wigner function W(alpha) = (2/pi) Tr[D(alpha)^dag rho D(alpha) P],
    with P the photon-number parity.

    Evaluated from the displaced-parity Laguerre sum (Cahill & Glauber,
    Phys. Rev. 177, 1882 (1969)), exact for a state held in its n levels:
    W = (2/pi) e^{-2|alpha|^2} sum_{m<=k} (2 - delta_mk)
        Re[rho_mk (-1)^m (2 alpha)^(k-m) sqrt(m!/k!) L_m^(k-m)(4|alpha|^2)].
    `alphas` is any array of complex phase-space points; returns real values
    of the same shape.
    """
    rho = _as_matrix(rho_single_mode)
    n = rho.shape[0]
    alphas = np.asarray(alphas, dtype=complex)
    x = 4.0 * np.abs(alphas) ** 2
    total = np.zeros(alphas.shape)
    # one pass per off-diagonal k - m = d, summing over m for the whole grid
    for d in range(n):
        m = np.arange(n - d)
        sqrt_ratio = np.exp(0.5 * (gammaln(m + 1) - gammaln(m + d + 1)))
        coef = rho[m, m + d] * (-1.0) ** m * sqrt_ratio
        lag = eval_genlaguerre(m[:, None], d, x.ravel())
        term = (coef @ lag).reshape(alphas.shape) * (2.0 * alphas) ** d
        total += (1.0 if d == 0 else 2.0) * term.real
    return (2.0 / np.pi) * np.exp(-0.5 * x) * total


def parity_split(rho, mode: int = 0):
    """Split a state by photon-number parity of one mode.

    Returns (p_even, rho_even, rho_odd); the conditioned states are
    renormalized valid density matrices (None when the branch weight
    vanishes).
    """
    m = _as_matrix(rho)
    dims = rho.dims if hasattr(rho, "dims") else ModeDims((m.shape[0],))
    even = np.indices(tuple(dims))[mode].ravel() % 2 == 0

    def branch(mask):
        sub = np.where(np.outer(mask, mask), m, 0.0)
        w = float(np.trace(sub).real)
        if w <= 1e-12:
            return w, None
        sub = sub / w
        return w, DensityMatrix(0.5 * (sub + sub.conj().T), dims)

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


@dataclass(frozen=True)
class PauliTable:
    """The 15 non-identity two-qubit Pauli expectations in the {|0>,|2>}
    subspaces, plus the in-subspace weight of the projected state.

    Convention: |0> is the +Z eigenstate and |2> the -Z eigenstate of each
    encoded qubit.
    """

    values: dict[str, float]
    weight: float

    def __getitem__(self, key: str) -> float:
        return self.values[key]


def qubit_pair_02(rho_two_mode, dims2: Optional[tuple[int, int]] = None):
    """Project a two-mode state onto span{|0>,|2>} x span{|0>,|2>}.

    Returns (renormalized 4x4 qubit-pair matrix, in-subspace weight).
    `dims2` is required for a bare matrix.
    """
    m = _as_matrix(rho_two_mode)
    if dims2 is None:
        if not hasattr(rho_two_mode, "dims") or rho_two_mode.dims.n_modes != 2:
            raise DimensionError("provide dims2 for a bare matrix")
        dims2 = tuple(rho_two_mode.dims)
    da, db = dims2
    if m.shape[0] != da * db:
        raise DimensionError("bipartition does not match matrix size")
    if min(da, db) < 3:
        raise DimensionError("the {|0>,|2>} encoding needs at least 3 levels per mode")
    idx = [i * db + j for i in (0, 2) for j in (0, 2)]
    qubit = m[np.ix_(idx, idx)]
    weight = float(np.trace(qubit).real)
    if weight < 1e-6:
        raise InvalidOperatorError("state has negligible weight in the {0,2} subspaces")
    return qubit / weight, weight


def pauli_table_02(rho_two_mode, dims2: Optional[tuple[int, int]] = None) -> PauliTable:
    """All two-qubit Pauli expectations of the renormalized {|0>,|2>} qubit
    pair of a two-mode state (see `qubit_pair_02`)."""
    qubit, weight = qubit_pair_02(rho_two_mode, dims2)
    values = {
        pair: float(np.real(np.trace(qubit @ np.kron(_PAULI[pair[0]], _PAULI[pair[1]]))))
        for pair in PAULI_PAIRS
    }
    return PauliTable(values=values, weight=weight)
