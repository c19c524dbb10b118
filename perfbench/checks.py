"""Independent references for the benchmark's correctness checks.

Nothing here calls into `exfree` except `analytic.mean_photon_numbers`,
which is the project's oracle.  Hamiltonians are rebuilt from Fock indices
as sparse matrices, states are propagated with `expm_multiply` or `expm`,
the Lindblad reference integrates its own sparse Liouvillian with RK45 at
rtol 1e-8, and Wigner maps use the closed-form Laguerre sum.  A check
records the measured deviation next to its tolerance, so a known bias
stays visible in every run instead of hiding behind a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import eval_genlaguerre, gammaln

#: Equivalent unitary paths must agree to this (ROADMAP tolerance).
UNITARY_TOL = 1e-10
#: Phase-optimized fidelities carry the library's bounded scalar search
#: (xatol 1e-5 in the phase), which leaves up to ~1e-9 in the fidelity.
PHASE_OPT_TOL = 1e-8
#: Lindblad fidelities against the RK45 rtol-1e-8 reference.
LINDBLAD_TOL = 1e-6
#: Analytic oracle bound on mean photon numbers (criterion 01).
ORACLE_TOL = 1e-4
#: Wigner maps against the closed form.  The guard-band map of the seed
#: deviates by 7.1e-4 at the 41x41 grid corner (|alpha| = 3.5) and by
#: 1.9e-5 inside |alpha| < 1.5 on the received binomial states; the bounds
#: sit a small factor above that so any growth of the bias fails.
WIGNER_TOL = 1e-3
WIGNER_INNER_RADIUS = 1.5
WIGNER_INNER_TOL = 5e-5

#: Cavity T1 lifetimes (us) of the device characterization table, mode
#: order (S1, S2, S3).
CAVITY_T1_US = (265.0, 300.0, 314.0)


@dataclass(frozen=True)
class Check:
    """One correctness check: the measured deviation and its bound."""

    name: str
    value: float
    tol: float

    @property
    def ok(self) -> bool:
        return bool(self.value <= self.tol)  # NaN fails


def deviation(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------- model


def _lowering(n: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, n, dtype=float)), 1, format="csr")


def mode_ops(dims) -> list[sp.csr_matrix]:
    """Sparse annihilation operators of each mode, last mode fastest."""
    ops = []
    for k in range(len(dims)):
        factors = [_lowering(n) if j == k else sp.identity(n, format="csr")
                   for j, n in enumerate(dims)]
        op = factors[0]
        for f in factors[1:]:
            op = sp.kron(op, f, format="csr")
        ops.append(op.astype(complex))
    return ops


def hamiltonian_terms(g1, g2, delta, dims):
    """(S1-S2 pair term, S3-S2 pair term, bus detuning) as sparse matrices."""
    a1, a2, a3 = mode_ops(dims)
    h12 = g1 * (a1.T @ a2.T + a1 @ a2)
    h32 = g2 * (a3.T @ a2.T + a3 @ a2)
    return h12, h32, delta * (a2.T @ a2)


def hamiltonian(g1, g2, delta, dims) -> sp.csr_matrix:
    h12, h32, hdet = hamiltonian_terms(g1, g2, delta, dims)
    return (h12 + h32 + hdet).tocsr()


def basis_state(dims, occupations) -> np.ndarray:
    v = np.zeros(int(np.prod(dims)), dtype=complex)
    v[np.ravel_multi_index(tuple(occupations), tuple(dims))] = 1.0
    return v


def binomial_codeword(label: str, n: int) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    if label == "0L":
        v[[0, 4]] = 1.0 / sqrt(2.0)
    elif label == "+iL":
        v[[0, 4]] = 0.5
        v[2] = 1j / sqrt(2.0)
    else:
        raise ValueError(f"no reference codeword for {label!r}")
    return v


# ---------------------------------------------------------------- states


def evolve_grid(H, psi0, times) -> np.ndarray:
    """exp(-iHt) psi0 on a uniform grid of times; one row per time."""
    times = np.asarray(times, dtype=float)
    if times.size == 1:
        return expm_multiply(-1j * times[0] * H, psi0)[None, :]
    return expm_multiply(-1j * H, psi0, start=times[0], stop=times[-1],
                         num=times.size, endpoint=True)


def populations(states, dims) -> np.ndarray:
    """Mean photon number per mode, one row per state."""
    probs = np.abs(np.atleast_2d(states)) ** 2
    probs = probs.reshape((probs.shape[0], *dims))
    out = []
    for k, n in enumerate(dims):
        axes = tuple(1 + j for j in range(len(dims)) if j != k)
        out.append(probs.sum(axis=axes) @ np.arange(n))
    return np.array(out).T


def reduced_from_pure(psi, dims, keep) -> np.ndarray:
    """Reduced density matrix of a pure state on the modes in `keep`."""
    t = np.moveaxis(np.asarray(psi).reshape(dims), list(keep), list(range(len(keep))))
    m = t.reshape(int(np.prod([dims[k] for k in keep])), -1)
    return m @ m.conj().T


def phase_optimized_fidelity(rho, target, occ) -> float:
    """max over phi of <t| R rho R^dag |t>, R = exp(i phi n) with n = occ.

    F(phi) is a trigonometric polynomial; a dense grid brackets the maximum
    and Newton steps on the exact derivatives finish it.
    """
    tgt = np.outer(target, np.conj(target))
    g = np.asarray(rho) * tgt.T
    diffs = np.subtract.outer(occ, occ)
    ks = np.arange(diffs.min(), diffs.max() + 1)
    c = np.array([g[diffs == k].sum() for k in ks])

    def derivs(phi):
        e = c * np.exp(1j * phi * ks)
        return e.sum().real, (1j * ks * e).sum().real, (-(ks**2) * e).sum().real

    grid = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    vals = (c[None, :] * np.exp(1j * np.outer(grid, ks))).sum(axis=1).real
    phi = grid[int(np.argmax(vals))]
    for _ in range(20):
        _, d1, d2 = derivs(phi)
        if d2 >= 0:
            break
        step = d1 / d2
        phi -= step
        if abs(step) < 1e-14:
            break
    return max(float(derivs(phi)[0]), float(vals.max()))


def _qubit_pair_02(rho13, dims13) -> np.ndarray:
    idx = [np.ravel_multi_index((i, j), dims13) for i in (0, 2) for j in (0, 2)]
    q = np.asarray(rho13)[np.ix_(idx, idx)]
    return q / np.trace(q).real


def negativity_02(rho13, dims13) -> float:
    q = _qubit_pair_02(rho13, dims13).reshape(2, 2, 2, 2)
    pt = q.transpose(0, 3, 2, 1).reshape(4, 4)
    eigs = np.linalg.eigvalsh(pt)
    return float(-eigs[eigs < 0].sum())


_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def pauli_table_02(rho13, dims13) -> dict[str, float]:
    q = _qubit_pair_02(rho13, dims13)
    return {
        p + r: float(np.trace(q @ np.kron(_PAULI[p], _PAULI[r])).real)
        for p in "IXYZ" for r in "IXYZ" if p + r != "II"
    }


# ---------------------------------------------------------------- channels


def liouvillian(H, collapse) -> sp.csr_matrix:
    """Row-major vectorized master equation: vec(A X B) = (A kron B^T) vec X."""
    d = H.shape[0]
    eye = sp.identity(d, format="csr", dtype=complex)
    out = -1j * (sp.kron(H, eye) - sp.kron(eye, H.T))
    for L in collapse:
        LdL = (L.conj().T @ L).tocsr()
        out = out + sp.kron(L, L.conj()) - 0.5 * (sp.kron(LdL, eye) + sp.kron(eye, LdL.T))
    return out.tocsr()


def unitary_propagator(H, t):
    U = expm(-1j * t * H.toarray())
    return lambda full: U @ full @ U.conj().T


def lindblad_propagator(H, collapse, t, rtol=1e-8):
    L = liouvillian(H, collapse)
    d = H.shape[0]

    def propagate(full):
        sol = solve_ivp(lambda _t, y: L @ y, (0.0, t), full.ravel(), t_eval=[t],
                        rtol=rtol, atol=rtol * 1e-2, method="RK45")
        if not sol.success:
            raise RuntimeError(f"reference integrator failed: {sol.message}")
        return sol.y[:, -1].reshape(d, d)

    return propagate


def transfer_fidelity(propagate, dims, condition_bus_vacuum: bool) -> float:
    """Phase-optimized process fidelity of the S1 -> S3 qubit channel.

    The input qubit sits on |000>, |100>; the output is the {|0>,|1>} block
    of S3 after tracing out S1 and S2, optionally after projecting the bus
    onto vacuum.  Choi matrices are trace-normalized.
    """
    dims = tuple(dims)
    d = int(np.prod(dims))
    src = [np.ravel_multi_index(o, dims) for o in ((0, 0, 0), (1, 0, 0))]
    bus = np.indices(dims)[1].ravel()
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            full = np.zeros((d, d), dtype=complex)
            full[src[i], src[j]] = 1.0
            full = propagate(full)
            if condition_bus_vacuum:
                full[bus != 0, :] = 0.0
                full[:, bus != 0] = 0.0
            out = np.einsum("abiabj->ij", full.reshape(dims + dims))
            choi[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = out[:2, :2]
    choi = 0.5 * (choi + choi.conj().T)
    choi /= np.trace(choi).real
    return float(0.5 * (choi[0, 0] + choi[3, 3]).real + abs(choi[0, 3]))


def cavity_collapse(dims) -> list[sp.csr_matrix]:
    return [sqrt(1.0 / t1) * a for t1, a in zip(CAVITY_T1_US, mode_ops(dims))]


# ---------------------------------------------------------------- Wigner


def wigner_closed_form(rho, alphas) -> np.ndarray:
    """W(alpha) = (2/pi) Tr[D rho D^dag P] from the displaced-parity
    Laguerre sum (Cahill & Glauber 1969); exact for a state held in
    rho.shape[0] levels."""
    rho = np.asarray(rho)
    al = np.asarray(alphas, dtype=complex)
    x = 4.0 * np.abs(al) ** 2
    w = np.zeros(al.shape)
    n = rho.shape[0]
    for m in range(n):
        w += rho[m, m].real * (-1) ** m * eval_genlaguerre(m, 0, x)
        for k in range(m + 1, n):
            c = (2.0 * al) ** (k - m) * np.exp(0.5 * (gammaln(m + 1) - gammaln(k + 1)))
            w += 2.0 * np.real(rho[m, k] * (-1) ** m * c * eval_genlaguerre(m, k - m, x))
    return (2.0 / np.pi) * np.exp(-0.5 * x) * w


def wigner_checks(name, rho, alphas, measured) -> list[Check]:
    dev = np.abs(wigner_closed_form(rho, alphas) - np.asarray(measured))
    inner = np.abs(alphas) < WIGNER_INNER_RADIUS
    return [
        Check(f"{name}.max", float(dev.max()), WIGNER_TOL),
        Check(f"{name}.inner", float(dev[inner].max()), WIGNER_INNER_TOL),
    ]
