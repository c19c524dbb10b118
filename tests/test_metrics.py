import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from exfree.errors import DimensionError, InvalidOperatorError, InvalidParameterError
from exfree.fock import DensityMatrix, ModeDims, StateVector, binomial_code_state, fock_state
from exfree.metrics import (
    PAULI_PAIRS,
    ProcessMatrix,
    _best_phase,
    depolarizing_budget,
    negativity,
    optimize_mode_phase,
    parity_split,
    pauli_table_02,
    process_fidelity_qubit_subspace,
    process_matrix,
    qubit_pair_02,
    wigner,
)


def bell_pair():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


#: Normalized Choi matrix of the identity qubit channel: block (i, j) holds
#: the channel's output for the input |i><j|, divided by 2.
IDEAL = bell_pair()


def pure_density(psi: StateVector) -> DensityMatrix:
    """The density matrix |psi><psi| of a pure state."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.dims)


class TestPhaseOptimization:
    def test_recovers_applied_phase(self):
        psi = binomial_code_state("0L", 6)
        phi_true = 0.7
        rotated = StateVector(
            np.exp(1j * phi_true * np.arange(6)) * psi.amplitudes, psi.dims
        )
        fid, phi = optimize_mode_phase(rotated, psi)
        assert fid == pytest.approx(1.0, abs=1e-10)
        assert np.exp(1j * (phi + phi_true)) == pytest.approx(1.0, abs=1e-12)

    def test_multi_mode_needs_mode_index(self):
        psi = fock_state(ModeDims((3, 3)), (1, 0))
        with pytest.raises(InvalidParameterError):
            optimize_mode_phase(psi, psi)

    def test_target_must_share_the_mode_split(self):
        # the same 9 levels, split as (3, 3) and as one mode
        psi = fock_state(ModeDims((3, 3)), (1, 0))
        with pytest.raises(DimensionError):
            optimize_mode_phase(psi, fock_state(ModeDims((9,)), (3,)), mode=0)

    def test_phase_cannot_fix_amplitude_mismatch(self):
        dims = ModeDims((4,))
        fid, _ = optimize_mode_phase(fock_state(dims, (1,)), fock_state(dims, (2,)))
        assert fid == pytest.approx(0.0, abs=1e-12)

    def test_maximizer_edge_cases(self):
        # maximum at e^{2i phi} = -1, with the root just below the real axis
        c = -np.exp(-1e-16j)
        assert _best_phase((-2, 0, 2), (np.conj(c), 0.5, c)) == (2.5, np.pi / 2)
        # F = 0.3 for every phi: the stationarity polynomial vanishes
        assert _best_phase((-1, 0, 1), (1j, 0.3, 1j)) == (0.3, 0.0)
        assert _best_phase((-1, 0, 1), (0.0, 0.3, 0.0)) == (0.3, 0.0)
        # only the real part counts: Re(i e^{i phi}) = -sin(phi), with no c_-1
        assert _best_phase((1,), (1j,)) == pytest.approx((1.0, -np.pi / 2), abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 10_000))
    def test_global_maximum_over_a_fine_grid(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi[rng.random(n) < 0.4] = 0.0  # sparse targets leave structural zeros
        psi[0] += 1.0
        psi /= np.linalg.norm(psi)
        occ = np.arange(n)

        def fourier_sum(phi):
            # <psi| R rho R^dag |psi> with R = exp(i phi n)
            v = np.exp(1j * np.multiply.outer(phi, occ)) * psi.conj()
            return np.real(np.einsum("...i,ij,...j->...", v, rho, v.conj()))

        dims = ModeDims((n,))
        fid, phi = optimize_mode_phase(DensityMatrix(rho, dims), StateVector(psi, dims))
        grid = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        assert fid >= fourier_sum(grid).max() - 1e-12
        assert fourier_sum(phi) == pytest.approx(fid, abs=1e-12)
        assert -np.pi < phi <= np.pi


class TestProcessMatrix:
    def test_identity_channel(self):
        assert process_fidelity_qubit_subspace(ProcessMatrix(IDEAL))[0] == pytest.approx(1.0)

    def test_fully_depolarizing_scores_quarter(self):
        pm = ProcessMatrix(np.eye(4, dtype=complex) / 4.0)
        assert process_fidelity_qubit_subspace(pm)[0] == pytest.approx(0.25)

    @pytest.mark.parametrize("p", [0.1, 0.4, 0.9])
    def test_partial_depolarizing(self, p):
        pm = ProcessMatrix((1 - p) * IDEAL + p * np.eye(4) / 4.0)
        assert process_fidelity_qubit_subspace(pm)[0] == pytest.approx(1 - 0.75 * p)

    def test_post_selected_choi_is_renormalized(self):
        fid, _ = process_fidelity_qubit_subspace(process_matrix(0.5 * IDEAL))
        assert fid == pytest.approx(1.0)

    def test_choi_validation(self):
        with pytest.raises(InvalidOperatorError):
            ProcessMatrix(np.eye(4, dtype=complex))  # trace 4, not 1
        for build in (ProcessMatrix, process_matrix):
            with pytest.raises(InvalidOperatorError):
                build(np.full((4, 4), np.nan, dtype=complex))
            with pytest.raises(DimensionError):
                build(np.eye(2, dtype=complex) / 2.0)
        # unit trace, but no channel
        with pytest.raises(InvalidOperatorError, match="Hermitian"):
            ProcessMatrix(IDEAL + 0.1 * np.triu(np.ones((4, 4)), 1))
        with pytest.raises(InvalidOperatorError, match="completely positive"):
            ProcessMatrix(np.diag([0.5, 0.5, 0.5, -0.5]))
        with pytest.raises(InvalidOperatorError, match="vanishing weight"):
            process_matrix(np.zeros((4, 4)))

    def test_phase_optimized_identity_with_phase(self):
        # the channel x -> v x v^dag has the Choi matrix w IDEAL w^dag, w = 1 (x) v
        w = np.kron(np.eye(2), np.diag([1.0, np.exp(0.6j)]))
        fid, phi = process_fidelity_qubit_subspace(ProcessMatrix(w @ IDEAL @ w.conj().T))
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert np.exp(1j * (phi + 0.6)) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_process_phase_is_global_maximum(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        choi = m @ m.conj().T
        pm = ProcessMatrix(choi / np.trace(choi))

        def fid_at(phi):
            # Tr(IDEAL v C v^dag) with v = diag(1, e^{i phi}, 1, e^{i phi})
            v = np.exp(1j * np.multiply.outer(phi, [0, 1, 0, 1]))
            rotated = v[..., :, None] * pm.choi * v[..., None, :].conj()
            return np.real(np.einsum("ij,...ji->...", IDEAL, rotated))

        fid, phi = process_fidelity_qubit_subspace(pm)
        grid = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        assert fid >= fid_at(grid).max() - 1e-12
        assert fid_at(phi) == pytest.approx(fid, abs=1e-12)
        assert -np.pi < phi <= np.pi


class TestBudget:
    def test_empty_budget_is_perfect(self):
        assert depolarizing_budget([]) == 1.0

    def test_reference_device_numbers(self):
        vals = [0.073, 0.060, 0.042, 0.089, 0.037]
        assert depolarizing_budget(vals) == pytest.approx(0.79926133016329, rel=1e-10)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            depolarizing_budget([0.1, 1.2])


class TestNegativity:
    def test_bell_state(self):
        assert negativity(DensityMatrix(bell_pair(), ModeDims((2, 2)))) == pytest.approx(0.5)

    def test_separable_is_zero(self):
        rho = np.kron(np.diag([0.6, 0.4]), np.diag([0.3, 0.7])).astype(complex)
        assert negativity(DensityMatrix(rho, ModeDims((2, 2)))) == pytest.approx(0.0, abs=1e-12)

    def test_split_is_read_from_dims(self):
        # (|00> + |11> + |22>)/sqrt3 has negativity (3 - 1)/2 = 1 on (3, 3)
        v = np.eye(3).ravel() / np.sqrt(3)
        assert negativity(StateVector(v, ModeDims((3, 3)))) == pytest.approx(1.0)

    def test_dimension_check(self):
        # the same nine levels as one mode have no bipartition
        with pytest.raises(DimensionError):
            negativity(StateVector(np.eye(3).ravel() / np.sqrt(3), ModeDims((9,))))


class TestWigner:
    def test_vacuum_at_origin(self):
        vac = fock_state(ModeDims((8,)), (0,))
        assert wigner(vac, np.array([0.0 + 0.0j]))[0] == pytest.approx(2 / np.pi)

    def test_single_photon_negative_at_origin(self):
        one = fock_state(ModeDims((8,)), (1,))
        assert wigner(one, np.array([0.0 + 0.0j]))[0] == pytest.approx(-2 / np.pi)

    def test_vacuum_gaussian_profile(self):
        vac = fock_state(ModeDims((8,)), (0,))
        alphas = np.array([0.5 + 0.0j, 0.0 + 1.0j])
        vals = wigner(vac, alphas)
        expect = (2 / np.pi) * np.exp(-2.0 * np.abs(alphas) ** 2)
        assert np.allclose(vals, expect, atol=1e-8)

    def test_integral_normalization(self):
        # integral of W over phase space is Tr rho = 1
        psi = binomial_code_state("0L", 8)
        axis = np.linspace(-4.0, 4.0, 61)
        re, im = np.meshgrid(axis, axis)
        w = wigner(psi, re + 1j * im)
        d = axis[1] - axis[0]
        assert w.sum() * d * d == pytest.approx(1.0, abs=5e-3)

    def test_bounded_by_two_over_pi(self):
        psi = binomial_code_state("+iL", 8)
        axis = np.linspace(-2.5, 2.5, 21)
        re, im = np.meshgrid(axis, axis)
        assert np.max(np.abs(wigner(psi, re + 1j * im))) <= 2 / np.pi + 1e-9

    def test_matches_displaced_parity_definition(self):
        # (2/pi) Tr[D(alpha)^dag rho D(alpha) P] with D exponentiated on n + 100
        # levels; a dense rho has odd-difference coherences, so W(-alpha) != W(alpha)
        n, big = 9, 109
        rng = np.random.default_rng(3)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        padded = np.zeros((big, big), dtype=complex)
        padded[:n, :n] = rho
        a = np.diag(np.sqrt(np.arange(1.0, big)), 1)
        parity = np.diag((-1.0) ** np.arange(big))
        alphas = np.array([0.0, 0.4 - 0.9j, -1.3 + 0.2j, 2.1j, -2.5 - 2.4j, 3.5])
        expect = []
        for al in alphas:
            d = expm(al * a.conj().T - np.conj(al) * a)
            expect.append(2 / np.pi * np.trace(d.conj().T @ padded @ d @ parity).real)
        assert np.allclose(wigner(DensityMatrix(rho, ModeDims((n,))), alphas), expect,
                           rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 16, 30])
    def test_matches_scipy_laguerre_sum(self, n):
        from scipy.special import eval_genlaguerre, gammaln

        rng = np.random.default_rng(n)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        axis = np.linspace(-3.0, 3.0, 17)
        alphas = axis[:, None] + 1j * axis[None, :]
        x = 4.0 * np.abs(alphas) ** 2
        total = np.zeros(alphas.shape)
        for d in range(n):
            m = np.arange(n - d)
            sqrt_ratio = np.exp(0.5 * (gammaln(m + 1) - gammaln(m + d + 1)))
            coef = rho[m, m + d] * (-1.0) ** m * sqrt_ratio
            lag = eval_genlaguerre(m[:, None, None], d, x)
            total += (1.0 if d == 0 else 2.0) * (
                np.tensordot(coef, lag, axes=1) * (2.0 * alphas) ** d
            ).real
        expect = (2.0 / np.pi) * np.exp(-0.5 * x) * total
        assert np.allclose(wigner(DensityMatrix(rho, ModeDims((n,))), alphas), expect,
                           rtol=0, atol=1e-12)


class TestParitySplit:
    def test_even_codeword(self):
        rho = pure_density(binomial_code_state("0L", 6))
        p_even, rho_even, rho_odd = parity_split(rho)
        assert p_even == pytest.approx(1.0)
        assert rho_odd is None
        # the fidelity to a pure state is Tr(rho_even rho)
        assert np.trace(rho_even.elements @ rho.elements).real == pytest.approx(1.0)

    def test_balanced_mixture(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]).astype(complex)
        p_even, rho_even, rho_odd = parity_split(DensityMatrix(m, ModeDims((6,))))
        assert p_even == pytest.approx(0.5)
        assert np.real(rho_even.elements[0, 0]) == pytest.approx(1.0)
        assert np.real(rho_odd.elements[1, 1]) == pytest.approx(1.0)

    def test_multi_mode_selects_mode(self):
        dims = ModeDims((3, 3))
        rho = pure_density(fock_state(dims, (1, 2)))
        p_even, _, odd = parity_split(rho, mode=0)
        assert p_even == pytest.approx(0.0, abs=1e-12)
        assert odd is not None


class TestPauliTable:
    def test_noon_style_state(self):
        dims = ModeDims((3, 3))
        v = np.zeros(9, dtype=complex)
        v[dims.flat_index((0, 2))] = 1 / np.sqrt(2)
        v[dims.flat_index((2, 0))] = 1j / np.sqrt(2)
        pair, weight = qubit_pair_02(StateVector(v, dims))
        assert isinstance(pair, DensityMatrix) and pair.dims == ModeDims((2, 2))
        assert weight == pytest.approx(1.0)
        table = pauli_table_02(pair)
        assert table["XY"] == pytest.approx(-1.0)
        assert table["YX"] == pytest.approx(1.0)
        assert table["ZZ"] == pytest.approx(-1.0)
        assert table["XX"] == pytest.approx(0.0, abs=1e-12)
        assert len(table) == len(PAULI_PAIRS) == 15

    def test_matches_the_kron_products_exactly(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        pair = DensityMatrix(rho / np.trace(rho).real, ModeDims((2, 2)))
        pauli = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
                 "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
        expect = {p: float(np.real(np.trace(pair.elements @ np.kron(
            *(np.asarray(pauli[q], dtype=complex) for q in p))))) for p in PAULI_PAIRS}
        assert pauli_table_02(pair) == expect
        assert pauli_table_02(pair) == expect  # the products formed once are not changed

    def test_zero_weight_rejected(self):
        dims = ModeDims((3, 3))
        with pytest.raises(InvalidOperatorError):
            qubit_pair_02(fock_state(dims, (1, 1)))

    def test_needs_three_levels(self):
        with pytest.raises(DimensionError):
            qubit_pair_02(DensityMatrix(np.eye(4) / 4.0, ModeDims((2, 2))))

    def test_table_needs_a_qubit_pair(self):
        with pytest.raises(DimensionError):
            pauli_table_02(DensityMatrix(np.eye(9) / 9.0, ModeDims((3, 3))))


_ONE = binomial_code_state("0L", 6)
_TWO = StateVector(np.eye(3).ravel() / np.sqrt(3), ModeDims((3, 3)))
_THREE = fock_state(ModeDims((3, 3, 2)), (2, 0, 1))
_QUBITS = DensityMatrix(np.eye(4) / 4.0, ModeDims((2, 2)))


def _trajectory(state):
    """Two copies of `state` as a trajectory of the same type."""
    if isinstance(state, StateVector):
        return StateVector(np.stack([state.amplitudes] * 2), state.dims)
    return DensityMatrix(np.stack([state.elements] * 2), state.dims)


_ORIGIN = np.array([0j])


@pytest.mark.parametrize(
    "call",
    [
        lambda: wigner(_ONE.amplitudes, _ORIGIN),
        lambda: wigner(pure_density(_ONE).elements, _ORIGIN),
        lambda: optimize_mode_phase(_ONE.amplitudes, _ONE),
        lambda: optimize_mode_phase(_ONE, pure_density(_ONE).elements),
        lambda: parity_split(pure_density(_ONE).elements),
        lambda: negativity(pure_density(_TWO).elements),
        lambda: qubit_pair_02(_TWO.amplitudes),
        lambda: pauli_table_02(_QUBITS.elements),
        lambda: wigner(_trajectory(_ONE), _ORIGIN),
        lambda: wigner(_trajectory(pure_density(_ONE)), _ORIGIN),
        lambda: optimize_mode_phase(_trajectory(_ONE), _ONE),
        lambda: optimize_mode_phase(_ONE, _trajectory(_ONE)),
        lambda: parity_split(_trajectory(_ONE)),
        lambda: negativity(_trajectory(_TWO)),
        lambda: qubit_pair_02(_trajectory(pure_density(_TWO))),
        lambda: pauli_table_02(_trajectory(_QUBITS)),
    ],
    ids=[
        "wigner-vector", "wigner-matrix", "phase-state", "phase-target", "parity",
        "negativity", "qubit-pair", "pauli", "wigner-trajectory", "wigner-density-trajectory",
        "phase-state-trajectory", "phase-target-trajectory", "parity-trajectory",
        "negativity-trajectory", "qubit-pair-trajectory", "pauli-trajectory",
    ],
)
def test_metrics_refuse_bare_arrays_and_trajectories(call):
    with pytest.raises(InvalidParameterError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: wigner(_TWO, _ORIGIN),
        lambda: wigner(_THREE, _ORIGIN),
        lambda: negativity(_ONE),
        lambda: negativity(_THREE),
        lambda: qubit_pair_02(_ONE),
        lambda: qubit_pair_02(_THREE),
        lambda: pauli_table_02(_TWO),
        lambda: pauli_table_02(_ONE),
    ],
    ids=[
        "wigner-two-modes", "wigner-three-modes", "negativity-one-mode",
        "negativity-three-modes", "qubit-pair-one-mode", "qubit-pair-three-modes",
        "pauli-on-3x3", "pauli-one-mode",
    ],
)
def test_metrics_refuse_a_wrong_mode_count(call):
    with pytest.raises(DimensionError):
        call()
