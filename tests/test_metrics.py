import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from exfree.errors import DimensionError, InvalidOperatorError, InvalidParameterError
from exfree.fock import DensityMatrix, ModeDims, StateVector, binomial_code_state, fock_state
from exfree.metrics import (
    IDEAL_CHOI,
    PAULI_PAIRS,
    ProcessMatrix,
    _best_phase,
    choi_from_channel,
    depolarizing_budget,
    negativity,
    optimize_mode_phase,
    parity_split,
    partial_transpose,
    pauli_table_02,
    process_fidelity,
    process_fidelity_qubit_subspace,
    process_matrix,
    state_fidelity,
    wigner,
)


def bell_pair():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


class TestStateFidelity:
    def test_pure_orthogonal(self):
        dims = ModeDims((4,))
        assert state_fidelity(fock_state(dims, (0,)), fock_state(dims, (1,))) == 0.0

    def test_pure_identical(self):
        psi = binomial_code_state("+iL", 6)
        assert state_fidelity(psi, psi) == pytest.approx(1.0)

    def test_pure_vs_mixed(self):
        dims = ModeDims((3,))
        rho = DensityMatrix(np.diag([0.7, 0.3, 0.0]).astype(complex), dims)
        assert state_fidelity(fock_state(dims, (0,)), rho) == pytest.approx(0.7)

    def test_mixed_mixed_uhlmann(self):
        dims = ModeDims((2,))
        a = DensityMatrix(np.diag([0.5, 0.5]).astype(complex), dims)
        b = DensityMatrix(np.diag([0.8, 0.2]).astype(complex), dims)
        expect = (np.sqrt(0.5 * 0.8) + np.sqrt(0.5 * 0.2)) ** 2
        assert state_fidelity(a, b) == pytest.approx(expect)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            state_fidelity(fock_state(ModeDims((3,)), (0,)), fock_state(ModeDims((4,)), (0,)))

    @settings(max_examples=20)
    @given(st.integers(0, 10_000))
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)

        def random_rho(d=4):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            r = m @ m.conj().T
            return r / np.trace(r)

        a, b = random_rho(), random_rho()
        f_ab = state_fidelity(a, b)
        f_ba = state_fidelity(b, a)
        assert f_ab == pytest.approx(f_ba, abs=1e-8)
        assert -1e-10 <= f_ab <= 1.0 + 1e-8


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

        fid, phi = optimize_mode_phase(rho, np.outer(psi, psi.conj()))
        grid = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        assert fid >= fourier_sum(grid).max() - 1e-12
        assert fourier_sum(phi) == pytest.approx(fid, abs=1e-12)
        assert -np.pi < phi <= np.pi


class TestProcessMatrix:
    def test_identity_channel(self):
        pm = choi_from_channel(lambda x: x)
        assert process_fidelity(pm) == pytest.approx(1.0)

    def test_fully_depolarizing_scores_quarter(self):
        pm = choi_from_channel(lambda x: np.trace(x) * np.eye(2) / 2.0)
        assert process_fidelity(pm) == pytest.approx(0.25)

    @pytest.mark.parametrize("p", [0.1, 0.4, 0.9])
    def test_partial_depolarizing(self, p):
        chan = lambda x: (1 - p) * x + p * np.trace(x) * np.eye(2) / 2.0
        assert process_fidelity(choi_from_channel(chan)) == pytest.approx(1 - 0.75 * p)

    def test_non_tp_rejected_unless_declared(self):
        lossy = lambda x: 0.5 * x
        with pytest.raises(InvalidOperatorError):
            choi_from_channel(lossy, require_tp=True)
        pm = choi_from_channel(lossy, require_tp=False)
        assert process_fidelity(pm) == pytest.approx(1.0)  # renormalized

    def test_choi_validation(self):
        with pytest.raises(InvalidOperatorError):
            ProcessMatrix(np.eye(4, dtype=complex))  # trace 4, not 1
        for build in (ProcessMatrix, process_matrix):
            with pytest.raises(InvalidOperatorError):
                build(np.full((4, 4), np.nan, dtype=complex))

    def test_phase_optimized_identity_with_phase(self):
        v = np.diag([1.0, np.exp(0.6j)])
        chan = lambda x: v @ x @ v.conj().T
        fid, phi = process_fidelity_qubit_subspace(choi_from_channel(chan))
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
            return np.real(np.einsum("ij,...ji->...", IDEAL_CHOI, rotated))

        fid, phi = process_fidelity_qubit_subspace(pm)
        grid = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        assert fid >= fid_at(grid).max() - 1e-12
        assert fid_at(phi) == pytest.approx(fid, abs=1e-12)
        assert -np.pi < phi <= np.pi

    def test_ideal_choi_is_projector(self):
        assert np.allclose(IDEAL_CHOI @ IDEAL_CHOI, IDEAL_CHOI)


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
        assert negativity(bell_pair(), (2, 2)) == pytest.approx(0.5)

    def test_separable_is_zero(self):
        rho = np.kron(np.diag([0.6, 0.4]), np.diag([0.3, 0.7])).astype(complex)
        assert negativity(rho, (2, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_partial_transpose_involution(self):
        rho = bell_pair()
        assert np.allclose(partial_transpose(partial_transpose(rho, (2, 2)), (2, 2)), rho)

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            negativity(bell_pair(), (2, 3))


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
        assert np.allclose(wigner(rho, alphas), expect, rtol=0, atol=1e-10)


class TestParitySplit:
    def test_even_codeword(self):
        rho = binomial_code_state("0L", 6).to_density()
        p_even, rho_even, rho_odd = parity_split(rho)
        assert p_even == pytest.approx(1.0)
        assert rho_odd is None
        assert state_fidelity(rho_even, rho) == pytest.approx(1.0)

    def test_balanced_mixture(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]).astype(complex)
        p_even, rho_even, rho_odd = parity_split(DensityMatrix(m, ModeDims((6,))))
        assert p_even == pytest.approx(0.5)
        assert np.real(rho_even.elements[0, 0]) == pytest.approx(1.0)
        assert np.real(rho_odd.elements[1, 1]) == pytest.approx(1.0)

    def test_multi_mode_selects_mode(self):
        dims = ModeDims((3, 3))
        rho = fock_state(dims, (1, 2)).to_density()
        p_even, _, odd = parity_split(rho, mode=0)
        assert p_even == pytest.approx(0.0, abs=1e-12)
        assert odd is not None


class TestPauliTable:
    def test_noon_style_state(self):
        dims = ModeDims((3, 3))
        v = np.zeros(9, dtype=complex)
        v[dims.flat_index((0, 2))] = 1 / np.sqrt(2)
        v[dims.flat_index((2, 0))] = 1j / np.sqrt(2)
        table = pauli_table_02(StateVector(v, dims))
        assert table["XY"] == pytest.approx(-1.0)
        assert table["YX"] == pytest.approx(1.0)
        assert table["ZZ"] == pytest.approx(-1.0)
        assert table["XX"] == pytest.approx(0.0, abs=1e-12)
        assert table.weight == pytest.approx(1.0)
        assert len(table.values) == len(PAULI_PAIRS) == 15

    def test_zero_weight_rejected(self):
        dims = ModeDims((3, 3))
        with pytest.raises(InvalidOperatorError):
            pauli_table_02(fock_state(dims, (1, 1)))

    def test_needs_three_levels(self):
        with pytest.raises(DimensionError):
            pauli_table_02(np.eye(4) / 4.0, (2, 2))

    def test_dims_must_match_matrix(self):
        with pytest.raises(DimensionError):
            pauli_table_02(np.eye(16) / 16.0, (3, 3))
