from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exfree.errors import (
    DimensionError,
    InvalidOperatorError,
    InvalidParameterError,
    TruncationError,
)
from exfree.fock import (
    DensityMatrix,
    ModeDims,
    OperatorMatrix,
    StateVector,
    annihilation_op,
    binomial_code_state,
    creation_op,
    embed_op,
    fock_state,
    identity_op,
    mode_populations,
    number_op,
    partial_trace,
    product_state,
)

DIMS = ModeDims((6, 5, 6))


class TestModeDims:
    def test_total_and_len(self):
        assert DIMS.total == 180
        assert len(DIMS) == 3
        assert tuple(DIMS) == (6, 5, 6)

    def test_flat_index_row_major(self):
        # last mode varies fastest
        assert DIMS.flat_index((0, 0, 0)) == 0
        assert DIMS.flat_index((0, 0, 1)) == 1
        assert DIMS.flat_index((0, 1, 0)) == 6
        assert DIMS.flat_index((1, 0, 0)) == 30

    def test_grown(self):
        assert tuple(DIMS.grown(2)) == (8, 7, 8)

    @pytest.mark.parametrize("bad", [(), (1,), (0, 3), (3, -1), (6.7, 5, 6)])
    def test_rejects_degenerate(self, bad):
        with pytest.raises((DimensionError, InvalidParameterError)):
            ModeDims(bad)

    def test_accepts_whole_numbers(self):
        dims = ModeDims((6.0, np.int64(5), 6)).dims
        assert dims == (6, 5, 6) and all(type(n) is int for n in dims)

    @given(
        st.tuples(
            st.integers(2, 7), st.integers(2, 7), st.integers(2, 7)
        ),
        st.data(),
    )
    def test_flat_index_roundtrip(self, dims, data):
        md = ModeDims(dims)
        occ = tuple(data.draw(st.integers(0, n - 1)) for n in dims)
        idx = md.flat_index(occ)
        assert idx == np.ravel_multi_index(occ, dims)
        assert 0 <= idx < md.total


class TestLadderOperators:
    def test_annihilation_elements(self):
        a = annihilation_op(4).elements
        expected = np.diag(np.sqrt([1.0, 2.0, 3.0]), k=1)
        assert np.allclose(a, expected)

    def test_commutator_truncated(self):
        n = 7
        a = annihilation_op(n).elements
        comm = a @ a.conj().T - a.conj().T @ a
        # canonical except in the top level, where truncation bites
        assert np.allclose(comm[: n - 1, : n - 1], np.eye(n - 1))
        assert comm[n - 1, n - 1] == pytest.approx(-(n - 1))

    def test_number_is_adag_a(self):
        n = 6
        ad = creation_op(n).elements
        assert np.allclose(number_op(n).elements, ad @ annihilation_op(n).elements)

    def test_embed_acts_on_one_mode(self):
        n_op = embed_op(number_op(5), 1, DIMS)
        psi = fock_state(DIMS, (2, 3, 1))
        out = n_op.elements @ psi.amplitudes
        assert np.allclose(out, 3.0 * psi.amplitudes)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_embed_equals_kron_with_identities(self, mode):
        # a dense non-Hermitian op on asymmetric dims exposes a wrong placement
        dims = ModeDims((2, 3, 4))
        n = dims[mode]
        rng = np.random.default_rng(5)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        expect = reduce(np.kron, [m if k == mode else np.eye(nk) for k, nk in enumerate(dims)])
        got = embed_op(OperatorMatrix(m, ModeDims((n,))), mode, dims)
        assert np.array_equal(got.elements, expect)

    def test_embedded_ops_on_distinct_modes_commute(self):
        a0 = embed_op(annihilation_op(6), 0, DIMS)
        a2 = embed_op(annihilation_op(6), 2, DIMS)
        assert np.allclose((a0 @ a2).elements, (a2 @ a0).elements)

    def test_identity(self):
        assert np.allclose(identity_op(DIMS).elements, np.eye(180))


class TestStates:
    def test_fock_state_is_basis_vector(self):
        psi = fock_state(DIMS, (1, 0, 0))
        assert psi.amplitudes[DIMS.flat_index((1, 0, 0))] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_fock_state_outside_truncation(self):
        with pytest.raises(TruncationError):
            fock_state(DIMS, (6, 0, 0))

    def test_norm_enforced(self):
        with pytest.raises(InvalidParameterError):
            StateVector(np.ones(180), DIMS)
        with pytest.raises(InvalidParameterError):
            StateVector(np.full(180, np.nan), DIMS)

    def test_product_state_matches_fock(self):
        factors = [np.eye(n)[k] for n, k in zip((6, 5, 6), (1, 0, 2))]
        assert (
            pytest.approx(1.0)
            == abs(product_state(DIMS, factors).overlap(fock_state(DIMS, (1, 0, 2)))) ** 2
        )

    def test_density_checks(self):
        rho = fock_state(DIMS, (0, 0, 0)).to_density()
        assert rho.min_eigenvalue() >= -1e-12
        with pytest.raises(InvalidParameterError):
            DensityMatrix(2.0 * np.eye(180, dtype=complex), DIMS)
        with pytest.raises(InvalidParameterError):
            DensityMatrix(np.full((180, 180), np.nan), DIMS)

    @pytest.mark.parametrize(
        "label,support",
        [("0L", (0, 4)), ("1L", (2,)), ("+iL", (0, 2, 4)), ("0E", (3,)), ("+iE", (1, 3))],
    )
    def test_binomial_code_support(self, label, support):
        psi = binomial_code_state(label, 6)
        assert set(np.nonzero(psi.amplitudes)[0]) == set(support)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)

    def test_binomial_orthogonality(self):
        z0 = binomial_code_state("0L", 6)
        z1 = binomial_code_state("1L", 6)
        assert abs(z0.overlap(z1)) < 1e-12

    def test_binomial_needs_five_levels(self):
        with pytest.raises(DimensionError):
            binomial_code_state("0L", 4)


class TestReductions:
    def test_mode_populations_fock(self):
        assert np.allclose(mode_populations(fock_state(DIMS, (2, 1, 3))), [2, 1, 3])

    def test_partial_trace_pure_product(self):
        psi = fock_state(DIMS, (1, 0, 2))
        r13 = partial_trace(psi, keep=[0, 2])
        expect = fock_state(ModeDims((6, 6)), (1, 2)).to_density().elements
        assert np.allclose(r13, expect)

    def test_partial_trace_entangled_is_mixed(self):
        v = np.zeros(180, dtype=complex)
        v[DIMS.flat_index((1, 0, 0))] = 1 / np.sqrt(2)
        v[DIMS.flat_index((0, 0, 1))] = 1 / np.sqrt(2)
        r1 = partial_trace(StateVector(v, DIMS), keep=[0])
        assert np.trace(r1).real == pytest.approx(1.0)
        assert np.trace(r1 @ r1).real == pytest.approx(0.5)

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_partial_trace_preserves_trace(self, seed):
        rng = np.random.default_rng(seed)
        dims = ModeDims((3, 2, 3))
        m = rng.normal(size=(18, 18)) + 1j * rng.normal(size=(18, 18))
        rho = m @ m.conj().T
        rho = DensityMatrix(rho / np.trace(rho), dims)
        v = rng.normal(size=18) + 1j * rng.normal(size=18)
        psi = StateVector(v / np.linalg.norm(v), dims)
        for keep in ([0], [1], [2], [0, 2], [0, 1]):
            red = partial_trace(rho, keep=keep)
            assert np.trace(red).real == pytest.approx(1.0)
            assert np.allclose(red, red.conj().T)
            # a pure state reduces from its amplitudes as its density matrix does
            pure = partial_trace(psi, keep=keep)
            assert np.abs(pure - partial_trace(psi.to_density(), keep=keep)).max() < 1e-12
