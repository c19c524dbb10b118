import copy
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exfree.dynamics import apply_jump
from exfree.errors import (
    DimensionError,
    InvalidOperatorError,
    InvalidParameterError,
    TruncationError,
)
from exfree.fock import (
    NORM_TOL,
    DensityMatrix,
    ModeDims,
    OperatorMatrix,
    StateVector,
    binomial_code_state,
    fock_probabilities,
    fock_state,
    ladder_op,
    ladder_sum,
    mode_populations,
    partial_trace,
    product_state,
)
from exfree.metrics import optimize_mode_phase, parity_split

DIMS = ModeDims((6, 5, 6))


def pure_density(psi: StateVector) -> DensityMatrix:
    """The density matrix |psi><psi| of a pure state."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.dims)


class TestModeDims:
    @pytest.mark.parametrize("occupations", [(1, 0), (1, 0, 0, 0), ()])
    def test_flat_index_needs_one_occupation_per_mode(self, occupations):
        with pytest.raises(DimensionError, match="^occupation list does not match mode count$"):
            DIMS.flat_index(occupations)

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


#: Single-mode matrices of the ladder factors on n levels.
SINGLE_MODE = {
    "a": lambda n: np.diag(np.sqrt(np.arange(1.0, n)), k=1),
    "adag": lambda n: np.diag(np.sqrt(np.arange(1.0, n)), k=-1),
    "n": lambda n: np.diag(np.arange(float(n))),
}


class TestLadderOperators:
    def test_annihilation_elements(self):
        a = ladder_op((4,), {0: "a"}).elements
        expected = np.diag(np.sqrt([1.0, 2.0, 3.0]), k=1)
        assert np.allclose(a, expected)

    def test_commutator_truncated(self):
        n = 7
        a = ladder_op((n,), {0: "a"}).elements
        comm = a @ a.conj().T - a.conj().T @ a
        # canonical except in the top level, where truncation bites
        assert np.allclose(comm[: n - 1, : n - 1], np.eye(n - 1))
        assert comm[n - 1, n - 1] == pytest.approx(-(n - 1))

    def test_number_is_adag_a(self):
        n = 6
        a, ad = (ladder_op((n,), {0: f}).elements for f in ("a", "adag"))
        assert np.array_equal(ad, a.conj().T)
        assert np.allclose(ladder_op((n,), {0: "n"}).elements, ad @ a)

    def test_embed_acts_on_one_mode(self):
        n_op = ladder_op(DIMS, {1: "n"})
        psi = fock_state(DIMS, (2, 3, 1))
        out = n_op.elements @ psi.amplitudes
        assert np.allclose(out, 3.0 * psi.amplitudes)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_embed_equals_kron_with_identities(self, mode):
        # asymmetric dims expose a wrong placement
        dims = ModeDims((2, 3, 4))
        for factor, single in SINGLE_MODE.items():
            expect = reduce(np.kron, [single(n) if k == mode else np.eye(n)
                                      for k, n in enumerate(dims)])
            assert np.array_equal(ladder_op(dims, {mode: factor}).elements, expect), factor

    def test_embedded_ops_on_distinct_modes_commute(self):
        # a product on two modes is the matrix product of the two factors,
        # in either order
        a0, a2 = ladder_op(DIMS, {0: "a"}).elements, ladder_op(DIMS, {2: "adag"}).elements
        both = ladder_op(DIMS, {0: "a", 2: "adag"}).elements
        assert np.allclose(both, a0 @ a2) and np.allclose(both, a2 @ a0)

    @pytest.mark.parametrize(
        "factors, error",
        [({0: "b"}, InvalidParameterError), ({0: "a", 1: "A"}, InvalidParameterError),
         ({3: "a"}, DimensionError), ({-1: "n"}, DimensionError)],
        ids=["unknown", "unknown-second", "mode-past-end", "negative-mode"],
    )
    def test_ladder_op_refuses(self, factors, error):
        with pytest.raises(error):
            ladder_op(DIMS, factors)

    def test_ladder_sum_adds_in_one_canonicalization(self):
        dims = ModeDims((2, 3, 4))
        a0, n2 = ladder_op(dims, {0: "a", 1: "adag"}).elements, ladder_op(dims, {2: "n"}).elements
        terms = [(0.5j, {0: "a", 1: "adag"}), (2.0, {2: "n"}), (-0.5j, {0: "a", 1: "adag"})]
        assert np.array_equal(ladder_sum(dims, terms).elements, 2.0 * n2)  # the first pair cancels
        assert np.array_equal(ladder_sum(dims, terms[:2]).elements, 0.5j * a0 + 2.0 * n2)
        empty = ladder_sum(dims, [])  # the sum of no terms is the zero operator
        assert empty.vals.size == 0 and not empty.elements.any()


def _sparse_complex(dims: ModeDims, rng, density=0.4) -> np.ndarray:
    """A random complex matrix on `dims` with about `density` of it nonzero."""
    shape = (dims.total,) * 2
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return m * (rng.random(shape) < density)


class TestOperatorMatrix:
    """The triplets and the Hermiticity check against the same operations on
    dense arrays."""

    dims = ModeDims((2, 3))

    @pytest.fixture()
    def pair(self):
        rng = np.random.default_rng(11)
        return _sparse_complex(self.dims, rng), _sparse_complex(self.dims, rng)

    def test_triplets_are_canonical_and_read_only(self, pair):
        m, _ = pair
        op = OperatorMatrix(m, self.dims)
        key = op.rows * self.dims.total + op.cols
        assert np.all(np.diff(key) > 0)
        assert np.all(op.vals != 0)
        assert op.vals.size == np.count_nonzero(m)
        for arr in (op.rows, op.cols, op.vals):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_duplicates_summed_and_zeros_dropped(self):
        rows, cols = [1, 0, 1, 0, 2], [0, 1, 0, 1, 2]
        op = OperatorMatrix((rows, cols, [3j, 1.0, 2.0, -1.0, 0.0]), self.dims)
        # (0, 1) cancels to zero and (2, 2) is zero: one entry is left
        assert op.rows.tolist() == [1] and op.cols.tolist() == [0]
        assert op.vals.tolist() == [2 + 3j]

    def test_is_hermitian(self, pair):
        m, _ = pair
        assert OperatorMatrix(m + m.conj().T, self.dims).is_hermitian()
        assert not OperatorMatrix(m, self.dims).is_hermitian()
        assert OperatorMatrix(np.zeros((6, 6)), self.dims).is_hermitian()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.05, 1.0))
    def test_is_hermitian_matches_the_dense_norm(self, seed, density):
        # asymmetric patterns with complex diagonals, their Hermitian parts
        # and those parts plus an anti-Hermitian defect of random size
        rng = np.random.default_rng(seed)
        m = _sparse_complex(self.dims, rng, density)
        h = 0.5 * (m + m.conj().T)
        defect = 10.0 ** rng.uniform(-14, -8) * (m - m.conj().T)
        for op in (m, h, h + defect):
            dense = np.linalg.norm(op - op.conj().T)
            for tol in (1e-12, 1e-10, 1e-8, 1.0, 10.0):
                assert OperatorMatrix(op, self.dims).is_hermitian(tol) == (dense < tol)

    @pytest.mark.parametrize("factor", [0.9, 1.1], ids=["below", "above"])
    @pytest.mark.parametrize("where", ["paired", "unpaired", "diagonal"])
    def test_is_hermitian_at_the_tolerance(self, where, factor):
        # a defect whose ||M - M^dag||_F is just below or just above tol
        tol = 1e-10
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = 0.5 * (m + m.conj().T)  # every entry nonzero, so every entry is paired
        if where == "unpaired":
            h[0, 1] = h[1, 0] = 0.0  # (0, 1) is then an entry without a mirror
        if where == "diagonal":
            h[2, 2] += 1j * factor * tol / 2.0  # the defect 2i Im h_22 sits on the diagonal
        else:
            h[0, 1] += factor * tol / np.sqrt(2.0)  # at (0, 1) and, conjugated, at (1, 0)
        assert np.linalg.norm(h - h.conj().T) == pytest.approx(factor * tol, rel=1e-4)
        assert OperatorMatrix(h, self.dims).is_hermitian(tol) == (factor < 1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda op: OperatorMatrix(np.zeros((5, 5)), op.dims),
            lambda op: OperatorMatrix(np.zeros(6), op.dims),
            lambda op: OperatorMatrix(([0], [6], [1.0]), op.dims),
        ],
        ids=["dense", "vector", "triplet-index"],
    )
    def test_wrong_shape_raises(self, pair, build):
        with pytest.raises(DimensionError):
            build(OperatorMatrix(pair[0], self.dims))


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
        factors = [fock_state((n,), (k,)) for n, k in zip((6, 5, 6), (1, 0, 2))]
        prod = product_state(factors)
        assert prod.dims == DIMS
        fock = fock_state(DIMS, (1, 0, 2)).amplitudes
        assert abs(np.vdot(prod.amplitudes, fock)) ** 2 == pytest.approx(1.0)

    def test_product_state_joins_multi_mode_factors(self):
        pair = fock_state((3, 2), (2, 1))
        prod = product_state([pair, binomial_code_state("1L", 5)])
        assert prod.dims == ModeDims((3, 2, 5))
        assert np.array_equal(prod.amplitudes, fock_state(prod.dims, (2, 1, 2)).amplitudes)

    @pytest.mark.parametrize(
        "factors",
        [[], [np.eye(6)[1]], [fock_state((6,), (1,)), np.eye(5)[0]],
         [StateVector(np.eye(6)[:2], ModeDims((6,)))]],
        ids=["empty", "bare-array", "one-bare-array", "trajectory"],
    )
    def test_product_state_takes_single_states(self, factors):
        with pytest.raises(InvalidParameterError):
            product_state(factors)

    def test_density_checks(self):
        rho = pure_density(fock_state(DIMS, (0, 0, 0)))
        assert np.linalg.eigvalsh(rho.elements)[0] >= -1e-12
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
        assert abs(np.vdot(z0.amplitudes, z1.amplitudes)) < 1e-12

    @pytest.mark.parametrize("label", ["2L", "1E", "0l", ""])
    def test_binomial_unknown_label(self, label):
        with pytest.raises(InvalidParameterError, match=re.escape(
                f"unknown code label {label!r}; use one of ('0L', '1L', '+iL', '0E', '+iE')")):
            binomial_code_state(label, 6)

    def test_binomial_needs_five_levels(self):
        with pytest.raises(DimensionError):
            binomial_code_state("0L", 4)


class TestTrajectoryValidation:
    """A (T, d) or (T, d, d) stack is checked per sample at single-state tolerances."""

    DIMS = ModeDims((3, 2, 3))

    def _rows(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(4, 18)) + 1j * rng.normal(size=(4, 18))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def _slices(self):
        v = self._rows()
        return np.einsum("ti,tj->tij", v, v.conj())

    def test_nan_in_one_sample(self):
        v = self._rows()
        v[2, 5] = np.nan
        with pytest.raises(InvalidParameterError):
            StateVector(v, self.DIMS)
        m = self._slices()
        m[1, 3, 3] = np.nan
        with pytest.raises(InvalidParameterError):
            DensityMatrix(m, self.DIMS)

    @pytest.mark.parametrize(
        "value, message",
        [(np.nan, "state has a non-finite entry"), (np.inf, "state has a non-finite entry"),
         (-np.inf, "state has a non-finite entry"),
         (complex(0.0, -np.inf), "state has a non-finite entry"),
         (1e200, "state norm inf deviates from 1")],
        ids=["nan", "inf", "minus-inf", "imaginary-inf", "square-overflows"],
    )
    def test_non_finite_entries(self, value, message):
        exact = f"^{re.escape(message)}$"
        v = self._rows()
        v[2, 5] = value
        with pytest.raises(InvalidParameterError, match=exact):
            StateVector(v, self.DIMS)
        with pytest.raises(InvalidParameterError, match=exact):
            StateVector(v[2], self.DIMS)
        if message.endswith("entry"):
            # the entry is named even when an earlier sample's norm is off
            v[0] *= 1.0 + 2.0 * NORM_TOL
            with pytest.raises(InvalidParameterError, match=exact):
                StateVector(v, self.DIMS)

    def test_one_row_norm_off(self):
        v = self._rows()
        v[3] *= 1.0 + 2.0 * NORM_TOL
        with pytest.raises(InvalidParameterError, match="norm"):
            StateVector(v, self.DIMS)

    def test_one_slice_not_hermitian(self):
        m = self._slices()
        m[2, 0, 1] += 1e-8
        with pytest.raises(InvalidParameterError, match="Hermitian"):
            DensityMatrix(m, self.DIMS)

    def test_one_slice_trace_off(self):
        m = self._slices()
        m[0] *= 1.0 + 1e-5
        with pytest.raises(InvalidParameterError, match="trace"):
            DensityMatrix(m, self.DIMS)

    def test_just_inside_tolerances_accepted(self):
        v = self._rows()
        v[1] *= 1.0 + 0.5 * NORM_TOL
        traj = StateVector(v, self.DIMS)
        assert np.array_equal(traj[1].amplitudes, v[1])
        m = self._slices()
        m[0] *= 1.0 + 0.5e-6  # trace defect 5e-7 < 1e-6
        m[3, 0, 1] += 0.5e-9  # Hermiticity defect 7e-10 < 1e-9
        traj = DensityMatrix(m, self.DIMS)
        assert np.array_equal(traj[3].elements, 0.5 * (m[3] + m[3].conj().T))

    def test_stores_the_hermitian_part_and_leaves_the_callers_array(self):
        m = self._slices()
        m[3, 0, 1] += 0.5e-9
        given = m.copy()
        rho = DensityMatrix(m, self.DIMS)
        assert np.array_equal(rho.elements, 0.5 * (m + m.conj().swapaxes(-2, -1)))
        assert np.array_equal(rho.elements, rho.elements.conj().swapaxes(-2, -1))
        assert not rho.elements.flags.writeable
        assert np.array_equal(m, given) and m.flags.writeable
        m[3, 0, 1] = 0.0  # the caller's array stays the caller's
        assert rho.elements[3, 0, 1] != 0.0
        real = np.eye(18) / 18  # a real array too is read, not written
        assert DensityMatrix(real, self.DIMS).elements.dtype == complex
        assert np.array_equal(real, np.eye(18) / 18)

    def test_checks_a_trajectory_without_full_size_scratch(self):
        # a (401, 180, 180) trajectory is 208 MB: its check may add the
        # stored Hermitian part and scratch of a few samples, no more
        d = DIMS.total
        m = np.zeros((401, d, d), dtype=complex)
        m[:, np.arange(d), np.arange(d)] = 1.0 / d
        m[:, 0, 1], m[:, 1, 0] = 0.1j, -0.1j
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            rho = DensityMatrix(m, DIMS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(rho.elements, m)
        assert peak < m.nbytes + 8 * m[0].nbytes

    def test_wrong_state_shape(self):
        with pytest.raises(DimensionError):
            StateVector(self._rows()[:, :17], self.DIMS)
        with pytest.raises(DimensionError):
            DensityMatrix(self._slices()[None], self.DIMS)
        with pytest.raises(TypeError):
            StateVector(self._rows()[0], self.DIMS)[0]



class TestSupportLayout:
    @pytest.mark.parametrize("kind", [StateVector, DensityMatrix])
    @pytest.mark.parametrize("shape", [(3,), (1,), (2, 3), (2, 1, 2)])
    def test_values_must_fit_their_support(self, kind, shape):
        name = "state" if kind is StateVector else "density matrix"
        with pytest.raises(DimensionError, match=re.escape(
                f"{name} values shape {shape} inconsistent with its support")):
            kind._on_support(np.array([0, 7]), np.ones(shape, dtype=complex), ModeDims((2, 4)))

    def test_density_support_must_hold_each_mirror(self):
        # (0, 1) is held and (1, 0) is not
        with pytest.raises(DimensionError,
                           match="^density matrix support is not closed under transposition$"):
            DensityMatrix._on_support(np.array([0, 1, 3]), np.array([0.5, 0.1, 0.5 + 0j]),
                                      ModeDims((2,)))

    """A StateVector holds the sorted indices that are nonzero in some
    sample and its values there; the dense amplitudes are a copy."""

    DIMS = ModeDims((3, 2, 3))

    def test_dense_round_trip(self):
        v = np.zeros((3, 18), dtype=complex)
        v[0, [2, 7]] = 0.6, 0.8j
        v[1, 11] = -1.0
        v[2, [7, 16]] = 0.8, 0.6
        given = v.copy()
        traj = StateVector(v, self.DIMS)
        assert np.array_equal(traj.support, [2, 7, 11, 16])
        assert np.array_equal(traj.values, v[:, [2, 7, 11, 16]])
        dense = traj.amplitudes
        assert np.array_equal(dense, v) and not dense.flags.writeable
        assert not traj.values.flags.writeable and not traj.support.flags.writeable
        assert np.array_equal(v, given) and v.flags.writeable  # the caller's array stays theirs
        one = StateVector(v[1], self.DIMS)
        assert np.array_equal(one.support, [11]) and np.array_equal(one.values, [-1.0])
        assert np.array_equal(one.amplitudes, v[1])
        # a sample keeps the trajectory's support, zeros and all
        assert traj[1].support is traj.support
        assert np.array_equal(traj[1].values, [0, 0, -1, 0])
        assert np.array_equal(traj[1:].amplitudes, v[1:])

    def test_populations_match_the_dense_formulas(self):
        psi = StateVector(self._rows(), self.DIMS)
        probs = (np.abs(psi.amplitudes) ** 2).reshape((-1, *self.DIMS))
        pops = [np.moveaxis(probs, k + 1, -1).sum(axis=(1, 2)) @ np.arange(n)
                for k, n in enumerate(self.DIMS)]
        assert psi.support.size == 18
        assert np.array_equal(fock_probabilities(psi), probs)
        assert np.abs(mode_populations(psi) - np.stack(pops, axis=-1)).max() < 1e-15
        assert np.abs(mode_populations(psi[0]) - np.stack(pops, axis=-1)[0]).max() < 1e-15

    @staticmethod
    def _rows():
        rng = np.random.default_rng(5)
        v = rng.normal(size=(4, 18)) + 1j * rng.normal(size=(4, 18))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

class TestHeldDensity:
    """A DensityMatrix holds the sorted flat indices i*d + j that are
    nonzero in some sample, with their mirrors j*d + i, and the Hermitian
    part there; the dense elements are a copy."""

    DIMS = ModeDims((3, 2, 3))

    def _trajectory(self):
        m = np.zeros((3, 18, 18), dtype=complex)
        m[0, [2, 7], [2, 7]] = 0.5
        m[0, 2, 7], m[0, 7, 2] = 0.25j, -0.25j
        m[1, 11, 11] = 1.0
        m[2, [2, 16], [2, 16]] = 0.25, 0.75
        return m

    def test_dense_round_trip(self):
        m = self._trajectory()
        given = m.copy()
        traj = DensityMatrix(m, self.DIMS)
        held = [2 * 18 + 2, 2 * 18 + 7, 7 * 18 + 2, 7 * 18 + 7, 11 * 18 + 11, 16 * 18 + 16]
        assert np.array_equal(traj.support, held)
        assert np.array_equal(traj.values, m.reshape(3, -1)[:, held])
        dense = traj.elements
        assert np.array_equal(dense, m) and not dense.flags.writeable
        assert not traj.values.flags.writeable and not traj.support.flags.writeable
        assert np.array_equal(m, given) and m.flags.writeable  # the caller's array stays theirs
        one = DensityMatrix(m[1], self.DIMS)
        assert np.array_equal(one.support, [11 * 18 + 11]) and np.array_equal(one.values, [1.0])
        assert np.array_equal(one.elements, m[1])

    def test_an_entry_is_held_with_its_zero_mirror(self):
        m = np.eye(18, dtype=complex) / 18
        m[0, 1] = 1e-11  # within the Hermiticity tolerance; m[1, 0] is zero
        rho = DensityMatrix(m, self.DIMS)
        assert {1, 18} <= set(rho.support.tolist())
        assert rho.elements[0, 1] == rho.elements[1, 0] == 0.5e-11
        assert np.array_equal(rho.elements, 0.5 * (m + m.conj().T))

    @pytest.mark.parametrize(
        "defect, message",
        [("nan", "density matrix has a non-finite entry"),
         ("skew", "density matrix is not Hermitian"),
         ("trace", "density matrix trace 2.0 deviates from 1")],
    )
    def test_only_the_last_sample_bad(self, defect, message):
        m = self._trajectory()
        if defect == "nan":
            m[2, 2, 2] = np.nan
        elif defect == "skew":
            m[2, 2, 16] = 1e-3
        else:
            m[2, 16, 16] = 1.75
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            DensityMatrix(m, self.DIMS)
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            DensityMatrix(m[2], self.DIMS)

    def test_the_first_bad_sample_names_its_first_failed_check(self):
        m = self._trajectory()
        m[1, 11, 11] = 1.5  # its trace is off
        m[2, 2, 2] = np.nan  # non-finite, but later
        with pytest.raises(InvalidParameterError, match="^density matrix trace 1.5 deviates"):
            DensityMatrix(m, self.DIMS)

    def test_a_sample_shares_the_trajectory_support(self):
        traj = DensityMatrix(self._trajectory(), self.DIMS)
        for k in range(3):
            assert traj[k].support is traj.support
            assert np.array_equal(traj[k].elements, self._trajectory()[k])
        assert np.array_equal(traj[1:].values, traj.values[1:])
        with pytest.raises(TypeError):
            traj[0][0]

    def test_deepcopy_keeps_the_state(self):
        for state in (DensityMatrix(self._trajectory(), self.DIMS),
                      DensityMatrix(self._trajectory()[0], self.DIMS)):
            copied = copy.deepcopy(state)
            assert type(copied) is DensityMatrix and copied.dims == state.dims
            assert np.array_equal(copied.support, state.support)
            assert np.array_equal(copied.elements, state.elements)

    def test_only_a_pure_state_has_amplitudes(self):
        # the two state types are told apart by this attribute
        rho = DensityMatrix(self._trajectory()[1], self.DIMS)
        psi = fock_state(self.DIMS, (1, 0, 2))
        assert not hasattr(rho, "amplitudes") and hasattr(psi, "amplitudes")
        assert not hasattr(psi, "elements")

    def test_populations_read_the_held_diagonal(self):
        m = self._trajectory()
        traj = DensityMatrix(m, self.DIMS)
        probs = np.diagonal(m, axis1=-2, axis2=-1).real.reshape((-1, *self.DIMS))
        pops = [np.moveaxis(probs, k + 1, -1).sum(axis=(1, 2)) @ np.arange(n)
                for k, n in enumerate(self.DIMS)]
        assert np.array_equal(fock_probabilities(traj), probs)
        assert np.abs(mode_populations(traj) - np.stack(pops, axis=-1)).max() < 1e-15


class TestReductions:
    def test_mode_populations_fock(self):
        assert np.allclose(mode_populations(fock_state(DIMS, (2, 1, 3))), [2, 1, 3])

    def test_partial_trace_pure_product(self):
        psi = fock_state(DIMS, (1, 0, 2))
        r13 = partial_trace(psi, keep=[0, 2])
        assert isinstance(r13, DensityMatrix) and r13.dims == ModeDims((6, 6))
        expect = pure_density(fock_state(ModeDims((6, 6)), (1, 2))).elements
        assert np.allclose(r13.elements, expect)

    def test_partial_trace_entangled_is_mixed(self):
        v = np.zeros(180, dtype=complex)
        v[DIMS.flat_index((1, 0, 0))] = 1 / np.sqrt(2)
        v[DIMS.flat_index((0, 0, 1))] = 1 / np.sqrt(2)
        r1 = partial_trace(StateVector(v, DIMS), keep=[0]).elements
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
            assert red.dims == ModeDims(dims[k] for k in keep)
            assert np.trace(red.elements).real == pytest.approx(1.0)
            assert np.allclose(red.elements, red.elements.conj().T)
            # a pure state reduces from its amplitudes as its density matrix does
            pure = partial_trace(psi, keep=keep)
            assert pure.dims == red.dims
            mixed = partial_trace(pure_density(psi), keep=keep)
            assert np.abs(pure.elements - mixed.elements).max() < 1e-12


_PSI = StateVector(np.full(18, 1 / np.sqrt(18)), ModeDims((3, 2, 3)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: partial_trace(_PSI, keep=[0, 0]),
        lambda: partial_trace(_PSI, keep=[-1]),
        lambda: partial_trace(_PSI, keep=[5]),
        lambda: partial_trace(_PSI, keep=[]),
        lambda: optimize_mode_phase(
            binomial_code_state("0L", 6), StateVector(np.full(5, 1 / np.sqrt(5)), ModeDims((5,)))
        ),
        lambda: optimize_mode_phase(_PSI, _PSI, mode=4),
        lambda: parity_split(_PSI, mode=3),
        lambda: apply_jump(_PSI, 3),
    ],
    ids=[
        "trace-repeated", "trace-negative", "trace-too-large", "trace-empty", "phase-target-size",
        "phase-mode", "parity-mode", "jump-mode",
    ],
)
def test_bad_mode_arguments_raise_dimension_error(call):
    with pytest.raises(DimensionError):
        call()
