import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from exfree import dynamics
from exfree.analytic import mean_photon_numbers, tau_st
from exfree.dynamics import (
    METHODS,
    EvolutionSpec,
    _bessel_j,
    _ellipse,
    _lindblad_blocks,
    _occupied_sectors,
    _windows,
    apply_jump,
    evolve_lindblad,
    evolve_trotter,
    evolve_unitary,
    propagate_lindblad_matrix,
)
from exfree.errors import (
    ConvergenceError,
    ImpossibleOutcomeError,
    InvalidOperatorError,
    InvalidParameterError,
)
from exfree.experiments import transfer_choi
from exfree.fock import (
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
from exfree.model import (
    CAVITY_T1_US,
    SystemParams,
    build_h_bs_reference,
    build_h_detune,
    build_h_full,
    build_h_tms,
    collapse_operators,
)


#: Thermal populations of the cavities of the device characterization table,
#: in mode order (S1, S2, S3), which no runner attaches.
CAVITY_N_TH = (0.03, 0.02, 0.025)


def pure_density(psi: StateVector) -> DensityMatrix:
    """The density matrix |psi><psi| of a pure state."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.dims)


@pytest.fixture()
def params():
    return SystemParams.from_khz(80, 80, 475)


class TestEvolutionSpec:
    def test_rejects_unknown_method(self):
        with pytest.raises(InvalidParameterError):
            EvolutionSpec(total_time=1.0, method="magic")

    def test_trotter_needs_dt(self):
        with pytest.raises(InvalidParameterError):
            EvolutionSpec(total_time=1.0, method="trotter")

    def test_sample_times_must_fit_window(self):
        with pytest.raises(InvalidParameterError):
            EvolutionSpec(total_time=1.0, sample_times=(0.5, 2.0))
        with pytest.raises(InvalidParameterError):
            EvolutionSpec(total_time=1.0, sample_times=(0.8, 0.2))

    @pytest.mark.parametrize("method", METHODS)
    def test_sample_times_strictly_increasing(self, method):
        dt = 0.5 if method == "trotter" else None
        with pytest.raises(InvalidParameterError):
            EvolutionSpec(
                total_time=2.0, method=method, trotter_dt=dt, sample_times=(0.0, 1.0, 1.0, 2.0)
            )

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "sample_times",
        [(-1e-13, 0.5, 1.0), (0.0, np.nan), (0.0, np.inf)],
        ids=["slightly-negative", "nan", "inf"],
    )
    def test_sample_times_finite_and_nonnegative(self, method, sample_times):
        # one contract: every method refuses the same spec
        dt = 0.5 if method == "trotter" else None
        with pytest.raises(InvalidParameterError):
            EvolutionSpec(total_time=2.0, method=method, trotter_dt=dt, sample_times=sample_times)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_time": np.nan},
            {"total_time": np.inf},
            {"rtol": np.nan},
            {"rtol": np.inf},
            {"method": "trotter", "trotter_dt": np.nan},
            {"method": "trotter", "trotter_dt": np.inf},
        ],
        ids=["total-nan", "total-inf", "rtol-nan", "rtol-inf", "dt-nan", "dt-inf"],
    )
    def test_rejects_non_finite_controls(self, kwargs):
        with pytest.raises(InvalidParameterError):
            EvolutionSpec(**{"total_time": 1.0, **kwargs})


@pytest.mark.parametrize(
    "times", [5.0, [[0.0, 1.0]], [0.0, -1e-13], [0.0, 1.0, 1.0], [0.0, np.nan], [np.inf]],
    ids=["scalar", "2-d", "negative", "repeated", "nan", "inf"],
)
def test_every_propagator_refuses_the_same_times(params, times):
    H = build_h_full(params)
    psi = fock_state(params.dims, (1, 0, 0))
    for run in (
        lambda: evolve_unitary(H, psi, times),
        lambda: evolve_trotter(params, psi, times, 0.01),
        lambda: evolve_lindblad(H, [], pure_density(psi), times),
    ):
        with pytest.raises(InvalidParameterError):
            run()


class TestUnitary:
    def test_norm_preserved(self, params):
        psi = fock_state(params.dims, (1, 0, 0))
        (out,) = evolve_unitary(build_h_full(params), psi, (5.0,))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0)

    def test_zero_time_is_identity(self, params):
        psi = fock_state(params.dims, (1, 0, 0))
        (out,) = evolve_unitary(build_h_full(params), psi, (0.0,))
        assert abs(np.vdot(psi.amplitudes, out.amplitudes)) == pytest.approx(1.0)

    def test_propagator_composes(self, params):
        H = build_h_full(params)
        psi = fock_state(params.dims, (1, 0, 0))
        traj = evolve_unitary(H, psi, (2.0, 5.0))
        assert isinstance(traj, StateVector) and traj.amplitudes.shape == (2, params.dims.total)
        half, both = traj[0], traj[1]
        one = evolve_unitary(H, half, (3.0,))[0]
        assert abs(np.vdot(one.amplitudes, both.amplitudes)) == pytest.approx(1.0, abs=1e-12)

    def test_start_must_be_a_single_state(self, params):
        H = build_h_full(params)
        traj = evolve_unitary(H, fock_state(params.dims, (1, 0, 0)), (0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            evolve_unitary(H, traj, (1.0,))
        with pytest.raises(InvalidParameterError):
            evolve_trotter(params, traj, [0.1], 0.1)
        rhos = evolve_lindblad(H, [], pure_density(traj[0]), (0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            evolve_lindblad(H, [], rhos, (1.0,))

    def test_times_must_be_a_sequence(self, params):
        with pytest.raises(InvalidParameterError):
            evolve_unitary(build_h_full(params), fock_state(params.dims, (1, 0, 0)), 5.0)

    def test_requires_hermitian(self, params):
        m = np.zeros((180, 180), dtype=complex)
        m[0, 1] = 1.0
        psi = fock_state(params.dims, (1, 0, 0))
        with pytest.raises(InvalidOperatorError):
            evolve_unitary(OperatorMatrix(m, params.dims), psi, (1.0,))

    def test_matches_analytic_oracle_at_converged_dims(self):
        # delta/2pi = 675 kHz needs (10, 9, 10) for 1e-4-level agreement
        p = SystemParams.from_khz(80, 80, 675, dims=(10, 9, 10))
        psi = fock_state(p.dims, (1, 0, 0))
        times = np.linspace(0.0, 2.0 * tau_st(p), 40)
        pops = mode_populations(evolve_unitary(build_h_full(p), psi, times))
        expect = np.array([mean_photon_numbers(p, t) for t in times])
        assert pops.shape == (40, 3)
        assert np.max(np.abs(pops - expect)) < 1e-4

    @pytest.mark.parametrize(
        "hamiltonian",
        [
            build_h_full,
            build_h_bs_reference,
            lambda p: build_h_tms(p, "S3S2"),
            lambda p: _random_hermitian(p.dims, np.random.default_rng(7)),
        ],
        ids=["full-asymmetric", "bs-reference", "tms-factor", "dense-random"],
    )
    def test_blockwise_matches_dense_expm(self, hamiltonian):
        # g1 != g2; the random H has no zero entry, so it is a single block
        p = SystemParams.from_khz(80, 60, 475)
        H = hamiltonian(p)
        rng = np.random.default_rng(11)
        vec = rng.normal(size=p.dims.total) + 1j * rng.normal(size=p.dims.total)
        psi = StateVector(vec / np.linalg.norm(vec), p.dims)
        times = (0.0, 0.7, 13.0)
        traj = evolve_unitary(H, psi, times)
        ref = [expm(-1j * H.elements * t) @ psi.amplitudes for t in times]
        assert np.max(np.abs(traj.amplitudes - ref)) < 1e-10

    @pytest.mark.parametrize(
        "occupations",
        [
            [(1, 0, 0)],
            [(1, 0, 0), (0, 1, 2)],
            [(1, 0, 0), (0, 0, 0), (0, 3, 1)],
            [(0, 4, 0), (5, 0, 0), (2, 2, 2), (1, 1, 1)],
        ],
        ids=["fock", "one-sector", "three-sectors", "four-sectors"],
    )
    def test_diagonalizes_only_occupied_sectors(self, params, occupations, monkeypatch):
        # one eigh per distinct charge Q = n2 - n1 - n3 of the start, not per
        # sector of H (15 at (6, 5, 6))
        vec = np.zeros(params.dims.total, dtype=complex)
        for occ in occupations:
            vec[params.dims.flat_index(occ)] = 1.0
        psi = StateVector(vec / np.linalg.norm(vec), params.dims)
        H = build_h_full(params)
        calls = _count_eigh(monkeypatch)
        evolve_unitary(H, psi, (1.0, 2.0))
        assert len(calls) == len({n2 - n1 - n3 for n1, n2, n3 in occupations})

    def test_exact_transfer_choi_diagonalizes_two_sectors(self, params, monkeypatch):
        # the inputs |000> and |100> occupy the sectors Q = 0 and Q = -1
        calls = _count_eigh(monkeypatch)
        transfer_choi(params, EvolutionSpec(total_time=tau_st(params)))
        assert len(calls) == 2


def _count_eigh(monkeypatch) -> list[int]:
    """Record the matrix size of every later `np.linalg.eigh` call."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def _random_hermitian(dims, rng):
    m = rng.normal(size=(dims.total,) * 2) + 1j * rng.normal(size=(dims.total,) * 2)
    return OperatorMatrix(0.5 * (m + m.conj().T), dims)


class TestSparseCore:
    def test_no_full_space_matrix_at_16_levels(self):
        # a dense H at (16, 16, 16) alone is 4096**2 complex entries, 268 MB
        p = SystemParams.from_khz(80, 80, 475, dims=(16, 16, 16))
        psi = fock_state(p.dims, (1, 0, 0))
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            H = build_h_full(p)
            evolve_unitary(H, psi, (0.5, 1.0, 2.0))
            evolve_trotter(p, psi, [0.01], 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_exact_channel_forms_no_full_space_matrix(self):
        # three d x d outer products at (12, 12, 12) alone are 143 MB
        p = SystemParams.from_khz(80, 80, 475, dims=(12, 12, 12))
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            transfer_choi(p, EvolutionSpec(total_time=tau_st(p)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6



def _charge(dims) -> np.ndarray:
    """The charge Q = n2 - n1 - n3 of the pair coupling at each flat index."""
    n1, n2, n3 = np.indices(tuple(dims)).reshape(3, -1)
    return n2 - n1 - n3


def _dense_populations(state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, populations) from the dense amplitudes: |a|^2 on the
    full grid, and each mode's level marginal times its occupations."""
    probs = (np.abs(state.amplitudes) ** 2).reshape((-1, *state.dims))
    pops = [np.moveaxis(probs, k + 1, -1).sum(axis=(1, 2)) @ np.arange(n)
            for k, n in enumerate(state.dims)]
    return probs, np.stack(pops, axis=-1)


class TestHeldTrajectory:
    """A pure trajectory is held on the sectors its start occupies."""

    def test_values_span_the_occupied_sector_only(self):
        # one (T, d) complex array here is 200 * 1728 * 16 bytes = 5.5 MB
        p = SystemParams.from_khz(80, 80, 475, dims=(12, 12, 12))
        H, psi = build_h_full(p), fock_state(p.dims, (1, 0, 0))
        times = np.linspace(0.0, 2.0 * tau_st(p), 200)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            traj = evolve_unitary(H, psi, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sector = np.flatnonzero(_charge(p.dims) == -1)
        assert sector.size == 88
        assert np.array_equal(traj.support, sector)
        assert traj.values.shape == (200, 88) and not traj.values.flags.writeable
        assert peak < times.size * p.dims.total * 16

    def test_sample_shares_the_trajectory_support(self, params):
        traj = evolve_unitary(build_h_full(params), fock_state(params.dims, (1, 0, 0)), (0.0, 1.0))
        first = traj[0]
        assert first.support is traj.support
        assert np.array_equal(first.values, traj.values[0])
        assert np.array_equal(first.amplitudes, traj.amplitudes[0])
        assert np.array_equal(traj[-1:].values, traj.values[-1:])

    @pytest.mark.parametrize("run", ["binomial-two-sectors", "trotter", "exchange"])
    def test_populations_match_the_dense_formulas(self, run):
        p = SystemParams.from_khz(80, 80, 475, dims=(6, 5, 6))
        times = np.linspace(0.0, 2.0 * tau_st(p), 37)
        if run == "binomial-two-sectors":
            vac = [fock_state((n,), (0,)) for n in p.dims[1:]]
            psi = product_state([binomial_code_state("0L", p.dims[0]), *vac])
            traj = evolve_unitary(build_h_full(p), psi, times)
            expect = np.flatnonzero(np.isin(_charge(p.dims), (0, -4)))
        elif run == "trotter":
            psi = fock_state(p.dims, (1, 0, 0))
            traj = evolve_trotter(p, psi, times, 0.37 * tau_st(p) / 10)
            expect = np.flatnonzero(_charge(p.dims) == -1)
        else:  # the exchange baseline conserves the total photon number
            psi = fock_state(p.dims, (1, 0, 0))
            traj = evolve_unitary(build_h_bs_reference(p), psi, times)
            expect = np.flatnonzero(np.indices(p.dims.dims).sum(axis=0).ravel() == 1)
        assert np.array_equal(traj.support, expect)
        probs, pops = _dense_populations(traj)
        assert np.array_equal(fock_probabilities(traj), probs)
        assert np.abs(mode_populations(traj) - pops).max() < 1e-15
        assert np.abs(mode_populations(traj[-1]) - pops[-1]).max() < 1e-15

def _random_pattern(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A random symmetric edge list on n nodes; at least a third of the nodes
    have no edge, and some edges are self-loops or repeated."""
    rng = np.random.default_rng(seed)
    linked = rng.choice(n, size=max(1, 2 * n // 3), replace=False)
    rows, cols = rng.choice(linked, size=(2, n))
    return np.r_[rows, cols, linked[:2]], np.r_[cols, rows, linked[:2]]


def _kron_liouvillian(H: OperatorMatrix, collapse_ops) -> "scipy.sparse.csr_matrix":
    """The full d^2 x d^2 Lindblad generator on the row-major vectorized
    matrix, vec(A rho B) = (A kron B^T) vec rho: the reference for the
    assembled blocks."""
    from scipy import sparse

    d = H.dims.total
    h, *cs = [sparse.csr_matrix((op.vals, (op.rows, op.cols)), shape=(d, d))
              for op in (H, *collapse_ops)]
    eye = sparse.identity(d, dtype=complex, format="csr")
    out = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
    for c in cs:
        cdc = (c.conj().T @ c).tocsr()
        out = out + sparse.kron(c, c.conj()) - 0.5 * (
            sparse.kron(cdc, eye) + sparse.kron(eye, cdc.T)
        )
    return out.tocsr()


def _liouvillian_edges(p: SystemParams, collapse) -> tuple[np.ndarray, np.ndarray, int]:
    return (*_kron_liouvillian(build_h_full(p), collapse).nonzero(), p.dims.total ** 2)


def _sector_mixing(p: SystemParams) -> list[OperatorMatrix]:
    """a1 + i a2: changes Q = n2 - n1 - n3 by +1 or -1 and joins sectors."""
    rate = float(np.sqrt(1.0 / 20.0))
    return [ladder_sum(p.dims, [(rate, {0: "a"}), (1j * rate, {1: "a"})])]


LINDBLAD_P = SystemParams.from_khz(
    80, 60, 475, dims=(3, 2, 3), t1=(20.0, 15.0, 25.0), tphi=(30.0, None, 40.0),
    n_th=(0.05, 0.0, 0.1),
)


def _operator_edges(H: OperatorMatrix) -> tuple[np.ndarray, np.ndarray, int]:
    return H.rows, H.cols, H.dims.total


class TestSectorLabelling:
    """`_occupied_sectors` gives scipy's connected components: the same
    partition, in the same order by smallest member."""

    @pytest.mark.parametrize(
        "edges",
        [
            *[_random_pattern(seed, n) + (n,) for seed, n in enumerate((1, 2, 7, 40, 300))],
            (np.array([], dtype=int), np.array([], dtype=int), 5),
            *[_operator_edges(build_h_full(SystemParams.from_khz(80, 60, 475, dims=dims)))
              for dims in ((2, 2, 2), (3, 2, 3), (6, 5, 6), (5, 7, 4))],
            _operator_edges(build_h_bs_reference(SystemParams.from_khz(80, 60, 475))),
            _liouvillian_edges(LINDBLAD_P, collapse_operators(LINDBLAD_P)),
            _liouvillian_edges(LINDBLAD_P, _sector_mixing(LINDBLAD_P)),
        ],
        ids=[*(f"random-{n}" for n in (1, 2, 7, 40, 300)), "no-edges",
             *(f"h-full-{n}" for n in ("222", "323", "656", "574")), "h-bs",
             "liouvillian", "liouvillian-sector-mixing"],
    )
    def test_matches_csgraph(self, edges):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        rows, cols, n = edges
        graph = coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        count, labels = connected_components(graph, directed=False)
        (got,) = _occupied_sectors(edges, [np.ones(n)])
        assert len(got) == count
        for k, block in enumerate(got):
            assert np.array_equal(block, np.flatnonzero(labels == k))
        assert all(a[0] < b[0] for a, b in zip(got, got[1:]))

    def test_only_occupied_sectors_returned(self):
        # edges 0-1 and 3-4: the start on node 4 occupies {3, 4} only
        edges = (np.array([0, 3]), np.array([1, 4]), 5)
        ((block,),) = _occupied_sectors(edges, [np.eye(5)[4]])
        assert block.tolist() == [3, 4]


def _channel_starts(dims: ModeDims) -> list[np.ndarray]:
    """The two matrices of a Lindblad channel, u00 + i u11 and u01, and a
    start on every entry."""
    a, b = (fock_state(dims, occ).amplitudes for occ in ((0, 0, 0), (1, 0, 0)))
    return [np.outer(a, a) + 1j * np.outer(b, b), np.outer(a, b),
            np.ones((dims.total, dims.total))]


def _collapse_set(name: str, dims) -> tuple[SystemParams, list[OperatorMatrix]]:
    p = SystemParams.from_khz(
        80, 60, 373, dims=dims,
        t1=CAVITY_T1_US if name in ("t1", "thermal") else (None, None, None),
        n_th=CAVITY_N_TH if name == "thermal" else (0.0, 0.0, 0.0),
        tphi=(30.0, 40.0, 50.0) if name == "dephasing" else (None, None, None),
    )
    return p, _sector_mixing(p) if name == "sector-mixing" else collapse_operators(p)


class TestLindbladBlocks:
    """The occupied components of the generator, assembled without the
    d^2 x d^2 one, equal those of the kron reference: the same entries,
    labelled by csgraph, and the same generator on them."""

    @pytest.mark.parametrize("dims", [(5, 4, 5), (6, 5, 6)])
    @pytest.mark.parametrize("collapse", ["t1", "thermal", "dephasing", "sector-mixing"])
    def test_match_kron_reference(self, dims, collapse):
        from scipy.sparse.csgraph import connected_components

        p, c_ops = _collapse_set(collapse, dims)
        H = build_h_full(p)
        d = p.dims.total
        starts = _channel_starts(p.dims)
        blocks = list(_lindblad_blocks(H, c_ops, starts))
        gen = _kron_liouvillian(H, c_ops)
        _, labels = connected_components(gen != 0, directed=False)

        def components(keep):
            """The csgraph labels of a block and of its mirror image."""
            return {labels[keep[0]], labels[keep[0] % d * d + keep[0] // d]}

        covered = []
        for keep, block, _, _ in blocks:
            # the block and its mirror image are csgraph components
            for entries in (keep, keep % d * d + keep // d):
                assert np.array_equal(np.sort(entries), np.flatnonzero(labels == labels[entries[0]]))
            assert abs(block - gen[keep][:, keep]).max() <= 1e-15
            covered += components(keep)
        assert len(covered) == len(set(covered))  # no component is in two blocks
        for k, start in enumerate(starts):
            occupied = set(np.flatnonzero(np.bincount(labels, start.ravel() != 0)))
            owned = [components(keep) for keep, _, _, owners in blocks if k in owners]
            # every component the start occupies is in a block it owns, and
            # it owns no block whose pair it does not occupy
            assert occupied <= set().union(*owned) and all(c & occupied for c in owned)
        # the channel's two matrices occupy one component each, except that
        # without T1 nothing joins the sector pairs of |000> and |100>
        per_start = [sum(k in owners for *_, owners in blocks) for k in range(2)]
        assert per_start == ([2, 1] if collapse == "dephasing" else [1, 1])


class TestTrotter:
    def test_converges_to_exact(self, params):
        psi = fock_state(params.dims, (1, 0, 0))
        t = 4.0
        (exact,) = evolve_unitary(build_h_full(params), psi, (t,))
        errs = []
        for n in (400, 800):
            approx = evolve_trotter(params, psi, [t], t / n)[0]
            errs.append(np.linalg.norm(approx.amplitudes - exact.amplitudes))
        # first-order scheme: halving dt roughly halves the error
        assert 1.5 < errs[0] / errs[1] < 3.0

    def test_invalid_dt(self, params):
        psi = fock_state(params.dims, (1, 0, 0))
        for dt in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(InvalidParameterError):
                evolve_trotter(params, psi, [1.0], dt)

    def test_dt_longer_than_the_window_is_one_remainder_step(self, params):
        psi = fock_state(params.dims, (1, 0, 0))
        (out,) = evolve_trotter(params, psi, [1.0], 10.0)
        ref = _trotter_step(params, 1.0) @ psi.amplitudes
        assert np.max(np.abs(out.amplitudes - ref)) < 1e-10

    def test_unsorted_times(self, params):
        psi = fock_state(params.dims, (1, 0, 0))
        with pytest.raises(InvalidParameterError):
            evolve_trotter(params, psi, [1.0, 0.5], 0.1)

    def test_sample_off_the_step_grid_takes_a_remainder_step(self):
        # t = n dt + r: n whole steps, then one step of length r from the
        # grid state; the remainder is not carried into the next sample
        p = SystemParams.from_khz(80, 60, 475, dims=(4, 3, 4))
        dt = 0.05
        times = [0.0, 0.013, 0.05, 0.1234, 0.35, 0.3712]
        psi = fock_state(p.dims, (1, 0, 0))
        out = evolve_trotter(p, psi, times, dt)
        step = _trotter_step(p, dt)
        for k, t in enumerate(times):
            n = int(np.floor(t / dt))
            ref = _trotter_step(p, t - n * dt) @ np.linalg.matrix_power(step, n) @ psi.amplitudes
            assert np.max(np.abs(out[k].amplitudes - ref)) < 1e-10, t

    def test_first_order_on_an_off_grid_qst_window(self, params):
        # 401 samples over 2 tau_ST; almost none lies on either dt grid
        psi = fock_state(params.dims, (1, 0, 0))
        times = np.linspace(0.0, 2.0 * tau_st(params), 401)
        exact = evolve_unitary(build_h_full(params), psi, times).amplitudes
        errs = [
            np.abs(evolve_trotter(params, psi, times, dt).amplitudes - exact).max()
            for dt in (0.01, 0.001)
        ]
        assert 7.0 < errs[0] / errs[1] < 13.0, errs

    def test_trajectory_matches_per_sample_evolution(self):
        # non-uniform samples, t = 0 included; each reference steps from t = 0
        p = SystemParams.from_khz(80, 60, 475)
        dt = 0.05
        times = dt * np.array([0, 1, 7, 8, 30, 101])
        psi = fock_state(p.dims, (1, 0, 0))
        step = _trotter_step(p, dt)
        out = evolve_trotter(p, psi, times, dt)
        assert isinstance(out, StateVector) and out.amplitudes.shape == (len(times), p.dims.total)
        for k, t in enumerate(times):
            ref = np.linalg.matrix_power(step, int(round(t / dt))) @ psi.amplitudes
            ref /= np.linalg.norm(ref)
            assert np.max(np.abs(out[k].amplitudes - ref)) < 1e-10


def _trotter_step(p, s):
    """One first-order step of length s, in the library's factor order."""
    return (
        expm(-1j * s * build_h_tms(p, "S1S2").elements)
        @ expm(-1j * s * build_h_tms(p, "S3S2").elements)
        @ expm(-1j * s * build_h_detune(p).elements)
    )


class TestLindblad:
    def test_pure_decay_matches_exponential(self):
        dims = ModeDims((6,))
        h = OperatorMatrix(np.zeros((6, 6), dtype=complex), dims)
        t1 = 25.0
        c = ladder_sum(dims, [(float(np.sqrt(1.0 / t1)), {0: "a"})])
        rho0 = pure_density(fock_state(dims, (3,)))
        times = (5.0, 10.0, 20.0)
        out = evolve_lindblad(h, [c], rho0, times)
        for t, rho in zip(times, out):
            n_mean = float(np.real(np.trace(ladder_op(dims, {0: "n"}).elements @ rho.elements)))
            assert n_mean == pytest.approx(3.0 * np.exp(-t / t1), rel=1e-5)

    def test_trace_preserved_with_hamiltonian(self, params):
        p = SystemParams.from_khz(80, 80, 475, t1=(100.0, 80.0, 120.0))
        rho0 = pure_density(fock_state(p.dims, (1, 0, 0)))
        out = evolve_lindblad(
            build_h_full(p), collapse_operators(p), rho0, (1.5, 3.0), rtol=1e-7
        )
        for rho in out:
            assert np.trace(rho.elements).real == pytest.approx(1.0, abs=1e-6)
            assert np.linalg.eigvalsh(rho.elements)[0] > -1e-6

    def test_only_t_zero_returns_the_starts_unpropagated(self, monkeypatch):
        p = LINDBLAD_P
        H, c_ops = build_h_full(p), collapse_operators(p)
        assembled = _count_assembled(monkeypatch, p.dims.total)
        general = _spread_start(p.dims) + np.triu(np.ones((p.dims.total,) * 2), 1)
        (out,) = propagate_lindblad_matrix(H, c_ops, [general], (0.0,))
        assert out.shape == (1, *general.shape) and np.array_equal(out[0], general)
        rho0 = DensityMatrix(_spread_start(p.dims), p.dims)
        traj = evolve_lindblad(H, c_ops, rho0, (0.0,))
        assert traj.elements.shape == (1, *rho0.elements.shape)
        assert np.array_equal(traj[0].elements, rho0.elements)
        assert assembled == []

    @pytest.mark.parametrize("collapse", ["model", "sector-mixing"])
    def test_matches_dense_liouvillian_expm(self, collapse):
        # the initial matrix spans several coherence sectors; a1 + i a2 joins
        # the sectors into one component, and its complex phase makes L^dag L
        # differ from its transpose
        p = LINDBLAD_P
        c_ops = collapse_operators(p) if collapse == "model" else _sector_mixing(p)
        H = build_h_full(p)
        rho0 = _spread_start(p.dims)
        times = (0.0, 1.3, 4.0)
        out = propagate_lindblad_matrix(H, c_ops, [rho0], times, rtol=1e-8)[0]
        gen = _dense_generator(H.elements, [c.elements for c in c_ops])
        for t, rho in zip(times, out):
            ref = (expm(gen * t) @ rho0.ravel()).reshape(rho0.shape)
            assert np.max(np.abs(rho - ref)) < 1e-6

    @pytest.mark.parametrize(
        "g_khz, collapse",
        [((80, 80), "t1"), ((80, 80), "thermal"), ((80, 80), "dephasing"),
         ((80, 60), "all")],
        ids=["t1", "thermal", "dephasing", "asymmetric"],
    )
    def test_packed_channel_matches_dense_expm(self, g_khz, collapse):
        # transfer_choi propagates u00 + i u11 and u01; the reference
        # propagates all four matrix units with the dense generator's expm
        every = collapse == "all"
        p = SystemParams.from_khz(
            *g_khz, 475, dims=(3, 2, 3),
            t1=(20.0, 15.0, 25.0) if every or collapse != "dephasing" else (None,) * 3,
            n_th=(0.05, 0.0, 0.1) if every or collapse == "thermal" else (0.0,) * 3,
            tphi=(30.0, 40.0, 50.0) if every or collapse == "dephasing" else (None,) * 3,
        )
        dims, t = p.dims, 4.0  # a quarter of the transfer: the bus is occupied
        H = build_h_full(p)
        prop = expm(t * _dense_generator(H.elements, [c.elements for c in collapse_operators(p)]))
        src = [dims.flat_index((i, 0, 0)) for i in range(2)]
        raw, cond = np.zeros((4, 4), dtype=complex), np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((dims.total,) * 2)
                unit[src[i], src[j]] = 1.0
                out = (prop @ unit.ravel()).reshape(tuple(dims) * 2)
                raw[2 * i:2 * i + 2, 2 * j:2 * j + 2] = np.einsum("abkabl->kl", out)[:2, :2]
                vac = np.einsum("akal->kl", out[:, 0, :, :, 0])
                cond[2 * i:2 * i + 2, 2 * j:2 * j + 2] = vac[:2, :2]
        got = transfer_choi(p, EvolutionSpec(total_time=t, method="lindblad", rtol=1e-8))
        assert np.abs(got[0] - raw).max() < 1e-6
        assert np.abs(got[1] - cond).max() < 1e-6

    @pytest.mark.parametrize("times", [[2.0, 1.0], [-1.0, 1.0]], ids=["unsorted", "negative"])
    def test_rejects_bad_times(self, times):
        p = SystemParams.from_khz(80, 80, 475, dims=(3, 2, 3), t1=(20.0, 15.0, 25.0))
        rho0 = pure_density(fock_state(p.dims, (1, 0, 0)))
        with pytest.raises(InvalidParameterError):
            evolve_lindblad(build_h_full(p), collapse_operators(p), rho0, times)

    def test_rejects_nonpositive_rtol(self, params):
        rho0 = pure_density(fock_state(params.dims, (1, 0, 0))).elements
        with pytest.raises(InvalidParameterError):
            propagate_lindblad_matrix(build_h_full(params), [], [rho0], (1.0,), rtol=0.0)

    @pytest.mark.parametrize("rtol", [np.nan, np.inf])
    def test_rejects_non_finite_rtol(self, params, rtol):
        # a NaN rtol passed `rtol <= 0` and left RK45 stepping without end
        rho0 = pure_density(fock_state(params.dims, (1, 0, 0))).elements
        with pytest.raises(InvalidParameterError):
            propagate_lindblad_matrix(build_h_full(params), [], [rho0], (1.0,), rtol=rtol)

    def test_zero_matrix_stays_zero(self):
        p = SystemParams.from_khz(80, 80, 475, dims=(3, 2, 3), t1=(20.0, 15.0, 25.0))
        d = p.dims.total
        one = pure_density(fock_state(p.dims, (1, 0, 0))).elements
        zero, moved = propagate_lindblad_matrix(
            build_h_full(p), collapse_operators(p), [np.zeros((d, d)), one], (0.5, 1.0)
        )
        assert all(np.array_equal(rho, np.zeros((d, d))) for rho in zero)
        assert all(np.trace(rho).real == pytest.approx(1.0, abs=1e-6) for rho in moved)

    def test_reduces_to_unitary_without_collapse(self, params):
        psi = fock_state(params.dims, (1, 0, 0))
        rho = evolve_lindblad(build_h_full(params), [], pure_density(psi), (2.0,))[-1]
        expect = pure_density(evolve_unitary(build_h_full(params), psi, (2.0,))[0])
        assert np.max(np.abs(rho.elements - expect.elements)) < 1e-6


def _spread_start(dims: ModeDims) -> np.ndarray:
    """A pure start over three charge sectors."""
    vec = np.zeros(dims.total, dtype=complex)
    for occ in ((0, 0, 0), (1, 0, 0), (0, 1, 0)):
        vec[dims.flat_index(occ)] = 1.0 / np.sqrt(3.0)
    return np.outer(vec, vec.conj())


#: t = 0, two samples 1e-3 apart, samples a window or more apart, then one
#: gap that spans several windows.
IRREGULAR = (0.0, 0.7, 0.701, 3.0, 10.0, 17.0, 60.0)


class TestChebyshev:
    """The Chebyshev propagator of a Lindblad block: its Bessel
    coefficients, the ellipse that holds the block's spectrum, and its
    error against the dense generator's expm."""

    @pytest.mark.parametrize("n", [3, 60, 500])
    def test_bessel_matches_scipy(self, n):
        from scipy.special import jv

        # 2.404825557695773 is the first zero of J_0 in double precision
        x = np.array([0.0, 1e-3, 0.3, 2.404825557695773, 10.0, 136.0, 420.5])
        assert np.abs(_bessel_j(x, n) - jv(np.arange(n + 1)[:, None], x)).max() < 1e-13

    @pytest.mark.parametrize("dims", [(3, 2, 3), (4, 3, 4)])
    @pytest.mark.parametrize("collapse", ["t1", "thermal", "dephasing", "sector-mixing"])
    def test_ellipse_holds_every_eigenvalue(self, dims, collapse):
        # the block of the channel's coherence u01, whose spectrum is not
        # symmetric about the real axis
        p, c_ops = _collapse_set(collapse, dims)
        H = build_h_full(p)
        ((_, block, box, _),) = _lindblad_blocks(H, c_ops, _channel_starts(p.dims)[1:2])
        evals = np.linalg.eigvals(block.toarray())
        slack = 1e-12 * np.abs(evals).max()  # the rounding of eigvals
        assert box[0] - slack <= evals.real.min() and evals.real.max() <= box[1] + slack
        assert box[2] - slack <= evals.imag.min() and evals.imag.max() <= box[3] + slack
        for span in (1e-3, 4.0, 1e3):  # the widest, a middle and a thin ellipse
            centre, focal, rho = _ellipse(box, span)
            foci = np.abs(evals - centre - 1j * focal) + np.abs(evals - centre + 1j * focal)
            assert foci.max() <= focal * (rho + 1.0 / rho) + slack, span

    @pytest.mark.parametrize("collapse", ["model", "sector-mixing"])
    def test_matches_expm_on_an_irregular_grid(self, collapse):
        p = LINDBLAD_P
        c_ops = collapse_operators(p) if collapse == "model" else _sector_mixing(p)
        H = build_h_full(p)
        rho0 = _spread_start(p.dims)
        times = np.array(IRREGULAR)
        gen = _kron_liouvillian(H, c_ops).toarray()
        ref = np.array([expm(gen * t) @ rho0.ravel() for t in times])
        errs = []
        for rtol in (1e-4, 1e-6, 1e-8, 1e-10):
            out = propagate_lindblad_matrix(H, c_ops, [rho0], times, rtol=rtol)[0]
            errs.append(np.abs(out.reshape(times.size, -1) - ref).max())
            assert errs[-1] < rtol, rtol
        assert errs[-1] < 1e-9
        assert errs[0] > errs[1] > errs[2], errs
        # the grid is what it claims: several windows, and the last gap
        # is one window of its own that spans several
        for _, _, box, _ in _lindblad_blocks(H, c_ops, [rho0]):
            height = dynamics._half_height(box)
            windows = _windows(times, height)
            assert len(windows) >= 4 and windows[-1] == (times.size - 1, times.size, times[-2])
            assert (times[-1] - times[-2]) * height > 3 * dynamics._WINDOW_PHASE

    def test_zero_generator_keeps_the_start(self):
        # no H and no collapse: the box is a point and no series is summed
        dims = ModeDims((3, 2))
        rho0 = np.outer(np.arange(6.0), np.arange(6.0) + 1j)
        H = OperatorMatrix(np.zeros((6, 6), dtype=complex), dims)
        (out,) = propagate_lindblad_matrix(H, [], [rho0], (0.0, 2.0, 50.0))
        assert np.array_equal(out, np.repeat(rho0[None], 3, axis=0))

    def test_non_finite_coefficients_raise_convergence_error(self, monkeypatch):
        p = LINDBLAD_P
        monkeypatch.setattr(dynamics, "_bessel_j", lambda x, n: np.full((n + 1, x.size), np.nan))
        with pytest.raises(ConvergenceError):
            propagate_lindblad_matrix(
                build_h_full(p), collapse_operators(p), [_spread_start(p.dims)], (1.0,)
            )

    def test_hermitian_start_propagates_one_of_each_mirrored_pair(self, monkeypatch):
        # |0> + |4> on S1: the charge-difference +4 and -4 components are
        # mirror images, and the diagonal one is its own
        from scipy.sparse.linalg import expm_multiply

        p = SystemParams.from_khz(
            80, 80, 475, dims=(5, 3, 3), t1=(20.0, 15.0, 25.0), tphi=(30.0, 40.0, 50.0)
        )
        H, c_ops = build_h_full(p), collapse_operators(p)
        vec = np.zeros(p.dims.total, dtype=complex)
        vec[[p.dims.flat_index((0, 0, 0)), p.dims.flat_index((4, 0, 0))]] = 1.0 / np.sqrt(2.0)
        rho = pure_density(StateVector(vec, p.dims))
        times = (0.0, 1.5, 4.0, 9.0)
        assembled = _count_assembled(monkeypatch, p.dims.total)
        got = evolve_lindblad(H, c_ops, rho, times, rtol=1e-10).elements
        by_state, assembled[:] = assembled[:], []
        full = propagate_lindblad_matrix(H, c_ops, [rho.elements], times, rtol=1e-10)[0]
        # one path: both entry points assemble the diagonal component and
        # one of the +-4 pair
        assert sorted(by_state) == sorted(assembled) == [False, True]
        assert np.array_equal(got, got.conj().swapaxes(-2, -1))
        assert np.array_equal(got, 0.5 * (full + full.conj().swapaxes(-2, -1)))
        gen = _kron_liouvillian(H, c_ops)
        ref = np.array([expm_multiply(gen * t, rho.elements.ravel()) for t in times])
        assert np.abs(full.reshape(len(times), -1) - ref).max() < 1e-9

    def test_general_start_fills_a_mirror_from_its_conjugate_transpose(self, monkeypatch):
        # u00 + u01 + 2 u10 occupies the diagonal component, its own mirror
        # image, and the (0, 1) component with its mirror, the (1, 0) one
        p = SystemParams.from_khz(
            80, 60, 475, dims=(3, 2, 3), t1=(20.0, 15.0, 25.0), n_th=(0.05, 0.0, 0.1),
            tphi=(30.0, 40.0, 50.0),
        )
        H, c_ops = build_h_full(p), collapse_operators(p)
        i, j = (p.dims.flat_index(occ) for occ in ((0, 0, 0), (1, 0, 0)))
        rho0 = np.zeros((p.dims.total,) * 2, dtype=complex)
        rho0[i, i], rho0[i, j], rho0[j, i] = 1.0, 1.0, 2.0
        assembled = _count_assembled(monkeypatch, p.dims.total)
        columns = []
        chebyshev = dynamics._chebyshev

        def counted(gen, y0, *args):
            columns.append(y0.shape[1])
            return chebyshev(gen, y0, *args)

        monkeypatch.setattr(dynamics, "_chebyshev", counted)
        times = np.array(IRREGULAR)
        (out,) = propagate_lindblad_matrix(H, c_ops, [rho0], times, rtol=1e-10)
        # one block per mirror pair; the (0, 1) one carries x and x^dag
        assert sorted(assembled) == [False, True] and sorted(columns) == [1, 2]
        gen = _dense_generator(H.elements, [c.elements for c in c_ops])
        for t, rho in zip(times, out):
            ref = (expm(gen * t) @ rho0.ravel()).reshape(rho0.shape)
            assert np.abs(rho - ref).max() < 1e-9, t


def _count_assembled(monkeypatch, d: int) -> list[bool]:
    """Record, for each component `dynamics._assemble` builds, whether it
    holds a diagonal entry."""
    assembled = []
    assemble = dynamics._assemble

    def counted(*args):
        keep, block = assemble(*args)
        i, j = np.divmod(keep, d)
        assembled.append(bool((i == j).any()))
        return keep, block

    monkeypatch.setattr(dynamics, "_assemble", counted)
    return assembled


@pytest.mark.parametrize("method", METHODS)
def test_trajectory_reduces_as_its_samples_do(method):
    # g1 != g2 and a start spread over several charge sectors
    p = SystemParams.from_khz(80, 60, 475, dims=(4, 3, 4), t1=(20.0, 15.0, 25.0))
    vec = np.zeros(p.dims.total, dtype=complex)
    for occ, amp in (((1, 0, 1), 0.6), ((0, 1, 0), 0.48j), ((2, 0, 0), 0.64)):
        vec[p.dims.flat_index(occ)] = amp
    psi = StateVector(vec, p.dims)
    dt = 0.05
    times = dt * np.array([0, 3, 10, 41, 80])
    if method == "exact":
        traj = evolve_unitary(build_h_full(p), psi, times)
    elif method == "trotter":
        traj = evolve_trotter(p, psi, times, dt)
    else:
        traj = evolve_lindblad(build_h_full(p), collapse_operators(p), pure_density(psi), times)
    pops = mode_populations(traj)
    assert pops.shape == (len(times), 3)
    assert np.abs(pops - [mode_populations(traj[k]) for k in range(len(times))]).max() < 1e-14
    for keep in ([0], [1], [2], [0, 2], [1, 2], [0, 1, 2]):
        reduced = partial_trace(traj, keep)
        per_sample = [partial_trace(traj[k], keep) for k in range(len(times))]
        kept = ModeDims(p.dims[k] for k in keep)
        assert isinstance(reduced, DensityMatrix) and reduced.dims == kept
        assert all(isinstance(r, DensityMatrix) and r.dims == kept for r in per_sample)
        assert reduced.elements.shape == (len(times),) + per_sample[0].elements.shape
        assert np.abs(reduced.elements - [r.elements for r in per_sample]).max() < 1e-14, keep


def _dense_generator(H, c_ops):
    """Master-equation generator built column by column from its action on
    each matrix unit, in the row-major vectorization."""
    d = H.shape[0]
    cols = []
    for k in range(d * d):
        r = np.zeros(d * d, dtype=complex)
        r[k] = 1.0
        r = r.reshape(d, d)
        dr = -1j * (H @ r - r @ H)
        for c in c_ops:
            cdc = c.conj().T @ c
            dr += c @ r @ c.conj().T - 0.5 * (cdc @ r + r @ cdc)
        cols.append(dr.ravel())
    return np.array(cols).T


class TestConditioning:
    @pytest.mark.parametrize(
        "density, weight", [(False, np.sqrt(3.0)), (True, 3.0)], ids=["vector", "density"]
    )
    def test_apply_jump_lowers_fock(self, params, density, weight):
        psi = fock_state(params.dims, (0, 0, 3))
        state = pure_density(psi) if density else psi
        out, got = apply_jump(state, 2)
        assert type(out) is type(state)
        assert np.allclose(mode_populations(out), [0, 0, 2])
        assert got == pytest.approx(weight)

    @pytest.mark.parametrize("samples", [2, 4], ids=["two-samples", "samples-equal-d"])
    @pytest.mark.parametrize("density", [False, True], ids=["vector", "density"])
    def test_apply_jump_refuses_a_trajectory(self, density, samples):
        # at T = d a vector trajectory is a (d, d) array, which an operator
        # product would take along its sample axis
        dims = ModeDims((2, 2))
        psi = StateVector(np.full((samples, 4), 0.5), dims)
        traj = DensityMatrix(np.full((samples, 4, 4), 0.25), dims) if density else psi
        with pytest.raises(InvalidParameterError,
                           match="^expected one StateVector or DensityMatrix, got a trajectory$"):
            apply_jump(traj, 1)

    @pytest.mark.parametrize("density", [False, True], ids=["vector", "density"])
    def test_apply_jump_on_vacuum_fails(self, params, density):
        psi = fock_state(params.dims, (0, 0, 0))
        with pytest.raises(ImpossibleOutcomeError):
            apply_jump(pure_density(psi) if density else psi, 2)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("start_dims", [(6, 5, 6), (2, 2, 2)], ids=["larger", "smaller"])
def test_start_dims_must_match(method, start_dims):
    p = SystemParams.from_khz(80, 80, 475, dims=(3, 2, 3), t1=(20.0, 15.0, 25.0))
    psi = fock_state(start_dims, (1, 0, 0))
    with pytest.raises(InvalidParameterError):
        if method == "exact":
            evolve_unitary(build_h_full(p), psi, (1.0,))
        elif method == "trotter":
            evolve_trotter(p, psi, [1.0], 0.1)
        else:
            evolve_lindblad(build_h_full(p), collapse_operators(p), pure_density(psi), (1.0,))

