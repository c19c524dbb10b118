import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from exfree.analytic import mean_photon_numbers, tau_st
from exfree.dynamics import (
    EvolutionSpec,
    apply_jump,
    evolve_lindblad,
    evolve_trotter,
    evolve_unitary,
    propagate_lindblad_matrix,
    truncation_convergence_check,
)
from exfree.errors import (
    ImpossibleOutcomeError,
    InvalidOperatorError,
    InvalidParameterError,
)
from exfree.experiments import transfer_choi
from exfree.fock import (
    ModeDims,
    OperatorMatrix,
    StateVector,
    annihilation_op,
    embed_op,
    fock_state,
    mode_populations,
    number_op,
)
from exfree.model import (
    SystemParams,
    build_h_bs_reference,
    build_h_detune,
    build_h_full,
    build_h_tms,
    collapse_operators,
)


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

    @pytest.mark.parametrize("method", ["exact-unitary", "trotter", "lindblad"])
    def test_sample_times_strictly_increasing(self, method):
        dt = 0.5 if method == "trotter" else None
        with pytest.raises(InvalidParameterError):
            EvolutionSpec(
                total_time=2.0, method=method, trotter_dt=dt, sample_times=(0.0, 1.0, 1.0, 2.0)
            )


class TestUnitary:
    def test_norm_preserved(self, params):
        psi = fock_state(params.dims, (1, 0, 0))
        (out,) = evolve_unitary(build_h_full(params), psi, (5.0,))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0)

    def test_zero_time_is_identity(self, params):
        psi = fock_state(params.dims, (1, 0, 0))
        (out,) = evolve_unitary(build_h_full(params), psi, (0.0,))
        assert abs(psi.overlap(out)) == pytest.approx(1.0)

    def test_propagator_composes(self, params):
        H = build_h_full(params)
        psi = fock_state(params.dims, (1, 0, 0))
        half, both = evolve_unitary(H, psi, (2.0, 5.0))
        (one,) = evolve_unitary(H, half, (3.0,))
        assert abs(one.overlap(both)) == pytest.approx(1.0, abs=1e-12)

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
        worst = 0.0
        times = np.linspace(0.0, 2.0 * tau_st(p), 40)
        for t, state in zip(times, evolve_unitary(build_h_full(p), psi, times)):
            expect = mean_photon_numbers(p, t)
            worst = max(worst, float(np.max(np.abs(mode_populations(state) - np.asarray(expect)))))
        assert worst < 1e-4

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
        for t, state in zip(times, evolve_unitary(H, psi, times)):
            U = expm(-1j * H.elements * t)
            assert np.max(np.abs(state.amplitudes - U @ psi.amplitudes)) < 1e-10

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
        transfer_choi(params, tau_st(params))
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
        with pytest.raises(InvalidParameterError):
            evolve_trotter(params, psi, [1.0], 0.0)
        with pytest.raises(InvalidParameterError):
            evolve_trotter(params, psi, [1.0], 10.0)

    def test_unsorted_times(self, params):
        psi = fock_state(params.dims, (1, 0, 0))
        with pytest.raises(InvalidParameterError):
            evolve_trotter(params, psi, [1.0, 0.5], 0.1)

    def test_trajectory_matches_per_sample_evolution(self):
        # non-uniform samples, t = 0 included; each reference steps from t = 0
        p = SystemParams.from_khz(80, 60, 475)
        dt = 0.05
        times = dt * np.array([0, 1, 7, 8, 30, 101])
        psi = fock_state(p.dims, (1, 0, 0))
        step = (
            expm(-1j * dt * build_h_tms(p, "S1S2").elements)
            @ expm(-1j * dt * build_h_tms(p, "S3S2").elements)
            @ expm(-1j * dt * build_h_detune(p).elements)
        )
        out = evolve_trotter(p, psi, times, dt)
        assert len(out) == len(times)
        for t, state in zip(times, out):
            ref = np.linalg.matrix_power(step, int(round(t / dt))) @ psi.amplitudes
            ref /= np.linalg.norm(ref)
            assert np.max(np.abs(state.amplitudes - ref)) < 1e-10


class TestLindblad:
    def test_pure_decay_matches_exponential(self):
        dims = ModeDims((6,))
        h = OperatorMatrix(np.zeros((6, 6), dtype=complex), dims)
        t1 = 25.0
        c = float(np.sqrt(1.0 / t1)) * annihilation_op(6)
        rho0 = fock_state(dims, (3,)).to_density()
        times = (5.0, 10.0, 20.0)
        out = evolve_lindblad(h, [c], rho0, times)
        for t, rho in zip(times, out):
            n_mean = float(np.real(np.trace(number_op(6).elements @ rho.elements)))
            assert n_mean == pytest.approx(3.0 * np.exp(-t / t1), rel=1e-5)

    def test_trace_preserved_with_hamiltonian(self, params):
        p = SystemParams.from_khz(80, 80, 475, t1=(100.0, 80.0, 120.0))
        rho0 = fock_state(p.dims, (1, 0, 0)).to_density()
        out = evolve_lindblad(
            build_h_full(p), collapse_operators(p), rho0, (1.5, 3.0), rtol=1e-7
        )
        for rho in out:
            assert np.trace(rho.elements).real == pytest.approx(1.0, abs=1e-6)
            assert rho.min_eigenvalue() > -1e-6

    @pytest.mark.parametrize("collapse", ["model", "sector-mixing"])
    def test_matches_dense_liouvillian_expm(self, collapse):
        # the initial matrix spans several coherence sectors; a1 + i a2 changes
        # Q = n2 - n1 - n3 by +1 or -1 and joins the sectors into one component,
        # and its complex phase makes L^dag L differ from its transpose
        p = SystemParams.from_khz(
            80, 60, 475, dims=(3, 2, 3), t1=(20.0, 15.0, 25.0), tphi=(30.0, None, 40.0),
            n_th=(0.05, 0.0, 0.1),
        )
        dims = p.dims
        if collapse == "model":
            c_ops = collapse_operators(p)
        else:
            a1 = embed_op(annihilation_op(3), 0, dims)
            a2 = embed_op(annihilation_op(2), 1, dims)
            c_ops = [float(np.sqrt(1.0 / 20.0)) * (a1 + 1j * a2)]
        H = build_h_full(p)
        vec = np.zeros(dims.total, dtype=complex)
        for occ in ((0, 0, 0), (1, 0, 0), (0, 1, 0)):
            vec[dims.flat_index(occ)] = 1.0 / np.sqrt(3.0)
        rho0 = np.outer(vec, vec.conj())
        times = (0.0, 1.3, 4.0)
        out = propagate_lindblad_matrix(H, c_ops, [rho0], times, rtol=1e-8)[0]
        gen = _dense_generator(H.elements, [c.elements for c in c_ops])
        for t, rho in zip(times, out):
            ref = (expm(gen * t) @ rho0.ravel()).reshape(rho0.shape)
            assert np.max(np.abs(rho - ref)) < 1e-6

    @pytest.mark.parametrize("times", [[2.0, 1.0], [-1.0, 1.0]], ids=["unsorted", "negative"])
    def test_rejects_bad_times(self, times):
        p = SystemParams.from_khz(80, 80, 475, dims=(3, 2, 3), t1=(20.0, 15.0, 25.0))
        rho0 = fock_state(p.dims, (1, 0, 0)).to_density()
        with pytest.raises(InvalidParameterError):
            evolve_lindblad(build_h_full(p), collapse_operators(p), rho0, times)

    def test_rejects_nonpositive_rtol(self, params):
        rho0 = fock_state(params.dims, (1, 0, 0)).to_density().elements
        with pytest.raises(InvalidParameterError):
            propagate_lindblad_matrix(build_h_full(params), [], [rho0], (1.0,), rtol=0.0)

    def test_reduces_to_unitary_without_collapse(self, params):
        psi = fock_state(params.dims, (1, 0, 0))
        rho = evolve_lindblad(build_h_full(params), [], psi.to_density(), (2.0,))[-1]
        expect = evolve_unitary(build_h_full(params), psi, (2.0,))[0].to_density()
        assert np.max(np.abs(rho.elements - expect.elements)) < 1e-6


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
        state = psi.to_density() if density else psi
        out, got = apply_jump(state, 2)
        assert type(out) is type(state)
        assert np.allclose(mode_populations(out), [0, 0, 2])
        assert got == pytest.approx(weight)

    @pytest.mark.parametrize("density", [False, True], ids=["vector", "density"])
    def test_apply_jump_on_vacuum_fails(self, params, density):
        psi = fock_state(params.dims, (0, 0, 0))
        with pytest.raises(ImpossibleOutcomeError):
            apply_jump(psi.to_density() if density else psi, 2)


@pytest.mark.parametrize("method", ["exact-unitary", "trotter", "lindblad"])
@pytest.mark.parametrize("start_dims", [(6, 5, 6), (2, 2, 2)], ids=["larger", "smaller"])
def test_start_dims_must_match(method, start_dims):
    p = SystemParams.from_khz(80, 80, 475, dims=(3, 2, 3), t1=(20.0, 15.0, 25.0))
    psi = fock_state(start_dims, (1, 0, 0))
    with pytest.raises(InvalidParameterError):
        if method == "exact-unitary":
            evolve_unitary(build_h_full(p), psi, (1.0,))
        elif method == "trotter":
            evolve_trotter(p, psi, [1.0], 0.1)
        else:
            evolve_lindblad(build_h_full(p), collapse_operators(p), psi.to_density(), (1.0,))


class TestTruncation:
    def test_report_flags_tight_truncation(self, params):
        report = truncation_convergence_check(params, (1, 0, 0), tau_st(params), tol=1e-6)
        assert not report.passed  # (6,5,6) is visibly unconverged for delta=475
        assert report.max_population_difference > 1e-4

    def test_report_passes_at_large_dims(self):
        p = SystemParams.from_khz(80, 80, 775, dims=(8, 7, 8))
        report = truncation_convergence_check(p, (1, 0, 0), 2.0, tol=1e-4)
        assert report.passed
        assert report.grown_dims == (10, 9, 10)
