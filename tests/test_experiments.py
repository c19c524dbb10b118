import numpy as np
import pytest

from exfree import dynamics, experiments
from exfree.analytic import sweet_point_detuning, tau_st
from exfree.dynamics import METHODS, EvolutionSpec
from exfree.errors import InvalidParameterError
from exfree.dynamics import evolve_trotter, evolve_unitary
from exfree.fock import DensityMatrix, fock_state, partial_trace
from exfree.experiments import (
    _evolve_trajectory,
    DEVICE_ERROR_BUDGET,
    combined_budget_fidelity,
    compare_tms_vs_bs,
    dominant_period,
    error_budget_report,
    estimate_swap_time,
    run_binomial_transfer,
    run_hom,
    run_purified_qst,
    run_single_photon_qst,
    transfer_choi,
)
from exfree.metrics import process_fidelity_qubit_subspace, process_matrix
from exfree.model import SystemParams, build_h_full, with_cavity_decoherence


@pytest.fixture(scope="module")
def params():
    return SystemParams.from_khz(80, 80, 475)


@pytest.fixture(scope="module")
def sweet7():
    g = SystemParams.from_khz(80, 80, 475).g1
    return SystemParams(g1=g, g2=g, delta=sweet_point_detuning(g, 7))


class TestDominantPeriod:
    def test_pure_cosine(self):
        t = np.linspace(0.0, 50.0, 4096)
        period = 3.7
        assert dominant_period(t, np.cos(2 * np.pi * t / period)) == pytest.approx(
            period, rel=1e-4
        )

    def test_survives_additive_ripple(self):
        t = np.linspace(0.0, 120.0, 8192)
        slow, fast = 12.0, 1.1
        y = np.cos(2 * np.pi * t / slow) + 0.3 * np.cos(2 * np.pi * t / fast)
        assert dominant_period(t, y) == pytest.approx(slow, rel=1e-3)

    def test_rejects_nonuniform_grid(self):
        t = np.array([0.0, 1.0, 2.0, 4.0] + list(range(5, 21)))
        with pytest.raises(InvalidParameterError):
            dominant_period(t, np.cos(t))


class TestSinglePhotonQst:
    def test_trajectory_and_swap_time(self, params):
        total = 20.0 * tau_st(params)
        spec = EvolutionSpec(
            total_time=total, sample_times=tuple(np.linspace(0.0, total, 4096))
        )
        res = run_single_photon_qst(params, spec)
        assert res.populations.shape == (4096, 3)
        # photon starts in S1 and is fully transferred periodically
        assert res.populations[0, 0] == pytest.approx(1.0)
        assert res.populations[:, 2].max() > 0.95
        est = res.scalars["swap_time_estimate"]
        assert est == pytest.approx(tau_st(params), rel=5e-3)

    def test_trotter_method_agrees(self, params):
        t = 2.0
        spec_e = EvolutionSpec(total_time=t, sample_times=(t,))
        spec_t = EvolutionSpec(
            total_time=t, method="trotter", trotter_dt=t / 2000, sample_times=(t,)
        )
        pe = run_single_photon_qst(params, spec_e).populations[-1]
        pt = run_single_photon_qst(params, spec_t).populations[-1]
        assert np.allclose(pe, pt, atol=5e-3)


class TestTransferChannel:
    def test_sweet_point_channel_is_nearly_ideal(self, sweet7):
        p = sweet7.with_dims((8, 6, 8))
        raw, _ = transfer_choi(p, EvolutionSpec(total_time=tau_st(p)))
        fid, phi = process_fidelity_qubit_subspace(process_matrix(raw))
        assert fid > 0.999
        # the swap imprints a pi phase per photon (a1 -> -a3)
        assert np.cos(phi) == pytest.approx(-1.0, abs=1e-2)

    def test_unoptimized_fidelity_sees_the_transfer_phase(self, sweet7):
        p = sweet7.with_dims((8, 6, 8))
        raw, _ = transfer_choi(p, EvolutionSpec(total_time=tau_st(p)))
        ideal = np.zeros((4, 4))
        ideal[np.ix_([0, 3], [0, 3])] = 0.5  # projector onto (|00> + |11>)/sqrt2
        assert np.trace(ideal @ process_matrix(raw).choi).real < 0.1

    def test_conditioning_reduces_weight(self, params):
        t = 0.4 * tau_st(params)  # bus partly occupied mid-pulse
        raw, cond = transfer_choi(params, EvolutionSpec(total_time=t))
        assert np.trace(cond).real < np.trace(raw).real

    def test_trotter_channel_converges_first_order(self):
        p = SystemParams.from_khz(80, 60, 475, dims=(4, 3, 4))
        t = 7.0
        exact = transfer_choi(p, EvolutionSpec(total_time=t))
        errors = []
        for dt in (0.04, 0.02, 0.01):
            trotter = transfer_choi(p, EvolutionSpec(total_time=t, method="trotter", trotter_dt=dt))
            errors.append(max(np.abs(a - b).max() for a, b in zip(trotter, exact)))
        # measured 0.0244, 0.0122, 0.0061: halving dt halves the error
        assert errors[0] < 0.03
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(2.0, abs=0.05)

    def test_lindblad_propagates_two_matrices_in_one_call(self, params, monkeypatch):
        propagate = experiments.propagate_lindblad_matrix
        calls = []
        monkeypatch.setattr(
            experiments, "propagate_lindblad_matrix",
            lambda *args: calls.append(args) or propagate(*args),
        )
        p = with_cavity_decoherence(params.with_dims((4, 3, 4)))
        spec = EvolutionSpec(total_time=0.4 * tau_st(p), method="lindblad", rtol=1e-6)
        raw, _ = transfer_choi(p, spec)
        assert len(calls) == 1 and len(calls[0][2]) == 2
        assert np.abs(raw[2:, :2] - raw[:2, 2:].conj().T).max() < 1e-14

    @pytest.mark.parametrize("dims", [(6, 5, 6), (12, 12, 12)])
    @pytest.mark.parametrize("g_khz", [(80, 80), (80, 60)], ids=["symmetric", "asymmetric"])
    def test_exact_choi_matches_outer_products(self, dims, g_khz):
        p = SystemParams.from_khz(*g_khz, 475, dims=dims)
        # t = 7 us, mid-transfer: the bus is partly occupied
        _assert_choi_matches_outer_products(p, EvolutionSpec(total_time=7.0))

    @pytest.mark.parametrize("dims", [(6, 5, 6), (12, 12, 12)])
    @pytest.mark.parametrize("g_khz", [(80, 80), (80, 60)], ids=["symmetric", "asymmetric"])
    def test_trotter_choi_matches_outer_products(self, dims, g_khz):
        p = SystemParams.from_khz(*g_khz, 475, dims=dims)
        spec = EvolutionSpec(total_time=7.0, method="trotter", trotter_dt=0.03)
        _assert_choi_matches_outer_products(p, spec)

    def test_matches_dense_expm_reference(self, params):
        from scipy.linalg import expm

        p = params.with_dims((3, 3, 3))
        t = 0.4 * tau_st(p)  # bus partly occupied, so conditioning matters
        dims = p.dims
        U = expm(-1j * t * build_h_full(p).elements)
        bus_vacuum = np.diag(
            [1.0 if n2 == 0 else 0.0 for n1 in range(3) for n2 in range(3) for n3 in range(3)]
        )
        src = [dims.flat_index((0, 0, 0)), dims.flat_index((1, 0, 0))]
        ref_raw = np.zeros((4, 4), dtype=complex)
        ref_cond = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                out = np.outer(U[:, src[i]], U[:, src[j]].conj())
                for ref, m in ((ref_raw, out), (ref_cond, bus_vacuum @ out @ bus_vacuum)):
                    # S3 block: trace S1 and S2 out of the (3,3,3) x (3,3,3) tensor
                    r3 = np.einsum("abcabd->cd", m.reshape((3,) * 6))
                    ref[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = r3[:2, :2]
        raw, cond = transfer_choi(p, EvolutionSpec(total_time=t))
        assert np.abs(raw - ref_raw).max() < 1e-10
        assert np.abs(cond - ref_cond).max() < 1e-10
        assert np.abs(cond - raw).max() > 1e-3


def _assert_choi_matches_outer_products(p, spec):
    """`transfer_choi` under a pure-state spec agrees to 1e-15 with the
    Choi matrices built from full-space outer products."""
    raw, cond = transfer_choi(p, spec)
    ref_raw, ref_cond = _choi_from_outer_products(p, spec)
    assert np.abs(raw - ref_raw).max() < 1e-15
    assert np.abs(cond - ref_cond).max() < 1e-15


def _choi_from_outer_products(p, spec):
    """The (raw, conditioned) Choi matrices, exact or Trotter, from the three
    full-space matrix units |a><a|, |a><b|, |b><b| of the propagated inputs."""
    dims = p.dims
    t = (spec.total_time,)
    inputs = [fock_state(dims, (i, 0, 0)) for i in (0, 1)]
    if spec.method == "trotter":
        a, b = (evolve_trotter(p, s, t, spec.trotter_dt).amplitudes[0] for s in inputs)
    else:
        H = build_h_full(p)
        a, b = (evolve_unitary(H, s, t).amplitudes[0] for s in inputs)
    u00, u01, u11 = (np.outer(x, y.conj()) for x, y in ((a, a), (a, b), (b, b)))
    full = np.array([[u00, u01], [u01.conj().T, u11]])
    full = full.reshape((2, 2) + tuple(dims) * 2)[..., :2, :, :, :2]
    raw = np.einsum("ijabkabl->ikjl", full).reshape(4, 4)
    cond = np.einsum("ijakal->ikjl", full[:, :, :, 0, :, :, 0, :]).reshape(4, 4)
    return raw, cond


class TestPurifiedQst:
    def test_purification_ordering(self, sweet7):
        fids = {
            level: run_purified_qst(sweet7, purification=level).scalars["fidelity"]
            for level in ("none", "qubit", "qubit+cavity")
        }
        assert fids["none"] < fids["qubit"] <= fids["qubit+cavity"] + 1e-12
        assert fids["qubit+cavity"] > 0.99

    def test_success_probability_decomposes(self, sweet7):
        res = run_purified_qst(sweet7, purification="qubit+cavity")
        s = res.scalars
        assert s["success_probability"] == pytest.approx(
            (1 - s["qubit_failure_probability"]) * (1 - s["cavity_failure_probability"])
        )

    def test_invalid_level(self, sweet7):
        with pytest.raises(InvalidParameterError):
            run_purified_qst(sweet7, purification="extra")

    @pytest.mark.parametrize("gamma_q", [-1.0, np.nan, np.inf])
    def test_invalid_gamma_q(self, sweet7, gamma_q):
        # a negative rate gave a failure probability below -1e7
        with pytest.raises(InvalidParameterError):
            run_purified_qst(sweet7, gamma_q=gamma_q)

    def test_lindblad_without_dissipation_matches_exact(self, sweet7):
        p = sweet7.with_dims((3, 2, 3))
        exact = run_purified_qst(p).scalars
        spec = EvolutionSpec(total_time=tau_st(p), method="lindblad", rtol=1e-8)
        lindblad = run_purified_qst(p, spec).scalars
        assert exact.keys() == lindblad.keys()
        for key, value in exact.items():
            assert lindblad[key] == pytest.approx(value, abs=1e-6), key


def _assert_scalars_match(exact, other, tol=1e-6):
    """Scalars agree to tol; a phase only modulo pi, since F(phi) of a state
    on even photon-number differences has period pi and either maximum may
    be reported."""
    assert exact.keys() == other.keys()
    for key, value in exact.items():
        diff = other[key] - value
        if key == "phase":
            diff = (diff + np.pi / 2) % np.pi - np.pi / 2
        assert abs(diff) < tol, key


@pytest.fixture(scope="module")
def hom_result():
    p = SystemParams.from_khz(80, 80, 775)
    total = 2.0 * tau_st(p)
    spec = EvolutionSpec(
        total_time=total, sample_times=tuple(np.linspace(0.0, total, 101))
    )
    return run_hom(p, spec)


class TestHom:
    def test_coincidences_suppressed(self, hom_result):
        s = hom_result.scalars
        assert s["P11"] < 0.01
        assert s["P20"] + s["P02"] > 0.98

    def test_bunching_symmetric(self, hom_result):
        assert hom_result.scalars["P20"] == pytest.approx(hom_result.scalars["P02"], abs=1e-6)

    def test_entangled_output(self, hom_result):
        assert hom_result.scalars["fidelity"] > 0.99
        assert hom_result.scalars["negativity"] == pytest.approx(0.5, abs=5e-3)
        assert hom_result.tables["pauli"]["ZZ"] == pytest.approx(-1.0, abs=5e-3)

    def test_series_on_grid(self, hom_result):
        assert set(hom_result.series) >= {"P11", "P20", "P02"}
        assert hom_result.series["P11"].shape == hom_result.times.shape

    @pytest.mark.parametrize("method", METHODS)
    def test_series_are_per_sample_reduced_diagonals(self, method):
        p = SystemParams.from_khz(80, 80, 775, dims=(4, 3, 4), t1=(20.0, 15.0, 25.0))
        dt = 0.05
        times = dt * np.arange(0, 101, 10)
        spec = EvolutionSpec(
            total_time=times[-1], method=method, trotter_dt=dt, sample_times=tuple(times)
        )
        res = run_hom(p, spec, analysis_time=times[3])
        traj = _evolve_trajectory(p, fock_state(p.dims, (1, 0, 1)), spec, times)
        for k in range(len(times)):
            diag = np.diag(partial_trace(traj[k], keep=[0, 2]).elements).real.reshape(4, 4)
            for key, (n1, n3) in (("P11", (1, 1)), ("P20", (2, 0)), ("P02", (0, 2))):
                assert abs(res.series[key][k] - diag[n1, n3]) < 1e-14, (key, k)

    def test_lindblad_without_dissipation_matches_exact(self):
        p = SystemParams.from_khz(80, 80, 775, dims=(3, 3, 3))
        total = 2.0 * tau_st(p)
        times = tuple(np.linspace(0.0, total, 11))
        t_a = 0.37 * tau_st(p)  # off the sample grid
        exact = run_hom(p, EvolutionSpec(total_time=total, sample_times=times), t_a)
        lindblad = run_hom(
            p,
            EvolutionSpec(total_time=total, method="lindblad", rtol=1e-8, sample_times=times),
            t_a,
        )
        _assert_scalars_match(exact.scalars, lindblad.scalars)
        for key, value in exact.series.items():
            assert np.abs(lindblad.series[key] - value).max() < 1e-6, key
        assert np.abs(lindblad.populations - exact.populations).max() < 1e-6


@pytest.mark.parametrize("runner", [run_single_photon_qst, run_hom], ids=["qst", "hom"])
def test_default_spec_is_exact_over_two_swap_times(runner):
    p = SystemParams.from_khz(80, 80, 775, dims=(4, 3, 4))
    total = 2.0 * tau_st(p)
    grid = np.linspace(0.0, total, 801)
    default = runner(p)
    given = runner(p, EvolutionSpec(total_time=total, sample_times=tuple(grid)))
    assert np.array_equal(default.times, grid)
    assert np.array_equal(default.populations, given.populations)
    assert default.scalars == given.scalars


def test_runners_never_form_a_full_space_density(monkeypatch, sweet7):
    check = DensityMatrix.__post_init__

    def refuse(self):
        if self.dims.n_modes == 3:
            raise AssertionError("full-space density formed from a pure state")
        check(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", refuse)
    p = sweet7.with_dims((5, 3, 5))
    total = tau_st(p)
    times = tuple(np.linspace(0.0, total, 5))
    run_hom(p, EvolutionSpec(total_time=total, sample_times=times))
    run_hom(
        p,
        EvolutionSpec(
            total_time=total, method="trotter", trotter_dt=total / 40, sample_times=times
        ),
    )
    run_binomial_transfer(p, label="+iL", loss_after_transfer=True)


class TestBinomialTransfer:
    def test_codeword_arrives(self, sweet7):
        p = sweet7.with_dims((10, 8, 10))
        res = run_binomial_transfer(p, label="0L")
        assert res.scalars["fidelity_received"] > 0.99
        assert res.scalars["p_even"] > 0.98
        assert res.scalars["fidelity_even"] >= res.scalars["fidelity_received"] - 1e-6

    def test_loss_maps_to_error_state(self, sweet7):
        p = sweet7.with_dims((10, 8, 10))
        res = run_binomial_transfer(p, label="+iL", loss_after_transfer=True)
        assert res.scalars["p_even"] < 0.05
        assert res.scalars["fidelity_odd_error"] > 0.99

    def test_lindblad_without_dissipation_matches_exact(self, sweet7):
        p = sweet7.with_dims((5, 3, 5))
        kw = {"label": "+iL", "loss_after_transfer": True}
        exact = run_binomial_transfer(p, **kw).scalars
        spec = EvolutionSpec(total_time=tau_st(p), method="lindblad", rtol=1e-8)
        lindblad = run_binomial_transfer(p, spec=spec, **kw).scalars
        _assert_scalars_match(exact, lindblad)

    def test_trotter_converges_to_exact(self, sweet7):
        p = sweet7.with_dims((8, 6, 8))
        t = tau_st(p)
        exact = run_binomial_transfer(p, label="0L").scalars
        spec = EvolutionSpec(total_time=t, method="trotter", trotter_dt=t / 1000)
        trotter = run_binomial_transfer(p, label="0L", spec=spec).scalars
        assert trotter["fidelity_received"] == pytest.approx(
            exact["fidelity_received"], abs=5e-3
        )

    def test_wigner_map_emitted(self, sweet7):
        res = run_binomial_transfer(
            sweet7, label="1L", wigner_extent=2.0, wigner_points=9
        )
        assert res.series["wigner_received"].shape == (9, 9)
        assert np.max(np.abs(res.series["wigner_received"])) <= 2 / np.pi + 1e-9


class TestErrorBudget:
    def test_reference_budget_combination(self):
        res = error_budget_report()
        assert res.scalars["combined_fidelity"] == pytest.approx(0.79926, abs=1e-5)
        assert res.tables["budget"] == DEVICE_ERROR_BUDGET

    def test_custom_budget(self):
        res = error_budget_report(budget={"only": 0.1})
        assert res.scalars["combined_fidelity"] == pytest.approx(0.25 + 0.75 * 0.9)

    def test_combined_matches_helper(self):
        assert combined_budget_fidelity() == pytest.approx(
            error_budget_report().scalars["combined_fidelity"]
        )

    def test_ablation_needs_params(self):
        with pytest.raises(InvalidParameterError):
            error_budget_report(ablate_cavity=True)


class TestCompareTmsVsBs:
    def test_pair_scheme_faster_but_leakier(self, params):
        g = params.g1
        deltas = [g * x for x in (3.0, 5.0, 10.0, 50.0)]
        res = compare_tms_vs_bs(g, deltas)
        for row in res.tables["rows"]["data"]:
            assert row["tau_pair"] < row["tau_exchange"]
            assert row["leak_pair"] > row["leak_exchange"]

    def test_ratios_approach_unity(self, params):
        g = params.g1
        res = compare_tms_vs_bs(g, [50.0 * g])
        row = res.tables["rows"]["data"][0]
        assert row["tau_ratio"] == pytest.approx(1.0, abs=0.01)
        assert row["leak_ratio"] == pytest.approx(1.0, abs=0.01)

    def test_below_regime_reported_as_nan(self, params):
        g = params.g1
        res = compare_tms_vs_bs(g, [2.0 * g])
        row = res.tables["rows"]["data"][0]
        assert np.isnan(row["tau_pair"])
        assert np.isfinite(row["tau_exchange"])
