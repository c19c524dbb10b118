import numpy as np
import pytest

from exfree.errors import InvalidParameterError, RegimeError
from exfree.fock import fock_state
from exfree.model import (
    CAVITY_T1_US,
    REGIME_FACTOR,
    SystemParams,
    angular_to_khz,
    build_h_bs_reference,
    build_h_detune,
    build_h_eff,
    build_h_full,
    build_h_tms,
    collapse_operators,
    is_oscillatory,
    khz_to_angular,
    require_oscillatory,
    with_cavity_decoherence,
)


def test_khz_conversion_roundtrip():
    # 80 kHz -> 2*pi*0.08 rad/us
    assert khz_to_angular(80.0) == pytest.approx(0.5026548245743669)
    assert angular_to_khz(khz_to_angular(475.0)) == pytest.approx(475.0)


def test_from_khz_matches_manual():
    p = SystemParams.from_khz(80, 80, 475)
    assert p.g1 == pytest.approx(2 * np.pi * 0.08)
    assert p.delta == pytest.approx(2 * np.pi * 0.475)
    assert tuple(p.dims) == (6, 5, 6)


@pytest.mark.parametrize("g1,g2", [(0.0, 1.0), (-0.5, 0.5), (1.0, 0.0)])
def test_couplings_must_be_positive(g1, g2):
    with pytest.raises(InvalidParameterError):
        SystemParams(g1=g1, g2=g2, delta=1.0)


@pytest.mark.parametrize(
    "g1,g2,delta",
    [(np.nan, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, np.nan), (1.0, 1.0, -np.inf)],
    ids=["g1-nan", "g2-inf", "delta-nan", "delta-inf"],
)
def test_couplings_and_detuning_must_be_finite(g1, g2, delta):
    with pytest.raises(InvalidParameterError):
        SystemParams(g1=g1, g2=g2, delta=delta)


@pytest.mark.parametrize(
    "per_mode",
    [{"t1": (100.0,)}, {"tphi": (50.0, None)}, {"n_th": (0.0, 0.0, 0.0, 0.0)}],
    ids=["t1", "tphi", "n_th"],
)
def test_per_mode_inputs_need_one_entry_per_mode(per_mode):
    with pytest.raises(InvalidParameterError):
        SystemParams.from_khz(80, 80, 475, **per_mode)


class TestRegime:
    def test_threshold(self):
        g = khz_to_angular(80.0)
        above = SystemParams(g1=g, g2=g, delta=REGIME_FACTOR * g * 1.01)
        below = SystemParams(g1=g, g2=g, delta=REGIME_FACTOR * g * 0.99)
        assert is_oscillatory(above)
        assert not is_oscillatory(below)
        require_oscillatory(above)
        with pytest.raises(RegimeError):
            require_oscillatory(below)

    def test_reference_operating_points_are_oscillatory(self):
        for delta in (373, 463, 475, 675, 775):
            assert is_oscillatory(SystemParams.from_khz(80, 80, delta))


class TestHamiltonians:
    @pytest.fixture()
    def params(self):
        return SystemParams.from_khz(80, 80, 475)

    def test_all_hermitian(self, params):
        for h in (
            build_h_tms(params, "S1S2"),
            build_h_tms(params, "S3S2"),
            build_h_detune(params),
            build_h_full(params),
            build_h_eff(params),
            build_h_bs_reference(params),
        ):
            assert h.is_hermitian(tol=1e-12)

    def test_full_is_sum_of_terms(self, params):
        total = (
            build_h_tms(params, "S1S2").elements
            + build_h_tms(params, "S3S2").elements
            + build_h_detune(params).elements
        )
        assert np.allclose(build_h_full(params).elements, total)

    def test_tms_pair_creation_element(self, params):
        # <1,1,0| H |0,0,0> = g1
        h = build_h_tms(params, "S1S2").elements
        dims = params.dims
        amp = h[dims.flat_index((1, 1, 0)), dims.flat_index((0, 0, 0))]
        assert amp == pytest.approx(params.g1)

    def test_detune_diagonal(self, params):
        h = build_h_detune(params)
        psi = fock_state(params.dims, (0, 3, 0))
        assert np.allclose(h.elements @ psi.amplitudes, 3 * params.delta * psi.amplitudes)

    def test_bs_reference_conserves_photon_number(self, params):
        from exfree.fock import embed_op, number_op

        n_tot = sum(
            (embed_op(number_op(n), k, params.dims) for k, n in enumerate(params.dims)),
            start=0.0 * build_h_detune(params),
        )
        h = build_h_bs_reference(params)
        assert np.allclose((h @ n_tot).elements, (n_tot @ h).elements)

    def test_eff_matches_product_over_delta(self, params):
        dims = params.dims
        h = build_h_eff(params).elements
        amp = h[dims.flat_index((1, 0, 0)), dims.flat_index((0, 0, 1))]
        assert amp == pytest.approx(params.g1 * params.g2 / params.delta)

    def test_builders_match_embedded_products(self):
        # asymmetric dims and couplings expose a wrong kron order
        from exfree.fock import annihilation_op, embed_op

        p = SystemParams.from_khz(80, 60, 475, dims=(2, 3, 4))
        a = [embed_op(annihilation_op(n), k, p.dims).elements for k, n in enumerate(p.dims)]
        ad = [m.conj().T for m in a]
        n2 = ad[1] @ a[1]

        def pair(g, t):
            return g * (t + t.conj().T)

        expect = {
            "S1S2": pair(p.g1, ad[0] @ ad[1]),
            "S3S2": pair(p.g2, ad[2] @ ad[1]),
            "eff": pair(p.g1 * p.g2 / p.delta, ad[0] @ a[2]),
            "bs": pair(p.g1, ad[0] @ a[1]) + pair(p.g2, ad[2] @ a[1]) + p.delta * n2,
        }
        expect["full"] = expect["S1S2"] + expect["S3S2"] + p.delta * n2
        built = {
            "S1S2": build_h_tms(p, "S1S2"),
            "S3S2": build_h_tms(p, "S3S2"),
            "eff": build_h_eff(p),
            "bs": build_h_bs_reference(p),
            "full": build_h_full(p),
        }
        for name, h in built.items():
            assert np.max(np.abs(h.elements - expect[name])) < 1e-12, name

    def test_eff_rejects_zero_delta(self):
        p = SystemParams(g1=0.5, g2=0.5, delta=0.0)
        with pytest.raises(InvalidParameterError):
            build_h_eff(p)


class TestCollapseOperators:
    def test_no_decoherence_means_none(self):
        assert collapse_operators(SystemParams.from_khz(80, 80, 475)) == []

    def test_t1_only(self):
        p = SystemParams.from_khz(80, 80, 475, t1=(100.0, None, None))
        ops = collapse_operators(p)
        assert len(ops) == 1
        # rate sqrt(1/T1) on the S1 annihilator
        dims = p.dims
        amp = ops[0].elements[dims.flat_index((0, 0, 0)), dims.flat_index((1, 0, 0))]
        assert amp == pytest.approx(np.sqrt(1.0 / 100.0))

    def test_thermal_adds_excitation(self):
        p = SystemParams.from_khz(80, 80, 475, t1=(100.0, None, None), n_th=(0.05, 0, 0))
        assert len(collapse_operators(p)) == 2

    def test_dephasing_operator(self):
        p = SystemParams.from_khz(80, 80, 475, tphi=(None, 50.0, None))
        ops = collapse_operators(p)
        assert len(ops) == 1
        dims = p.dims
        amp = ops[0].elements[dims.flat_index((0, 2, 0)), dims.flat_index((0, 2, 0))]
        assert amp == pytest.approx(2 * np.sqrt(2.0 / 50.0))

    def test_with_cavity_decoherence(self):
        p = with_cavity_decoherence(SystemParams.from_khz(80, 80, 475))
        assert p.t1 == CAVITY_T1_US
        assert len(collapse_operators(p)) == 3
