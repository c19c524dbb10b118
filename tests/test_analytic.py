import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exfree.analytic import (
    bs_reference_timing,
    g_eff,
    heisenberg_coeffs,
    mean_photon_numbers,
    n2_amplitude,
    omega,
    sweet_point_detuning,
    sweet_point_detuning_numeric,
    tau_s2,
    tau_st,
    timing_ratio,
    tmsv_joint_population,
)
from exfree.errors import InvalidParameterError, RegimeError
from exfree.model import REGIME_FACTOR, SystemParams, angular_to_khz


def params_khz(delta, g=80.0):
    return SystemParams.from_khz(g, g, delta)


class TestTimescales:
    # frozen oracle values, computed once from the closed forms
    @pytest.mark.parametrize(
        "delta,omega_khz,t_st,t_s2",
        [
            (475, 147.65881280844704, 17.434417799906864, 2.394394102652898),
            (575, 186.89067659998454, 21.554817559718085, 1.8917658014049001),
            (675, 224.84022104596860, 25.604378514459928, 1.5724650551779600),
            (775, 262.06511595403150, 29.613907859651200, 1.3491051233819689),
        ],
    )
    def test_frozen_values(self, delta, omega_khz, t_st, t_s2):
        p = params_khz(delta)
        assert angular_to_khz(omega(p)) == pytest.approx(omega_khz, rel=1e-12)
        assert tau_st(p) == pytest.approx(t_st, rel=1e-12)
        assert tau_s2(p) == pytest.approx(t_s2, rel=1e-12)

    def test_ratio_consistency(self):
        p = params_khz(475)
        assert timing_ratio(p) == pytest.approx(tau_st(p) / tau_s2(p), rel=1e-12)

    def test_below_regime_raises(self):
        with pytest.raises(RegimeError):
            tau_st(params_khz(200))

    def test_asymmetric_couplings_rejected(self):
        p = SystemParams.from_khz(80, 90, 475)
        with pytest.raises(InvalidParameterError):
            omega(p)


class TestHeisenbergCoefficients:
    def test_initial_condition_is_identity(self):
        cs = heisenberg_coeffs(params_khz(475), 0.0)
        assert cs.c11 == pytest.approx(1.0)
        assert cs.c22 == pytest.approx(1.0)
        assert abs(cs.c12) < 1e-14
        assert abs(cs.c31) < 1e-14

    def test_perfect_swap_at_sweet_point(self):
        g = params_khz(475).g1
        p = SystemParams(g1=g, g2=g, delta=sweet_point_detuning(g, 7))
        cs = heisenberg_coeffs(p, tau_st(p))
        assert cs.c31 == pytest.approx(-1.0, abs=1e-9)
        assert abs(cs.c11) < 1e-9
        assert abs(cs.c21) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bogoliubov_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.1, 1.0)
        delta = g * REGIME_FACTOR * rng.uniform(1.05, 8.0)
        t = rng.uniform(0.0, 50.0)
        cs = heisenberg_coeffs(SystemParams(g1=g, g2=g, delta=delta), t)
        d1, d2 = cs.bogoliubov_defects()
        assert d1 < 1e-10
        assert d2 < 1e-10

    def test_mean_photons_complete_transfer(self):
        g = params_khz(475).g1
        p = SystemParams(g1=g, g2=g, delta=sweet_point_detuning(g, 4))
        n1, n2, n3 = mean_photon_numbers(p, tau_st(p))
        assert n1 == pytest.approx(0.0, abs=1e-12)
        assert n2 == pytest.approx(0.0, abs=1e-12)
        assert n3 == pytest.approx(1.0, abs=1e-12)

    def test_mean_photons_initially_unexcited(self):
        n1, n2, n3 = mean_photon_numbers(params_khz(475), 0.0, n1_0=3)
        assert (n1, n2, n3) == (3.0, 0.0, 0.0)

    def test_vacuum_still_leaks_into_bus(self):
        # pair creation populates the bus even from vacuum (n1_0 = 0)
        p = params_khz(475)
        _, n2, _ = mean_photon_numbers(p, 0.5 * tau_s2(p), n1_0=0)
        assert n2 > 0.01


class TestSweetPoints:
    @pytest.mark.parametrize(
        "k,delta_khz", [(4, 377.1236166328254), (7, 467.3899157377418)]
    )
    def test_frozen_values(self, k, delta_khz):
        g = params_khz(475).g1
        assert angular_to_khz(sweet_point_detuning(g, k)) == pytest.approx(
            delta_khz, rel=1e-12
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 10, 20])
    def test_closed_form_matches_root_find(self, k):
        g = params_khz(475).g1
        closed = sweet_point_detuning(g, k)
        numeric = sweet_point_detuning_numeric(g, k)
        assert closed == pytest.approx(numeric, rel=1e-9)

    @pytest.mark.parametrize("k", [4, 7])
    def test_ratio_is_integer_at_sweet_point(self, k):
        g = params_khz(475).g1
        p = SystemParams(g1=g, g2=g, delta=sweet_point_detuning(g, k))
        assert timing_ratio(p) == pytest.approx(k, rel=1e-12)

    def test_near_device_operating_points(self):
        g = params_khz(475).g1
        assert angular_to_khz(sweet_point_detuning(g, 4)) == pytest.approx(373, rel=0.02)
        assert angular_to_khz(sweet_point_detuning(g, 7)) == pytest.approx(463, rel=0.02)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            sweet_point_detuning(-1.0, 4)
        with pytest.raises(InvalidParameterError):
            sweet_point_detuning(0.5, 0)


class TestAuxiliaryQuantities:
    def test_g_eff(self):
        p = params_khz(475)
        assert g_eff(p) == pytest.approx(p.g1 * p.g2 / p.delta)

    def test_tmsv_distribution_normalizes(self):
        r = 0.8
        total = sum(tmsv_joint_population(r, n) for n in range(200))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_tmsv_vacuum_limit(self):
        assert tmsv_joint_population(0.0, 0) == 1.0
        assert tmsv_joint_population(0.0, 3) == 0.0

    def test_n2_amplitude_decreases_with_detuning(self):
        amps = [n2_amplitude(params_khz(d)) for d in (475, 575, 675, 775)]
        assert all(a > b for a, b in zip(amps, amps[1:]))

    def test_bs_reference_zero_detuning(self):
        g = params_khz(475).g1
        t_swap, leak = bs_reference_timing(SystemParams(g1=g, g2=g, delta=0.0))
        assert t_swap == pytest.approx(np.pi / (np.sqrt(2.0) * g), rel=1e-12)
        assert leak == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: mean_photon_numbers(params_khz(475), 1.0, n1_0=-1),
             "initial photon number must be nonnegative"),
            (lambda: sweet_point_detuning_numeric(0.0, 4), "need g > 0 and k >= 1"),
            (lambda: sweet_point_detuning_numeric(0.5, 0), "need g > 0 and k >= 1"),
            (lambda: g_eff(SystemParams(g1=0.5, g2=0.5, delta=0.0)),
             "g_eff undefined at delta = 0"),
            (lambda: tmsv_joint_population(-0.1, 0), "squeezing degree must be nonnegative"),
            (lambda: tmsv_joint_population(0.5, -1), "photon number must be nonnegative"),
            (lambda: bs_reference_timing(SystemParams(g1=0.5, g2=0.5, delta=-1.0)),
             "delta must be nonnegative for the comparison"),
        ],
        ids=["negative-photons", "numeric-sweet-g", "numeric-sweet-k", "g-eff-resonant",
             "negative-squeezing", "negative-n", "negative-exchange-detuning"],
    )
    def test_invalid_inputs(self, call, message):
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            call()

    def test_bs_has_no_regime_restriction(self):
        # the exchange baseline works below the pair-coupling threshold
        t_swap, _ = bs_reference_timing(params_khz(100))
        assert t_swap > 0
