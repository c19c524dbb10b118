from functools import partial, reduce

import numpy as np
import pytest

from exfree.errors import InvalidParameterError, RegimeError
from exfree import dynamics, fock
from exfree.dynamics import EvolutionSpec
from exfree.experiments import run_single_photon_qst
from exfree.fock import ModeDims, OperatorMatrix, fock_state, ladder_op
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


@pytest.mark.parametrize(
    "per_mode",
    [
        {"t1": (np.nan, None, None)},
        {"t1": (None, np.inf, None)},
        {"tphi": (None, None, np.nan)},
        {"n_th": (np.nan, 0.0, 0.0)},
        {"n_th": (0.0, np.inf, 0.0)},
    ],
    ids=["t1-nan", "t1-inf", "tphi-nan", "n_th-nan", "n_th-inf"],
)
def test_coherence_inputs_must_be_finite(per_mode):
    # a NaN passed the sign checks and hung the Lindblad integrator
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


def _kron_reference(p: SystemParams) -> list[np.ndarray]:
    """Dense references for the pair couplings S1S2 and S3S2, the detuning,
    H_full, H_eff, the exchange baseline and then the collapse operators in
    mode order, each a sum of np.kron products of single-mode matrices."""
    a = [np.diag(np.sqrt(np.arange(1.0, n)), k=1) for n in p.dims]
    num = [np.diag(np.arange(float(n))) for n in p.dims]

    def kron(by_mode: dict) -> np.ndarray:
        return reduce(np.kron, [by_mode.get(k, np.eye(n)) for k, n in enumerate(p.dims)])

    def pair(x, g):
        return g * (kron({x: a[x].T, 1: a[1].T}) + kron({x: a[x], 1: a[1]}))

    def hop(x, g):
        return g * (kron({x: a[x].T, 1: a[1]}) + kron({x: a[x], 1: a[1].T}))

    detune = p.delta * kron({1: num[1]})
    g_eff = p.g1 * p.g2 / p.delta
    out = [
        pair(0, p.g1),
        pair(2, p.g2),
        detune,
        pair(0, p.g1) + pair(2, p.g2) + detune,
        g_eff * (kron({0: a[0].T, 2: a[2]}) + kron({0: a[0], 2: a[2].T})),
        hop(0, p.g1) + hop(2, p.g2) + detune,
    ]
    for k in range(3):
        t1, nth, tphi = p.t1[k], p.n_th[k], p.tphi[k]
        if t1 is not None:
            out.append(float(np.sqrt((1.0 + nth) / t1)) * kron({k: a[k]}))
            if nth > 0:
                out.append(float(np.sqrt(nth / t1)) * kron({k: a[k].T}))
        if tphi is not None:
            out.append(float(np.sqrt(2.0 / tphi)) * kron({k: num[k]}))
    return out


class TestHamiltonians:
    @pytest.fixture()
    def params(self):
        return SystemParams.from_khz(80, 80, 475)

    @pytest.mark.parametrize("pair", ["S1S3", "S2S1", ""])
    def test_unknown_pump_pair_refused(self, params, pair):
        with pytest.raises(InvalidParameterError,
                           match=f"^pair must be 'S1S2' or 'S3S2', got '{pair}'$"):
            build_h_tms(params, pair)

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
        n_tot = sum(ladder_op(params.dims, {k: "n"}).elements for k in range(3))
        h = build_h_bs_reference(params).elements
        assert np.allclose(h @ n_tot, n_tot @ h)

    def test_eff_matches_product_over_delta(self, params):
        dims = params.dims
        h = build_h_eff(params).elements
        amp = h[dims.flat_index((1, 0, 0)), dims.flat_index((0, 0, 1))]
        assert amp == pytest.approx(params.g1 * params.g2 / params.delta)

    def test_builders_match_embedded_products(self):
        # asymmetric dims and couplings expose a wrong kron order; every
        # entry is a product of the same matrix elements, so equality is exact
        for dims in [(2, 2, 2), (3, 2, 3), (5, 7, 4), (6, 5, 6)]:
            p = SystemParams.from_khz(80, 60, 475, dims=dims, t1=(20.0, 15.0, 25.0),
                                      tphi=(30.0, None, 40.0), n_th=(0.05, 0.0, 0.1))
            built = [build_h_tms(p, "S1S2"), build_h_tms(p, "S3S2"), build_h_detune(p),
                     build_h_full(p), build_h_eff(p), build_h_bs_reference(p),
                     *collapse_operators(p)]
            expect = _kron_reference(p)
            assert len(built) == len(expect) == 13
            for k, (got, want) in enumerate(zip(built, expect)):
                assert np.array_equal(got.elements, want), (dims, k)

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


def _chained_ladder_op(dims: ModeDims, factors: dict) -> OperatorMatrix:
    """One ladder product as it was built before `ladder_sum`: real matrix
    elements, canonicalized on their own."""
    occ = np.indices(dims.dims).reshape(dims.n_modes, -1)
    shifted, vals = occ.copy(), np.ones(dims.total)
    for mode, factor in sorted(factors.items()):
        shift, element = fock._LADDER[factor]
        shifted[mode] += shift
        vals *= element(occ[mode])
    inside = np.all((shifted >= 0) & (shifted < np.array(dims.dims)[:, None]), axis=0)
    rows = np.ravel_multi_index(tuple(shifted[:, inside]), dims.dims)
    return OperatorMatrix((rows, np.flatnonzero(inside), vals[inside]), dims)


def _chained_sum(*ops: OperatorMatrix) -> OperatorMatrix:
    """a + b + ... of the former operator algebra: each + canonicalizes the
    concatenated triplets."""
    return reduce(lambda a, b: OperatorMatrix(
        tuple(np.concatenate(pair) for pair in zip((a.rows, a.cols, a.vals),
                                                   (b.rows, b.cols, b.vals))), a.dims), ops)


def _chained_scale(c, op: OperatorMatrix) -> OperatorMatrix:
    return OperatorMatrix((op.rows, op.cols, op.vals * c), op.dims)


def _chained_hermitian(c, op: OperatorMatrix) -> OperatorMatrix:
    """c * (op + op.dag) of the former operator algebra."""
    return _chained_scale(c, _chained_sum(op, OperatorMatrix((op.cols, op.rows, op.vals.conj()),
                                                             op.dims)))


def _chained_builders(p: SystemParams) -> list[OperatorMatrix]:
    """The six builders and the collapse operators, in the order of
    `_kron_reference`, as the chains of +, * and dag they were before each
    became one `ladder_sum`."""
    lad = partial(_chained_ladder_op, p.dims)
    tms1 = _chained_hermitian(p.g1, lad({0: "a", 1: "a"}))
    tms3 = _chained_hermitian(p.g2, lad({2: "a", 1: "a"}))
    detune = _chained_scale(p.delta, lad({1: "n"}))
    out = [
        tms1, tms3, detune, _chained_sum(tms1, tms3, detune),
        _chained_hermitian(p.g1 * p.g2 / p.delta, lad({0: "adag", 2: "a"})),
        _chained_sum(_chained_hermitian(p.g1, lad({0: "adag", 1: "a"})),
                     _chained_hermitian(p.g2, lad({2: "adag", 1: "a"})), detune),
    ]
    for k in range(3):
        t1, nth, tphi = p.t1[k], p.n_th[k], p.tphi[k]
        if t1 is not None:
            out.append(_chained_scale(float(np.sqrt((1.0 + nth) / t1)), lad({k: "a"})))
            if nth > 0:
                out.append(_chained_scale(float(np.sqrt(nth / t1)), lad({k: "adag"})))
        if tphi is not None:
            out.append(_chained_scale(float(np.sqrt(2.0 / tphi)), lad({k: "n"})))
    return out


def _same_bits(got: OperatorMatrix, want: OperatorMatrix) -> bool:
    """Equal triplets, bit for bit: dtypes, order and the signs of zeros."""
    pairs = zip((got.rows, got.cols, got.vals), (want.rows, want.cols, want.vals))
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in pairs)


#: Unequal couplings, both signs of the detuning, and T1, thermal and Tphi
#: collapse operators.
_PINNED = [
    SystemParams.from_khz(80, 60, delta, dims=dims, t1=(20.0, 15.0, 25.0),
                          tphi=(30.0, None, 40.0), n_th=(0.05, 0.0, 0.1))
    for dims in [(2, 2, 2), (3, 2, 3), (6, 5, 6)] for delta in (475, -475)
]


class TestOneCanonicalization:
    """Each operator is one `ladder_sum`, bit for bit the chain of +, * and
    dag it replaces, and sorted once."""

    @pytest.mark.parametrize("p", _PINNED, ids=lambda p: f"{p.dims.dims}-{p.delta:+.3g}")
    def test_builders_equal_the_chained_form(self, p):
        built = [build_h_tms(p, "S1S2"), build_h_tms(p, "S3S2"), build_h_detune(p),
                 build_h_full(p), build_h_eff(p), build_h_bs_reference(p),
                 *collapse_operators(p)]
        chained = _chained_builders(p)
        assert len(built) == len(chained) == 13
        for k, (got, want) in enumerate(zip(built, chained)):
            assert _same_bits(got, want), k

    @pytest.mark.parametrize("p", _PINNED[:4], ids=lambda p: f"{p.dims.dims}-{p.delta:+.3g}")
    def test_lindblad_generator_equals_the_chained_form(self, p, monkeypatch):
        # K = -iH - sum_c c^dag c / 2 as _lindblad_blocks hands it on
        seen = []
        assemble = dynamics._assemble
        monkeypatch.setattr(dynamics, "_assemble", lambda K, *a: seen.append(K) or assemble(K, *a))
        H, cs = build_h_full(p), collapse_operators(p)
        start = fock_state(p.dims, (1, 0, 0)).amplitudes
        next(dynamics._lindblad_blocks(H, cs, [np.flatnonzero(np.outer(start, start))]))
        want = _chained_scale(-1j, H)
        for c in cs:
            e, f = dynamics._row_entries(c, c.rows)
            cdc = (c.cols[e], c.cols[f], -0.5 * c.vals[e].conj() * c.vals[f])
            want = _chained_sum(want, OperatorMatrix(cdc, H.dims))
        assert _same_bits(seen[0], want)

    def test_canonicalization_count(self, monkeypatch):
        calls = []
        canonical = fock._canonical
        monkeypatch.setattr(fock, "_canonical", lambda *a: calls.append(a) or canonical(*a))
        p = SystemParams.from_khz(80, 80, 475, dims=(3, 2, 3))  # the runner's oracle needs g1 = g2
        H = build_h_full(p)
        assert len(calls) == 1
        assert H.is_hermitian(tol=1e-12) and len(calls) == 1  # builds no operator
        times = (0.0, 1.0, 2.0)
        calls.clear()
        run_single_photon_qst(p, EvolutionSpec(2.0, sample_times=times))
        assert len(calls) == 1  # the exact job sorts H once
        calls.clear()
        run_single_photon_qst(p, EvolutionSpec(2.0, "trotter", 0.5, sample_times=times))
        assert len(calls) == 3  # one per split-step factor
