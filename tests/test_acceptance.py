"""Acceptance suite: one test per numbered criterion, each emitting a single
PASS/FAIL line with the measured numbers.

Criterion 1 compares the exact propagation with the untruncated closed-form
oracle, so it is run at a truncation where the propagation can meet the
1e-4 bound: (12, 12, 12).  At the default (6, 5, 6) no truncated propagator
can, and the error is truncation, not implementation: there the exact path
agrees with an independent `scipy.linalg.expm` to 6e-14, and at 475 kHz up
to 3e-3 of the population sits in a top Fock level.  The error against the
oracle (max over 200 samples in [0, 2 tau_ST] from |100>) falls
geometrically with the truncation:

    delta/2pi   (6,5,6)   (8,7,8)   (10,9,10)  (12,12,12)
    475 kHz     7.31e-2   1.07e-2   1.37e-3    3.82e-5
    675 kHz     1.24e-2   4.05e-4   9.73e-6    3.53e-8
    775 kHz     4.97e-3   9.16e-5   1.29e-6    2.00e-9

(12, 12, 12) is the smallest of these that meets the bound at every
detuning.  The criterion's report line also prints the (6, 5, 6) errors,
without asserting on them, so the truncation effect stays visible.  The
companion test afterwards repeats the comparison at the smallest converged
truncation per detuning.
"""

import time

import numpy as np
import pytest

from exfree.analytic import (
    heisenberg_coeffs,
    mean_photon_numbers,
    sweet_point_detuning,
    sweet_point_detuning_numeric,
    tau_st,
)
from exfree.calibration import (
    bus_period_model,
    fit_stark_detuning,
    fit_tms_strength,
    generate_tmsv_trace,
)
from exfree.dynamics import EvolutionSpec, evolve_trotter, evolve_unitary
from exfree.experiments import (
    cavity_decoherence_ablation,
    combined_budget_fidelity,
    compare_tms_vs_bs,
    run_binomial_transfer,
    run_hom,
    run_single_photon_qst,
)
from exfree.fock import ModeDims, fock_state, ladder_sum, mode_populations
from exfree.model import (
    REGIME_FACTOR,
    SystemParams,
    angular_to_khz,
    build_h_full,
    with_cavity_decoherence,
)

G_KHZ = 80.0
G = SystemParams.from_khz(G_KHZ, G_KHZ, 475.0).g1


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'}: {detail}")


def _oracle_error(delta_khz: float, dims) -> tuple[float, float]:
    """(max |numeric - analytic| mean photon number, runtime in s)."""
    p = SystemParams.from_khz(G_KHZ, G_KHZ, delta_khz, dims=dims)
    start = time.perf_counter()
    psi = fock_state(p.dims, (1, 0, 0))
    worst = 0.0
    times = np.linspace(0.0, 2.0 * tau_st(p), 200)
    for t, state in zip(times, evolve_unitary(build_h_full(p), psi, times)):
        expect = np.asarray(mean_photon_numbers(p, t))
        worst = max(worst, float(np.max(np.abs(mode_populations(state) - expect))))
    return worst, time.perf_counter() - start


def test_criterion_01_oracle_equivalence_at_stated_dims():
    errors = {}
    runtimes = {}
    for delta in (475.0, 675.0, 775.0):
        errors[delta], runtimes[delta] = _oracle_error(delta, (12, 12, 12))
    default_dims = {d: _oracle_error(d, (6, 5, 6))[0] for d in errors}
    worst = max(errors.values())
    passed = worst <= 1e-4 and max(runtimes.values()) < 10.0
    report(
        1,
        passed,
        "exact vs analytic at dims (12,12,12), max errors "
        + ", ".join(f"{d:.0f} kHz: {e:.2e}" for d, e in errors.items())
        + f" (bound 1e-4; runtimes <= {max(runtimes.values()):.1f} s); "
        "unconverged default dims (6,5,6), not asserted: "
        + ", ".join(f"{d:.0f} kHz: {e:.2e}" for d, e in default_dims.items()),
    )
    assert max(runtimes.values()) < 10.0
    assert worst <= 1e-4, (
        f"exact propagation at (12,12,12) misses the oracle by {worst:.2e} > 1e-4; "
        "(12,12,12) is the smallest truncation whose error (3.8e-5 at 475 kHz) "
        "meets the bound at all three detunings"
    )


def test_criterion_01_companion_converged_truncation():
    cases = {475.0: (12, 12, 12), 675.0: (10, 9, 10), 775.0: (10, 9, 10)}
    errors = {d: _oracle_error(d, dims)[0] for d, dims in cases.items()}
    worst = max(errors.values())
    report(
        1,
        worst <= 1e-4,
        "companion at converged truncations, max errors "
        + ", ".join(f"{d:.0f} kHz: {e:.2e}" for d, e in errors.items()),
    )
    assert worst <= 1e-4


def test_criterion_02_bogoliubov_invariants():
    rng = np.random.default_rng(20240824)
    worst = 0.0
    for _ in range(100):
        g = rng.uniform(0.1, 1.0)
        delta = g * REGIME_FACTOR * rng.uniform(1.05, 8.0)
        t = rng.uniform(0.0, 50.0)
        cs = heisenberg_coeffs(SystemParams(g1=g, g2=g, delta=delta), t)
        worst = max(worst, *cs.bogoliubov_defects())
    passed = worst < 1e-10
    report(2, passed, f"100 random in-regime draws, max invariant defect {worst:.2e}")
    assert passed


def test_criterion_03_swap_times():
    results = {}
    for delta, nominal in ((475.0, 17.4), (775.0, 30.0)):
        p = SystemParams.from_khz(G_KHZ, G_KHZ, delta)
        analytic = tau_st(p)
        total = 20.0 * analytic
        spec = EvolutionSpec(
            total_time=total, sample_times=tuple(np.linspace(0.0, total, 4096))
        )
        est = run_single_photon_qst(p, spec).scalars["swap_time_estimate"]
        results[delta] = (analytic, est, nominal)
    ok_nominal = all(abs(a - nom) / nom < 0.02 for a, _, nom in results.values())
    ok_traj = all(abs(e - a) / a < 0.005 for a, e, _ in results.values())
    passed = ok_nominal and ok_traj
    report(
        3,
        passed,
        "tau_ST "
        + ", ".join(
            f"{d:.0f} kHz: analytic {a:.3f} us vs trajectory {e:.3f} us (nominal {n})"
            for d, (a, e, n) in results.items()
        ),
    )
    assert passed


def test_criterion_04_sweet_points():
    numeric = {k: angular_to_khz(sweet_point_detuning_numeric(G, k)) for k in (4, 7)}
    closed = {k: angular_to_khz(sweet_point_detuning(G, k)) for k in (4, 7)}
    ok_device = abs(numeric[4] - 373) / 373 < 0.02 and abs(numeric[7] - 463) / 463 < 0.02
    ok_match = all(
        abs(closed[k] - numeric[k]) / numeric[k] < 1e-9 for k in (4, 7)
    )
    passed = ok_device and ok_match
    report(
        4,
        passed,
        f"root-find k=4: {numeric[4]:.2f} kHz (vs 373), k=7: {numeric[7]:.2f} kHz "
        f"(vs 463); closed form agrees to {max(abs(closed[k]-numeric[k]) for k in (4,7)):.1e} kHz",
    )
    assert passed


def test_criterion_05_trotter_convergence():
    p = SystemParams.from_khz(G_KHZ, G_KHZ, 475.0)
    t = tau_st(p)
    psi = fock_state(p.dims, (1, 0, 0))
    (exact,) = evolve_unitary(build_h_full(p), psi, (t,))
    errs = []
    for n in (250, 500, 1000, 2000, 4000):
        approx = evolve_trotter(p, psi, [t], t / n)[0]
        errs.append(float(np.linalg.norm(approx.amplitudes - exact.amplitudes)))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    passed = all(1.5 <= r <= 3.0 for r in ratios)
    report(5, passed, "halving-dt error ratios " + ", ".join(f"{r:.2f}" for r in ratios))
    assert passed


def test_criterion_06_two_photon_interference():
    p = SystemParams.from_khz(G_KHZ, G_KHZ, 775.0)
    total = 2.0 * tau_st(p)
    spec = EvolutionSpec(
        total_time=total, sample_times=tuple(np.linspace(0.0, total, 101))
    )
    s = run_hom(p, spec).scalars
    checks = {
        "P11": s["P11"] <= 0.02,
        "bunching": s["P20"] + s["P02"] >= 0.96,
        "fidelity": s["fidelity"] >= 0.98,
        "negativity": abs(s["negativity"] - 0.5) <= 0.01,
    }
    passed = all(checks.values())
    report(
        6,
        passed,
        f"P11 {s['P11']:.4f}, P20+P02 {s['P20']+s['P02']:.4f}, "
        f"fidelity {s['fidelity']:.4f}, negativity {s['negativity']:.4f}",
    )
    assert passed


def test_criterion_07_error_budget():
    combined = combined_budget_fidelity()
    p = SystemParams.from_khz(G_KHZ, G_KHZ, 373.0)
    ablation = cavity_decoherence_ablation(p, rtol=1e-6)
    share = ablation["cavity_infidelity"]
    ok_budget = abs(combined - 0.799) <= 0.005
    ok_ablation = abs(share - 0.042) <= 0.015
    passed = ok_budget and ok_ablation
    report(
        7,
        passed,
        f"combined budget F {combined:.4f} (target 0.799 +/- 0.005); "
        f"cavity ablation {share*100:.2f}% (target 4.2 +/- 1.5%)",
    )
    assert passed


def test_criterion_08_binomial_code():
    delta = sweet_point_detuning(G, 7)
    ideal = SystemParams(g1=G, g2=G, delta=delta, dims=ModeDims((11, 9, 11)))
    fids = {}
    for label in ("0L", "+iL"):
        fids[label] = run_binomial_transfer(ideal, label=label).scalars[
            "fidelity_received"
        ]
        fids[label + "+loss"] = run_binomial_transfer(
            ideal, label=label, loss_after_transfer=True
        ).scalars["fidelity_odd_error"]
    noisy = with_cavity_decoherence(
        SystemParams(g1=G, g2=G, delta=delta, dims=ModeDims((6, 5, 6)))
    )
    spec = EvolutionSpec(total_time=tau_st(noisy), method="lindblad", rtol=1e-6)
    dec = run_binomial_transfer(noisy, label="0L", spec=spec).scalars
    ordering = dec["fidelity_even"] > dec["fidelity_received"]
    passed = all(f >= 0.99 for f in fids.values()) and ordering
    report(
        8,
        passed,
        "ideal " + ", ".join(f"{k}: {v:.4f}" for k, v in fids.items())
        + f"; decohered even {dec['fidelity_even']:.4f} > "
        f"unconditioned {dec['fidelity_received']:.4f}",
    )
    assert passed


def test_criterion_09_calibration_roundtrips():
    # pair strength
    t = np.linspace(0.0, 4.0, 64)
    fit_g = fit_tms_strength(t, generate_tmsv_trace(G, t))
    g_rel = abs(fit_g.estimates["g"] - G) / G

    # Stark shift, 275 kHz ground truth
    from exfree.model import khz_to_angular

    d0 = khz_to_angular(275.0)
    dd = np.array([khz_to_angular(x) for x in (100, 200, 300, 400, 500)])
    fit_d0 = fit_stark_detuning(dd, bus_period_model(dd, d0, G), G)
    d0_rel = abs(fit_d0.estimates["delta_0"] - d0) / d0

    # vacuum-return probability vs a direct two-mode simulation
    dims = ModeDims((18, 18))
    h = ladder_sum(dims, [(G, {0: "adag", 1: "adag"}), (G, {0: "a", 1: "a"})])
    vac = fock_state(dims, (0, 0))
    worst_p0 = 0.0
    gts = np.linspace(0.0, 1.0, 21)
    for gt, psi in zip(gts, evolve_unitary(h, vac, gts / G)):
        probs = np.abs(psi.amplitudes) ** 2
        p0 = probs.reshape(18, 18)[0, :].sum()
        worst_p0 = max(worst_p0, abs(p0 - 1.0 / np.cosh(gt) ** 2))

    passed = g_rel < 1e-3 and d0_rel < 0.02 and worst_p0 < 1e-3
    report(
        9,
        passed,
        f"g recovered to {g_rel:.2e} rel (bound 1e-3), delta_0 to {d0_rel:.2e} rel "
        f"(bound 2e-2), P0 sim mismatch {worst_p0:.2e} (bound 1e-3)",
    )
    assert passed


def test_criterion_10_pair_vs_exchange_baseline():
    deltas = [G * x for x in (3.0, 4.0, 5.0, 8.0, 12.0, 20.0, 50.0)]
    rows = compare_tms_vs_bs(G, deltas).tables["rows"]["data"]
    ok_order = all(
        r["tau_pair"] < r["tau_exchange"] and r["leak_pair"] > r["leak_exchange"]
        for r in rows
    )
    last = rows[-1]
    ok_limit = abs(last["tau_ratio"] - 1.0) < 0.01 and abs(last["leak_ratio"] - 1.0) < 0.01
    passed = ok_order and ok_limit
    report(
        10,
        passed,
        f"ordering holds on {len(rows)} detunings; at delta/g=50 ratios "
        f"tau {last['tau_ratio']:.4f}, leakage {last['leak_ratio']:.4f}",
    )
    assert passed
