"""The benchmark's workloads: fixed job lists and their correctness checks.

Every workload is a closed loop with one client: the worker runs the jobs
in order and starts the next when the previous one ends.  Operating points
and truncations are fixed, so problem size never depends on the seed; the
seed drives only inputs with a free choice (calibration noise).  The
library is always reached through module attributes (`experiments.run_hom`)
so the traced pass sees the wrapped functions.  README.md says why each
workload exists.
"""

from __future__ import annotations

import functools
import itertools
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from exfree import analytic, calibration, dynamics, experiments, model

import checks as ref
import tracing
from checks import Check, deviation

G_KHZ = 80.0
#: Wall-clock cap on one CLI process.
CLI_TIMEOUT_S = 120
CLI_ENTRY = "import sys; from exfree.cli import main; sys.exit(main())"
SHIM = Path(__file__).with_name("cli_shim.py")


@dataclass
class Job:
    """One unit of work: `run` is timed, `check` is not.

    `traced_run` replaces `run` in the traced pass when the job's work
    happens in another process that must install the wrappers itself.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[Check]]
    traced_run: Optional[Callable[[object], object]] = None


def _params(delta_khz, dims) -> model.SystemParams:
    return model.SystemParams.from_khz(G_KHZ, G_KHZ, delta_khz, dims=dims)


def _grid_spec(total, n, **kw):
    times = np.linspace(0.0, total, n)
    return times, dynamics.EvolutionSpec(total_time=total, sample_times=tuple(times), **kw)


# ------------------------------------------------------------- unitary jobs


def qst_job(delta_khz, dims, n_samples) -> Job:
    """|100> transfer on the exact path, checked against the analytic
    oracle (1e-4) and an independent expm_multiply trajectory (1e-10)."""
    p = _params(delta_khz, dims)
    times, spec = _grid_spec(2.0 * analytic.tau_st(p), n_samples)

    @functools.cache
    def reference():
        oracle = np.array([analytic.mean_photon_numbers(p, t) for t in times])
        H = ref.hamiltonian(p.g1, p.g2, p.delta, dims)
        traj = ref.evolve_grid(H, ref.basis_state(dims, (1, 0, 0)), times)
        return oracle, ref.populations(traj, dims), traj[-1]

    def check(res):
        oracle, pops, final = reference()
        return [
            Check("oracle", deviation(res.populations, oracle), ref.ORACLE_TOL),
            Check("populations", deviation(res.populations, pops), ref.UNITARY_TOL),
            Check("final_state", deviation(res.states["final"].amplitudes, final),
                  ref.UNITARY_TOL),
        ]

    return Job(f"qst-{delta_khz:g}-{'x'.join(map(str, dims))}",
               lambda: experiments.run_single_photon_qst(p, spec), check)


def hom_job(delta_khz, dims, n_samples) -> Job:
    """|101> interference: joint photon statistics on the whole grid and the
    entangled state at tau_ST/2, against an independent propagation, plus
    the paper's criterion-06 claims."""
    p = _params(delta_khz, dims)
    tau = analytic.tau_st(p)
    times, spec = _grid_spec(2.0 * tau, n_samples)
    d13 = (dims[0], dims[2])

    @functools.cache
    def reference():
        H = ref.hamiltonian(p.g1, p.g2, p.delta, dims)
        psi0 = ref.basis_state(dims, (1, 0, 1))
        joint = (np.abs(ref.evolve_grid(H, psi0, times)) ** 2).reshape(
            (len(times), *dims)).sum(axis=2)
        rho13 = ref.reduced_from_pure(ref.evolve_grid(H, psi0, [0.5 * tau])[0], dims, [0, 2])
        target = (ref.basis_state(d13, (0, 2)) + 1j * ref.basis_state(d13, (2, 0))) / np.sqrt(2)
        occ0 = np.indices(d13)[0].ravel()
        return {
            "P11": joint[:, 1, 1], "P20": joint[:, 2, 0], "P02": joint[:, 0, 2],
            "rho13": rho13,
            "fidelity": ref.phase_optimized_fidelity(rho13, target, occ0),
            "negativity": ref.negativity_02(rho13, d13),
            "pauli": ref.pauli_table_02(rho13, d13),
        }

    def check(res):
        r = reference()
        s = res.scalars
        diag = np.real(np.diag(r["rho13"])).reshape(d13)
        out = [Check(f"series.{k}", deviation(res.series[k], r[k]), ref.UNITARY_TOL)
               for k in ("P11", "P20", "P02")]
        out += [
            Check("analysis_state", deviation(res.states["analysis"].elements, r["rho13"]),
                  ref.UNITARY_TOL),
            Check("analysis_probs", deviation([s["P11"], s["P20"], s["P02"]],
                                              [diag[1, 1], diag[2, 0], diag[0, 2]]),
                  ref.UNITARY_TOL),
            Check("fidelity", abs(s["fidelity"] - r["fidelity"]), ref.PHASE_OPT_TOL),
            Check("negativity", abs(s["negativity"] - r["negativity"]), ref.UNITARY_TOL),
            Check("pauli", max(abs(res.tables["pauli"][k] - v) for k, v in r["pauli"].items()),
                  ref.UNITARY_TOL),
            # criterion 06 of the paper
            Check("claim.P11", s["P11"], 0.02),
            Check("claim.unbunched", 1.0 - (s["P20"] + s["P02"]), 0.04),
            Check("claim.infidelity", 1.0 - s["fidelity"], 0.02),
            Check("claim.negativity", abs(s["negativity"] - 0.5), 0.01),
        ]
        return out

    return Job(f"hom-{delta_khz:g}-{'x'.join(map(str, dims))}",
               lambda: experiments.run_hom(p, spec), check)


def binomial_job(label, dims, wigner_points, extent=2.5) -> Job:
    """Binomial codeword transfer at the k=7 sweet point with Wigner maps of
    the received and target states; the maps are checked against the
    closed-form Laguerre sum and the received state against an independent
    propagation."""
    g = model.khz_to_angular(G_KHZ)
    p = model.SystemParams(g1=g, g2=g, delta=analytic.sweet_point_detuning(g, 7), dims=dims)
    axis = np.linspace(-extent, extent, wigner_points)
    alphas = axis[None, :] + 1j * axis[:, None]

    @functools.cache
    def reference():
        H = ref.hamiltonian(p.g1, p.g2, p.delta, dims)
        vac = [ref.basis_state((n,), (0,)) for n in dims[1:]]
        psi0 = np.kron(np.kron(ref.binomial_codeword(label, dims[0]), vac[0]), vac[1])
        psi = ref.evolve_grid(H, psi0, [analytic.tau_st(p)])[0]
        rho3 = ref.reduced_from_pure(psi, dims, [2])
        target = ref.binomial_codeword(label, dims[2])
        return rho3, ref.phase_optimized_fidelity(rho3, target, np.arange(dims[2])), target

    def check(res):
        rho3, fid, target = reference()
        return [
            Check("received_state", deviation(res.states["received"].elements, rho3),
                  ref.UNITARY_TOL),
            Check("fidelity_received", abs(res.scalars["fidelity_received"] - fid),
                  ref.PHASE_OPT_TOL),
            *ref.wigner_checks("wigner_received", res.states["received"].elements,
                               alphas, res.series["wigner_received"]),
            *ref.wigner_checks("wigner_target", np.outer(target, target.conj()),
                               alphas, res.series["wigner_target"]),
        ]

    return Job(f"binomial-{label}-{'x'.join(map(str, dims))}",
               lambda: experiments.run_binomial_transfer(
                   p, label=label, wigner_extent=extent, wigner_points=wigner_points),
               check)


def purified_job(delta_khz, dims) -> Job:
    """Exact purified-QST process fidelities against an independent channel."""
    p = _params(delta_khz, dims)

    @functools.cache
    def reference():
        prop = ref.unitary_propagator(ref.hamiltonian(p.g1, p.g2, p.delta, dims),
                                      analytic.tau_st(p))
        return (ref.transfer_fidelity(prop, dims, False),
                ref.transfer_fidelity(prop, dims, True))

    def check(res):
        raw, cond = reference()
        return [
            Check("fidelity_heralded", abs(res.scalars["fidelity_heralded"] - raw),
                  ref.UNITARY_TOL),
            Check("fidelity", abs(res.scalars["fidelity"] - cond), ref.UNITARY_TOL),
        ]

    return Job(f"purified-{delta_khz:g}-{'x'.join(map(str, dims))}",
               lambda: experiments.run_purified_qst(p), check)


# --------------------------------------------------------- open-system jobs


def ablation_job(delta_khz, dims, rtol) -> Job:
    """Cavity-decoherence ablation: 4 Lindblad matrix units plus one exact
    channel.  The Lindblad fidelity is checked against the benchmark's own
    sparse Liouvillian integrated with RK45 at rtol 1e-8."""
    p = _params(delta_khz, dims)

    @functools.cache
    def reference():
        H = ref.hamiltonian(p.g1, p.g2, p.delta, dims)
        t = analytic.tau_st(p)
        return (ref.transfer_fidelity(ref.unitary_propagator(H, t), dims, True),
                ref.transfer_fidelity(ref.lindblad_propagator(H, ref.cavity_collapse(dims), t),
                                      dims, True))

    def check(res):
        ideal, noisy = reference()
        return [
            Check("fidelity_without_decoherence",
                  abs(res["fidelity_without_decoherence"] - ideal), ref.UNITARY_TOL),
            Check("fidelity_with_decoherence",
                  abs(res["fidelity_with_decoherence"] - noisy), ref.LINDBLAD_TOL),
        ]

    return Job(f"ablation-{delta_khz:g}-{'x'.join(map(str, dims))}",
               lambda: experiments.cavity_decoherence_ablation(p, rtol=rtol), check)


def trotter_job(delta_khz, dims, steps_per_tau, n_samples) -> Job:
    """First-order split-step trajectory; samples sit an integer number of
    steps apart and are checked against the benchmark's own product of
    `expm` factors in the library's order (S1S2, S3S2, detuning)."""
    p = _params(delta_khz, dims)
    tau = analytic.tau_st(p)
    dt = tau / steps_per_tau
    times, spec = _grid_spec(2.0 * tau, n_samples, method="trotter", trotter_dt=dt)
    stride = int(round((times[1] - times[0]) / dt))

    @functools.cache
    def reference():
        from scipy.linalg import expm

        h12, h32, hdet = (h.toarray() for h in ref.hamiltonian_terms(p.g1, p.g2, p.delta, dims))
        step = expm(-1j * dt * h12) @ expm(-1j * dt * h32) @ expm(-1j * dt * hdet)
        jump = np.linalg.matrix_power(step, stride)
        v = ref.basis_state(dims, (1, 0, 0))
        states = []
        for _ in times:
            states.append(v)
            v = jump @ v
        return ref.populations(np.array(states), dims)

    def check(res):
        return [Check("populations", deviation(res.populations, reference()), ref.UNITARY_TOL)]

    return Job(f"trotter-{delta_khz:g}-{'x'.join(map(str, dims))}",
               lambda: experiments.run_single_photon_qst(p, spec), check)


# ---------------------------------------------------------- calibration jobs


def fit_tms_job(rng) -> Job:
    g = model.khz_to_angular(G_KHZ)
    t = np.linspace(0.0, 4.0, 64)
    p0 = 1.0 / np.cosh(g * t) ** 2 + rng.normal(0.0, 0.005, t.size)

    def check(fit):
        return [Check("converged", float(not fit.converged), 0.0),
                Check("g_rel_error", abs(fit.estimates["g"] - g) / g, 0.03)]

    return Job("fit-tms-strength", lambda: calibration.fit_tms_strength(t, p0), check)


def fit_stark_job(rng) -> Job:
    g = model.khz_to_angular(G_KHZ)
    d0 = model.khz_to_angular(275.0)
    dd = np.array([model.khz_to_angular(x) for x in (100.0, 200.0, 300.0, 400.0, 500.0)])
    tau = 2.0 * np.pi / np.sqrt((dd + d0) ** 2 - 8.0 * g**2)
    tau = tau * (1.0 + rng.normal(0.0, 1e-3, tau.size))

    def check(fit):
        return [Check("converged", float(not fit.converged), 0.0),
                Check("delta0_rel_error", abs(fit.estimates["delta_0"] - d0) / d0, 0.01)]

    return Job("fit-stark-detuning", lambda: calibration.fit_stark_detuning(dd, tau, g), check)


DAMPED_TRUTH = {"tau1": 25.0, "tau_phi": 12.0, "omega": 2.0 * np.pi * 0.25,
                "amplitude": 0.4, "offset": 0.1}


def fit_damped_job(rng) -> Job:
    tr = DAMPED_TRUTH
    t = np.linspace(0.0, 30.0, 240)
    y = tr["offset"] + tr["amplitude"] * np.exp(-t / tr["tau1"]) * (
        1.0 + np.exp(-t / tr["tau_phi"]) * np.cos(tr["omega"] * t))
    y = y + rng.normal(0.0, 0.001, t.size)

    def check(fit):
        est = dict(fit.estimates)
        est["omega"] = abs(est.get("omega", np.nan))  # cos is even in omega
        worst = max(abs(est.get(k, np.nan) - v) / abs(v) for k, v in tr.items())
        return [Check("converged", float(not fit.converged), 0.0),
                Check("max_rel_error", worst, 0.05)]

    return Job("fit-damped-oscillation", lambda: calibration.fit_damped_oscillation(t, y), check)


# ------------------------------------------------------------------ CLI jobs


def _data_files(dest: Path) -> dict[str, bytes]:
    return {str(p.relative_to(dest)): p.read_bytes()
            for p in sorted(dest.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def cli_job(config: Path, workdir: Path, env: dict) -> Job:
    """One shipped config through a fresh CLI process (the code path of the
    `exfree-qst` console script).  The check requires exit code 0 and data
    files byte-identical to the previous pass, or on the first pass to a
    second run made for the check."""
    import yaml  # a dependency of exfree.cli, loaded only by this workload

    experiment = yaml.safe_load(config.read_text())["experiment"]
    serial = itertools.count()

    def launch(prefix: list[str]):
        out = workdir / f"{config.stem}-{next(serial)}"
        proc = subprocess.run(
            [*prefix, experiment, "--config", str(config), "--out", str(out)],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return proc, out

    def run():
        proc, out = launch([sys.executable, "-c", CLI_ENTRY])
        return proc.returncode, _data_files(out)

    def traced_run(tracer):
        spans_file = workdir / f"trace-{config.stem}-{next(serial)}.json"
        proc, out = launch([sys.executable, "-X", "importtime", str(SHIM), str(spans_file)])
        child = json.loads(spans_file.read_text())
        child["imports"] = tracing.parse_importtime(proc.stderr)
        tracer.merge(child, tracer.current())
        return proc.returncode, _data_files(out)

    previous = {}

    def check(result):
        code, files = result
        again = previous.get("files")
        if again is None:
            _, again = run()
        previous["files"] = files
        return [
            Check("exit_code", float(code != 0), 0.0),
            Check("data_files", float(not files), 0.0),
            Check("byte_identical", float(files != again), 0.0),
        ]

    return Job(f"cli-{config.stem}", run, check, traced_run)


# ---------------------------------------------------------------- workloads


def unitary_converged(seed, smoke, workdir, env):
    if smoke:
        return [qst_job(775.0, (10, 9, 10), 50), hom_job(775.0, (6, 5, 6), 21)]
    return [
        qst_job(475.0, (12, 12, 12), 200),
        qst_job(675.0, (10, 9, 10), 200),
        qst_job(775.0, (10, 9, 10), 200),
        hom_job(775.0, (10, 9, 10), 101),
    ]


def open_system(seed, smoke, workdir, env):
    if smoke:
        return [ablation_job(373.0, (3, 2, 3), 1e-7), trotter_job(475.0, (4, 3, 4), 50, 11)]
    return [ablation_job(373.0, (5, 4, 5), 1e-6), trotter_job(475.0, (6, 5, 6), 200, 51)]


def analysis(seed, smoke, workdir, env):
    rng = np.random.default_rng(seed)
    # smoke maps stay inside |alpha| < 1.5, where the guard-band bias is smallest
    shape = ((9, 3, 9), 5, 1.0) if smoke else ((9, 7, 9), 41, 2.5)
    return [
        binomial_job("0L", *shape),
        binomial_job("+iL", *shape),
        hom_job(775.0, (6, 5, 6), 21 if smoke else 101),
        purified_job(467.39, (6, 5, 6)),
        fit_tms_job(rng),
        fit_stark_job(rng),
        fit_damped_job(rng),
    ]


def cli_configs(seed, smoke, workdir, env):
    configs = sorted(Path("configs").glob("*.yaml"))
    if smoke:
        configs = [c for c in configs if c.stem in ("calibrate-g", "purified")]
    return [cli_job(c.resolve(), workdir, env) for c in configs]


WORKLOADS = {
    "unitary-converged": unitary_converged,
    "open-system": open_system,
    "analysis": analysis,
    "cli-configs": cli_configs,
}
