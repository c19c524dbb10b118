"""Benchmark of the exfree package: four workloads, end-to-end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload unitary-converged --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all      # every workload once; rewrites BENCHMARK.json

One run starts fresh interpreters only: three set-up-only workers, then
one worker that runs the workload's job list in a closed loop for
`--seconds`; the median set-up time of all four is `setup_s`.
With `--trace 1` that worker adds one pass with the layer wrappers of
tracing.py and the per-layer metrics are printed instead.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.  Scratch files stay under .bench_build/perfbench in the checkout.
See README.md for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (standard library only)

#: Set-up samples per run: this many set-up-only workers plus the main one.
#: The first may be cold (bytecode not yet compiled); the median drops it.
SETUP_WORKERS = 3
#: Wall-clock cap on one worker process.
WORKER_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: BLAS threads in every worker (see child_env).
BLAS_THREADS = 1

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 15,
    "workloads": [
        {"name": "unitary-converged",
         "why": "dense build, full eigh, per-sample apply and density reductions at the "
                "largest truncations the paper needs, where a sector-blocked core acts"},
        {"name": "open-system",
         "why": "RK45 Lindblad matrix units and repeated Trotter step products on small "
                "spaces, where eigh does little"},
        {"name": "analysis",
         "why": "Wigner maps, process fidelities, entanglement and calibration fits "
                "dominate; dynamics runs only on d <= 567"},
        {"name": "cli-configs",
         "why": "the six shipped configs through fresh CLI processes, where import and "
                "cli dominate and compute does little"},
    ],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in [
            *[(f"{k}_s", "s", "lower") for k in tracing.SPAN_KEYS],
            ("model.build_calls", "count", "lower"),
            ("model.op_bytes", "bytes", "lower"),
            ("dynamics.eigh_calls", "count", "lower"),
            ("dynamics.hilbert_dim_max", "dim", "lower"),
            ("dynamics.apply_calls", "count", "lower"),
            ("dynamics.lindblad_units", "count", "lower"),
            ("dynamics.lindblad_rhs_evals", "count", "lower"),
            ("dynamics.trotter_calls", "count", "lower"),
            ("metrics.wigner_points", "count", "higher"),
            ("calibration.fits", "count", "higher"),
            ("calibration.nfev", "count", "lower"),
            ("cli.artifact_bytes", "bytes", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.uncovered_s", "s", "lower"),
        ]
    ],
}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def child_env(root: Path, tmp: Path) -> dict:
    """The workers' environment: the checkout's sources, temporary files
    inside the checkout, and one BLAS thread.

    One thread, well under the core count, because on a shared host a
    second BLAS thread measures the neighbours: on 2 cores beside one busy
    process, open-system took 49.6 s with 2 threads and 15.6 s with 1, and
    unitary-converged 45.3 s and 29.3 s.
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp)
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def spawn_worker(workload, seed, seconds, tmp, env, *extra, importtime=False):
    """Run one worker to completion; returns (result dict, spawn time, stderr)."""
    out = tmp / f"worker-{time.monotonic_ns()}.json"
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir", str(tmp), "--out", str(out), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=Path.cwd(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(out.read_text()), spawned, proc.stderr


def run_workload(workload, seed, seconds, trace, smoke=False) -> dict:
    root = Path.cwd()
    tmp = root / ".bench_build" / "perfbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = child_env(root, tmp)
    flags = ["--smoke"] if smoke else []
    try:
        setup = []
        for _ in range(SETUP_WORKERS):
            res, spawned, _ = spawn_worker(workload, seed, seconds, tmp, env, "--setup-only",
                                           *flags)
            setup.append(res["ready"] - spawned)
        res, spawned, stderr = spawn_worker(workload, seed, seconds, tmp, env, *flags,
                                            *(["--trace"] if trace else []), importtime=trace)
        setup.append(res["ready"] - spawned)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    wall = statistics.median(res["passes"])
    res["setup"] = setup
    if trace:
        cli = workload == "cli-configs"
        if not cli:
            res["trace"]["imports"] = tracing.parse_importtime(stderr)
        metrics = tracing.layer_metrics(res["trace"], imports_in_jobs=cli)
        metrics["trace.wall_s"] = res["traced_wall"]
        metrics["trace.overhead_s"] = res["traced_wall"] - wall
    else:
        metrics = {"wall_s": wall, "peak_rss_mb": res["peak_rss_mb"],
                   "setup_s": statistics.median(setup)}
    # exactly the declared metrics, in the declared order
    res["metrics"] = {m["name"]: metrics[m["name"]]
                      for m in SPEC["per_layer" if trace else "end_to_end"]}
    # spans, checks and environment of the run, kept for inspection
    (tmp.parent / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(res))
    return res


def report(workload, seed, trace, res) -> dict:
    """Print the human-readable lines and return the result object."""
    failed = len(res["failures"])
    attempted = res["attempted"]
    print(f"# workload {workload} seed {seed} trace {int(trace)}")
    print("# env " + json.dumps(res["env"], sort_keys=True))
    def seconds(values):
        return " ".join(f"{v:.3f}" for v in values) + " s"

    print(f"# passes {len(res['passes'])}: wall {seconds(res['passes'])}, "
          f"cpu {seconds(res['cpu'])}; setup samples {seconds(res['setup'])}")
    print("# job times " + "; ".join(f"{job} {seconds(ts)}"
                                     for job, ts in res["job_times"].items()))
    for job, checks in res["checks"].items():
        worst = max(checks.items(), key=lambda kv: kv[1][0] / kv[1][1] if kv[1][1] else kv[1][0])
        print(f"# check {job}: {len(checks)} checks, closest to bound "
              f"{worst[0]} = {worst[1][0]:.3g} (bound {worst[1][1]:.3g})")
        for name, (value, tol) in checks.items():
            if name.startswith("wigner"):
                print(f"#   diagnostic {name} = {value:.3g} (bound {tol:.3g})")
    for f in res["failures"]:
        print(f"# FAILED {f['job']}: {f['error']}")
    print(f"# failed_frac {failed / attempted:.4g} ({failed} of {attempted} jobs)")
    for name, value in res["metrics"].items():
        print(f"# {name} = {value:.6g} {UNITS[name]}")
    if trace:
        traced = res["metrics"]["trace.wall_s"]
        uncovered = res["metrics"]["trace.uncovered_s"]
        print(f"# layer self times cover {traced - uncovered:.3f} s of the traced wall "
              f"{traced:.3f} s; uncovered {uncovered:.3f} s ({uncovered / traced:.2%}); "
              f"tracing overhead {res['metrics']['trace.overhead_s']:+.3f} s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in res["metrics"].items()},
    }


def _args():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    ap.add_argument("--all", action="store_true",
                    help="run every workload once and write BENCHMARK.json")
    return ap.parse_args()


def main() -> int:
    args = _args()
    if not (Path("src") / "exfree" / "__init__.py").is_file():
        print("run from the root of an exfree checkout: src/exfree is missing",
              file=sys.stderr)
        return 2
    if args.all:
        Path("BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        rows = []
        for w in SPEC["workloads"]:
            res = run_workload(w["name"], args.seed, args.seconds, False, args.smoke)
            out = report(w["name"], args.seed, False, res)
            rows.append((w["name"], out))
        print(f"{'workload':<18} {'setup_s':>8} {'wall_s':>8} {'peak_rss_mb':>12} "
              f"{'failed_frac':>12}")
        for name, out in rows:
            m = out["metrics"]
            print(f"{name:<18} {m['setup_s']['value']:>8.3f} {m['wall_s']['value']:>8.3f} "
                  f"{m['peak_rss_mb']['value']:>12.1f} "
                  f"{out['failed'] / out['attempted']:>12.4g}")
        return 0
    if args.workload is None:
        print("--workload or --all is required", file=sys.stderr)
        return 2
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
