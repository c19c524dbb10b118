"""One workload in one fresh interpreter: set up, run timed passes, check.

Started by run.py, never by hand.  The process imports `exfree` first so
that its import cost is what a user pays, builds the workload's inputs,
and reports the monotonic time at which the first job was ready.  It then
runs the job list in a closed loop until the timed passes add up to
`--seconds` (at least one pass), checks every output outside the timed
region, and with `--trace` runs one more pass with the layer
wrappers installed.  The result goes to `--out` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing


def _args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    return ap.parse_args()


def _cpu_seconds() -> float:
    """User plus system time of this process and its finished children."""
    own, kids = (resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(jobs, checks, times, tracer=None):
    """Run every job once, each checked outside the timed region.

    Returns (wall seconds, CPU seconds, failures).  `checks` collects each check's
    measured deviation and bound by job, so known biases are reported;
    `times` collects each job's run times.
    """
    wall = cpu = 0.0
    failures = []
    for job in jobs:
        span = None
        if tracer is not None:
            tracer.job = job.name
            span = tracer.open(tracing.JOB)
        start, cpu_start = time.perf_counter(), _cpu_seconds()
        try:
            out = job.traced_run(tracer) if (tracer and job.traced_run) else job.run()
            error = None
        except Exception:
            out, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        cpu += _cpu_seconds() - cpu_start
        wall += elapsed
        times.setdefault(job.name, []).append(elapsed)
        if tracer is not None:
            tracer.close(span)
            tracer.paused = True
        try:
            if error is None:
                results = job.check(out)
                checks[job.name] = {c.name: [c.value, c.tol] for c in results}
                bad = [c for c in results if not c.ok]
                if bad:
                    error = "; ".join(f"{c.name}={c.value:.3g} > {c.tol:.3g}" for c in bad)
        except Exception:
            error = "check raised: " + traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                tracer.paused = False
        del out
        if error is not None:
            failures.append({"job": job.name, "error": error})
    return wall, cpu, failures


def main() -> int:
    args = _args()
    import exfree  # noqa: F401  (first, so its import is timed as users see it)

    if args.workload == "cli-configs":
        import exfree.cli  # noqa: F401

    import workloads

    jobs = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.workdir,
                                              dict(os.environ))
    ready = time.monotonic()
    if args.setup_only:
        args.out.write_text(json.dumps({"ready": ready}))
        return 0

    passes, failures, checks, times = [], [], {}, {}
    cpu = []
    while sum(passes) < args.seconds:
        wall, cpu_s, bad = run_pass(jobs, checks, times)
        passes.append(wall)
        cpu.append(cpu_s)
        failures += bad

    result = {"ready": ready, "passes": passes, "cpu": cpu}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, _, bad = run_pass(jobs, checks, {}, tracer)
        finally:
            tracer.uninstall()
        failures += bad
        result["trace"] = tracer.to_json()
        result["traced_wall"] = wall

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-configs" else resource.RUSAGE_SELF
    result.update({
        "attempted": len(jobs) * (len(passes) + int(args.trace)),
        "checks": checks,
        "job_times": times,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "env": tracing.env_record(),
    })
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
