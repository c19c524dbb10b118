"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py

They run every workload in its tiny smoke configuration, check that every
correctness check rejects a deliberately perturbed output, and check that
all counts of the traced run repeat exactly between two runs.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


@functools.cache
def bench(workload: str, trace: int, repeat: int = 0) -> dict:
    """Last-line result of one smoke run of run.py (cached per arguments)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_end_to_end(workload):
    out = bench(workload, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    names = [m["name"] for m in run.SPEC["end_to_end"]]
    assert list(out["metrics"]) == names
    assert all(out["metrics"][n]["value"] > 0 for n in names)


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_per_layer_counts_repeat(workload):
    first, second = bench(workload, 1, 0), bench(workload, 1, 1)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in run.SPEC["per_layer"]]
    for name in tracing.COUNT_KEYS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def _perturbations(out):
    """(label, perturbed copy) for every checked field of a job output."""
    if isinstance(out, tuple):  # CLI job: (exit code, data files)
        code, files = out
        name = next(iter(files))
        flipped = dict(files)
        flipped[name] = bytes([files[name][0] ^ 1]) + files[name][1:]
        yield "exit", (1, files)
        yield "bytes", (code, flipped)
        yield "empty", (code, {})
        return
    if isinstance(out, dict):  # ablation
        for k in out:
            for sign in (1, -1):
                yield k, {**out, k: out[k] + sign * 0.1}
        return
    if hasattr(out, "estimates"):  # FitResult
        yield "converged", SimpleNamespace(**{**vars(out), "converged": False})
        for k in out.estimates:
            est = {**out.estimates, k: out.estimates[k] * 1.2}
            yield k, SimpleNamespace(**{**vars(out), "estimates": est})
        return
    # ProtocolResult
    if out.populations is not None:
        bad = copy.deepcopy(out)
        bad.populations = out.populations + 1e-3
        yield "populations", bad
    for k in out.series:
        bad = copy.deepcopy(out)
        bad.series[k] = np.asarray(out.series[k]) + 1e-2
        yield f"series.{k}", bad
    for k in out.scalars:
        for sign in (1, -1):
            bad = copy.deepcopy(out)
            bad.scalars[k] += sign * 0.1
            yield f"scalars.{k}", bad
    for k, v in out.tables.get("pauli", {}).items():
        bad = copy.deepcopy(out)
        bad.tables["pauli"][k] = v + 0.1
        yield f"pauli.{k}", bad
    for k, state in out.states.items():
        if state is None:
            continue
        bad = copy.deepcopy(out)
        if hasattr(state, "amplitudes"):
            bad.states[k] = SimpleNamespace(amplitudes=state.amplitudes * np.exp(0.1j))
        else:
            m = np.array(state.elements)
            m[0, 0] += 1e-3
            bad.states[k] = SimpleNamespace(elements=m)
        yield f"states.{k}", bad


def _smoke_jobs(workload, workdir):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(workdir))
    return workloads.WORKLOADS[workload](5, True, workdir, env)


@pytest.mark.parametrize("workload", NAMES)
def test_every_check_rejects_a_perturbed_output(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    for job in _smoke_jobs(workload, tmp_path):
        out = job.run()
        checks = job.check(out)
        assert all(c.ok for c in checks), (job.name, [c for c in checks if not c.ok])
        caught = set()
        for label, bad in _perturbations(out):
            failed = {c.name for c in job.check(bad) if not c.ok}
            if failed:
                caught |= failed
        assert caught == {c.name for c in checks}, (job.name, caught)


def test_importtime_parsing():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.optimize",
        "import time:        10 |        360 |   exfree.analytic",
        "import time:        40 |        400 | exfree",
        "import time:         5 |          5 | scipy.sparse",
    ])
    got = tracing.parse_importtime(stderr)
    assert got["import.exfree"] == pytest.approx(400e-6)
    assert got["import.scipy"] == pytest.approx((300 + 50 + 5) * 1e-6)


def test_self_times_subtract_direct_children():
    spans = [["job", 0.0, 10.0, -1, "a"], ["x", 1.0, 5.0, 0, "a"], ["y", 2.0, 3.0, 1, "a"]]
    assert tracing.self_times(spans) == {"job": 6.0, "x": 3.0, "y": 1.0}


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.SPEC


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
