"""Layer tracing from outside the program.

`Tracer.install()` replaces each public function listed in `TARGETS` at
every binding inside the `exfree` package (so `exfree.experiments.wigner`
and `exfree.metrics.wigner` are both wrapped) and patches methods on their
class.  Each call records a span (key, start, end, parent) in memory;
`layer_metrics` turns the spans into per-layer self times and counts.
This module imports only the standard library, so it can be loaded before
`exfree` without moving any import cost.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from pathlib import Path


def _nbytes(result) -> int:
    ops = result if isinstance(result, list) else [result]
    return sum(op.elements.nbytes for op in ops)


def _count_build(c, args, kwargs, result):
    c["model.build_calls"] += 1
    c["model.op_bytes"] += _nbytes(result)


def _dim_max(c, dim):
    c["dynamics.hilbert_dim_max"] = max(c["dynamics.hilbert_dim_max"], int(dim))


def _count_eigh(c, args, kwargs, result):
    c["dynamics.eigh_calls"] += 1
    _dim_max(c, args[1].dims.total)


def _count_apply(c, args, kwargs, result):
    c["dynamics.apply_calls"] += 1


def _count_lindblad_unit(c, args, kwargs, result):
    c["dynamics.lindblad_units"] += 1
    _dim_max(c, args[0].dims.total)


def _count_rhs(c, args, kwargs, result):
    c["dynamics.lindblad_rhs_evals"] += int(result.nfev)


def _count_trotter(c, args, kwargs, result):
    c["dynamics.trotter_calls"] += 1
    _dim_max(c, args[1].dims.total)


def _count_wigner(c, args, kwargs, result):
    c["metrics.wigner_points"] += int(result.size)


def _count_fit(c, args, kwargs, result):
    c["calibration.fits"] += 1
    c["calibration.nfev"] += int(result.iterations)


def _count_artifacts(c, args, kwargs, result):
    # manifest.json carries a timestamp; only the data files repeat exactly
    c["cli.artifact_bytes"] += sum(
        p.stat().st_size for p in Path(result).iterdir() if p.name != "manifest.json"
    )


_ANALYTIC = (
    "omega", "heisenberg_coeffs", "mean_photon_numbers", "tau_st", "tau_s2",
    "timing_ratio", "sweet_point_detuning", "sweet_point_detuning_numeric",
    "g_eff", "tmsv_joint_population", "n2_amplitude", "bs_reference_timing",
)

#: (module, attribute or Class.method, span key, counter).  A span key
#: names the layer metric `<key>_s` its self time adds to.
TARGETS = [
    *[("exfree.model", f, "model.build", _count_build) for f in (
        "build_h_full", "build_h_tms", "build_h_detune", "build_h_eff",
        "build_h_bs_reference", "collapse_operators")],
    ("exfree.dynamics", "UnitaryPropagator.__init__", "dynamics.eigh", _count_eigh),
    ("exfree.dynamics", "UnitaryPropagator.apply", "dynamics.apply", _count_apply),
    ("exfree.dynamics", "UnitaryPropagator.matrix", "dynamics.unitary_matrix", None),
    ("exfree.dynamics", "evolve_lindblad", "dynamics.lindblad", None),
    ("exfree.dynamics", "propagate_lindblad_matrix", "dynamics.lindblad", _count_lindblad_unit),
    ("exfree.dynamics", "solve_ivp", "dynamics.lindblad", _count_rhs),
    ("exfree.dynamics", "evolve_trotter", "dynamics.trotter", _count_trotter),
    ("exfree.fock", "partial_trace", "fock.partial_trace", None),
    ("exfree.fock", "StateVector.to_density", "fock.to_density", None),
    ("exfree.fock", "mode_populations", "fock.populations", None),
    *[("exfree.fock", f, "fock.state_build", None)
      for f in ("fock_state", "product_state", "binomial_code_state")],
    ("exfree.metrics", "wigner", "metrics.wigner", _count_wigner),
    ("exfree.metrics", "choi_from_channel", "metrics.choi", None),
    ("exfree.metrics", "process_fidelity_qubit_subspace", "metrics.choi", None),
    ("exfree.metrics", "optimize_mode_phase", "metrics.phase_opt", None),
    ("exfree.metrics", "negativity", "metrics.entanglement", None),
    ("exfree.metrics", "pauli_table_02", "metrics.entanglement", None),
    ("exfree.metrics", "parity_split", "metrics.parity", None),
    *[("exfree.calibration", f, "calibration.fit", _count_fit)
      for f in ("fit_tms_strength", "fit_stark_detuning", "fit_damped_oscillation")],
    *[("exfree.analytic", f, "analytic.oracle", None) for f in _ANALYTIC],
    *[("exfree.experiments", f, "experiments.self", None) for f in (
        "run_single_photon_qst", "run_hom", "run_binomial_transfer",
        "run_purified_qst", "cavity_decoherence_ablation", "error_budget_report",
        "compare_tms_vs_bs")],
    # the channel closure runs inside choi_from_channel; its own work
    # (embedding, propagation glue, projection) belongs to experiments
    ("exfree.experiments", "transfer_channel", "experiments.self", "closure"),
    ("exfree.cli", "load_config", "cli.load_config", None),
    ("exfree.cli", "write_artifacts", "cli.write_artifacts", _count_artifacts),
    *[("exfree.cli", f, "cli.self", None) for f in (
        "_dispatch", "run_experiment", "_run_calibrate_g", "_run_calibrate_delta0",
        "_config_from_raw")],
]

SPAN_KEYS = sorted({key for _, _, key, _ in TARGETS} | {"import.exfree", "import.scipy"})
COUNT_KEYS = (
    "model.build_calls", "model.op_bytes", "dynamics.eigh_calls",
    "dynamics.hilbert_dim_max", "dynamics.apply_calls", "dynamics.lindblad_units",
    "dynamics.lindblad_rhs_evals", "dynamics.trotter_calls", "metrics.wigner_points",
    "calibration.fits", "calibration.nfev", "cli.artifact_bytes",
)
#: Root span of each benchmark job; its self time is the uncovered share.
JOB = "job"


class Tracer:
    """Spans and counts of one traced pass, kept in memory until the end."""

    def __init__(self):
        self.spans: list[list] = []  # [key, start, end, parent index, job]
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.imports = {"import.exfree": 0.0, "import.scipy": 0.0}
        self.paused = False
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, key: str) -> int:
        self.spans.append([key, time.perf_counter(), None, self.current(), self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def _wrap(self, fn, key, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer.open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter == "closure":
                return tracer._wrap(result, key, None)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding in the loaded exfree modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "exfree" or n.startswith("exfree."))]
        for mod_name, attr, key, counter in TARGETS:
            if mod_name not in sys.modules:
                continue  # exfree.cli is loaded only by the cli workload
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is not None:
                    setattr(cls, meth, self._wrap(original, key, counter))
                    self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue  # removed from the program: its metric reads 0
            wrapped = self._wrap(original, key, counter)
            for mod in modules:
                for name in [n for n, v in vars(mod).items() if v is original]:
                    setattr(mod, name, wrapped)
                    self._undo.append((mod, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "imports": self.imports}

    def merge(self, other: dict, parent: int) -> None:
        """Fold a child process's trace (spans, counts, imports) into this
        one, its root spans becoming children of span `parent`."""
        base = len(self.spans)
        for key, start, end, p, _ in other["spans"]:
            self.spans.append([key, start, end, parent if p < 0 else base + p, self.job])
        for k, v in other["counts"].items():
            if k == "dynamics.hilbert_dim_max":
                self.counts[k] = max(self.counts[k], v)
            else:
                self.counts[k] += v
        for k, v in other["imports"].items():
            self.imports[k] += v


def self_times(spans) -> dict[str, float]:
    """Sum over spans of (duration - time covered by direct children), by key."""
    child = [0.0] * len(spans)
    for key, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (key, start, end, _, _) in enumerate(spans):
        out[key] = out.get(key, 0.0) + (end - start) - child[i]
    return out


def layer_metrics(trace: dict, imports_in_jobs: bool) -> dict[str, float]:
    """Per-layer self times (`<key>_s`) and counts of one traced pass.

    `trace.uncovered_s` is the job time no wrapped call or import covers:
    benchmark glue, interpreter start-up of CLI processes and library code
    outside the wrapped functions.  With `imports_in_jobs` (CLI processes)
    the imports happen inside the jobs and are carved out of that share.
    """
    selfs = self_times(trace["spans"])
    out = {f"{k}_s": selfs.get(k, 0.0) for k in SPAN_KEYS if not k.startswith("import.")}
    out.update({f"{k}_s": v for k, v in trace["imports"].items()})
    out.update(trace["counts"])
    inner_imports = trace["imports"]["import.exfree"] if imports_in_jobs else 0.0
    out["trace.uncovered_s"] = selfs.get(JOB, 0.0) - inner_imports
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """import.exfree_s and import.scipy_s from `python -X importtime` output.

    Each is the cumulative time of the outermost modules of that package,
    i.e. modules whose importers are outside the package.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((level, name.strip(), int(parts[1]) * 1e-6))
    totals = {"import.exfree": 0.0, "import.scipy": 0.0}
    stack: list[tuple[int, str]] = []
    # importtime prints children before parents; reversed it is pre-order
    for level, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        pkg = name.split(".")[0]
        key = f"import.{pkg}"
        if key in totals and not any(n.split(".")[0] == pkg for _, n in stack):
            totals[key] += cumulative
        stack.append((level, name))
    return totals


def env_record() -> dict:
    """Machine and library versions recorded with every result."""
    import numpy as np
    import scipy

    import exfree

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "exfree": exfree.__version__,
    }
