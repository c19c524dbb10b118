"""Command-line entry point: config ingestion, experiment dispatch, and
figure-data emission.

Config files are YAML with frequencies quoted as f/2pi in kHz and times in
us (the loader converts to internal angular units).  Artifacts land in
`<outdir>/<experiment>/<label>/`: a `manifest.json` with the config echo and
versions (the only file carrying a timestamp), `trajectory.csv` and
`summary.json` with the data.  Identical configs produce byte-identical
data files.

Exit codes: 0 success, 2 config error, 3 regime error, 4 numerical
nonconvergence.
"""

from __future__ import annotations

import datetime as _dt
import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import click
import numpy as np
import yaml

from . import __version__
from .analytic import tau_st
from .calibration import (
    bus_period_model,
    fit_stark_detuning,
    fit_tms_strength,
    generate_tmsv_trace,
)
from .dynamics import EvolutionSpec
from .errors import (
    ConvergenceError,
    DimensionError,
    ExfreeError,
    ImpossibleOutcomeError,
    InvalidOperatorError,
    InvalidParameterError,
    RegimeError,
    TruncationError,
)
from .experiments import (
    DEFAULT_GAMMA_Q,
    ProtocolResult,
    compare_tms_vs_bs,
    error_budget_report,
    run_binomial_transfer,
    run_hom,
    run_purified_qst,
    run_single_photon_qst,
)
from .model import SystemParams, khz_to_angular

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_NUMERICS = 4

EXPERIMENTS = (
    "qst",
    "purified-qst",
    "hom",
    "binomial",
    "calibrate-g",
    "calibrate-delta0",
    "budget",
    "compare-bs",
    "sweep",
)

_METHOD_ALIASES = {
    "exact": "exact-unitary",
    "exact-unitary": "exact-unitary",
    "trotter": "trotter",
    "lindblad": "lindblad",
}


class ConfigError(ExfreeError):
    """Malformed or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Validated run configuration in internal units (rad/us, us)."""

    experiment: str
    raw: dict[str, Any]
    params: Optional[SystemParams] = None
    method: str = "exact-unitary"
    out_dir: Path = Path("runs")
    label: str = "default"
    total_time: Optional[float] = None
    n_samples: int = 801
    trotter_dt: Optional[float] = None
    rtol: float = 1e-8
    options: dict[str, Any] = field(default_factory=dict)


def _coerce_dims(value) -> tuple[int, int, int]:
    if isinstance(value, str):
        parts = value.split(",")
    else:
        parts = list(value)
    if len(parts) != 3:
        raise ConfigError(f"dims must have 3 entries, got {value!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid dims {value!r}") from exc
    return dims


def _triple(value, name, default):
    if value is None:
        return default
    if np.isscalar(value):
        return (float(value),) * 3
    vals = tuple(None if v is None else float(v) for v in value)
    if len(vals) != 3:
        raise ConfigError(f"{name} must be a scalar or a 3-list")
    return vals


def load_config(path, experiment: Optional[str] = None) -> RunConfig:
    """Parse and validate a YAML run configuration.

    `experiment` (usually from the command line) overrides the file's own
    `experiment` key.  All frequencies in the file are f/2pi in kHz.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")

    exp = experiment or raw.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; choose from {EXPERIMENTS}")

    cfg = RunConfig(experiment=exp, raw=dict(raw))
    cfg.label = str(raw.get("label", "default"))
    cfg.out_dir = Path(raw.get("out_dir", "runs"))

    method = raw.get("method", "exact")
    if method not in _METHOD_ALIASES:
        raise ConfigError(f"unknown method {method!r}")
    cfg.method = _METHOD_ALIASES[method]

    needs_params = exp not in ("budget", "calibrate-g", "calibrate-delta0") or raw.get(
        "ablate_cavity"
    )
    g_khz = raw.get("g_over_2pi_khz")
    if g_khz is not None or needs_params:
        if g_khz is None:
            raise ConfigError("g_over_2pi_khz is required")
        g1 = float(raw.get("g1_over_2pi_khz", g_khz))
        g2 = float(raw.get("g2_over_2pi_khz", g_khz))
        delta = raw.get("delta_over_2pi_khz")
        if delta is None and exp not in ("compare-bs", "calibrate-g", "calibrate-delta0"):
            raise ConfigError("delta_over_2pi_khz is required")
        dims = _coerce_dims(raw.get("dims", (6, 5, 6)))
        try:
            cfg.params = SystemParams.from_khz(
                g1,
                g2,
                float(delta) if delta is not None else 0.0,
                dims=dims,
                t1=_triple(raw.get("t1_us"), "t1_us", (None, None, None)),
                tphi=_triple(raw.get("tphi_us"), "tphi_us", (None, None, None)),
                n_th=_triple(raw.get("n_th"), "n_th", (0.0, 0.0, 0.0)),
            )
        except InvalidParameterError as exc:
            raise ConfigError(str(exc)) from exc

    if raw.get("total_time_us") is not None:
        cfg.total_time = float(raw["total_time_us"])
        if cfg.total_time <= 0:
            raise ConfigError("total_time_us must be positive")
    cfg.n_samples = int(raw.get("n_samples", 801))
    if cfg.n_samples < 2:
        raise ConfigError("n_samples must be at least 2")
    if raw.get("trotter_dt_us") is not None:
        cfg.trotter_dt = float(raw["trotter_dt_us"])
    if cfg.method == "trotter" and cfg.trotter_dt is None:
        raise ConfigError("trotter method needs trotter_dt_us")
    cfg.rtol = float(raw.get("rtol", 1e-8))
    if cfg.rtol <= 0:
        raise ConfigError("rtol must be positive")

    cfg.options = {
        k: raw[k]
        for k in (
            "purification",
            "gamma_q",
            "code_label",
            "loss_after_transfer",
            "wigner_extent",
            "wigner_points",
            "budget",
            "ablate_cavity",
            "delta_over_2pi_khz_values",
            "g_truth_over_2pi_khz",
            "delta0_over_2pi_khz",
            "delta_d_over_2pi_khz",
            "noise_sigma",
            "seed",
            "t_max_us",
            "n_points",
            "sweep_experiment",
        )
        if k in raw
    }
    return cfg


def _spec_for(cfg: RunConfig, default_total: float) -> EvolutionSpec:
    total = cfg.total_time if cfg.total_time is not None else default_total
    return EvolutionSpec(
        total_time=total,
        method=cfg.method,
        trotter_dt=cfg.trotter_dt,
        rtol=cfg.rtol,
        sample_times=tuple(np.linspace(0.0, total, cfg.n_samples)),
    )


def _run_calibrate_g(cfg: RunConfig) -> ProtocolResult:
    opts = cfg.options
    g_truth = khz_to_angular(float(opts.get("g_truth_over_2pi_khz", 80.0)))
    t_max = float(opts.get("t_max_us", 2.0 / g_truth))
    n = int(opts.get("n_points", 64))
    t = np.linspace(0.0, t_max, n)
    p0 = generate_tmsv_trace(
        g_truth, t, noise_sigma=opts.get("noise_sigma"), seed=opts.get("seed")
    )
    fit = fit_tms_strength(t, p0)
    result = ProtocolResult(name="calibrate-g", times=t, series={"P0": p0})
    result.scalars = {
        "g_truth": g_truth,
        "g_estimate": fit.estimates.get("g", float("nan")),
        "g_sigma": fit.uncertainties.get("g", float("nan")),
        "residual_norm": fit.residual_norm,
        "converged": float(fit.converged),
    }
    result.tables["fit"] = {
        "estimates": fit.estimates,
        "uncertainties": fit.uncertainties,
        "flags": list(fit.flags),
    }
    return result


def _run_calibrate_delta0(cfg: RunConfig) -> ProtocolResult:
    opts = cfg.options
    g = khz_to_angular(float(opts.get("g_truth_over_2pi_khz", 80.0)))
    d0_truth = khz_to_angular(float(opts.get("delta0_over_2pi_khz", 275.0)))
    dd_khz = opts.get("delta_d_over_2pi_khz", [100.0, 200.0, 300.0, 400.0, 500.0])
    dd = np.array([khz_to_angular(float(x)) for x in dd_khz])
    tau = bus_period_model(dd, d0_truth, g)
    fit = fit_stark_detuning(dd, tau, g)
    result = ProtocolResult(name="calibrate-delta0", times=dd, series={"tau_s2": tau})
    result.scalars = {
        "delta0_truth": d0_truth,
        "delta0_estimate": fit.estimates.get("delta_0", float("nan")),
        "delta0_sigma": fit.uncertainties.get("delta_0", float("nan")),
        "residual_norm": fit.residual_norm,
        "converged": float(fit.converged),
    }
    result.tables["fit"] = {
        "estimates": fit.estimates,
        "uncertainties": fit.uncertainties,
        "flags": list(fit.flags),
    }
    return result


def run_experiment(cfg: RunConfig) -> ProtocolResult:
    """Dispatch a single (non-sweep) experiment."""
    if cfg.experiment == "qst":
        spec = _spec_for(cfg, 2.0 * tau_st(cfg.params))
        return run_single_photon_qst(cfg.params, spec)
    if cfg.experiment == "purified-qst":
        if cfg.method == "trotter":
            raise ConfigError("purified-qst supports exact or lindblad methods")
        return run_purified_qst(
            cfg.params,
            t=cfg.total_time,
            method=cfg.method,
            purification=cfg.options.get("purification", "qubit+cavity"),
            gamma_q=float(cfg.options.get("gamma_q", DEFAULT_GAMMA_Q)),
            rtol=cfg.rtol,
        )
    if cfg.experiment == "hom":
        spec = _spec_for(cfg, 2.0 * tau_st(cfg.params))
        return run_hom(cfg.params, spec)
    if cfg.experiment == "binomial":
        return run_binomial_transfer(
            cfg.params,
            label=str(cfg.options.get("code_label", "0L")),
            t=cfg.total_time,
            method=cfg.method,
            loss_after_transfer=bool(cfg.options.get("loss_after_transfer", False)),
            wigner_extent=cfg.options.get("wigner_extent"),
            wigner_points=int(cfg.options.get("wigner_points", 41)),
            rtol=cfg.rtol,
        )
    if cfg.experiment == "budget":
        return error_budget_report(
            params=cfg.params,
            budget=cfg.options.get("budget"),
            ablate_cavity=bool(cfg.options.get("ablate_cavity", False)),
            rtol=cfg.rtol,
        )
    if cfg.experiment == "compare-bs":
        deltas_khz = cfg.options.get(
            "delta_over_2pi_khz_values", [373.0, 463.0, 475.0, 675.0, 775.0]
        )
        deltas = [khz_to_angular(float(d)) for d in deltas_khz]
        return compare_tms_vs_bs(cfg.params.g1, deltas)
    if cfg.experiment == "calibrate-g":
        return _run_calibrate_g(cfg)
    if cfg.experiment == "calibrate-delta0":
        return _run_calibrate_delta0(cfg)
    raise ConfigError(f"experiment {cfg.experiment!r} is not dispatchable here")


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def write_artifacts(result: ProtocolResult, cfg: RunConfig, label: Optional[str] = None) -> Path:
    """Write manifest.json, trajectory.csv, summary.json (and wigner_*.csv)."""
    label = label or cfg.label
    dest = cfg.out_dir / cfg.experiment / label
    dest.mkdir(parents=True, exist_ok=True)
    try:
        manifest = {
            "experiment": cfg.experiment,
            "label": label,
            "config": cfg.raw,
            "versions": {
                "package": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            "created": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        }
        (dest / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))

        wigner_keys = [k for k in result.series if k.startswith("wigner")]
        grid_series = {
            k: v
            for k, v in result.series.items()
            if k not in wigner_keys
            and result.times is not None
            and np.shape(v) == result.times.shape
        }
        if result.times is not None:
            cols = {"t": result.times}
            if result.populations is not None:
                for k in range(result.populations.shape[1]):
                    cols[f"n{k + 1}"] = result.populations[:, k]
            cols.update(grid_series)
            header = ",".join(cols)
            lines = [header]
            for row in zip(*cols.values()):
                lines.append(",".join(_fmt(x) for x in row))
            (dest / "trajectory.csv").write_text("\n".join(lines) + "\n")

        for key in wigner_keys:
            arr = np.asarray(result.series[key])
            lines = []
            if arr.ndim == 1:
                lines = [",".join(_fmt(x) for x in arr)]
            else:
                lines = [",".join(_fmt(x) for x in row) for row in arr]
            (dest / f"{key}.csv").write_text("\n".join(lines) + "\n")

        summary = {
            "experiment": result.name,
            "scalars": {k: float(v) for k, v in result.scalars.items()},
            "tables": result.tables,
        }
        (dest / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True, default=float)
        )
    except Exception:
        # never leave half-written artifact sets behind
        shutil.rmtree(dest, ignore_errors=True)
        raise
    return dest


def _print_summary(result: ProtocolResult, dest: Path) -> None:
    click.echo(f"experiment: {result.name}")
    for key in sorted(result.scalars):
        click.echo(f"  {key}: {result.scalars[key]:.6g}")
    click.echo(f"artifacts: {dest}")


def _dispatch(cfg: RunConfig) -> int:
    if cfg.experiment == "sweep":
        deltas_khz = cfg.options.get("delta_over_2pi_khz_values")
        if not deltas_khz:
            raise ConfigError("sweep needs delta_over_2pi_khz_values")
        inner_name = cfg.options.get("sweep_experiment", "qst")
        if inner_name not in EXPERIMENTS or inner_name == "sweep":
            raise ConfigError(f"cannot sweep experiment {inner_name!r}")
        for d_khz in deltas_khz:
            raw = dict(cfg.raw)
            raw["delta_over_2pi_khz"] = float(d_khz)
            raw["experiment"] = inner_name
            raw["label"] = f"delta-{float(d_khz):g}"
            sub = _config_from_raw(raw, inner_name)
            sub.out_dir = cfg.out_dir / "sweep"
            result = run_experiment(sub)
            dest = write_artifacts(result, sub)
            _print_summary(result, dest)
        return EXIT_OK
    result = run_experiment(cfg)
    dest = write_artifacts(result, cfg)
    _print_summary(result, dest)
    return EXIT_OK


def _config_from_raw(raw: dict, experiment: str) -> RunConfig:
    import tempfile

    # reuse the validating loader on an in-memory copy
    with tempfile.NamedTemporaryFile("w", suffix=".yaml", delete=False) as fh:
        yaml.safe_dump(raw, fh)
        tmp = fh.name
    try:
        return load_config(tmp, experiment)
    finally:
        Path(tmp).unlink(missing_ok=True)


@click.command(name="exfree-qst")
@click.argument("experiment", type=click.Choice(EXPERIMENTS))
@click.option("--config", "config_path", required=True, help="YAML run configuration.")
@click.option("--out", "out_dir", default=None, help="Artifact output directory.")
@click.option(
    "--method",
    type=click.Choice(["exact", "trotter", "lindblad"]),
    default=None,
    help="Override the propagation method.",
)
@click.option("--dims", default=None, help="Override truncation as N1,N2,N3.")
def main(experiment, config_path, out_dir, method, dims) -> None:
    """Deterministic simulator for bus-mediated pair-coupling state transfer."""
    try:
        cfg = load_config(config_path, experiment)
        if out_dir is not None:
            cfg.out_dir = Path(out_dir)
        if method is not None:
            cfg.method = _METHOD_ALIASES[method]
            if cfg.method == "trotter" and cfg.trotter_dt is None:
                raise ConfigError("trotter method needs trotter_dt_us in the config")
        if dims is not None:
            if cfg.params is None:
                raise ConfigError("--dims given but the experiment has no system params")
            cfg.params = cfg.params.with_dims(_coerce_dims(dims))
        code = _dispatch(cfg)
    except (ConfigError, InvalidParameterError, DimensionError, TruncationError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except RegimeError as exc:
        click.echo(f"regime error: {exc}", err=True)
        sys.exit(EXIT_REGIME)
    except (ConvergenceError, ImpossibleOutcomeError, InvalidOperatorError) as exc:
        click.echo(f"numerical error: {exc}", err=True)
        sys.exit(EXIT_NUMERICS)
    sys.exit(code)


if __name__ == "__main__":
    main()
