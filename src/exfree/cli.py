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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

import click
import numpy as np
import yaml

from . import __version__
from .analytic import tau_st
from .calibration import (
    FitResult,
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


def _whole(value) -> int:
    """An int or an integral float; anything else, booleans included, is a
    ValueError rather than a silent truncation."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A finite real number; a boolean is a ValueError, not 0.0 or 1.0, and
    so is a NaN or an infinity."""
    if isinstance(value, bool) or not np.isfinite(x := float(value)):
        raise ValueError(f"expected a finite real number, got {value!r}")
    return x


def _coerce_dims(value) -> tuple[int, int, int]:
    try:
        # the --dims override arrives as text, "N1,N2,N3"
        parts = [int(p) for p in value.split(",")] if isinstance(value, str) else list(value)
        dims = tuple(_whole(p) for p in parts)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid dims {value!r}") from exc
    if len(dims) != 3:
        raise ConfigError(f"dims must have 3 entries, got {value!r}")
    return dims


def _triple(value, name, default):
    if value is None:
        return default
    if np.isscalar(value):
        return (_real(value),) * 3
    vals = tuple(None if v is None else _real(v) for v in value)
    if len(vals) != 3:
        raise ConfigError(f"{name} must be a scalar or a 3-list")
    return vals


def load_config(path, overrides: Optional[dict] = None) -> RunConfig:
    """Read a YAML run configuration file and validate it with `overrides`
    (`parse_config`)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    return parse_config(raw, overrides)


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


#: Conversion of each experiment option.
_OPTIONS = {
    "purification": str,
    "gamma_q": _real,
    "code_label": str,
    "loss_after_transfer": _flag,
    "wigner_extent": _real,
    "wigner_points": _whole,
    "budget": lambda v: {str(k): _real(x) for k, x in dict(v).items()},
    "ablate_cavity": _flag,
    "delta_over_2pi_khz_values": lambda v: [_real(x) for x in v],
    "g_truth_over_2pi_khz": _real,
    "delta0_over_2pi_khz": _real,
    "delta_d_over_2pi_khz": lambda v: [_real(x) for x in v],
    "noise_sigma": _real,
    "seed": _whole,
    "t_max_us": _real,
    "n_points": _whole,
    "sweep_experiment": str,
}


#: Experiments whose runners read only the final time, not a sample grid.
_FINAL_TIME_ONLY = ("binomial", "purified-qst")


#: Keys `_parse_mapping` reads itself; with `_OPTIONS` the whole vocabulary.
_KEYS = {
    "experiment", "label", "out_dir", "method", "g_over_2pi_khz", "g1_over_2pi_khz",
    "g2_over_2pi_khz", "delta_over_2pi_khz", "dims", "t1_us", "tphi_us", "n_th",
    "total_time_us", "n_samples", "trotter_dt_us", "rtol",
}


def parse_config(raw: dict, overrides: Optional[dict] = None) -> RunConfig:
    """Validate a run configuration mapping, with the keys of `overrides`
    (the command line's experiment, out_dir, method and dims) in place of
    the mapping's own.

    All frequencies are f/2pi in kHz.  Every value is converted here, so a
    value of the wrong type is a `ConfigError`, and so is a key that nothing
    reads; a null value counts as absent.  `RunConfig.raw` echoes `raw`.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    merged = {**raw, **(overrides or {})}
    unknown = sorted(str(k) for k in merged if k not in _KEYS and k not in _OPTIONS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    try:
        return _parse_mapping({k: v for k, v in merged.items() if v is not None}, raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def _parse_mapping(raw: dict, echo: dict) -> RunConfig:
    """The run configuration of `raw`, which holds no null value; the
    manifest echoes `echo`."""
    exp = raw.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; choose from {EXPERIMENTS}")

    cfg = RunConfig(experiment=exp, raw=dict(echo))
    cfg.label = str(raw.get("label", "default"))
    if cfg.label in ("", ".", "..") or "/" in cfg.label or "\\" in cfg.label:
        # the label names one directory inside <out_dir>/<experiment>
        raise ConfigError(f"label {cfg.label!r} must name one directory")
    cfg.out_dir = Path(raw.get("out_dir", "runs"))

    method = raw.get("method", "exact")
    if method not in _METHOD_ALIASES:
        raise ConfigError(f"unknown method {method!r}")
    cfg.method = _METHOD_ALIASES[method]

    needs_params = exp not in ("budget", "calibrate-g", "calibrate-delta0") or raw.get(
        "ablate_cavity"
    )
    if "g_over_2pi_khz" in raw or needs_params:
        if "g_over_2pi_khz" not in raw:
            raise ConfigError("g_over_2pi_khz is required")
        g_khz = raw["g_over_2pi_khz"]
        g1 = _real(raw.get("g1_over_2pi_khz", g_khz))
        g2 = _real(raw.get("g2_over_2pi_khz", g_khz))
        if "delta_over_2pi_khz" not in raw and exp not in (
            "compare-bs", "calibrate-g", "calibrate-delta0"
        ):
            raise ConfigError("delta_over_2pi_khz is required")
        dims = _coerce_dims(raw.get("dims", (6, 5, 6)))
        try:
            cfg.params = SystemParams.from_khz(
                g1,
                g2,
                _real(raw.get("delta_over_2pi_khz", 0.0)),
                dims=dims,
                t1=_triple(raw.get("t1_us"), "t1_us", (None, None, None)),
                tphi=_triple(raw.get("tphi_us"), "tphi_us", (None, None, None)),
                n_th=_triple(raw.get("n_th"), "n_th", (0.0, 0.0, 0.0)),
            )
        except InvalidParameterError as exc:
            raise ConfigError(str(exc)) from exc
    elif "dims" in raw:
        raise ConfigError(f"dims given but {exp} has no system params")

    if "total_time_us" in raw:
        cfg.total_time = _real(raw["total_time_us"])
        if cfg.total_time <= 0:
            raise ConfigError("total_time_us must be positive")
    runs = raw.get("sweep_experiment") if exp == "sweep" else exp
    if "n_samples" in raw and runs in _FINAL_TIME_ONLY:
        raise ConfigError(f"{runs} reads only its final time; n_samples does not apply")
    cfg.n_samples = _whole(raw.get("n_samples", 801))
    if cfg.n_samples < 2:
        raise ConfigError("n_samples must be at least 2")
    if "trotter_dt_us" in raw:
        cfg.trotter_dt = _real(raw["trotter_dt_us"])
    if cfg.method == "trotter" and cfg.trotter_dt is None:
        raise ConfigError("trotter method needs trotter_dt_us")
    cfg.rtol = _real(raw.get("rtol", 1e-8))
    if cfg.rtol <= 0:
        raise ConfigError("rtol must be positive")

    cfg.options = {k: convert(raw[k]) for k, convert in _OPTIONS.items() if k in raw}
    return cfg


def _spec_for(cfg: RunConfig, default_total: float, grid: bool = True) -> EvolutionSpec:
    """The run's spec, sampled on `n_samples` uniform times, or with `grid`
    False at its final time only."""
    total = cfg.total_time if cfg.total_time is not None else default_total
    return EvolutionSpec(
        total_time=total,
        method=cfg.method,
        trotter_dt=cfg.trotter_dt,
        rtol=cfg.rtol,
        sample_times=tuple(np.linspace(0.0, total, cfg.n_samples)) if grid else (total,),
    )


def _fit_report(
    result: ProtocolResult, fit: FitResult, prefix: str, param: str, truth: float
) -> ProtocolResult:
    """Record a calibration fit of `param` in `result`: the truth, estimate
    and sigma as `<prefix>_*` scalars, and the whole fit as table "fit"."""
    result.scalars = {
        f"{prefix}_truth": truth,
        f"{prefix}_estimate": fit.estimates.get(param, float("nan")),
        f"{prefix}_sigma": fit.uncertainties.get(param, float("nan")),
        "residual_norm": fit.residual_norm,
        "converged": float(fit.converged),
    }
    result.tables["fit"] = {
        "estimates": fit.estimates,
        "uncertainties": fit.uncertainties,
        "flags": list(fit.flags),
    }
    return result


def _run_calibrate_g(cfg: RunConfig) -> ProtocolResult:
    opts = cfg.options
    g_truth = khz_to_angular(opts.get("g_truth_over_2pi_khz", 80.0))
    t_max = opts.get("t_max_us", 2.0 / g_truth)
    n = opts.get("n_points", 64)
    t = np.linspace(0.0, t_max, n)
    p0 = generate_tmsv_trace(
        g_truth, t, noise_sigma=opts.get("noise_sigma"), seed=opts.get("seed")
    )
    result = ProtocolResult(name="calibrate-g", times=t, series={"P0": p0})
    return _fit_report(result, fit_tms_strength(t, p0), "g", "g", g_truth)


def _run_calibrate_delta0(cfg: RunConfig) -> ProtocolResult:
    opts = cfg.options
    g = khz_to_angular(opts.get("g_truth_over_2pi_khz", 80.0))
    d0_truth = khz_to_angular(opts.get("delta0_over_2pi_khz", 275.0))
    dd_khz = opts.get("delta_d_over_2pi_khz", [100.0, 200.0, 300.0, 400.0, 500.0])
    dd = np.array([khz_to_angular(x) for x in dd_khz])
    tau = bus_period_model(dd, d0_truth, g)
    result = ProtocolResult(name="calibrate-delta0", times=dd, series={"tau_s2": tau})
    return _fit_report(result, fit_stark_detuning(dd, tau, g), "delta0", "delta_0", d0_truth)


def run_experiment(cfg: RunConfig) -> ProtocolResult:
    """Dispatch a single (non-sweep) experiment."""
    if cfg.experiment == "qst":
        spec = _spec_for(cfg, 2.0 * tau_st(cfg.params))
        return run_single_photon_qst(cfg.params, spec)
    if cfg.experiment == "purified-qst":
        return run_purified_qst(
            cfg.params,
            spec=_spec_for(cfg, tau_st(cfg.params), grid=False),
            purification=cfg.options.get("purification", "qubit+cavity"),
            gamma_q=cfg.options.get("gamma_q", DEFAULT_GAMMA_Q),
        )
    if cfg.experiment == "hom":
        spec = _spec_for(cfg, 2.0 * tau_st(cfg.params))
        return run_hom(cfg.params, spec)
    if cfg.experiment == "binomial":
        return run_binomial_transfer(
            cfg.params,
            label=cfg.options.get("code_label", "0L"),
            spec=_spec_for(cfg, tau_st(cfg.params), grid=False),
            loss_after_transfer=cfg.options.get("loss_after_transfer", False),
            wigner_extent=cfg.options.get("wigner_extent"),
            wigner_points=cfg.options.get("wigner_points", 41),
        )
    if cfg.experiment == "budget":
        return error_budget_report(
            params=cfg.params,
            budget=cfg.options.get("budget"),
            ablate_cavity=cfg.options.get("ablate_cavity", False),
            rtol=cfg.rtol,
        )
    if cfg.experiment == "compare-bs":
        deltas_khz = cfg.options.get(
            "delta_over_2pi_khz_values", [373.0, 463.0, 475.0, 675.0, 775.0]
        )
        deltas = [khz_to_angular(d) for d in deltas_khz]
        return compare_tms_vs_bs(cfg.params.g1, deltas)
    if cfg.experiment == "calibrate-g":
        return _run_calibrate_g(cfg)
    if cfg.experiment == "calibrate-delta0":
        return _run_calibrate_delta0(cfg)
    raise ConfigError(f"experiment {cfg.experiment!r} is not dispatchable here")


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def write_artifacts(result: ProtocolResult, cfg: RunConfig) -> Path:
    """Write manifest.json, trajectory.csv, summary.json (and wigner_*.csv)."""
    dest = cfg.out_dir / cfg.experiment / cfg.label
    dest.mkdir(parents=True, exist_ok=True)
    try:
        manifest = {
            "experiment": cfg.experiment,
            "label": cfg.label,
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
            rows = np.atleast_2d(result.series[key])
            lines = [",".join(_fmt(x) for x in row) for row in rows]
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
        labels = [f"delta-{d_khz:g}" for d_khz in deltas_khz]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            # one artifact directory per point: a repeat would overwrite
            raise ConfigError(f"sweep points share the label(s) {', '.join(repeated)}")
        for d_khz, label in zip(deltas_khz, labels):
            sub = replace(
                cfg,
                experiment=inner_name,
                label=label,
                out_dir=cfg.out_dir / "sweep",
                params=replace(cfg.params, delta=khz_to_angular(d_khz)),
                raw={**cfg.raw, "delta_over_2pi_khz": d_khz, "experiment": inner_name,
                     "label": label},
            )
            result = run_experiment(sub)
            dest = write_artifacts(result, sub)
            _print_summary(result, dest)
        return EXIT_OK
    result = run_experiment(cfg)
    dest = write_artifacts(result, cfg)
    _print_summary(result, dest)
    return EXIT_OK


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
    given = {"experiment": experiment, "out_dir": out_dir, "method": method, "dims": dims}
    try:
        cfg = load_config(config_path, {k: v for k, v in given.items() if v is not None})
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
