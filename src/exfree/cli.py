"""Command-line entry point: config ingestion, experiment dispatch, and
figure-data emission.

Config files are YAML with frequencies quoted as f/2pi in kHz and times in
us (the loader converts to internal angular units).  Each experiment reads
the keys its entry in `_EXPERIMENTS` lists, and the loader refuses any
other.  Artifacts land in `<outdir>/<experiment>/<label>/`: a
`manifest.json` with the config echo, the overrides and versions (the only
file carrying a timestamp), `trajectory.csv` and `summary.json` with the
data.  Identical configs produce byte-identical data files.

Exit codes: 0 success, 2 config error, 3 regime error, 4 numerical
nonconvergence.
"""

from __future__ import annotations

import datetime as _dt
import json
import shutil
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional, Union

import click
import numpy as np
import yaml

from . import __version__
from .analytic import tau_st
from .calibration import (
    _TMS_MIN_SAMPLES,
    FitResult,
    bus_period_model,
    fit_stark_detuning,
    fit_tms_strength,
    generate_tmsv_trace,
)
from .dynamics import METHODS, EvolutionSpec
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


class ConfigError(ExfreeError):
    """Malformed or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Validated run configuration in internal units (rad/us, us)."""

    experiment: str
    raw: dict[str, Any]
    params: Optional[SystemParams]
    method: str
    out_dir: Path
    label: str
    total_time: Optional[float]
    n_samples: int
    trotter_dt: Optional[float]
    rtol: float
    options: dict[str, Any]
    overrides: dict[str, Any]


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


def _triple(value, name):
    if np.isscalar(value):
        return (_real(value),) * 3
    vals = tuple(None if v is None else _real(v) for v in value)
    if len(vals) != 3:
        raise ConfigError(f"{name} must be a scalar or a 3-list")
    if name == "n_th" and None in vals:  # a null means no decay only for a time
        raise ConfigError("n_th entries must be numbers, not null")
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
    "g_over_2pi_khz": _real,  # an option of compare-bs, which builds no SystemParams
    "g_truth_over_2pi_khz": _real,
    "delta0_over_2pi_khz": _real,
    "delta_d_over_2pi_khz": lambda v: [_real(x) for x in v],
    "noise_sigma": _real,
    "seed": _whole,
    "t_max_us": _real,
    "n_points": _whole,
    "sweep_experiment": str,
}
#: Runner keywords that differ from their option keys: a config's `label` names the run.
_KEYWORDS = {"code_label": "label"}

#: Keys of every experiment: which run it is and where its artifacts go.
_COMMON = ("experiment", "label", "out_dir")
#: Keys of a simulated device: its `SystemParams` and the solver tolerance.
_SIMULATION = ("g_over_2pi_khz", "g1_over_2pi_khz", "g2_over_2pi_khz", "delta_over_2pi_khz",
               "dims", "t1_us", "tphi_us", "n_th", "rtol")
#: Keys of a propagated run's `EvolutionSpec` besides `rtol` and `n_samples`.
_EVOLUTION = ("method", "total_time_us", "trotter_dt_us")

_VOCABULARY = frozenset(_COMMON + _SIMULATION + _EVOLUTION + ("n_samples",) + tuple(_OPTIONS))


@dataclass(frozen=True)
class _Experiment:
    """What one experiment reads, and how `run(cfg, spec)` runs it.

    `params`: whether it reads `SystemParams` and the `_SIMULATION` keys, or
    the flag option under which it does.  `window`: the default run time in
    units of tau_ST, None if nothing is propagated; `grid` samples it at
    `n_samples` times, else only at its end.  `options`: its `_OPTIONS` keys.
    """

    run: Optional[Callable[[RunConfig, Optional[EvolutionSpec]], ProtocolResult]]
    params: Union[bool, str] = False
    window: Optional[float] = None
    grid: bool = False
    options: tuple[str, ...] = ()

    def keys(self, reads_params: bool) -> frozenset:
        """The config keys this experiment reads."""
        simulation = _SIMULATION if reads_params else ()
        evolution = _EVOLUTION if self.window is not None else ()
        grid = ("n_samples",) if self.grid else ()
        return frozenset(_COMMON + self.options + simulation + evolution + grid)


def _run_compare_bs(cfg: RunConfig) -> ProtocolResult:
    deltas_khz = cfg.options.get("delta_over_2pi_khz_values", [373.0, 463.0, 475.0, 675.0, 775.0])
    deltas = [khz_to_angular(d) for d in deltas_khz]
    return compare_tms_vs_bs(khz_to_angular(cfg.options["g_over_2pi_khz"]), deltas)


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
    if g_truth <= 0:
        raise InvalidParameterError("g_truth_over_2pi_khz must be positive")
    t_max = opts.get("t_max_us", 2.0 / g_truth)
    if t_max <= 0:
        raise InvalidParameterError("t_max_us must be positive")
    n = opts.get("n_points", 64)
    if n < _TMS_MIN_SAMPLES:
        raise InvalidParameterError(f"n_points must be at least {_TMS_MIN_SAMPLES} to fit")
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


#: Every experiment of the command line.  The runners name module-level
#: functions at call time, so patching one of those names takes effect.
_EXPERIMENTS = {
    "qst": _Experiment(lambda c, s: run_single_photon_qst(c.params, s), True, 2.0, True),
    "purified-qst": _Experiment(
        lambda c, s: run_purified_qst(c.params, s, **c.options), True, 1.0,
        options=("purification", "gamma_q"),
    ),
    "hom": _Experiment(lambda c, s: run_hom(c.params, s), True, 2.0, True),
    "binomial": _Experiment(
        lambda c, s: run_binomial_transfer(c.params, spec=s, **c.options), True, 1.0,
        options=("code_label", "loss_after_transfer", "wigner_extent", "wigner_points"),
    ),
    "calibrate-g": _Experiment(
        lambda c, s: _run_calibrate_g(c),
        options=("g_truth_over_2pi_khz", "t_max_us", "n_points", "noise_sigma", "seed"),
    ),
    "calibrate-delta0": _Experiment(
        lambda c, s: _run_calibrate_delta0(c),
        options=("g_truth_over_2pi_khz", "delta0_over_2pi_khz", "delta_d_over_2pi_khz"),
    ),
    "budget": _Experiment(
        lambda c, s: error_budget_report(c.params, rtol=c.rtol, **c.options), "ablate_cavity",
        options=("budget", "ablate_cavity"),
    ),
    "compare-bs": _Experiment(
        lambda c, s: _run_compare_bs(c), options=("g_over_2pi_khz", "delta_over_2pi_khz_values")
    ),
    # a sweep runs its swept experiment once per detuning, and reads its keys
    "sweep": _Experiment(None, options=("sweep_experiment", "delta_over_2pi_khz_values")),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


def parse_config(raw: dict, overrides: Optional[dict] = None) -> RunConfig:
    """Validate a run configuration mapping, with the keys of `overrides`
    (the command line's experiment, out_dir, method and dims) in place of
    the mapping's own.

    All frequencies are f/2pi in kHz.  Every value is converted here, so a
    value of the wrong type is a `ConfigError`, and so is a key the
    experiment does not read; a null value counts as absent.  `RunConfig.raw`
    echoes `raw`; `RunConfig.overrides` keeps the overrides but the experiment.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    merged = {**raw, **(overrides or {})}
    unknown = sorted(str(k) for k in merged if k not in _VOCABULARY)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    # as text, which is how the command line gives them and the manifest takes them
    given = {k: str(v) for k, v in (overrides or {}).items() if k != "experiment" and v is not None}
    try:
        return _parse_mapping({k: v for k, v in merged.items() if v is not None}, raw, given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def _parse_mapping(raw: dict, echo: dict, overrides: dict) -> RunConfig:
    """The run configuration of `raw`, which holds no null value; the
    manifest echoes `echo` and records `overrides`."""
    exp = raw.get("experiment")
    if exp not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; choose from {EXPERIMENTS}")
    label = str(raw.get("label", "default"))
    if label in ("", ".", "..") or "/" in label or "\\" in label:
        # the label names one directory inside <out_dir>/<experiment>
        raise ConfigError(f"label {label!r} must name one directory")

    keys, name, options = frozenset(), exp, {}
    if exp == "sweep":
        sweep = _EXPERIMENTS["sweep"]
        keys = sweep.keys(False)
        options = {k: _OPTIONS[k](raw[k]) for k in sweep.options if k in raw}
        name = options.setdefault("sweep_experiment", "qst")
        if name not in _EXPERIMENTS:
            raise ConfigError(f"cannot sweep experiment {name!r}")
    entry = _EXPERIMENTS[name]
    options.update({_KEYWORDS.get(k, k): _OPTIONS[k](raw[k]) for k in entry.options if k in raw})
    reads_params = entry.params is True or bool(options.get(entry.params))
    if isinstance(entry.params, str) and not reads_params:
        name += f" without {entry.params}"
    if exp == "sweep" and not reads_params:
        # every point replaces the detuning, which this experiment never reads
        raise ConfigError(f"cannot sweep {name}: it reads no detuning")
    keys |= entry.keys(reads_params)
    refused = sorted(str(k) for k in raw if k not in keys)
    if refused:
        where = f"a sweep of {name}" if exp == "sweep" else name
        raise ConfigError(f"{', '.join(refused)} does not apply to {where}")
    for key in ("g_over_2pi_khz", "delta_over_2pi_khz"):
        if key in keys and key not in raw:
            raise ConfigError(f"{key} is required")

    params = None
    if reads_params:
        g_khz = raw["g_over_2pi_khz"]
        g1, g2 = (_real(raw.get(f"g{i}_over_2pi_khz", g_khz)) for i in (1, 2))
        coherence = (("t1_us", "t1"), ("tphi_us", "tphi"), ("n_th", "n_th"))
        device = {name: _triple(raw[key], key) for key, name in coherence if key in raw}
        if "dims" in raw:
            device["dims"] = _coerce_dims(raw["dims"])
        try:
            params = SystemParams.from_khz(g1, g2, _real(raw["delta_over_2pi_khz"]), **device)
        except InvalidParameterError as exc:
            raise ConfigError(str(exc)) from exc

    method = raw.get("method", "exact")
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
    total_time = _real(raw["total_time_us"]) if "total_time_us" in raw else None
    if total_time is not None and total_time <= 0:
        raise ConfigError("total_time_us must be positive")
    n_samples = _whole(raw.get("n_samples", 801))
    if n_samples < 2:
        raise ConfigError("n_samples must be at least 2")
    trotter_dt = _real(raw["trotter_dt_us"]) if "trotter_dt_us" in raw else None
    if method == "trotter" and trotter_dt is None:
        raise ConfigError("trotter method needs trotter_dt_us")
    rtol = _real(raw.get("rtol", 1e-8))
    if rtol <= 0:
        raise ConfigError("rtol must be positive")

    out_dir = Path(raw.get("out_dir", "runs"))
    return RunConfig(exp, dict(echo), params, method, out_dir, label, total_time, n_samples,
                     trotter_dt, rtol, options, overrides)


def run_experiment(cfg: RunConfig) -> ProtocolResult:
    """Run a single (non-sweep) experiment: its spec, sampled on
    `n_samples` uniform times or only at its final time, then its runner."""
    entry = _EXPERIMENTS[cfg.experiment]
    spec = None
    if entry.window is not None:
        total = cfg.total_time or entry.window * tau_st(cfg.params)
        times = tuple(np.linspace(0.0, total, cfg.n_samples)) if entry.grid else (total,)
        spec = EvolutionSpec(total, cfg.method, cfg.trotter_dt, cfg.rtol, times)
    return entry.run(cfg, spec)


def _sweep_points(cfg: RunConfig) -> list[RunConfig]:
    """One run of the swept experiment per detuning, labelled delta-<kHz>."""
    options = dict(cfg.options)
    name = options.pop("sweep_experiment")
    deltas_khz = options.pop("delta_over_2pi_khz_values", None)
    if not deltas_khz:
        raise ConfigError("sweep needs delta_over_2pi_khz_values")
    labels = [f"delta-{d_khz:g}" for d_khz in deltas_khz]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        # one artifact directory per point: a repeat would overwrite
        raise ConfigError(f"sweep points share the label(s) {', '.join(repeated)}")
    return [
        replace(
            cfg, experiment=name, label=label, out_dir=cfg.out_dir / "sweep", options=options,
            params=replace(cfg.params, delta=khz_to_angular(d_khz)),
            raw={**cfg.raw, "delta_over_2pi_khz": d_khz, "experiment": name, "label": label},
        )
        for d_khz, label in zip(deltas_khz, labels)
    ]


def _csv(rows) -> str:
    return "".join(",".join(f"{float(x):.12g}" for x in row) + "\n" for row in rows)


def write_artifacts(result: ProtocolResult, cfg: RunConfig) -> Path:
    """Write manifest.json, trajectory.csv, summary.json (and wigner_*.csv)
    into a sibling temporary directory, which then replaces the previous
    run's directory: a failed write leaves that run as it was."""
    dest = cfg.out_dir / cfg.experiment / cfg.label
    dest.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{cfg.label}.", dir=dest.parent))
    try:
        # mkdtemp makes the directory private; give it the mode its parent got
        tmp.chmod(dest.parent.stat().st_mode & 0o777)
        manifest = {
            "experiment": cfg.experiment,
            "label": cfg.label,
            "config": cfg.raw,
            "overrides": cfg.overrides,
            "versions": {"package": __version__, "python": sys.version.split()[0],
                         "numpy": np.__version__},
            "created": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        }
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))

        wigner_keys = [k for k in result.series if k.startswith("wigner")]
        if result.times is not None:
            cols = {"t": result.times}
            if result.populations is not None:
                cols.update((f"n{k + 1}", col) for k, col in enumerate(result.populations.T))
            cols.update(
                (k, v) for k, v in result.series.items()
                if k not in wigner_keys and np.shape(v) == result.times.shape
            )
            csv = ",".join(cols) + "\n" + _csv(zip(*cols.values()))
            (tmp / "trajectory.csv").write_text(csv)
        for key in wigner_keys:
            (tmp / f"{key}.csv").write_text(_csv(np.atleast_2d(result.series[key])))

        summary = {
            "experiment": result.name,
            "scalars": {k: float(v) for k, v in result.scalars.items()},
            "tables": result.tables,
        }
        (tmp / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True, default=float)
        )
        shutil.rmtree(dest, ignore_errors=True)
        tmp.rename(dest)
    except BaseException:
        # never leave half-written artifact sets behind
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return dest


def _dispatch(cfg: RunConfig) -> int:
    runs = _sweep_points(cfg) if cfg.experiment == "sweep" else [cfg]
    for run in runs:
        result = run_experiment(run)
        dest = write_artifacts(result, run)
        click.echo(f"experiment: {result.name}")
        for key in sorted(result.scalars):
            click.echo(f"  {key}: {result.scalars[key]:.6g}")
        click.echo(f"artifacts: {dest}")
    return EXIT_OK


@click.command(name="exfree-qst")
@click.argument("experiment", type=click.Choice(EXPERIMENTS))
@click.option("--config", "config_path", required=True, help="YAML run configuration.")
@click.option("--out", "out_dir", default=None, help="Artifact output directory.")
@click.option(
    "--method",
    type=click.Choice(METHODS),
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
