import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from exfree import cli, dynamics
from exfree.dynamics import METHODS
from exfree.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICS,
    EXIT_OK,
    EXIT_REGIME,
    ConfigError,
    load_config,
    main,
    parse_config,
)

CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.yaml"))

BASE = {
    "experiment": "qst",
    "g_over_2pi_khz": 80,
    "delta_over_2pi_khz": 475,
    "n_samples": 51,
    "label": "t",
}
#: BASE for the runners that read only the final time, which refuse n_samples.
FINAL_ONLY = {k: v for k, v in BASE.items() if k != "n_samples"}

#: A config that loads, for each experiment.
VALID = {
    "qst": BASE,
    "hom": {**BASE, "experiment": "hom"},
    "binomial": {**FINAL_ONLY, "experiment": "binomial"},
    "purified-qst": {**FINAL_ONLY, "experiment": "purified-qst"},
    "calibrate-g": {"experiment": "calibrate-g"},
    "calibrate-delta0": {"experiment": "calibrate-delta0"},
    "budget": {"experiment": "budget"},
    "compare-bs": {"experiment": "compare-bs", "g_over_2pi_khz": 80},
    "sweep": {**BASE, "experiment": "sweep", "delta_over_2pi_khz_values": [475]},
}


def _listed_keys(name):
    """Every key the table lists for experiment `name`, under any flag; a
    sweep lists its own keys and those of the qst it sweeps by default."""
    entry = cli._EXPERIMENTS[name]
    if name == "sweep":
        return entry.keys(False) | _listed_keys("qst")
    return entry.keys(bool(entry.params))


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(payload))
    return str(p)


class TestLoadConfig:
    def test_units_converted(self, tmp_path):
        cfg = load_config(write(tmp_path, "c.yaml", BASE))
        assert cfg.params.g1 == pytest.approx(2 * np.pi * 0.08)
        assert cfg.params.delta == pytest.approx(2 * np.pi * 0.475)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.yaml")

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "c.yaml", {**BASE, "experiment": "teleport"}))

    def test_missing_coupling(self, tmp_path):
        payload = dict(BASE)
        del payload["g_over_2pi_khz"]
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "c.yaml", payload))

    def test_bad_dims(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "c.yaml", {**BASE, "dims": [6, 5]}))

    def test_trotter_needs_dt(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "c.yaml", {**BASE, "method": "trotter"}))

    def test_per_mode_coherence_lists(self):
        cfg = parse_config({**BASE, "t1_us": [265, None, 314], "tphi_us": [None, 50, None]})
        assert cfg.params.t1 == (265.0, None, 314.0)
        assert cfg.params.tphi == (None, 50.0, None)

    @pytest.mark.parametrize("key", ["t1_us", "tphi_us", "n_th"])
    def test_two_entry_coherence_list_refused(self, key):
        with pytest.raises(ConfigError, match=f"{key} must be a scalar or a 3-list"):
            parse_config({**BASE, key: [100, 200]})

    def test_null_inside_an_n_th_list_is_named(self, tmp_path):
        # a null T1 or Tphi means no decay; a null thermal population means nothing
        assert parse_config({**BASE, "t1_us": [100, None, 100], "n_th": 0.01}).params.t1[1] is None
        cfg_path = write(tmp_path, "c.yaml", {**BASE, "t1_us": 100, "n_th": [0.01, None, 0.02]})
        res = CliRunner().invoke(main, ["qst", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "config error: n_th entries must be numbers, not null" in res.output
        assert not (tmp_path / "o").exists()

    def test_cli_experiment_overrides_file(self, tmp_path):
        cfg = load_config(write(tmp_path, "c.yaml", BASE), {"experiment": "hom"})
        assert cfg.experiment == "hom"

    @pytest.mark.parametrize(
        "key",
        ["n_samples", "rtol", "dims", "method", "out_dir", "g1_over_2pi_khz", "g2_over_2pi_khz"],
    )
    def test_null_means_absent(self, key):
        absent = parse_config({k: v for k, v in BASE.items() if k != key})
        null = parse_config({**BASE, key: None})
        assert replace(null, raw={}) == replace(absent, raw={})

    @pytest.mark.parametrize(
        "payload",
        [
            {**BASE, "experiment": "binomial"},
            {**BASE, "experiment": "purified-qst"},
            {**BASE, "experiment": "sweep", "sweep_experiment": "binomial",
             "delta_over_2pi_khz_values": [467.39]},
        ],
        ids=["binomial", "purified-qst", "sweep-of-binomial"],
    )
    def test_n_samples_refused_where_only_the_final_time_is_read(self, tmp_path, payload):
        cfg_path = write(tmp_path, "c.yaml", payload)
        res = CliRunner().invoke(main, [payload["experiment"], "--config", cfg_path])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "n_samples does not apply" in res.output

    @pytest.mark.parametrize(
        "experiment,key",
        [
            (name, key)
            for name in cli.EXPERIMENTS
            for key in sorted(cli._VOCABULARY - _listed_keys(name))
        ],
    )
    def test_key_an_experiment_does_not_read_refused(self, tmp_path, experiment, key):
        cfg_path = write(tmp_path, "c.yaml", {**VALID[experiment], key: 1})
        out = tmp_path / "runs"
        res = CliRunner().invoke(main, [experiment, "--config", cfg_path, "--out", str(out)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert f"{key} does not apply to" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_valid_payloads_load(self, experiment):
        assert parse_config(VALID[experiment]).experiment == experiment

    def test_every_option_is_read_by_an_experiment(self):
        read = set().union(*(entry.options for entry in cli._EXPERIMENTS.values()))
        assert set(cli._OPTIONS) <= read
        assert cli._VOCABULARY == set().union(*map(_listed_keys, cli.EXPERIMENTS))

    @pytest.mark.parametrize(
        "payload,named",
        [
            ({"experiment": "compare-bs", "g_over_2pi_khz": 80, "g2_over_2pi_khz": 40,
              "dims": [6, 5, 6], "t1_us": 100, "n_samples": 7, "total_time_us": 3,
              "method": "lindblad", "rtol": 0.5}, "g2_over_2pi_khz"),
            ({**BASE, "gamma_q": 0.02, "code_label": "0L", "seed": 3,
              "budget": {"other": 0.1}}, "gamma_q"),
            ({"experiment": "calibrate-g", "g_over_2pi_khz": 80, "delta_over_2pi_khz": 475,
              "method": "trotter", "trotter_dt_us": 0.01, "rtol": 1e-6}, "trotter_dt_us"),
            ({**FINAL_ONLY, "experiment": "sweep", "sweep_experiment": "compare-bs",
              "delta_over_2pi_khz_values": [475, 675]}, "cannot sweep compare-bs"),
            ({**FINAL_ONLY, "experiment": "sweep", "sweep_experiment": "calibrate-g",
              "delta_over_2pi_khz_values": [475, 675]}, "cannot sweep calibrate-g"),
            ({**FINAL_ONLY, "experiment": "sweep", "sweep_experiment": "budget",
              "delta_over_2pi_khz_values": [475, 675]},
             "cannot sweep budget without ablate_cavity"),
            ({**FINAL_ONLY, "experiment": "sweep", "sweep_experiment": "sweep",
              "delta_over_2pi_khz_values": [475, 675]}, "cannot sweep sweep"),
            ({**FINAL_ONLY, "experiment": "budget"},
             "does not apply to budget without ablate_cavity"),
        ],
        ids=["compare-bs", "qst", "calibrate-g", "sweep-of-compare-bs",
             "sweep-of-calibrate-g", "sweep-of-budget", "sweep-of-sweep", "budget-with-params"],
    )
    def test_keys_nothing_reads_refused(self, tmp_path, payload, named):
        cfg_path = write(tmp_path, "c.yaml", payload)
        out = tmp_path / "runs"
        res = CliRunner().invoke(
            main, [payload["experiment"], "--config", cfg_path, "--out", str(out)]
        )
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "config error:" in res.output and named in res.output
        assert not out.exists()

    def test_binomial_spec_holds_only_its_final_time(self, tmp_path, monkeypatch):
        seen = []

        def record(params, spec, **kwargs):
            seen.append(spec)
            raise ConfigError("stop after the spec")

        monkeypatch.setattr(cli, "run_binomial_transfer", record)
        cfg = load_config(write(tmp_path, "c.yaml", {**FINAL_ONLY, "experiment": "binomial"}))
        with pytest.raises(ConfigError, match="stop after the spec"):
            cli.run_experiment(cfg)
        (spec,) = seen
        assert spec.sample_times == (spec.total_time,)


class TestDispatch:
    def test_qst_artifacts(self, tmp_path):
        cfg_path = write(tmp_path, "c.yaml", BASE)
        res = CliRunner().invoke(
            main, ["qst", "--config", cfg_path, "--out", str(tmp_path / "runs")]
        )
        assert res.exit_code == EXIT_OK, res.output
        dest = tmp_path / "runs" / "qst" / "t"
        assert (dest / "manifest.json").exists()
        assert (dest / "summary.json").exists()
        header = (dest / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("t,n1,n2,n3")
        summary = json.loads((dest / "summary.json").read_text())
        assert summary["scalars"]["swap_time_analytic"] == pytest.approx(17.434, abs=1e-3)

    @pytest.mark.parametrize("cfg_path", CONFIGS, ids=lambda p: p.stem)
    def test_data_files_deterministic(self, tmp_path, cfg_path):
        experiment = yaml.safe_load(cfg_path.read_text())["experiment"]
        outs = []
        for d in ("a", "b"):
            res = CliRunner().invoke(
                main, [experiment, "--config", str(cfg_path), "--out", str(tmp_path / d)]
            )
            assert res.exit_code == EXIT_OK, res.output
            files = sorted(
                p for p in (tmp_path / d).rglob("*") if p.is_file() and p.name != "manifest.json"
            )
            assert files
            outs.append({p.relative_to(tmp_path / d): p.read_bytes() for p in files})
        assert outs[0] == outs[1]

    def test_regime_error_exit_code(self, tmp_path):
        cfg_path = write(tmp_path, "c.yaml", {**BASE, "delta_over_2pi_khz": 100})
        res = CliRunner().invoke(main, ["qst", "--config", cfg_path])
        assert res.exit_code == EXIT_REGIME

    def test_unconverged_lindblad_series_exit_code(self, tmp_path, monkeypatch):
        # NaN Bessel coefficients: the series never meets its tail bound
        monkeypatch.setattr(dynamics, "_bessel_j", lambda x, n: np.full((n + 1, x.size), np.nan))
        cfg_path = write(tmp_path, "c.yaml", {**BASE, "method": "lindblad", "dims": [3, 2, 3]})
        res = CliRunner().invoke(main, ["qst", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_NUMERICS, res.output
        assert not (tmp_path / "o").exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = write(tmp_path, "c.yaml", {**BASE, "dims": "6;5;6"})
        res = CliRunner().invoke(main, ["qst", "--config", cfg_path])
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "payload",
        [
            {**BASE, "n_samples": "many"},
            {**BASE, "g_over_2pi_khz": "eighty"},
            {**BASE, "rtol": [1]},
            {**FINAL_ONLY, "experiment": "binomial", "wigner_points": "lots"},
            {**FINAL_ONLY, "experiment": "binomial", "loss_after_transfer": "no"},
            {**BASE, "n_samples": 101.9},
            {**BASE, "dims": [6.7, 5, 6]},
            {**FINAL_ONLY, "experiment": "binomial", "wigner_points": 20.5},
            {**BASE, "n_sampels": 51},
            {**BASE, "method": "lindblad", "dims": [3, 2, 3], "rtol": float("nan")},
            {**BASE, "method": "trotter", "trotter_dt_us": float("nan")},
            {**BASE, "delta_over_2pi_khz": float("inf")},
            {**BASE, "g_over_2pi_khz": float("nan")},
            {**FINAL_ONLY, "experiment": "purified-qst", "gamma_q": -1},
            {**FINAL_ONLY, "experiment": "purified-qst", "gamma_q": float("nan")},
            {**FINAL_ONLY, "experiment": "purified-qst", "gamma_q": True},
            {**BASE, "t1_us": True},
            {**BASE, "g_over_2pi_khz": True},
            {**BASE, "total_time_us": True},
            {**FINAL_ONLY, "experiment": "binomial", "wigner_extent": float("nan")},
            {**FINAL_ONLY, "experiment": "binomial", "wigner_points": -1},
            {**FINAL_ONLY, "experiment": "binomial", "wigner_points": 0},
            {"experiment": "calibrate-g", "g_truth_over_2pi_khz": float("nan")},
            {"experiment": "calibrate-g", "t_max_us": float("nan")},
            {"experiment": "calibrate-g", "noise_sigma": float("nan")},
            {"experiment": "calibrate-g", "noise_sigma": 0.01, "seed": -1},
            {"experiment": "calibrate-delta0", "delta0_over_2pi_khz": float("nan")},
            {**BASE, "t1_us": float("nan")},
            {**BASE, "n_th": float("nan")},
        ],
        ids=[
            "n_samples",
            "g",
            "rtol",
            "wigner_points",
            "loss_after_transfer",
            "fractional_n_samples",
            "fractional_dims",
            "fractional_wigner_points",
            "unknown_key",
            "nan_rtol",
            "nan_trotter_dt",
            "inf_delta",
            "nan_g",
            "negative_gamma_q",
            "nan_gamma_q",
            "bool_gamma_q",
            "bool_t1",
            "bool_g",
            "bool_total_time",
            "nan_wigner_extent",
            "negative_wigner_points",
            "zero_wigner_points",
            "nan_g_truth",
            "nan_t_max",
            "nan_noise_sigma",
            "negative_seed",
            "nan_delta0",
            "nan_t1",
            "nan_n_th",
        ],
    )
    def test_mistyped_value_exit_code(self, tmp_path, payload):
        cfg_path = write(tmp_path, "c.yaml", payload)
        res = CliRunner().invoke(main, [payload["experiment"], "--config", cfg_path])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "config error:" in res.output
        assert "does not apply" not in res.output  # refused for its value, not its key

    @pytest.mark.parametrize("label", ["", ".", "..", "../../esc", "a/b", "a\\b"])
    def test_label_outside_its_directory_refused(self, tmp_path, label):
        out = tmp_path / "deep" / "out"
        cfg_path = write(tmp_path, "c.yaml", {**BASE, "label": label})
        res = CliRunner().invoke(main, ["qst", "--config", cfg_path, "--out", str(out)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "config error:" in res.output
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.yaml"]

    @pytest.mark.parametrize(
        "experiment,text,named",
        [
            ("qst", "experiment: [qst\n", "cannot parse config"),
            ("qst", "- qst\n", "config must be a mapping"),
            ("qst", yaml.safe_dump({**BASE, "method": "magic"}), "unknown method 'magic'"),
            # the exact method has one name, in configs as on the command line
            ("qst", yaml.safe_dump({**BASE, "method": "exact-unitary"}),
             "unknown method 'exact-unitary'"),
            ("sweep", yaml.safe_dump({**BASE, "experiment": "sweep", "sweep_experiment": "teleport",
                                      "delta_over_2pi_khz_values": [475]}),
             "cannot sweep experiment 'teleport'"),
            ("sweep", yaml.safe_dump({**BASE, "experiment": "sweep"}),
             "sweep needs delta_over_2pi_khz_values"),
        ],
        ids=["yaml-syntax", "not-a-mapping", "unknown-method", "long-exact-spelling",
             "unknown-sweep-experiment", "sweep-without-detunings"],
    )
    def test_malformed_config_exits_2_and_writes_nothing(self, tmp_path, experiment, text, named):
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(text)
        out = tmp_path / "runs"
        res = CliRunner().invoke(main, [experiment, "--config", str(cfg_path), "--out", str(out)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert f"config error: {named}" in res.output
        assert not out.exists()

    def test_method_option_offers_the_methods(self, tmp_path):
        (option,) = [p for p in main.params if p.name == "method"]
        assert tuple(option.type.choices) == METHODS
        out = tmp_path / "runs"
        res = CliRunner().invoke(main, ["qst", "--config", write(tmp_path, "c.yaml", BASE),
                                        "--method", "exact-unitary", "--out", str(out)])
        assert res.exit_code == EXIT_CONFIG, res.output  # click's usage error is exit 2 too
        assert not out.exists()

    def test_nonpositive_rtol_exit_code(self, tmp_path):
        payload = {**FINAL_ONLY, "experiment": "purified-qst", "method": "lindblad", "rtol": -1}
        cfg_path = write(tmp_path, "c.yaml", payload)
        res = CliRunner().invoke(main, ["purified-qst", "--config", cfg_path])
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "payload,args",
        [
            (BASE, ["--method", "trotter"]),
            ({"experiment": "calibrate-g"}, ["--dims", "3,2,3"]),
            ({"experiment": "calibrate-g", "dims": [3, 2, 3]}, []),
        ],
        ids=["trotter-without-dt", "dims-without-params", "dims-key-without-params"],
    )
    def test_command_line_values_validated_with_the_file(self, tmp_path, payload, args):
        cfg_path = write(tmp_path, "c.yaml", payload)
        out = tmp_path / "runs"
        res = CliRunner().invoke(
            main, [payload["experiment"], "--config", cfg_path, "--out", str(out), *args]
        )
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "config error:" in res.output
        assert not out.exists()

    def test_dims_override(self, tmp_path):
        cfg_path = write(tmp_path, "c.yaml", {**BASE, "dims": [6, 5, 6]})
        res = CliRunner().invoke(
            main,
            [
                "qst",
                "--config",
                cfg_path,
                "--out",
                str(tmp_path / "runs"),
                "--dims",
                "7,6,7",
            ],
        )
        assert res.exit_code == EXIT_OK
        manifest = json.loads(
            (tmp_path / "runs" / "qst" / "t" / "manifest.json").read_text()
        )
        assert manifest["config"]["dims"] == [6, 5, 6]  # echo of the file, not override
        assert manifest["overrides"] == {"dims": "7,6,7", "out_dir": str(tmp_path / "runs")}

    def test_binomial_runs_trotter(self, tmp_path):
        payload = {
            "experiment": "binomial",
            "g_over_2pi_khz": 80,
            "delta_over_2pi_khz": 467.39,
            "dims": [7, 5, 7],
            "code_label": "0L",
            "method": "trotter",
            "trotter_dt_us": 0.01,
        }
        cfg_path = write(tmp_path, "c.yaml", payload)
        res = CliRunner().invoke(
            main, ["binomial", "--config", cfg_path, "--out", str(tmp_path / "runs")]
        )
        assert res.exit_code == EXIT_OK, res.output

    def test_trotter_samples_off_the_step_grid(self, tmp_path):
        # the default window tau_ST = 17.1163 us is not a whole number of 0.01 us
        # steps; the Trotter run ends at the exact run's time, close to its state
        payload = {
            "experiment": "binomial",
            "g_over_2pi_khz": 80,
            "delta_over_2pi_khz": 467.39,
            "dims": [7, 5, 7],
            "code_label": "0L",
            "trotter_dt_us": 0.01,
        }
        scalars = {}
        for method in ("exact", "trotter"):
            cfg_path = write(tmp_path, f"{method}.yaml", {**payload, "label": method})
            res = CliRunner().invoke(
                main,
                ["binomial", "--config", cfg_path, "--out", str(tmp_path), "--method", method],
            )
            assert res.exit_code == EXIT_OK, res.output
            summary = tmp_path / "binomial" / method / "summary.json"
            scalars[method] = json.loads(summary.read_text())["scalars"]
        exact, trotter = scalars["exact"], scalars["trotter"]
        assert trotter["transfer_time"] == exact["transfer_time"]
        # first-order error at dt = 0.01 us: measured 1.5e-3
        assert trotter["fidelity_received"] == pytest.approx(exact["fidelity_received"], abs=5e-3)

    @pytest.mark.parametrize("name", ["qst", "hom", "binomial", "sweep", "purified"])
    def test_shipped_configs_run_trotter(self, tmp_path, name):
        raw = yaml.safe_load((CONFIGS[0].parent / f"{name}.yaml").read_text())
        cfg_path = write(tmp_path, "c.yaml", {**raw, "method": "trotter", "trotter_dt_us": 0.01})
        res = CliRunner().invoke(
            main, [raw["experiment"], "--config", cfg_path, "--out", str(tmp_path / "runs")]
        )
        assert res.exit_code == EXIT_OK, res.output

    def test_budget_runs_without_params(self, tmp_path):
        cfg_path = write(tmp_path, "c.yaml", {"experiment": "budget", "label": "t"})
        res = CliRunner().invoke(
            main, ["budget", "--config", cfg_path, "--out", str(tmp_path / "runs")]
        )
        assert res.exit_code == EXIT_OK, res.output
        summary = json.loads(
            (tmp_path / "runs" / "budget" / "t" / "summary.json").read_text()
        )
        assert summary["scalars"]["combined_fidelity"] == pytest.approx(0.799, abs=5e-3)

    def test_budget_reads_params_with_ablate_cavity(self, tmp_path):
        payload = {**FINAL_ONLY, "experiment": "budget", "ablate_cavity": True,
                   "dims": [3, 2, 3]}
        cfg_path = write(tmp_path, "c.yaml", payload)
        res = CliRunner().invoke(
            main, ["budget", "--config", cfg_path, "--out", str(tmp_path / "runs")]
        )
        assert res.exit_code == EXIT_OK, res.output
        summary = json.loads(
            (tmp_path / "runs" / "budget" / "t" / "summary.json").read_text()
        )
        assert "cavity_ablation" in summary["tables"]

    def test_rerun_replaces_the_artifact_directory(self, tmp_path):
        payload = {**FINAL_ONLY, "experiment": "binomial", "dims": [5, 3, 5],
                   "wigner_extent": 2, "wigner_points": 5}
        dest = tmp_path / "binomial" / "t"
        for run in (payload, {k: v for k, v in payload.items() if k != "wigner_extent"}):
            cfg_path = write(tmp_path, "c.yaml", run)
            res = CliRunner().invoke(
                main, ["binomial", "--config", cfg_path, "--out", str(tmp_path)]
            )
            assert res.exit_code == EXIT_OK, res.output
        assert sorted(p.name for p in dest.iterdir()) == ["manifest.json", "summary.json"]
        assert [p.name for p in dest.parent.iterdir()] == ["t"]

    def test_failed_write_keeps_the_previous_run(self, tmp_path, monkeypatch):
        cfg_path = write(tmp_path, "c.yaml", BASE)
        args = ["qst", "--config", cfg_path, "--out", str(tmp_path / "runs")]
        assert CliRunner().invoke(main, args).exit_code == EXIT_OK
        dest = tmp_path / "runs" / "qst" / "t"
        before = {p.name: p.read_bytes() for p in dest.iterdir()}

        def fail(rows):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_csv", fail)
        res = CliRunner().invoke(main, args)
        assert isinstance(res.exception, OSError)
        assert {p.name: p.read_bytes() for p in dest.iterdir()} == before
        assert [p.name for p in dest.parent.iterdir()] == ["t"]

    def test_calibrate_g_roundtrip(self, tmp_path):
        cfg_path = write(
            tmp_path,
            "c.yaml",
            {
                "experiment": "calibrate-g",
                "g_truth_over_2pi_khz": 80,
                "t_max_us": 4.0,
                "n_points": 64,
                "label": "t",
            },
        )
        res = CliRunner().invoke(
            main, ["calibrate-g", "--config", cfg_path, "--out", str(tmp_path / "runs")]
        )
        assert res.exit_code == EXIT_OK, res.output
        summary = json.loads(
            (tmp_path / "runs" / "calibrate-g" / "t" / "summary.json").read_text()
        )
        g = summary["scalars"]
        assert g["g_estimate"] == pytest.approx(g["g_truth"], rel=1e-3)

    @pytest.mark.parametrize(
        "payload,code",
        [
            ({"experiment": "calibrate-g", "n_points": -5}, EXIT_CONFIG),
            ({"experiment": "calibrate-g", "noise_sigma": -0.1}, EXIT_CONFIG),
            ({"experiment": "calibrate-g", "t_max_us": 0}, EXIT_CONFIG),
            ({"experiment": "calibrate-g", "t_max_us": -1.5}, EXIT_CONFIG),
            ({"experiment": "calibrate-delta0", "g_truth_over_2pi_khz": 200,
              "delta0_over_2pi_khz": 10}, EXIT_REGIME),
        ],
        ids=["negative-n-points", "negative-noise", "zero-t-max", "negative-t-max",
             "delta0-below-regime"],
    )
    def test_bad_calibration_values_write_nothing(self, tmp_path, payload, code):
        cfg_path = write(tmp_path, "c.yaml", payload)
        out = tmp_path / "runs"
        res = CliRunner().invoke(main, [payload["experiment"], "--config", cfg_path,
                                        "--out", str(out)])
        assert res.exit_code == code, (res.output, res.exception)
        assert not out.exists() or not any(p.is_file() for p in out.rglob("*"))

    def test_sweep_writes_one_set_per_delta(self, tmp_path):
        cfg_path = write(
            tmp_path,
            "c.yaml",
            {
                **BASE,
                "experiment": "sweep",
                "sweep_experiment": "qst",
                "delta_over_2pi_khz_values": [475, 775],
            },
        )
        res = CliRunner().invoke(
            main, ["sweep", "--config", cfg_path, "--out", str(tmp_path / "runs")]
        )
        assert res.exit_code == EXIT_OK, res.output
        base = tmp_path / "runs" / "sweep" / "qst"
        assert (base / "delta-475" / "summary.json").exists()
        assert (base / "delta-775" / "summary.json").exists()

    def test_shipped_sweep_directory_names(self, tmp_path):
        res = CliRunner().invoke(
            main,
            ["sweep", "--config", str(CONFIGS[0].parent / "sweep.yaml"),
             "--out", str(tmp_path), "--dims", "3,2,3"],
        )
        assert res.exit_code == EXIT_OK, res.output
        names = sorted(p.name for p in (tmp_path / "sweep" / "qst").iterdir())
        assert names == ["delta-475", "delta-675", "delta-775"]

    def test_sweep_points_sharing_a_label_refused(self, tmp_path):
        # 475 and 475.0000001 both print as delta-475 under :g
        cfg_path = write(
            tmp_path,
            "c.yaml",
            {**BASE, "experiment": "sweep", "dims": [3, 2, 3],
             "delta_over_2pi_khz_values": [475, 775, 475.0000001]},
        )
        out = tmp_path / "runs"
        res = CliRunner().invoke(main, ["sweep", "--config", cfg_path, "--out", str(out)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "delta-475" in res.output
        assert not out.exists()

    def test_null_label_means_default(self, tmp_path):
        cfg_path = write(tmp_path, "c.yaml", {**BASE, "label": None})
        out = tmp_path / "runs"
        res = CliRunner().invoke(main, ["qst", "--config", cfg_path, "--out", str(out)])
        assert res.exit_code == EXIT_OK, res.output
        assert [p.name for p in (out / "qst").iterdir()] == ["default"]

    @pytest.mark.parametrize(
        "overrides",
        [["--dims", "3,2,3"], ["--dims", "3,2,3", "--method", "lindblad"]],
        ids=["dims", "dims-method"],
    )
    def test_sweep_keeps_overrides(self, tmp_path, overrides):
        sweep_path = write(
            tmp_path,
            "s.yaml",
            {**BASE, "experiment": "sweep", "delta_over_2pi_khz_values": [475]},
        )
        single_path = write(tmp_path, "q.yaml", BASE)
        out = ["--out", str(tmp_path / "runs"), *overrides]
        for experiment, path in (("sweep", sweep_path), ("qst", single_path)):
            res = CliRunner().invoke(main, [experiment, "--config", path, *out])
            assert res.exit_code == EXIT_OK, res.output
        swept = tmp_path / "runs" / "sweep" / "qst" / "delta-475" / "trajectory.csv"
        single = tmp_path / "runs" / "qst" / "t" / "trajectory.csv"
        assert swept.read_bytes() == single.read_bytes()
        given = dict(zip(overrides[::2], overrides[1::2]), out_dir=str(tmp_path / "runs"))
        for manifest in (swept.parent / "manifest.json", single.parent / "manifest.json"):
            recorded = json.loads(manifest.read_text())["overrides"]
            assert recorded == {k.lstrip("-"): v for k, v in given.items()}

    def test_hom_summary_fields(self, tmp_path):
        cfg_path = write(
            tmp_path,
            "c.yaml",
            {**BASE, "experiment": "hom", "delta_over_2pi_khz": 775, "n_samples": 41},
        )
        res = CliRunner().invoke(
            main, ["hom", "--config", cfg_path, "--out", str(tmp_path / "runs")]
        )
        assert res.exit_code == EXIT_OK, res.output
        summary = json.loads(
            (tmp_path / "runs" / "hom" / "t" / "summary.json").read_text()
        )
        assert summary["scalars"]["negativity"] == pytest.approx(0.5, abs=0.01)
        assert "pauli" in summary["tables"]


#: Keys that take one real or whole number.
_SCALAR_KEYS = frozenset(
    ("g_over_2pi_khz", "g1_over_2pi_khz", "g2_over_2pi_khz", "delta_over_2pi_khz", "t1_us",
     "tphi_us", "n_th", "rtol", "total_time_us", "trotter_dt_us", "n_samples")
) | {k for k, convert in cli._OPTIONS.items() if convert in (cli._real, cli._whole)}

#: A quick config of each experiment, at the smallest dims its runner accepts.
_QUICK = {
    "qst": {**BASE, "n_samples": 2, "dims": [2, 2, 2]},
    "hom": {**BASE, "experiment": "hom", "n_samples": 2, "dims": [3, 2, 3]},
    "binomial": {**FINAL_ONLY, "experiment": "binomial", "dims": [5, 2, 5]},
    "purified-qst": {**FINAL_ONLY, "experiment": "purified-qst", "dims": [2, 2, 2]},
    "calibrate-g": VALID["calibrate-g"],
    "calibrate-delta0": VALID["calibrate-delta0"],
    "budget": {**FINAL_ONLY, "experiment": "budget", "ablate_cavity": True, "dims": [2, 2, 2]},
    "compare-bs": VALID["compare-bs"],
    "sweep": {**VALID["sweep"], "n_samples": 2, "dims": [2, 2, 2]},
}


@pytest.mark.parametrize(
    "experiment,key,value",
    [(name, key, value) for name in cli._EXPERIMENTS
     for key in sorted(_listed_keys(name) & _SCALAR_KEYS) for value in (-1, 0)],
)
def test_nonpositive_scalars_exit_with_a_typed_code(tmp_path, experiment, key, value):
    # -1 and 0 are refused (2), out of regime (3), unresolved (4) or fine (0),
    # never an uncaught exception (1)
    cfg_path = write(tmp_path, "c.yaml", {**_QUICK[experiment], key: value})
    res = CliRunner().invoke(
        main, [experiment, "--config", cfg_path, "--out", str(tmp_path / "runs")]
    )
    assert res.exit_code in (0, 2, 3, 4), (res.output, res.exception)
