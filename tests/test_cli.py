import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from exfree.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_REGIME,
    ConfigError,
    load_config,
    main,
)

BASE = {
    "experiment": "qst",
    "g_over_2pi_khz": 80,
    "delta_over_2pi_khz": 475,
    "n_samples": 51,
    "label": "t",
}


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

    def test_cli_experiment_overrides_file(self, tmp_path):
        cfg = load_config(write(tmp_path, "c.yaml", BASE), "hom")
        assert cfg.experiment == "hom"


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

    def test_data_files_deterministic(self, tmp_path):
        cfg_path = write(tmp_path, "c.yaml", BASE)
        outs = []
        for d in ("a", "b"):
            res = CliRunner().invoke(
                main, ["qst", "--config", cfg_path, "--out", str(tmp_path / d)]
            )
            assert res.exit_code == EXIT_OK
            outs.append((tmp_path / d / "qst" / "t" / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_regime_error_exit_code(self, tmp_path):
        cfg_path = write(tmp_path, "c.yaml", {**BASE, "delta_over_2pi_khz": 100})
        res = CliRunner().invoke(main, ["qst", "--config", cfg_path])
        assert res.exit_code == EXIT_REGIME

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = write(tmp_path, "c.yaml", {**BASE, "dims": "6;5;6"})
        res = CliRunner().invoke(main, ["qst", "--config", cfg_path])
        assert res.exit_code == EXIT_CONFIG

    def test_nonpositive_rtol_exit_code(self, tmp_path):
        payload = {**BASE, "experiment": "purified-qst", "method": "lindblad", "rtol": -1}
        cfg_path = write(tmp_path, "c.yaml", payload)
        res = CliRunner().invoke(main, ["purified-qst", "--config", cfg_path])
        assert res.exit_code == EXIT_CONFIG

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
