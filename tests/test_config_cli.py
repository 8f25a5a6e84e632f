import json

import numpy as np
import pytest

from minimaxclf.cli import main, run_experiment
from minimaxclf.config import ConfigError, config_hash, load_config, validate_config
from minimaxclf.minimax import RunReport
from minimaxclf.reports import trajectory_csv


class TestValidation:
    def test_defaults_validate(self):
        config = validate_config({})
        assert config["experiment"] == "train"

    def test_unknown_loss_names_field_and_choices(self):
        with pytest.raises(ConfigError, match=r"loss\.variant.*XENT.*CE"):
            validate_config({"loss": {"variant": "XENT"}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            validate_config({"losss": {}})
        with pytest.raises(ConfigError, match=r"model\.widht"):
            validate_config({"model": {"widht": 3}})

    def test_bad_imbalance_kind(self):
        with pytest.raises(ConfigError, match=r"dataset\.imbalance\.kind"):
            validate_config({"dataset": {"imbalance": {"kind": "steep", "ratio": 0.1, "base_count": 10}}})

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            validate_config({"preset": "nope"})

    def test_caller_dict_left_unchanged(self):
        config = {"preset": "step10-desk"}
        resolved = validate_config(config)
        assert config == {"preset": "step10-desk"}
        assert resolved["model"]["architecture"] == "mlp"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("iterations", 0),
            ("iterations", "3"),
            ("iterations", 2.5),
            ("iterations", True),
            ("step_scale", -1),
            ("step_scale", 0),
            ("step_scale", "0.1"),
            ("step_scale", True),
            ("mc_samples", 100),
            ("mc_samples", 20_000.0),
            ("mc_samples", True),
            ("seed", "1"),
            ("seed", 1.5),
            ("seed", False),
            ("seed", -1),
            ("resolution", "0.1"),
        ],
    )
    def test_bad_oracle_field_named(self, field, value):
        with pytest.raises(ConfigError, match=rf"oracle\.{field}"):
            validate_config({"experiment": "oracle", "oracle": {field: value}})

    def test_preset_merge_and_override(self):
        config = validate_config({"preset": "step10-desk", "loss": {"tau": 0.5}})
        assert config["dataset"]["imbalance"]["kind"] == "step"
        assert config["loss"]["tau"] == 0.5
        assert config["model"]["architecture"] == "mlp"

    def test_hash_stable_under_key_order(self):
        a = validate_config({"loss": {"tau": 2.0}, "model": {"seed": 3}})
        b = validate_config({"model": {"seed": 3}, "loss": {"tau": 2.0}})
        assert config_hash(a) == config_hash(b)

    def test_load_config_with_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"loss": {"variant": "LA"}}))
        config = load_config(path, overrides={"experiment": "theory", "mc.trials": 20000})
        assert config["loss"]["variant"] == "LA"
        assert config["experiment"] == "theory"
        assert config["mc"]["trials"] == 20000

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


def _tiny_train_config(**extra):
    config = {
        "experiment": "train",
        "dataset": {"benchmark": "two_gaussians_1d", "counts": [60, 30], "seed": 0},
        "model": {"architecture": "linear", "batch_size": 32, "lr_warmup_epochs": 1,
                  "decay_epochs": []},
        "minimax": {"warmup_epochs": 1, "minimax_epochs": 2, "finetune_epochs": 1},
        "eval": {"per_class": 50, "seed": 5},
    }
    config.update(extra)
    return validate_config(config)


class TestExperiments:
    def test_train_artifacts(self, tmp_path):
        out = run_experiment(_tiny_train_config(), tmp_path / "run")
        for name in ("epochs.csv", "trajectory.csv", "summary.json", "checkpoint.npz", "manifest.json"):
            assert (out / name).exists(), name
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.split(",") == ["epoch", "pi_1", "pi_2", "worst_class", "worst_risk"]

    def test_trajectory_column_count_is_k_plus_3(self, tmp_path):
        out = run_experiment(_tiny_train_config(), tmp_path / "run")
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert all(len(line.split(",")) == 2 + 3 for line in lines)
        assert len(lines) == 1 + 4  # header + one row per epoch

    def test_rerun_is_byte_identical(self, tmp_path):
        a = run_experiment(_tiny_train_config(), tmp_path / "a")
        b = run_experiment(_tiny_train_config(), tmp_path / "b")
        for name in ("epochs.csv", "trajectory.csv", "summary.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_theory_tables(self, tmp_path):
        config = validate_config(
            {"experiment": "theory", "theory": {"sample_sizes": [2, 4], "m_worst": 2}}
        )
        out = run_experiment(config, tmp_path / "t")
        lines = (out / "failure_bound.csv").read_text().splitlines()
        assert lines[0] == "N,value"
        assert len(lines) == 3
        assert (out / "mse.csv").exists()

    def test_mc_curves(self, tmp_path):
        config = validate_config(
            {
                "experiment": "mc",
                "mc": {"sample_sizes": [2, 4], "trials": 10_000,
                        "error_vector": [0.9, 0.5, 0.1], "m_worst": 1},
            }
        )
        out = run_experiment(config, tmp_path / "m")
        for name in ("failure_curve.csv", "mse_curve.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "N,theory_value,mc_value,ci_low,ci_high"
            assert len(lines) == 3

    def test_oracle_artifact(self, tmp_path):
        config = validate_config(
            {
                "experiment": "oracle",
                "dataset": {"benchmark": "two_gaussians_1d"},
                "oracle": {"resolution": 0.01},
            }
        )
        out = run_experiment(config, tmp_path / "o")
        payload = json.loads((out / "adversarial_prior.json").read_text())
        assert payload["prior"] == pytest.approx([0.5, 0.5], abs=0.01)
        assert payload["converged"]

    def test_failure_record_written(self, tmp_path):
        config = _tiny_train_config()
        config["dataset"]["counts"] = [60, 1]  # unsplittable class
        with pytest.raises(ValueError):
            run_experiment(config, tmp_path / "f")
        record = json.loads((tmp_path / "f" / "failure.json").read_text())
        assert record["experiment"] == "train"

    def test_ablate_comparison_table(self, tmp_path):
        config = validate_config(
            {
                "experiment": "ablate",
                "dataset": {"benchmark": "two_gaussians_1d", "counts": [80, 40], "seed": 0},
                "model": {"architecture": "linear", "batch_size": 32,
                          "lr_warmup_epochs": 1, "decay_epochs": []},
                "minimax": {"warmup_epochs": 1, "minimax_epochs": 2, "finetune_epochs": 0},
                "eval": {"per_class": 30, "seed": 5},
                "ablate": {"seeds": [0, 1]},
            }
        )
        out = run_experiment(config, tmp_path / "g")
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 4 cells
        cells = (out / "cells.csv").read_text().splitlines()
        assert len(cells) == 1 + 4 * 2
        assert (out / "cell-TLA-linear" / "seed-0" / "summary.json").exists()


class TestCliEntry:
    def test_train_command(self, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(_tiny_train_config()))
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")])
        assert code == 0
        assert (tmp_path / "run" / "summary.json").exists()

    def test_config_error_exit_code_and_record(self, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"loss": {"variant": "nope"}}))
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert code == 2
        record = json.loads(captured.err.strip())
        assert record["error"]["kind"] == "config"
        assert "loss.variant" in record["error"]["message"]

    def test_oracle_zero_iterations_exit_code(self, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "dataset": {"benchmark": "circle", "class_count": 10, "radius": 3.0},
            "oracle": {"method": "ascent", "iterations": 0},
        }))
        code = main(["oracle", "--config", str(config_path), "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.strip())
        assert code == 2
        assert "oracle.iterations" in record["error"]["message"]
        assert not (tmp_path / "x").exists()

    def test_report_command(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(_tiny_train_config()))
        assert main(["train", "--config", str(config_path), "--out", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "worst_class_acc" in out

    def test_preset_flag(self, tmp_path):
        code = main(
            ["theory", "--preset", "figure-validation", "--out", str(tmp_path / "t")]
        )
        assert code == 0
        assert (tmp_path / "t" / "failure_bound.csv").exists()

    def test_seed_override_changes_hash(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(_tiny_train_config()))
        assert main(["train", "--config", str(config_path), "--seed", "7",
                     "--out", str(tmp_path / "s7")]) == 0
        manifest = json.loads((tmp_path / "s7" / "manifest.json").read_text())
        assert manifest["config"]["dataset"]["seed"] == 7


def test_empty_trajectory_is_header_only(tmp_path):
    from minimaxclf.minimax import MinimaxConfig
    from minimaxclf.priors import Prior

    report = RunReport(
        records=[],
        final_prior=Prior.uniform(3),
        prior_trajectory=[],
        params=None,
        train_prior=Prior.uniform(3),
        train_counts=np.array([1, 1, 1]),
        config=MinimaxConfig(),
    )
    path = tmp_path / "empty.csv"
    trajectory_csv(report, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert len(lines[0].split(",")) == 3 + 3