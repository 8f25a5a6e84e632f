import argparse
import contextlib
import copy
import faulthandler
import hashlib
import inspect
import json
import multiprocessing
import operator
import os
import re
import signal
import subprocess
import sys
import threading
import time
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimaxclf import cli, mc
from minimaxclf.cli import RUN_SEEDS, main, run_experiment
from minimaxclf.config import (
    BENCHMARKS,
    DEFAULT_CONFIG,
    EXPERIMENTS,
    PRESETS,
    SCHEMA,
    ConfigError,
    build_data,
    build_mixture,
    config_hash,
    load_config,
    max_ascent_alpha,
    minimax_config,
    validate_config,
)
from minimaxclf.data import (
    ImbalanceProfile,
    circle_mixture,
    make_imbalance_counts,
    sample_mixture,
)
from minimaxclf.mc import _CHUNK, McCurve
from minimaxclf.minimax import RunReport
from minimaxclf.oracle import adversarial_prior_search, bayes_class_risks
from minimaxclf.priors import Prior
from minimaxclf.reports import fmt, write_run

from helpers import save_csv_dataset


_STEP = {"kind": "step", "ratio": 0.5, "base_count": 10}
_CSV = {"csv_path": "data.csv"}
# 1-d oracle configs far from unit scale, with the minimax risk R* of each:
# two classes at -separation and +separation give Phi(-separation / sigma)
# at the uniform prior, and three classes spaced far beyond sigma never err.
_FAR_FROM_UNIT_SCALE = [
    ("two_gaussians_1d", "sigma", 1e-300, 0.0),
    ("two_gaussians_1d", "sigma", 1e-160, 0.0),
    ("two_gaussians_1d", "sigma", 1e160, 0.5),
    ("two_gaussians_1d", "sigma", 1e300, 0.5),
    ("two_gaussians_1d", "separation", 1e200, 0.0),
    ("three_gaussians_1d", "spacing", 1e160, 0.0),
    ("three_gaussians_1d", "spacing", 1e300, 0.0),
]

# A test that starts the spawn pool and is still running after this many
# seconds prints every thread's traceback and ends the test run, so a pool
# that never shuts down fails loudly instead of stalling the suite. Such a
# test takes under 1 s on 2 vCPUs; the killed-parent test's own deadlines
# add up to 75 s, and the killed-worker test's to 95 s.
POOL_TEST_LIMIT = 120


@pytest.fixture
def pool_deadline(request):
    # to the terminal's stderr, not to the capture a killed run would lose
    capture = request.config.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled():
        stderr = os.dup(sys.stderr.fileno())
    faulthandler.dump_traceback_later(POOL_TEST_LIMIT, exit=True, file=stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        os.close(stderr)


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
        imbalance = {"kind": "step", "ratio": 0.1, "base_count": 10, "size": 3}
        with pytest.raises(ConfigError, match=r"dataset\.imbalance\.size"):
            validate_config({"dataset": {"imbalance": imbalance}})
        # the Monte Carlo oracle's fields are gone, so an old config naming them exits 2
        with pytest.raises(ConfigError, match=r"unknown config field 'oracle\.mc_samples'"):
            validate_config({"oracle": {"mc_samples": 100000}})
        # theory reads its curve from the mc section, and has none of its own
        with pytest.raises(ConfigError, match=r"unknown config field 'theory'"):
            validate_config({"theory": {"mse_probability": 0.5}})

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
        "config, field",
        [
            pytest.param({"experiment": "oracle", "oracle": {key: value}}, f"oracle.{key}",
                         id=f"{key}-{value}")
            for key, value in [
                ("iterations", 0),
                ("iterations", "3"),
                ("iterations", 2.5),
                ("iterations", True),
                ("resolution", "0.1"),
                ("resolution", 0.4),
                ("resolution", 0.3),
                ("resolution", 5e-324),
                ("resolution", 1e-300),
                ("resolution", 1 / 2001),
            ]
        ]
        + [
            pytest.param(config, field, id=name)
            for name, config, field in [
                ("learning_rate-str", {"model": {"learning_rate": "0.1"}}, "model.learning_rate"),
                ("learning_rate-inf", {"model": {"learning_rate": float("inf")}},
                 "model.learning_rate"),
                ("learning_rate-nan", {"model": {"learning_rate": float("nan")}},
                 "model.learning_rate"),
                ("learning_rate-huge-int", {"model": {"learning_rate": 10**400}},
                 "model.learning_rate"),
                ("decay_epochs-str", {"model": {"decay_epochs": "40"}}, "model.decay_epochs"),
                ("batch_size-1.5", {"model": {"batch_size": 1.5}}, "model.batch_size"),
                ("m_worst-True", {"ascent": {"m_worst": True}}, "ascent.m_worst"),
                ("weight_decay--1", {"model": {"weight_decay": -1}}, "model.weight_decay"),
                ("m_worst-above-K", {"dataset": {"benchmark": "two_gaussians_1d"},
                                     "ascent": {"m_worst": 5}}, "ascent.m_worst"),
                ("counts-negative", {"dataset": {"benchmark": "two_gaussians_1d",
                                                 "counts": [10, -1]}}, "dataset.counts"),
                ("counts-length", {"dataset": {"benchmark": "two_gaussians_1d",
                                               "counts": [10, 10, 10]}}, "dataset.counts"),
                ("fixed_target-sum", {"dataset": {"benchmark": "two_gaussians_1d"},
                                      "minimax": {"fixed_target": [0.6, 0.5]}},
                 "minimax.fixed_target"),
                ("fixed_target-length", {"dataset": {"benchmark": "two_gaussians_1d"},
                                         "minimax": {"fixed_target": [0.2, 0.3, 0.5]}},
                 "minimax.fixed_target"),
                ("sigma-0", {"dataset": {"sigma": 0}}, "dataset.sigma"),
                ("per_class-0", {"eval": {"per_class": 0}}, "eval.per_class"),
                ("per_class-1", {"eval": {"per_class": 1}}, "eval.per_class"),
                ("hidden_width-0", {"model": {"hidden_width": 0}}, "model.hidden_width"),
                ("name-5", {"name": 5}, "name"),
                ("seeds-empty", {"ablate": {"seeds": []}}, "ablate.seeds"),
                ("seeds-repeated", {"ablate": {"seeds": [0, 0]}}, "ablate.seeds"),
                ("mc-sample_sizes-empty", {"mc": {"sample_sizes": []}}, "mc.sample_sizes"),
                ("mc-sample_sizes-repeated", {"mc": {"sample_sizes": [2, 2]}}, "mc.sample_sizes"),
                ("imbalance-one-sample", {"dataset": {"class_count": 4, "imbalance": {
                    "kind": "step", "ratio": 0.01, "base_count": 100}}}, "dataset.imbalance"),
                ("imbalance-no-sample", {"dataset": {"imbalance": {
                    "kind": "long_tail", "ratio": 0.001, "base_count": 100}}},
                 "dataset.imbalance"),
                ("counts-and-imbalance", {"dataset": {"benchmark": "two_gaussians_1d",
                                                      "counts": [10, 10], "imbalance": _STEP}},
                 "dataset.imbalance"),
                ("csv-counts", {"dataset": {**_CSV, "counts": [10, 10]}}, "dataset.counts"),
                ("csv-imbalance", {"dataset": {**_CSV, "imbalance": _STEP}}, "dataset.imbalance"),
                ("csv-benchmark", {"dataset": {**_CSV, "benchmark": "two_gaussians_1d"}},
                 "dataset.benchmark"),
                ("csv-mixture-field", {"dataset": {**_CSV, "radius": 3.0}}, "dataset.radius"),
                ("synthetic-csv_header", {"dataset": {"csv_header": True}}, "dataset.csv_header"),
                ("unread-class_count", {"dataset": {"benchmark": "two_gaussians_1d",
                                                    "class_count": 7, "radius": 9.0}},
                 "dataset.class_count"),
                ("unread-radius", {"dataset": {"benchmark": "three_gaussians_1d", "radius": 9.0}},
                 "dataset.radius"),
                ("unread-separation", {"dataset": {"benchmark": "three_gaussians_1d",
                                                   "separation": 2.0}}, "dataset.separation"),
                ("unread-spacing", {"dataset": {"benchmark": "two_gaussians_1d", "spacing": 3.0}},
                 "dataset.spacing"),
                ("unread-sigma", {"dataset": {"sigma": 2.0}}, "dataset.sigma"),
                ("unread-preset-radius", {"preset": "step10-desk",
                                          "dataset": {"benchmark": "two_gaussians_1d"}},
                 "dataset.radius"),
                # auto runs the grid wherever it applies, so "grid" is no choice
                ("oracle-grid", {"experiment": "oracle", "oracle": {"method": "grid"},
                                 "dataset": {"benchmark": "three_gaussians_1d"}},
                 "oracle.method"),
                ("m_worst-text", {"ascent": {"m_worst": "all"}}, "ascent.m_worst"),
                ("mc-m_worst-above-vector", {"mc": {"error_vector": [0.5, 0.2], "m_worst": 3}},
                 "mc.m_worst"),
                # class c's CDF keys of the Monte Carlo tables fill [c, c + 1) * 2**53 in int64
                ("mc-classes-past-int64-keys", {"mc": {"error_vector": [0.5] * 1025}},
                 "mc.error_vector"),
                ("section-not-object", {"loss": 5}, "loss"),
                ("linear-alpha-1", {"ascent": {"alpha": 1.0}}, "ascent.alpha"),
            ]
        ],
    )
    def test_bad_oracle_field_named(self, config, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}:"):
            validate_config(config)

    @pytest.mark.parametrize(
        "preset, expected",
        [
            (None, "deca0f539721b22c77dbaa4ba8889b6bb92b1bd304e1e546ee0899288cdd3110"),
            ("step10-desk", "35418ba0aabf1009f700e5bae308107ebd1a1f6934b6d4f076f14c6004a619c3"),
            ("lt10-desk", "e8f642a7a761d73d58581332b45fa7b29a636687e68ff00322f2516b8ecdfab1"),
            ("two-class-1d", "b4e6a7a86bccd31d7ea367a51373761e3fba4a500aa311792ae4683ddafe2a56"),
            ("three-class-oracle",
             "ab85cedb256dbddba19c354e6375b65235e1855e7bc2c7264626dfe9a058713d"),
            ("figure-validation",
             "4db6b89acf9e6ed0974a47aa64b40638dacfabac8bff1f15f2bf38ea153eac1c"),
        ],
        # named by preset, so re-pinning a hash does not rename the test
        ids=["default", "step10-desk", "lt10-desk", "two-class-1d", "three-class-oracle",
             "figure-validation"],
    )
    def test_resolved_config_hash_pinned(self, preset, expected):
        # the manifest carries this hash, so a changed default changes artifacts
        config = {} if preset is None else {"preset": preset}
        assert config_hash(validate_config(config)) == expected

    def test_run_seeds_feed_minimax_config(self):
        # dataset.seed seeds the data and its split, model.seed the training
        run = minimax_config(validate_config({"dataset": {"seed": 3}, "model": {"seed": 4}}))
        assert run.partition_seed == 3
        assert run.init_seed == run.train.seed == run.ascent.tie_seed == 4

    def test_preset_merge_and_override(self):
        config = validate_config({"preset": "step10-desk", "loss": {"tau": 0.5}})
        assert config["dataset"]["imbalance"]["kind"] == "step"
        assert config["loss"]["tau"] == 0.5
        assert config["model"]["architecture"] == "mlp"

    @pytest.mark.parametrize("resolution", [1e-3, 5e-3, 1e-2, 0.25, 1 / 3, 5e-4])
    def test_grid_resolution_accepted(self, resolution):
        # 1 / resolution is an integer, so the grid steps by exactly it
        config = validate_config({"experiment": "oracle", "oracle": {"resolution": resolution}})
        assert config["oracle"]["resolution"] == resolution

    @pytest.mark.parametrize(
        "config, same",
        [
            ({"dataset": {"sigma": 1}}, {}),
            ({"model": {"learning_rate": 1}}, {"model": {"learning_rate": 1.0}}),
            ({"ascent": {"alpha": 0}}, {"ascent": {"alpha": 0.0}}),
            ({"mc": {"error_vector": [1, 0, 0.5], "m_worst": 1}},
             {"mc": {"error_vector": [1.0, 0.0, 0.5], "m_worst": 1}}),
            ({"dataset": {"imbalance": {"kind": "step", "ratio": 1, "base_count": 10}}},
             {"dataset": {"imbalance": {"kind": "step", "ratio": 1.0, "base_count": 10}}}),
            ({"model": {"seed": np.int64(3)}}, {"model": {"seed": 3}}),
            ({"ascent": {"m_worst": np.int64(2)}}, {"ascent": {"m_worst": 2}}),
            ({"ablate": {"seeds": [np.int64(1)]}}, {"ablate": {"seeds": [1]}}),
            ({"mc": {"sample_sizes": [np.int32(4)]}}, {"mc": {"sample_sizes": [4]}}),
            ({"model": {"learning_rate": np.int64(1)}}, {"model": {"learning_rate": 1.0}}),
        ],
        ids=["scalar-default", "scalar", "nullable", "list", "imbalance-ratio", "numpy-int",
             "numpy-m_worst", "numpy-int-list", "numpy-int32-list", "numpy-int-number"],
    )
    def test_number_field_stored_as_float(self, config, same):
        # an integer spelling of a number field is the same config, and a
        # numpy integer is stored as a Python int or float: the hash's JSON
        # takes no numpy scalar
        assert config_hash(validate_config(config)) == config_hash(validate_config(same))

    def test_integer_field_stays_int(self):
        resolved = validate_config({"model": {"decay_epochs": [40]}})
        assert type(resolved["model"]["batch_size"]) is int
        assert type(resolved["model"]["decay_epochs"][0]) is int
        assert type(resolved["mc"]["trials"]) is int

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


def _tiny_ablate_config():
    return validate_config(
        {
            "experiment": "ablate",
            "dataset": {"benchmark": "two_gaussians_1d", "counts": [80, 40], "seed": 0},
            # a run seed at its default, as ablate requires, may still be written
            "model": {"architecture": "linear", "batch_size": 32,
                      "lr_warmup_epochs": 1, "decay_epochs": [], "seed": 0},
            "minimax": {"warmup_epochs": 1, "minimax_epochs": 2, "finetune_epochs": 0},
            "eval": {"per_class": 30, "seed": 5},
            "ablate": {"seeds": [0, 1]},
        }
    )


def _csv_dataset(tmp_path, counts=(40, 24, 16)) -> dict:
    """The dataset section of a config reading a small 3-class circle sample,
    of the given per-class counts, from CSV."""
    path = tmp_path / "data.csv"
    save_csv_dataset(path, sample_mixture(circle_mixture(3), counts, seed=0))
    return {"csv_path": str(path)}


def _tiny_mc_config(sample_sizes, trials=10_000):
    return validate_config(
        {
            "experiment": "mc",
            "mc": {"sample_sizes": sample_sizes, "trials": trials,
                   "error_vector": [0.9, 0.5, 0.4, 0.1], "m_worst": 2},
        }
    )


def _blas_environ() -> dict:
    return {var: os.environ.get(var) for var in cli.BLAS_THREAD_VARS}


def _artifact_digests(out) -> dict:
    """SHA-256 of every CSV and JSON file under ``out``, by relative path."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.suffix in (".csv", ".json")
    }


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _spawned_workers(session: int) -> list:
    """Pids of the pool workers in one session, read from /proc."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            cmdline = (stat.parent / "cmdline").read_bytes()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[3]) == session and b"spawn_main" in cmdline:
            pids.append(int(stat.parent.name))
    return pids


_TWO_CPUS_AND_PROC = pytest.mark.skipif(
    not Path("/proc/self/stat").exists() or len(os.sched_getaffinity(0)) < 2,
    reason="reads /proc; the pool needs two usable CPUs",
)


def _cpu_seconds(pid: int) -> float:
    """The user and system CPU time a process has used, read from /proc."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except FileNotFoundError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@contextlib.contextmanager
def _ablate_session(tmp_path):
    """An ``ablate`` CLI process in a new session, with stderr to
    ``tmp_path / "stderr"``, and the pids of its pool workers once two are in
    their first cell run: each has used 1 s of CPU, where its imports take
    about 0.3 s and a cell run 5 s. On the way out the session is killed."""
    config = _tiny_ablate_config()
    config["minimax"]["warmup_epochs"] = 10_000  # seconds per cell run
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(config))
    with open(tmp_path / "stderr", "wb") as stderr:
        parent = subprocess.Popen(
            [sys.executable, "-m", "minimaxclf.cli", "ablate", "--config", str(config_path),
             "--out", str(tmp_path / "x")],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            start_new_session=True, stdout=subprocess.DEVNULL, stderr=stderr,
        )
    try:
        deadline = time.monotonic() + 60
        while len(workers := [pid for pid in _spawned_workers(parent.pid)
                              if _cpu_seconds(pid) >= 1]) < 2:
            assert time.monotonic() < deadline, "the pool never started"
            time.sleep(0.05)
        yield parent, workers
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(parent.pid, signal.SIGKILL)
        parent.wait(timeout=10)


def _no_worker_within(session: int, seconds: float) -> None:
    deadline = time.monotonic() + seconds
    while _spawned_workers(session):
        assert time.monotonic() < deadline, "a pool worker ran on"
        time.sleep(0.05)


def _leaves(node: dict, prefix: str = ""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(sorted(_leaves(_tiny_train_config()))),
    value=st.sampled_from(["x", True, -1, 0, 1.5, None, [], {}, float("inf")]),
)
def test_any_leaf_either_named_or_runs(tmp_path_factory, field, value):
    """Replacing one leaf of a valid config either fails validation with a
    ConfigError naming that leaf, or leaves a config that runs to the end."""
    config = copy.deepcopy(_tiny_train_config())
    *sections, key = field.split(".")
    node = config
    for section in sections:
        node = node[section]
    node[key] = value
    try:
        resolved = validate_config(config)
    except ConfigError as err:
        assert field in str(err)
        return
    run_experiment(resolved, tmp_path_factory.mktemp("run"))


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
            {"experiment": "theory", "mc": {"sample_sizes": [2, 4], "m_worst": 2}}
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
        # the gap is recomputable from the per-class risks written next to it
        rows = (out / "risks_at_adversarial_prior.csv").read_text().splitlines()[1:]
        risks = [float(row.split(",")[1]) for row in rows]
        assert payload["gap"] == max(risks) - payload["risk"]
        assert 0 <= payload["gap"] <= 1e-3

    def test_oracle_artifact_reports_evaluations(self, tmp_path):
        # the circle's uniform start certifies itself, so the search makes 1
        # of its 8 evaluations and writes what the best of all 8 was
        config = validate_config(
            {
                "experiment": "oracle",
                "dataset": {"benchmark": "circle", "class_count": 10, "radius": 3.0},
                "oracle": {"method": "ascent", "iterations": 8},
            }
        )
        out = run_experiment(config, tmp_path / "o")
        risks = bayes_class_risks(circle_mixture(10, 3.0), Prior.uniform(10)).estimates
        risk = float(np.dot(np.full(10, 0.1), risks))
        assert json.loads((out / "adversarial_prior.json").read_text()) == {
            "prior": [0.1] * 10,
            "risk": risk,
            "method": "ascent",
            "gap": float(risks.max()) - risk,
            "iterations": 8,
            "evaluations": 1,
        }
        assert risk == pytest.approx(0.35380168174086707, abs=1e-12)
        rows = [f"{y + 1},{fmt(r)}" for y, r in enumerate(risks)]
        csv_text = (out / "risks_at_adversarial_prior.csv").read_text()
        assert csv_text.splitlines() == ["class,risk", *rows]

    def test_default_dirs_of_one_second_are_distinct(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(time, "strftime", lambda fmt: "20260101-000000")
        configs = [
            validate_config({"experiment": "theory", "mc": {"sample_sizes": sizes, "m_worst": 2}})
            for sizes in ([2], [2, 4], [2, 4, 8])
        ]
        outs = [run_experiment(config) for config in configs]
        stamped = "artifacts/run-20260101-000000"
        assert outs == [Path(stamped), Path(stamped + "-2"), Path(stamped + "-3")]
        for out, config in zip(outs, configs):
            assert json.loads((out / "manifest.json").read_text())["config"] == config
            assert len((out / "failure_bound.csv").read_text().splitlines()) == 1 + len(
                config["mc"]["sample_sizes"])
        # an explicit directory may exist already, and is written over
        assert run_experiment(configs[0], outs[2]) == outs[2]
        assert json.loads((outs[2] / "manifest.json").read_text())["config"] == configs[0]

    def test_failure_record_written(self, tmp_path):
        config = _tiny_train_config()
        config["dataset"]["counts"] = [60, 1]  # unsplittable class
        with pytest.raises(ValueError):
            run_experiment(config, tmp_path / "f")
        record = json.loads((tmp_path / "f" / "failure.json").read_text())
        assert record["experiment"] == "train"

    @pytest.mark.usefixtures("pool_deadline")
    def test_ablate_comparison_table(self, tmp_path):
        out = run_experiment(_tiny_ablate_config(), tmp_path / "g")
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 4 cells
        cells = (out / "cells.csv").read_text().splitlines()
        assert len(cells) == 1 + 4 * 2
        assert (out / "cell-TLA-linear" / "seed-0" / "summary.json").exists()

    @pytest.mark.usefixtures("pool_deadline")
    def test_ablate_rerun_drops_earlier_grid(self, tmp_path):
        # a smaller grid into the same --out leaves no run of the larger one
        config = _tiny_ablate_config()
        config["minimax"].update(warmup_epochs=1, minimax_epochs=0)
        out = run_experiment(config, tmp_path / "g")
        assert len(list(out.glob("cell-*/seed-1"))) == 4
        (out / "notes.txt").write_text("kept")
        (out / "cell-notes.txt").write_text("kept")
        config["ablate"]["seeds"] = [0]
        run_experiment(validate_config(config), out)
        runs = sorted(p.relative_to(out).as_posix() for p in out.glob("cell-*/seed-*"))
        cells = [f"cell-{loss}-{ascent}" for loss in ("TLA", "TWCE") for ascent in ("ega", "linear")]
        assert runs == [f"{cell}/seed-0" for cell in cells]
        assert len((out / "cells.csv").read_text().splitlines()) == 1 + 4
        assert (out / "notes.txt").read_text() == (out / "cell-notes.txt").read_text() == "kept"

    @pytest.mark.usefixtures("pool_deadline")
    def test_train_run_matches_its_ablation_cell(self, tmp_path):
        # a train run and the ablation cell with its loss and ascent get
        # their data from build_data and their artifacts from write_run
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({**_tiny_train_config(), "ablate": {"seeds": [3]}}))
        argv = ["--config", str(config_path), "--out"]
        assert main(["train", *argv, str(tmp_path / "train"), "--seed", "3"]) == 0
        assert main(["ablate", *argv, str(tmp_path / "ablate")]) == 0
        run, cell = tmp_path / "train", tmp_path / "ablate" / "cell-TLA-linear" / "seed-3"
        for name in ("epochs.csv", "trajectory.csv"):
            assert (run / name).read_bytes() == (cell / name).read_bytes(), name
        run_summary = json.loads((run / "summary.json").read_text())
        assert len(run_summary.pop("inter_intra_ratio")) == 2
        assert run_summary == json.loads((cell / "summary.json").read_text())

    def test_csv_source_train(self, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(_tiny_train_config(dataset=_csv_dataset(tmp_path))))
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["train_counts"] == [40, 24, 16]
        assert not [key for key in summary if key.startswith("worst_class")]
        assert "inter_intra_ratio" not in summary

    def test_csv_source_takes_seed_and_eval(self, tmp_path, capsys):
        # a CSV source reads dataset.seed for its model/prior split, and the
        # config sets the eval section, unlike the benchmark fields
        config = _tiny_train_config(dataset={**_csv_dataset(tmp_path), "seed": 5})
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        argv = ["train", "--config", str(config_path), "--out", str(tmp_path / "run")]
        assert main([*argv, "--seed", "3"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["dataset"]["seed"] == 3
        # at one model.seed, dataset.seed alone moves the split, and so the run
        epochs = []
        for seed in (0, 5):
            config_path.write_text(json.dumps({**config, "dataset": {**config["dataset"],
                                                                     "seed": seed}}))
            assert main([*argv[:-1], str(tmp_path / f"seed-{seed}")]) == 0
            epochs.append((tmp_path / f"seed-{seed}" / "epochs.csv").read_bytes())
        assert epochs[0] != epochs[1]

    @pytest.mark.usefixtures("pool_deadline")
    def test_csv_source_ablate(self, tmp_path, capsys):
        config = _tiny_train_config(dataset=_csv_dataset(tmp_path), ablate={"seeds": [0, 1]})
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        assert main(["ablate", "--config", str(config_path), "--out", str(tmp_path / "g")]) == 0
        cells = (tmp_path / "g" / "cells.csv").read_text().splitlines()
        assert [row.split(",")[3:] for row in cells[1:]] == [["", "", ""]] * 8
        medians = (tmp_path / "g" / "comparison.csv").read_text().splitlines()
        assert [row.split(",")[2:] for row in medians[1:]] == [["", "", ""]] * 4

    @pytest.mark.usefixtures("pool_deadline")
    def test_ablate_pool_matches_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        environ = _blas_environ()

        def refuse(*args):
            raise AssertionError("a cell ran in the parent process")

        # two usable CPUs: a pool of two spawned workers runs the 8 cell runs
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            patch.setattr(cli, "run_minimax", refuse)
            pooled = _artifact_digests(run_experiment(_tiny_ablate_config(), tmp_path / "pool"))
        assert _blas_environ() == environ
        # one usable CPU: the cell runs take turns in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = _artifact_digests(run_experiment(_tiny_ablate_config(), tmp_path / "serial"))
        assert _blas_environ() == environ
        assert len(pooled) == 3 + 3 * 8  # manifest, cells, comparison; 3 files per cell run
        assert pooled == serial

    @staticmethod
    def _mc_threads(monkeypatch, config, out, cpus) -> tuple:
        """Artifact digests of an ``mc`` run on ``cpus`` usable CPUs, and the
        set of threads its chunk tasks ran on, in a thread bounded in time.
        No task goes on before as many threads as the pool may start have
        entered one, so that a loaded host cannot leave a thread unstarted."""
        threads, outcome, met = set(), [], threading.Event()
        meet = min(len(cpus), -(-config["mc"]["trials"] // _CHUNK))
        tally = McCurve.tally

        def recorded(curve, i):
            threads.add(threading.current_thread())
            if len(threads) >= meet:
                met.set()
            met.wait(timeout=30)
            return tally(curve, i)

        def run():
            outcome.append(_artifact_digests(run_experiment(config, out)))

        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            patch.setattr(McCurve, "tally", recorded)
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(timeout=120)
        assert not runner.is_alive(), "the mc run did not end in 120 s"
        return outcome[0], threads

    def test_mc_threads_match_one_cpu(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        environ, before = _blas_environ(), threading.active_count()
        config = _tiny_mc_config([2, 4, 8], trials=40_000)  # three chunks, the last one short
        # two usable CPUs: two pool threads run the chunks, with no BLAS
        # thread switch
        threaded, ran_on = self._mc_threads(monkeypatch, config, tmp_path / "threads", {0, 1})
        assert len(ran_on) == 2 and _blas_environ() == environ
        # one usable CPU: the chunks take turns in the thread that runs mc
        serial, ran_on = self._mc_threads(monkeypatch, config, tmp_path / "serial", {0})
        assert len(ran_on) == 1
        assert sorted(threaded) == ["failure_curve.csv", "manifest.json", "mse_curve.csv"]
        assert threaded == serial
        assert threading.active_count() == before

    def test_mc_single_sample_size_spreads_its_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        before = threading.active_count()
        # two usable CPUs and one sample size: its chunks still spread over
        # two pool threads, with no BLAS thread switch, which end with the run
        config = _tiny_mc_config([4], trials=40_000)
        started = time.monotonic()
        threaded, ran_on = self._mc_threads(monkeypatch, config, tmp_path / "two", {0, 1})
        assert time.monotonic() - started < 10
        assert len(ran_on) == 2 and os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert threading.active_count() == before
        lines = (tmp_path / "two" / "failure_curve.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["N", "4"]
        serial, _ = self._mc_threads(monkeypatch, config, tmp_path / "one", {0})
        assert threaded == serial

    def test_mc_more_threads_than_cores(self, tmp_path, monkeypatch):
        # six usable CPUs, more threads than a small host has cores, for 7
        # chunks of 8 sample sizes, and a short switch interval: the threads
        # interleave often, and every row must still be the one a single
        # thread writes
        config = _tiny_mc_config([1, 2, 3, 5, 8, 13, 21, 34], trials=100_000)  # the last chunk short
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded, ran_on = self._mc_threads(monkeypatch, config, tmp_path / "six", {*range(6)})
        finally:
            sys.setswitchinterval(interval)
        serial, _ = self._mc_threads(monkeypatch, config, tmp_path / "one", {0})
        assert len(ran_on) == 6
        assert threaded == serial

    def test_mc_passes_match_one_pass(self, tmp_path, monkeypatch):
        # with the cap at 10, the sizes split into three passes, and the run
        # writes the rows of the one pass the real cap allows
        config = _tiny_mc_config([4, 5, 3, 9])
        one_pass = _artifact_digests(run_experiment(config, tmp_path / "one"))
        monkeypatch.setattr(mc, "MAX_SAMPLE_SIZE", 10)
        assert mc._size_groups([4, 5, 3, 9]) == [[4, 5], [3], [9]]
        assert _artifact_digests(run_experiment(config, tmp_path / "three")) == one_pass

    @staticmethod
    def _mc_failing(tmp_path, monkeypatch, task) -> tuple:
        """Run ``mc`` over two sample sizes of 10**9 trials (minutes) on two
        usable CPUs, with ``task(i, tally)`` in place of each chunk's
        ``McCurve.tally``, where ``tally()`` runs chunk ``i``; the error the
        run raised, or None, once it has ended within 10 s with no thread
        left behind."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = _tiny_mc_config([2, 4], trials=10**9)
        outcome = []

        def run():
            try:
                run_experiment(config, tmp_path / "x")
            except BaseException as err:
                outcome.append(err)

        tally = McCurve.tally
        monkeypatch.setattr(McCurve, "tally", lambda curve, i: task(i, lambda: tally(curve, i)))
        before = threading.active_count()
        runner = threading.Thread(target=run, daemon=True)
        started = time.monotonic()
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "the sibling ran on after the failure"
        assert time.monotonic() - started < 10
        assert threading.active_count() == before
        return outcome[0] if outcome else None

    @pytest.mark.parametrize(
        "failing, error",
        [(0, RuntimeError), (1, RuntimeError), (0, KeyboardInterrupt)],
        ids=["error-first-point", "error-second-point", "ctrl-c"],
    )
    def test_mc_failing_point_stops_its_sibling(self, tmp_path, monkeypatch, failing, error):
        # the first (failing 0) or the second chunk raises while another
        # chunk runs: the run ends once that one has finished
        sibling_started = threading.Event()

        def task(i, tally):
            if i == failing:
                assert sibling_started.wait(timeout=30)
                time.sleep(0.05)  # the sibling is well into its chunk
                raise error("chunk failed")
            sibling_started.set()
            return tally()

        raised = self._mc_failing(tmp_path, monkeypatch, task)
        assert type(raised) is error
        failure = tmp_path / "x" / "failure.json"
        if error is KeyboardInterrupt:  # not a failure of the run: nothing recorded
            assert not failure.exists()
        else:
            assert json.loads(failure.read_text()) == {
                "error": "chunk failed", "type": "RuntimeError", "experiment": "mc"
            }

    def test_mc_point_queued_behind_a_failure_never_starts(self, tmp_path, monkeypatch):
        # 61,036 chunks on 2 CPUs: the first fails once the second has
        # started, and no chunk past the window of 2 per thread ever starts
        started, sibling_started = [], threading.Event()

        def task(i, tally):
            started.append(i)
            if i == 0:
                assert sibling_started.wait(timeout=30)
                raise RuntimeError("chunk failed")
            sibling_started.set()
            return tally()

        raised = self._mc_failing(tmp_path, monkeypatch, task)
        assert isinstance(raised, RuntimeError)
        assert 0 in started and set(started) <= {0, 1, 2, 3}


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

    @pytest.mark.parametrize(
        "argv, config, fields",
        [
            (["mc", "--preset", "figure-validation", "--seed", "-1"], {},
             RUN_SEEDS + ("mc.master_seed",)),
            (["oracle"], {"dataset": {"csv_path": "data.csv", "benchmark": "two_gaussians_1d"}},
             ("dataset.csv_path",)),
            (["mc", "--trials", "20000"], {"mc": 5}, ("mc",)),
            (["mc"], [], ("c.json",)),
            (["train"], {"dataset": {"benchmark": "circle", "class_count": 4, "imbalance": {
                "kind": "step", "ratio": 0.01, "base_count": 100}}}, ("dataset.imbalance",)),
            (["mc"], {"mc": {"sample_sizes": []}}, ("mc.sample_sizes",)),
            (["theory"], {"mc": {"sample_sizes": [2, 2]}}, ("mc.sample_sizes",)),
            (["theory"], {"mc": {"sample_sizes": [2**63]}}, ("mc.sample_sizes",)),
            (["mc"], {"mc": {"sample_sizes": [2, 10**6 + 1]}}, ("mc.sample_sizes",)),
            (["train"], {"dataset": {"benchmark": "two_gaussians_1d"}, "eval": {"per_class": 1}},
             ("eval.per_class",)),
            (["train"], {"dataset": {"counts": [10] * 10, "imbalance": _STEP}},
             ("dataset.imbalance",)),
            (["ablate"], {"dataset": {**_CSV, "counts": [10, 10]}}, ("dataset.counts",)),
            # ablate sets the run seeds to each of ablate.seeds
            (["ablate"], {"dataset": {"seed": 5}, "ablate": {"seeds": [0]}}, ("dataset.seed",)),
            (["ablate"], {"model": {"seed": 1}}, ("model.seed",)),
            (["train"], {"dataset": {**_CSV, "imbalance": _STEP}}, ("dataset.imbalance",)),
            (["train"], {"dataset": {"benchmark": "two_gaussians_1d", "class_count": 7,
                                     "radius": 9.0}}, ("dataset.class_count",)),
            (["train"], None, ("c.json",)),
            (["train"], b'{"name": "caf\xe9"}', ("c.json",)),
        ],
        ids=["negative-seed", "csv-oracle", "section-not-object", "root-not-object",
             "imbalance-below-two", "no-sample-size", "repeated-sample-size",
             "theory-sample-size-above-cap", "mc-sample-size-above-cap", "eval-one-per-class",
             "counts-and-imbalance", "csv-counts", "ablate-dataset-seed", "ablate-model-seed",
             "csv-imbalance", "unread-mixture-field",
             "config-file-missing", "config-file-not-utf8"],
    )
    def test_config_error_before_artifacts(self, tmp_path, capsys, argv, config, fields):
        config_path = tmp_path / "c.json"
        if isinstance(config, bytes):
            config_path.write_bytes(config)
        elif config is not None:  # None: there is no config file
            config_path.write_text(json.dumps(config))
        code = main(argv + ["--config", str(config_path), "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.strip())
        assert code == 2
        assert record["error"]["message"].split(": ")[0].endswith(fields)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "mixture, field, value, r_star", _FAR_FROM_UNIT_SCALE,
        ids=[f"oracle-{field}-{value:g}" for _, field, value, _ in _FAR_FROM_UNIT_SCALE],
    )
    def test_oracle_1d_far_from_unit_scale(self, tmp_path, mixture, field, value, r_star):
        # any finite sigma and means: the exact 1-d oracle runs and writes R*
        # and the risks at its prior
        dataset = {"benchmark": mixture, field: value}
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"dataset": dataset}))
        assert main(["oracle", "--config", str(config_path), "--out", str(tmp_path / "x")]) == 0
        payload = json.loads((tmp_path / "x" / "adversarial_prior.json").read_text())
        assert payload["risk"] == pytest.approx(r_star, rel=0, abs=1e-15)
        spec = build_mixture(validate_config({"dataset": dataset})["dataset"])
        risks = bayes_class_risks(spec, Prior(np.array(payload["prior"]))).estimates
        rows = [f"{y + 1},{fmt(r)}" for y, r in enumerate(risks)]
        csv_text = (tmp_path / "x" / "risks_at_adversarial_prior.csv").read_text()
        assert csv_text.splitlines() == ["class,risk", *rows]

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["in-process", "pool"])
    @pytest.mark.usefixtures("pool_deadline")
    def test_ablate_failure_recorded(self, tmp_path, capsys, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        environ = _blas_environ()
        missing = tmp_path / "missing.csv"
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(
            {"dataset": {"csv_path": str(missing)}, "ablate": {"seeds": [0, 1]}}
        ))
        code = main(["ablate", "--config", str(config_path), "--out", str(tmp_path / "x")])
        assert code == 1
        record = json.loads((tmp_path / "x" / "failure.json").read_text())
        assert record == {
            "error": f"[Errno 2] No such file or directory: {str(missing)!r}",
            "type": "FileNotFoundError",
            "experiment": "ablate",
        }
        assert multiprocessing.active_children() == []
        assert _blas_environ() == environ

    @_TWO_CPUS_AND_PROC
    @pytest.mark.parametrize("command", ["ablate"])  # mc runs on threads, not workers
    @pytest.mark.usefixtures("pool_deadline")
    def test_pool_workers_end_with_killed_parent(self, tmp_path, command):
        config = _tiny_ablate_config()
        config["minimax"]["warmup_epochs"] = 10_000  # seconds per cell run
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        parent = subprocess.Popen(
            [sys.executable, "-m", "minimaxclf.cli", command, "--config", str(config_path),
             "--out", str(tmp_path / "x")],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while len(workers := _spawned_workers(parent.pid)) < 2:
                assert time.monotonic() < deadline, "the pool never started"
                time.sleep(0.05)
        finally:
            parent.kill()
            parent.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(_running, workers)):
            assert time.monotonic() < deadline, "a worker outlived its parent"
            time.sleep(0.05)

    @_TWO_CPUS_AND_PROC
    @pytest.mark.usefixtures("pool_deadline")
    def test_killed_worker_fails_ablate(self, tmp_path):
        # the pool does not replace a worker that dies, nor wait for its task
        with _ablate_session(tmp_path) as (parent, workers):
            os.kill(workers[0], signal.SIGKILL)
            assert parent.wait(timeout=30) == 1
            _no_worker_within(parent.pid, 5)
        record = json.loads((tmp_path / "stderr").read_text().splitlines()[0])
        assert record["error"]["kind"] == "BrokenProcessPool"
        assert json.loads((tmp_path / "x" / "failure.json").read_text())["type"] == (
            "BrokenProcessPool"
        )
        # the record names the runs the dead pool lost, and none of them was written
        lost = re.findall(r"cell-\w+-\w+/seed-\d+", record["error"]["message"])
        assert lost
        assert not any((tmp_path / "x" / run / "summary.json").exists() for run in lost)

    @_TWO_CPUS_AND_PROC
    @pytest.mark.usefixtures("pool_deadline")
    def test_ctrl_c_ends_ablate_at_once(self, tmp_path):
        # Ctrl-C reaches the whole process group; nobody waits for a running cell
        with _ablate_session(tmp_path) as (parent, workers):
            os.killpg(parent.pid, signal.SIGINT)
            deadline = time.monotonic() + 5
            while parent.poll() is None:
                assert time.monotonic() < deadline, "the parent ran on after Ctrl-C"
                time.sleep(0.05)
            _no_worker_within(parent.pid, deadline - time.monotonic())

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

    def test_theory_and_mc_write_one_analytic_curve(self, tmp_path):
        # both commands write the same analytic point, so its strings agree
        assert main(["theory", "--preset", "figure-validation", "--out", str(tmp_path / "t")]) == 0
        assert main(["mc", "--preset", "figure-validation", "--trials", "10000",
                     "--out", str(tmp_path / "m")]) == 0
        for theory_csv, mc_csv in (("failure_bound.csv", "failure_curve.csv"),
                                   ("mse.csv", "mse_curve.csv")):
            # rows of (N, value) against the (N, theory_value) columns
            theory_rows = (tmp_path / "t" / theory_csv).read_text().splitlines()[1:]
            mc_rows = (tmp_path / "m" / mc_csv).read_text().splitlines()[1:]
            assert theory_rows == [",".join(row.split(",")[:2]) for row in mc_rows]
            assert len(theory_rows) == 6  # N = 2, 4, ..., 64

    def test_theory_reads_mc_curve(self, tmp_path):
        # one config sets the curve once, in the mc section, for both commands
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"mc": {
            "error_vector": [0.6, 0.3, 0.2, 0.1], "m_worst": 2, "sample_sizes": [3, 10, 40]}}))
        argv = ["--config", str(config_path), "--out"]
        assert main(["theory", *argv, str(tmp_path / "t")]) == 0
        assert main(["mc", *argv, str(tmp_path / "m"), "--trials", "10000"]) == 0
        for theory_csv, mc_csv in (("failure_bound.csv", "failure_curve.csv"),
                                   ("mse.csv", "mse_curve.csv")):
            theory_rows = (tmp_path / "t" / theory_csv).read_text().splitlines()[1:]
            mc_rows = (tmp_path / "m" / mc_csv).read_text().splitlines()[1:]
            assert theory_rows == [",".join(row.split(",")[:2]) for row in mc_rows]
            assert [row.split(",")[0] for row in theory_rows] == ["3", "10", "40"]

    @pytest.mark.parametrize(
        "argv, config, field",
        [(["train"], {"dataset": {"source": "csv", "csv_path": "data.csv"}}, "dataset.source"),
         (["train"], {"dataset": {"source": "synthetic"}}, "dataset.source"),
         (["theory"], {"theory": {"m_worst": 2}}, "theory"),
         (["mc"], {"theory": {}}, "theory"),
         (["train"], {"ascent": {"auto_m": True}}, "ascent.auto_m"),
         (["train"], {"minimax": {"partition_seed": 3}}, "minimax.partition_seed"),
         (["ablate"], {"ascent": {"tie_seed": 0}}, "ascent.tie_seed")],
        ids=["source-csv", "source-synthetic", "theory-field", "theory-empty", "auto_m",
             "partition_seed", "tie_seed"],
    )
    def test_removed_fields_unknown(self, tmp_path, capsys, argv, config, field):
        # a CSV path alone names a CSV source, and theory reads the mc section
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        code = main(argv + ["--config", str(config_path), "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.strip())
        assert code == 2
        assert record["error"]["message"] == f"unknown config field {field!r}"
        assert not (tmp_path / "x").exists()

    def test_csv_path_alone_trains(self, tmp_path, capsys):
        # no other dataset field: the path makes the dataset the file's
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"dataset": _csv_dataset(tmp_path)}))
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["train_counts"] == [40, 24, 16]
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert "source" not in manifest["config"]["dataset"]

    def test_rerun_clears_stale_failure_record(self, tmp_path, capsys):
        # a failed run leaves failure.json; a good run into the same directory
        # removes it, so the directory reports only the run that wrote it
        config_path, out = tmp_path / "c.json", tmp_path / "x"
        argv = ["train", "--config", str(config_path), "--out", str(out)]
        config_path.write_text(json.dumps({**_tiny_train_config(),
                                           "dataset": {"csv_path": str(tmp_path / "missing.csv")}}))
        assert main(argv) == 1
        assert json.loads((out / "failure.json").read_text())["type"] == "FileNotFoundError"
        config_path.write_text(json.dumps(_tiny_train_config()))
        assert main(argv) == 0
        assert (out / "summary.json").exists()
        assert not (out / "failure.json").exists()

    def test_seed_override_changes_hash(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(_tiny_train_config()))
        assert main(["train", "--config", str(config_path), "--seed", "7",
                     "--out", str(tmp_path / "s7")]) == 0
        manifest = json.loads((tmp_path / "s7" / "manifest.json").read_text())
        for field in RUN_SEEDS:
            section, key = field.split(".")
            assert manifest["config"][section][key] == 7, field
        # a train run reads no Monte Carlo seed, so --seed leaves it at its default
        assert manifest["config"]["mc"]["master_seed"] == 0


def test_oracle_section_is_search_keywords():
    # run_oracle passes the oracle section to the search as keyword arguments
    spec, *keywords = inspect.signature(adversarial_prior_search).parameters
    assert spec == "spec"
    assert set(SCHEMA["oracle"]) == set(keywords)


def test_empty_trajectory_is_header_only(tmp_path):
    from minimaxclf.minimax import MinimaxConfig

    report = RunReport(
        records=[],
        final_prior=Prior.uniform(3),
        params=None,
        train_prior=Prior.uniform(3),
        train_counts=np.array([1, 1, 1]),
        config=MinimaxConfig(),
    )
    write_run(report, tmp_path)
    k = 3
    for name, width in (("epochs.csv", 3 + 2 * k + 3), ("trajectory.csv", k + 3)):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 1, name
        assert len(lines[0].split(",")) == width, name


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
def test_fmt_prints_bools_as_digits(value):
    assert fmt(value) == ("1" if value else "0")


@pytest.mark.parametrize(
    "call, error, match",
    [
        pytest.param(lambda: validate_config([]), ConfigError, "config root must be an object",
                     id="root-not-object"),
        pytest.param(lambda: cli.run_report(Path("no-such-run")), FileNotFoundError,
                     "summary.json not found", id="report-without-summary"),
    ],
)
def test_bad_input_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_each_command_takes_the_flags_it_reads():
    assert tuple(cli.COMMANDS) == EXPERIMENTS
    base = {"--config", "--preset", "--out"}
    expected = {
        "train": base | {"--seed"},
        "oracle": base | {"--seed"},
        "ablate": base,
        "theory": base,
        "mc": base | {"--seed", "--trials"},
    }
    for name, flags in expected.items():
        # among all six, and alone: the parser of a command's argv builds only its own
        for argv, names in (([], [*EXPERIMENTS, "report"]), ([name], [name])):
            sub = _subparsers(cli._parser(argv))
            assert list(sub.choices) == names
            options = {opt for action in sub.choices[name]._actions for opt in action.option_strings}
            assert options - {"-h", "--help"} == flags, name


@pytest.mark.parametrize("command", [*EXPERIMENTS, "report"])
def test_command_parser_alone_prints_as_among_all(command):
    alone, among_all = cli._parser([command]), cli._parser([])
    assert alone.format_usage() == among_all.format_usage()
    assert (_subparsers(alone).choices[command].format_help()
            == _subparsers(among_all).choices[command].format_help())


@pytest.mark.parametrize(
    "argv, message",
    [(["bogus"], "argument command: invalid choice: 'bogus'"),
     ([], "the following arguments are required: command")],
    ids=["unknown", "empty"],
)
def test_command_error_names_the_argument(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"\nminimaxclf: error: {message}" in capsys.readouterr().err


def _flat(config: dict) -> dict:
    return {field: reduce(operator.getitem, field.split("."), config) for field in _leaves(config)}


@pytest.mark.parametrize("command", EXPERIMENTS)
def test_each_flag_sets_only_the_fields_commands_lists(monkeypatch, command):
    # COMMANDS is the only flag table: no flag writes a field it does not list
    configs = []
    monkeypatch.setattr(cli, "run_experiment", lambda config, out: configs.append(config) or out)

    def resolved(*flag):
        configs.clear()
        assert main([command, *flag]) == 0
        return _flat(configs[0])

    plain = resolved()
    for flag, fields in cli.COMMANDS[command][2].items():
        with_flag = resolved(flag, "12345")
        assert {f for f in plain if plain[f] != with_flag[f]} == set(fields), flag
        assert all(with_flag[f] == 12345 for f in fields), flag


@pytest.mark.parametrize(
    "argv",
    [["ablate", "--seed", "5"], ["theory", "--seed", "1"]]
    + [[command, "--trials", "20000"] for command in ("train", "ablate", "theory", "oracle")],
    ids=lambda argv: f"{argv[0]}{argv[1]}",
)
def test_unread_flag_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[1]}" in err
    # the usage line lists every command, though only argv[0]'s parser was built
    assert err.startswith("usage: minimaxclf [-h] [--version] {train,ablate,theory,mc,oracle,report} ...")
    assert not (tmp_path / "x").exists()


# The commands that read a CSV source: train, and ablate in and out of process.
_CSV_COMMANDS = pytest.mark.parametrize(
    "command, cpus",
    [("train", {0}), ("ablate", {0}), ("ablate", {0, 1})],
    ids=["train", "ablate-in-process", "ablate-pool"],
)


def _exits_2_naming(capsys, command: str, config: dict, out: Path, prefix: str) -> None:
    """``command`` on ``config`` exits 2 with a ConfigError whose message
    starts with ``prefix``, once its manifest is written."""
    config_path = out.parent / "c.json"
    config_path.write_text(json.dumps(config))
    assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["kind"] == "config"
    assert record["error"]["message"].startswith(prefix)
    assert json.loads((out / "failure.json").read_text())["type"] == "ConfigError"
    assert (out / "manifest.json").exists()


@_CSV_COMMANDS
@pytest.mark.parametrize(
    "counts, section, field",
    [((40, 24, 16), {"minimax": {"fixed_target": [0.5, 0.5]}}, "minimax.fixed_target"),
     ((40, 24, 16), {"ascent": {"m_worst": 5}}, "ascent.m_worst"),
     ((50, 1, 50), {}, "dataset.csv_path"),
     ((50, 0, 50), {}, "dataset.csv_path"),
     ((4, 0, 0), {}, "dataset.csv_path")],
    ids=["fixed_target", "m_worst", "one-sample-class", "labels-1-and-3", "one-class"],
)
@pytest.mark.usefixtures("pool_deadline")
def test_csv_class_count_checked_once_read(tmp_path, capsys, monkeypatch, command, cpus,
                                           counts, section, field):
    # the 3-class file makes both fields invalid, and a class of fewer than 2
    # samples the file itself; the counts are known only once it is read
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    config = _tiny_train_config(dataset=_csv_dataset(tmp_path, counts), ablate={"seeds": [0, 1]})
    _exits_2_naming(capsys, command, {**config, **section}, tmp_path / "x", f"{field}: ")


@_CSV_COMMANDS
@pytest.mark.parametrize(
    "row",
    [b"nan,0.5,1", b"0.1,0.5,0", b"0.1,1", b"0.1,0.5\xff,1"],
    ids=["nan-feature", "zero-label", "ragged-row", "not-utf8"],
)
@pytest.mark.usefixtures("pool_deadline")
def test_csv_content_error_names_path_and_row(tmp_path, capsys, monkeypatch, command, cpus, row):
    # a bad row fails the run as a config error, as a too-small class does
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    dataset = _csv_dataset(tmp_path)
    lines = Path(dataset["csv_path"]).read_bytes().splitlines()
    Path(dataset["csv_path"]).write_bytes(b"\n".join([lines[0], row, *lines[2:]]) + b"\n")
    config = _tiny_train_config(dataset=dataset, ablate={"seeds": [0, 1]})
    _exits_2_naming(capsys, command, config, tmp_path / "x", "dataset.csv_path: row 2: ")


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@pytest.mark.parametrize(
    "section, field",
    [({"dataset": {"benchmark": "two_gaussians_1d", "counts": [10, 10, 10]}}, "dataset.counts"),
     ({"dataset": {"benchmark": "two_gaussians_1d"},
       "minimax": {"fixed_target": [0.2, 0.3, 0.5]}}, "minimax.fixed_target"),
     ({"dataset": {"benchmark": "two_gaussians_1d"}, "ascent": {"m_worst": 5}},
      "ascent.m_worst"),
     ({"dataset": {"benchmark": "circle", "class_count": 4, "imbalance": {
         "kind": "step", "ratio": 0.01, "base_count": 100}}}, "dataset.imbalance")],
    ids=["counts", "fixed_target", "m_worst", "imbalance"],
)
def test_class_count_checked_only_where_read(experiment, section, field):
    # only train and ablate read these fields; a wrong K there stops the run
    config = {"experiment": experiment, **section}
    if experiment in ("train", "ablate"):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: "):
            validate_config(config)
    else:
        resolved = validate_config(config)
        section_name, leaf = field.split(".")
        assert resolved[section_name][leaf] == section[section_name][leaf]


@pytest.mark.parametrize("class_count", [2, 10, 16])
def test_m_worst_auto_on_any_class_count(class_count):
    config = {"dataset": {"class_count": class_count}, "ascent": {"m_worst": "auto"}}
    assert validate_config(config)["ascent"]["m_worst"] == "auto"


def test_m_worst_auto_trains_and_above_k_exits_2(tmp_path, capsys):
    # "auto" sets M from the risks at every ascent step; an integer M is at most K
    config = {
        "dataset": {"benchmark": "circle", "counts": [60] + [30] * 9, "seed": 0},
        "model": {"architecture": "linear", "batch_size": 32, "lr_warmup_epochs": 1,
                  "decay_epochs": []},
        "minimax": {"warmup_epochs": 1, "minimax_epochs": 2, "finetune_epochs": 0},
        "eval": {"per_class": 50, "seed": 5},
    }
    for m_worst, code in (("auto", 0), (11, 2)):
        config_path = tmp_path / f"{m_worst}.json"
        config_path.write_text(json.dumps({**config, "ascent": {"m_worst": m_worst}}))
        argv = ["train", "--config", str(config_path), "--out", str(tmp_path / str(m_worst))]
        assert main(argv) == code
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["message"] == (
        "ascent.m_worst: got 11, expected an integer at most K = 10"
    )


@pytest.mark.parametrize("source", ["synthetic", "csv"])
@pytest.mark.parametrize(
    "ascent", [{"method": "linear", "alpha": 0.999999999999}, {"method": "ega", "alpha": 800}],
    ids=["linear", "ega"],
)
def test_alpha_that_underflows_the_prior_exits_2(tmp_path, capsys, ascent, source):
    # 40 such steps can take a coordinate of the training prior to 0 (or
    # overflow exp), which once stopped the run late with a ValueError
    counts = [400, 200, 40, 20]
    dataset = {"benchmark": "circle", "class_count": 4, "counts": counts}
    if source == "csv":  # the counts are known, and checked, once the file is read
        save_csv_dataset(tmp_path / "data.csv", sample_mixture(circle_mixture(4), counts, seed=0))
        dataset = {"csv_path": str(tmp_path / "data.csv")}
    config = {
        "dataset": dataset,
        "model": {"architecture": "linear", "batch_size": 64, "decay_epochs": []},
        "minimax": {"warmup_epochs": 1, "minimax_epochs": 40, "finetune_epochs": 0},
        "eval": {"per_class": 50},
        "ascent": ascent,
    }
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["kind"] == "config"
    assert record["error"]["message"].startswith("ascent.alpha: ")
    if source == "csv":
        assert json.loads((out / "failure.json").read_text())["type"] == "ConfigError"
    else:  # rejected before anything is written
        assert not out.exists()


def test_alpha_rule_checks_every_ascent_that_runs():
    base = {"dataset": {"benchmark": "two_gaussians_1d", "counts": [60, 30]},
            "minimax": {"minimax_epochs": 1000}}
    limit = max_ascent_alpha("ega", 30 / 90, 1000)
    validate_config({**base, "ascent": {"method": "ega", "alpha": limit}})
    with pytest.raises(ConfigError, match=r"^ascent\.alpha: ega ascent .* allowed is "):
        validate_config({**base, "ascent": {"method": "ega", "alpha": np.nextafter(limit, 1e3)}})
    # ablate also runs EGA at its default 0.1, and 10,000 such steps are too many
    many = {**base, "minimax": {"minimax_epochs": 10_000}, "ascent": {"alpha": 0.01}}
    validate_config(many)
    with pytest.raises(ConfigError, match=r"^ascent\.alpha: ega ascent at alpha = 0\.1 "):
        validate_config({**many, "experiment": "ablate"})
    # no step runs under a fixed target, with alpha 0, or without minimax epochs
    for frozen in ({"minimax": {"minimax_epochs": 1000, "fixed_target": [0.5, 0.5]}},
                   {"ascent": {"method": "ega", "alpha": 0}},
                   {"minimax": {"minimax_epochs": 0}}):
        validate_config({**base, "ascent": {"method": "ega", "alpha": 800}, **frozen})


@pytest.mark.parametrize("experiment", ["train", "ablate"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_pass_the_alpha_rule(preset, experiment):
    validate_config({"preset": preset, "experiment": experiment})


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("source", ["counts", "imbalance", "neither"])
def test_build_data(name, source):
    # a circle's K is its class_count; each line benchmark's, its constructor's
    k = 4 if name == "circle" else BENCHMARKS[name][0]().class_count
    dataset_cfg = {"benchmark": name, **({"class_count": 4} if name == "circle" else {})}
    expected = {
        "counts": np.arange(5, 5 + k),
        "imbalance": make_imbalance_counts(ImbalanceProfile(**_STEP), k),
        "neither": np.full(k, 1000),
    }[source]
    if source != "neither":
        dataset_cfg[source] = expected.tolist() if source == "counts" else _STEP
    config = validate_config({"dataset": dataset_cfg, "eval": {"per_class": 30}})
    dataset, eval_set = build_data(config)
    assert dataset.per_class_counts.tolist() == expected.tolist()
    assert eval_set.per_class_counts.tolist() == [30] * k
    again, eval_again = build_data(config)
    for a, b in ((dataset, again), (eval_set, eval_again)):
        assert np.array_equal(a.instances, b.instances)
        assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_read_mixture_fields_accepted(name):
    given = {field: 3 for field in BENCHMARKS[name][1]}
    resolved = validate_config({"dataset": {"benchmark": name, **given}})
    assert {field: resolved["dataset"][field] for field in given} == given
    # a resolved config carries every unread field at its default
    assert validate_config(resolved) == resolved


def _unread_by_three_checks(ds: dict):
    """A test-local copy of the three checks that the one unread-field table
    replaced, in their order: the dataset field the first failing one names,
    or None. Its CSV check also names the benchmark and mixture fields, which
    a CSV source leaves unread; a dataset.csv_path makes the source a CSV
    file, so the synthetic check no longer names it."""
    if ds["csv_path"] is not None:
        for field in ("counts", "imbalance", "benchmark", "class_count", "radius",
                      "separation", "spacing", "sigma"):
            if ds[field] != DEFAULT_CONFIG["dataset"][field]:
                return field
        return None
    if ds["csv_header"]:
        return "csv_header"
    unread = {f for _, fields in BENCHMARKS.values() for f in fields}
    unread -= set(BENCHMARKS[ds["benchmark"]][1])
    for field, value in ds.items():
        if field in unread and value != DEFAULT_CONFIG["dataset"][field]:
            return field
    return None


# A value other than the default of each dataset field that some source
# leaves unread; dataset.counts gets one entry per class of the benchmark.
_NOT_DEFAULT = {
    "imbalance": _STEP,
    "csv_header": True,
    "class_count": 3,
    "radius": 3.0,
    "separation": 2.0,
    "spacing": 3.0,
    "sigma": 2.0,
}


@settings(max_examples=300, deadline=None)
@given(
    experiment=st.sampled_from(EXPERIMENTS),
    source=st.sampled_from(["synthetic", "csv"]),
    benchmark=st.sampled_from(sorted(BENCHMARKS)),
    changed=st.sets(st.sampled_from(["counts", "bad-imbalance", *_NOT_DEFAULT])),
)
def test_unread_table_accepts_what_the_three_checks_accepted(experiment, source, benchmark,
                                                             changed):
    ds = {"benchmark": benchmark, **({"csv_path": "data.csv"} if source == "csv" else {})}
    ds.update((field, value) for field, value in _NOT_DEFAULT.items() if field in changed)
    if "bad-imbalance" in changed:  # its sub-field is checked first
        ds["imbalance"] = {**_STEP, "ratio": 2.0}
    full = {**DEFAULT_CONFIG["dataset"], **ds}
    if "counts" in changed:
        ds["counts"] = full["counts"] = [5] * build_mixture(full).class_count
    # the checks that come before the three
    if "bad-imbalance" in changed:
        expected = "imbalance.ratio"
    elif full["imbalance"] is not None and full["counts"] is not None:
        expected = "imbalance"
    elif source == "csv" and experiment == "oracle":
        expected = "csv_path"
    else:
        expected = _unread_by_three_checks(full)
    try:
        validate_config({"experiment": experiment, "dataset": ds})
        named = None
    except ConfigError as err:
        named = str(err).split(": ")[0]
    assert named == (None if expected is None else f"dataset.{expected}")


# Run in a fresh interpreter, since this one has loaded these modules already:
# which of the modules named in argv[1] are loaded after the imports, and
# after the CLI command in the rest of argv.
_IMPORT_PROBE = """
import json, sys
import minimaxclf, minimaxclf.cli

def loaded():
    return [name for name in sys.argv[1].split(",") if name in sys.modules]

at_import = loaded()
code = minimaxclf.cli.main(sys.argv[2:])
print(json.dumps({"code": code, "at_import": at_import, "after_run": loaded()}))
"""


@pytest.mark.parametrize(
    "config, loads",
    [
        (_tiny_train_config(), []),
        ({"experiment": "oracle", "dataset": {"class_count": 3},
          "oracle": {"iterations": 2}}, []),
        # scipy loads concurrent.futures, numpy.ma and numpy.polynomial itself
        ({"experiment": "oracle", "dataset": {"benchmark": "two_gaussians_1d"},
          "oracle": {"resolution": 0.1}},
         ["scipy", "concurrent.futures", "numpy.ma", "numpy.polynomial"]),
        ({"experiment": "theory", "mc": {"sample_sizes": [2, 4], "m_worst": 2}}, []),
        # one chunk is one task, which runs in this process with no pool
        ({"experiment": "mc", "mc": {"sample_sizes": [2, 4], "trials": 10_000}}, []),
        # the cell runs go to spawned worker processes, on a concurrent.futures pool
        ({**_tiny_ablate_config(), "ablate": {"seeds": [0]}},
         ["multiprocessing", "concurrent.futures", "statistics"]),
    ],
    ids=["train", "oracle-polygon", "oracle-exact-1d", "theory", "mc", "ablate"],
)
@pytest.mark.usefixtures("pool_deadline")
def test_scipy_loaded_only_where_used(tmp_path, config, loads):
    # only the exact 1-d Bayes risks need scipy (the 2-d polygon path does
    # not, and reads its quadrature rule from a table), only an mc curve of
    # several chunks its thread pool, and only ablate multiprocessing and
    # the medians' statistics; only scipy loads numpy.ma and
    # numpy.polynomial, and importing the package and the CLI loads none of
    # them. Nor locale, which argparse's first message lookup imports: every
    # command builds its parser in main, none at import
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    argv = [config["experiment"], "--config", str(config_path), "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE,
         "scipy,multiprocessing,concurrent.futures,numpy.ma,numpy.polynomial,statistics,locale",
         *argv],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, check=True,
    )
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["code"] == 0
    assert record["at_import"] == []
    assert record["after_run"] == [*loads, "locale"]
