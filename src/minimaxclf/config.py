"""Run configuration: JSON schema, validation, presets, seed policy.

A config is a nested dict with sections ``dataset / model / loss / ascent /
minimax / eval`` plus per-experiment sections. Validation errors always name
the offending field. Presets are complete config templates; a user config
referencing one is deep-merged on top of it.
"""

from __future__ import annotations

import copy
import hashlib
import json

from .losses import VARIANTS
from .oracle import MIN_MC_SAMPLES

SCHEMA_VERSION = 1

EXPERIMENTS = ("train", "ablate", "theory", "mc", "oracle")
BENCHMARKS = ("two_gaussians_1d", "three_gaussians_1d", "circle")

# Error rates of a vanilla-trained 10-class model under strong step imbalance;
# the default curve input for the theory/MC validation experiments.
DEFAULT_ERROR_VECTOR = [0.75, 0.67, 0.86, 0.96, 0.89, 0.06, 0.03, 0.05, 0.02, 0.03]


class ConfigError(ValueError):
    """A config field is missing, unknown, or has an invalid value."""


DEFAULT_CONFIG = {
    "experiment": "train",
    "name": "run",
    "dataset": {
        "source": "synthetic",
        "benchmark": "circle",
        "class_count": 10,
        "radius": 2.0,
        "separation": 1.0,
        "spacing": 2.0,
        "sigma": 1.0,
        "imbalance": None,
        "counts": None,
        "seed": 0,
        "csv_path": None,
        "csv_header": False,
    },
    "model": {
        "architecture": "linear",
        "hidden_width": 64,
        "learning_rate": 0.1,
        "momentum": 0.9,
        "weight_decay": 2e-4,
        "batch_size": 128,
        "lr_warmup_epochs": 5,
        "decay_epochs": [60, 110],
        "decay_factor": 0.01,
        "seed": 0,
    },
    "loss": {"variant": "TLA", "tau": 1.0, "gamma": 0.15, "drw_epoch": None},
    "ascent": {
        "method": "linear",
        "alpha": None,
        "m_worst": 1,
        "auto_m": False,
        "tie_seed": 0,
    },
    "minimax": {
        "warmup_epochs": 5,
        "minimax_epochs": 95,
        "finetune_epochs": 20,
        "model_fraction": 0.8,
        "partition_seed": 0,
        "fixed_target": None,
    },
    "eval": {"per_class": 1000, "seed": 7777},
    "ablate": {"seeds": [0, 1, 2, 3, 4]},
    "mc": {
        "error_vector": DEFAULT_ERROR_VECTOR,
        "m_worst": 3,
        "sample_sizes": [2, 4, 8, 16, 32, 64],
        "trials": 100_000,
        "master_seed": 0,
    },
    "theory": {
        "error_vector": DEFAULT_ERROR_VECTOR,
        "m_worst": 3,
        "sample_sizes": [2, 4, 8, 16, 32, 64],
        "mse_probability": None,
    },
    "oracle": {
        "method": "auto",
        "resolution": 1e-3,
        "iterations": 2000,
        "step_scale": 0.1,
        "mc_samples": 100_000,
        "seed": 0,
    },
}

PRESETS = {
    # 10-class circle benchmark under strong step imbalance; the five minor
    # classes form one similar-risk group, so M covers all of them. tau = 1
    # keeps the offsets Bayes-consistent; larger values over-rotate the
    # boundaries at this geometry.
    "step10-desk": {
        "name": "step10-desk",
        "dataset": {
            "benchmark": "circle",
            "class_count": 10,
            "radius": 3.0,
            "imbalance": {"kind": "step", "ratio": 0.01, "base_count": 4000},
        },
        "model": {"architecture": "mlp", "hidden_width": 64},
        "loss": {"variant": "TLA", "tau": 1.0},
        "ascent": {"method": "linear", "m_worst": 5},
    },
    # Long-tail variant of the same benchmark; the worst classes sit at the
    # tail, a smaller auto-selected group.
    "lt10-desk": {
        "name": "lt10-desk",
        "dataset": {
            "benchmark": "circle",
            "class_count": 10,
            "radius": 3.0,
            "imbalance": {"kind": "long_tail", "ratio": 0.01, "base_count": 4000},
        },
        "model": {"architecture": "mlp", "hidden_width": 64},
        "loss": {"variant": "TLA", "tau": 1.0},
        "ascent": {"method": "linear", "m_worst": 3, "auto_m": True},
    },
    # Two balanced 1-d classes; fixed-target training shows the offset loss
    # landing on the target prior's optimal threshold.
    "two-class-1d": {
        "name": "two-class-1d",
        "dataset": {
            "benchmark": "two_gaussians_1d",
            "counts": [10000, 10000],
        },
        "model": {
            "architecture": "linear",
            "weight_decay": 0.0,
            "decay_epochs": [40],
        },
        "loss": {"variant": "TLA", "tau": 1.0},
        "minimax": {
            "warmup_epochs": 5,
            "minimax_epochs": 0,
            "finetune_epochs": 55,
            "fixed_target": [0.8, 0.2],
        },
        "eval": {"per_class": 5000},
    },
    # Adversarial prior search on the three-class line benchmark.
    "three-class-oracle": {
        "name": "three-class-oracle",
        "experiment": "oracle",
        "dataset": {"benchmark": "three_gaussians_1d"},
    },
    # Theory-vs-MC curves for the ranking failure probability and the
    # exponentiated-estimate MSE.
    "figure-validation": {
        "name": "figure-validation",
        "experiment": "mc",
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"unknown config field {where!r}")
        if isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _merge(out[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field}: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_config(config: dict) -> dict:
    """Fill defaults, then check every field; returns the resolved config."""
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    config = dict(config)
    preset = config.pop("preset", None)
    base = DEFAULT_CONFIG
    if preset is not None:
        _require(preset in PRESETS, "preset", f"got {preset!r}, expected one of {sorted(PRESETS)}")
        base = _merge(DEFAULT_CONFIG, PRESETS[preset])
    resolved = _merge(base, config)

    _require(
        resolved["experiment"] in EXPERIMENTS,
        "experiment",
        f"got {resolved['experiment']!r}, expected one of {EXPERIMENTS}",
    )
    ds = resolved["dataset"]
    _require(ds["source"] in ("synthetic", "csv"), "dataset.source", "expected 'synthetic' or 'csv'")
    if ds["source"] == "synthetic":
        _require(
            ds["benchmark"] in BENCHMARKS,
            "dataset.benchmark",
            f"got {ds['benchmark']!r}, expected one of {BENCHMARKS}",
        )
        imb = ds["imbalance"]
        if imb is not None:
            _require(isinstance(imb, dict), "dataset.imbalance", "expected an object or null")
            for key in imb:
                _require(
                    key in ("kind", "ratio", "base_count"),
                    f"dataset.imbalance.{key}",
                    "unknown field",
                )
            _require(
                imb.get("kind") in ("long_tail", "step"),
                "dataset.imbalance.kind",
                "expected 'long_tail' or 'step'",
            )
            _require(
                isinstance(imb.get("ratio"), (int, float)) and 0 < imb["ratio"] <= 1,
                "dataset.imbalance.ratio",
                "expected a number in (0, 1]",
            )
            _require(
                isinstance(imb.get("base_count"), int) and imb["base_count"] >= 1,
                "dataset.imbalance.base_count",
                "expected a positive integer",
            )
    else:
        _require(bool(ds["csv_path"]), "dataset.csv_path", "required when source is 'csv'")

    model = resolved["model"]
    _require(
        model["architecture"] in ("linear", "mlp"),
        "model.architecture",
        "expected 'linear' or 'mlp'",
    )
    _require(model["learning_rate"] > 0, "model.learning_rate", "must be positive")
    _require(0 <= model["momentum"] < 1, "model.momentum", "must be in [0, 1)")
    _require(0 < model["decay_factor"] <= 1, "model.decay_factor", "must be in (0, 1]")
    _require(model["batch_size"] >= 1, "model.batch_size", "must be a positive integer")

    loss = resolved["loss"]
    _require(
        loss["variant"] in VARIANTS,
        "loss.variant",
        f"got {loss['variant']!r}, expected one of {VARIANTS}",
    )
    _require(loss["tau"] > 0, "loss.tau", "must be positive")
    _require(loss["gamma"] >= 0, "loss.gamma", "must be nonnegative")
    if loss["drw_epoch"] is not None:
        _require(
            isinstance(loss["drw_epoch"], int) and loss["drw_epoch"] >= 1,
            "loss.drw_epoch",
            "must be a positive integer or null",
        )

    asc = resolved["ascent"]
    _require(asc["method"] in ("linear", "ega"), "ascent.method", "expected 'linear' or 'ega'")
    if asc["alpha"] is not None:
        # alpha = 0 freezes the target prior (no ascent)
        _require(asc["alpha"] >= 0, "ascent.alpha", "must be nonnegative")
        if asc["method"] == "linear":
            _require(asc["alpha"] < 1, "ascent.alpha", "linear ascent needs alpha < 1")
    _require(asc["m_worst"] >= 1, "ascent.m_worst", "must be a positive integer")

    mm = resolved["minimax"]
    for key in ("warmup_epochs", "minimax_epochs", "finetune_epochs"):
        _require(isinstance(mm[key], int) and mm[key] >= 0, f"minimax.{key}", "must be >= 0")
    _require(0 < mm["model_fraction"] < 1, "minimax.model_fraction", "must be in (0, 1)")

    mc = resolved["mc"]
    _require(
        all(0 <= v <= 1 for v in mc["error_vector"]),
        "mc.error_vector",
        "entries must lie in [0, 1]",
    )
    _require(mc["trials"] >= 10_000, "mc.trials", "need at least 10000 trials")
    _require(
        all(n >= 1 for n in mc["sample_sizes"]), "mc.sample_sizes", "entries must be >= 1"
    )

    orc = resolved["oracle"]
    _require(
        orc["method"] in ("auto", "grid", "ascent"),
        "oracle.method",
        "expected 'auto', 'grid' or 'ascent'",
    )
    _require(
        _is_number(orc["resolution"]) and 0 < orc["resolution"] <= 0.5,
        "oracle.resolution",
        "must be a number in (0, 0.5]",
    )
    _require(
        _is_int(orc["iterations"]) and orc["iterations"] >= 1,
        "oracle.iterations",
        "must be an integer >= 1",
    )
    _require(
        _is_number(orc["step_scale"]) and orc["step_scale"] > 0,
        "oracle.step_scale",
        "must be a positive number",
    )
    _require(
        _is_int(orc["mc_samples"]) and orc["mc_samples"] >= MIN_MC_SAMPLES,
        "oracle.mc_samples",
        f"must be an integer >= {MIN_MC_SAMPLES}",
    )
    _require(_is_int(orc["seed"]) and orc["seed"] >= 0, "oracle.seed", "must be an integer >= 0")
    return resolved


def load_config(path=None, preset=None, overrides=None) -> dict:
    """Load, merge (preset < file < overrides), and validate."""
    config = {}
    if preset is not None:
        config["preset"] = preset
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"{path}: not valid JSON ({err})")
        if "preset" in loaded and preset is not None:
            loaded.pop("preset")
        config.update(loaded)
    for dotted, value in (overrides or {}).items():
        node = config
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    return validate_config(config)


def config_hash(config: dict) -> str:
    """Stable hash of the resolved config (sorted-key JSON)."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
