"""Run configuration: one field table, the synthetic benchmarks, validation,
presets, and what a resolved config gives a training run.

A config is a nested dict with sections ``dataset / model / loss / ascent /
minimax / eval`` plus per-experiment sections, and asks for each input once:
a non-null ``dataset.csv_path`` makes the dataset a CSV file's, and ``theory``
reads the curve of ``mc``. ``SCHEMA`` gives every leaf field its default and
the rule a valid value satisfies; ``DEFAULT_CONFIG`` is derived from it. A
number field is stored as a float, so 1 and 1.0 give one config and hash.
Validation errors always name the offending field. Presets are config
templates that a user config is deep-merged on top of. A run's data
(``build_data``), ``MinimaxConfig`` (``minimax_config``) and seeds
(``RUN_SEEDS``) come from here.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import operator
import sys
from typing import Callable, NamedTuple

import numpy as np

from .data import (
    ImbalanceProfile,
    MixtureSpec,
    circle_mixture,
    load_csv_dataset,
    make_imbalance_counts,
    sample_mixture,
    three_gaussians_1d,
    two_gaussians_1d,
)
from .losses import VARIANTS
from .mc import MAX_CLASSES, MIN_TRIALS
from .minimax import AscentConfig, MinimaxConfig, swap_components
from .model import TrainConfig
from .oracle import MAX_GRID_STEPS, grid_steps
from .priors import SIMPLEX_ATOL
from .theory import MAX_SAMPLE_SIZE, _is_int

SCHEMA_VERSION = 1

EXPERIMENTS = ("train", "ablate", "theory", "mc", "oracle")
# Each synthetic benchmark: its mixture's constructor and the dataset fields
# that it takes.
BENCHMARKS = {
    "two_gaussians_1d": (two_gaussians_1d, ("separation", "sigma")),
    "three_gaussians_1d": (three_gaussians_1d, ("spacing", "sigma")),
    "circle": (circle_mixture, ("class_count", "radius")),
}


def build_mixture(ds: dict) -> MixtureSpec:
    """The benchmark's mixture, from the dataset fields that it takes."""
    make, fields = BENCHMARKS[ds["benchmark"]]
    return make(**{field: ds[field] for field in fields})


class ConfigError(ValueError):
    """A config field is missing, unknown, or has an invalid value."""


class Rule(NamedTuple):
    """What a valid value of one field is: a predicate, its wording, and the
    form a valid value is stored in."""

    ok: Callable[[object], bool]
    text: str
    cast: Callable[[object], object] = lambda v: v


def _int(low: int, high: float = math.inf) -> Rule:
    text = f"an integer >= {low}" if high == math.inf else f"an integer in [{low}, {high}]"
    return Rule(lambda v: _is_int(v) and low <= v <= high, text, int)


def _number(interval: str) -> Rule:
    """A number in an interval written as in maths, e.g. "(0, 1]" or
    "[0, inf)". An infinite end is always open, so NaN and +-inf never pass,
    nor an integer too large for a float. A valid value is stored as a float."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = operator.le if interval[0] == "[" else operator.lt
    below = operator.le if interval[-1] == "]" else operator.lt
    return Rule(
        lambda v: (_is_int(v) or isinstance(v, float)) and above(low, v) and below(v, high)
        and abs(v) <= sys.float_info.max,
        f"a finite number in {interval}",
        float,
    )


def _one_of(*choices: str) -> Rule:
    return Rule(lambda v: v in choices, f"one of {choices}")


def _list(item: Rule, min_len: int = 0, distinct: bool = False, max_len: float = math.inf) -> Rule:
    size = f"{min_len} or more" if max_len == math.inf else f"{min_len} to {max_len}"
    return Rule(
        lambda v: isinstance(v, list) and min_len <= len(v) <= max_len and all(map(item.ok, v))
        and (not distinct or len(set(v)) == len(v)),
        f"a list of {size} {'distinct ' if distinct else ''}entries, each {item.text}",
        lambda v: [item.cast(x) for x in v],
    )


def _nullable(rule: Rule) -> Rule:
    return Rule(
        lambda v: v is None or rule.ok(v),
        f"{rule.text}, or null",
        lambda v: None if v is None else rule.cast(v),
    )


_TEXT = Rule(lambda v: isinstance(v, str) and v != "", "a non-empty string")
_BOOL = Rule(lambda v: isinstance(v, bool), "true or false")
_SEED = _int(0)
_POSITIVE = _number("(0, inf)")

# Every leaf field of a config as (default, rule); a nested dict is a section.
SCHEMA = {
    "experiment": ("train", _one_of(*EXPERIMENTS)),
    "name": ("run", _TEXT),
    "dataset": {
        "benchmark": ("circle", _one_of(*BENCHMARKS)),
        "class_count": (10, _int(2)),
        "radius": (2.0, _POSITIVE),
        "separation": (1.0, _POSITIVE),
        "spacing": (2.0, _POSITIVE),
        "sigma": (1.0, _POSITIVE),
        # an object checked field by field against IMBALANCE
        "imbalance": (None, _nullable(Rule(lambda v: isinstance(v, dict), "an object"))),
        # the prior split keeps at least one sample of a class with two
        "counts": (None, _nullable(_list(_int(2)))),
        # the benchmark's draw and the model/prior split
        "seed": (0, _SEED),
        # a path makes the dataset a CSV file's, null a benchmark's
        "csv_path": (None, _nullable(_TEXT)),
        "csv_header": (False, _BOOL),
    },
    "model": {
        "architecture": ("linear", _one_of("linear", "mlp")),
        "hidden_width": (64, _int(1)),
        "learning_rate": (0.1, _POSITIVE),
        "momentum": (0.9, _number("[0, 1)")),
        "weight_decay": (2e-4, _number("[0, inf)")),
        "batch_size": (128, _int(1)),
        "lr_warmup_epochs": (5, _int(0)),
        "decay_epochs": ([60, 110], _list(_int(1))),
        "decay_factor": (0.01, _number("(0, 1]")),
        # initialization, batch order and the ascent's tie-breaks
        "seed": (0, _SEED),
    },
    "loss": {
        "variant": ("TLA", _one_of(*VARIANTS)),
        "tau": (1.0, _POSITIVE),
        "gamma": (0.15, _number("[0, inf)")),
        "drw_epoch": (None, _nullable(_int(1))),
    },
    "ascent": {
        "method": ("linear", _one_of("linear", "ega")),
        # null takes the method's default; 0 freezes the target prior
        "alpha": (None, _nullable(_number("[0, inf)"))),
        # "auto" takes the classes within 0.05 of the worst risk at each step
        "m_worst": (1, Rule(lambda v: v == "auto" or _is_int(v) and v >= 1,
                            "an integer >= 1, or 'auto'", lambda v: v if v == "auto" else int(v))),
    },
    "minimax": {
        "warmup_epochs": (5, _int(0)),
        "minimax_epochs": (95, _int(0)),
        "finetune_epochs": (20, _int(0)),
        "model_fraction": (0.8, _number("(0, 1)")),
        # TLA and TWCE need every target class to have positive mass
        "fixed_target": (None, _nullable(_list(_number("(0, 1]"), 2))),
    },
    # the inter-intra feature ratio of a train run needs two samples of every class
    "eval": {"per_class": (1000, _int(2)), "seed": (7777, _SEED)},
    # one cell directory per seed, and at least one run for the medians
    "ablate": {"seeds": ([0, 1, 2, 3, 4], _list(_SEED, 1, distinct=True))},
    # theory reads the first three fields, the curve that mc simulates; the
    # error vector is a vanilla-trained 10-class model's under step imbalance
    "mc": {
        "error_vector": ([0.75, 0.67, 0.86, 0.96, 0.89, 0.06, 0.03, 0.05, 0.02, 0.03],
                         _list(_number("[0, 1]"), 2, max_len=MAX_CLASSES)),
        "m_worst": (3, _int(1)),
        "sample_sizes": (
            [2, 4, 8, 16, 32, 64], _list(_int(1, MAX_SAMPLE_SIZE), 1, distinct=True)
        ),
        "trials": (100_000, _int(MIN_TRIALS)),
        "master_seed": (0, _SEED),
    },
    "oracle": {
        # auto takes the grid for a 1-d mixture with K <= 3, the ascent elsewhere
        "method": ("auto", _one_of("auto", "ascent")),
        # a number in (0, 0.5] that the grid steps by exactly
        "resolution": (1e-3, Rule(lambda v: isinstance(v, float) and 0 < v <= 0.5
                                  and grid_steps(v) is not None,
                                  f"1 / n for an integer n in [2, {MAX_GRID_STEPS}]", float)),
        "iterations": (2000, _int(1)),
    },
}

# The fields of a non-null dataset.imbalance; each is required.
IMBALANCE = {
    "kind": _one_of("long_tail", "step"),
    "ratio": _number("(0, 1]"),
    "base_count": _int(1),
}


# The dataset fields each source leaves unread, which stay at their defaults so
# that a resolved config stays a valid input: a CSV file (a non-null
# dataset.csv_path) gives its own class counts and draws from no benchmark,
# and a benchmark reads no CSV header and no other benchmark's field.
_MIXTURE_FIELDS = [f for f in SCHEMA["dataset"] if any(f in fs for _, fs in BENCHMARKS.values())]
_UNREAD = {"csv": ("counts", "imbalance", "benchmark", *_MIXTURE_FIELDS)} | {
    name: ("csv_header", *(f for f in _MIXTURE_FIELDS if f not in fields))
    for name, (_, fields) in BENCHMARKS.items()
}


def _column(schema: dict, index: int) -> dict:
    """One column of a field table as a nested dict: 0 defaults, 1 rules."""
    return {k: _column(e, index) if isinstance(e, dict) else e[index] for k, e in schema.items()}


DEFAULT_CONFIG = _column(SCHEMA, 0)
_RULES = _column(SCHEMA, 1)

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
        "ascent": {"method": "linear", "m_worst": "auto"},
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


def _merge(base: dict, override: dict) -> dict:
    """``override`` on a copy of ``base``; ``_walk`` names an unknown field."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(out.get(key), dict) and isinstance(value, dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _check(rule: Rule, value, field: str) -> None:
    if not rule.ok(value):
        raise ConfigError(f"{field}: got {value!r}, expected {rule.text}")


def _walk(rules: dict, node, prefix: str = "") -> None:
    """Check ``node`` against a nested dict of rules, storing each value in
    its rule's form; ``prefix`` is the dotted path of ``node`` with a
    trailing dot, "" at the root."""
    if not isinstance(node, dict):
        raise ConfigError(f"{prefix[:-1]}: expected an object")
    for key in node:
        if key not in rules:
            raise ConfigError(f"unknown config field {prefix + key!r}")
    for key, rule in rules.items():
        if isinstance(rule, dict):
            _walk(rule, node.get(key), f"{prefix}{key}.")
        else:
            _check(rule, node.get(key), prefix + key)
            node[key] = rule.cast(node[key])


def _synthetic_counts(ds: dict, k: int) -> list:
    """The per-class sample counts of a synthetic dataset of K classes:
    ``dataset.counts``, else the ``dataset.imbalance`` profile's, else 1000."""
    if ds["counts"] is not None:
        if len(ds["counts"]) != k:
            raise ConfigError(
                f"dataset.counts: got {len(ds['counts'])} entries, expected {k}, one per class"
            )
        return ds["counts"]
    if ds["imbalance"] is None:
        return [1000] * k
    try:
        return make_imbalance_counts(ImbalanceProfile(**ds["imbalance"]), k).tolist()
    except ValueError as err:  # a class with no samples
        raise ConfigError(f"dataset.imbalance: {err}") from None


_LOG_TINY = math.log(sys.float_info.min)  # the smallest normal float, -708.4
_ROUNDING_MARGIN = 1.0  # a factor e above it, for the rounding of the steps


def max_ascent_alpha(method: str, smallest_prior: float, steps: int) -> float:
    """The largest ascent step size at which ``steps`` steps keep every prior
    coordinate, from a start whose smallest is ``smallest_prior``, above the
    smallest normal float by ``_ROUNDING_MARGIN`` in log. One step lowers a
    log coordinate by at most alpha for EGA, as risks lie in [0, 1], and
    multiplies it by at least 1 - alpha - 2**-53 for linear ascent, the
    2**-53 for the rounding of alpha * pi_y. The margin covers the other
    roundings, a few units of 2**-53 per class and step. For EGA the bound
    also keeps exp(alpha * r_y) below overflow."""
    per_step = (math.log(smallest_prior) - _LOG_TINY - _ROUNDING_MARGIN) / steps
    return per_step if method == "ega" else -math.expm1(-per_step) - 2.0**-53


def _ascents(config: dict) -> set:
    """(method, alpha) of every prior ascent the experiment runs: the run's
    own for ``train``, and each cell's that ``ablate`` runs."""
    run = minimax_config(config)
    cells = swap_components(run).values() if config["experiment"] == "ablate" else [run]
    return {(cell.ascent.method, cell.ascent.resolved_alpha()) for cell in cells}


def _check_class_count(config: dict, counts: list) -> None:
    """The checks that need the realized per-class counts, whose length is
    the class count K: one ``minimax.fixed_target`` entry per class, an
    integer ``ascent.m_worst`` at most K ("auto" never exceeds it), K >= 2
    and at least 2 samples per class, so the prior split keeps one, and an
    ``ascent.alpha`` whose ascent cannot take a coordinate of the training
    prior below the smallest normal float (``max_ascent_alpha``). Only
    ``train`` and ``ablate`` read these fields, so only they run the checks.
    A CSV source's counts are known, and the checks run, once its file is read."""
    k, target = len(counts), config["minimax"]["fixed_target"]
    if target is not None and len(target) != k:
        raise ConfigError(
            f"minimax.fixed_target: got {len(target)} entries, expected {k}, one per class"
        )
    m_worst = config["ascent"]["m_worst"]
    if m_worst != "auto" and m_worst > k:
        raise ConfigError(f"ascent.m_worst: got {m_worst}, expected an integer at most K = {k}")
    if k < 2 or min(counts) < 2:  # a dataset.counts entry is at least 2 by its rule
        field = "dataset.imbalance" if config["dataset"]["csv_path"] is None else "dataset.csv_path"
        raise ConfigError(f"{field}: gives counts {counts}, expected K >= 2, each at least 2")
    steps = config["minimax"]["minimax_epochs"]
    if target is not None or steps == 0:
        return  # no ascent step runs
    for method, alpha in sorted(_ascents(config)):
        limit = max_ascent_alpha(method, min(counts) / sum(counts), steps)
        if alpha > 0 and alpha > limit:  # alpha 0 freezes the prior
            raise ConfigError(
                f"ascent.alpha: {method} ascent at alpha = {alpha!r} over {steps} minimax"
                f" epochs can take a prior coordinate below the smallest normal float;"
                f" the largest alpha allowed is {limit!r}"
            )


def validate_config(config: dict) -> dict:
    """Fill defaults, then check every field; returns the resolved config."""
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    config = dict(config)
    preset = config.pop("preset", None)
    base = DEFAULT_CONFIG
    if preset is not None:
        _check(_one_of(*PRESETS), preset, "preset")
        base = _merge(DEFAULT_CONFIG, PRESETS[preset])
    resolved = _merge(base, config)
    _walk(_RULES, resolved)

    # cross-field checks, on values the walk has typed
    ds, asc, target = resolved["dataset"], resolved["ascent"], resolved["minimax"]["fixed_target"]
    if asc["method"] == "linear" and asc["alpha"] is not None and asc["alpha"] >= 1:
        raise ConfigError("ascent.alpha: linear ascent needs alpha < 1")
    if ds["imbalance"] is not None:
        _walk(IMBALANCE, ds["imbalance"], "dataset.imbalance.")
        if ds["counts"] is not None:
            raise ConfigError("dataset.imbalance: dataset.counts sets the class counts too")
    if resolved["experiment"] == "ablate":
        for dotted in RUN_SEEDS:
            section, key = dotted.split(".")
            if resolved[section][key] != DEFAULT_CONFIG[section][key]:
                raise ConfigError(f"{dotted}: ablate sets it to each of ablate.seeds")
    source = ds["benchmark"] if ds["csv_path"] is None else "csv"
    if source == "csv" and resolved["experiment"] == "oracle":
        raise ConfigError("dataset.csv_path: the oracle needs a synthetic mixture, not a CSV file")
    reader = "a CSV dataset (dataset.csv_path)" if source == "csv" else f"a {source!r} dataset"
    for field in _UNREAD[source]:
        if ds[field] != DEFAULT_CONFIG["dataset"][field]:
            raise ConfigError(f"dataset.{field}: {reader} does not read it")
    if source != "csv" and resolved["experiment"] in ("train", "ablate"):  # the count readers
        _check_class_count(resolved, _synthetic_counts(ds, build_mixture(ds).class_count))
    if target is not None and abs(float(np.sum(target)) - 1.0) > SIMPLEX_ATOL:
        raise ConfigError(f"minimax.fixed_target: entries must sum to 1 within {SIMPLEX_ATOL}")
    if resolved["mc"]["m_worst"] > len(resolved["mc"]["error_vector"]):
        raise ConfigError("mc.m_worst: must be at most the length of mc.error_vector")
    return resolved


def load_config(path=None, preset=None, overrides=None) -> dict:
    """Load, merge (preset < file < overrides), and validate."""
    config = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: not valid JSON ({err})")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"{path}: cannot be read ({err})")
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config root must be an object")
        config = loaded
    if preset is not None:  # over the file's
        config["preset"] = preset
    for dotted, value in (overrides or {}).items():
        node = config
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"{key}: expected an object")
        node[keys[-1]] = value
    return validate_config(config)


def build_data(config: dict) -> tuple:
    """(dataset, eval set) of one run. A CSV source has no mixture to draw
    an eval set from, so its eval set is None; its content and class counts
    are checked once read, and a file that cannot be read keeps its OSError."""
    ds_cfg, eval_cfg = config["dataset"], config["eval"]
    if ds_cfg["csv_path"] is not None:
        try:
            dataset = load_csv_dataset(ds_cfg["csv_path"], ds_cfg["csv_header"])
        except ValueError as err:  # the content: a bad row, or none
            raise ConfigError(f"dataset.csv_path: {err}") from None
        _check_class_count(config, dataset.per_class_counts.tolist())
        return dataset, None
    spec = build_mixture(ds_cfg)
    counts = _synthetic_counts(ds_cfg, spec.class_count)
    eval_counts = np.full(spec.class_count, eval_cfg["per_class"], dtype=np.int64)
    dataset = sample_mixture(spec, counts, ds_cfg["seed"])
    return dataset, sample_mixture(spec, eval_counts, eval_cfg["seed"])


def minimax_config(config: dict) -> MinimaxConfig:
    model, mm, loss, asc = (config[name] for name in ("model", "minimax", "loss", "ascent"))
    return MinimaxConfig(
        warmup_epochs=mm["warmup_epochs"],
        minimax_epochs=mm["minimax_epochs"],
        finetune_epochs=mm["finetune_epochs"],
        loss_variant=loss["variant"],
        tau=loss["tau"],
        gamma=loss["gamma"],
        drw_epoch=loss["drw_epoch"],
        ascent=AscentConfig(
            method=asc["method"],
            alpha=asc["alpha"],
            m_worst=asc["m_worst"],
            tie_seed=model["seed"],
        ),
        train=TrainConfig(
            learning_rate=model["learning_rate"],
            momentum=model["momentum"],
            weight_decay=model["weight_decay"],
            batch_size=model["batch_size"],
            warmup_epochs=model["lr_warmup_epochs"],
            decay_epochs=tuple(model["decay_epochs"]),
            decay_factor=model["decay_factor"],
            seed=model["seed"],
        ),
        model_fraction=mm["model_fraction"],
        partition_seed=config["dataset"]["seed"],
        init_seed=model["seed"],
        architecture=model["architecture"],
        hidden_width=model["hidden_width"],
        fixed_target=None if mm["fixed_target"] is None else tuple(mm["fixed_target"]),
    )


# A run's data and training seeds; eval.seed is not one: all runs share one eval set.
RUN_SEEDS = ("dataset.seed", "model.seed")


def _reseed(config: dict, seed: int) -> dict:
    """One repetition seed drives every stochastic choice of a run."""
    out = json.loads(json.dumps(config))
    for dotted in RUN_SEEDS:
        section, key = dotted.split(".")
        out[section][key] = seed
    return out


def config_hash(config: dict) -> str:
    """Stable hash of the resolved config (sorted-key JSON)."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
