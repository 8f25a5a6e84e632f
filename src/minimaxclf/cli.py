"""Batch entry points. Subcommands: train, ablate, theory, mc, oracle, report.

Each experiment writes a self-contained artifact directory: result CSVs, a
summary, and a manifest with the resolved config and its hash. Exit code 0
on success; on failure a JSON error record goes to stderr and, when an
artifact directory exists already, into failure.json inside it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import multiprocessing.connection
import os
import statistics
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    SCHEMA_VERSION,
    ConfigError,
    build_mixture,
    check_class_count,
    config_hash,
    load_config,
    synthetic_counts,
)
from .data import load_csv_dataset, sample_mixture
from .mc import mc_ega_mse, mc_worst_class_failure
from .metrics import inter_intra_ratio
from .minimax import AscentConfig, MinimaxConfig, RunReport, run_minimax, swap_components
from .model import TrainConfig, extract_features, save_checkpoint
from .oracle import adversarial_prior_search
from .reports import fmt, write_csv, write_json, write_run
from .theory import ega_estimate_mse, product_form_ranks


def build_data(config: dict) -> tuple:
    """(dataset, eval set) of one run. A CSV source has no mixture to draw
    an eval set from, so its eval set is None; its class counts are checked
    once read."""
    ds_cfg, eval_cfg = config["dataset"], config["eval"]
    if ds_cfg["source"] == "csv":
        dataset = load_csv_dataset(ds_cfg["csv_path"], ds_cfg["csv_header"])
        check_class_count(config, dataset.per_class_counts.tolist())
        return dataset, None
    spec = build_mixture(ds_cfg)
    counts = synthetic_counts(ds_cfg, spec.class_count)
    eval_counts = np.full(spec.class_count, eval_cfg["per_class"], dtype=np.int64)
    dataset = sample_mixture(spec, counts, ds_cfg["seed"])
    return dataset, sample_mixture(spec, eval_counts, eval_cfg["seed"])


def minimax_config(config: dict) -> MinimaxConfig:
    model = config["model"]
    mm = config["minimax"]
    loss = config["loss"]
    asc = config["ascent"]
    train = TrainConfig(
        learning_rate=model["learning_rate"],
        momentum=model["momentum"],
        weight_decay=model["weight_decay"],
        batch_size=model["batch_size"],
        warmup_epochs=model["lr_warmup_epochs"],
        decay_epochs=tuple(model["decay_epochs"]),
        decay_factor=model["decay_factor"],
        seed=model["seed"],
    )
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
            use_auto_m=asc["auto_m"],
            tie_seed=asc["tie_seed"],
        ),
        train=train,
        model_fraction=mm["model_fraction"],
        partition_seed=mm["partition_seed"],
        init_seed=model["seed"],
        architecture=model["architecture"],
        hidden_width=model["hidden_width"],
        fixed_target=None if mm["fixed_target"] is None else tuple(mm["fixed_target"]),
    )


# The seeds of one training run; eval.seed is not one: all runs share one eval set.
RUN_SEEDS = ("dataset.seed", "model.seed", "minimax.partition_seed", "ascent.tie_seed")


def _reseed(config: dict, seed: int) -> dict:
    """One repetition seed drives every stochastic choice of a run."""
    out = json.loads(json.dumps(config))
    for dotted in RUN_SEEDS:
        section, key = dotted.split(".")
        out[section][key] = seed
    return out


def _write_manifest(out_dir: Path, config: dict) -> None:
    write_json(
        out_dir / "manifest.json",
        {
            "config": config,
            "config_hash": config_hash(config),
            "schema_version": SCHEMA_VERSION,
            "package_version": __version__,
        },
    )


def run_train(config: dict, out_dir: Path) -> None:
    dataset, eval_set = build_data(config)
    report = run_minimax(minimax_config(config), dataset, eval_set)
    extra = {}
    if eval_set is not None:
        features = extract_features(report.params, eval_set.instances)
        extra["inter_intra_ratio"] = [float(v) for v in inter_intra_ratio(features, eval_set.labels)]
    write_run(report, out_dir, **extra)
    save_checkpoint(out_dir / "checkpoint.npz", report.params, config_hash(config), config["model"]["seed"])


# Read by OpenBLAS and OpenMP when numpy loads: one thread per pool worker.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _usable_cpus() -> int:
    """The CPUs this process may run on; ``taskset -c 0`` makes it 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _single_blas_thread():
    """Set the BLAS thread variables to 1 for processes started inside;
    afterwards ``os.environ`` holds exactly what it held before."""
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _exit_with_parent() -> None:
    """Pool initializer: the worker exits as soon as its parent process
    ends, even by SIGKILL, instead of running the tasks still queued."""
    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@contextmanager
def _pool_map(fn, tasks: list):
    """Yield the results of ``fn`` over ``tasks``, in input order.

    ``fn`` runs on a ``spawn`` pool of one worker per usable CPU (at most
    one per task), each with one BLAS thread; with one worker, in this
    process. An error or Ctrl-C in the ``with`` block or in a task
    terminates the workers and propagates as raised."""
    workers = min(_usable_cpus(), len(tasks))
    with ExitStack() as stack:
        results = map(fn, tasks)
        if workers > 1:
            stack.enter_context(_single_blas_thread())
            spawn = multiprocessing.get_context("spawn")
            pool = stack.enter_context(spawn.Pool(workers, _exit_with_parent))
            results = pool.imap(fn, tasks)
        yield results


def _run_cell(task: tuple) -> RunReport:
    """One (seed, cell) run of the ablation from ``(per-seed config, cell
    key)``. The data are rebuilt from their seeds, so no array crosses a
    process boundary."""
    run_cfg, key = task
    return run_minimax(swap_components(minimax_config(run_cfg))[key], *build_data(run_cfg))


def run_ablate(config: dict, out_dir: Path) -> None:
    """{TLA, TWCE} x {linear, ega} over the repetition seeds. All four cells
    of one repetition share the same dataset, partition, init and tie seeds.

    The (seed, cell) runs spread over a pool of one worker per usable CPU,
    each with one BLAS thread; on one CPU they run in this process. Either
    way this process writes every artifact, in (seed, cell) order."""
    seeds = config["ablate"]["seeds"]
    summaries = {key: [] for key in swap_components(minimax_config(config))}
    tasks = [(seed, key) for seed in seeds for key in summaries]
    args = [(_reseed(config, seed), key) for seed, key in tasks]
    with _pool_map(_run_cell, args) as reports:
        for (seed, (variant, method)), report in zip(tasks, reports):
            cell_dir = out_dir / f"cell-{variant}-{method}" / f"seed-{seed}"
            summaries[(variant, method)].append(write_run(report, cell_dir))
    # cells.csv holds these summary values of every run, comparison.csv their medians
    names = ("worst_class_acc", "worst_class_prior_value", "balanced_acc")
    cell_rows, median_rows = [], []
    for cell, runs in summaries.items():
        values = [[summary.get(name) for name in names] for summary in runs]
        cell_rows += [[*cell, seed, *row] for seed, row in zip(seeds, values)]
        # without an eval set every value is None, and so is every median
        scored = [row for row in values if row[0] is not None]
        medians = [statistics.median(col) for col in zip(*scored)] or [None] * len(names)
        median_rows.append([*cell, *medians])
    write_csv(out_dir / "cells.csv", ["loss", "ascent", "seed", *names], cell_rows)
    median_names = [f"{name}_median" for name in names]
    write_csv(out_dir / "comparison.csv", ["loss", "ascent", *median_names], median_rows)


def _exact_curve_point(error_vector, m: int, n: int) -> tuple:
    """The analytic values at sample size N, which both curve experiments
    write: the product-form failure, summed over the worst class's ranks past
    M, and the MSE of the exponentiated estimate of the largest error."""
    failure = float(product_form_ranks(error_vector, n)[m:].sum())
    return failure, ega_estimate_mse(float(max(error_vector)), n)


def run_theory(config: dict, out_dir: Path) -> None:
    t_cfg = config["theory"]
    failure_rows, mse_rows = [], []
    for n in t_cfg["sample_sizes"]:
        failure, mse = _exact_curve_point(t_cfg["error_vector"], t_cfg["m_worst"], n)
        failure_rows.append([n, failure])
        mse_rows.append([n, mse])
    write_csv(out_dir / "failure_bound.csv", ["N", "value"], failure_rows)
    write_csv(out_dir / "mse.csv", ["N", "value"], mse_rows)


def _curve_point(task: tuple) -> tuple:
    """The ``failure_curve.csv`` and ``mse_curve.csv`` rows at one sample
    size N, from ``(error_vector, m_worst, N, trials, master_seed)``."""
    error_vector, m, n, trials, seed = task
    failure, mse = _exact_curve_point(error_vector, m, n)
    est = mc_worst_class_failure(error_vector, m, n, trials, seed)
    mse_est = mc_ega_mse(float(max(error_vector)), n, trials, seed)
    return (
        [n, failure, est.value, est.ci_low, est.ci_high],
        [n, mse, mse_est.value, mse_est.ci_low, mse_est.ci_high],
    )


def run_mc(config: dict, out_dir: Path) -> None:
    """Theory-vs-Monte-Carlo curves, one task per sample size on the
    ``_pool_map`` workers; this process writes both CSVs in config order."""
    mc_cfg = config["mc"]
    tasks = [
        (mc_cfg["error_vector"], mc_cfg["m_worst"], n, mc_cfg["trials"], mc_cfg["master_seed"])
        for n in mc_cfg["sample_sizes"]
    ]
    with _pool_map(_curve_point, tasks) as points:
        failure_rows, mse_rows = zip(*points)
    header = ["N", "theory_value", "mc_value", "ci_low", "ci_high"]
    write_csv(out_dir / "failure_curve.csv", header, failure_rows)
    write_csv(out_dir / "mse_curve.csv", header, mse_rows)


def run_oracle(config: dict, out_dir: Path) -> None:
    # the oracle section's fields are the search's keyword parameters
    result = adversarial_prior_search(build_mixture(config["dataset"]), **config["oracle"])
    write_json(
        out_dir / "adversarial_prior.json",
        {
            "prior": [float(v) for v in result.prior.p],
            "risk": result.risk,
            "method": result.method,
            "gap": result.gap,
            "iterations": result.iterations,
            "evaluations": result.evaluations,
        },
    )
    write_csv(
        out_dir / "risks_at_adversarial_prior.csv",
        ["class", "risk"],
        [[y + 1, risk] for y, risk in enumerate(result.risks.estimates)],
    )


# The config fields each override flag sets.
OVERRIDE_FLAGS = {
    "--seed": RUN_SEEDS + ("mc.master_seed",),
    "--trials": ("mc.trials",),
}

# Every experiment: its runner, its help text and the override flags it reads.
COMMANDS = {
    "train": (run_train, "one minimax training run", ("--seed",)),
    "ablate": (run_ablate, "the 4-way loss x ascent ablation grid", ()),
    "theory": (run_theory, "analytic failure-bound and MSE tables", ()),
    "mc": (run_mc, "Monte Carlo validation curves against the analytic values",
           ("--seed", "--trials")),
    "oracle": (run_oracle, "adversarial prior search with the Bayes oracle", ("--seed",)),
}


def run_experiment(config: dict, out_dir=None) -> Path:
    """Dispatch one validated config; returns the artifact directory."""
    name = config.get("name", "run")
    if out_dir is None:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out_dir = Path("artifacts") / f"{name}-{stamp}"
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, config)
    runner = COMMANDS[config["experiment"]][0]
    try:
        runner(config, out_dir)
    except Exception as err:
        write_json(
            out_dir / "failure.json",
            {"error": str(err), "type": type(err).__name__, "experiment": config["experiment"]},
        )
        raise
    return out_dir


def run_report(run_dir: Path) -> None:
    """Print the summary of an existing run directory."""
    run_dir = Path(run_dir)
    summary_path = run_dir / "summary.json"
    if not summary_path.exists():
        raise FileNotFoundError(f"{summary_path} not found; is this a train run directory?")
    summary = json.loads(summary_path.read_text())
    for key in sorted(summary):
        value = summary[key]
        if isinstance(value, list):
            value = "[" + ", ".join(fmt(v) for v in value) + "]"
        print(f"{key}: {value}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minimaxclf",
        description="Minimax training experiments on imbalanced Gaussian benchmarks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None, help="JSON config file")
        cmd.add_argument("--preset", default=None, help="named preset to start from")
        for flag in flags:
            fields = OVERRIDE_FLAGS[flag]
            cmd.add_argument(flag, type=int, default=None, help="set " + ", ".join(fields))
        cmd.add_argument("--out", type=Path, default=None, help="artifact directory")
    rep = sub.add_parser("report", help="print the summary of a run directory")
    rep.add_argument("run_dir", type=Path)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "report":
            run_report(args.run_dir)
            return 0
        overrides = {"experiment": args.command}
        for flag in COMMANDS[args.command][2]:
            value = getattr(args, flag[2:])
            if value is not None:
                overrides.update(dict.fromkeys(OVERRIDE_FLAGS[flag], value))
        config = load_config(args.config, preset=args.preset, overrides=overrides)
        out = run_experiment(config, args.out)
        print(out)
        return 0
    except ConfigError as err:
        json.dump({"error": {"kind": "config", "message": str(err)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except Exception as err:  # runtime failure: partial artifacts already on disk
        json.dump({"error": {"kind": type(err).__name__, "message": str(err)}}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
