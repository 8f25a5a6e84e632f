"""Batch entry points. Subcommands: train, ablate, theory, mc, oracle, report.

Each experiment writes a self-contained artifact directory: result CSVs, a
summary, and a manifest with the resolved config and its hash. Exit code 0
on success; on failure a JSON error record goes to stderr and, when an
artifact directory exists already, into failure.json inside it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from pathlib import Path

from . import __version__
from .config import (
    RUN_SEEDS,
    SCHEMA_VERSION,
    ConfigError,
    _reseed,
    build_data,
    build_mixture,
    config_hash,
    load_config,
    minimax_config,
)
from .mc import McCurve, size_groups
from .metrics import inter_intra_ratio
from .minimax import RunReport, run_minimax, swap_components
from .model import extract_features, save_checkpoint
from .oracle import adversarial_prior_search
from .reports import fmt, write_csv, write_json, write_run
from .theory import ega_estimate_mse, product_form_ranks


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
    import multiprocessing.connection

    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@contextmanager
def _pool_map(fn, tasks, processes: bool = True):
    """Yield the results of ``fn`` over ``tasks``, in input order.

    ``fn`` runs on a pool of one worker per usable CPU (at most one per
    task), with at most two tasks per worker submitted and not yet taken;
    with one worker, in this process. The workers are ``spawn`` processes
    with one BLAS thread each where ``processes``, which suits tasks of many
    small numpy calls that hold the GIL (an ``ablate`` training step is
    dozens on 128-row batches: on 2 vCPUs, ablate-step10 at seeds 1-3 took
    5.7-5.9 s and 46.2-46.3 MB peak here, against 12.6-14.7 s and 62.3-62.9
    MB on threads). Otherwise they are threads of this process, which suit
    large numpy calls that release the GIL and cost no interpreter start-up.
    An error or Ctrl-C in the ``with`` block or in a task propagates as
    raised: no queued task starts, a worker process is terminated and a
    thread finishes its task. A worker process that dies breaks the pool, so
    the next result raises ``BrokenProcessPool`` and the others end."""
    workers = min(_usable_cpus(), len(tasks))
    if workers < 2:
        yield map(fn, tasks)
        return
    if processes:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        pool = ProcessPoolExecutor(workers, spawn, _exit_with_parent)
    else:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
    with _single_blas_thread() if processes else nullcontext(), pool:
        try:
            yield _in_window(pool, fn, tasks, 2 * workers)
        except BaseException:
            if processes:  # a running task ends now
                for worker in multiprocessing.active_children():
                    worker.terminate()
            else:
                pool.shutdown(cancel_futures=True)
            raise


def _in_window(pool, fn, tasks, window: int):
    """The results of ``fn`` over ``tasks`` on ``pool``, in input order,
    with at most ``window`` tasks submitted and not yet taken."""
    tasks = iter(tasks)
    futures = deque(pool.submit(fn, task) for task in itertools.islice(tasks, window))
    while futures:
        result = futures.popleft().result()
        futures.extend(pool.submit(fn, task) for task in itertools.islice(tasks, 1))
        yield result


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
    way this process writes every artifact, in (seed, cell) order, after
    removing the ``cell-*`` directories of an earlier grid in ``out_dir``.
    Where a worker dies, the ``BrokenProcessPool`` raised names every run
    whose artifacts were not written."""
    import statistics  # the medians: the only command that loads it
    from concurrent.futures.process import BrokenProcessPool  # _pool_map loads it anyway

    for stale in out_dir.glob("cell-*"):
        if stale.is_dir():
            shutil.rmtree(stale)
    seeds = config["ablate"]["seeds"]
    summaries = {key: [] for key in swap_components(minimax_config(config))}
    tasks = [(seed, key) for seed in seeds for key in summaries]
    args = [(_reseed(config, seed), key) for seed, key in tasks]
    runs = [f"cell-{variant}-{method}/seed-{seed}" for seed, (variant, method) in tasks]
    written = 0
    try:
        with _pool_map(_run_cell, args) as reports:
            for (_, key), run, report in zip(tasks, runs, reports):
                summaries[key].append(write_run(report, out_dir / run))
                written += 1
    except BrokenProcessPool as err:
        raise BrokenProcessPool(f"{err} Runs not written: {', '.join(runs[written:])}") from err
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
    curve = config["mc"]  # the curve that mc simulates
    points = [(n, *_exact_curve_point(curve["error_vector"], curve["m_worst"], n))
              for n in curve["sample_sizes"]]
    write_csv(out_dir / "failure_bound.csv", ["N", "value"], [(n, f) for n, f, _ in points])
    write_csv(out_dir / "mse.csv", ["N", "value"], [(n, mse) for n, _, mse in points])


def run_mc(config: dict, out_dir: Path) -> None:
    """Theory-vs-Monte-Carlo curves: the analytic points, then one pass per
    group of sample sizes, its chunks on the ``_pool_map`` threads; this
    thread writes both CSVs in config order."""
    mc_cfg = config["mc"]
    sizes = mc_cfg["sample_sizes"]
    vector, m = mc_cfg["error_vector"], mc_cfg["m_worst"]
    exact = [_exact_curve_point(vector, m, n) for n in sizes]
    estimates = []
    for group in size_groups(sizes):
        curve = McCurve(vector, m, group, mc_cfg["trials"], mc_cfg["master_seed"])
        with _pool_map(curve.tally, curve.chunks, processes=False) as tallies:
            estimates += curve.estimates(tallies)
    failure_rows, mse_rows = [], []
    for n, (failure, mse), (est, mse_est) in zip(sizes, exact, estimates):
        failure_rows.append([n, failure, est.value, est.ci_low, est.ci_high])
        mse_rows.append([n, mse, mse_est.value, mse_est.ci_low, mse_est.ci_high])
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


# Every experiment: its runner, its help text, and each override flag it
# takes with the config fields that flag sets.
COMMANDS = {
    "train": (run_train, "one minimax training run", {"--seed": RUN_SEEDS}),
    "ablate": (run_ablate, "the 4-way loss x ascent ablation grid", {}),
    "theory": (run_theory, "analytic failure-bound and MSE tables", {}),
    "mc": (run_mc, "Monte Carlo validation curves against the analytic values",
           {"--seed": ("mc.master_seed",), "--trials": ("mc.trials",)}),
    # the exact search reads no seed; the oracle-circle10 benchmark passes --seed
    "oracle": (run_oracle, "adversarial prior search with the Bayes oracle",
               {"--seed": RUN_SEEDS + ("mc.master_seed",)}),
}


def _new_dir(base: Path) -> Path:
    """Create and return ``base``, or where it exists the first of
    ``base-2``, ``base-3``, ... that does not: two runs started in the same
    second get a directory each."""
    base.parent.mkdir(parents=True, exist_ok=True)
    for n in itertools.count(1):
        path = base if n == 1 else Path(f"{base}-{n}")
        try:
            path.mkdir()
            return path
        except FileExistsError:
            pass


def run_experiment(config: dict, out_dir=None) -> Path:
    """Dispatch one validated config; returns the artifact directory."""
    if out_dir is None:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out_dir = _new_dir(Path("artifacts") / f"{config.get('name', 'run')}-{stamp}")
    else:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "failure.json").unlink(missing_ok=True)  # a failed earlier run's record
    manifest = {"config": config, "config_hash": config_hash(config),
                "schema_version": SCHEMA_VERSION, "package_version": __version__}
    write_json(out_dir / "manifest.json", manifest)
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


def _parser(argv: list) -> argparse.ArgumentParser:
    """The parser of ``argv``: the top level and the subparser of the command
    ``argv[0]`` names, or all six where it names none (help, no arguments,
    an unknown command). Either way the usage line lists all six."""
    parser = argparse.ArgumentParser(
        prog="minimaxclf",
        description="Minimax training experiments on imbalanced Gaussian benchmarks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    names, metavar = [*COMMANDS, "report"], None
    if argv and argv[0] in names:
        # an error names the argument "command" only where metavar is None
        names, metavar = argv[:1], "{" + ",".join(names) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (_, help_text, flags) in COMMANDS.items():
        if name not in names:
            continue
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None, help="JSON config file")
        cmd.add_argument("--preset", default=None, help="named preset to start from")
        for flag, fields in flags.items():
            cmd.add_argument(flag, type=int, default=None, help="set " + ", ".join(fields))
        cmd.add_argument("--out", type=Path, default=None, help="artifact directory")
    if "report" in names:
        rep = sub.add_parser("report", help="print the summary of a run directory")
        rep.add_argument("run_dir", type=Path)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv).parse_args(argv)
    try:
        if args.command == "report":
            run_report(args.run_dir)
            return 0
        overrides = {"experiment": args.command}
        for flag, fields in COMMANDS[args.command][2].items():
            value = getattr(args, flag[2:])
            if value is not None:
                overrides.update(dict.fromkeys(fields, value))
        config = load_config(args.config, preset=args.preset, overrides=overrides)
        out = run_experiment(config, args.out)
        print(out)
        return 0
    except Exception as err:  # a config error, or a runtime failure after partial artifacts
        kind = "config" if isinstance(err, ConfigError) else type(err).__name__
        json.dump({"error": {"kind": kind, "message": str(err)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if kind == "config" else 1


if __name__ == "__main__":
    sys.exit(main())
