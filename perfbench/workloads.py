"""The benchmark's workloads: the CLI invocations each one makes for a seed,
and the checks its artifacts must pass.

A workload is a list of ``minimaxclf`` CLI invocations run back to back in
one process. Its inputs (config files and seeds) come from the benchmark
seed alone. ``check`` reads the artifacts back from disk and returns a list
of failures; an empty list means the execution is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

# Acceptance criterion 2: the offset-trained threshold sits at the target
# prior's Bayes threshold ln(0.8/0.2)/2, the plain-CE one at 0.
TLA_THRESHOLD = 0.5 * math.log(0.8 / 0.2)
THRESHOLD_TOLERANCE = 0.1
FIXED_TARGET_SEEDS = 5

# Tolerances for the default-seed reference. Training is chaotic, so a
# speedup that moves a float by its last bit may move an accuracy by a few
# eval samples; byte identity is reported separately.
ACC_TOLERANCE = 0.02
PRIOR_TOLERANCE = 0.02
ORACLE_TOLERANCE = 1e-3
SIMPLEX_TOLERANCE = 1e-9
MC_SE_LIMIT = 4.0

ABLATE_CELLS = ("TLA-linear", "TLA-ega", "TWCE-linear", "TWCE-ega")
ABLATE_EPOCHS = 120
FIXED_TARGET_EPOCHS = 60
ORACLE_ITERATIONS = 8
MC_TRIALS = 1_000_000
MC_SAMPLE_SIZES = (2, 4, 8, 16, 32, 64)



def _write_config(path: Path, payload: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def invocations(workload: str, seed: int, work_dir: Path) -> list:
    """CLI argument lists of one execution; writes the config files they
    name into ``work_dir``. The artifacts land under ``work_dir/out``."""
    out = work_dir / "out"
    if workload == "ablate-step10":
        cfg = _write_config(work_dir / "ablate.json", {"ablate": {"seeds": [seed]}})
        return [["ablate", "--preset", "step10-desk", "--config", cfg, "--out", str(out)]]
    if workload == "fixed-target-1d":
        runs = []
        for variant in ("TLA", "CE"):
            cfg = _write_config(work_dir / f"{variant}.json", {"loss": {"variant": variant}})
            for i in range(FIXED_TARGET_SEEDS):
                run_seed = FIXED_TARGET_SEEDS * seed + i
                runs.append(
                    ["train", "--preset", "two-class-1d", "--config", cfg,
                     "--seed", str(run_seed), "--out", str(out / variant / f"seed-{run_seed}")]
                )
        return runs
    if workload == "oracle-circle10":
        cfg = _write_config(
            work_dir / "oracle.json",
            {
                "dataset": {"benchmark": "circle", "class_count": 10, "radius": 3.0},
                "oracle": {"method": "ascent", "iterations": ORACLE_ITERATIONS},
            },
        )
        return [["oracle", "--config", cfg, "--seed", str(seed), "--out", str(out)]]
    if workload == "curves-mc":
        return [["mc", "--preset", "figure-validation", "--trials", str(MC_TRIALS),
                 "--seed", str(seed), "--out", str(out)]]
    raise KeyError(workload)


WORKLOADS = ("ablate-step10", "fixed-target-1d", "oracle-circle10", "curves-mc")


def config_call(argv: list) -> dict:
    """The ``load_config`` arguments the CLI derives from ``argv``."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    overrides = {"experiment": argv[0]}
    if "--trials" in opts:
        overrides["mc.trials"] = int(opts["--trials"])
    return {"path": opts.get("--config"), "preset": opts.get("--preset"), "overrides": overrides}


# ---------------------------------------------------------------------------
# artifact checks
# ---------------------------------------------------------------------------


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _simplex_error(values) -> str:
    if any(v < 0 for v in values) or abs(sum(values) - 1.0) > SIMPLEX_TOLERANCE:
        return f"prior off the simplex: {values}"
    return ""


def _prior_columns(row: dict) -> list:
    return [float(row[k]) for k in row if k.startswith("pi_")]


def digests(out: Path) -> dict:
    """SHA-256 of every CSV and JSON artifact, keyed by relative path.

    Checkpoints are left out: ``np.savez`` stamps the zip with the time."""
    files = sorted(p for p in out.rglob("*") if p.suffix in (".csv", ".json"))
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def _check_epochs(run_dir: Path, epochs: int, failures: list) -> None:
    for name in ("epochs.csv", "trajectory.csv"):
        rows = _rows(run_dir / name)
        if len(rows) != epochs:
            failures.append(f"{run_dir.name}/{name}: {len(rows)} records, expected {epochs}")
        for row in rows:
            err = _simplex_error(_prior_columns(row))
            if err:
                failures.append(f"{run_dir.name}/{name} epoch {row['epoch']}: {err}")
                break


def _check_ablate(out: Path, seed: int, ref: dict, failures: list) -> dict:
    summary = {}
    for cell in ABLATE_CELLS:
        run_dir = out / f"cell-{cell}" / f"seed-{seed}"
        _check_epochs(run_dir, ABLATE_EPOCHS, failures)
        s = json.loads((run_dir / "summary.json").read_text())
        err = _simplex_error(s["final_prior"])
        if err:
            failures.append(f"{cell}: final {err}")
        for key in ("worst_class_acc", "balanced_acc"):
            if not 0.0 <= s[key] <= 1.0:
                failures.append(f"{cell}: {key} {s[key]} outside [0, 1]")
        summary[cell] = {k: s[k] for k in ("worst_class_acc", "balanced_acc", "final_prior")}
    if len(_rows(out / "cells.csv")) != len(ABLATE_CELLS):
        failures.append("cells.csv: expected one row per cell")
    for cell, want in ref.items():
        got = summary[cell]
        for key in ("worst_class_acc", "balanced_acc"):
            if abs(got[key] - want[key]) > ACC_TOLERANCE:
                failures.append(f"{cell}: {key} {got[key]} differs from reference {want[key]}")
        drift = max(abs(a - b) for a, b in zip(got["final_prior"], want["final_prior"]))
        if drift > PRIOR_TOLERANCE:
            failures.append(f"{cell}: final prior moved {drift} from the reference")
    return summary


def decision_threshold(checkpoint: Path) -> float:
    """x where the two logits of a 1-d, two-class linear model are equal."""
    with np.load(checkpoint) as data:
        w, b = data["W1"], data["b1"]
    return float((b[1] - b[0]) / (w[0, 0] - w[0, 1]))


def _check_fixed_target(out: Path, seed: int, ref: dict, failures: list) -> dict:
    summary = {}
    for variant, target in (("TLA", TLA_THRESHOLD), ("CE", 0.0)):
        thresholds = []
        for i in range(FIXED_TARGET_SEEDS):
            run_dir = out / variant / f"seed-{FIXED_TARGET_SEEDS * seed + i}"
            _check_epochs(run_dir, FIXED_TARGET_EPOCHS, failures)
            thresholds.append(decision_threshold(run_dir / "checkpoint.npz"))
        median = statistics.median(thresholds)
        if abs(median - target) > THRESHOLD_TOLERANCE:
            failures.append(f"{variant}: median threshold {median} not within 0.1 of {target}")
        summary[variant] = thresholds
    return summary


def _check_oracle(out: Path, seed: int, ref: dict, failures: list) -> dict:
    result = json.loads((out / "adversarial_prior.json").read_text())
    err = _simplex_error(result["prior"])
    if err:
        failures.append(err)
    if len(result["prior"]) != 10 or result["iterations"] != ORACLE_ITERATIONS:
        failures.append(f"unexpected search shape: {result}")
    risks = [float(r["risk"]) for r in _rows(out / "risks_at_adversarial_prior.csv")]
    if len(risks) != 10 or not all(0.0 <= r <= 1.0 for r in risks):
        failures.append(f"per-class risks malformed: {risks}")
    elif abs(sum(p * r for p, r in zip(result["prior"], risks)) - result["risk"]) > 1e-9:
        failures.append("risk is not the prior-weighted sum of the per-class risks")
    if ref:
        drift = max(abs(a - b) for a, b in zip(result["prior"], ref["prior"]))
        if drift > ORACLE_TOLERANCE or abs(result["risk"] - ref["risk"]) > ORACLE_TOLERANCE:
            failures.append(f"prior or risk moved from the reference: {result}")
    return {"prior": result["prior"], "risk": result["risk"]}


def _check_mc(out: Path, seed: int, ref: dict, failures: list) -> dict:
    """``ref`` holds the exact curves, which do not depend on the seed, and
    at the default seed the failure counts as well."""
    failure = _rows(out / "failure_curve.csv")
    mse = _rows(out / "mse_curve.csv")
    if [int(r["N"]) for r in failure] != list(MC_SAMPLE_SIZES) or len(mse) != len(MC_SAMPLE_SIZES):
        failures.append("curves do not cover the sample sizes")
        return {}
    counts = []
    for row, exact in zip(failure, ref["exact_failure"]):
        est = float(row["mc_value"])
        se = math.sqrt(exact * (1.0 - exact) / MC_TRIALS)
        if abs(est - exact) > MC_SE_LIMIT * se:
            failures.append(f"N={row['N']}: MC failure {est} not within 4 SE of exact {exact}")
        counts.append(round(est * MC_TRIALS))
    for row, exact in zip(mse, ref["exact_mse"]):
        est = float(row["mc_value"])
        se = (float(row["ci_high"]) - float(row["ci_low"])) / (2 * 1.959963984540054)
        if abs(est - exact) > MC_SE_LIMIT * se:
            failures.append(f"N={row['N']}: MC MSE {est} not within 4 SE of exact {exact}")
    if "failure_counts" in ref and counts != ref["failure_counts"]:
        failures.append(f"MC failure counts {counts} differ from reference {ref['failure_counts']}")
    return {"failure_counts": counts}


_CHECKS = {
    "ablate-step10": _check_ablate,
    "fixed-target-1d": _check_fixed_target,
    "oracle-circle10": _check_oracle,
    "curves-mc": _check_mc,
}


def check(workload: str, out: Path, seed: int, reference: dict) -> tuple:
    """Returns (failures, summary, byte_identical). ``summary`` holds the
    values the default-seed reference stores; ``byte_identical`` is None
    away from the default seed."""
    ref = reference.get(workload, {})
    at_default = seed == DEFAULT_SEED
    values = ref.get("values", {}) if at_default else {}
    if workload == "curves-mc":
        values = dict(ref.get("exact", {}), **values)
    failures = []
    try:
        summary = _CHECKS[workload](out, seed, values, failures)
    except (OSError, KeyError, ValueError) as err:
        return [f"artifacts unreadable: {type(err).__name__}: {err}"], {}, None
    identical = None
    if at_default and "digests" in ref:
        identical = digests(out) == ref["digests"]
    return failures, summary, identical
