"""Artifact emission: a run's artifact set (write_run) and plot-ready CSVs.

All floats are printed with 17 significant digits and '.' as the decimal
separator so reruns with the same config produce byte-identical files.
Class ids in emitted files are 1-based, matching the CSV dataset format.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .minimax import RunReport


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def write_csv(path, header: list, rows: list) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def epochs_csv(report: RunReport, path) -> None:
    """One record per epoch: loss, target prior, held-out risks, eval metrics."""
    k = report.train_prior.class_count
    header = (
        ["epoch", "phase", "mean_loss"]
        + [f"pi_{y}" for y in range(1, k + 1)]
        + [f"risk_{y}" for y in range(1, k + 1)]
        + ["worst_class", "worst_class_acc", "balanced_acc"]
    )
    rows = []
    for rec in report.records:
        row = [rec.epoch, rec.phase, rec.mean_loss]
        row += list(rec.prior.p)
        row += list(rec.risks.estimates) if rec.risks is not None else [None] * k
        row += [
            None if rec.worst_class is None else rec.worst_class + 1,
            rec.worst_class_acc,
            rec.balanced_acc,
        ]
        rows.append(row)
    write_csv(path, header, rows)


def trajectory_csv(report: RunReport, path) -> None:
    """Plot schema: epoch, pi_1..pi_K, worst_class, worst_risk (K+3 columns).

    worst_class/worst_risk are the largest held-out risk each epoch.
    """
    k = report.train_prior.class_count
    header = ["epoch"] + [f"pi_{y}" for y in range(1, k + 1)] + ["worst_class", "worst_risk"]
    rows = []
    for rec in report.records:
        worst = int(np.argmax(rec.risks.estimates)) if rec.risks is not None else None
        rows.append(
            [rec.epoch]
            + list(rec.prior.p)
            + [
                None if worst is None else worst + 1,
                None if worst is None else rec.risks.estimates[worst],
            ]
        )
    write_csv(path, header, rows)


def curve_csv(path, rows: list) -> None:
    """Theory-vs-MC curve schema: N, theory_value, mc_value, ci_low, ci_high."""
    write_csv(path, ["N", "theory_value", "mc_value", "ci_low", "ci_high"], rows)


def value_table_csv(path, rows: list) -> None:
    """(N, value) table for the analytic calculators."""
    write_csv(path, ["N", "value"], rows)


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_run(report: RunReport, run_dir, **extra) -> dict:
    """Write one training run's epochs.csv, trajectory.csv and summary.json;
    ``extra`` adds keys to the summary. Returns the summary."""
    run_dir = Path(run_dir)
    epochs_csv(report, run_dir / "epochs.csv")
    trajectory_csv(report, run_dir / "trajectory.csv")
    summary = {
        "final_prior": [float(v) for v in report.final_prior.p],
        "train_prior": [float(v) for v in report.train_prior.p],
        "train_counts": [int(v) for v in report.train_counts],
        "epochs": len(report.records),
        "loss_variant": report.config.loss_variant,
        "ascent_method": report.config.ascent.method,
        **extra,
    }
    if report.final_worst_class is not None:
        summary["worst_class"] = int(report.final_worst_class) + 1
        summary["worst_class_acc"] = float(report.final_worst_class_acc)
        summary["balanced_acc"] = float(report.final_balanced_acc)
        summary["worst_class_prior_value"] = float(report.final_prior.p[report.final_worst_class])
    write_json(run_dir / "summary.json", summary)
    return summary

