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
    # a bool is an int and an np.bool_ a float here: both print 1 or 0
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def write_csv(path, header: list, rows: list) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_run(report: RunReport, run_dir, **extra) -> dict:
    """Write one training run's epochs.csv, trajectory.csv and summary.json;
    ``extra`` adds keys to the summary. Returns the summary.

    epochs.csv has one record per epoch: loss, target prior, held-out risks
    and eval metrics. trajectory.csv is the plot schema: epoch, pi_1..pi_K,
    and the class and value of the largest held-out risk (K+3 columns).
    """
    run_dir = Path(run_dir)
    k = report.train_prior.class_count
    pis = [f"pi_{y}" for y in range(1, k + 1)]
    epoch_rows, trajectory_rows = [], []
    for rec in report.records:
        risks = list(rec.risks.estimates)
        y = int(np.argmax(rec.risks.estimates))
        worst = [y + 1, risks[y]]
        worst_class = None if rec.worst_class is None else rec.worst_class + 1
        epoch_rows.append(
            [rec.epoch, rec.phase, rec.mean_loss, *rec.prior.p, *risks]
            + [worst_class, rec.worst_class_acc, rec.balanced_acc]
        )
        trajectory_rows.append([rec.epoch, *rec.prior.p, *worst])
    epochs_header = (
        ["epoch", "phase", "mean_loss", *pis]
        + [f"risk_{y}" for y in range(1, k + 1)]
        + ["worst_class", "worst_class_acc", "balanced_acc"]
    )
    write_csv(run_dir / "epochs.csv", epochs_header, epoch_rows)
    trajectory_header = ["epoch", *pis, "worst_class", "worst_risk"]
    write_csv(run_dir / "trajectory.csv", trajectory_header, trajectory_rows)
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

