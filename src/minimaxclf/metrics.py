"""Evaluation metrics: per-class accuracies (from which a run takes its
worst-class and balanced accuracy) and the inter/intra feature-cluster
ratio."""

from __future__ import annotations

import numpy as np

from .data import LabeledDataset
from .model import ModelParams, predict

_NEIGHBOR_COUNT = 3


def _class_hits(params: ModelParams, dataset: LabeledDataset) -> tuple:
    """(correct predictions, samples) per class, both (K,) integer vectors;
    every class must be present."""
    counts = dataset.per_class_counts
    if np.any(counts < 1):
        missing = np.flatnonzero(counts < 1).tolist()
        raise ValueError(f"classes {missing} absent from dataset")
    hit = predict(params, dataset.instances) == dataset.labels
    return np.bincount(dataset.labels[hit], minlength=dataset.class_count), counts


def per_class_accuracies(params: ModelParams, dataset: LabeledDataset) -> np.ndarray:
    correct, counts = _class_hits(params, dataset)
    return correct / counts


def inter_intra_ratio(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-class ratio of the mean distance to the 3 nearest other class
    centers over the mean within-class distance to the own center.

    A class whose samples coincide exactly gets an infinite ratio. The
    neighbor count is clipped to K - 1 for small class counts.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("features must be (N, d) with matching labels")
    # the labels are class indices: the classes are those with a sample
    counts = np.bincount(y)
    classes = np.flatnonzero(counts)
    k = classes.size
    if k < 2:
        raise ValueError("need at least 2 classes")
    if np.any(counts[classes] < 2):
        raise ValueError("every class needs at least 2 samples")
    neighbors = min(_NEIGHBOR_COUNT, k - 1)
    members = [x[y == c] for c in classes]
    centers = np.stack([m.mean(axis=0) for m in members])
    pairwise = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    ratios = np.empty(k)
    for i, m in enumerate(members):
        others = np.delete(pairwise[i], i)
        d_inter = np.sort(others)[:neighbors].mean()
        d_intra = np.linalg.norm(m - centers[i], axis=1).mean()
        ratios[i] = np.inf if d_intra == 0.0 else d_inter / d_intra
    return ratios
