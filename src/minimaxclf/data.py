"""Synthetic Gaussian-mixture datasets, imbalance profiles, CSV I/O, and the
model/prior split used by the min-max training loop.

A mixture gives every class the same isotropic covariance sigma^2 I, as
each synthetic benchmark here does.

Labels are 0-based integers internally; the CSV interchange format uses
1-based labels in the last column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .priors import Prior

LONG_TAIL = "long_tail"
STEP = "step"


@dataclass(frozen=True)
class MixtureSpec:
    """Gaussian class-conditionals with one shared isotropic covariance:
    class y is N(mu_y, sigma^2 I)."""

    means: np.ndarray  # (K, d)
    sigma: float = 1.0

    def __post_init__(self) -> None:
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        if means.shape[0] < 2:
            raise ValueError("mixture needs at least 2 classes")
        if not np.all(np.isfinite(means)):
            raise ValueError("mixture means must be finite")
        sigma = float(self.sigma)
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"mixture sigma must be finite and positive, got {sigma}")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigma", sigma)

    @property
    def class_count(self) -> int:
        return int(self.means.shape[0])

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])


def two_gaussians_1d(separation: float = 1.0, sigma: float = 1.0) -> MixtureSpec:
    """Two classes of standard deviation sigma on a line at -separation and
    +separation."""
    return MixtureSpec(np.array([[-separation], [separation]]), sigma)


def three_gaussians_1d(spacing: float = 2.0, sigma: float = 1.0) -> MixtureSpec:
    """Three classes of standard deviation sigma on a line at -spacing, 0,
    +spacing; the middle one is squeezed from both sides, so it carries the
    adversarial prior mass."""
    return MixtureSpec(np.array([[-spacing], [0.0], [spacing]]), sigma)


def circle_mixture(class_count: int = 10, radius: float = 2.0) -> MixtureSpec:
    """K unit-covariance classes with means equally spaced on a circle.

    At radius 2 adjacent classes overlap enough that the worst-class error
    dominates the total risk.
    """
    angles = 2.0 * np.pi * np.arange(class_count) / class_count
    return MixtureSpec(radius * np.stack([np.cos(angles), np.sin(angles)], axis=1))


@dataclass(frozen=True)
class ImbalanceProfile:
    """How per-class sample counts decay across classes.

    ``long_tail``: counts decay geometrically from ``base_count`` at the head
    class down to ``ratio * base_count`` at the tail class.
    ``step``: the first ceil(K/2) classes are minor with
    ``round(ratio * base_count)`` samples, the rest keep ``base_count``.
    """

    kind: str
    ratio: float
    base_count: int

    def __post_init__(self) -> None:
        if self.kind not in (LONG_TAIL, STEP):
            raise ValueError(f"unknown imbalance kind {self.kind!r}, expected 'long_tail' or 'step'")
        if not (0.0 < self.ratio <= 1.0):
            raise ValueError(f"imbalance ratio must be in (0, 1], got {self.ratio}")
        if self.base_count < 1:
            raise ValueError("base_count must be a positive integer")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def make_imbalance_counts(profile: ImbalanceProfile, class_count: int) -> np.ndarray:
    """Per-class sample counts for the given imbalance profile.

    Long tail uses counts round(ratio^(y/(K-1)) * base) for y = 0..K-1
    (round half up); step gives the minor half round(ratio * base) each.
    """
    if class_count < 2:
        raise ValueError("need at least 2 classes")
    k = class_count
    if profile.kind == LONG_TAIL:
        exponents = np.arange(k) / (k - 1)
        counts = np.array(
            [_round_half_up(profile.base_count * profile.ratio**e) for e in exponents],
            dtype=np.int64,
        )
    else:
        minor = _round_half_up(profile.ratio * profile.base_count)
        n_minor = math.ceil(k / 2)
        counts = np.full(k, profile.base_count, dtype=np.int64)
        counts[:n_minor] = minor
    if np.any(counts < 1):
        raise ValueError(
            f"imbalance profile produces a class with zero samples (counts={counts.tolist()})"
        )
    return counts


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus 0-based integer labels.

    ``class_count`` is carried explicitly so classes with zero realized
    samples keep their slot in per-class counts.
    """

    instances: np.ndarray  # (N, d)
    labels: np.ndarray     # (N,), values in [0, class_count)
    class_count: int

    def __post_init__(self) -> None:
        x = np.asarray(self.instances, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if x.ndim != 2:
            raise ValueError("instances must be a 2-d array (N, d)")
        if y.shape != (x.shape[0],):
            raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} instances")
        if y.size and (y.min() < 0 or y.max() >= self.class_count):
            raise ValueError(f"labels must lie in [0, {self.class_count})")
        object.__setattr__(self, "instances", x)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return int(self.labels.size)

    @property
    def dim(self) -> int:
        return int(self.instances.shape[1])

    @property
    def per_class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.class_count).astype(np.int64)

    def train_prior(self) -> Prior:
        """Empirical prior from realized counts (never from a profile)."""
        return Prior.from_counts(self.per_class_counts)

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)


@dataclass(frozen=True)
class SplitDataset:
    """Disjoint model-training and prior-estimation parts of one dataset."""

    model_part: LabeledDataset
    prior_part: LabeledDataset


def sample_mixture(spec: MixtureSpec, counts, seed: int) -> LabeledDataset:
    """Draw exactly counts[y] samples from class y's Gaussian, deterministically.

    Sampling uses one child generator per class, so a class's draw does not
    depend on the other classes' counts.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (spec.class_count,):
        raise ValueError(f"counts length {counts.size} does not match {spec.class_count} classes")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    blocks = []
    labels = []
    for y in range(spec.class_count):
        n = int(counts[y])
        if n == 0:
            continue
        rng = np.random.default_rng([seed, y])
        blocks.append(spec.means[y] + spec.sigma * rng.standard_normal((n, spec.dim)))
        labels.append(np.full(n, y, dtype=np.int64))
    if not blocks:
        return LabeledDataset(np.empty((0, spec.dim)), np.empty(0, dtype=np.int64), spec.class_count)
    return LabeledDataset(np.concatenate(blocks), np.concatenate(labels), spec.class_count)


def partition_dataset(ds: LabeledDataset, model_fraction: float, seed: int) -> SplitDataset:
    """Stratified split: per class, floor(model_fraction * N_y) samples (at
    least 1) go to the model part, the remainder to the prior part."""
    if not (0.0 < model_fraction < 1.0):
        raise ValueError(f"model_fraction must be in (0, 1), got {model_fraction}")
    counts = ds.per_class_counts
    if np.any(counts < 2):
        short = np.flatnonzero(counts < 2).tolist()
        raise ValueError(f"classes {short} have fewer than 2 samples, cannot split")
    rng = np.random.default_rng(seed)
    model_idx = []
    prior_idx = []
    for y in range(ds.class_count):
        idx = ds.class_indices(y)
        idx = idx[rng.permutation(idx.size)]
        # floor(f*N) <= N-1 for f < 1, so the prior part always keeps >= 1
        n_model = max(1, int(math.floor(model_fraction * idx.size)))
        model_idx.append(idx[:n_model])
        prior_idx.append(idx[n_model:])
    model_idx = np.concatenate(model_idx)
    prior_idx = np.concatenate(prior_idx)
    make = lambda sel: LabeledDataset(ds.instances[sel], ds.labels[sel], ds.class_count)
    return SplitDataset(model_part=make(model_idx), prior_part=make(prior_idx))


def load_csv_dataset(path, has_header: bool = False) -> LabeledDataset:
    """Read a dataset from CSV: float features, then a 1-based integer label.

    The class count is inferred as the maximum label seen. A byte-order mark
    at the start of the file, as spreadsheet programs write it, is dropped.
    """
    rows = []
    labels = []
    width = None
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line = line.decode("utf-8-sig" if lineno == 1 else "utf-8").strip()
        except UnicodeDecodeError:
            raise ValueError(f"row {lineno}: not UTF-8 text")
        if not line or (has_header and lineno == 1):
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
            if width < 2:
                raise ValueError(f"row {lineno}: need at least one feature and a label")
        elif len(fields) != width:
            raise ValueError(f"row {lineno}: expected {width} columns, found {len(fields)}")
        try:
            features = [float(v) for v in fields[:-1]]
        except ValueError:
            raise ValueError(f"row {lineno}: non-numeric feature in {fields[:-1]!r}")
        if not all(map(math.isfinite, features)):
            raise ValueError(f"row {lineno}: non-finite feature in {fields[:-1]!r}")
        try:
            label = int(fields[-1])
        except ValueError:
            raise ValueError(f"row {lineno}: non-integer label {fields[-1]!r}")
        if label < 1:
            raise ValueError(f"row {lineno}: labels are 1-based, got {label}")
        rows.append(features)
        labels.append(label - 1)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    x = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    return LabeledDataset(x, y, class_count=int(y.max()) + 1)

