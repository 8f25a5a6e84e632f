"""The generalized softmax loss family and its exact gradients.

Every variant is an instance of

    l(y, f(x)) = -w_y * log softmax_y(delta * f(x) + ell)

with per-class weights ``w``, multiplicative logits ``delta`` and additive
logits ``ell``, plus three per-sample rules that do not fit the static
form: the focal weight (1 - p_hat)^2, the margin applied only to the
true-class logit, and the geometric-mean loss which couples samples
through batch class counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .priors import Prior

VARIANTS = ("CE", "WCE", "Focal", "FocalAlpha", "LDAM", "LA", "VS", "TWCE", "TLA", "GML")

_FOCAL_GAMMA = 2.0
_LDAM_MAX_MARGIN = 0.5  # the largest margin of Cao et al., arXiv:1906.07413
_DRW_BETA = 0.9999  # the effective-number beta of Cui et al., arXiv:1901.05555


@dataclass(frozen=True)
class GeneralizedLossSpec:
    variant: str
    weights: np.ndarray                          # (K,), static per-class w_y
    delta: np.ndarray                            # (K,), multiplicative logits
    ell: np.ndarray                              # (K,), additive logits, all coordinates
    true_class_offsets: Optional[np.ndarray] = None  # (K,), added only at the label coordinate
    focal_gamma: Optional[float] = None
    # derived: weights / delta exactly all ones, so the loss can skip multiplying by them
    unit_weights: bool = field(init=False, repr=False, compare=False)
    unit_delta: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}, expected one of {VARIANTS}")
        # read-only copies, so the unit flags stay true to the vectors
        for name in ("weights", "delta", "ell", "true_class_offsets"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.array(v, dtype=np.float64)
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        w, d = self.weights, self.delta
        if not (w.shape == d.shape == self.ell.shape) or w.ndim != 1:
            raise ValueError("weights, delta and ell must be 1-d vectors of equal length")
        if not np.all(w > 0):
            raise ValueError("per-class weights must be positive")
        if not np.all(d > 0):
            raise ValueError("multiplicative logits must be positive")
        if self.true_class_offsets is not None and self.true_class_offsets.shape != w.shape:
            raise ValueError("true_class_offsets must match the class count")
        object.__setattr__(self, "unit_weights", bool(np.all(w == 1.0)))
        object.__setattr__(self, "unit_delta", bool(np.all(d == 1.0)))

    @property
    def class_count(self) -> int:
        return int(self.weights.size)

    def with_weights(self, weights: np.ndarray) -> "GeneralizedLossSpec":
        return replace(self, weights=weights)


def tla_offsets(pi_train: Prior, pi_target: Prior, tau: float) -> np.ndarray:
    """Additive logits tau * (ln pi_train_y - ln pi_target_y).

    Training with these offsets makes the raw network output Bayes-consistent
    for ``pi_target`` instead of the training prior.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    pt = pi_train.p
    pg = pi_target.p
    if pt.size != pg.size:
        raise ValueError("priors have different class counts")
    if np.any(pg == 0):
        raise ValueError("target prior has a zero coordinate, offset diverges")
    if np.any(pt == 0):
        raise ValueError("training prior has a zero coordinate (class absent from training data)")
    return tau * (np.log(pt) - np.log(pg))


def deferred_reweighting_weights(counts) -> np.ndarray:
    """Effective-number class weights (1 - beta) / (1 - beta^N_y), beta =
    0.9999, used when a re-weighting switch is scheduled late in training."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 1):
        raise ValueError("all classes need at least one sample")
    return (1.0 - _DRW_BETA) / (1.0 - _DRW_BETA**counts)


def spec_from_variant(
    variant: str,
    pi_train: Prior,
    pi_target: Optional[Prior] = None,
    *,
    counts=None,
    tau: float = 1.0,
    gamma: float = 0.15,
) -> GeneralizedLossSpec:
    """Instantiate one of the named variants.

    ``counts`` (realized per-class sample counts) is required for WCE,
    FocalAlpha, LDAM and VS; ``pi_target`` for TWCE and TLA; ``tau`` applies
    to LA, VS and TLA; ``gamma`` to VS only.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown loss variant {variant!r}, expected one of {VARIANTS}")
    k = pi_train.class_count
    ones = np.ones(k)
    zeros = np.zeros(k)

    def need_counts() -> np.ndarray:
        if counts is None:
            raise ValueError(f"variant {variant} needs per-class counts")
        c = np.asarray(counts, dtype=np.float64)
        if c.shape != (k,) or np.any(c < 1):
            raise ValueError("counts must be positive and match the class count")
        return c

    def need_target() -> Prior:
        if pi_target is None:
            raise ValueError(f"variant {variant} needs a target prior")
        return pi_target

    if variant == "CE" or variant == "GML":
        return GeneralizedLossSpec(variant, ones, ones, zeros)
    if variant == "WCE":
        return GeneralizedLossSpec(variant, 1.0 / need_counts(), ones, zeros)
    if variant == "Focal":
        return GeneralizedLossSpec(variant, ones, ones, zeros, focal_gamma=_FOCAL_GAMMA)
    if variant == "FocalAlpha":
        return GeneralizedLossSpec(
            variant, 1.0 / need_counts(), ones, zeros, focal_gamma=_FOCAL_GAMMA
        )
    if variant == "LDAM":
        c = need_counts()
        # margin C * N_y^(-1/4) with C chosen so the largest margin is _LDAM_MAX_MARGIN
        raw = c**-0.25
        margins = _LDAM_MAX_MARGIN * raw / raw.max()
        return GeneralizedLossSpec(variant, ones, ones, zeros, true_class_offsets=-margins)
    if variant == "LA":
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        return GeneralizedLossSpec(variant, ones, ones, tau * np.log(pi_train.p))
    if variant == "VS":
        if tau <= 0 or gamma < 0:
            raise ValueError(f"invalid VS hyperparameters tau={tau}, gamma={gamma}")
        c = need_counts()
        delta = (c / c.max()) ** gamma
        return GeneralizedLossSpec(variant, ones, delta, tau * np.log(pi_train.p))
    if variant == "TWCE":
        target = need_target()
        if np.any(pi_train.p == 0):
            raise ValueError("training prior has a zero coordinate")
        return GeneralizedLossSpec(variant, target.p / pi_train.p, ones, zeros)
    # TLA
    return GeneralizedLossSpec(variant, ones, ones, tla_offsets(pi_train, need_target(), tau))


def softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grad(spec: GeneralizedLossSpec, logits: np.ndarray, labels: np.ndarray) -> tuple:
    """Mean per-sample loss over the batch and its exact gradient with
    respect to the logits, from one max-shifted exponential.

    GML works on the raw logits and normalizes each class score by the batch
    class counts; classes absent from the batch are skipped and the
    averaging constant is the number of classes actually present.
    """
    f = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    k = spec.class_count
    if f.ndim != 2 or f.shape[1] != k:
        raise ValueError(f"logits must be (N, {k}), got {f.shape}")
    if f.shape[0] == 0:
        raise ValueError("empty batch")
    if not np.all(np.isfinite(f)):
        raise ValueError("non-finite logits")
    if y.shape != (f.shape[0],) or y.min() < 0 or y.max() >= k:
        raise ValueError("labels must be a vector of class indices matching the batch")
    return _loss_and_grad(spec, np.ascontiguousarray(f), *_label_terms(spec, y, y.size))


def _label_terms(spec: GeneralizedLossSpec, labels: np.ndarray, batch_size: int) -> tuple:
    """The label-dependent inputs of :func:`_loss_and_grad` for ``labels``
    cut into consecutive batches of ``batch_size``: the flat index
    ``row_in_batch * K + label`` of each label entry, and the spec's weights
    and true-class offsets at the labels (offsets None when the spec has
    none). Training builds them once per epoch and slices them per batch."""
    idx = np.arange(labels.size) % batch_size * spec.class_count + labels
    offsets = None if spec.true_class_offsets is None else spec.true_class_offsets[labels]
    return idx, spec.weights[labels], offsets


def _row_max(z: np.ndarray) -> np.ndarray:
    """z.max(axis=1) from one class-major reduction: numpy reduces a narrow
    row in a loop of its own, so across rows is faster, and a maximum does
    not depend on the order."""
    return np.ascontiguousarray(z.T).max(axis=0)


def _loss_and_grad(
    spec: GeneralizedLossSpec,
    f: np.ndarray,
    idx: np.ndarray,
    w: np.ndarray,
    offsets: Optional[np.ndarray],
) -> tuple:
    """The arithmetic of :func:`loss_and_grad`, without its checks, on
    C-contiguous logits ``f`` and the batch's slice of :func:`_label_terms`.
    Each label entry is read and written through the flat index ``idx``, so
    the arrays it indexes must be C-contiguous."""
    n = idx.size
    if spec.variant == "GML":
        k = spec.class_count
        y = idx % k
        onehot = np.zeros(f.shape)
        onehot.reshape(-1)[idx] = 1.0
        counts = np.bincount(y, minlength=k).astype(np.float64)
        e = np.exp(f - _row_max(f)[:, None])
        ratio = e / (e * counts[None, :]).sum(axis=1)[:, None]  # exp(f_k) / sum_k' n_k' exp(f_k')
        t = np.take(ratio, idx)             # per-sample contribution to its class score
        p_class = np.zeros(k)
        np.add.at(p_class, y, t)
        present = counts > 0
        loss = float(-np.mean(np.log(p_class[present])))
        # d t_i / d f_{i,k} = t_i * (1[k=y_i] - n_k * ratio_{i,k})
        dt = t[:, None] * (onehot - counts[None, :] * ratio)
        return loss, -dt / (np.count_nonzero(present) * p_class[y][:, None])

    z = (f if spec.unit_delta else spec.delta * f) + spec.ell  # x * 1.0 is x to the bit
    if offsets is not None:
        z.reshape(-1)[idx] += offsets
    z -= _row_max(z)[:, None]  # z is now the shifted logits
    p = np.exp(z)
    total = p.sum(axis=1)  # pairwise per row: a column-wise sum moves the bits for K >= 8
    logp_true = np.take(z, idx) - np.log(total)
    p /= total[:, None]
    flat = p.reshape(-1)  # a view: p is a fresh C-contiguous array
    # np.add.reduce(a) / n is np.mean(a) without its Python-level wrapper
    if spec.focal_gamma is None:
        nll = -logp_true
        loss = float(np.add.reduce(nll if spec.unit_weights else w * nll) / n)
        flat[idx] -= 1.0  # p - onehot
        if not spec.unit_weights:
            p *= w[:, None] if spec.unit_delta else w[:, None] * spec.delta
        elif not spec.unit_delta:
            p *= spec.delta
        p /= n
        return loss, p
    gamma = spec.focal_gamma
    # the loss takes p_y as exp(log p_y), the gradient as the softmax entry; they
    # can differ in the last bit, and each keeps its form so runs stay bit-identical
    loss = float(np.add.reduce(w * (1.0 - np.exp(logp_true)) ** gamma * -logp_true) / n)
    p_true = np.take(p, idx)
    ce = -np.log(p_true)
    focal = (1.0 - p_true) ** gamma
    flat[idx] -= 1.0  # p - onehot; 0.0 - p is then onehot - p to the bit
    # d/df of (1-p_y)^gamma * ce: product rule, with
    # dp_y/df_k = delta_k * p_y * (1[k=y] - p_k)
    dp_true = spec.delta[None, :] * (p_true[:, None] * (0.0 - p))
    grad = (
        -gamma * (1.0 - p_true)[:, None] ** (gamma - 1.0) * ce[:, None] * dp_true
        + focal[:, None] * spec.delta[None, :] * p
    )
    return loss, w[:, None] * grad / n


def batch_loss(spec: GeneralizedLossSpec, logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean per-sample loss over the batch; see :func:`loss_and_grad`."""
    return loss_and_grad(spec, logits, labels)[0]


def batch_loss_gradient(
    spec: GeneralizedLossSpec, logits: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Exact gradient of :func:`batch_loss` with respect to the logits."""
    return loss_and_grad(spec, logits, labels)[1]
