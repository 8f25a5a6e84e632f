"""A small differentiable classifier (linear softmax or one-hidden-layer MLP)
trained by SGD with momentum, decoupled weight decay, linear warmup and step
decay. No autodiff framework: forward and backward are written out once for
a stack of dense layers with ReLU between them; the architecture name only
sets the layer widths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import LabeledDataset
from .losses import GeneralizedLossSpec, _label_terms, _loss_and_grad

LINEAR = "linear"
MLP = "mlp"

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelParams:
    architecture: str                 # "linear" or "mlp"
    weights: tuple                    # (W,) or (W1, W2)
    biases: tuple                     # (b,) or (b1, b2)

    @property
    def dim(self) -> int:
        return int(self.weights[0].shape[0])

    @property
    def class_count(self) -> int:
        return int(self.weights[-1].shape[1])

    def tensors(self) -> list:
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"W{i + 1}", w))
            out.append((f"b{i + 1}", b))
        return out


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 2e-4
    batch_size: int = 128
    warmup_epochs: int = 5
    decay_epochs: tuple = ()
    decay_factor: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if not (0.0 < self.decay_factor <= 1.0):
            raise ValueError("decay factor must be in (0, 1]")
        if self.batch_size < 1 or self.warmup_epochs < 0:
            raise ValueError("batch_size must be positive and warmup_epochs nonnegative")
        object.__setattr__(self, "decay_epochs", tuple(int(e) for e in self.decay_epochs))


@dataclass
class OptimizerState:
    velocities: list                  # same shapes as params tensors
    epoch: int = 0


def init_params(
    architecture: str, dim: int, class_count: int, seed: int, hidden_width: int = 64
) -> ModelParams:
    """Uniform +-1/sqrt(fan_in) weights, zero biases, seeded."""
    rng = np.random.default_rng(seed)

    def layer(n_in, n_out):
        bound = 1.0 / np.sqrt(n_in)
        return rng.uniform(-bound, bound, size=(n_in, n_out))

    widths = {LINEAR: (dim, class_count), MLP: (dim, hidden_width, class_count)}
    if architecture not in widths:
        raise ValueError(f"unknown architecture {architecture!r}")
    sizes = widths[architecture]
    return ModelParams(
        architecture,
        tuple(layer(n_in, n_out) for n_in, n_out in zip(sizes, sizes[1:])),
        tuple(np.zeros(n_out) for n_out in sizes[1:]),
    )


def init_optimizer(params: ModelParams) -> OptimizerState:
    vel = [np.zeros_like(t) for _, t in params.tensors()]
    return OptimizerState(velocities=vel, epoch=0)


def _shapes(params: ModelParams) -> list:
    return [t.shape for _, t in params.tensors()]


def _flat(tensors) -> np.ndarray:
    """One new contiguous buffer holding the tensors back to back."""
    return np.concatenate([np.ravel(t) for t in tensors])


def _views(flat: np.ndarray, shapes: list) -> list:
    """Views of a flat buffer, one per shape, in order."""
    out, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[start : start + size].reshape(shape))
        start += size
    return out


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, the bias added in place: one new array per layer, not two."""
    out = x @ w
    out += b
    return out


def _activations(weights: tuple, biases: tuple, x: np.ndarray) -> list:
    """The input of every layer: x, then each hidden activation. No checks."""
    inputs = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        h = _affine(inputs[-1], w, b)
        np.maximum(h, 0.0, out=h)  # in place: the pre-activation is not kept
        inputs.append(h)
    return inputs


def _instances(params: ModelParams, instances: np.ndarray) -> np.ndarray:
    x = np.asarray(instances, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise ValueError(f"instances must be (N, {params.dim}), got {x.shape}")
    return x


def _layer_inputs(params: ModelParams, instances: np.ndarray) -> list:
    return _activations(params.weights, params.biases, _instances(params, instances))


def _logits(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The logits of checked float64 instances."""
    inputs = _activations(params.weights, params.biases, x)
    return _affine(inputs[-1], params.weights[-1], params.biases[-1])


def forward_logits(params: ModelParams, instances: np.ndarray) -> np.ndarray:
    return _logits(params, _instances(params, instances))


def _backward_into(grads: list, weights: tuple, inputs: list, g: np.ndarray, weight_decay) -> None:
    """Write the gradient of every tensor into ``grads`` (tensors() order),
    from the layer inputs of the forward pass and the logit gradient ``g``."""
    decay = 2.0 * weight_decay
    for i in reversed(range(len(weights))):
        w = weights[i]
        np.matmul(inputs[i].T, g, out=grads[2 * i])
        grads[2 * i] += decay * w
        np.add.reduce(g, axis=0, out=grads[2 * i + 1])
        if i > 0:
            # ReLU passes the gradient where its output is positive
            g = (g @ w.T) * (inputs[i] > 0.0)


def backward(
    params: ModelParams,
    instances: np.ndarray,
    upstream_logit_grad: np.ndarray,
    weight_decay: float = 0.0,
) -> list:
    """Chain-rule gradients for all parameter tensors, in tensors() order.

    Weight decay contributes 2 * lambda * W to weight gradients only,
    independent of the loss term.
    """
    inputs = _layer_inputs(params, instances)
    g = np.asarray(upstream_logit_grad, dtype=np.float64)
    if g.shape != (inputs[0].shape[0], params.class_count):
        raise ValueError(f"upstream gradient must be (N, {params.class_count}), got {g.shape}")
    grads = _views(np.empty(sum(t.size for _, t in params.tensors())), _shapes(params))
    _backward_into(grads, params.weights, inputs, g, weight_decay)
    return grads


def lr_schedule(epoch: int, config: TrainConfig) -> float:
    """Linear ramp over the warmup epochs, then multiplicative step decay."""
    if epoch < 1:
        raise ValueError("epochs are 1-based")
    lr = config.learning_rate
    if config.warmup_epochs > 0 and epoch <= config.warmup_epochs:
        return lr * epoch / config.warmup_epochs
    for decay_epoch in config.decay_epochs:
        if epoch >= decay_epoch:
            lr *= config.decay_factor
    return lr


def _flat_velocity(opt_state: OptimizerState, shapes: list) -> np.ndarray:
    if [np.shape(v) for v in opt_state.velocities] != shapes:
        raise ValueError("optimizer velocities do not match the parameter shapes")
    return _flat(opt_state.velocities)


def train_epoch(
    params: ModelParams,
    opt_state: OptimizerState,
    dataset: LabeledDataset,
    spec: GeneralizedLossSpec,
    config: TrainConfig,
) -> tuple:
    """One pass over seeded-shuffled mini-batches. Returns (params, mean loss).

    The shuffle is keyed by (config.seed, epoch index) so reruns are
    bit-identical. The returned loss is the per-sample mean over the epoch.

    Each batch takes one SGD step with momentum at the epoch's learning
    rate lr_t, v <- momentum v + g; theta <- theta - lr_t v: the package's
    only optimizer update. The epoch trains on flat copies of the parameters
    and velocities, through views shaped like the tensors, with the
    arithmetic of forward_logits, loss_and_grad and backward: the backward
    pass reuses the forward activations, and one momentum update covers the
    whole flat buffer. The returned parameters and the velocities left in
    opt_state are fresh copies. Shapes, the label range, the learning rate,
    the flat label index and the per-sample loss weights and offsets are
    checked or gathered once per epoch; the logits, the loss and the
    gradients are checked every batch.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    k = spec.class_count
    if params.class_count != k:
        raise ValueError(f"the loss has {k} classes, the model {params.class_count}")
    if dataset.dim != params.dim:
        raise ValueError(f"instances must be (N, {params.dim}), got {dataset.instances.shape}")
    if dataset.labels.min() < 0 or dataset.labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    shapes = _shapes(params)
    theta = _flat(t for _, t in params.tensors())
    velocity = _flat_velocity(opt_state, shapes)
    grad = np.empty_like(theta)
    opt_state.epoch += 1
    lr = lr_schedule(opt_state.epoch, config)

    rng = np.random.default_rng([config.seed, opt_state.epoch])
    order = rng.permutation(n)
    x = dataset.instances[order]
    y = dataset.labels[order]
    idx, sample_weights, offsets = _label_terms(spec, y, config.batch_size)

    views = _views(theta, shapes)
    weights, biases = tuple(views[0::2]), tuple(views[1::2])
    grads = _views(grad, shapes)
    names = [name for name, _ in params.tensors()]
    total = 0.0
    for start in range(0, n, config.batch_size):
        batch = slice(start, start + config.batch_size)
        inputs = _activations(weights, biases, x[batch])
        logits = _affine(inputs[-1], weights[-1], biases[-1])
        if not np.isfinite(logits).all():
            raise ValueError("non-finite logits")
        ib = idx[batch]
        loss, g = _loss_and_grad(
            spec, logits, ib, sample_weights[batch], None if offsets is None else offsets[batch]
        )
        if not math.isfinite(loss):
            raise FloatingPointError(
                f"non-finite loss {loss} at epoch {opt_state.epoch}, batch offset {start}"
            )
        total += loss * ib.size
        _backward_into(grads, weights, inputs, g, config.weight_decay)
        if not np.isfinite(grad).all():
            bad = next(nm for nm, gv in zip(names, grads) if not np.isfinite(gv).all())
            raise ValueError(f"non-finite gradient in tensor {bad}")
        velocity *= config.momentum
        velocity += grad
        theta -= lr * velocity
    opt_state.velocities = [v.copy() for v in _views(velocity, shapes)]
    new = [t.copy() for t in _views(theta, shapes)]
    return ModelParams(params.architecture, tuple(new[0::2]), tuple(new[1::2])), total / n


# The fewest rows of a predict block. Below 1,563 rows OpenBLAS switches its
# matrix-product kernel and the logits move in the last bits; with blocks of
# 2,000-3,999 rows they do not, and an MLP-64 block's hidden layer is 1-2 MB
# where the whole 10,000-row eval set's is 5.1 MB.
_PREDICT_ROWS = 2000


def predict(params: ModelParams, instances: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties go to the smallest index.

    The N rows go through the forward pass in max(1, N // 2000) near-equal,
    consecutive blocks (``_PREDICT_ROWS``), so each block holds 2,000-3,999
    rows and fewer than 4,000 rows are one block. Each block's argmax is
    written into one (N,) intp vector. That the blocks' logits equal one
    forward_logits call's bit for bit is tested on the preset shapes only:
    an MLP-64 on 2-d data with 10 classes, and linear models on 2-d data
    with 10 classes and on 1-d data with 2.
    """
    x = _instances(params, instances)
    n = x.shape[0]
    blocks = max(1, n // _PREDICT_ROWS)
    out = np.empty(n, dtype=np.intp)
    for i in range(blocks):
        rows = slice(i * n // blocks, (i + 1) * n // blocks)
        np.argmax(_logits(params, x[rows]), axis=1, out=out[rows])
    return out


def extract_features(params: ModelParams, instances: np.ndarray) -> np.ndarray:
    """Input of the final layer: hidden activations for the MLP, the raw
    instances for the linear model."""
    return _layer_inputs(params, instances)[-1]


def save_checkpoint(
    path, params: ModelParams, config_hash: str = "", seed: Optional[int] = None
) -> None:
    """Versioned npz checkpoint, parameter tensors stored as little-endian
    float64. Round-trips exactly."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "architecture": params.architecture,
        "layers": len(params.weights),
        "config_hash": config_hash,
        "seed": seed,
    }
    arrays = {name: t.astype("<f8") for name, t in params.tensors()}
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path) -> tuple:
    """Returns (params, meta dict)."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
        layers = meta["layers"]
        weights = tuple(data[f"W{i + 1}"] for i in range(layers))
        biases = tuple(data[f"b{i + 1}"] for i in range(layers))
    return ModelParams(meta["architecture"], weights, biases), meta
