"""A small differentiable classifier (linear softmax or one-hidden-layer MLP)
trained by SGD with momentum, decoupled weight decay, linear warmup and step
decay. No autodiff framework: forward and backward are written out once for
a stack of dense layers with ReLU between them; the architecture name only
sets the layer widths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import LabeledDataset
from .losses import GeneralizedLossSpec, loss_and_grad

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


def _layer_inputs(params: ModelParams, instances: np.ndarray) -> list:
    """The input of every layer: the instances, then each hidden activation."""
    x = np.asarray(instances, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise ValueError(f"instances must be (N, {params.dim}), got {x.shape}")
    inputs = [x]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = inputs[-1] @ w + b
        np.maximum(h, 0.0, out=h)  # in place: the pre-activation is not kept
        inputs.append(h)
    return inputs


def forward_logits(params: ModelParams, instances: np.ndarray) -> np.ndarray:
    return _layer_inputs(params, instances)[-1] @ params.weights[-1] + params.biases[-1]


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
    grads = []
    for i in reversed(range(len(params.weights))):
        w = params.weights[i]
        grads[:0] = [inputs[i].T @ g + 2.0 * weight_decay * w, g.sum(axis=0)]
        if i > 0:
            # ReLU passes the gradient where its output is positive
            g = (g @ w.T) * (inputs[i] > 0.0)
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


def sgd_step(
    params: ModelParams, opt_state: OptimizerState, grads: list, config: TrainConfig
) -> ModelParams:
    """v <- momentum v + g; theta <- theta - lr_t v. Mutates opt_state."""
    tensors = params.tensors()
    if len(grads) != len(tensors):
        raise ValueError(f"expected {len(tensors)} gradient tensors, got {len(grads)}")
    lr = lr_schedule(max(opt_state.epoch, 1), config)
    new = []
    for i, ((name, t), g) in enumerate(zip(tensors, grads)):
        if g.shape != t.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient in tensor {name}")
        opt_state.velocities[i] = config.momentum * opt_state.velocities[i] + g
        new.append(t - lr * opt_state.velocities[i])
    return ModelParams(params.architecture, tuple(new[0::2]), tuple(new[1::2]))


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
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    opt_state.epoch += 1
    rng = np.random.default_rng([config.seed, opt_state.epoch])
    order = rng.permutation(len(dataset))
    x = dataset.instances[order]
    y = dataset.labels[order]
    total = 0.0
    for start in range(0, len(dataset), config.batch_size):
        xb = x[start : start + config.batch_size]
        yb = y[start : start + config.batch_size]
        loss, g = loss_and_grad(spec, forward_logits(params, xb), yb)
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"non-finite loss {loss} at epoch {opt_state.epoch}, batch offset {start}"
            )
        total += loss * len(yb)
        grads = backward(params, xb, g, weight_decay=config.weight_decay)
        params = sgd_step(params, opt_state, grads, config)
    return params, total / len(dataset)


def predict(params: ModelParams, instances: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties go to the smallest index."""
    return np.argmax(forward_logits(params, instances), axis=1)


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
