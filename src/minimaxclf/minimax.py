"""The three-phase min-max training loop: warmup on the model split, minimax
epochs alternating one training pass with one prior-ascent step driven by
held-out risks, then fine-tuning on the full data with the final prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .ascent import (
    EGA,
    LINEAR_ASCENT,
    AscentState,
    ClassRisks,
    ascent_step,
    estimate_class_risks,
)
from .data import LabeledDataset, partition_dataset
from .losses import (
    GeneralizedLossSpec,
    deferred_reweighting_weights,
    spec_from_variant,
)
from .metrics import per_class_accuracies
from .model import (
    ModelParams,
    TrainConfig,
    init_optimizer,
    init_params,
    train_epoch,
)
from .priors import Prior

WARMUP = "warmup"
MINIMAX = "minimax"
FINETUNE = "finetune"

DEFAULT_ALPHA = {LINEAR_ASCENT: 0.01, EGA: 0.1}


@dataclass(frozen=True)
class AscentConfig:
    method: str = LINEAR_ASCENT
    alpha: Optional[float] = None   # None resolves to the method default
    m_worst: int | str = 1          # "auto": auto_m(risks) at each step
    tie_seed: int = 0

    def resolved_alpha(self) -> float:
        return DEFAULT_ALPHA[self.method] if self.alpha is None else self.alpha


@dataclass(frozen=True)
class MinimaxConfig:
    warmup_epochs: int = 5          # T0
    minimax_epochs: int = 95        # T1
    finetune_epochs: int = 20       # T2
    loss_variant: str = "TLA"
    tau: float = 1.0
    gamma: float = 0.15
    drw_epoch: Optional[int] = None  # switch to effective-number weights after this epoch
    ascent: AscentConfig = field(default_factory=AscentConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    model_fraction: float = 0.8
    partition_seed: int = 0
    init_seed: int = 0
    architecture: str = "linear"
    hidden_width: int = 64
    fixed_target: Optional[tuple] = None  # freeze the target prior, no ascent

    def __post_init__(self) -> None:
        if min(self.warmup_epochs, self.minimax_epochs, self.finetune_epochs) < 0:
            raise ValueError("phase epoch counts must be nonnegative")
        if not (0.0 < self.model_fraction < 1.0):
            raise ValueError("model_fraction must be in (0, 1)")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    phase: str
    mean_loss: float
    prior: Prior                     # target prior used for this epoch's updates
    risks: ClassRisks                # on the prior split
    worst_class: Optional[int]
    worst_class_acc: Optional[float]
    balanced_acc: Optional[float]


@dataclass(frozen=True)
class RunReport:
    records: list
    final_prior: Prior
    params: ModelParams
    train_prior: Prior
    train_counts: np.ndarray
    config: MinimaxConfig
    final_worst_class: Optional[int] = None
    final_worst_class_acc: Optional[float] = None
    final_balanced_acc: Optional[float] = None


def _loss_spec(
    config: MinimaxConfig, pi_train: Prior, pi_target: Prior, counts, epoch: int
) -> GeneralizedLossSpec:
    spec = spec_from_variant(
        config.loss_variant,
        pi_train,
        pi_target,
        counts=counts,
        tau=config.tau,
        gamma=config.gamma,
    )
    if config.drw_epoch is not None and epoch > config.drw_epoch:
        spec = spec.with_weights(deferred_reweighting_weights(counts))
    return spec


def _evaluate(params: ModelParams, eval_set: Optional[LabeledDataset]) -> tuple:
    """(worst class, its accuracy, balanced accuracy) from one prediction of
    the eval set; all None without one."""
    if eval_set is None:
        return None, None, None
    acc = per_class_accuracies(params, eval_set)
    worst = int(np.argmin(acc))
    return worst, float(acc[worst]), float(acc.mean())


def run_minimax(
    config: MinimaxConfig,
    dataset: LabeledDataset,
    eval_set: Optional[LabeledDataset] = None,
) -> RunReport:
    """Run the full three-phase loop and record every epoch.

    The target prior starts at the training prior (or ``fixed_target``); it
    moves only during the minimax phase, one ascent step per epoch, computed
    from risks on the held-out prior split after that epoch's training pass.
    """
    split = partition_dataset(dataset, config.model_fraction, config.partition_seed)
    pi_train = dataset.train_prior()
    counts = dataset.per_class_counts
    if config.fixed_target is not None:
        target = Prior(np.asarray(config.fixed_target, dtype=np.float64))
    else:
        target = pi_train

    params = init_params(
        config.architecture,
        dataset.dim,
        dataset.class_count,
        seed=config.init_seed,
        hidden_width=config.hidden_width,
    )
    opt_state = init_optimizer(params)
    alpha = config.ascent.resolved_alpha()
    ascent_state = None  # the prior stays frozen at the target
    if config.fixed_target is None and alpha > 0:
        ascent_state = AscentState(
            prior=target,
            method=config.ascent.method,
            alpha=alpha,
            m_worst=config.ascent.m_worst,
            tie_rng=np.random.default_rng(config.ascent.tie_seed),
        )

    phases = (
        [WARMUP] * config.warmup_epochs
        + [MINIMAX] * config.minimax_epochs
        + [FINETUNE] * config.finetune_epochs
    )
    records = []
    for epoch, phase in enumerate(phases, start=1):
        prior_used = target
        spec = _loss_spec(config, pi_train, prior_used, counts, epoch)
        # fine-tuning trains on the full data, the earlier phases on the model split
        data = dataset if phase == FINETUNE else split.model_part
        try:
            params, loss = train_epoch(params, opt_state, data, spec, config.train)
        except Exception as err:
            raise RuntimeError(f"{phase} epoch {epoch} failed: {err}") from err
        risks = estimate_class_risks(params, split.prior_part)
        if phase == MINIMAX and ascent_state is not None:
            ascent_step(ascent_state, risks)
            target = ascent_state.prior
        records.append(
            EpochRecord(epoch, phase, loss, prior_used, risks, *_evaluate(params, eval_set))
        )

    if records:  # the last epoch evaluated the final parameters already
        last = records[-1]
        final = (last.worst_class, last.worst_class_acc, last.balanced_acc)
    else:  # no epochs: the initial parameters are the final ones
        final = _evaluate(params, eval_set)
    final_worst, final_worst_acc, final_bal = final
    return RunReport(
        records=records,
        final_prior=target,
        params=params,
        train_prior=pi_train,
        train_counts=counts,
        config=config,
        final_worst_class=final_worst,
        final_worst_class_acc=final_worst_acc,
        final_balanced_acc=final_bal,
    )


def swap_components(config: MinimaxConfig) -> dict:
    """The four {loss} x {ascent} ablation configs sharing every seed.

    When the ascent method flips, an explicitly set alpha is dropped so each
    method runs at its own default step size.
    """
    out = {}
    for variant in ("TLA", "TWCE"):
        for method in (LINEAR_ASCENT, EGA):
            ascent = replace(
                config.ascent,
                method=method,
                alpha=config.ascent.alpha if method == config.ascent.method else None,
            )
            out[(variant, method)] = replace(config, loss_variant=variant, ascent=ascent)
    return out
