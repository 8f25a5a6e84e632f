"""Minimax training for class-imbalanced classification, with Bayes-oracle
verification on Gaussian benchmarks."""

__version__ = "0.1.0"

from .ascent import (
    AscentState,
    ClassRisks,
    ega_step,
    estimate_class_risks,
    linear_ascent_step,
    worst_m_indicator,
)
from .data import (
    ImbalanceProfile,
    LabeledDataset,
    MixtureSpec,
    SplitDataset,
    circle_mixture,
    load_csv_dataset,
    make_imbalance_counts,
    partition_dataset,
    sample_mixture,
    save_csv_dataset,
    three_gaussians_1d,
    two_gaussians_1d,
)
from .losses import (
    GeneralizedLossSpec,
    batch_loss,
    batch_loss_gradient,
    loss_and_grad,
    spec_from_variant,
    tla_offsets,
)
from .mc import mc_ega_mse, mc_worst_class_failure
from .metrics import inter_intra_ratio
from .minimax import AscentConfig, MinimaxConfig, RunReport, run_minimax, swap_components
from .model import (
    ModelParams,
    TrainConfig,
    backward,
    extract_features,
    forward_logits,
    init_optimizer,
    init_params,
    lr_schedule,
    predict,
    sgd_step,
    train_epoch,
)
from .oracle import (
    BayesOracle,
    adversarial_prior_search,
    bayes_class_risks,
    bayes_predict,
    bayes_total_risk,
)
from .priors import Prior, project_to_simplex
from .theory import (
    bound_terms,
    ega_estimate_mse,
    exact_find_worst_probability,
    prob_find_worst,
    prob_greater,
    prob_leq,
)
