"""Exact analytic quantities behind the ascent-method comparison: the
probability that the worst class is identified from N-sample risk estimates,
the MSE of the exponentiated risk estimate, and the per-class summands of the
prior-dependent generalization bound.

Binomial masses are evaluated in log space via log-gamma so sample sizes up
to 10^4 stay stable. Both ranking probabilities come from one
Poisson-binomial recursion over the other classes (:func:`_rank_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log, log1p

import numpy as np

from .data import LabeledDataset
from .losses import GeneralizedLossSpec, softmax, tla_offsets
from .model import ModelParams, forward_logits
from .priors import Prior


def binomial_pmf(n_trials: int, p: float) -> np.ndarray:
    """Vector of Bin(k; n_trials, p) masses for k = 0..n_trials; the exact
    unit vector at p = 0 or 1."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if p in (0.0, 1.0):
        pmf = np.zeros(n_trials + 1)
        pmf[n_trials if p == 1.0 else 0] = 1.0
        return pmf
    k = np.arange(n_trials + 1)
    log_fact = np.array([lgamma(i + 1) for i in range(n_trials + 1)])  # log k!
    log_comb = log_fact[-1] - log_fact - log_fact[::-1]
    return np.exp(log_comb + k * log(p) + (n_trials - k) * log1p(-p))


def prob_greater(p_y: float, p_y2: float, n_samples: int) -> float:
    """Pr[Phat_y > Phat_y'] for independent N-sample estimates.

    Evaluated as sum_{i=0}^{N-1} sum_{n=1}^{N-i} Bin(i+n) Bin'(i): the second
    estimate lands at i/N and the first strictly above it.
    """
    pmf_y = binomial_pmf(n_samples, p_y)
    pmf_y2 = binomial_pmf(n_samples, p_y2)
    total = 0.0
    for i in range(n_samples):
        total += pmf_y2[i] * pmf_y[i + 1 :].sum()
    return float(total)


def prob_leq(p_y: float, p_y2: float, n_samples: int) -> float:
    """Pr[Phat_y <= Phat_y'], summed independently of :func:`prob_greater`:
    sum_{n=0}^{N} sum_{i=0}^{N-n} Bin(n) Bin'(n+i)."""
    pmf_y = binomial_pmf(n_samples, p_y)
    pmf_y2 = binomial_pmf(n_samples, p_y2)
    total = 0.0
    for n in range(n_samples + 1):
        total += pmf_y[n] * pmf_y2[n:].sum()
    return float(total)


def _check_error_vector(error_vector, m_worst: int) -> np.ndarray:
    """The error vector as a float array, in its given order."""
    p = np.asarray(error_vector, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("error vector must be 1-d with at least 2 classes")
    if np.any((p < 0) | (p > 1)):
        raise ValueError("error probabilities must lie in [0, 1]")
    if not (1 <= m_worst <= p.size):
        raise ValueError(f"m_worst must be in [1, {p.size}]")
    return p


def _rank_table(up, tied, below) -> np.ndarray:
    """The (K, K) table dp[B, T]: the probability that B of the K - 1 other
    classes rank strictly above the worst class and T tie with it, when
    other class j independently ranks above with probability up[j], ties
    with tied[j] and ranks below with below[j]."""
    k = len(up) + 1
    dp = np.zeros((k, k))
    dp[0, 0] = 1.0
    for u, t, b in zip(up, tied, below):
        new = dp * b
        new[1:, :] += dp[:-1, :] * u
        new[:, 1:] += dp[:, :-1] * t
        dp = new
    return dp


def prob_find_worst(error_vector, m_worst: int, n_samples: int) -> float:
    """Product-form value of the probability that the true worst class lands
    in the selected M worst classes, under the tie rule that always ranks it
    behind a tied class: each other class ties or beats the worst class's
    estimate with probability :func:`prob_leq`, as if the comparisons were
    independent. It is a lower bound only for M = 1 (see
    :func:`exact_find_worst_probability`). The vector may come in any order.
    """
    p = np.sort(_check_error_vector(error_vector, m_worst))[::-1]
    greater = np.array([prob_greater(p[0], q, n_samples) for q in p[1:]])
    leq = np.array([prob_leq(p[0], q, n_samples) for q in p[1:]])
    return float(_rank_table(leq, np.zeros_like(leq), greater)[:m_worst, 0].sum())


def exact_find_worst_probability(
    error_vector, m_worst: int, n_samples: int, tie_rule: str = "fair"
) -> float:
    """Exact probability that the true worst class lands in the selected M,
    computed by conditioning on the worst class's error count.

    Unlike :func:`prob_find_worst`, which multiplies the pairwise comparison
    probabilities as if they were independent, this accounts for their
    coupling through the worst class's shared estimate (conditioned on that
    count, the other classes' comparisons really are independent, so the
    recursion over (#strictly-greater, #tied) is exact).
    The product form understates the failure probability at large N, where
    the coupling dominates.

    ``tie_rule``: 'fair' resolves ties by a uniform random order,
    'adversarial' always ranks the worst class behind a tied class,
    'favorable' always ranks it ahead.
    """
    p = _check_error_vector(error_vector, m_worst)
    if tie_rule not in ("fair", "adversarial", "favorable"):
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    k = p.size
    worst = int(np.argmax(p))
    others = np.delete(p, worst)
    pmf_worst = binomial_pmf(n_samples, p[worst])
    pmf_others = np.array([binomial_pmf(n_samples, q) for q in others])
    # above[j, c]: P(other class j counts more than c errors)
    above = np.zeros_like(pmf_others)
    above[:, :-1] = np.cumsum(pmf_others[:, :0:-1], axis=1)[:, ::-1]
    # share[B, T]: P(the worst class is selected | B others strictly above it, T tied)
    b, t = np.ogrid[:k, :k]
    room = m_worst - b
    share = {"fair": np.clip(room / (t + 1), 0.0, 1.0), "adversarial": t < room,
             "favorable": room > 0}[tie_rule]
    total = 0.0
    for c in range(n_samples + 1):
        if pmf_worst[c] == 0.0:
            continue
        up, tied = above[:, c], pmf_others[:, c]
        total += pmf_worst[c] * (_rank_table(up, tied, 1.0 - up - tied) * share).sum()
    return float(total)


def ega_estimate_mse(p_error: float, n_samples: int) -> float:
    """MSE of exp(Phat) around exp(P) for an N-sample estimate: the
    expectation over every error count n = 0..N."""
    pmf = binomial_pmf(n_samples, p_error)
    n = np.arange(n_samples + 1)
    terms = pmf * (np.exp(p_error) - np.exp(n / n_samples)) ** 2
    return float(terms.sum())


@dataclass(frozen=True)
class BoundTerms:
    """Per-class pieces of the generalization bound at a target prior.

    ``summand`` is w_y * Delta_bar_y * sqrt(pi_train_y) * Psi_y for the
    evaluated loss spec. The paired fields compare the targeted-offset loss
    against the targeted-weight loss at the same prior: their bounds differ
    only by sqrt(pi_train_y) vs pi_y / sqrt(pi_train_y) and by the offsets
    inside Psi.
    """

    delta_bar: np.ndarray
    s_min: np.ndarray            # per-class min over samples of the true-class logit
    psi: np.ndarray
    summand: np.ndarray
    tla_psi: np.ndarray
    twce_psi: np.ndarray
    tla_prior_factor: np.ndarray    # sqrt(pi_train_y)
    twce_prior_factor: np.ndarray   # pi_y / sqrt(pi_train_y)
    tla_factor: np.ndarray          # tla_prior_factor * tla_psi
    twce_factor: np.ndarray         # twce_prior_factor * twce_psi


def bound_terms(
    spec: GeneralizedLossSpec,
    params: ModelParams,
    dataset: LabeledDataset,
    pi: Prior,
    tau: float = 1.0,
) -> BoundTerms:
    """Evaluate the computable bound summands on a trained model.

    For each class y, S_y is the minimum of f_y(x) over class-y samples and
    Psi_y = 1 - softmax_y of the adjusted logits at that minimizing sample.
    """
    counts = dataset.per_class_counts
    if np.any(counts < 1):
        missing = np.flatnonzero(counts < 1).tolist()
        raise ValueError(f"classes {missing} have no samples")
    k = dataset.class_count
    pi_train = dataset.train_prior()
    logits = forward_logits(params, dataset.instances)
    delta = spec.delta
    delta_bar = np.sqrt(delta**2 + (delta.sum() - delta) ** 2)

    s_min = np.empty(k)
    min_rows = np.empty((k, k))  # row y: full logit vector at class y's minimizer
    for y in range(k):
        idx = dataset.class_indices(y)
        j = idx[np.argmin(logits[idx, y])]
        s_min[y] = logits[j, y]
        min_rows[y] = logits[j]

    def psi_at(offsets: np.ndarray, mult: np.ndarray) -> np.ndarray:
        probs = softmax(mult * min_rows + offsets)
        return 1.0 - probs[np.arange(k), np.arange(k)]

    psi = psi_at(spec.ell, delta)
    summand = spec.weights * delta_bar * np.sqrt(pi_train.p) * psi

    ones = np.ones(k)
    tla_psi = psi_at(tla_offsets(pi_train, pi, tau), ones)
    twce_psi = psi_at(np.zeros(k), ones)
    tla_prior = np.sqrt(pi_train.p)
    twce_prior = pi.p / np.sqrt(pi_train.p)
    return BoundTerms(
        delta_bar=delta_bar,
        s_min=s_min,
        psi=psi,
        summand=summand,
        tla_psi=tla_psi,
        twce_psi=twce_psi,
        tla_prior_factor=tla_prior,
        twce_prior_factor=twce_prior,
        tla_factor=tla_prior * tla_psi,
        twce_factor=twce_prior * twce_psi,
    )
