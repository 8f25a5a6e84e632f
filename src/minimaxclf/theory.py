"""Exact analytic quantities behind the ascent-method comparison: the
probability that the worst class is identified from N-sample risk estimates,
the MSE of the exponentiated risk estimate, and the per-class summands of the
prior-dependent generalization bound.

Binomial masses are evaluated in log space via log-gamma so sample sizes up
to 10^4 stay stable. Every ranking probability reads one table of each
class's masses and upper tails, and both worst-class probabilities run one
Poisson-binomial recursion (:func:`_rank_table`). The product form's failure
is its own tail: the ranks past M, summed, not one minus the success.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, log, log1p

import numpy as np

from .data import LabeledDataset
from .losses import GeneralizedLossSpec, softmax, tla_offsets
from .model import ModelParams, forward_logits
from .priors import Prior


@lru_cache(maxsize=4)
def _log_comb(n_trials: int) -> np.ndarray:
    """log C(n_trials, k) for k = 0..n_trials, from one log-gamma table. The
    rows of the last few N are kept, read-only, so that the analytic curve
    point and the Monte Carlo samplers at one N share one log-gamma loop."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    log_fact = np.array([lgamma(i + 1) for i in range(n_trials + 1)])  # log k!
    row = log_fact[-1] - log_fact - log_fact[::-1]
    row.flags.writeable = False
    return row


def _pmf(log_comb: np.ndarray, p: float) -> np.ndarray:
    """Bin(k; N, p) for k = 0..N from the row ``_log_comb(N)``; the exact
    unit vector at p = 0 or 1."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    n_trials = log_comb.size - 1
    if p in (0.0, 1.0):
        pmf = np.zeros(n_trials + 1)
        pmf[n_trials if p == 1.0 else 0] = 1.0
        return pmf
    k = np.arange(n_trials + 1)
    # scalar logs: numpy's array log can differ from math.log in the last bit
    return np.exp(log_comb + k * log(p) + (n_trials - k) * log1p(-p))


def binomial_pmf(n_trials: int, p: float) -> np.ndarray:
    """Vector of Bin(k; n_trials, p) masses for k = 0..n_trials; the exact
    unit vector at p = 0 or 1."""
    return _pmf(_log_comb(n_trials), p)


# A curve point's time and memory grow linearly in N: at 10**6, on a 2-vCPU VM,
# an `mc` run of one point at 10**5 trials takes about 1.1 s and 219 MB, a
# `theory` run 0.8 s and 218 MB (wall clock and peak RSS of the whole command).
MAX_SAMPLE_SIZE = 10**6


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value, high: int) -> None:
    """A ``ValueError`` naming ``name`` unless ``value`` is an integer, not
    a bool nor an integral float, in [1, ``high``]."""
    if not (_is_int(value) and 1 <= value <= high):
        raise ValueError(f"{name} must be in [1, {high}], got {value!r}")


def _binomial_tails(p, n_samples: int) -> tuple:
    """(pmf, tail) of shape (len(p), N + 1): pmf[j, c] is Bin(c; N, p[j])
    and tail[j, c] = P(count_j > c), each tail summed from its top count.
    The classes share one row of log binomial coefficients."""
    _check_count("n_samples", n_samples, MAX_SAMPLE_SIZE)
    log_comb = _log_comb(n_samples)
    pmf = np.array([_pmf(log_comb, q) for q in p])
    tail = np.zeros_like(pmf)
    np.cumsum(pmf[:, :0:-1], axis=1, out=tail[:, -2::-1])
    return pmf, tail


def prob_greater(p_y: float, p_y2: float, n_samples: int) -> float:
    """Pr[Phat_y > Phat_y'] for independent N-sample estimates:
    sum_c Bin'(c) P(count_y > c)."""
    pmf, tail = _binomial_tails([p_y, p_y2], n_samples)
    return float(pmf[1] @ tail[0])


def prob_leq(p_y: float, p_y2: float, n_samples: int) -> float:
    """Pr[Phat_y <= Phat_y'], summed independently of :func:`prob_greater`:
    sum_c Bin(c) P(count_y' >= c)."""
    pmf, tail = _binomial_tails([p_y, p_y2], n_samples)
    return float(pmf[0] @ (pmf[1] + tail[1]))


def _check_error_vector(error_vector) -> np.ndarray:
    """The error vector as a float array, sorted worst first."""
    p = np.asarray(error_vector, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("error vector must be 1-d with at least 2 classes")
    if not np.all((p >= 0) & (p <= 1)):  # NaN fails both comparisons
        raise ValueError("error probabilities must lie in [0, 1]")
    return np.sort(p)[::-1]


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


def product_form_ranks(error_vector, n_samples: int) -> np.ndarray:
    """Product-form distribution of the true worst class's rank: entry B is
    the probability that B of the other classes tie or beat its estimate,
    each with probability :func:`prob_leq`, as if the comparisons were
    independent. The vector may come in any order."""
    pmf, tail = _binomial_tails(_check_error_vector(error_vector), n_samples)
    greater = pmf[1:] @ tail[0]
    # in place, with no (K - 1, N + 1) temporary: tail[1:] becomes P(count_j >= c)
    leq = np.add(pmf[1:], tail[1:], out=tail[1:]) @ pmf[0]
    return _rank_table(leq, np.zeros_like(leq), greater)[:, 0]


def prob_find_worst(error_vector, m_worst: int, n_samples: int) -> float:
    """Product-form value of the probability that the true worst class lands
    in the selected M worst classes, under the tie rule that always ranks it
    behind a tied class: the first M entries of :func:`product_form_ranks`.
    It is a lower bound only for M = 1 (see :func:`exact_find_worst_probability`)."""
    ranks = product_form_ranks(error_vector, n_samples)
    _check_count("m_worst", m_worst, ranks.size)
    return float(ranks[:m_worst].sum())


def exact_find_worst_probability(
    error_vector, m_worst: int, n_samples: int, tie_rule: str = "fair"
) -> float:
    """Exact probability that the true worst class lands in the selected M,
    computed by conditioning on the worst class's error count.

    Unlike :func:`prob_find_worst`, which multiplies the pairwise comparison
    probabilities as if they were independent, this accounts for their
    coupling through the worst class's shared estimate: given that count,
    the other classes' comparisons are independent, so the recursion over
    (#strictly-greater, #tied) is exact. The product form understates the
    failure probability at large N, where the coupling dominates.

    ``tie_rule``: 'fair' resolves ties by a uniform random order,
    'adversarial' always ranks the worst class behind a tied class,
    'favorable' always ranks it ahead.
    """
    pmf, tail = _binomial_tails(_check_error_vector(error_vector), n_samples)
    k = len(pmf)
    _check_count("m_worst", m_worst, k)
    if tie_rule not in ("fair", "adversarial", "favorable"):
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    # share[B, T]: P(the worst class is selected | B others strictly above it, T tied)
    b, t = np.ogrid[:k, :k]
    room = m_worst - b
    share = {"fair": np.clip(room / (t + 1), 0.0, 1.0), "adversarial": t < room,
             "favorable": room > 0}[tie_rule]
    total = 0.0
    for c in range(n_samples + 1):
        if pmf[0, c] == 0.0:
            continue
        up, tied = tail[1:, c], pmf[1:, c]
        total += pmf[0, c] * (_rank_table(up, tied, 1.0 - up - tied) * share).sum()
    return float(total)


def ega_estimate_mse(p_error: float, n_samples: int) -> float:
    """MSE of exp(Phat) around exp(P) for an N-sample estimate: the
    expectation over every error count n = 0..N."""
    _check_count("n_samples", n_samples, MAX_SAMPLE_SIZE)
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
