"""Monte Carlo validation of the worst-class identification probability and
the exponentiated-risk MSE.

Trials run in fixed-size chunks with chunk seeds derived from the master
seed, so results do not depend on how the chunks would be scheduled, and the
failure count is an exact integer reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CHUNK = 1 << 14
MIN_TRIALS = 10_000
_Z95 = 1.959963984540054  # the z of a two-sided 95% normal interval


@dataclass(frozen=True)
class McEstimate:
    value: float
    ci_low: float
    ci_high: float
    trials: int
    standard_error: float


def _wilson_interval(successes: int, trials: int) -> tuple:
    p = successes / trials
    denom = 1.0 + _Z95**2 / trials
    center = (p + _Z95**2 / (2 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1 - p) / trials + _Z95**2 / (4 * trials**2)) / denom
    return center - half, center + half


def _check(probabilities: np.ndarray, trials: int) -> np.ndarray:
    p = np.asarray(probabilities, dtype=np.float64)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("error probabilities must lie in [0, 1]")
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a usable interval")
    return p


def _chunks(trials: int, master_seed: int):
    """Yield (n, generator) per chunk of at most ``_CHUNK`` trials; chunk i
    draws from ``SeedSequence([master_seed, i])``."""
    for i, start in enumerate(range(0, trials, _CHUNK)):
        seed = np.random.SeedSequence([master_seed, i])
        yield min(_CHUNK, trials - start), np.random.default_rng(seed)


def mc_worst_class_failure(
    error_vector, m_worst: int, n_samples: int, trials: int, master_seed: int
) -> McEstimate:
    """Fraction of trials in which the true worst class is missed by the
    M-worst selection, with a Wilson 95% interval.

    Each trial draws N Bernoulli outcomes per class, ranks the empirical
    rates, and breaks ties fairly at random (uniform jitter below the 1/N
    resolution of the estimates).
    """
    p = _check(error_vector, trials)
    k = p.size
    if not (1 <= m_worst <= k):
        raise ValueError(f"m_worst must be in [1, {k}]")
    true_worst = int(np.argmax(p))
    failures = 0
    for n, rng in _chunks(trials, master_seed):
        counts = rng.binomial(n_samples, p, size=(n, k)).astype(np.float64)
        # integer counts differ by >= 1, so jitter in [0, 0.5) only breaks ties
        keyed = counts + 0.5 * rng.random((n, k))
        top = np.argpartition(-keyed, m_worst - 1, axis=1)[:, :m_worst]
        failures += int(np.sum(~np.any(top == true_worst, axis=1)))
    rate = failures / trials
    lo, hi = _wilson_interval(failures, trials)
    se = math.sqrt(max(rate * (1 - rate), 1e-300) / trials)
    return McEstimate(rate, lo, hi, trials, se)


def mc_ega_mse(
    p_error: float, n_samples: int, trials: int, master_seed: int
) -> McEstimate:
    """Sample mean of (exp(P) - exp(Phat))^2 over seeded trials, with its
    standard error and a normal 95% interval."""
    p = float(_check(np.array([p_error]), trials)[0])
    target = math.exp(p)
    total = 0.0
    total_sq = 0.0
    for n, rng in _chunks(trials, master_seed):
        counts = rng.binomial(n_samples, p, size=n)
        values = (target - np.exp(counts / n_samples)) ** 2
        total += float(values.sum())
        total_sq += float((values**2).sum())
    mean = total / trials
    variance = max(total_sq / trials - mean**2, 0.0)
    se = math.sqrt(variance / trials)
    return McEstimate(mean, mean - _Z95 * se, mean + _Z95 * se, trials, se)
