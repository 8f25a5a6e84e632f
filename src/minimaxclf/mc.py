"""Monte Carlo validation of the worst-class identification probability and
the exponentiated-risk MSE.

Trials run in fixed-size chunks with chunk seeds derived from the master
seed, so results do not depend on how the chunks would be scheduled, and the
failure count is an exact integer reduction.

The per-class counts are those of ``Generator.binomial(N, p, size=(n, K))``,
drawn from the same stream, so every artifact is the one that call gives.
numpy draws a count by inversion (sequential search; Devroye, Non-Uniform
Random Variate Generation, 1986, ch. X) while N * min(p, 1 - p) <= 30: it
subtracts the point masses of 0, 1, 2, ... from one uniform until the next
mass exceeds what is left, and draws again past a bound it sets. The count
is then a step function of that uniform. Once per call, each class gets a
table of the uniforms at which the count steps, found by bisection over the
2**53 values ``next_double`` returns with numpy's recurrence replayed in
Python floats; a chunk reads each class's count with one ``searchsorted``.
The draws fall back to ``Generator.binomial`` itself for a chunk with a
uniform that numpy would reject and draw again, and for a whole call with a
class that numpy does not draw by inversion from one uniform: p = 0, which
draws no uniform, and N * min(p, 1 - p) > 30, drawn by BTPE. The tables
replay numpy's algorithm and the platform's ``exp`` and ``log``; the module
tests pin the counts to ``Generator.binomial``, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

_CHUNK = 1 << 14
MIN_TRIALS = 10_000
_Z95 = 1.959963984540054  # the z of a two-sided 95% normal interval
_INVERSION_MAX = 30.0  # numpy inverts while N * min(p, 1 - p) is at most this
_ULP = 2.0**-53  # next_double returns k * 2**-53 for an integer k < 2**53


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


def _check(probabilities: np.ndarray, n_samples: int, trials: int) -> np.ndarray:
    p = np.asarray(probabilities, dtype=np.float64)
    if not np.all((p >= 0) & (p <= 1)):  # NaN fails both comparisons
        raise ValueError("error probabilities must lie in [0, 1]")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a usable interval")
    return p


def _chunks(trials: int, master_seed: int):
    """Yield (n, generator) per chunk of at most ``_CHUNK`` trials; chunk i
    draws from ``SeedSequence([master_seed, i])``."""
    for i, start in enumerate(range(0, trials, _CHUNK)):
        seed = np.random.SeedSequence([master_seed, i])
        yield min(_CHUNK, trials - start), np.random.default_rng(seed)


def _inversion_masses(n: int, p: float) -> list:
    """The masses px_0 ... px_bound that numpy's inversion sampler subtracts
    from its uniform for p <= 1/2, in numpy's order of operations."""
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = [math.exp(n * math.log(q))]
    for x in range(1, bound + 1):
        px.append(((n - x + 1) * p * px[-1]) / (x * q))
    return px


def _threshold_tables(n: int, p: np.ndarray) -> Optional[list]:
    """Per class, ``(thresholds, flipped)``: entry X - 1 of ``thresholds``
    is the least uniform from which numpy's chain reaches the count X, and
    the last entry is the least one that numpy rejects. numpy draws the
    count of a class with p > 1/2 as N minus a draw at 1 - p (``flipped``).
    None when some class is not drawn by inversion from one uniform."""
    flipped = p > 0.5
    inner = np.where(flipped, 1.0 - p, p)
    if np.any(p == 0) or np.any(inner * n > _INVERSION_MAX):
        return None
    masses = [_inversion_masses(n, float(v)) for v in inner]
    # one bisection per (class, X) at once: column X - 1 of a class holds the
    # masses its chain must pass to reach X, padded with -inf, which passes
    width = max(map(len, masses))
    chains = np.array(
        [m[:x] + [-math.inf] * (width - x) for m in masses for x in range(1, len(m) + 1)]
    ).T
    lo = np.zeros(chains.shape[1], dtype=np.int64)  # 0 passes no mass, as px_0 > 0
    hi = np.full_like(lo, 1 << 53)  # the threshold 1 is never reached
    for _ in range(53):
        mid = (lo + hi) >> 1
        u = mid * _ULP
        passes = np.ones(mid.shape, dtype=bool)
        for px in chains:  # numpy's loop: compare, then subtract
            passes &= u > px
            u = u - px
        hi = np.where(passes, mid, hi)
        lo = np.where(passes, lo, mid)
    splits = np.cumsum([len(m) for m in masses])[:-1]
    return list(zip(np.split(hi * _ULP, splits), flipped))


def _inverted_counts(uniforms: np.ndarray, n: int, tables: list) -> Optional[np.ndarray]:
    """Counts, class-major, from the (K, trials) uniforms; None when numpy
    would reject one of them."""
    counts = np.empty(uniforms.shape, dtype=np.int64)
    for row, u, (thresholds, flipped) in zip(counts, uniforms, tables):
        x = np.searchsorted(thresholds, u, "right")
        if x.max() == thresholds.size:
            return None
        row[:] = n - x if flipped else x
    return counts


def _binomial(
    rng: np.random.Generator, n: int, p: np.ndarray, tables: Optional[list], size: int
) -> np.ndarray:
    """``rng.binomial(n, p, size=(size, K))`` transposed to (K, size), with
    ``rng`` left where that call leaves it."""
    if tables is not None:
        state = rng.bit_generator.state
        counts = _inverted_counts(np.ascontiguousarray(rng.random((size, p.size)).T), n, tables)
        if counts is not None:
            return counts
        rng.bit_generator.state = state  # numpy draws again: replay its own call
    return rng.binomial(n, p, size=(size, p.size)).T


def mc_worst_class_failure(
    error_vector, m_worst: int, n_samples: int, trials: int, master_seed: int
) -> McEstimate:
    """Fraction of trials in which the true worst class is missed by the
    M-worst selection, with a Wilson 95% interval.

    Each trial draws N Bernoulli outcomes per class, ranks the empirical
    rates, and breaks ties fairly at random (uniform jitter below the 1/N
    resolution of the estimates). The true worst class is missed when at
    least M classes have a strictly larger key; on an exact tie of keys,
    which needs equal counts and equal jitter draws, it is kept.
    """
    p = _check(error_vector, n_samples, trials)
    k = p.size
    if not (1 <= m_worst <= k):
        raise ValueError(f"m_worst must be in [1, {k}]")
    true_worst = int(np.argmax(p))
    tables = _threshold_tables(n_samples, p)
    failures = 0
    for n, rng in _chunks(trials, master_seed):
        counts = _binomial(rng, n_samples, p, tables, n)
        # integer counts differ by >= 1, so jitter in [0, 0.5) only breaks ties
        keyed = counts.T + 0.5 * rng.random((n, k))
        above = np.count_nonzero(keyed > keyed[:, [true_worst]], axis=1)
        failures += int(np.count_nonzero(above >= m_worst))
    rate = failures / trials
    lo, hi = _wilson_interval(failures, trials)
    se = math.sqrt(max(rate * (1 - rate), 1e-300) / trials)
    return McEstimate(rate, lo, hi, trials, se)


def mc_ega_mse(
    p_error: float, n_samples: int, trials: int, master_seed: int
) -> McEstimate:
    """Sample mean of (exp(P) - exp(Phat))^2 over seeded trials, with its
    standard error and a normal 95% interval."""
    p = _check(np.array([p_error]), n_samples, trials)
    target = math.exp(p[0])
    tables = _threshold_tables(n_samples, p)
    total = 0.0
    total_sq = 0.0
    for n, rng in _chunks(trials, master_seed):
        counts = _binomial(rng, n_samples, p, tables, n)[0]
        values = (target - np.exp(counts / n_samples)) ** 2
        total += float(values.sum())
        total_sq += float((values**2).sum())
    mean = total / trials
    variance = max(total_sq / trials - mean**2, 0.0)
    se = math.sqrt(variance / trials)
    return McEstimate(mean, mean - _Z95 * se, mean + _Z95 * se, trials, se)
