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
Python floats. A guide table over the uniform (indexed search; Chen and
Asau, 1974; Devroye 1986, ch. III.3) then splits [0, 1) into 2**12 buckets
per class and stores the count of every bucket that holds no step: a chunk
reads a count with one gather at ``floor(u * 2**12) + class * 2**12``, the
class offset added as an integer. A bucket with a step inside it, or one that
reaches numpy's rejection, holds a sentinel, and its uniforms are read with
a ``searchsorted`` of the class's thresholds; that is where a uniform that
numpy would reject and draw again is found. A chunk with such a uniform, and
a whole call with a class that numpy does not draw by inversion from one
uniform (p = 0, which draws no uniform, and N * min(p, 1 - p) > 30, drawn by
BTPE), fall back to ``Generator.binomial`` itself. The tables replay numpy's
algorithm and the platform's ``exp`` and ``log``; the module tests pin the
counts to ``Generator.binomial``, bit for bit.
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
_GUIDE = 1 << 12  # buckets per class of the guide table over the uniform


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


def _buffer(k: int, dtype=np.float64) -> np.ndarray:
    """A (_CHUNK, K) array that every chunk of a call reuses, sliced to the
    chunk's rows. Fresh arrays of that size per chunk go back to the system
    when freed, and every chunk would fault their pages in again."""
    return np.empty((_CHUNK, k), dtype=dtype)


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


def _guide_table(n: int, tables: list) -> np.ndarray:
    """The flat (K * _GUIDE) guide over the uniform. Entry ``class * _GUIDE +
    b`` holds the count of that class for every uniform in
    [b, b + 1) / _GUIDE, the flip applied, or -1 where a step lies strictly
    inside the bucket or the bucket reaches the rejection threshold. The
    thresholds are multiples of 2**-53, as the uniforms are, so the last
    uniform of a bucket counts the thresholds strictly below its right edge."""
    edges = np.arange(_GUIDE + 1) / _GUIDE
    guide = np.empty((len(tables), _GUIDE), dtype=np.intp)
    for row, (thresholds, flipped) in zip(guide, tables):
        first = np.searchsorted(thresholds, edges[:-1], "right")
        last = np.searchsorted(thresholds, edges[1:], "left")
        row[:] = np.where(
            (first != last) | (last == thresholds.size), -1, n - first if flipped else first
        )
    return guide.ravel()


def _inverted_counts(
    uniforms: np.ndarray, n: int, tables: list, guide: np.ndarray, out=None
) -> Optional[np.ndarray]:
    """Counts from the (trials, K) uniforms: one guide entry each, and a
    ``searchsorted`` of the class's thresholds where the entry is -1. None
    when numpy would reject one of the uniforms. ``out`` is an optional intp
    buffer of the uniforms' shape."""
    counts = np.empty(uniforms.shape, dtype=np.intp) if out is None else out
    # u * _GUIDE is exact, as u = k * 2**-53 and _GUIDE is a power of two; the
    # class offsets are added as integers, since a float sum can round up
    # across a bucket edge
    np.multiply(uniforms, _GUIDE, out=counts, casting="unsafe")
    counts += np.arange(0, guide.size, _GUIDE)
    # take reads each index before it writes that place, so the counts can
    # overwrite the bucket indices; every index is in range
    guide.take(counts, out=counts, mode="clip")
    misses = np.flatnonzero(counts < 0)
    classes = misses % len(tables)
    for c in np.unique(classes):
        at = misses[classes == c]
        thresholds, flipped = tables[c]
        x = np.searchsorted(thresholds, uniforms.flat[at], "right")
        if x.max() == thresholds.size:
            return None
        counts.flat[at] = n - x if flipped else x
    return counts


class _Binomial:
    """``rng.binomial(n, p, size=(size, K))`` for the chunks of one call, with
    ``rng`` left where that call leaves it. The tables are built once, and
    the counts of every chunk go to one buffer."""

    def __init__(self, n: int, p: np.ndarray):
        self.n, self.p = n, p
        self.tables = _threshold_tables(n, p)
        if self.tables is not None:
            self.guide = _guide_table(n, self.tables)
            self.counts = _buffer(p.size, np.intp)

    def __call__(self, rng: np.random.Generator, uniforms: np.ndarray) -> np.ndarray:
        """The counts of one chunk, whose (size, K) uniforms are drawn into
        the buffer ``uniforms``; they are spent once this returns."""
        if self.tables is not None:
            size = len(uniforms)
            state = rng.bit_generator.state
            counts = _inverted_counts(
                rng.random(out=uniforms), self.n, self.tables, self.guide, self.counts[:size]
            )
            if counts is not None:
                return counts
            rng.bit_generator.state = state  # numpy draws again: replay its own call
        return rng.binomial(self.n, self.p, size=uniforms.shape)


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
    binomial = _Binomial(n_samples, p)
    uniforms, larger, ones = _buffer(k), _buffer(k, np.float32), np.ones(k, np.float32)
    failures = 0
    for n, rng in _chunks(trials, master_seed):
        counts = binomial(rng, uniforms[:n])
        # integer counts differ by >= 1, so jitter in [0, 0.5) only breaks ties
        keyed = rng.random(out=uniforms[:n])
        keyed *= 0.5
        keyed += counts
        # 1 where a key is larger; a row sum of at most K < 2**24 ones is exact
        above = np.greater(keyed, keyed[:, [true_worst]], out=larger[:n]) @ ones
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
    binomial = _Binomial(n_samples, p)
    uniforms = _buffer(1)
    total = 0.0
    total_sq = 0.0
    for n, rng in _chunks(trials, master_seed):
        counts = binomial(rng, uniforms[:n])[:, 0]
        values = (target - np.exp(counts / n_samples)) ** 2
        total += float(values.sum())
        total_sq += float((values**2).sum())
    mean = total / trials
    variance = max(total_sq / trials - mean**2, 0.0)
    se = math.sqrt(variance / trials)
    return McEstimate(mean, mean - _Z95 * se, mean + _Z95 * se, trials, se)
