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
mass exceeds what is left, and draws again past a bound it sets. ``_replay``
runs that loop on arrays of uniforms; it is the one model of the sampler.
Each step, a comparison and then a rounded subtraction, is monotone in the
uniform. So a guide table over the uniform (indexed search; Chen and Asau,
1974; Devroye 1986, ch. III.3), 2**12 buckets per class, replays only each
bucket's first and last uniform: a bucket whose ends reach the same count
holds that count throughout, and one whose ends differ or reach numpy's
rejection holds a sentinel. A chunk reads each count with one gather and
replays the uniforms that hit a sentinel, every class at once; a uniform
that numpy would reject is found there. Such a chunk, and a whole call with
a class that numpy does not invert from one uniform (p = 0 draws none, and
N * min(p, 1 - p) > 30 is BTPE), fall back to ``Generator.binomial``. The
masses replay numpy's recurrence and the platform's ``exp`` and ``log``;
the module tests pin the counts to ``Generator.binomial``, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CHUNK = 1 << 14
MIN_TRIALS = 10_000
_Z95 = 1.959963984540054  # the z of a two-sided 95% normal interval
_INVERSION_MAX = 30.0  # numpy inverts while N * min(p, 1 - p) is at most this
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


def _replay(u: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """numpy's inversion loop on many uniforms at once: the count each one
    reaches, or its chain's length where numpy draws again. The last axis of
    ``masses`` is the chain, padded with +inf; the others broadcast with ``u``."""
    alive = np.ones(np.broadcast_shapes(u.shape, masses.shape[:-1]), dtype=bool)
    count = np.zeros(alive.shape, dtype=np.intp)
    for px in np.moveaxis(masses, -1, 0):  # numpy's loop: compare, then subtract
        alive &= u > px
        if not alive.any():
            break
        count += alive
        u = u - px
    return count


class _Binomial:
    """``rng.binomial(n, p, size=(size, K))`` for the chunks of one call, with
    ``rng`` left where that call leaves it. The guide is built once, and the
    counts of every chunk go to one buffer."""

    def __init__(self, n: int, p: np.ndarray):
        self.n, self.p = n, p
        # numpy draws the count of a class with p > 1/2 as N minus a draw at 1 - p
        self.flipped = p > 0.5
        inner = np.where(self.flipped, 1.0 - p, p)
        self.masses = None
        if np.any(p == 0) or np.any(inner * n > _INVERSION_MAX):
            return  # some class is not drawn by inversion from one uniform
        chains = [_inversion_masses(n, float(v)) for v in inner]
        self.lengths = np.array([len(c) for c in chains])
        self.masses = np.array([c + [np.inf] * (max(self.lengths) - len(c)) for c in chains])
        # each bucket's first uniform b / _GUIDE, then its last, 2**-53 below the next
        first = np.arange(_GUIDE) / _GUIDE
        ends = _replay(np.r_[first, first + (1 / _GUIDE - 2.0**-53)], self.masses[:, None, :])
        first, last = ends[:, :_GUIDE], ends[:, _GUIDE:]
        count = np.where(self.flipped[:, None], n - first, first)
        self.guide = np.where((first != last) | (last == self.lengths[:, None]), -1, count).ravel()
        self.counts = _buffer(p.size, np.intp)

    def __call__(self, rng: np.random.Generator, uniforms: np.ndarray) -> np.ndarray:
        """The counts of one chunk, whose (size, K) uniforms are drawn into
        the buffer ``uniforms``; they are spent once this returns."""
        if self.masses is not None:
            state = rng.bit_generator.state
            u = rng.random(out=uniforms)
            counts = self.counts[: len(u)]
            # u * _GUIDE is exact, as u = k * 2**-53; the class offsets are added
            # as integers, since a float sum can round up across a bucket edge
            np.multiply(u, _GUIDE, out=counts, casting="unsafe")
            counts += np.arange(0, self.guide.size, _GUIDE)
            # take reads each index before it writes that place, so the counts
            # can overwrite the bucket indices; every index is in range
            self.guide.take(counts, out=counts, mode="clip")
            misses = np.flatnonzero(counts < 0)
            classes = misses % self.p.size
            x = _replay(u.flat[misses], self.masses[classes])
            if not np.any(x == self.lengths[classes]):
                counts.flat[misses] = np.where(self.flipped[classes], self.n - x, x)
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
