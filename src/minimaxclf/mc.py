"""Monte Carlo validation of the worst-class identification probability and
the exponentiated-risk MSE.

Trials run in fixed-size chunks with chunk seeds derived from the master
seed, so results do not depend on how the chunks would be scheduled, and the
failure count is an exact integer reduction.

Each count is the inverse CDF at one uniform u, the least c with F(c) >= u,
where F is one minus ``theory._binomial_tails`` at min(p, 1 - p); for
p > 1/2 the count is N minus that, as numpy flips it. F(N) = 1 exactly, so
every uniform reaches a count. A guide table over u (indexed search; Chen
and Asau, 1974; Devroye, Non-Uniform Random Variate Generation, 1986,
ch. III.3), 2**12 buckets per class, holds a bucket's count where its first
and last uniform search to it and a sentinel elsewhere; a chunk gathers its
counts a block of ``_ROWS`` rows at a time, then searches F for the
uniforms that hit a sentinel.

Where ``Generator.binomial`` inverts too (p > 0 and N * min(p, 1 - p) <= 30,
as on every preset), it reads the same uniforms and stops at the same steps
of F, so the counts and the stream after them are its own; only a uniform
within rounding of a step could differ, and the module tests, for stated
seeds, find none. Elsewhere (BTPE, and p = 0, where numpy draws no uniform)
the counts share only its distribution.

Drawing a chunk's uniforms, and then its jitter, a block at a time reads
the same stream as one draw of the whole chunk. The blocks bound the memory
of a call, so that the curve points can run side by side on threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .theory import _binomial_tails

_CHUNK = 1 << 14
_ROWS = 1 << 13  # rows of a chunk drawn per block: the working set of a call
MIN_TRIALS = 10_000
# A curve point's time and memory grow linearly in N: at 10**6, on a 2-vCPU VM,
# an `mc` run of one point takes about 1.6 s and 250 MB, a `theory` run 1.1 s
# and 218 MB (wall clock and peak RSS of the whole command). The cap also
# keeps every count inside the int32 guide.
MAX_SAMPLE_SIZE = 10**6
_Z95 = 1.959963984540054  # the z of a two-sided 95% normal interval
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
    if not 1 <= n_samples <= MAX_SAMPLE_SIZE:
        raise ValueError(f"n_samples must be in [1, {MAX_SAMPLE_SIZE}], got {n_samples}")
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a usable interval")
    return p


class Stopped(Exception):
    """Raised in place of the next chunk once the caller's stop event is set."""


def _chunks(trials: int, master_seed: int, stop=None):
    """Yield (n, generator) per chunk of at most ``_CHUNK`` trials; chunk i
    draws from ``SeedSequence([master_seed, i])``. ``stop``, a
    ``threading.Event`` or None, is read once per chunk: once it is set, the
    next chunk raises ``Stopped``."""
    for i, start in enumerate(range(0, trials, _CHUNK)):
        if stop is not None and stop.is_set():
            raise Stopped(f"stopped before chunk {i}")
        seed = np.random.SeedSequence([master_seed, i])
        yield min(_CHUNK, trials - start), np.random.default_rng(seed)


def _blocks(n: int):
    """The row slices of a chunk of n rows, ``_ROWS`` at a time."""
    return [slice(start, min(start + _ROWS, n)) for start in range(0, n, _ROWS)]


def _buffer(k: int, dtype=np.float64) -> np.ndarray:
    """A (_ROWS, K) array that every block of a call reuses, sliced to the
    block's rows. Fresh arrays per block go back to the system when freed,
    and every block would fault their pages in again; a block, not a chunk,
    bounds what a call holds while other calls run beside it."""
    return np.empty((_ROWS, k), dtype=dtype)


class _Binomial:
    """Binomial(N, p) counts of K classes for the chunks of one call, into
    one (_CHUNK, K) buffer of the narrowest unsigned dtype that holds N."""

    def __init__(self, n: int, p: np.ndarray):
        self.n, self.flipped = n, p > 0.5
        self.cdf = _binomial_tails(np.minimum(p, 1.0 - p), n)[1]
        np.subtract(1.0, self.cdf, out=self.cdf)
        # each bucket's first uniform b / _GUIDE, then its last, 2**-53 below the next
        starts = np.arange(_GUIDE) / _GUIDE
        edges = np.r_[starts, starts + (1 / _GUIDE - 2.0**-53)]
        self.guide = np.empty(p.size * _GUIDE, dtype=np.int32)
        for c, row in enumerate(np.split(self.guide, p.size)):
            first, last = np.split(self._count(c, edges), 2)
            row[:] = np.where(first != last, -1, first)
        self.offsets = np.arange(0, self.guide.size, _GUIDE, dtype=np.int32)
        self.counts = np.empty((_CHUNK, p.size), dtype=np.min_scalar_type(n))

    def _count(self, c: int, u: np.ndarray) -> np.ndarray:
        """The counts of class c at the uniforms u, flipped where p > 1/2."""
        x = self.cdf[c].searchsorted(u)
        return self.n - x if self.flipped[c] else x

    def __call__(self, rng: np.random.Generator, size: int, uniforms: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
        """The (size, K) counts of one chunk. Its uniforms are drawn a block
        at a time into ``uniforms`` and looked up in the int32 ``scratch``,
        both (_ROWS, K) buffers whose contents are spent once this returns."""
        counts = self.counts[:size]
        k = self.offsets.size
        misses, missed = [], []  # the flat places of sentinel hits, and their uniforms
        for rows in _blocks(size):
            u = rng.random(out=uniforms[: rows.stop - rows.start])
            index = scratch[: len(u)]
            # u * _GUIDE is exact, as u = k * 2**-53; the class offsets are
            # added as integers, since a float sum can round up across a
            # bucket edge
            np.multiply(u, _GUIDE, out=index, casting="unsafe")
            index += self.offsets
            # take copies the int32 indices to intp before it writes, so
            # the counts can overwrite them; every index is in range
            self.guide.take(index, out=index, mode="clip")
            hit = np.flatnonzero(index < 0)
            misses.append(hit + rows.start * k)
            missed.append(u.flat[hit])
            counts[rows] = index  # a sentinel's place is written below
        misses, missed = np.concatenate(misses), np.concatenate(missed)
        classes = misses % k
        for c in range(k):  # np.unique would import numpy.ma, about 1 MB
            at = classes == c
            counts.flat[misses[at]] = self._count(c, missed[at])
        return counts


def mc_worst_class_failure(
    error_vector, m_worst: int, n_samples: int, trials: int, master_seed: int, stop=None
) -> McEstimate:
    """Fraction of trials in which the true worst class is missed by the
    M-worst selection, with a Wilson 95% interval.

    Each trial draws N Bernoulli outcomes per class, ranks the empirical
    rates, and breaks ties fairly at random (uniform jitter below the 1/N
    resolution of the estimates). The true worst class is missed when at
    least M classes have a strictly larger key; on an exact tie of keys,
    which needs equal counts and equal jitter draws, it is kept. A set
    ``stop`` event raises ``Stopped`` at the next chunk.
    """
    p = _check(error_vector, n_samples, trials)
    k = p.size
    if not (1 <= m_worst <= k):
        raise ValueError(f"m_worst must be in [1, {k}]")
    true_worst = int(np.argmax(p))
    binomial = _Binomial(n_samples, p)
    uniforms, scratch, ones = _buffer(k), _buffer(k, np.int32), np.ones(k, np.float32)
    larger = scratch.view(np.float32)  # free once a chunk's counts are drawn
    failures = 0
    for n, rng in _chunks(trials, master_seed, stop):
        counts = binomial(rng, n, uniforms, scratch)
        for rows in _blocks(n):
            # integer counts differ by >= 1, so jitter in [0, 0.5) only breaks ties
            keyed = rng.random(out=uniforms[: rows.stop - rows.start])
            keyed *= 0.5
            keyed += counts[rows]
            # 1 where a key is larger; a row sum of at most K < 2**24 ones is exact
            above = np.greater(keyed, keyed[:, [true_worst]], out=larger[: len(keyed)]) @ ones
            failures += int(np.count_nonzero(above >= m_worst))
    rate = failures / trials
    lo, hi = _wilson_interval(failures, trials)
    se = math.sqrt(max(rate * (1 - rate), 1e-300) / trials)
    return McEstimate(rate, lo, hi, trials, se)


def mc_ega_mse(
    p_error: float, n_samples: int, trials: int, master_seed: int, stop=None
) -> McEstimate:
    """Sample mean of (exp(P) - exp(Phat))^2 over seeded trials, with its
    standard error and a normal 95% interval. A set ``stop`` event raises
    ``Stopped`` at the next chunk."""
    p = _check(np.array([p_error]), n_samples, trials)
    target = math.exp(p[0])
    binomial = _Binomial(n_samples, p)
    uniforms, scratch = _buffer(1), _buffer(1, np.int32)
    total = 0.0
    total_sq = 0.0
    for n, rng in _chunks(trials, master_seed, stop):
        counts = binomial(rng, n, uniforms, scratch)[:, 0]
        values = (target - np.exp(counts / n_samples)) ** 2
        total += float(values.sum())
        total_sq += float((values**2).sum())
    mean = total / trials
    variance = max(total_sq / trials - mean**2, 0.0)
    se = math.sqrt(variance / trials)
    return McEstimate(mean, mean - _Z95 * se, mean + _Z95 * se, trials, se)
