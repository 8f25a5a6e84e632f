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
rejection holds a sentinel. A chunk reads its counts with one gather per
block of ``_ROWS`` rows, and then replays the uniforms that hit a sentinel,
every block and class at once; a uniform that numpy would reject is found
there. Such a chunk, and a whole call with a class that numpy does not
invert from one uniform (p = 0 draws none, and N * min(p, 1 - p) > 30 is
BTPE), fall back to ``Generator.binomial``. The
masses replay numpy's recurrence and the platform's ``exp`` and ``log``;
the module tests pin the counts to ``Generator.binomial``, bit for bit.

Drawing a chunk's uniforms, and then its jitter, a block at a time reads
the same stream as one draw of the whole chunk. The blocks bound the memory
of a call, so that the curve points can run side by side on threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CHUNK = 1 << 14
_ROWS = 1 << 13  # rows of a chunk drawn per block: the working set of a call
MIN_TRIALS = 10_000
# The analytic curve point costs time and memory linear in N: on a 2-vCPU VM
# a `theory` or `mc` run of one point at 10**6 takes about 3.5 s and 266 MB.
# The cap also keeps every count inside the int32 guide and lookup scratch.
MAX_SAMPLE_SIZE = 10**6
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
    ``rng`` left where that call leaves it. The guide is built once, a class
    at a time, and the counts of every chunk go to one (_CHUNK, K) buffer of
    the narrowest unsigned dtype that holds N."""

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
        starts = np.arange(_GUIDE) / _GUIDE
        edges = np.r_[starts, starts + (1 / _GUIDE - 2.0**-53)]
        self.guide = np.empty((p.size, _GUIDE), dtype=np.int32)
        for c, masses in enumerate(self.masses):
            first, last = np.split(_replay(edges, masses), 2)
            count = n - first if self.flipped[c] else first
            self.guide[c] = np.where((first != last) | (last == self.lengths[c]), -1, count)
        self.guide = self.guide.ravel()
        self.offsets = np.arange(0, self.guide.size, _GUIDE, dtype=np.int32)
        self.counts = np.empty((_CHUNK, p.size), dtype=np.min_scalar_type(n))

    def __call__(self, rng: np.random.Generator, size: int, uniforms: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
        """The (size, K) counts of one chunk. Its uniforms are drawn a block
        at a time into ``uniforms`` and looked up in the int32 ``scratch``,
        both (_ROWS, K) buffers whose contents are spent once this returns."""
        if self.masses is not None:
            state = rng.bit_generator.state
            counts = self.counts[:size]
            k = self.p.size
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
            misses = np.concatenate(misses)
            classes = misses % k
            x = _replay(np.concatenate(missed), self.masses[classes])
            if not np.any(x == self.lengths[classes]):
                counts.flat[misses] = np.where(self.flipped[classes], self.n - x, x)
                return counts
            rng.bit_generator.state = state  # numpy draws again: replay its own call
        return rng.binomial(self.n, self.p, size=(size, self.p.size))


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
