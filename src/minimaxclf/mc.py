"""Monte Carlo validation of the worst-class identification probability and
the exponentiated-risk MSE.

Trials run in fixed-size chunks with chunk seeds derived from the master
seed, so results do not depend on how the chunks are scheduled, and the
failure count is an exact integer reduction.

Each count is the inverse CDF at one uniform u, the least c with F(c) >= u,
where F is one minus ``theory._binomial_tails`` at min(p, 1 - p); for
p > 1/2 the count is N minus that, as numpy flips it. F(N) = 1 exactly, so
every uniform reaches a count. A guide table over u (indexed search; Chen
and Asau, 1974; Devroye, Non-Uniform Random Variate Generation, 1986,
ch. III.3), 2**12 buckets per class, holds a bucket's count where its first
and last uniform search to it and a sentinel elsewhere; the uniforms that
hit a sentinel are searched in the CDF, every class in one search.

Where ``Generator.binomial`` inverts too (p > 0 and N * min(p, 1 - p) <= 30,
as on every preset), it reads the same uniforms and stops at the same steps
of F, so the counts and the stream after them are its own; only a uniform
within rounding of a step could differ, and the module tests, for stated
seeds, find none. Elsewhere (BTPE, and p = 0, where numpy draws no uniform)
the counts share only its distribution.

One pass over the chunks serves every sample size of a curve (common random
numbers). Chunk i reads ``SeedSequence([master_seed, i])``: its first n * K
values are the (n, K) uniforms, the next n * K the rank jitter, whatever N
is. The pass draws both a block of ``_ROWS`` rows at a time, the jitter from
a second generator advanced past the uniforms, and computes each block's
query keys and guide indices once; every size gathers its own counts from
them. The MSE reads the chunk's first n uniforms, as a one-class draw of n
counts would. A size reads the stream it would read alone, so no estimate
depends on which sizes share a pass (``size_groups`` keeps the N + 1 of a
pass's sizes to a sum of at most ``MAX_SAMPLE_SIZE + 1``, the tables of one
point at the cap), and ``McCurve.tally`` over consecutive chunk ranges, on
any number of threads, gives the same bits as one range: the failures are
integers, and the MSE sums are added chunk by chunk in chunk order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .theory import _binomial_tails

_CHUNK = 1 << 14
_ROWS = 1 << 11  # rows of a chunk drawn per block: the working set of a pass
MIN_TRIALS = 10_000
# A curve point's time and memory grow linearly in N: at 10**6, on a 2-vCPU VM,
# an `mc` run of one point at 10**5 trials takes about 1.1 s and 219 MB, a
# `theory` run 0.8 s and 218 MB (wall clock and peak RSS of the whole command).
MAX_SAMPLE_SIZE = 10**6
_Z95 = 1.959963984540054  # the z of a two-sided 95% normal interval
_GUIDE = 1 << 12  # buckets per class of the guide table over the uniform
_UNIT = 1 << 53  # a uniform is k / 2**53 for an integer k < 2**53
_BUCKET_BITS = 53 - 12  # a uniform's guide bucket is k >> 41
# class c's CDF keys fill [c * 2**53, (c + 1) * 2**53), inside int64
MAX_CLASSES = 1 << 10


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


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check(error_vector, m_worst, n_samples, trials) -> np.ndarray:
    """The error vector as float64, once every argument meets the config's
    rule; a ``ValueError`` naming the argument otherwise."""
    p = np.asarray(error_vector)
    if p.ndim != 1 or not 2 <= p.size <= MAX_CLASSES or p.dtype.kind not in "iuf":
        raise ValueError(f"error_vector must be a 1-d vector of 2 to {MAX_CLASSES} probabilities")
    p = p.astype(np.float64)
    if not np.all((p >= 0) & (p <= 1)):  # NaN fails both comparisons
        raise ValueError("error probabilities must lie in [0, 1]")
    if not (_is_int(m_worst) and 1 <= m_worst <= p.size):
        raise ValueError(f"m_worst must be in [1, {p.size}], got {m_worst!r}")
    for n in n_samples:
        if not (_is_int(n) and 1 <= n <= MAX_SAMPLE_SIZE):
            raise ValueError(f"n_samples must be in [1, {MAX_SAMPLE_SIZE}], got {n!r}")
    if not (_is_int(trials) and trials >= MIN_TRIALS):
        raise ValueError(f"trials must be an integer of at least {MIN_TRIALS} for a usable "
                         f"interval, got {trials!r}")
    return p


class Stopped(Exception):
    """Raised in place of the next chunk once the caller's stop event is set."""


class _Table:
    """The inverse CDF of Binomial(N, p) for each class: the guide table,
    and the CDF as integer keys that one search reads for every class.

    A uniform u = k / 2**53 of class c is read as its query key
    ``c * 2**53 + k``, and its guide index is that key's top bits,
    ``c * 2**12`` plus its bucket."""

    def __init__(self, n: int, p: np.ndarray):
        self.n = n
        keys = _binomial_tails(np.minimum(p, 1.0 - p), n)[1]
        np.subtract(1.0, keys, out=keys)
        # F(x) >= k / 2**53 exactly where ceil(F(x) * 2**53) >= k. Clipped
        # to [-1, 2**53 - 1], F(N) = 1 stays above every uniform and an F a
        # rounding below 0 below every one, and class c's keys, offset by
        # c * 2**53, sort after those of the classes before it
        keys *= _UNIT
        np.ceil(keys, out=keys)
        np.clip(keys, -1, _UNIT - 1, out=keys)
        self.keys = keys.view(np.int64).reshape(-1)
        for c, row in enumerate(keys):  # in place: the table is K * (N + 1) words
            self.keys[c * (n + 1) : (c + 1) * (n + 1)] = row.astype(np.int64) + c * _UNIT
        # place x of the flat table is count x - c (N + 1) of class c, N minus
        # that where p > 1/2
        flipped = p > 0.5
        self.sign = np.where(flipped, -1, 1)
        self.shift = np.where(flipped, n, 0) - self.sign * np.arange(p.size) * (n + 1)
        # a bucket holds a count where its first uniform, b * 2**41, and its
        # last, 2**41 - 1 above that, search to the same count
        first = np.arange(_GUIDE, dtype=np.int64) << _BUCKET_BITS
        self.guide = np.empty((p.size, _GUIDE), np.int32)
        for c, row in enumerate(self.guide):
            low = self._search(first + c * _UNIT)
            high = self._search(first + (c * _UNIT + (1 << _BUCKET_BITS) - 1))
            row[:] = np.where(low == high, low, -1)
        self.guide = self.guide.reshape(-1)

    def _search(self, query: np.ndarray) -> np.ndarray:
        """The counts at the uniforms of query keys ``query``."""
        classes = query >> 53
        x = self.keys.searchsorted(query)
        return x * self.sign[classes] + self.shift[classes]

    def lookup(self, index: np.ndarray, query: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The int32 counts at the uniforms of guide indices ``index`` and
        query keys ``query``, into ``out``: three contiguous arrays of one
        shape."""
        # out, not a temporary: with mode "raise", take would buffer its output
        self.guide.take(index, out=out, mode="clip")
        hit = np.flatnonzero(out < 0)
        if hit.size:
            out.flat[hit] = self._search(query.reshape(-1)[hit])
        return out


def _query(uniforms: np.ndarray, classes, out: np.ndarray, index: np.ndarray) -> tuple:
    """The query keys of the uniforms of ``classes`` (an integer, or an
    array that broadcasts against them) into ``out``, and their guide
    indices into ``index``."""
    # u * 2**53 is the exact integer k; the class goes into the bits above it
    np.multiply(uniforms, _UNIT, out=out, casting="unsafe")
    out |= classes << 53
    return out, np.right_shift(out, _BUCKET_BITS, out=index)


def size_groups(n_samples) -> list:
    """The sample sizes in order, split into the groups one pass each
    serves: a group holds tables of at most ``MAX_SAMPLE_SIZE + 1`` counts
    per class, as one curve point at the cap does."""
    groups, held = [], 0
    for n in n_samples:
        if not groups or held + n + 1 > MAX_SAMPLE_SIZE + 1:
            groups.append([])
            held = 0
        groups[-1].append(n)
        held += n + 1
    return groups


class McCurve:
    """The Monte Carlo pass over the trials for the sample sizes
    ``n_samples``: the failure of the M-worst selection to keep the true
    worst class, and the MSE of the exponentiated estimate of the largest
    error, at each size. ``tally`` runs the pass over a range of chunks and
    only reads the tables, so ranges can run on threads side by side;
    ``estimates`` adds up the tallies of consecutive ranges."""

    def __init__(self, error_vector, m_worst: int, n_samples, trials: int, master_seed: int):
        self.p = _check(error_vector, m_worst, n_samples, trials)
        self.m_worst, self.trials, self.master_seed = m_worst, trials, master_seed
        self.worst = int(np.argmax(self.p))
        self.tables = [_Table(n, self.p) for n in n_samples]
        self.chunks = range(-(-trials // _CHUNK))

    def tally(self, chunks: range, stop=None) -> tuple:
        """Per sample size, the failures over ``chunks``; per chunk and
        size, the sum of the squared errors and of their squares. ``stop``,
        a ``threading.Event`` or None, is read once per chunk: once it is
        set, the next chunk raises ``Stopped``."""
        k, worst, tables = self.p.size, self.worst, self.tables
        # at M = K the true worst class is always selected: no rank is drawn
        ranked = self.m_worst < k
        # a block holds the first _CHUNK values of a chunk, those the MSE reads
        block = max(_ROWS, -(-_CHUNK // k))
        # keyed holds a block's uniforms, then its jitter, then each size's keys
        keyed, half = np.empty((2, block * k))
        query, index = np.empty((2, block * k), np.int64)
        counts, ones = np.empty(block * k, np.int32), np.ones(k, np.float32)
        classes = np.arange(k)[:, None]
        target = math.exp(self.p[worst])
        failures, sums = [0] * len(tables), np.empty((len(chunks), len(tables), 2))
        for at, i in enumerate(chunks):
            if stop is not None and stop.is_set():
                raise Stopped(f"stopped before chunk {i}")
            n = min(_CHUNK, self.trials - i * _CHUNK)
            seed = np.random.SeedSequence([self.master_seed, i])
            rng = np.random.Generator(np.random.PCG64(seed))
            ranks = np.random.Generator(np.random.PCG64(seed).advance(n * k))
            rows = n if ranked else -(-n // k)  # the MSE alone reads n values
            for start in range(0, rows, block):
                r = min(block, rows - start)
                u = rng.random(out=keyed[: r * k].reshape(r, k))
                # the MSE at every size from the chunk's first n uniforms, each
                # sum one sum() over the chunk's values, as a one-class draw's
                if start == 0:
                    q, idx = _query(u.reshape(-1)[:n], worst, query[:n], index[:n])
                    for s, table in enumerate(tables):
                        values = np.divide(table.lookup(idx, q, counts[:n]), table.n, out=half[:n])
                        np.exp(values, out=values)
                        np.subtract(target, values, out=values)
                        np.square(values, out=values)
                        total = values.sum()
                        sums[at, s] = total, np.square(values, out=values).sum()
                if not ranked:
                    continue
                # class by class, (K, r): the rank test compares whole rows
                q, idx = _query(u.T, classes, query[: r * k].reshape(k, r),
                                index[: r * k].reshape(k, r))
                jitter = ranks.random(out=keyed[: r * k].reshape(r, k))
                # integer counts differ by >= 1, so jitter in [0, 0.5) only breaks ties
                h = np.multiply(jitter.T, 0.5, out=half[: r * k].reshape(k, r))
                for s, table in enumerate(tables):
                    c = table.lookup(idx, q, counts[: r * k].reshape(k, r))
                    key = np.add(h, c, out=keyed[: r * k].reshape(k, r))
                    # 1 where a key is larger, in the spent counts' words; a sum of
                    # at most K < 2**24 ones is exact
                    above = ones @ np.greater(key, key[worst], out=c.view(np.float32))
                    failures[s] += int(np.count_nonzero(above >= self.m_worst))
        return failures, sums

    def estimates(self, tallies: list) -> list:
        """The (failure, MSE) estimates at each sample size from the tallies
        of consecutive chunk ranges that cover every chunk, in chunk order.
        The MSE sums are added chunk by chunk in that order, so no bit
        depends on how the chunks were split."""
        trials, out = self.trials, []
        sums = np.concatenate([chunk_sums for _, chunk_sums in tallies])
        for s in range(len(self.tables)):
            failures = sum(tally[0][s] for tally in tallies)
            rate = failures / trials
            lo, hi = _wilson_interval(failures, trials)
            se = math.sqrt(max(rate * (1 - rate), 1e-300) / trials)
            total = total_sq = 0.0
            for value, square in sums[:, s].tolist():
                total += value
                total_sq += square
            mean = total / trials
            mse_se = math.sqrt(max(total_sq / trials - mean**2, 0.0) / trials)
            out.append((McEstimate(rate, lo, hi, trials, se),
                        McEstimate(mean, mean - _Z95 * mse_se, mean + _Z95 * mse_se, trials, mse_se)))
        return out


def mc_curve(error_vector, m_worst: int, n_samples, trials: int, master_seed: int,
             thread_map, parts: int = 1) -> list:
    """The (failure, MSE) estimates at each sample size of ``n_samples``
    from one pass over the chunks, split into at most ``parts`` consecutive
    chunk ranges. ``thread_map(fn, ranges)`` returns ``fn(chunks, stop)``
    of each range, in order, as ``cli._thread_map`` does. The pass's tables
    go when it returns."""
    curve = McCurve(error_vector, m_worst, n_samples, trials, master_seed)
    chunks = curve.chunks
    parts = min(len(chunks), parts)
    ranges = [chunks[len(chunks) * i // parts : len(chunks) * (i + 1) // parts]
              for i in range(parts)]
    return curve.estimates(thread_map(curve.tally, ranges))


def _one_size(error_vector, m_worst, n_samples, trials, master_seed, stop) -> tuple:
    def in_turn(fn, ranges):
        return [fn(chunks, stop) for chunks in ranges]

    return mc_curve(error_vector, m_worst, [n_samples], trials, master_seed, in_turn)[0]


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
    return _one_size(error_vector, m_worst, n_samples, trials, master_seed, stop)[0]


def mc_ega_mse(
    p_error: float, n_samples: int, trials: int, master_seed: int, stop=None
) -> McEstimate:
    """Sample mean of (exp(P) - exp(Phat))^2 over seeded trials, with its
    standard error and a normal 95% interval: the MSE of a pass over the
    two classes (p_error, 0), whose worst class is p_error. A set ``stop``
    event raises ``Stopped`` at the next chunk."""
    return _one_size([p_error, 0.0], 2, n_samples, trials, master_seed, stop)[1]
