import functools
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimaxclf import mc
from minimaxclf.mc import (
    _CHUNK,
    _GUIDE,
    _ROWS,
    MAX_SAMPLE_SIZE,
    McEstimate,
    Stopped,
    _Binomial,
    _buffer,
    _chunks,
    _inversion_masses,
    _replay,
    _wilson_interval,
    mc_ega_mse,
    mc_worst_class_failure,
)
from minimaxclf.theory import (
    ega_estimate_mse,
    exact_find_worst_probability,
    prob_find_worst,
)

ERROR_VECTOR = np.array([0.75, 0.67, 0.86, 0.96, 0.89, 0.06, 0.03, 0.05, 0.02, 0.03])


class TestWorstClassFailure:
    def test_certain_worst_never_fails(self):
        vec = np.array([1.0, 0.0, 0.0])
        est = mc_worst_class_failure(vec, 1, 4, trials=10_000, master_seed=0)
        assert est.value == 0.0

    def test_two_class_exact_value(self):
        # enumerated with fair ties: failure = 1 - (0.4 + 0.5 * 0.5) = 0.35
        est = mc_worst_class_failure(np.array([0.8, 0.5]), 1, 1, trials=200_000, master_seed=1)
        assert abs(est.value - 0.35) < 4 * est.standard_error

    def test_matches_exact_conditioning_oracle(self):
        # the conditioning recursion is the true value of the simulated
        # selection; the MC must agree at every grid point
        for n in (2, 4, 8, 16, 32, 64):
            est = mc_worst_class_failure(ERROR_VECTOR, 3, n, trials=100_000, master_seed=2)
            exact = 1.0 - exact_find_worst_probability(ERROR_VECTOR, 3, n, "fair")
            assert abs(est.value - exact) <= 4 * est.standard_error + 1e-9, n

    def test_fair_failure_dominated_by_adversarial(self):
        for n in (2, 8, 32):
            est = mc_worst_class_failure(ERROR_VECTOR, 3, n, trials=50_000, master_seed=3)
            adv_fail = 1.0 - exact_find_worst_probability(ERROR_VECTOR, 3, n, "adversarial")
            assert est.value <= adv_fail + 3 * est.standard_error

    def test_product_bound_holds_at_small_n(self):
        # the independence approximation is a valid failure upper bound in
        # the small-sample region; its breakdown at larger N is recorded in
        # the acceptance suite
        sorted_vec = np.sort(ERROR_VECTOR)[::-1]
        for n in (2, 4, 8):
            est = mc_worst_class_failure(ERROR_VECTOR, 3, n, trials=50_000, master_seed=3)
            bound = 1.0 - prob_find_worst(sorted_vec, 3, n)
            assert est.value <= bound + 3 * est.standard_error

    def test_deterministic(self):
        a = mc_worst_class_failure(ERROR_VECTOR, 3, 4, trials=20_000, master_seed=9)
        b = mc_worst_class_failure(ERROR_VECTOR, 3, 4, trials=20_000, master_seed=9)
        assert a == b

    def test_wilson_interval_brackets_value(self):
        est = mc_worst_class_failure(ERROR_VECTOR, 3, 4, trials=20_000, master_seed=5)
        assert est.ci_low <= est.value <= est.ci_high

    def test_trial_floor(self):
        with pytest.raises(ValueError, match="trials"):
            mc_worst_class_failure(ERROR_VECTOR, 3, 4, trials=100, master_seed=0)


class TestEgaMseMc:
    def test_degenerate_zero(self):
        est = mc_ega_mse(0.0, 8, trials=10_000, master_seed=0)
        assert est.value == 0.0

    def test_matches_exact_two_point_case(self):
        est = mc_ega_mse(0.5, 1, trials=200_000, master_seed=4)
        assert abs(est.value - 0.782399536886) <= 3 * est.standard_error

    def test_agreement_across_grid(self):
        for n in (2, 8, 64):
            for p in (0.1, 0.5, 0.9):
                est = mc_ega_mse(p, n, trials=50_000, master_seed=6)
                exact = ega_estimate_mse(p, n)
                assert abs(est.value - exact) <= 4 * est.standard_error + 1e-12

    def test_standard_error_scaling(self):
        small = mc_ega_mse(0.5, 4, trials=50_000, master_seed=7)
        large = mc_ega_mse(0.5, 4, trials=200_000, master_seed=7)
        # doubling trials twice should halve the SE within 20%
        assert abs(large.standard_error / small.standard_error - 0.5) < 0.1

    def test_deterministic(self):
        a = mc_ega_mse(0.3, 8, trials=20_000, master_seed=11)
        b = mc_ega_mse(0.3, 8, trials=20_000, master_seed=11)
        assert a == b


def _draw(binomial, rng, size):
    """``size`` rows of counts from ``rng``, drawn by consecutive chunks of
    at most ``_CHUNK`` rows, which read the stream as one call of ``size``
    rows does."""
    k = binomial.p.size
    uniforms, scratch = _buffer(k), _buffer(k, np.int32)
    sizes = [min(_CHUNK, size - start) for start in range(0, size, _CHUNK)]
    return np.concatenate([binomial(rng, n, uniforms, scratch).copy() for n in sizes])


def _assert_matches_numpy(n, p, seed, size=64):
    """The table sampler gives Generator.binomial's counts, and leaves its
    generator where that call leaves an identically seeded one."""
    p = np.asarray(p, dtype=np.float64)
    reference, sampled = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference.binomial(n, p, size=(size, p.size))
    assert np.array_equal(_draw(_Binomial(n, p), sampled, size), expected)
    assert np.array_equal(sampled.random(5), reference.random(5))


def _numpy_loop(u, masses):
    """A scalar copy of numpy's random_binomial_inversion for one uniform over
    the chain px_0 ... px_bound; None where numpy would draw again."""
    x, px, bound = 0, masses[0], len(masses) - 1
    while u > px:
        x += 1
        if x > bound:
            return None
        u -= px
        px = masses[x]
    return x


class _FixedUniforms:
    """A stand-in generator whose ``random`` gives the next rows of fixed
    uniforms and whose ``binomial``, the sampler's fallback on a rejected
    uniform, gives None."""

    def __init__(self, uniforms):
        self.uniforms, self.drawn = uniforms, 0
        self.bit_generator = types.SimpleNamespace(state=None)

    def random(self, out):
        out[...] = self.uniforms[self.drawn : self.drawn + len(out)]
        self.drawn += len(out)
        return out

    def binomial(self, n, p, size):
        return None


def _lookup(binomial, uniforms):
    """The sampler's counts of one chunk of (trials, K) uniforms, or None
    where it falls back to numpy."""
    k = uniforms.shape[1]
    return binomial(_FixedUniforms(uniforms), len(uniforms), _buffer(k), _buffer(k, np.int32))


class _Spy:
    """A generator that records the sizes of its ``binomial`` calls, the
    sampler's fallback."""

    def __init__(self, rng):
        self.rng, self.bit_generator, self.fallbacks = rng, rng.bit_generator, []

    def random(self, out):
        return self.rng.random(out=out)

    def binomial(self, n, p, size):
        self.fallbacks.append(size)
        return self.rng.binomial(n, p, size=size)


_ULP = 2.0**-53  # uniforms are k * 2**-53 for integers k < 2**53
_EDGES = np.arange(_GUIDE + 1) / _GUIDE  # bucket edges, 1.0 included
_LAST = _EDGES[1:] - _ULP  # each bucket's last uniform


@functools.lru_cache(maxsize=1024)
def _numpy_reads(masses):
    """numpy's loop over the chain ``masses``, a tuple, at every bucket edge,
    the grid point below it, and within 4 grid points of every partial sum
    of the masses, where the count steps; a dict from uniform to count.
    Cached, as shrinking a failing example keeps most of its chains."""
    sums = np.round(np.cumsum(masses) / _ULP)[:, None] + np.arange(-4, 5)
    u = np.unique(np.concatenate([sums.ravel() * _ULP, _EDGES, _LAST]))
    return {v: _numpy_loop(v, masses) for v in u[(u >= 0) & (u < 1)].tolist()}


class TestSampler:
    """The counts are numpy's, bit for bit, and so is the stream after them."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 200),
        p=st.lists(
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.5, 1.0, 1e-12, 0.97])),
            min_size=2, max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_generator_binomial(self, n, p, seed):
        _assert_matches_numpy(n, p, seed)

    @pytest.mark.parametrize(
        "n, p, inverted",
        [(60, [0.5, 0.2], True),  # N p = 30: still inversion
         (8, [0.9, 1.0, 1e-12, 0.3], True),
         (61, [0.5, 0.2], False),  # N p > 30: BTPE
         (8, [0.0, 0.3], False),  # p = 0 draws no uniform
         (100, [0.0, 0.5, 0.02, 0.995], False)],  # both, next to inverted classes
        ids=["np-30", "flipped-and-edges", "btpe", "p-zero", "p-zero-and-btpe"],
    )
    def test_path_and_stream(self, n, p, inverted):
        assert (_Binomial(n, np.array(p)).masses is not None) == inverted
        # a block and 7 rows; a full chunk of two blocks; that chunk, then 7 rows
        for size in (_ROWS + 7, _CHUNK, 2 * _ROWS + 7):
            for seed in (0, 1):
                _assert_matches_numpy(n, p, seed, size=size)

    @pytest.mark.parametrize("n, p", [(2, 0.5), (16, 0.06), (64, 0.33), (64, 0.96), (200, 0.1)])
    def test_thresholds_are_the_steps_of_numpy_loop(self, n, p):
        # the replay steps from one count to the next, or to a rejection, at
        # the uniforms where numpy's loop does: those near every partial sum
        # of the masses, and every bucket edge and the grid point below it
        masses = _inversion_masses(n, min(p, 1.0 - p))
        reads = _numpy_reads(tuple(masses))
        expected = [len(masses) if x is None else x for x in reads.values()]
        assert _replay(np.array(list(reads)), np.array(masses)).tolist() == expected

    def test_rejected_uniform_replays_numpy(self):
        # a chain without its last mass makes a uniform past the others' sum
        # one that numpy would reject, so its chunk must come from
        # Generator.binomial; at seed 0 the first such uniform of class 1 is
        # in the second block of the first chunk
        n, p, seed = 8, np.array([0.3, 0.7, 0.1]), 0
        chains = [_inversion_masses(n, q) for q in (0.3, 1.0 - 0.7, 0.1)]
        chains[1] = chains[1][:-1]
        uniforms = np.random.default_rng(seed).random((_CHUNK, 3))[:, 1]
        rejected = [i for i, u in enumerate(uniforms) if _numpy_loop(u, chains[1]) is None]
        assert _ROWS <= rejected[0] < 2 * _ROWS
        with mock.patch.object(mc, "_inversion_masses", side_effect=chains):
            binomial = _Binomial(n, p)
        for size in (_CHUNK, 2 * _ROWS + 7):
            reference, sampled = np.random.default_rng(seed), _Spy(np.random.default_rng(seed))
            expected = reference.binomial(n, p, size=(size, 3))
            assert np.array_equal(_draw(binomial, sampled, size), expected)
            assert sampled.fallbacks[0] == (_CHUNK, 3)
            assert np.array_equal(sampled.rng.random(5), reference.random(5))


# masses of a drawn chain: anywhere in [0, 1], multiples of 2**-12 whose steps
# land on bucket edges, tiny ones that pack steps into one bucket, and heads
# that leave less than a bucket below 1, so that what follows falls in the last
_MASS = st.one_of(
    st.floats(0.0, 1.0),
    st.integers(1, _GUIDE).map(lambda e: e / _GUIDE),
    st.integers(1, 2**30).map(lambda k: k * _ULP),
    st.integers(1, 2**41).map(lambda k: 1.0 - k * _ULP),
)


class TestGuideTable:
    """With any chains of masses in place of numpy's, the chunk lookup reads
    what numpy's loop reads, and the guide holds the sentinel exactly where a
    bucket's two ends differ or reach numpy's rejection."""

    N = 20  # the flip reads N - count; every drawn chain is shorter

    @settings(max_examples=60, deadline=None)
    @given(
        chains=st.lists(st.lists(_MASS, min_size=1, max_size=12), min_size=1, max_size=64),
        flips=st.lists(st.booleans(), min_size=64, max_size=64),
    )
    def test_lookup_matches_numpy_loop(self, chains, flips):
        k = len(chains)
        flipped = np.array(flips[:k])
        with mock.patch.object(mc, "_inversion_masses", side_effect=chains):
            binomial = _Binomial(self.N, np.where(flipped, 0.75, 0.25))
        guide = binomial.guide.reshape(k, _GUIDE)

        def flip(c, x):
            return self.N - x if flipped[c] else x

        accepted, rejected = [], []
        for c, masses in enumerate(chains):
            reads = _numpy_reads(tuple(masses))
            first = [reads[u] for u in _EDGES[:-1].tolist()]
            last = [reads[u] for u in _LAST.tolist()]
            sentinel = [a != b or b is None for a, b in zip(first, last)]
            assert (guide[c] == -1).tolist() == sentinel, c
            assert all(g == flip(c, a) for g, a, s in zip(guide[c], first, sentinel) if not s)
            accepted.append([(u, flip(c, x)) for u, x in reads.items() if x is not None])
            rejected.append([u for u, x in reads.items() if x is None])
        # every accepted uniform, each class in its own column padded with
        # its first, so that each column is read where numpy reads it
        rows = max(map(len, accepted))
        uniforms = np.array([[v for v, _ in a] + [a[0][0]] * (rows - len(a)) for a in accepted]).T
        expected = np.array([[x for _, x in a] + [a[0][1]] * (rows - len(a)) for a in accepted]).T
        assert np.array_equal(_lookup(binomial, uniforms), expected)
        # and a rejected uniform makes its chunk fall back: the two smallest
        # and the two largest of each class
        for c, u in enumerate(rejected):
            for value in set(u[:2] + u[-2:]):
                chunk = np.zeros((2, k))
                chunk[1, c] = value
                assert _lookup(binomial, chunk) is None, (c, value)


def _reference_failure(error_vector, m_worst, n_samples, trials, master_seed):
    """The estimator as it was written with Generator.binomial and
    argpartition, for the reference comparison."""
    p = np.asarray(error_vector, dtype=np.float64)
    k = p.size
    true_worst = int(np.argmax(p))
    failures = 0
    for n, rng in _chunks(trials, master_seed):
        counts = rng.binomial(n_samples, p, size=(n, k)).astype(np.float64)
        keyed = counts + 0.5 * rng.random((n, k))
        top = np.argpartition(-keyed, m_worst - 1, axis=1)[:, :m_worst]
        failures += int(np.sum(~np.any(top == true_worst, axis=1)))
    rate = failures / trials
    lo, hi = _wilson_interval(failures, trials)
    se = math.sqrt(max(rate * (1 - rate), 1e-300) / trials)
    return McEstimate(rate, lo, hi, trials, se)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [2, 5, 16, 64])
@pytest.mark.parametrize("m", [1, 3, ERROR_VECTOR.size])
def test_failure_matches_reference_loop(m, n, seed):
    trials = 20_000  # two chunks, the second one short
    assert mc_worst_class_failure(ERROR_VECTOR, m, n, trials, seed) == _reference_failure(
        ERROR_VECTOR, m, n, trials, seed
    )


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: mc_worst_class_failure([1.5, 0.2], 1, 4, 10_000, 0),
                     r"lie in \[0, 1\]", id="failure-range"),
        pytest.param(lambda: mc_worst_class_failure([0.5, 0.2], 3, 4, 10_000, 0),
                     r"m_worst must be in \[1, 2\]", id="failure-m_worst"),
        pytest.param(lambda: mc_ega_mse(1.5, 4, 10_000, 0), r"lie in \[0, 1\]", id="mse-range"),
        pytest.param(lambda: mc_worst_class_failure([0.2, 0.5], 1, 0, 10_000, 0),
                     "n_samples", id="failure-n_samples"),
        pytest.param(lambda: mc_ega_mse(0.3, 0, 10_000, 0), "n_samples", id="mse-n_samples"),
        pytest.param(lambda: mc_ega_mse(0.3, MAX_SAMPLE_SIZE + 1, 10_000, 0),
                     r"n_samples must be in \[1, 1000000\]", id="mse-n_samples-cap"),
        pytest.param(lambda: mc_worst_class_failure([float("nan"), 0.2], 1, 4, 10_000, 0),
                     r"lie in \[0, 1\]", id="failure-nan"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class _StopAfter:
    """A stop event that reads as set from its ``chunks + 1``-th read on."""

    def __init__(self, chunks):
        self.chunks, self.reads = chunks, 0

    def is_set(self):
        self.reads += 1
        return self.reads > self.chunks


@pytest.mark.parametrize("chunks", [0, 2])
@pytest.mark.parametrize(
    "estimate",
    [lambda stop: mc_worst_class_failure(ERROR_VECTOR, 3, 4, 10**9, 0, stop),
     lambda stop: mc_ega_mse(0.3, 4, 10**9, 0, stop)],
    ids=["failure", "mse"],
)
def test_stop_event_read_once_per_chunk(estimate, chunks):
    # 10**9 trials would take minutes; a set event ends the call at its next chunk
    stop = _StopAfter(chunks)
    with pytest.raises(Stopped, match=f"before chunk {chunks}$"):
        estimate(stop)
    assert stop.reads == chunks + 1
