import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from minimaxclf import cli, mc, theory
from minimaxclf.config import DEFAULT_CONFIG
from minimaxclf.mc import (
    _CHUNK,
    _GUIDE,
    _ROWS,
    _UNIT,
    MAX_SAMPLE_SIZE,
    McCurve,
    McEstimate,
    _query,
    _Table,
    _wilson_interval,
    mc_curve,
    mc_ega_mse,
    mc_worst_class_failure,
)
from minimaxclf.theory import (
    _binomial_tails,
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


def _draw(table, rng, size):
    """``size`` rows of counts from ``rng``: one uniform per count, drawn
    row by row, looked up in ``table``."""
    u = rng.random((size, table.sign.size))
    query, index = np.empty((2, *u.shape), np.int64)
    _query(u, np.arange(u.shape[1]), query, index)
    return table.lookup(index, query, np.empty(u.shape, np.int32))


def _assert_matches_numpy(n, p, seed, size=64):
    """The table gives Generator.binomial's counts at one uniform per count,
    and that call reads exactly those uniforms: it leaves its generator
    where they leave an identically seeded one."""
    p = np.asarray(p, dtype=np.float64)
    reference, sampled = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference.binomial(n, p, size=(size, p.size))
    assert np.array_equal(_draw(_Table(n, p), sampled, size), expected)
    assert np.array_equal(sampled.random(5), reference.random(5))


@st.composite
def _inversion_cases(draw):
    """(N, p) that numpy draws by inversion, one uniform per count: p > 0
    and N * min(p, 1 - p) <= 30."""
    n = draw(st.integers(1, 200))
    top = min(0.5, 30 / n)
    inner = st.one_of(st.floats(0.0, top, exclude_min=True), st.sampled_from([top, 1e-12]))
    p = [1.0 - q if flip else q
         for q, flip in draw(st.lists(st.tuples(inner, st.booleans()), min_size=1, max_size=12))]
    p += draw(st.lists(st.just(1.0), max_size=1))
    assume(all(n * min(q, 1.0 - q) <= 30.0 for q in p))
    return n, p


_ULP = 2.0**-53  # uniforms are k * 2**-53 for integers k < 2**53
_EDGES = np.arange(_GUIDE + 1) / _GUIDE  # bucket edges, 1.0 included
_LAST = _EDGES[1:] - _ULP  # each bucket's last uniform


def _searched(n, p, u):
    """The inverse CDF of Binomial(N, p) at the uniforms u, one column per
    class: the least c with F(c) >= u on theory's tail table, N minus that
    at 1 - p for p > 1/2."""
    p = np.asarray(p, dtype=np.float64)
    cdf = 1.0 - _binomial_tails(np.minimum(p, 1.0 - p), n)[1]
    x = np.stack([np.searchsorted(row, col, side="left") for row, col in zip(cdf, u.T)], axis=1)
    return np.where(p > 0.5, n - x, x)


def _assert_searched(n, p, seed, size):
    """The table's counts are the inverse CDF at one uniform per count."""
    rng = np.random.default_rng(seed)
    u = rng.random((size, len(p)))
    table = _Table(n, np.array(p, dtype=np.float64))
    assert np.array_equal(_draw(table, np.random.default_rng(seed), size), _searched(n, p, u))


class TestSampler:
    """Where numpy inverts, the counts are numpy's, bit for bit, and numpy
    reads one uniform per count; everywhere they are the inverse CDF of
    theory's tail table at one uniform per count."""

    @settings(max_examples=150, deadline=None)
    @given(case=_inversion_cases(), seed=st.integers(0, 2**32 - 1))
    def test_matches_generator_binomial(self, case, seed):
        _assert_matches_numpy(*case, seed)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_curve_counts_are_numpys(self, n):
        # the default curve's sizes and vector, every count of two chunks
        for seed in (0, 1, 2):
            _assert_matches_numpy(n, ERROR_VECTOR, seed, size=2 * _CHUNK)

    @pytest.mark.parametrize(
        "n, p, inverted",
        [(60, [0.5, 0.2], True),  # N p = 30: still inversion
         (8, [0.9, 1.0, 1e-12, 0.3], True),
         (61, [0.5, 0.2], False),  # N p > 30: numpy's BTPE
         (8, [0.0, 0.3], False),  # numpy draws no uniform at p = 0
         (100, [0.0, 0.5, 0.02, 0.995], False)],  # both, next to inverted classes
        ids=["np-30", "flipped-and-edges", "btpe", "p-zero", "p-zero-and-btpe"],
    )
    def test_path_and_stream(self, n, p, inverted):
        # a block and 7 rows; a full chunk; two blocks and 7 rows
        for size in (_ROWS + 7, _CHUNK, 2 * _ROWS + 7):
            for seed in (0, 1):
                if inverted:
                    _assert_matches_numpy(n, p, seed, size=size)
                else:
                    _assert_searched(n, p, seed, size=size)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        p=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0, 1e-12])),
                   min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_guide_holds_the_searched_count(self, n, p, seed):
        # F(N) = 1, so no uniform falls off the top; the keys of all classes
        # sort as one table, each class's last key above every uniform; a
        # bucket holds a count only where its first and last uniform search
        # to it, and the lookup reads the searched count of each uniform
        p = np.array(p, dtype=np.float64)
        assert np.all(_binomial_tails(np.minimum(p, 1.0 - p), n)[1][:, -1] == 0.0)
        table = _Table(n, p)
        assert np.all(np.diff(table.keys) >= 0)
        last = table.keys.reshape(len(p), n + 1)[:, -1]
        assert np.array_equal(last, (np.arange(len(p)) + 1) * _UNIT - 1)
        guide = table.guide.reshape(len(p), _GUIDE)
        first = _searched(n, p, np.repeat(_EDGES[:-1, None], len(p), axis=1)).T
        last = _searched(n, p, np.repeat(_LAST[:, None], len(p), axis=1)).T
        held = guide != -1
        assert np.array_equal(held, first == last)
        assert np.array_equal(guide[held], first[held])
        _assert_searched(n, p, seed, size=_ROWS + 7)

    @pytest.mark.parametrize("n", [100, 1024])
    def test_counts_follow_theory_masses(self, n):
        # past numpy's inversion regime (N p > 30) the counts are not
        # numpy's; their histogram must still fit Bin(N, p), tested by
        # chi-square over bins pooled to an expected count of at least 5
        p = np.array([0.5, 0.03, 0.9, 0.0, 1.0])
        size = 200_000
        counts = _draw(_Table(n, p), np.random.default_rng(n), size)
        assert np.all(counts[:, 3] == 0) and np.all(counts[:, 4] == n)
        pmf, _ = _binomial_tails(p[:3], n)
        for c, masses in enumerate(pmf):
            observed = np.bincount(counts[:, c], minlength=n + 1)
            expected = masses * size
            # the pmf is unimodal, so the bins expecting 5 or more are one
            # run; each tail is pooled into the bin at its end of that run
            lo, hi = np.flatnonzero(expected >= 5.0)[[0, -1]]
            obs, exp = (np.r_[v[: lo + 1].sum(), v[lo + 1 : hi], v[hi:].sum()]
                        for v in (observed, expected))
            assert chisquare(obs, exp).pvalue > 1e-4, (c, obs.size)


def _reference_failure(error_vector, m_worst, n_samples, trials, master_seed):
    """The estimator as it was written with Generator.binomial and
    argpartition, for the reference comparison."""
    p = np.asarray(error_vector, dtype=np.float64)
    k = p.size
    true_worst = int(np.argmax(p))
    failures = 0
    for i, start in enumerate(range(0, trials, _CHUNK)):
        n = min(_CHUNK, trials - start)
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, i]))
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
        # the config's rule: a 1-d vector of 2 or more probabilities, integer
        # sizes and trials that are not bools
        pytest.param(lambda: mc_worst_class_failure([0.5], 1, 4, 10_000, 0),
                     "error_vector must be a 1-d vector of at least 2", id="failure-one-class"),
        pytest.param(lambda: mc_worst_class_failure([[0.5, 0.2], [0.1, 0.3]], 1, 4, 10_000, 0),
                     "error_vector must be a 1-d vector", id="failure-2d"),
        pytest.param(lambda: mc_worst_class_failure([], 1, 4, 10_000, 0),
                     "error_vector must be a 1-d vector", id="failure-empty"),
        pytest.param(lambda: mc_worst_class_failure([True, False], 1, 4, 10_000, 0),
                     "error_vector must be a 1-d vector", id="failure-bool-vector"),
        pytest.param(lambda: mc_worst_class_failure([0.5, 0.2], True, 4, 10_000, 0),
                     r"m_worst must be in \[1, 2\], got True", id="failure-bool-m_worst"),
        pytest.param(lambda: mc_worst_class_failure([0.5, 0.2], 1.0, 4, 10_000, 0),
                     r"m_worst must be in \[1, 2\], got 1.0", id="failure-float-m_worst"),
        pytest.param(lambda: mc_worst_class_failure([0.5, 0.2], 1, True, 10_000, 0),
                     "n_samples must be in .*, got True", id="failure-bool-n_samples"),
        pytest.param(lambda: mc_ega_mse(0.3, True, 10_000, 0),
                     "n_samples must be in .*, got True", id="mse-bool-n_samples"),
        pytest.param(lambda: mc_ega_mse(True, 4, 10_000, 0), "p_error must be", id="mse-bool-p"),
        pytest.param(lambda: mc_worst_class_failure([True, 0.5], 1, 4, 10_000, 0),
                     "error_vector must be a 1-d vector", id="failure-mixed-bool-vector"),
        pytest.param(lambda: mc_ega_mse(0.3, 4, 10_000.0, 0),
                     "trials must be an integer", id="mse-float-trials"),
        pytest.param(lambda: McCurve([0.5, 0.2], 1, [4, 0], 10_000, 0),
                     r"n_samples must be in \[1, 1000000\], got 0", id="curve-n_samples"),
        pytest.param(lambda: McCurve(np.full(1025, 0.5), 1, [4], 10_000, 0),
                     "2 to 1024 probabilities", id="curve-classes"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: exact_find_worst_probability(ERROR_VECTOR, 11, MAX_SAMPLE_SIZE),
                     r"m_worst must be in \[1, 10\], got 11", id="exact-m_worst"),
        pytest.param(lambda: prob_find_worst(ERROR_VECTOR, 11, MAX_SAMPLE_SIZE),
                     r"m_worst must be in \[1, 10\], got 11", id="product-m_worst"),
        pytest.param(lambda: exact_find_worst_probability(ERROR_VECTOR, 3, MAX_SAMPLE_SIZE,
                                                          "unfair"),
                     "tie rule 'unfair'", id="exact-tie_rule"),
        pytest.param(lambda: McCurve(ERROR_VECTOR, 1, [MAX_SAMPLE_SIZE, 0], 10_000, 0),
                     r"n_samples must be in \[1, 1000000\], got 0", id="curve-n_samples"),
        pytest.param(lambda: McCurve(ERROR_VECTOR, 11, [MAX_SAMPLE_SIZE], 10_000, 0),
                     r"m_worst must be in \[1, 10\], got 11", id="curve-m_worst"),
        pytest.param(lambda: McCurve(ERROR_VECTOR, 1, [MAX_SAMPLE_SIZE], 9_999, 0),
                     "trials must be an integer", id="curve-trials"),
    ],
)
def test_arguments_checked_before_any_table(monkeypatch, call, match):
    # an O(K N) table at N = 10**6 takes a quarter second or more: a bad
    # argument is named before one is built
    def no_table(*args):
        raise AssertionError("a table was built before the arguments were checked")

    for module in (theory, mc):
        monkeypatch.setattr(module, "_binomial_tails", no_table)
    with pytest.raises(ValueError, match=match):
        call()


def test_preset_curve_pinned():
    # the figure-validation curve at 10**5 trials and seed 0, as one pass
    # over every size: any moved count or MSE bit fails here
    mc = DEFAULT_CONFIG["mc"]
    estimates = mc_curve(mc["error_vector"], mc["m_worst"], mc["sample_sizes"], 100_000, 0)
    assert [round(failure.value * 100_000) for failure, _ in estimates] == [
        20981, 12141, 5434, 1422, 124, 3]
    assert [mse.value.hex() for _, mse in estimates] == [
        "0x1.5f6d89bbecd25p-4", "0x1.b19de3910437bp-5", "0x1.e41263b427dc8p-6",
        "0x1.fbe845d4b8ebbp-7", "0x1.0539a649a593fp-7", "0x1.0974ea0dc2553p-8"]


@st.composite
def _curves(draw):
    """(error vector, M, sample sizes, trials): K in [2, 12] with the
    entries 0, 1/2 and 1 and values above 1/2 among them, sizes up to 600
    (past the uint8 counts) and a short last chunk."""
    k = draw(st.integers(2, 12))
    entry = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0),
                      st.floats(0.5, 1.0, exclude_min=True))
    vector = draw(st.lists(entry, min_size=k, max_size=k))
    sizes = draw(st.lists(st.integers(1, 600), min_size=1, max_size=4, unique=True))
    return vector, draw(st.integers(1, k)), sizes, draw(st.integers(10_000, 40_000))


@settings(max_examples=25, deadline=None)
@given(curve=_curves(), seed=st.integers(0, 2**32 - 1))
def test_pass_matches_one_size_calls(curve, seed):
    # the pass over every size gives each size's one-size estimates, bit for
    # bit, with its chunks on 1, 2 or 6 CPUs' pool threads
    vector, m, sizes, trials = curve
    alone = [(mc_worst_class_failure(vector, m, n, trials, seed),
              mc_ega_mse(max(vector), n, trials, seed)) for n in sizes]
    for cpus in (1, 2, 6):  # as far as the 1 to 3 chunks go
        shared = McCurve(vector, m, sizes, trials, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_usable_cpus", lambda cpus=cpus: cpus)
            with cli._pool_map(shared.tally, shared.chunks, processes=False) as tallies:
                assert shared.estimates(tallies) == alone
