import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimaxclf.mc import (
    _GUIDE,
    McEstimate,
    _Binomial,
    _chunks,
    _guide_table,
    _inverted_counts,
    _threshold_tables,
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


def _assert_matches_numpy(n, p, seed, size=64):
    """The table sampler gives Generator.binomial's counts, and leaves its
    generator where that call leaves an identically seeded one."""
    p = np.asarray(p, dtype=np.float64)
    reference, sampled = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference.binomial(n, p, size=(size, p.size))
    assert np.array_equal(_Binomial(n, p)(sampled, np.empty((size, p.size))), expected)
    assert np.array_equal(sampled.random(5), reference.random(5))


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
         (8, [0.0, 0.3], False)],  # p = 0 draws no uniform
        ids=["np-30", "flipped-and-edges", "btpe", "p-zero"],
    )
    def test_path_and_stream(self, n, p, inverted):
        assert (_threshold_tables(n, np.array(p)) is not None) == inverted
        for seed in (0, 1):
            _assert_matches_numpy(n, p, seed, size=4096)

    @pytest.mark.parametrize("n, p", [(2, 0.5), (16, 0.06), (64, 0.33), (64, 0.96), (200, 0.1)])
    def test_thresholds_are_the_steps_of_numpy_loop(self, n, p):
        # a scalar copy of numpy's random_binomial_inversion for one uniform,
        # returning None where it would draw again
        def count(u, p):
            q = 1.0 - p
            mean = n * p
            bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
            x, px = 0, math.exp(n * math.log(q))
            while u > px:
                x += 1
                if x > bound:
                    return None
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
            return x

        table = _threshold_tables(n, np.array([p]))
        ((thresholds, flipped),) = table
        inner = 1.0 - p if flipped else p
        last = thresholds.size
        for x, t in enumerate(thresholds, start=1):
            if t < 1.0:  # from t on, the loop reaches x or draws again
                reached = count(t, inner)
                assert reached is None if x == last else reached is None or reached >= x
            below = count(t - 2.0**-53, inner)
            assert below is not None and below < x
        # and the sampler reads the count of a uniform on and just below a step
        steps = thresholds[thresholds < thresholds[-1]]
        uniforms = np.concatenate([steps, steps - 2.0**-53])
        expected = [count(u, inner) for u in uniforms]
        if flipped:
            expected = [n - x for x in expected]
        counts = _inverted_counts(uniforms[:, None], n, table, _guide_table(n, table))
        assert counts[:, 0].tolist() == expected

    def test_rejected_uniform_replays_numpy(self):
        # a truncated table makes every uniform past its first step one that
        # numpy would reject, so the chunk must come from Generator.binomial
        n, p = 8, np.array([0.3, 0.7, 0.1])
        binomial = _Binomial(n, p)
        binomial.tables[1] = (binomial.tables[1][0][:2], binomial.tables[1][1])
        binomial.guide = _guide_table(n, binomial.tables)
        reference, sampled = np.random.default_rng(3), np.random.default_rng(3)
        expected = reference.binomial(n, p, size=(512, 3))
        assert np.array_equal(binomial(sampled, np.empty((512, 3))), expected)
        assert np.array_equal(sampled.random(5), reference.random(5))


_GRID = 2**53  # uniforms and thresholds are k / _GRID for integers k
_BUCKET = _GRID // _GUIDE  # grid points per guide bucket


@st.composite
def _threshold_vector(draw):
    """A sorted threshold vector, as grid integers, whose last entry is the
    rejection threshold: steps anywhere, on a bucket edge, one grid point
    below one, packed into the last bucket, and repeated; the rejection at
    1.0, which no uniform reaches, or below it."""
    point = st.one_of(
        st.integers(1, _GRID - 1),
        st.integers(1, _GUIDE - 1).map(lambda e: e * _BUCKET),
        st.integers(1, _GUIDE).map(lambda e: e * _BUCKET - 1),
        st.integers(_GRID - _BUCKET, _GRID - 1),
    )
    steps = draw(st.lists(point, max_size=12))
    if steps and draw(st.booleans()):
        steps.append(steps[0])
    return sorted(steps + [draw(st.one_of(st.just(_GRID), point))])


def _grid_searchsorted(grid_thresholds, grid_uniforms):
    return np.searchsorted(np.array(grid_thresholds), grid_uniforms, "right")


class TestGuideTable:
    """The guide lookup reads what a ``searchsorted`` of the thresholds reads,
    and holds the sentinel exactly where a bucket needs that search."""

    @settings(max_examples=100, deadline=None)
    @given(
        vectors=st.lists(_threshold_vector(), min_size=1, max_size=64),
        flips=st.lists(st.booleans(), min_size=64, max_size=64),
    )
    def test_lookup_matches_searchsorted(self, vectors, flips):
        n = 20  # at least every vector's length less one, as for a real table
        tables = [(np.array(v) / _GRID, f) for v, f in zip(vectors, flips)]
        guide = _guide_table(n, tables).reshape(len(tables), _GUIDE)
        edges = np.arange(_GUIDE + 1, dtype=np.int64) * _BUCKET
        first, last = edges[:-1], edges[1:] - 1  # each bucket's first and last uniform
        accepted, rejected = [], []
        for c, ((_, flipped), grid) in enumerate(zip(tables, vectors)):
            # the sentinel: a step strictly inside the bucket, or its last
            # uniform at or past the rejection threshold
            count = _grid_searchsorted(grid, first)
            sentinel = (_grid_searchsorted(grid, last) > count) | (grid[-1] <= last)
            assert np.array_equal(guide[c] == -1, sentinel), c
            want = n - count if flipped else count
            assert np.array_equal(guide[c][~sentinel], want[~sentinel]), c
            # uniforms on and one grid point below every step and bucket edge
            u = np.unique(np.concatenate([grid, np.array(grid) - 1, edges, edges - 1]))
            u = u[(u >= 0) & (u < _GRID)]
            x = _grid_searchsorted(grid, u)
            accepted.append((u[x < len(grid)], x[x < len(grid)]))
            rejected.append(u[x == len(grid)])
        # every accepted uniform, each class in its own column padded with
        # u = 0, which reads 0
        rows = max(u.size for u, _ in accepted)
        uniforms = np.zeros((rows, len(tables)))
        expected = np.zeros((rows, len(tables)), dtype=np.int64)
        for c, ((u, x), (_, flipped)) in enumerate(zip(accepted, tables)):
            uniforms[: u.size, c] = u / _GRID
            expected[: u.size, c] = x
            if flipped:
                expected[:, c] = n - expected[:, c]
        assert np.array_equal(_inverted_counts(uniforms, n, tables, guide.ravel()), expected)
        # and a rejected uniform makes its chunk a rejection: the two smallest
        # and the two largest of each class
        for c, u in enumerate(rejected):
            for value in np.unique(np.concatenate([u[:2], u[-2:]])):
                chunk = np.zeros((2, len(tables)))
                chunk[1, c] = value / _GRID
                assert _inverted_counts(chunk, n, tables, guide.ravel()) is None, (c, value)


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
        pytest.param(lambda: mc_worst_class_failure([float("nan"), 0.2], 1, 4, 10_000, 0),
                     r"lie in \[0, 1\]", id="failure-nan"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
