import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, xlog1py, xlogy

from minimaxclf.data import LabeledDataset
from minimaxclf.losses import spec_from_variant
from minimaxclf.model import ModelParams
from minimaxclf.priors import Prior
from minimaxclf.theory import (
    _binomial_tails,
    binomial_pmf,
    bound_terms,
    ega_estimate_mse,
    exact_find_worst_probability,
    prob_find_worst,
    prob_greater,
    prob_leq,
    product_form_ranks,
)

# Worst-first ordering of the 10-class step-imbalance error profile used for
# the validation figure.
ERROR_VECTOR = np.array([0.75, 0.67, 0.86, 0.96, 0.89, 0.06, 0.03, 0.05, 0.02, 0.03])
SORTED_VECTOR = np.sort(ERROR_VECTOR)[::-1]

# prob_find_worst(SORTED_VECTOR, M=3, N) evaluated independently with 30-digit
# arithmetic over subsets
FIND_WORST_REFERENCE = {
    2: 0.4051627992,
    4: 0.7316323487,
    8: 0.9346901805,
    16: 0.9931920962,
    32: 0.9998055566,
    64: 0.9999995173,
}

# The product-form failure on ERROR_VECTOR with M = 3, the ranks past M summed,
# evaluated independently with mpmath at 50 digits: the exact binomial masses
# of the float inputs give each P(worst > other), and the rank recursion over
# the other classes runs on those in the same arithmetic
PRODUCT_FORM_FAILURE = {
    16: 0.0068079038278075549,
    32: 0.00019444335410244413,
    64: 4.8272204765143100e-07,
}


class TestPairwiseProbabilities:
    def test_certain_orderings(self):
        assert prob_greater(1.0, 0.0, 7) == pytest.approx(1.0, abs=1e-12)
        assert prob_greater(0.0, 0.0, 7) == 0.0
        assert prob_leq(0.0, 0.0, 7) == pytest.approx(1.0, abs=1e-12)

    def test_single_sample_enumeration(self):
        # four outcomes of (Bern(0.8), Bern(0.5)): greater only on (1, 0)
        assert prob_greater(0.8, 0.5, 1) == pytest.approx(0.4, abs=1e-12)
        assert prob_leq(0.8, 0.5, 1) == pytest.approx(0.6, abs=1e-12)

    def test_complementarity_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p1, p2 = rng.uniform(0, 1, size=2)
            n = int(rng.integers(1, 60))
            total = prob_greater(p1, p2, n) + prob_leq(p1, p2, n)
            assert abs(total - 1.0) < 1e-10

    def test_pmf_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.uniform(0, 1)
            n = int(rng.integers(1, 10_000))
            assert abs(binomial_pmf(n, p).sum() - 1.0) < 1e-10

    def test_pmf_matches_scipy(self):
        for n in [*range(1, 65), 1000, 10_000]:
            k = np.arange(n + 1)
            for p in np.linspace(0.0, 1.0, 37):
                log_comb = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                expected = np.exp(log_comb + xlogy(k, p) + xlog1py(n - k, -p))
                np.testing.assert_allclose(binomial_pmf(n, p), expected, rtol=0, atol=1e-12)
            # a certain outcome gives the exact unit vector
            assert binomial_pmf(n, 0.0).tolist() == [1.0] + [0.0] * n
            assert binomial_pmf(n, 1.0).tolist() == [0.0] * n + [1.0]

    def test_tail_table_rows_match_pmf_bit_for_bit(self):
        # the classes share one coefficient row; each pmf row is the vector
        # binomial_pmf gives, and that the formula with its own lgamma table
        rng = np.random.default_rng(30)
        for n in (1, 2, 3, 4, 8, 16, 32, 64, 10**3, 10**5):
            p = [0.0, 1.0, *rng.uniform(0.0, 1.0, size=3)]
            pmf, _ = _binomial_tails(p, n)
            k = np.arange(n + 1)
            log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
            log_comb = log_fact[-1] - log_fact - log_fact[::-1]
            for row, q in zip(pmf, p):
                assert np.array_equal(row, binomial_pmf(n, q))
                if 0.0 < q < 1.0:
                    own = np.exp(log_comb + k * math.log(q) + (n - k) * math.log1p(-q))
                    assert np.array_equal(row, own)

    def test_large_n_stable(self):
        value = prob_greater(0.51, 0.5, 10_000)
        assert 0.9 < value < 1.0

    def test_matches_suffix_sum_loops(self):
        # the tail-table dot products against the O(N^2) loops they replace
        rng = np.random.default_rng(27)
        for n in range(1, 301):
            pair = rng.uniform(0.0, 1.0, size=2)
            if n % 3 == 0:  # a certain count on one side
                pair[rng.integers(2)] = rng.choice([0.0, 1.0])
            if n % 5 == 0:  # certain counts on both sides
                pair = rng.choice([0.0, 1.0], size=2)
            for p, q in (pair, pair[::-1]):
                assert prob_greater(p, q, n) == pytest.approx(
                    _loop_greater(p, q, n), rel=0, abs=1e-13
                ), (p, q, n)
                assert prob_leq(p, q, n) == pytest.approx(
                    _loop_leq(p, q, n), rel=0, abs=1e-13
                ), (p, q, n)


def _loop_greater(p_y, p_y2, n_samples):
    """Pr[Phat_y > Phat_y'] as sum_{i=0}^{N-1} Bin'(i) sum_{n>i} Bin(n)."""
    pmf_y = binomial_pmf(n_samples, p_y)
    pmf_y2 = binomial_pmf(n_samples, p_y2)
    total = 0.0
    for i in range(n_samples):
        total += pmf_y2[i] * pmf_y[i + 1 :].sum()
    return float(total)


def _loop_leq(p_y, p_y2, n_samples):
    """Pr[Phat_y <= Phat_y'] as sum_{n=0}^{N} Bin(n) sum_{i>=n} Bin'(i)."""
    pmf_y = binomial_pmf(n_samples, p_y)
    pmf_y2 = binomial_pmf(n_samples, p_y2)
    total = 0.0
    for n in range(n_samples + 1):
        total += pmf_y[n] * pmf_y2[n:].sum()
    return float(total)


class TestRankProbabilities:
    def test_m1_is_product_of_greaters(self):
        p = SORTED_VECTOR
        direct = prob_find_worst(p, 1, 8)
        product = np.prod([prob_greater(p[0], q, 8) for q in p[1:]])
        assert direct == pytest.approx(product, rel=1e-12)

    def test_two_class_single_sample(self):
        p = np.array([0.8, 0.5])
        assert prob_find_worst(p, 1, 1) == pytest.approx(0.4, abs=1e-12)
        assert prob_find_worst(p, 2, 1) == pytest.approx(1.0, abs=1e-12)

    def test_sub_distribution(self):
        p = np.array([0.9, 0.5, 0.3, 0.1])
        assert prob_find_worst(p, 4, 3) <= 1.0 + 1e-10

    def test_any_order(self):
        shuffled = np.random.default_rng(5).permutation(ERROR_VECTOR)
        for m in (1, 3, 10):
            assert prob_find_worst(shuffled, m, 16) == prob_find_worst(SORTED_VECTOR, m, 16)

    def test_many_classes(self):
        # rank 5 alone has C(99, 4) = 3,764,376 subsets of the other classes
        value = prob_find_worst(np.linspace(0.99, 0.01, 100), 5, 16)
        assert 0.0 < value < 1.0

    def test_matches_subset_sum(self):
        rng = np.random.default_rng(16)
        for case in range(30):
            k = int(rng.integers(2, 11))
            n = int(rng.integers(1, 65))
            p = rng.uniform(0.0, 1.0, size=k)
            if case % 5 == 0:  # certain counts and a repeated probability
                p[rng.integers(k)] = rng.choice([0.0, 1.0])
                p[-1] = p[0]
            for m in range(1, k + 1):
                assert prob_find_worst(p, m, n) == pytest.approx(
                    _subset_sum(p, m, n), rel=0, abs=1e-13
                ), (k, n, m)

    def test_find_worst_frozen_grid(self):
        for n, ref in FIND_WORST_REFERENCE.items():
            assert prob_find_worst(SORTED_VECTOR, 3, n) == pytest.approx(ref, abs=1e-9)

    def test_failure_frozen_to_50_digits(self):
        # summed as its own tail, not as 1 - prob_find_worst, which misses
        # the N = 64 value from its 6th significant digit
        for n, ref in PRODUCT_FORM_FAILURE.items():
            assert product_form_ranks(ERROR_VECTOR, n)[3:].sum() == pytest.approx(ref, rel=1e-9)

    def test_paper_claim_at_n16(self):
        # failure bound below 1% from 16 samples per class
        assert 1.0 - prob_find_worst(SORTED_VECTOR, 3, 16) < 0.01

    def test_monotone_in_m(self):
        values = [prob_find_worst(SORTED_VECTOR, m, 4) for m in range(1, 11)]
        assert np.all(np.diff(values) >= -1e-15)

    def test_k2_single_sample(self):
        assert prob_find_worst(np.array([0.8, 0.5]), 1, 1) == pytest.approx(0.4, abs=1e-12)


def _subset_sum(error_vector, m_worst, n_samples):
    """The product form by enumeration: for each rank m = 1..M, the sum over
    the (m-1)-subsets of the other classes that tie or beat the worst class
    of the product of the pairwise probabilities."""
    p = np.sort(error_vector)[::-1]
    greater = [prob_greater(p[0], q, n_samples) for q in p[1:]]
    leq = [prob_leq(p[0], q, n_samples) for q in p[1:]]
    total = 0.0
    for m in range(1, m_worst + 1):
        for subset in combinations(range(p.size - 1), m - 1):
            term = 1.0
            for j in range(p.size - 1):
                term *= leq[j] if j in subset else greater[j]
            total += term
    return total


class TestExactFindWorst:
    def test_two_class_single_sample_enumeration(self):
        # (Bern(0.8), Bern(0.5)): strict win 0.4, tie mass 0.5
        p = np.array([0.8, 0.5])
        assert exact_find_worst_probability(p, 1, 1, "fair") == pytest.approx(0.65, abs=1e-12)
        assert exact_find_worst_probability(p, 1, 1, "adversarial") == pytest.approx(0.4, abs=1e-12)
        assert exact_find_worst_probability(p, 1, 1, "favorable") == pytest.approx(0.9, abs=1e-12)

    def test_tie_rule_ordering(self):
        for n in (2, 16, 64):
            adv = exact_find_worst_probability(ERROR_VECTOR, 3, n, "adversarial")
            fair = exact_find_worst_probability(ERROR_VECTOR, 3, n, "fair")
            fav = exact_find_worst_probability(ERROR_VECTOR, 3, n, "favorable")
            assert adv <= fair <= fav

    def test_monotone_in_m(self):
        values = [exact_find_worst_probability(ERROR_VECTOR, m, 8) for m in range(1, 11)]
        assert np.all(np.diff(values) >= -1e-15)
        assert values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_product_form_is_valid_bound_for_m1(self):
        # with M = 1 the product of pairwise win probabilities genuinely
        # lower-bounds the success probability (positive association)
        for n in (1, 4, 16, 64):
            product = prob_find_worst(SORTED_VECTOR, 1, n)
            exact = exact_find_worst_probability(ERROR_VECTOR, 1, n, "adversarial")
            assert product <= exact + 1e-12

    def test_product_form_breaks_at_larger_m(self):
        # the comparisons share the worst class's estimate; at N = 16, M = 3
        # the independence approximation overstates the success probability
        approx = prob_find_worst(SORTED_VECTOR, 3, 16)
        exact_adv = exact_find_worst_probability(ERROR_VECTOR, 3, 16, "adversarial")
        exact_fair = exact_find_worst_probability(ERROR_VECTOR, 3, 16, "fair")
        assert approx > exact_adv
        assert approx > exact_fair

    def test_unknown_tie_rule(self):
        with pytest.raises(ValueError, match="tie rule"):
            exact_find_worst_probability(ERROR_VECTOR, 3, 4, "lucky")

    def test_matches_per_count_loop(self):
        # the share matrix and tail table against the per-(B, T) loop they replace
        rng = np.random.default_rng(2024)
        for case in range(40):
            k = int(rng.integers(2, 9))
            n = int(rng.integers(1, 71))
            p = rng.uniform(0.0, 1.0, size=k)
            if case % 4 == 0:  # certain counts and a repeated probability
                p[rng.integers(k)] = rng.choice([0.0, 1.0])
                p[-1] = p[0]
            for m in range(1, k + 1):
                for rule in ("fair", "adversarial", "favorable"):
                    expected = _per_count_loop(p, m, n, rule)
                    assert exact_find_worst_probability(p, m, n, rule) == pytest.approx(
                        expected, rel=0, abs=1e-15
                    ), (k, n, m, rule)


def _per_count_loop(p, m_worst, n_samples, tie_rule):
    """The tie rule applied count by count, as a Python loop over (B, T)."""
    k = p.size
    worst = int(np.argmax(p))
    pmf_worst = binomial_pmf(n_samples, p[worst])
    pmf_others = [binomial_pmf(n_samples, q) for q in np.delete(p, worst)]
    total = 0.0
    for c in range(n_samples + 1):
        if pmf_worst[c] == 0.0:
            continue
        dp = np.zeros((k, k))
        dp[0, 0] = 1.0
        for pmf in pmf_others:
            above = pmf[c + 1 :].sum()
            tied = pmf[c]
            new = dp * (1.0 - above - tied)
            new[1:, :] += dp[:-1, :] * above
            new[:, 1:] += dp[:, :-1] * tied
            dp = new
        select = 0.0
        for b in range(k):
            room = m_worst - b
            if room <= 0:
                continue
            for t in range(k - b):
                if dp[b, t] == 0.0:
                    continue
                if tie_rule == "fair":
                    select += dp[b, t] * min(room / (t + 1), 1.0)
                elif tie_rule == "adversarial":
                    select += dp[b, t] * (1.0 if t < room else 0.0)
                else:
                    select += dp[b, t]
        total += pmf_worst[c] * select
    return float(total)


class TestEgaMse:
    def test_degenerate_endpoints(self):
        assert ega_estimate_mse(0.0, 5) == 0.0
        assert ega_estimate_mse(1.0, 5) == 0.0

    def test_two_term_enumeration(self):
        # 0.5 (e^0.5 - 1)^2 + 0.5 (e^0.5 - e)^2, 40-digit evaluation
        assert ega_estimate_mse(0.5, 1) == pytest.approx(0.782399536886, abs=1e-10)

    def test_vanishes_with_n(self):
        values = [ega_estimate_mse(0.5, 2**k) for k in range(1, 11)]
        assert np.all(np.diff(values) < 0)
        assert values[-1] < 1e-3


@settings(max_examples=100, deadline=None)
@given(p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0), n=st.integers(1, 40))
def test_probability_ranges(p1, p2, n):
    g = prob_greater(p1, p2, n)
    l = prob_leq(p1, p2, n)
    assert -1e-12 <= g <= 1.0 + 1e-12
    assert -1e-12 <= l <= 1.0 + 1e-12
    assert abs(g + l - 1.0) < 1e-10


class TestBoundTerms:
    def _setup(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 2))
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]  # both classes present
        ds = LabeledDataset(x, y, class_count=2)
        params = ModelParams("linear", (rng.normal(size=(2, 2)),), (np.zeros(2),))
        return ds, params

    def test_delta_bar_unit_deltas(self):
        ds, params = self._setup()
        spec = spec_from_variant("CE", ds.train_prior())
        terms = bound_terms(spec, params, ds, Prior.uniform(2))
        np.testing.assert_allclose(terms.delta_bar, np.sqrt(2.0))

    def test_psi_in_unit_interval(self):
        ds, params = self._setup()
        pi = Prior(np.array([0.3, 0.7]))
        spec = spec_from_variant("TLA", ds.train_prior(), pi)
        terms = bound_terms(spec, params, ds, pi)
        for psi in (terms.psi, terms.tla_psi, terms.twce_psi):
            assert np.all((psi >= 0.0) & (psi <= 1.0))

    def test_s_min_is_minimum_true_logit(self):
        ds, params = self._setup()
        from minimaxclf.model import forward_logits

        logits = forward_logits(params, ds.instances)
        spec = spec_from_variant("CE", ds.train_prior())
        terms = bound_terms(spec, params, ds, Prior.uniform(2))
        for y in range(2):
            idx = ds.class_indices(y)
            assert terms.s_min[y] == pytest.approx(logits[idx, y].min())

    def test_prior_factors(self):
        ds, params = self._setup()
        pi = Prior(np.array([0.9, 0.1]))
        spec = spec_from_variant("TLA", ds.train_prior(), pi)
        terms = bound_terms(spec, params, ds, pi)
        pt = ds.train_prior().p
        np.testing.assert_allclose(terms.tla_prior_factor, np.sqrt(pt))
        np.testing.assert_allclose(terms.twce_prior_factor, pi.p / np.sqrt(pt))

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(0)
        ds = LabeledDataset(rng.normal(size=(5, 2)), np.zeros(5, dtype=int), class_count=2)
        params = ModelParams("linear", (np.eye(2),), (np.zeros(2),))
        spec = spec_from_variant("CE", Prior.uniform(2))
        with pytest.raises(ValueError, match="no samples"):
            bound_terms(spec, params, ds, Prior.uniform(2))


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: binomial_pmf(3, 1.5), "probability must lie", id="pmf-p"),
        pytest.param(lambda: binomial_pmf(0, 0.5), "at least one trial", id="pmf-trials"),
        pytest.param(lambda: prob_find_worst([0.5], 1, 4), "at least 2 classes",
                     id="mth-one-class"),
        pytest.param(lambda: prob_find_worst([1.5, 0.2], 1, 4), "error probabilities must lie",
                     id="mth-range"),
        pytest.param(lambda: prob_find_worst([0.5, 0.2], 3, 4), r"m_worst must be in \[1, 2\]",
                     id="mth-m"),
        pytest.param(lambda: prob_find_worst([np.nan, 0.5, 0.2], 1, 4),
                     "error probabilities must lie", id="mth-nan"),
        pytest.param(lambda: exact_find_worst_probability([0.5], 1, 4), "at least 2 classes",
                     id="exact-one-class"),
        pytest.param(lambda: exact_find_worst_probability([1.5, 0.2], 1, 4),
                     "error probabilities must lie", id="exact-range"),
        pytest.param(lambda: exact_find_worst_probability([0.5, 0.2], 3, 4),
                     r"m_worst must be in \[1, 2\]", id="exact-m_worst"),
        pytest.param(lambda: exact_find_worst_probability([np.nan, 0.5, 0.2], 1, 4),
                     "error probabilities must lie", id="exact-nan"),
        pytest.param(lambda: ega_estimate_mse(1.5, 4), "probability must lie", id="mse-p"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
