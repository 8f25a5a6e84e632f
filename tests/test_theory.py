import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimaxclf.data import LabeledDataset
from minimaxclf.losses import spec_from_variant
from minimaxclf.model import ModelParams
from minimaxclf.priors import Prior
from minimaxclf.theory import (
    binomial_pmf,
    bound_terms,
    ega_estimate_mse,
    exact_find_worst_probability,
    prob_find_worst,
    prob_greater,
    prob_leq,
    prob_mth_worst,
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

    def test_large_n_stable(self):
        value = prob_greater(0.51, 0.5, 10_000)
        assert 0.9 < value < 1.0


class TestRankProbabilities:
    def test_m1_is_product_of_greaters(self):
        p = SORTED_VECTOR
        direct = prob_mth_worst(p, 1, 8)
        product = np.prod([prob_greater(p[0], q, 8) for q in p[1:]])
        assert direct == pytest.approx(product, rel=1e-12)

    def test_two_class_single_sample(self):
        p = np.array([0.8, 0.5])
        assert prob_mth_worst(p, 1, 1) == pytest.approx(0.4, abs=1e-12)
        assert prob_mth_worst(p, 2, 1) == pytest.approx(0.6, abs=1e-12)

    def test_sub_distribution(self):
        p = np.array([0.9, 0.5, 0.3, 0.1])
        total = sum(prob_mth_worst(p, m, 3) for m in range(1, 5))
        assert total <= 1.0 + 1e-10

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="descending"):
            prob_mth_worst(np.array([0.1, 0.9]), 1, 4)

    def test_term_guard(self):
        p = np.linspace(0.99, 0.01, 30)
        with pytest.raises(ValueError, match="guard"):
            prob_mth_worst(p, 12, 2)

    def test_find_worst_frozen_grid(self):
        for n, ref in FIND_WORST_REFERENCE.items():
            assert prob_find_worst(SORTED_VECTOR, 3, n) == pytest.approx(ref, abs=1e-9)

    def test_paper_claim_at_n16(self):
        # failure bound below 1% from 16 samples per class
        assert 1.0 - prob_find_worst(SORTED_VECTOR, 3, 16) < 0.01

    def test_monotone_in_m(self):
        values = [prob_find_worst(SORTED_VECTOR, m, 4) for m in range(1, 11)]
        assert np.all(np.diff(values) >= -1e-15)

    def test_k2_single_sample(self):
        assert prob_find_worst(np.array([0.8, 0.5]), 1, 1) == pytest.approx(0.4, abs=1e-12)


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
        pytest.param(lambda: prob_mth_worst([0.5], 1, 4), "at least 2 classes",
                     id="mth-one-class"),
        pytest.param(lambda: prob_mth_worst([1.5, 0.2], 1, 4), "error probabilities must lie",
                     id="mth-range"),
        pytest.param(lambda: prob_mth_worst([0.5, 0.2], 3, 4), r"m must be in \[1, 2\]",
                     id="mth-m"),
        pytest.param(lambda: exact_find_worst_probability([1.5, 0.2], 1, 4),
                     "error probabilities must lie", id="exact-range"),
        pytest.param(lambda: exact_find_worst_probability([0.5, 0.2], 3, 4),
                     r"m_worst must be in \[1, 2\]", id="exact-m_worst"),
        pytest.param(lambda: ega_estimate_mse(1.5, 4), "probability must lie", id="mse-p"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
