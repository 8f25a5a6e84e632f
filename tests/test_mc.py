import numpy as np
import pytest

from minimaxclf.mc import mc_ega_mse, mc_worst_class_failure
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


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: mc_worst_class_failure([1.5, 0.2], 1, 4, 10_000, 0),
                     r"lie in \[0, 1\]", id="failure-range"),
        pytest.param(lambda: mc_worst_class_failure([0.5, 0.2], 3, 4, 10_000, 0),
                     r"m_worst must be in \[1, 2\]", id="failure-m_worst"),
        pytest.param(lambda: mc_ega_mse(1.5, 4, 10_000, 0), r"lie in \[0, 1\]", id="mse-range"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
