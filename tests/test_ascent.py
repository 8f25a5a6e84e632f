import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minimaxclf.ascent import (
    AscentState,
    ClassRisks,
    ascent_step,
    auto_m,
    ega_step,
    estimate_class_risks,
    linear_ascent_step,
    worst_m_indicator,
)
from minimaxclf.config import max_ascent_alpha
from minimaxclf.data import LabeledDataset
from minimaxclf.model import ModelParams
from minimaxclf.priors import Prior


def _risks(*values, counts=None):
    v = np.array(values, dtype=np.float64)
    c = np.full(v.size, 10) if counts is None else np.asarray(counts)
    return ClassRisks(v, c)


def _constant_class0_model(dim=1, k=2):
    # bias forces class 0 regardless of input
    w = np.zeros((dim, k))
    b = np.zeros(k)
    b[0] = 10.0
    return ModelParams("linear", (w,), (b,))


class TestEstimateRisks:
    def test_perfect_classifier(self):
        # class 0 at -100, class 1 at +100: threshold-free separation
        x = np.array([[-100.0], [100.0], [-100.0], [100.0]])
        y = np.array([0, 1, 0, 1])
        params = ModelParams("linear", (np.array([[-1.0, 1.0]]),), (np.zeros(2),))
        risks = estimate_class_risks(params, LabeledDataset(x, y, 2))
        np.testing.assert_array_equal(risks.estimates, [0.0, 0.0])

    def test_constant_predictor(self):
        x = np.zeros((4, 1))
        y = np.array([0, 0, 1, 1])
        risks = estimate_class_risks(_constant_class0_model(), LabeledDataset(x, y, 2))
        np.testing.assert_array_equal(risks.estimates, [0.0, 1.0])
        np.testing.assert_array_equal(risks.counts, [2, 2])

    def test_three_quarters(self):
        x = np.array([[-100.0]] * 1 + [[100.0]] * 3 + [[-100.0]] * 4)
        y = np.array([0] * 4 + [1] * 4)
        params = ModelParams("linear", (np.array([[-1.0, 1.0]]),), (np.zeros(2),))
        risks = estimate_class_risks(params, LabeledDataset(x, y, 2))
        assert risks.estimates[0] == pytest.approx(0.75)

    def test_missing_class_rejected(self):
        ds = LabeledDataset(np.zeros((2, 1)), np.array([0, 0]), class_count=2)
        with pytest.raises(ValueError, match="absent"):
            estimate_class_risks(_constant_class0_model(), ds)


class TestWorstIndicator:
    def test_unique_max(self):
        ind = worst_m_indicator(_risks(0.9, 0.2, 0.1), 1, np.random.default_rng(0))
        np.testing.assert_array_equal(ind.p, [1.0, 0.0, 0.0])

    def test_top_two(self):
        ind = worst_m_indicator(_risks(0.9, 0.2, 0.1), 2, np.random.default_rng(0))
        np.testing.assert_array_equal(ind.p, [0.5, 0.5, 0.0])

    def test_tied_pair_split_evenly(self):
        picks = np.zeros(2)
        for seed in range(10_000):
            ind = worst_m_indicator(_risks(0.5, 0.5), 1, np.random.default_rng(seed))
            picks += ind.p
        freq = picks / 10_000
        assert abs(freq[0] - 0.5) < 0.02
        assert abs(freq[1] - 0.5) < 0.02

    def test_tie_without_rng_goes_to_smaller_index(self):
        ind = worst_m_indicator(_risks(0.2, 0.5, 0.5, 0.5), 2)
        np.testing.assert_array_equal(ind.p, [0.0, 0.5, 0.5, 0.0])

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            worst_m_indicator(_risks(0.5, 0.5), 3, np.random.default_rng(0))

    def test_numpy_integer_m(self):
        state = AscentState(Prior.uniform(3), "linear", 0.5, m_worst=np.int64(2))
        ascent_step(state, _risks(0.9, 0.2, 0.1))
        np.testing.assert_allclose(state.prior.p, [5 / 12, 5 / 12, 1 / 6])
        ind = worst_m_indicator(_risks(0.9, 0.2, 0.1), np.int64(1))
        np.testing.assert_array_equal(ind.p, [1.0, 0.0, 0.0])

    def test_auto_m(self):
        assert auto_m(_risks(0.9, 0.87, 0.5, 0.1)) == 2
        assert auto_m(_risks(0.9, 0.2, 0.1)) == 1

    @pytest.mark.parametrize("values", [(0.9, 0.87, 0.5, 0.1), (0.9, 0.2, 0.1, 0.0),
                                        (0.5, 0.48, 0.47, 0.3)])
    def test_auto_state_steps_toward_auto_m_classes(self, values):
        # a linear step gives the indicator's mass to exactly auto_m(risks) classes
        risks, prior = _risks(*values), Prior.uniform(4)
        state = AscentState(prior, "linear", 0.1, "auto")
        expected = ascent_step(AscentState(prior, "linear", 0.1, auto_m(risks)), risks)
        assert ascent_step(state, risks) == expected
        assert np.count_nonzero(state.prior.p > prior.p) == auto_m(risks)
        # EGA reads no M, so "auto" leaves its step as it is
        ega = [ascent_step(AscentState(prior, "ega", 0.1, m), risks) for m in ("auto", 1)]
        assert ega[0] == ega[1]


class TestLinearAscent:
    def _state(self, prior, alpha=0.1, m=1):
        return AscentState(Prior(np.asarray(prior, float)), "linear", alpha, m)

    def test_forced_combination(self):
        state = self._state([0.25, 0.25, 0.25, 0.25])
        out = linear_ascent_step(state, Prior(np.array([0.0, 1.0, 0.0, 0.0])))
        np.testing.assert_allclose(out.p, [0.225, 0.325, 0.225, 0.225], rtol=1e-12)

    def test_near_unit_alpha_reaches_indicator(self):
        state = self._state([0.5, 0.5], alpha=0.999)
        out = linear_ascent_step(state, Prior(np.array([1.0, 0.0])))
        assert abs(out.p[0] - 1.0) < 1e-3

    def test_indicator_fixed_point(self):
        state = self._state([0.5, 0.25, 0.25])
        out = linear_ascent_step(state, Prior(np.array([0.5, 0.25, 0.25])))
        np.testing.assert_allclose(out.p, [0.5, 0.25, 0.25], rtol=1e-12)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError, match="alpha"):
            self._state([0.5, 0.5], alpha=1.0)
        with pytest.raises(ValueError, match="alpha"):
            self._state([0.5, 0.5], alpha=0.0)

    def test_positivity_preserved(self):
        state = self._state([0.7, 0.2, 0.1], alpha=0.3)
        out = linear_ascent_step(state, Prior(np.array([1.0, 0.0, 0.0])))
        assert np.all(out.p >= (1 - 0.3) * np.array([0.7, 0.2, 0.1]) - 1e-15)
        assert np.all(out.p > 0)

    def test_mass_moves_toward_worst(self):
        state = self._state([0.8, 0.1, 0.1], alpha=0.05)
        out = linear_ascent_step(state, Prior(np.array([0.0, 1.0, 0.0])))
        assert out.p[1] > 0.1


class TestEga:
    def _state(self, prior, alpha=0.1):
        return AscentState(Prior(np.asarray(prior, float)), "ega", alpha)

    def test_equal_risks_fixed_point(self):
        state = self._state([0.6, 0.3, 0.1])
        out = ega_step(state, _risks(0.4, 0.4, 0.4))
        np.testing.assert_allclose(out.p, [0.6, 0.3, 0.1], rtol=1e-12)

    def test_tiny_alpha_barely_moves(self):
        state = self._state([0.5, 0.5], alpha=1e-12)
        out = ega_step(state, _risks(1.0, 0.0))
        np.testing.assert_allclose(out.p, [0.5, 0.5], atol=1e-11)

    def test_frozen_value(self):
        # [e^0.1, 1] normalized, computed at 40-digit precision
        state = self._state([0.5, 0.5], alpha=0.1)
        out = ega_step(state, _risks(1.0, 0.0))
        np.testing.assert_allclose(out.p, [0.524979187479, 0.475020812521], atol=1e-10)

    def test_support_preserved_exactly(self):
        state = self._state([0.5, 0.5, 0.0])
        out = ega_step(state, _risks(0.9, 0.1, 1.0))
        assert out.p[2] == 0.0

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            self._state([0.5, 0.5], alpha=0.0)

    def test_overflowing_weights_stay_finite(self):
        # exp(800 * 0.9) overflows a float; the normalized weights are
        # 1 / (1 + 9 e^-640) and e^-640 / (1 + 9 e^-640)
        out = ega_step(self._state([0.1] * 10, alpha=800.0), _risks(0.9, *[0.1] * 9))
        np.testing.assert_allclose(out.p, [1.0] + [np.exp(-640.0)] * 9, rtol=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    raw=st.lists(st.sampled_from([0.0, 1e-300, 0.5]) | st.floats(0.01, 1.0), min_size=2,
                 max_size=8).filter(lambda v: sum(v) > 0),
    risks=st.data(),
    alpha=st.floats(1e-6, 1e4),
)
def test_ega_step_finite_at_any_alpha(raw, risks, alpha):
    v = np.array(raw)
    prior = Prior(v / v.sum())
    k = prior.class_count
    r = np.array(risks.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    out = ega_step(AscentState(prior, "ega", alpha), _risks(*r)).p
    assert np.all(np.isfinite(out)) and np.all(out >= 0)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out[prior.p == 0] == 0)
    with np.errstate(all="ignore"):
        w = prior.p * np.exp(alpha * r)
    if np.isfinite(w.sum()):  # the plain form, bit for bit
        assert np.array_equal(out, w / w.sum())


@settings(max_examples=200, deadline=None)
@given(
    raw=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
    risks=st.data(),
    alpha=st.floats(0.001, 0.999),
    method=st.sampled_from(["linear", "ega"]),
)
def test_both_steps_stay_on_simplex(raw, risks, alpha, method):
    v = np.array(raw)
    prior = Prior(v / v.sum())
    k = prior.class_count
    risk_values = np.array(risks.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    state = AscentState(prior, method, alpha, m_worst=1)
    if method == "linear":
        indicator = worst_m_indicator(ClassRisks(risk_values, np.full(k, 5)), 1,
                                      np.random.default_rng(0))
        out = linear_ascent_step(state, indicator)
    else:
        out = ega_step(state, ClassRisks(risk_values, np.full(k, 5)))
    assert abs(out.p.sum() - 1.0) <= 1e-12
    assert np.all(out.p >= 0.0)


_RISK = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))


@settings(max_examples=200, deadline=None)
@given(
    method=st.sampled_from(["linear", "ega"]),
    exponents=st.lists(st.floats(0.0, 300.0), min_size=2, max_size=6),
    steps=st.integers(1, 300),
    fraction=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    m_worst=st.integers(1, 6),
    rows=st.lists(st.lists(_RISK, min_size=6, max_size=6), min_size=1, max_size=6),
    adversarial=st.booleans(),
)
def test_accepted_alpha_keeps_prior_normal(method, exponents, steps, fraction, m_worst, rows,
                                           adversarial):
    # any alpha the config rule accepts: the risk vectors cycle through
    # ``rows``, or, adversarially, give the smallest coordinate 0 and the rest 1
    w = 10.0 ** -np.array(exponents)
    prior = Prior(w / w.sum())
    k = prior.class_count
    alpha = fraction * max_ascent_alpha(method, float(prior.p.min()), steps)
    assume(alpha > 0)  # alpha 0 runs no ascent, and a tiny fraction can underflow to it
    state = AscentState(prior, method, alpha, m_worst=min(m_worst, k))
    for t in range(steps):
        if adversarial:
            risks = np.ones(k)
            risks[np.argmin(state.prior.p)] = 0.0
        else:
            risks = np.array(rows[t % len(rows)][:k])
        p = ascent_step(state, ClassRisks(risks, np.full(k, 5))).p
        assert np.all(np.isfinite(p)) and p.min() >= sys.float_info.min, (t, p)


def _state(method, k=2):
    return AscentState(Prior.uniform(k), method, 0.1)


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: ClassRisks([0.1, 0.2], [10]), "equal length", id="risks-length"),
        pytest.param(lambda: ClassRisks([1.5, 0.2], [10, 10]), r"lie in \[0, 1\]",
                     id="risks-range"),
        pytest.param(lambda: ClassRisks([np.nan, 0.5], [1, 1]), r"lie in \[0, 1\]",
                     id="risks-nan"),
        pytest.param(lambda: ClassRisks([0.1, 0.2], [10, 0]), "at least one sample",
                     id="risks-count"),
        pytest.param(lambda: _state("sgd"), "unknown ascent method", id="state-method"),
        pytest.param(lambda: AscentState(Prior.uniform(2), "linear", 0.1, m_worst=3),
                     r"m_worst must be in \[1, 2\]", id="state-m_worst"),
        # M is "auto" or an integer: no other string, no float and no bool
        *[pytest.param(lambda m=m: AscentState(Prior.uniform(2), "linear", 0.1, m_worst=m),
                       "m_worst", id=f"state-m_worst-{m}") for m in ("all", 1.5, True)],
        *[pytest.param(lambda m=m: worst_m_indicator(_risks(0.5, 0.2), m), "m_worst",
                       id=f"indicator-m_worst-{m}") for m in (1.5, True)],
        pytest.param(lambda: linear_ascent_step(_state("ega"), Prior.uniform(2)), "not linear",
                     id="linear-step-on-ega"),
        pytest.param(lambda: ega_step(_state("linear"), _risks(0.1, 0.2)), "not ega",
                     id="ega-step-on-linear"),
        pytest.param(lambda: ega_step(_state("ega"), _risks(0.1, 0.2, 0.3)), "class count",
                     id="ega-step-class-count"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
