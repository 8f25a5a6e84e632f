import numpy as np
import pytest

from minimaxclf.data import LabeledDataset
from minimaxclf.metrics import (
    balanced_accuracy,
    inter_intra_ratio,
    per_class_accuracies,
    worst_class_accuracy,
)
from minimaxclf.model import ModelParams


def _threshold_model():
    # predicts class 1 for x > 0
    return ModelParams("linear", (np.array([[-1.0, 1.0]]),), (np.zeros(2),))


class TestAccuracies:
    def test_perfect(self):
        x = np.array([[-5.0], [5.0]])
        ds = LabeledDataset(x, np.array([0, 1]), 2)
        worst, acc = worst_class_accuracy(_threshold_model(), ds)
        assert acc == 1.0
        assert balanced_accuracy(_threshold_model(), ds) == 1.0

    def test_forced_arithmetic(self):
        # class 0: 1 of 5 right; class 1: 4 of 5 right
        x0 = np.array([[-1.0]] * 1 + [[1.0]] * 4)
        x1 = np.array([[1.0]] * 4 + [[-1.0]] * 1)
        ds = LabeledDataset(np.vstack([x0, x1]), np.repeat([0, 1], 5), 2)
        worst, acc = worst_class_accuracy(_threshold_model(), ds)
        assert (worst, acc) == (0, pytest.approx(0.2))
        assert balanced_accuracy(_threshold_model(), ds) == pytest.approx(0.5)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 1))
        y = (x[:, 0] > 0).astype(int)
        y[:3] = 1 - y[:3]
        ds = LabeledDataset(x, y, 2)
        doubled = LabeledDataset(
            np.vstack([x, x[y == 0]]), np.concatenate([y, y[y == 0]]), 2
        )
        assert balanced_accuracy(_threshold_model(), ds) == pytest.approx(
            balanced_accuracy(_threshold_model(), doubled)
        )

    def test_worst_at_most_balanced_at_most_best(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 1))
        y = rng.integers(0, 2, size=200)
        ds = LabeledDataset(x, y, 2)
        accs = per_class_accuracies(_threshold_model(), ds)
        _, worst = worst_class_accuracy(_threshold_model(), ds)
        bal = balanced_accuracy(_threshold_model(), ds)
        assert worst <= bal <= accs.max()

    def test_random_predictor_hits_one_over_k(self):
        rng = np.random.default_rng(2)
        k, n = 4, 100_000
        x = rng.normal(size=(n, 8))
        y = rng.integers(0, k, size=n)
        params = ModelParams("linear", (rng.normal(size=(8, k)),), (np.zeros(k),))
        ds = LabeledDataset(x, y, k)
        bal = balanced_accuracy(params, ds)
        se = np.sqrt(0.25 / (n / k))
        assert abs(bal - 1.0 / k) < 3 * se

    def test_missing_class_rejected(self):
        ds = LabeledDataset(np.zeros((3, 1)), np.zeros(3, dtype=int), 2)
        with pytest.raises(ValueError, match="absent"):
            balanced_accuracy(_threshold_model(), ds)


class TestInterIntraRatio:
    def test_zero_spread_flagged_infinite(self):
        feats = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.0, 0.1]])
        labels = np.array([0, 0, 1, 1])
        ratios = inter_intra_ratio(feats, labels)
        assert np.isinf(ratios[0])
        assert np.isfinite(ratios[1])

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(60, 3))
        labels = rng.integers(0, 3, size=60)
        a = inter_intra_ratio(feats, labels)
        b = inter_intra_ratio(feats * 7.5, labels)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_unit_square_clusters(self):
        # mean distance of a 2-d standard normal to its center is
        # sqrt(pi/2) ~ 1.2533; sampling-oracle cross-check at 1e4 per class
        rng = np.random.default_rng(4)
        centers = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        n = 10_000
        feats = np.concatenate([c + rng.normal(size=(n, 2)) for c in centers])
        labels = np.repeat(np.arange(4), n)
        ratios = inter_intra_ratio(feats, labels)
        d_intra_expected = np.sqrt(np.pi / 2.0)
        for i in range(4):
            others = np.linalg.norm(centers - centers[i], axis=1)
            d_inter = np.sort(others)[1:4].mean()
            expected = d_inter / d_intra_expected
            assert abs(ratios[i] - expected) / expected < 0.02

    def test_neighbor_count_clipped_for_small_k(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(20, 2))
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        ratios = inter_intra_ratio(feats, labels)
        assert ratios.shape == (2,)

    def test_single_sample_class_rejected(self):
        feats = np.zeros((3, 2))
        labels = np.array([0, 0, 1])
        with pytest.raises(ValueError, match="2 samples"):
            inter_intra_ratio(feats, labels)


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: inter_intra_ratio(np.zeros((4, 2)), np.zeros(3)),
                     "matching labels", id="ratio-label-count"),
        pytest.param(lambda: inter_intra_ratio(np.zeros((4, 2)), np.zeros(4)),
                     "at least 2 classes", id="ratio-one-class"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
