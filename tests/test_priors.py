import numpy as np
import pytest

from minimaxclf.priors import Prior


class TestPrior:
    def test_sum_tolerance(self):
        Prior(np.array([0.5, 0.5 + 5e-13]))
        with pytest.raises(ValueError, match="sums to"):
            Prior(np.array([0.5, 0.6]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Prior(np.array([1.2, -0.2]))

    def test_uniform_and_from_counts(self):
        assert np.allclose(Prior.uniform(4).p, 0.25)
        assert np.allclose(Prior.from_counts(np.array([3, 1])).p, [0.75, 0.25])

    def test_immutability(self):
        p = Prior(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.p[0] = 0.9

    def test_equality_and_hash(self):
        a = Prior(np.array([0.5, 0.5]))
        b = Prior(np.array([0.5, 0.5]))
        assert a == b
        assert hash(a) == hash(b)


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: Prior([1.0]), "at least 2 classes", id="one-class"),
        pytest.param(lambda: Prior([np.nan, 1.0]), "non-finite", id="nan"),
        pytest.param(lambda: Prior.from_counts([0, 0]), "sum to zero", id="no-counts"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
