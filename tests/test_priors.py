import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimaxclf.priors import Prior, project_to_simplex


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


class TestProjection:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_to_simplex(v), v, atol=1e-15)

    def test_known_case(self):
        # shift of a simplex point projects back to it
        v = np.array([0.2, 0.3, 0.5]) + 7.0
        np.testing.assert_allclose(project_to_simplex(v), [0.2, 0.3, 0.5], atol=1e-12)

    def test_clipping(self):
        out = project_to_simplex(np.array([2.0, -1.0]))
        np.testing.assert_allclose(out, [1.0, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=9))
    def test_projection_properties(self, values):
        v = np.array(values)
        out = project_to_simplex(v)
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out >= 0)
        # projection is the closest simplex point: no corner is closer
        for i in range(v.size):
            corner = np.zeros(v.size)
            corner[i] = 1.0
            assert np.linalg.norm(v - out) <= np.linalg.norm(v - corner) + 1e-9


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: Prior([1.0]), "at least 2 classes", id="one-class"),
        pytest.param(lambda: Prior([np.nan, 1.0]), "non-finite", id="nan"),
        pytest.param(lambda: Prior.from_counts([0, 0]), "sum to zero", id="no-counts"),
        pytest.param(lambda: Prior.from_vector([-1.0, 2.0]), "cannot normalize",
                     id="negative-vector"),
        pytest.param(lambda: project_to_simplex(np.zeros((2, 2))), "1-d", id="project-2d"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
