import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimaxclf.data import LabeledDataset
from minimaxclf.priors import Prior, check_integers, check_probabilities

# 0, 1 and the subnormals at each width among the values
_FLOATS = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-310]), st.floats(0.0, 1.0))
_FLOAT32S = st.one_of(st.sampled_from([0.0, 1.0, 1e-45, 1e-40]), st.floats(0.0, 1.0, width=32))


def _entries(values):
    return st.lists(values, min_size=1, max_size=6)


@st.composite
def _probability_vectors(draw):
    """A valid vector of 1-6 entries: a list or tuple of Python numbers, or
    an int, float32 or float64 array."""
    kind = draw(st.sampled_from(["list", "tuple", "int", "float32", "float64"]))
    if kind == "int":
        dtype = draw(st.sampled_from([np.int8, np.uint8, np.int64]))
        return np.array(draw(_entries(st.integers(0, 1))), dtype=dtype)
    if kind == "float32":
        return np.array(draw(_entries(_FLOAT32S)), dtype=np.float32)
    values = draw(_entries(st.one_of(_FLOATS, st.integers(0, 1))))
    return {"list": values, "tuple": tuple(values), "float64": np.array(values)}[kind]


@settings(max_examples=300, deadline=None)
@given(_probability_vectors())
def test_valid_vector_kept_bit_for_bit(values):
    # what Prior and ClassRisks store is what np.asarray(v, dtype=np.float64)
    # made of it before they shared the rule, and never the caller's array
    checked = check_probabilities("v", values)
    assert checked.dtype == np.float64
    assert checked.tobytes() == np.asarray(values, dtype=np.float64).tobytes()
    assert not np.shares_memory(checked, values)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([list, tuple, np.int8, np.uint8, np.int32, np.uint32, np.int64]),
       _entries(st.integers(0, 127)))
def test_integer_vector_kept_bit_for_bit(kind, values):
    # labels and counts store what np.asarray(v, dtype=np.int64) made of an
    # integer vector before they applied the rule, whatever its integer type,
    # and an int64 array itself, uncopied, as then
    values = kind(values) if kind in (list, tuple) else np.array(values, dtype=kind)
    checked = check_integers("v", values)
    assert checked.dtype == np.int64
    assert checked.tobytes() == np.asarray(values, dtype=np.int64).tobytes()
    assert (checked is values) == (kind is np.int64)


def test_empty_integer_vector_accepted():
    # numpy reads [] as float64, but it holds no float: no labels are labels
    assert check_integers("labels", []).dtype == np.int64
    assert LabeledDataset(np.empty((0, 1)), [], 2).labels.size == 0


class TestPrior:
    def test_sum_tolerance(self):
        Prior(np.array([0.5, 0.5 + 5e-13]))
        with pytest.raises(ValueError, match="sums to"):
            Prior(np.array([0.5, 0.6]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=r"prior must .* lie in \[0, 1\]"):
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
        pytest.param(lambda: Prior([1.0]), "prior must be a 1-d vector of at least 2",
                     id="one-class"),
        pytest.param(lambda: Prior([np.nan, 1.0]), r"prior must .* lie in \[0, 1\]", id="nan"),
        # real numbers only: numpy would read a bool as 0 or 1
        pytest.param(lambda: Prior([True, False]), "prior must be", id="bool"),
        pytest.param(lambda: Prior([True, 0.0]), "prior must be", id="mixed-bool"),
        pytest.param(lambda: Prior(["0.5", "0.5"]), "prior must be", id="str"),
        pytest.param(lambda: Prior([[0.5], [0.2, 0.3]]), "prior must be", id="ragged"),
        pytest.param(lambda: Prior.from_counts([0, 0]), "sum to zero", id="no-counts"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
