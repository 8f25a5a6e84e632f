"""Points on the class-probability simplex."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SIMPLEX_ATOL = 1e-12


def _vector(name: str, values, dtype, what: str, least: int = 0) -> np.ndarray:
    """``values`` as an array once it is a 1-d vector of at least ``least``
    entries that cast to ``dtype`` safely, none a bool; a ``ValueError`` that
    ``name`` must be a 1-d vector of ``what`` otherwise."""
    try:
        v = np.asarray(values)
    except ValueError:  # ragged: numpy's message names no argument
        v = np.asarray(None)
    # numpy makes float64 of an empty list, and numbers of a list that mixes
    # in a bool: only its entries tell
    if not (v.ndim == 1 and v.size >= least and v.dtype != bool
            and (np.can_cast(v.dtype, dtype) or v.size == 0)
            and (isinstance(values, np.ndarray)
                 or not any(isinstance(x, (bool, np.bool_)) for x in values))):
        raise ValueError(f"{name} must be a 1-d vector of {what}; got {values!r}")
    return v


def check_probabilities(name: str, values, least: int = 1) -> np.ndarray:
    """``values`` as a float64 copy, bit for bit, once it is a 1-d vector of
    at least ``least`` real numbers in [0, 1], none a bool nor a string; a
    ``ValueError`` naming ``name`` otherwise."""
    what = f"at least {least} real numbers that lie in [0, 1], none a bool nor a string"
    v = _vector(name, values, np.float64, what, least).astype(np.float64)
    if not np.all((v >= 0) & (v <= 1)):  # NaN fails both comparisons
        raise ValueError(f"{name} must be a 1-d vector of {what}; got {values!r}")
    return v


def check_integers(name: str, values) -> np.ndarray:
    """``values`` as int64 with the same values (the array itself where it
    is one already), once it is a 1-d vector of integers, none a bool, a
    float nor a string; a ``ValueError`` naming ``name`` otherwise."""
    what = "integers, none a bool, a float nor a string"
    return np.asarray(_vector(name, values, np.int64, what), dtype=np.int64)


@dataclass(frozen=True)
class Prior:
    """A probability vector over the K classes.

    Coordinates must lie in [0, 1] and sum to one within ``SIMPLEX_ATOL``.
    The wrapped array is copied and made read-only at construction.
    """

    p: np.ndarray = field()

    def __post_init__(self) -> None:
        p = check_probabilities("prior", self.p, 2)
        if abs(float(p.sum()) - 1.0) > SIMPLEX_ATOL:
            raise ValueError(f"prior sums to {p.sum()!r}, expected 1 within {SIMPLEX_ATOL}")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def class_count(self) -> int:
        return int(self.p.size)

    @staticmethod
    def uniform(class_count: int) -> "Prior":
        return Prior(np.full(class_count, 1.0 / class_count))

    @staticmethod
    def from_counts(counts: np.ndarray) -> "Prior":
        """Empirical prior from realized per-class sample counts."""
        c = np.asarray(counts, dtype=np.float64)
        total = c.sum()
        if total <= 0:
            raise ValueError("counts sum to zero, empirical prior undefined")
        return Prior(c / total)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prior):
            return NotImplemented
        return np.array_equal(self.p, other.p)

    def __hash__(self) -> int:
        return hash(self.p.tobytes())

