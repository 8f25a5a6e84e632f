"""Points on the class-probability simplex."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SIMPLEX_ATOL = 1e-12


def check_probabilities(name: str, values, least: int = 1) -> np.ndarray:
    """``values`` as a float64 copy, bit for bit, once it is a 1-d vector of
    at least ``least`` real numbers in [0, 1], none a bool nor a string; a
    ``ValueError`` naming ``name`` otherwise."""
    v = np.asarray(values)
    # numpy makes floats of a list that mixes in a bool: only its entries tell
    valid = v.ndim == 1 and v.size >= least and v.dtype.kind in "iuf" and (
        isinstance(values, np.ndarray) or not any(isinstance(x, (bool, np.bool_)) for x in values))
    if valid:
        v = v.astype(np.float64)
    if not (valid and np.all((v >= 0) & (v <= 1))):  # NaN fails both comparisons
        raise ValueError(f"{name} must be a 1-d vector of at least {least} real numbers that "
                         f"lie in [0, 1], none a bool nor a string; got {values!r}")
    return v


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

