"""Points on the class-probability simplex."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SIMPLEX_ATOL = 1e-12


@dataclass(frozen=True)
class Prior:
    """A probability vector over the K classes.

    Coordinates must be nonnegative and sum to one within ``SIMPLEX_ATOL``.
    The wrapped array is copied and made read-only at construction.
    """

    p: np.ndarray = field()

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64).copy()
        if p.ndim != 1 or p.size < 2:
            raise ValueError("prior must be a 1-d vector with at least 2 classes")
        if not np.all(np.isfinite(p)):
            raise ValueError("prior has non-finite entries")
        if np.any(p < 0):
            raise ValueError(f"prior has negative entries: {p[p < 0]}")
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

