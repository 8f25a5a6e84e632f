"""Target-prior updates: estimate per-class risks on held-out data, then move
the prior toward the adversary by linear ascent or exponentiated gradient.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import LabeledDataset
from .metrics import _class_hits
from .model import ModelParams
from .priors import Prior

LINEAR_ASCENT = "linear"
EGA = "ega"
_AUTO_M_MARGIN = 0.05


@dataclass(frozen=True)
class ClassRisks:
    """Per-class empirical error rates and the sample counts behind them."""

    estimates: np.ndarray  # (K,), values in [0, 1]
    counts: np.ndarray     # (K,), samples used per class
    exact: bool = False    # True when the estimates carry no sampling error

    def __post_init__(self) -> None:
        e = np.asarray(self.estimates, dtype=np.float64)
        c = np.asarray(self.counts, dtype=np.int64)
        if e.ndim != 1 or c.shape != e.shape:
            raise ValueError("estimates and counts must be 1-d vectors of equal length")
        if not np.all((e >= 0) & (e <= 1)):
            raise ValueError("risk estimates must lie in [0, 1]")
        if np.any(c < 1):
            raise ValueError("every class needs at least one sample")
        object.__setattr__(self, "estimates", e)
        object.__setattr__(self, "counts", c)

    @property
    def class_count(self) -> int:
        return int(self.estimates.size)

    def standard_errors(self) -> np.ndarray:
        if self.exact:
            return np.zeros(self.class_count)
        p = self.estimates
        return np.sqrt(p * (1.0 - p) / self.counts)


def _is_m(m_worst, k: int) -> bool:
    """An M of K classes: an integer in [1, K], numpy's included, not a bool."""
    return (isinstance(m_worst, numbers.Integral) and not isinstance(m_worst, bool)
            and 1 <= m_worst <= k)


@dataclass
class AscentState:
    """Mutable state of one prior-ascent run (single driver). Without a
    ``tie_rng`` a tie for the worst class goes to the smaller index;
    ``m_worst`` "auto" takes M = ``auto_m(risks)`` at each linear step."""

    prior: Prior
    method: str
    alpha: float
    m_worst: int | str = 1
    tie_rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.method not in (LINEAR_ASCENT, EGA):
            raise ValueError(f"unknown ascent method {self.method!r}")
        if self.method == LINEAR_ASCENT and not (0.0 < self.alpha < 1.0):
            raise ValueError(f"linear ascent needs alpha in (0, 1), got {self.alpha}")
        if self.method == EGA and self.alpha <= 0:
            raise ValueError(f"EGA needs alpha > 0, got {self.alpha}")
        k = self.prior.class_count
        if not (self.m_worst == "auto" or _is_m(self.m_worst, k)):
            raise ValueError(f"m_worst must be in [1, {k}], an integer, or 'auto';"
                             f" got {self.m_worst!r}")


def estimate_class_risks(params: ModelParams, dataset: LabeledDataset) -> ClassRisks:
    """Empirical per-class error rates of the model on the dataset."""
    correct, counts = _class_hits(params, dataset)
    return ClassRisks((counts - correct) / counts, counts)


def worst_m_indicator(
    risks: ClassRisks, m_worst: int, rng: Optional[np.random.Generator] = None
) -> Prior:
    """Uniform mass 1/M on the M classes with the largest risk estimates.

    Ties are broken by a random permutation drawn from ``rng``, so tied
    classes are selected with equal probability; without an ``rng`` the
    smaller index wins, as in the Bayes rule, and nothing is drawn.
    """
    k = risks.class_count
    if not _is_m(m_worst, k):
        raise ValueError(f"m_worst must be in [1, {k}], an integer; got {m_worst!r}")
    tiebreak = np.arange(k) if rng is None else rng.permutation(k)
    # primary key: risk descending; secondary: tie-break position
    order = np.lexsort((tiebreak, -risks.estimates))
    indicator = np.zeros(k)
    indicator[order[:m_worst]] = 1.0 / m_worst
    return Prior(indicator)


def auto_m(risks: ClassRisks) -> int:
    """Smallest M covering every class whose estimated risk is within 0.05
    of the worst one."""
    worst = float(risks.estimates.max())
    return int(np.count_nonzero(risks.estimates >= worst - _AUTO_M_MARGIN))


def linear_ascent_step(state: AscentState, indicator: Prior) -> Prior:
    """pi <- pi + alpha (indicator - pi)."""
    if state.method != LINEAR_ASCENT:
        raise ValueError(f"state method is {state.method!r}, not linear")
    p = state.prior.p + state.alpha * (indicator.p - state.prior.p)
    new = Prior(p / p.sum())
    state.prior = new
    return new


@np.errstate(all="ignore")  # an overflow or log(0) is handled below
def ega_step(state: AscentState, risks: ClassRisks) -> Prior:
    """pi_y <- pi_y exp(alpha risk_y), renormalized. Zero coordinates stay zero.
    Only weights that overflow are taken in log form, shifted by their maximum."""
    if state.method != EGA:
        raise ValueError(f"state method is {state.method!r}, not ega")
    if risks.class_count != state.prior.class_count:
        raise ValueError("risk vector does not match the prior's class count")
    w = state.prior.p * np.exp(state.alpha * risks.estimates)
    if not np.isfinite(w.sum()):
        log_w = np.log(state.prior.p) + state.alpha * risks.estimates  # -inf off the support
        w = np.exp(log_w - log_w.max())
    new = Prior(w / w.sum())
    state.prior = new
    return new


def ascent_step(state: AscentState, risks: ClassRisks) -> Prior:
    """Dispatch one update of either method from a risk vector."""
    if state.method == LINEAR_ASCENT:
        m_worst = auto_m(risks) if state.m_worst == "auto" else state.m_worst
        indicator = worst_m_indicator(risks, m_worst, state.tie_rng)
        return linear_ascent_step(state, indicator)
    return ega_step(state, risks)
