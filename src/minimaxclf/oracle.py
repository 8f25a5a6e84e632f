"""Bayes-optimal reference machinery for Gaussian mixtures N(mu_y, sigma^2 I).

The per-class risks are exact. All classes share one covariance, so the
class scores are linear in x. For a 1-d mixture the Bayes regions are
intervals and the risks are normal CDF differences. For a 2-d mixture each
region is a convex polygon and its Gaussian mass a sum of one-dimensional
integrals, one per edge; dividing the means by sigma turns sigma^2 I into
the identity without moving a region's mass. Higher dimensions are rejected.
The total risk R(pi) of the Bayes rule is concave in the prior, and its
supergradient at pi is the vector r of per-class risks. So the training
loop's linear ascent toward the worst class is a Frank-Wolfe step on R,
and it searches for the adversarial prior; the Frank-Wolfe gap
max_y r_y - R(pi) bounds R* - R(pi) from above, and the search stops once
the gap is at most ``GAP_TOLERANCE``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ascent import LINEAR_ASCENT, AscentState, ClassRisks, ascent_step
from .data import MixtureSpec
from .priors import Prior

GRID = "grid"
ASCENT = "ascent"
AUTO = "auto"

# The exact 2-d risks: each Bayes polygon is clipped to a square of
# half-width _BOX about its class mean (the N(0, I) mass outside it
# underflows), and each edge is integrated by _PANEL_NODES-point
# Gauss-Legendre panels split at +-_PANEL_BREAKS within |s| <= _TAIL.
_BOX = 40.0
_PANEL_BREAKS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0)
_PANEL_NODES = 20
_TAIL = _PANEL_BREAKS[-1]

# The ascent stops at the first prior whose Frank-Wolfe gap is at most this:
# about 350 times the largest gap that rounding leaves at the uniform prior
# of a circle mixture, its optimum (2.9e-15 over K = 3..16 and radius 0.5 to
# 8 in steps of 0.25).
GAP_TOLERANCE = 1e-12

# The finest grid steps by 1 / 2000: at K = 3 that is 2,003,001 priors, and
# the vectorized 1-d risk call over them peaks at about 415 MB.
MAX_GRID_STEPS = 2000


def _log_prior(pi: Prior) -> np.ndarray:
    p = pi.p
    return np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), -np.inf)


def bayes_predict(spec: MixtureSpec, pi: Prior, x: np.ndarray) -> np.ndarray:
    """argmax_y [ln pi_y - |x - mu_y|^2 / (2 sigma^2)] of each row of the
    (N, d) instances ``x``, as the argmin of |x - mu_y|^2 - |x - mu_r|^2 +
    2 sigma^2 g_y, with g_y = max ln pi - ln pi_y and r a class of the largest
    prior: no sigma makes a term overflow or vanish unseen. The distance
    difference, (mu_r - mu_y) . ((x - mu_y) + (x - mu_r)), neither cancels
    near the means nor loses their spacing far from them. Of equal values,
    as where 2 sigma^2 g_y underflows, the larger prior wins, then the
    smaller index. ``ValueError`` where a value is NaN (an instance near the
    largest float)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != spec.dim:
        raise ValueError(f"instances must be (N, {spec.dim}), got {x.shape}")
    log_prior = _log_prior(pi)
    gap = log_prior.max() - log_prior
    r = int(np.argmin(gap))
    values = np.zeros((x.shape[0], spec.class_count))
    with np.errstate(over="ignore", invalid="ignore"):
        # g_y = 0 adds nothing, even at an infinite sigma^2; a zero prior adds inf
        prior_term = np.where(gap > 0, 2.0 * spec.sigma * spec.sigma * gap, 0.0)
        prior_term[gap == np.inf] = np.inf
        for y in range(spec.class_count):
            if y != r:
                paired = (x - spec.means[y]) + (x - spec.means[r])
                values[:, y] = paired @ (spec.means[r] - spec.means[y]) + prior_term[y]
    if np.isnan(values).any():
        raise ValueError("instances too large: a class score difference is NaN")
    best = values == values.min(axis=1, keepdims=True)
    return np.argmin(np.where(best, gap, np.inf), axis=1)


def _exact_risks_1d(means: np.ndarray, sigma: float, p: np.ndarray) -> np.ndarray:
    """(G, K) per-class Bayes risks at each row of the (G, K) priors ``p``,
    for a 1-d mixture of standard deviation ``sigma``.

    In its standardized coordinate u = (x - mu_y) / sigma, class y beats
    class j where a u <= a^2 + (ln pi_y - ln pi_j) / 2, a = (mu_j - mu_y) /
    (2 sigma): left of a + (ln pi_y - ln pi_j) / (2 a) where a > 0, right of
    it where a < 0. No intercept, sigma^2 or mu^2 is formed, so nothing
    overflows, and no log-prior term is rounded away beside a large mean.
    Where a = 0 (equal means, or a spacing that underflows against sigma)
    the larger prior wins, the smaller index on an exact tie (as in
    ``bayes_predict``). A class j of zero prior never wins, so the NaN of
    its bound is dropped. A class with zero prior mass or an empty interval
    has risk 1.
    """
    # imported here so that only the exact 1-d risks pay for loading scipy
    from scipy.special import ndtr

    mu = means.tolist()
    # one contiguous row per class, so each update below is over the G priors
    p = np.ascontiguousarray(p.T)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        half_log = 0.5 * np.log(p)
        lo = np.full(p.shape, -np.inf)
        hi = np.full(p.shape, np.inf)
        wins = p > 0
        for y in range(len(mu)):
            for j in range(len(mu)):
                if j == y:
                    continue
                gap = mu[j] - mu[y]
                # where the difference overflows, halving first is exact
                a = gap / sigma * 0.5 if math.isfinite(gap) else (0.5 * mu[j] - 0.5 * mu[y]) / sigma
                if a == 0.0:
                    wins[y] &= half_log[y] > half_log[j] if j < y else half_log[y] >= half_log[j]
                    continue
                bound = (half_log[y] - half_log[j]) / a + a
                if a > 0.0:
                    np.fmin(hi[y], bound, out=hi[y])
                else:
                    np.fmax(lo[y], bound, out=lo[y])
        return np.where(wins & (lo < hi), 1.0 - (ndtr(hi) - ndtr(lo)), 1.0).T


# The positive roots of the Legendre polynomial P_20 and their Gauss weights,
# descending from the root nearest 1; see ``_panel_rule``.
_POSITIVE_NODES = (
    0.9931285991850949, 0.9639719272779138, 0.912234428251326, 0.8391169718222189,
    0.7463319064601508, 0.636053680726515, 0.5108670019508271, 0.37370608871541955,
    0.2277858511416451, 0.07652652113349734,
)
_POSITIVE_WEIGHTS = (
    0.017614007139152264, 0.04060142980038705, 0.06267204833410904, 0.08327674157670474,
    0.10193011981724048, 0.11819453196151831, 0.1316886384491765, 0.14209610931838215,
    0.14917298647260382, 0.15275338713072598,
)


@functools.cache
def _panel_rule():
    """Panel breakpoints along an edge, and the ``_PANEL_NODES``-point
    Gauss-Legendre nodes and weights on [-1, 1], built on first use.

    The nodes come in pairs +-x, so the table holds the positive half. Its
    doubles are those that Newton's method on the three-term Legendre
    recurrence returns from Chebyshev guesses in five steps (Press et al.,
    Numerical Recipes, 3rd ed., sec. 4.6), printed with ``repr``; they are
    not ``leggauss(20)``'s, which differ in the last bits of 6 nodes and of
    every weight. ``tests/test_oracle.py`` checks them bit for bit against
    that Newton solve, against ``leggauss`` within 1e-14, and against the
    moments of x^(2j) for j = 0..19.
    """
    x = np.array(_POSITIVE_NODES)
    weights = np.array(_POSITIVE_WEIGHTS)
    # ascending, the negative nodes come first
    nodes = np.concatenate([-x, x[::-1]])
    weights = np.concatenate([weights, weights[::-1]])
    half = np.array(_PANEL_BREAKS)
    return np.concatenate([-half[:0:-1], half]), nodes, weights


def _fan_masses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(E,) N(0, I) masses of the triangles (0, a_e, b_e), each signed:
    positive where the triangle turns counter-clockwise.

    With s the coordinate along the edge's line, from the foot of the
    perpendicular from 0, and h the signed distance of that line, the mass
    is the integral of h (1 - exp(-(h^2 + s^2) / 2)) / (h^2 + s^2) / (2 pi)
    over the edge's s-interval. The integrand is smooth in s even where the
    line passes close to 0, which a rule in the angle is not. Within
    |s| <= ``_TAIL`` it is integrated by Gauss-Legendre panels, only over
    the panels the edge crosses (at circle-10's uniform prior, 579 of the 972
    edge-panel pairs are empty); beyond, the radial CDF is 1 to double precision and
    the integral is the angle the edge subtends. Each panel's node sum is a
    row reduction, whose bits do not depend on how many panels are
    integrated.
    """
    breaks, nodes, weights = _panel_rule()
    edge = b - a
    length = np.hypot(edge[:, 0], edge[:, 1])
    # a zero-length edge (a clipped vertex counted twice) gets h = 0: no mass
    u = edge / np.where(length > 0, length, 1.0)[:, None]
    h = a[:, 0] * u[:, 1] - a[:, 1] * u[:, 0]
    lo = a[:, 0] * u[:, 0] + a[:, 1] * u[:, 1]
    hi = lo + length
    # the part of [lo, hi] inside each panel, (E, P)
    left = np.clip(lo[:, None], breaks[:-1], breaks[1:])
    half = 0.5 * (np.clip(hi[:, None], breaks[:-1], breaks[1:]) - left)
    edges, panels = np.nonzero(half)
    width = half[edges, panels]
    s = (left[edges, panels] + width)[:, None] + width[:, None] * nodes
    q = h[edges, None] ** 2 + s**2
    radial = np.divide(-np.expm1(-0.5 * q), q, out=np.full(q.shape, 0.5), where=q > 0)
    crossed = np.zeros(half.shape)
    crossed[edges, panels] = (radial * weights).sum(axis=1) * width
    near = h * crossed.sum(axis=1)
    # atan(t / h) - atan(lo / h) for lo, t on one side of the tail cut-off
    below, above = np.minimum(hi, -_TAIL), np.maximum(lo, _TAIL)
    far = np.where(lo < -_TAIL, np.arctan2(h * (below - lo), h * h + lo * below), 0.0)
    far += np.where(hi > _TAIL, np.arctan2(h * (hi - above), h * h + hi * above), 0.0)
    return (near + far) / (2.0 * math.pi)


def _clip(polygon: list, nx: float, ny: float, c: float) -> list:
    """The part of a convex polygon (a vertex list) where nx x + ny y <= c."""
    out = []
    prev = polygon[-1]
    f_prev = nx * prev[0] + ny * prev[1] - c
    for cur in polygon:
        f = nx * cur[0] + ny * cur[1] - c
        if (f <= 0) != (f_prev <= 0):
            t = f_prev / (f_prev - f)
            out.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
        if f <= 0:
            out.append(cur)
        prev, f_prev = cur, f
    return out


def _bayes_region(means: list, log_prior: list, y: int) -> list:
    """Class y's Bayes region of a 2-d mixture of unit variance: its
    vertices, counter-clockwise, in coordinates centred on mu_y.

    The score of class j is linear, mu_j . x - |mu_j|^2 / 2 + ln pi_j, so y
    wins on the half-planes d . x <= |d|^2 / 2 + ln pi_y - ln pi_j, with
    d = mu_j - mu_y and x measured from mu_y, over every class j of nonzero
    prior: a convex polygon, clipped to the square of half-width ``_BOX``.
    Where d = 0 the half-plane is the whole plane or empty, and on an exact
    tie the smaller index wins, as in ``bayes_predict``.
    """
    polygon = [(-_BOX, -_BOX), (_BOX, -_BOX), (_BOX, _BOX), (-_BOX, _BOX)]
    mx, my = means[y]
    for j, (jx, jy) in enumerate(means):
        if j == y or log_prior[j] == -math.inf:
            continue
        dx, dy = jx - mx, jy - my
        c = 0.5 * (dx * dx + dy * dy) + log_prior[y] - log_prior[j]
        if dx == 0.0 and dy == 0.0:
            if c < 0 or (c == 0 and j < y):
                return []
            continue
        polygon = _clip(polygon, dx, dy, c)
        if not polygon:
            return []
    return polygon


def _exact_risks_2d(means: np.ndarray, pi: Prior) -> np.ndarray:
    """(K,) per-class Bayes risks at prior ``pi`` of the 2-d mixture
    N(mu_y, I) with the (K, 2) ``means``: 1 minus the mass of class y's
    polygon, a fan of triangles from mu_y, one per edge. A class with
    zero prior mass or an empty polygon has risk 1. Masses summed to 1 plus
    a rounding error are clipped, so a risk stays in [0, 1].
    """
    k = len(means)
    points = means.tolist()
    log_prior = _log_prior(pi).tolist()
    starts, ends, owner = [], [], []
    for y in range(k):
        if pi.p[y] > 0:
            region = _bayes_region(points, log_prior, y)
            starts += region
            # the polygon's vertices rotated by one: its edges' end points
            ends += region[1:] + region[:1]
            owner += [y] * len(region)
    a = np.array(starts).reshape(-1, 2)
    b = np.array(ends).reshape(-1, 2)
    mass = np.bincount(np.array(owner, dtype=np.intp), _fan_masses(a, b), minlength=k)
    return np.clip(1.0 - mass, 0.0, 1.0)


def bayes_class_risks(spec: MixtureSpec, pi: Prior) -> ClassRisks:
    """Per-class error rates of the Bayes rule at prior ``pi``, exact:
    normal CDFs over intervals for a 1-d mixture, polygon masses for a 2-d
    one. A mixture of higher dimension raises ``ValueError``."""
    k = spec.class_count
    if pi.class_count != k:
        raise ValueError("prior does not match the mixture's class count")
    if spec.dim == 1:
        risks = _exact_risks_1d(spec.means[:, 0], spec.sigma, pi.p[None, :])[0]
    elif spec.dim == 2:
        risks = _exact_risks_2d(spec.means / spec.sigma, pi)
    else:
        raise ValueError(
            f"no exact Bayes risks for a {spec.dim}-d mixture: the oracle needs 1-d or 2-d"
        )
    return ClassRisks(risks, np.ones(k, dtype=np.int64), exact=True)


def bayes_total_risk(spec: MixtureSpec, pi: Prior) -> float:
    """R(pi) = sum_y pi_y P_e(y) for the Bayes rule at pi."""
    return float(np.dot(pi.p, bayes_class_risks(spec, pi).estimates))


def grid_steps(resolution: float) -> int | None:
    """The integer n <= ``MAX_GRID_STEPS`` with ``resolution`` = 1 / n to
    within a relative 1e-9, or None where there is none."""
    inverse = 1.0 / resolution
    if not inverse <= MAX_GRID_STEPS + 0.5:
        return None
    steps = round(inverse)
    return steps if abs(steps * resolution - 1.0) <= 1e-9 else None


def _simplex_grid(k: int, resolution: float) -> np.ndarray:
    steps = grid_steps(resolution)
    if steps is None:
        raise ValueError(
            f"grid resolution must be 1 / n for an integer n <= {MAX_GRID_STEPS}, got {resolution}"
        )
    if k == 2:
        i = np.arange(steps + 1)
        return np.stack([i, steps - i], axis=1) / steps
    if k == 3:
        i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        keep = i + j <= steps
        i, j = i[keep], j[keep]
        return np.stack([i, j, steps - i - j], axis=1) / steps
    raise ValueError("exhaustive simplex grid supported for K <= 3 only")


@dataclass(frozen=True)
class SearchResult:
    prior: Prior
    risk: float
    method: str
    iterations: int  # the ascent's cap, or the grid's size
    evaluations: int  # the priors evaluated: up to the cap, or the grid's size
    risks: ClassRisks  # per-class Bayes risks at ``prior``

    @property
    def gap(self) -> float:
        """The Frank-Wolfe gap max_y r_y - risk at ``prior``: an upper bound
        on R* - risk."""
        return float(self.risks.estimates.max()) - self.risk


def adversarial_prior_search(
    spec: MixtureSpec,
    method: str = AUTO,
    resolution: float = 1e-3,
    iterations: int = 2000,
) -> SearchResult:
    """Maximize the concave R(pi) over the simplex.

    Grid search is the closed form's: for a 1-d mixture with K <= 3, one
    vectorized call gives the risks of every prior of the simplex at
    ``resolution``, and the best one is evaluated once more for its result.
    Any other mixture raises ``ValueError``. The ascent is the training
    loop's linear ascent toward the worst class, a Frank-Wolfe step, with
    step 2 / (t + 2) at evaluation t. It stops at the first prior whose gap
    is at most ``GAP_TOLERANCE``, or after ``iterations`` evaluations, and
    returns the best prior evaluated; it is the only search of a 2-d
    mixture, where each prior is one polygon evaluation. ``auto`` takes the
    grid wherever it applies and the ascent elsewhere.
    """
    k = spec.class_count
    closed_form = k <= 3 and spec.dim == 1
    if method == AUTO:
        method = GRID if closed_form else ASCENT
    if method == GRID:
        if not closed_form:
            raise ValueError(
                f"grid search needs a 1-d mixture with K <= 3, got a {spec.dim}-d one"
                f" with K = {k}; use method='ascent'"
            )
        grid = _simplex_grid(k, resolution)
        table = _exact_risks_1d(spec.means[:, 0], spec.sigma, grid)
        best = int(np.argmax(np.einsum("gk,gk->g", grid, table)))
        prior = Prior(grid[best])
        risks = bayes_class_risks(spec, prior)
        total = float(np.dot(prior.p, risks.estimates))
        return SearchResult(prior, total, GRID, len(grid), len(grid), risks)
    if method != ASCENT:
        raise ValueError(f"unknown search method {method!r}")
    if iterations < 1:
        raise ValueError(f"ascent needs iterations >= 1, got {iterations}")
    # the step 2 / (t + 2) is set before each step; 2/3 is its first value
    state = AscentState(Prior.uniform(k), LINEAR_ASCENT, 2.0 / 3.0)
    best_risk = -np.inf
    for t in range(1, iterations + 1):
        risks = bayes_class_risks(spec, state.prior)
        value = float(np.dot(state.prior.p, risks.estimates))
        if value > best_risk:
            best_risk, best_prior, best_risks = value, state.prior, risks
        if float(risks.estimates.max()) - value <= GAP_TOLERANCE:
            break
        state.alpha = 2.0 / (t + 2)
        ascent_step(state, risks)
    return SearchResult(best_prior, best_risk, ASCENT, iterations, t, best_risks)
