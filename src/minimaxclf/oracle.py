"""Bayes-optimal reference machinery for Gaussian mixtures.

For one-dimensional mixtures with a shared variance the class scores are
lines in x, so decision regions are intervals and per-class risks reduce to
normal CDF differences; everything else falls back to seeded Monte Carlo.
The total risk of the Bayes rule is concave in the prior, and its
supergradient at pi is the vector of per-class risks, which drives the
projected-ascent search for the adversarial prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ascent import ClassRisks
from .data import MixtureSpec, sample_mixture
from .priors import Prior, project_to_simplex

GRID = "grid"
ASCENT = "ascent"
AUTO = "auto"

MIN_MC_SAMPLES = 10_000

# Instances per block of the density and argmax passes; their scratch
# memory is one block's, whatever the sample size.
_BLOCK_ROWS = 8192


def class_log_densities(spec: MixtureSpec, x: np.ndarray) -> np.ndarray:
    """(N, K) matrix of log N(x; mu_y, Sigma_y).

    The result, one N x K float64 matrix (80 MB for the circle-10 oracle
    search), is the only N-sized allocation: each class fills its row of a
    class-major (K, N) buffer one block of ``_BLOCK_ROWS`` instances at a
    time, so the scratch memory is one block's. The returned matrix is the
    transpose of that buffer.

    Each class is whitened once, by the inverse of its Cholesky factor L,
    and a block's Mahalanobis terms are the squared norms of
    ``inv(L) @ (x - mu)``. For an identity covariance ``inv(L)`` is exactly
    the identity and the product adds no rounding, so the densities equal
    those of a solve against L bit for bit; for other covariances they
    agree with an exact evaluation to about 1e-13.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != spec.dim:
        raise ValueError(f"instances must be (N, {spec.dim}), got {x.shape}")
    n = x.shape[0]
    out = np.empty((spec.class_count, n))
    const = spec.dim * math.log(2.0 * math.pi)
    for y in range(spec.class_count):
        chol = np.linalg.cholesky(spec.covariances[y])
        whiten = np.linalg.inv(chol)
        mean = spec.means[y][:, None]
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        for start in range(0, n, _BLOCK_ROWS):
            sol = whiten @ (x[start : start + _BLOCK_ROWS].T - mean)
            maha = np.sum(sol**2, axis=0)
            out[y, start : start + _BLOCK_ROWS] = -0.5 * (const + logdet + maha)
    return out.T


def _log_prior(pi: Prior) -> np.ndarray:
    p = pi.p
    return np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), -np.inf)


def _bayes_argmax(log_densities: np.ndarray, pi: Prior) -> np.ndarray:
    """argmax_y [ln pi_y + ln p(x|y)] of each row of the (N, K) log
    densities, smallest index on a tie, one block of rows at a time.

    The scores are walked class by class along ``log_densities.T``, the
    class-major buffer of ``class_log_densities``, keeping a running best;
    a class takes a row only if it scores strictly higher, as ``np.argmax``
    decides. Each score is the same sum as in the full score matrix, so the
    predictions equal its argmax exactly. The scratch is three block-length
    vectors.
    """
    n, k = log_densities.shape
    by_class = log_densities.T
    log_prior = _log_prior(pi)
    predictions = np.zeros(n, dtype=np.intp)
    rows = min(n, _BLOCK_ROWS)
    best, score, wins = np.empty(rows), np.empty(rows), np.empty(rows, dtype=np.intp)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block = predictions[start:stop]
        top, cand, won = best[: stop - start], score[: stop - start], wins[: stop - start]
        np.add(by_class[0, start:stop], log_prior[0], out=top)
        for y in range(1, k):
            np.add(by_class[y, start:stop], log_prior[y], out=cand)
            np.greater(cand, top, out=won)
            # every index in the block is below y, so this sets y where it won
            np.multiply(won, y, out=won)
            np.maximum(block, won, out=block)
            np.maximum(top, cand, out=top)
    return predictions


def bayes_predict(spec: MixtureSpec, pi: Prior, x: np.ndarray) -> np.ndarray:
    """argmax_y [ln pi_y + ln p(x|y)] with smallest-index tie-break."""
    return _bayes_argmax(class_log_densities(spec, x), pi)


def _shared_sigma_1d(spec: MixtureSpec):
    """Common standard deviation if the mixture is 1-d with one shared
    variance, else None."""
    if spec.dim != 1:
        return None
    variances = spec.covariances[:, 0, 0]
    if np.allclose(variances, variances[0], rtol=1e-12, atol=0.0):
        return float(np.sqrt(variances[0]))
    return None


def _exact_risks_1d(means: np.ndarray, sigma: float, p: np.ndarray) -> np.ndarray:
    """(G, K) per-class Bayes risks at each row of the (G, K) priors ``p``,
    for a 1-d shared-variance mixture.

    The class scores are lines a_y x + c_y with a_y = mu_y / sigma^2, so
    class y wins on an interval: right of its crossing with every line of
    smaller slope, left of its crossing with every line of larger slope. Of
    two parallel lines the larger intercept wins everywhere, the smaller
    index on an exact tie (as in ``bayes_predict``). A class with zero prior
    mass or an empty interval has risk 1.
    """
    # imported here so that only the exact 1-d risks pay for loading scipy
    from scipy.special import ndtr

    k = means.size
    slopes = means / sigma**2
    # one contiguous row per class, so each update below is over the G priors
    p = np.ascontiguousarray(p.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.log(p) - (means**2 / (2.0 * sigma**2))[:, None]
        lo = np.full(p.shape, -np.inf)
        hi = np.full(p.shape, np.inf)
        wins = p > 0
        for y in range(k):
            for j in range(k):
                if slopes[j] < slopes[y]:
                    np.maximum(lo[y], (c[j] - c[y]) / (slopes[y] - slopes[j]), out=lo[y])
                elif slopes[j] > slopes[y]:
                    np.minimum(hi[y], (c[y] - c[j]) / (slopes[j] - slopes[y]), out=hi[y])
                elif j != y:
                    wins[y] &= (c[y] > c[j]) if j < y else (c[y] >= c[j])
        mu = means[:, None]
        mass = ndtr((hi - mu) / sigma) - ndtr((lo - mu) / sigma)
        return np.where(wins & (lo < hi), 1.0 - mass, 1.0).T


class BayesOracle:
    """Per-class Bayes risks of one mixture at any prior.

    Exact (normal CDF) for 1-d shared-variance mixtures. Otherwise the
    seeded Monte Carlo sample, with ``mc_samples`` points per class and
    independent seed streams, and its (N, K) class log-density matrix are
    built once here; they do not depend on the prior, so each ``risks``
    call is one argmax. The oracle holds that one N x K float64 matrix for
    its lifetime (80 MB for the circle-10 search: 10^6 rows, K = 10).
    Building it and each ``risks`` call need scratch memory for one block
    of ``_BLOCK_ROWS`` rows only, besides one N-length prediction vector.
    """

    def __init__(self, spec: MixtureSpec, mc_samples: int = 100_000, seed: int = 0) -> None:
        self.spec = spec
        self.sigma = _shared_sigma_1d(spec)
        if self.sigma is not None:
            return
        if mc_samples < MIN_MC_SAMPLES:
            raise ValueError(f"no closed form for this mixture; need mc_samples >= {MIN_MC_SAMPLES}")
        self.counts = np.full(spec.class_count, int(mc_samples), dtype=np.int64)
        ds = sample_mixture(spec, self.counts, seed)
        self.labels = ds.labels
        self.log_densities = class_log_densities(spec, ds.instances)

    def risks(self, pi: Prior) -> ClassRisks:
        """Per-class error rates of the Bayes rule at prior ``pi``."""
        k = self.spec.class_count
        if pi.class_count != k:
            raise ValueError("prior does not match the mixture's class count")
        if self.sigma is not None:
            risks = _exact_risks_1d(self.spec.means[:, 0], self.sigma, pi.p[None, :])[0]
            return ClassRisks(risks, np.ones(k, dtype=np.int64), exact=True)
        predictions = _bayes_argmax(self.log_densities, pi)
        # sample_mixture lays the classes out in order, each a contiguous run
        # of mc_samples rows, so row y of this (K, mc_samples) view holds
        # exactly class y's comparisons
        wrong = (predictions != self.labels).reshape(k, -1)
        errors = np.count_nonzero(wrong, axis=1)
        return ClassRisks(errors / self.counts, self.counts)

    def total_risk(self, pi: Prior) -> float:
        """R(pi) = sum_y pi_y P_e(y) for the Bayes rule at pi."""
        return float(np.dot(pi.p, self.risks(pi).estimates))


def bayes_class_risks(
    spec: MixtureSpec, pi: Prior, mc_samples: int = 100_000, seed: int = 0
) -> ClassRisks:
    """Per-class error rates of the Bayes rule at prior ``pi`` (see
    ``BayesOracle``)."""
    return BayesOracle(spec, mc_samples, seed).risks(pi)


def bayes_total_risk(
    spec: MixtureSpec, pi: Prior, mc_samples: int = 100_000, seed: int = 0
) -> float:
    """R(pi) = sum_y pi_y P_e(y) for the Bayes rule at pi."""
    return BayesOracle(spec, mc_samples, seed).total_risk(pi)


def _simplex_grid(k: int, resolution: float) -> np.ndarray:
    steps = int(round(1.0 / resolution))
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
    converged: bool
    iterations: int
    risks: ClassRisks  # per-class Bayes risks at ``prior``


def adversarial_prior_search(
    spec: MixtureSpec,
    method: str = AUTO,
    resolution: float = 1e-3,
    iterations: int = 2000,
    step_scale: float = 0.1,
    mc_samples: int = 100_000,
    seed: int = 0,
) -> SearchResult:
    """Maximize the concave R(pi) over the simplex.

    Grid search enumerates the simplex at ``resolution`` (K <= 3 only);
    supergradient ascent iterates pi <- project(pi + (c/sqrt t) risks(pi)),
    valid because the risk vector is a supergradient of R. One
    ``BayesOracle`` serves every risk evaluation of the search. ``auto``
    takes the grid only where the risks have a closed form (K <= 3, 1-d,
    shared variance); elsewhere each grid point would be a Monte Carlo
    argmax, so it takes the ascent.
    """
    k = spec.class_count
    if method == AUTO:
        method = GRID if k <= 3 and _shared_sigma_1d(spec) is not None else ASCENT
    if method == GRID:
        if k > 3:
            raise ValueError("grid search supports K <= 3; use method='ascent'")
        oracle = BayesOracle(spec, mc_samples, seed)
        grid = _simplex_grid(k, resolution)
        if oracle.sigma is not None:
            risks = _exact_risks_1d(spec.means[:, 0], oracle.sigma, grid)
            values = np.einsum("gk,gk->g", grid, risks)
        else:
            values = np.array([oracle.total_risk(Prior(g)) for g in grid])
        best = int(np.argmax(values))
        prior = Prior(grid[best])
        risks = oracle.risks(prior)
        return SearchResult(
            prior=prior,
            risk=float(np.dot(prior.p, risks.estimates)),
            method=GRID,
            converged=True,
            iterations=len(grid),
            risks=risks,
        )
    if method != ASCENT:
        raise ValueError(f"unknown search method {method!r}")
    if iterations < 1:
        raise ValueError(f"ascent needs iterations >= 1, got {iterations}")
    oracle = BayesOracle(spec, mc_samples, seed)
    pi = np.full(k, 1.0 / k)
    best_risk = -np.inf
    last_improvement = 0
    for t in range(1, iterations + 1):
        risks = oracle.risks(Prior(pi))
        value = float(np.dot(pi, risks.estimates))
        if value > best_risk:
            best_risk = value
            best_pi = pi.copy()
            best_risks = risks
            last_improvement = t
        pi = project_to_simplex(pi + step_scale / math.sqrt(t) * risks.estimates)
    # flagged as unconverged if the best point still moved late in the run
    converged = last_improvement <= max(1, int(0.75 * iterations))
    return SearchResult(
        prior=Prior(best_pi),
        risk=best_risk,
        method=ASCENT,
        converged=converged,
        iterations=iterations,
        risks=best_risks,
    )
