import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from minimaxclf import oracle
from minimaxclf.ascent import LINEAR_ASCENT, AscentState, ClassRisks, ascent_step
from minimaxclf.data import (
    MixtureSpec,
    circle_mixture,
    sample_mixture,
    three_gaussians_1d,
    two_gaussians_1d,
)
from minimaxclf.oracle import (
    _log_prior,
    _simplex_grid,
    adversarial_prior_search,
    bayes_class_risks,
    bayes_predict,
    bayes_total_risk,
)
from minimaxclf.priors import Prior

PHI_1 = 0.841344746068543  # standard normal CDF at 1, 40-digit evaluation


def _prior(*values):
    return Prior(np.array(values, dtype=np.float64))


def _sample_risks(spec, pi, ds):
    """Reference: the per-class error rates of ``bayes_predict`` on the
    sample ``ds``, with their counts."""
    pred = bayes_predict(spec, pi, ds.instances)
    counts = ds.per_class_counts
    estimates = np.array([np.mean(pred[ds.class_indices(y)] != y) for y in range(len(counts))])
    return ClassRisks(estimates, counts)


def _full_log_densities(spec, x):
    """Reference: the (N, K) class log-density matrix, every class whitened
    by the inverse of the Cholesky factor of its covariance sigma^2 I."""
    out = np.empty((len(x), spec.class_count))
    const = spec.dim * math.log(2.0 * math.pi)
    chol = np.linalg.cholesky(spec.sigma**2 * np.eye(spec.dim))
    for y in range(spec.class_count):
        sol = np.linalg.inv(chol) @ (x.T - spec.means[y][:, None])
        maha = np.sum(sol**2, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, y] = -0.5 * (const + logdet + maha)
    return out


class TestBayesPredict:
    def test_symmetric_threshold_at_zero(self):
        spec = two_gaussians_1d()
        assert bayes_predict(spec, Prior.uniform(2), np.array([[0.3]]))[0] == 1
        assert bayes_predict(spec, Prior.uniform(2), np.array([[-0.3]]))[0] == 0

    def test_skewed_prior_moves_threshold(self):
        # threshold = 0.5 ln(pi_0/pi_1) = 0.5 ln 4 ~ 0.693
        spec = two_gaussians_1d()
        pi = _prior(0.8, 0.2)
        assert bayes_predict(spec, pi, np.array([[0.5]]))[0] == 0
        assert bayes_predict(spec, pi, np.array([[0.8]]))[0] == 1

    def test_one_hot_always_predicts_that_class(self):
        spec = three_gaussians_1d()
        pi = _prior(0.0, 0.0, 1.0)
        x = np.linspace(-5, 5, 17)[:, None]
        assert np.all(bayes_predict(spec, pi, x) == 2)

    def test_rescaling_invariance(self):
        spec = circle_mixture(4)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 2))
        v = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.array([2.0, 4.0, 6.0, 8.0])
        base = Prior(v / v.sum())
        same = Prior(w / w.sum())
        np.testing.assert_array_equal(
            bayes_predict(spec, base, x), bayes_predict(spec, same, x)
        )

    def test_tie_goes_to_smaller_index(self):
        # points on x = 0 are equidistant from both means; some sit at the
        # edges of a block
        spec = MixtureSpec(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        x = np.random.default_rng(0).normal(size=(20_000, 2))
        ties = [0, 8191, 8192, 16_383, 19_999]
        x[ties, 0] = 0.0
        predictions = bayes_predict(spec, Prior.uniform(2), x)
        assert np.all(predictions[ties] == 0)
        full = np.argmax(_full_log_densities(spec, x) + _log_prior(Prior.uniform(2)), axis=1)
        assert np.array_equal(predictions, full)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-160, 1.0, 1e150, 1e160, 1e300])
    def test_extreme_sigma_exact(self, sigma):
        # no score is divided by sigma^2: at a uniform prior the nearer mean
        # wins, near the means and far from them, with no warning
        spec = two_gaussians_1d(sigma=sigma)
        x = np.array([[-0.5], [0.5], [-3.0], [3.0], [-1e17], [1e17], [-1e300], [1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bayes_predict(spec, Prior.uniform(2), x).tolist() == [0, 1] * 4
            skewed = bayes_predict(spec, _prior(0.3, 0.7), np.array([[-0.5], [0.0], [-1e301]]))
        # class 0, nearer, wins while 2 sigma^2 ln(7/3) is below the distance
        # gap: 2 at -0.5, 4e301 at -1e301 (that term is inf above sigma 1e154);
        # on the midpoint the larger prior wins, even where the term underflows
        expected = [0 if sigma <= 1 else 1, 1, 0 if sigma <= 1e150 else 1]
        assert skewed.tolist() == expected

    def test_nan_score_raises(self):
        spec = circle_mixture(4)
        with pytest.raises(ValueError, match="NaN"):
            bayes_predict(spec, Prior.uniform(4), np.array([[1e308, 1e308]]))


class TestBayesRisks:
    def test_symmetric_closed_form(self):
        risks = bayes_class_risks(two_gaussians_1d(), Prior.uniform(2))
        np.testing.assert_allclose(risks.estimates, 1.0 - PHI_1, atol=1e-12)
        assert risks.exact

    def test_one_hot_zero_risk(self):
        risks = bayes_class_risks(two_gaussians_1d(), _prior(1.0, 0.0))
        assert risks.estimates[0] == 0.0
        assert risks.estimates[1] == 1.0

    def test_mc_agrees_with_closed_form(self):
        spec = two_gaussians_1d()
        pi = _prior(0.7, 0.3)
        exact = bayes_class_risks(spec, pi)
        # the Bayes rule's error rates on a sample of an equivalent 2-d embedding
        means = np.hstack([spec.means, np.zeros((2, 1))])
        planar = MixtureSpec(means)
        mc = _sample_risks(planar, pi, sample_mixture(planar, np.full(2, 100_000), 4))
        se = mc.standard_errors()
        assert np.all(np.abs(mc.estimates - exact.estimates) <= 4 * se + 1e-12)

    def test_means_far_from_zero_agree_with_sample(self):
        # bayes_predict ranks by distance differences, so a sample scored by
        # it sees the log-prior term that means near 1e8 would round away
        # from an intercept
        spec = MixtureSpec([[1e8 - 1], [1e8], [1e8 + 1]], 1.0)
        pi = _prior(0.2, 0.5, 0.3)
        exact = bayes_class_risks(spec, pi)
        mc = _sample_risks(spec, pi, sample_mixture(spec, np.full(3, 100_000), 6))
        se = mc.standard_errors()
        assert np.all(np.abs(mc.estimates - exact.estimates) <= 4 * se + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        quarters=st.lists(st.integers(-40, 40), min_size=2, max_size=5),
        sigma=st.floats(0.25, 4.0),
        weights=st.lists(st.integers(0, 9), min_size=5, max_size=5),
        shift=st.integers(-10**12, 10**12),
        log_scale=st.floats(-100.0, 100.0),
    )
    def test_1d_risks_move_with_the_means(self, quarters, sigma, weights, shift, log_scale):
        # the Bayes risks depend only on the means' spacing over sigma: a
        # translation (exact, on means that are multiples of 1/4) or a
        # common scale of means and sigma moves them by rounding alone
        means = np.array(quarters, dtype=np.float64)[:, None] / 4.0
        w = np.array(weights[: len(quarters)], dtype=np.float64) + (np.arange(len(quarters)) == 0)
        pi = Prior(w / w.sum())
        risks = bayes_class_risks(MixtureSpec(means, sigma), pi).estimates
        scale = 10.0**log_scale
        for moved in (MixtureSpec(means + shift, sigma), MixtureSpec(means * scale, sigma * scale)):
            np.testing.assert_allclose(bayes_class_risks(moved, pi).estimates, risks,
                                       rtol=0, atol=1e-12)

    def test_total_risk_properties(self):
        spec = two_gaussians_1d()
        assert bayes_total_risk(spec, _prior(1.0, 0.0)) == 0.0
        sym = bayes_total_risk(spec, Prior.uniform(2))
        assert sym == pytest.approx(1.0 - PHI_1, abs=1e-12)
        rng = np.random.default_rng(1)
        for _ in range(20):
            pi = Prior(rng.dirichlet([1, 1]))
            risks = bayes_class_risks(spec, pi)
            assert bayes_total_risk(spec, pi) <= risks.estimates.max() + 1e-12


class TestBayesOracle:
    def test_prior_length_checked(self):
        with pytest.raises(ValueError, match="class count"):
            bayes_class_risks(two_gaussians_1d(), Prior.uniform(3))


def _envelope_sweep_risks(means, sigma, pi):
    """Reference: the upper envelope of the class scores, built by a sweep
    over the means, one prior at a time. The break between two neighbours
    on the envelope is taken in each neighbour's own standardized
    coordinate, by the exact rule's expression."""
    k = means.size
    half_log = 0.5 * _log_prior(pi)

    def bound(y, j):
        # where class y stops beating class j, in (x - mu_y) / sigma
        a = (means[j] - means[y]) / sigma * 0.5
        return (half_log[y] - half_log[j]) / a + a

    active = [y for y in range(k) if pi.p[y] > 0]
    # for equal means only the largest prior can win, the smallest index on
    # an exact tie
    order = sorted(active, key=lambda y: (means[y], -half_log[y], y))
    filtered = []
    for y in order:
        if filtered and means[y] == means[filtered[-1]]:
            continue
        filtered.append(y)
    hull = []    # class indices on the envelope, means ascending
    breaks = []  # breaks[i] = x where hull[i+1] overtakes hull[i]
    for y in filtered:
        while hull:
            prev = hull[-1]
            bx = means[prev] + sigma * bound(prev, y)
            if breaks and bx <= breaks[-1]:
                hull.pop()
                breaks.pop()
            else:
                breaks.append(bx)
                break
        hull.append(y)
    risks = np.ones(k)
    for i, y in enumerate(hull):
        lo = bound(y, hull[i - 1]) if i > 0 else -np.inf
        hi = bound(y, hull[i + 1]) if i + 1 < len(hull) else np.inf
        risks[y] = 1.0 - (ndtr(hi) - ndtr(lo))
    return risks


class TestExactRisks:
    def test_matches_envelope_sweep(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            k = int(rng.integers(2, 8))
            means = rng.normal(scale=3, size=k)  # unsorted
            if trial % 2 == 0:
                means[rng.integers(k)] = means[rng.integers(k)]
            sigma = float(rng.uniform(0.5, 2.0))
            spec = MixtureSpec(means[:, None], sigma)
            for _ in range(10):
                p = rng.dirichlet(np.ones(k))
                if rng.random() < 0.5:
                    p[rng.integers(k)] = 0.0
                    p = p / p.sum()
                pi = Prior(p)
                expected = _envelope_sweep_risks(means, sigma, pi)
                assert np.array_equal(bayes_class_risks(spec, pi).estimates, expected)


class TestEnvelopeAgainstQuadrature:
    def test_random_mixtures(self):
        # independent oracle: integrate each class density over the regions
        # bayes_predict assigns on a dense grid
        from scipy.stats import norm

        rng = np.random.default_rng(0)
        for trial in range(12):
            k = int(rng.integers(2, 7))
            means = np.sort(rng.normal(scale=3, size=k))
            sigma = float(rng.uniform(0.5, 2.0))
            spec = MixtureSpec(means[:, None], sigma)
            p = rng.dirichlet(np.ones(k))
            if trial % 3 == 0:
                p[rng.integers(k)] = 0.0
                p = p / p.sum()
            pi = Prior(p)
            exact = bayes_class_risks(spec, pi).estimates
            xs = np.linspace(means.min() - 8 * sigma, means.max() + 8 * sigma, 80001)
            pred = bayes_predict(spec, pi, xs[:, None])
            for y in range(k):
                dens = norm.pdf(xs, means[y], sigma)
                mass = np.trapezoid(dens * (pred == y), xs)
                assert exact[y] == pytest.approx(1.0 - mass, abs=5e-4)


def _region_masses(spec, pi):
    """(K, K) N(mu_y, I) mass of class j's Bayes polygon at [y, j]."""
    k = spec.class_count
    points = spec.means.tolist()
    log_prior = _log_prior(pi).tolist()
    masses = np.zeros((k, k))
    for j in range(k):
        if pi.p[j] == 0:
            continue
        region = np.array(oracle._bayes_region(points, log_prior, j)).reshape(-1, 2)
        for y in range(k):
            # the polygon is centred on mu_j; shift it to be centred on mu_y
            a = region + spec.means[j] - spec.means[y]
            masses[y, j] = oracle._fan_masses(a, np.roll(a, -1, axis=0)).sum()
    return masses


def _full_panel_masses(a, b):
    """Reference: the fan masses of the edges (a_e, b_e) with every panel of
    every edge integrated, by numpy's Gauss-Legendre rule."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(oracle._PANEL_NODES)
    half_breaks = np.array(oracle._PANEL_BREAKS)
    breaks = np.concatenate([-half_breaks[:0:-1], half_breaks])
    edge = b - a
    length = np.hypot(edge[:, 0], edge[:, 1])
    u = edge / np.where(length > 0, length, 1.0)[:, None]
    h = a[:, 0] * u[:, 1] - a[:, 1] * u[:, 0]
    lo = a[:, 0] * u[:, 0] + a[:, 1] * u[:, 1]
    hi = lo + length
    left = np.clip(lo[:, None], breaks[:-1], breaks[1:])
    half = 0.5 * (np.clip(hi[:, None], breaks[:-1], breaks[1:]) - left)
    s = (left + half)[..., None] + half[..., None] * nodes
    q = h[:, None, None] ** 2 + s**2
    radial = np.divide(-np.expm1(-0.5 * q), q, out=np.full(q.shape, 0.5), where=q > 0)
    near = h * np.sum((radial @ weights) * half, axis=1)
    tail = oracle._TAIL
    below, above = np.minimum(hi, -tail), np.maximum(lo, tail)
    far = np.where(lo < -tail, np.arctan2(h * (below - lo), h * h + lo * below), 0.0)
    far += np.where(hi > tail, np.arctan2(h * (hi - above), h * h + hi * above), 0.0)
    return (near + far) / (2.0 * math.pi)


def _edges_on_lines(h, lo, hi, angle):
    """Edges from s = lo to s = hi along the lines at signed distance h from
    0 with direction angle ``angle``, s measured from the foot of the
    perpendicular from 0."""
    u = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    normal = np.stack([u[:, 1], -u[:, 0]], axis=1)
    return h[:, None] * normal + lo[:, None] * u, h[:, None] * normal + hi[:, None] * u


class TestPanelKernel:
    """The polygon-mass kernel: its own Gauss-Legendre rule, integrated only
    over the panels each edge crosses."""

    def test_rule_matches_numpy(self):
        from numpy.polynomial.legendre import leggauss

        breaks, nodes, weights = oracle._panel_rule()
        ref_nodes, ref_weights = leggauss(oracle._PANEL_NODES)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-14)
        assert abs(weights.sum() - 2.0) <= 1e-15
        half = np.array(oracle._PANEL_BREAKS)
        np.testing.assert_array_equal(breaks, np.concatenate([-half[:0:-1], half]))

    def test_rule_is_the_newton_solve(self):
        # the table's doubles, bit for bit: Newton's method on the Legendre
        # recurrence from Chebyshev guesses, five steps (Numerical Recipes 4.6)
        n = oracle._PANEL_NODES
        x = np.cos(math.pi * (np.arange(n // 2) + 0.75) / (n + 0.5))
        for _ in range(5):
            p0, p1 = np.ones_like(x), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            slope = n * (x * p1 - p0) / (x * x - 1.0)
            x = x - p1 / slope
        _, nodes, weights = oracle._panel_rule()
        np.testing.assert_array_equal(nodes[n // 2:], x[::-1])
        np.testing.assert_array_equal(weights[n // 2:], (2.0 / ((1.0 - x * x) * slope * slope))[::-1])

    def test_rule_integrates_even_monomials(self):
        # a 20-point rule is exact to degree 39; the odd moments vanish by symmetry
        _, nodes, weights = oracle._panel_rule()
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        np.testing.assert_array_equal(weights, weights[::-1])
        for j in range(oracle._PANEL_NODES):
            assert abs(np.sum(weights * nodes ** (2 * j)) - 2.0 / (2 * j + 1)) <= 1e-15, j

    def test_crossed_panels_match_full_panels(self):
        rng = np.random.default_rng(21)
        n = 500
        tail = oracle._TAIL
        scale = rng.choice([0.3, 3.0, 12.0], size=(n, 1))
        cases = {"random": (rng.normal(size=(n, 2)) * scale, rng.normal(size=(n, 2)) * scale)}
        h = np.concatenate([[0.0, 1e-300, -1e-9], rng.normal(scale=3.0, size=n - 3)])
        angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
        s = rng.uniform(-15.0, 15.0, size=n)
        cases["zero-length"] = _edges_on_lines(h, s, s, angle)
        start = rng.uniform(tail, 30.0, size=n)
        length = rng.uniform(0.0, 20.0, size=n)
        cases["beyond-tail"] = _edges_on_lines(h, start, start + length, angle)
        cases["beyond-minus-tail"] = _edges_on_lines(h, -start - length, -start, angle)
        cases["through-foot"] = _edges_on_lines(
            h, -rng.uniform(1e-9, 12.0, size=n), rng.uniform(1e-9, 12.0, size=n), angle
        )
        for name, (a, b) in cases.items():
            np.testing.assert_allclose(
                oracle._fan_masses(a, b), _full_panel_masses(a, b), rtol=0, atol=1e-15,
                err_msg=name,
            )
        # a zero-length edge (a clipped vertex counted twice) has no mass
        assert np.all(oracle._fan_masses(*cases["zero-length"]) == 0.0)


class TestExactPolygons:
    """2-d identity-covariance mixtures: each Bayes region is a convex
    polygon, and its Gaussian mass a fan of edge integrals."""

    @pytest.mark.parametrize("angle", [0.0, 2.0], ids=["axis", "rotated"])
    def test_two_class_closed_form(self, angle):
        # the risk is a normal CDF along the mean difference:
        # P_e(0) = Phi(-(d/2 + ln(pi_0/pi_1)/d)), P_e(1) = Phi(-(d/2 - ln(pi_0/pi_1)/d))
        u = np.array([math.cos(angle), math.sin(angle)])
        for d in (1e-6, 1e-3, 1e-2, 0.3, 1.0, 3.0, 6.0):
            spec = MixtureSpec([[0.4, -1.1], [0.4, -1.1] + d * u])
            gap = float(np.linalg.norm(spec.means[1] - spec.means[0]))
            for p0 in (0.5, 0.2, 0.9, 1e-6):
                risks = bayes_class_risks(spec, _prior(p0, 1.0 - p0))
                shift = math.log(p0 / (1.0 - p0)) / gap
                expected = ndtr([-(gap / 2 + shift), -(gap / 2 - shift)])
                assert risks.exact
                np.testing.assert_allclose(risks.estimates, expected, rtol=0, atol=1e-9)

    def test_region_masses_sum_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            k = int(rng.integers(3, 13))
            spec = circle_mixture(k, float(rng.uniform(1.0, 4.0)))
            pi = Prior(rng.dirichlet(np.full(k, 0.5)))
            masses = _region_masses(spec, pi)
            np.testing.assert_allclose(masses.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            risks = bayes_class_risks(spec, pi).estimates
            np.testing.assert_allclose(risks, 1.0 - np.diag(masses), rtol=0, atol=1e-14)

    def test_agrees_with_monte_carlo(self):
        rng = np.random.default_rng(13)
        n = 20_000
        for trial in range(6):
            k = int(rng.integers(3, 13))
            radius = float(rng.uniform(1.0, 4.0))
            circle = circle_mixture(k, radius)
            # the circle embedded in 3-d with a zero third coordinate: the
            # same Bayes rule, and the sample this test has always drawn
            spec = MixtureSpec(np.hstack([circle.means, np.zeros((k, 1))]))
            ds = sample_mixture(spec, np.full(k, n), trial)
            for _ in range(3):
                pi = Prior(rng.dirichlet(np.full(k, 0.5)))
                r = bayes_class_risks(circle, pi).estimates
                # the SE of the exact risk: a class the sample never reached
                # has an estimate of 0 or 1 and no SE of its own
                se = np.sqrt(r * (1.0 - r) / n)
                mc = _sample_risks(spec, pi, ds).estimates
                assert np.all(np.abs(mc - r) <= 4 * se + 1e-12)

    def test_agrees_with_1d_rule(self):
        # a 1-d unit-variance mixture laid on the x axis has the same risks
        rng = np.random.default_rng(14)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            means = rng.normal(scale=2, size=k)
            planar = MixtureSpec(np.stack([means, np.zeros(k)], axis=1))
            line = MixtureSpec(means[:, None])
            pi = Prior(rng.dirichlet(np.ones(k)))
            np.testing.assert_allclose(
                bayes_class_risks(planar, pi).estimates,
                bayes_class_risks(line, pi).estimates,
                rtol=0,
                atol=1e-9,
            )

    def test_coincident_means_tie_to_smaller_index(self):
        # where the half-plane normal is 0, an exact tie goes to the smaller
        # index, as in test_identical_classes
        spec = MixtureSpec([[0.5, 0.5], [0.5, 0.5], [2.5, 0.5]])
        risks = bayes_class_risks(spec, Prior.uniform(3)).estimates
        phi = 1.0 - PHI_1  # the boundary between classes 0 and 2 is 1 from each
        np.testing.assert_allclose(risks, [phi, 1.0, phi], rtol=0, atol=1e-9)
        # a strictly larger prior wins whatever the index
        risks = bayes_class_risks(spec, _prior(0.3, 0.4, 0.3)).estimates
        assert risks[0] == 1.0 and risks[1] < 1.0
        pair = MixtureSpec([[0.0, 0.0], [0.0, 0.0]])
        ascent = adversarial_prior_search(pair, method="ascent", iterations=50)
        assert ascent.risk == 0.5

    def test_zero_prior_and_one_hot(self):
        spec = circle_mixture(4, 2.0)
        risks = bayes_class_risks(spec, _prior(0.0, 1 / 3, 1 / 3, 1 / 3)).estimates
        # class 0 never wins; the other three split the plane as a
        # three-class mixture of their means does
        rest = bayes_class_risks(MixtureSpec(spec.means[1:]), Prior.uniform(3)).estimates
        assert risks[0] == 1.0
        np.testing.assert_allclose(risks[1:], rest, rtol=0, atol=1e-12)
        for y in range(4):
            risks = bayes_class_risks(spec, Prior(np.eye(4)[y])).estimates
            assert risks[y] == pytest.approx(0.0, abs=1e-12)
            assert np.all(np.delete(risks, y) == 1.0)

    def test_scaled_circle_agrees_with_sample(self):
        # a shared sigma^2 I only rescales the means: the exact risks of a
        # circle with sigma != 1 against bayes_predict on a sample
        rng = np.random.default_rng(16)
        n = 20_000
        for trial in range(6):
            k = int(rng.integers(3, 11))
            radius = float(rng.uniform(1.0, 4.0))
            spec = MixtureSpec(circle_mixture(k, radius).means, float(rng.uniform(0.5, 2.0)))
            ds = sample_mixture(spec, np.full(k, n), trial)
            for _ in range(3):
                pi = Prior(rng.dirichlet(np.full(k, 0.5)))
                r = bayes_class_risks(spec, pi).estimates
                se = np.sqrt(r * (1.0 - r) / n)
                mc = _sample_risks(spec, pi, ds).estimates
                assert np.all(np.abs(mc - r) <= 4 * se + 1e-12)

    def test_circle10_uniform_value(self):
        risks = bayes_class_risks(circle_mixture(10, 3.0), Prior.uniform(10))
        assert risks.exact
        np.testing.assert_array_equal(risks.counts, np.ones(10))
        np.testing.assert_allclose(risks.estimates, 0.3538016817, rtol=0, atol=1e-9)


class TestConcavity:
    def test_midpoint_dominates_chord(self):
        spec = three_gaussians_1d()
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = Prior(rng.dirichlet([1, 1, 1]))
            b = Prior(rng.dirichlet([1, 1, 1]))
            mid = Prior((a.p + b.p) / 2.0)
            lhs = bayes_total_risk(spec, mid)
            rhs = 0.5 * (bayes_total_risk(spec, a) + bayes_total_risk(spec, b))
            assert lhs >= rhs - 1e-12


class TestAdversarialSearch:
    def test_symmetric_two_class(self):
        result = adversarial_prior_search(two_gaussians_1d(), method="grid", resolution=1e-3)
        np.testing.assert_allclose(result.prior.p, [0.5, 0.5], atol=1e-3)
        assert result.risk == pytest.approx(1.0 - PHI_1, abs=1e-6)

    def test_three_class_matches_equalizer(self):
        # interior maximizer solved analytically: pi* = (q, 1-2q, q) with
        # q = 0.2797292098, R* = 0.2197882385
        result = adversarial_prior_search(three_gaussians_1d(), method="grid", resolution=1e-3)
        np.testing.assert_allclose(result.prior.p, [0.2797292, 0.4405416, 0.2797292], atol=2e-3)
        assert result.risk == pytest.approx(0.2197882385, abs=1e-6)
        risks = bayes_class_risks(three_gaussians_1d(), result.prior)
        assert np.ptp(risks.estimates) < 1e-2  # equalizer property

    def test_maximizer_dominates_any_prior(self):
        spec = three_gaussians_1d()
        result = adversarial_prior_search(spec, method="grid", resolution=5e-3)
        rng = np.random.default_rng(3)
        for _ in range(25):
            pi = Prior(rng.dirichlet([1, 1, 1]))
            assert result.risk >= bayes_total_risk(spec, pi) - 5e-3

    def test_ascent_agrees_with_grid(self):
        spec = three_gaussians_1d()
        grid = adversarial_prior_search(spec, method="grid", resolution=1e-3)
        ascent = adversarial_prior_search(spec, method="ascent", iterations=3000)
        assert ascent.risk == pytest.approx(grid.risk, abs=2e-3)

    @pytest.mark.parametrize(
        "spec", [three_gaussians_1d(), two_gaussians_1d()], ids=["three-class", "two-class"]
    )
    def test_exact_grid_risk_is_dot_of_risks(self, spec):
        result = adversarial_prior_search(spec, method="grid", resolution=1e-3)
        assert result.risk == float(np.dot(result.prior.p, result.risks.estimates))

    def test_identical_classes(self):
        # at the tie prior the smaller index wins everywhere: risks (0, 1)
        spec = MixtureSpec([[0.0], [0.0]])
        grid = adversarial_prior_search(spec, method="grid", resolution=1e-2)
        ascent = adversarial_prior_search(spec, method="ascent", iterations=50)
        np.testing.assert_array_equal(grid.prior.p, [0.5, 0.5])
        np.testing.assert_array_equal(grid.risks.estimates, [0.0, 1.0])
        assert grid.risk == 0.5
        assert ascent.risk == 0.5

    def test_grid_rejects_large_k(self):
        # the grid is the closed form's, 1-d with K <= 3; a 2-d search,
        # even at K = 3, is the ascent's
        for spec in (circle_mixture(5), circle_mixture(3), MixtureSpec(np.arange(4.0)[:, None])):
            with pytest.raises(ValueError, match="1-d mixture with K <= 3"):
                adversarial_prior_search(spec, method="grid")

    def test_grid_evaluates_chosen_prior_once(self, monkeypatch):
        # one vectorized call scores the grid; only the chosen prior is
        # evaluated on its own, for its per-class risks
        calls = []
        original = oracle.bayes_class_risks

        def counting(spec, pi):
            calls.append(pi.p.copy())
            return original(spec, pi)

        monkeypatch.setattr(oracle, "bayes_class_risks", counting)
        result = adversarial_prior_search(three_gaussians_1d(), method="grid", resolution=0.25)
        assert result.iterations == result.evaluations == 15
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], result.prior.p)
        assert result.risk == float(np.dot(result.prior.p, result.risks.estimates))

    @pytest.mark.parametrize(
        "spec, kwargs",
        [
            # asymmetric, so no gap reaches the tolerance and every step runs
            (MixtureSpec([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]),
             {"method": "ascent", "iterations": 6}),
            (three_gaussians_1d(), {"method": "grid", "resolution": 0.01}),
            (three_gaussians_1d(), {"method": "ascent", "iterations": 50}),
        ],
        ids=["polygon-ascent", "exact-grid", "exact-ascent"],
    )
    def test_result_carries_risks_at_prior(self, spec, kwargs):
        result = adversarial_prior_search(spec, **kwargs)
        assert result.evaluations == kwargs.get("iterations", result.iterations)
        expected = bayes_class_risks(spec, result.prior)
        np.testing.assert_array_equal(result.risks.estimates, expected.estimates)
        total = float(np.dot(result.prior.p, expected.estimates))
        assert result.risk == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize(
        "spec, expected",
        [(three_gaussians_1d(), "grid"), (circle_mixture(3), "ascent"), (circle_mixture(4), "ascent")],
        ids=["exact-3", "mc-3", "mc-4"],
    )
    def test_auto_takes_grid_only_with_closed_form(self, spec, expected):
        # the circle's risks are exact too, but the grid is the 1-d closed
        # form's; a 2-d mixture's search is always the ascent
        result = adversarial_prior_search(spec, resolution=0.25, iterations=5)
        assert result.method == expected

    def test_ascent_rejects_zero_iterations(self):
        with pytest.raises(ValueError, match="iterations"):
            adversarial_prior_search(three_gaussians_1d(), method="ascent", iterations=0)


def _uncapped_ascent(spec, iterations):
    """Reference: the ascent without its stop rule. It evaluates
    ``iterations`` priors and returns the best one, its total risk and its
    per-class risks."""
    state = AscentState(Prior.uniform(spec.class_count), LINEAR_ASCENT, 2.0 / 3.0)
    best_risk = -np.inf
    for t in range(1, iterations + 1):
        risks = bayes_class_risks(spec, state.prior)
        value = float(np.dot(state.prior.p, risks.estimates))
        if value > best_risk:
            best_risk, best_prior, best_risks = value, state.prior, risks
        state.alpha = 2.0 / (t + 2)
        ascent_step(state, risks)
    return best_prior, best_risk, best_risks


class TestFrankWolfeGap:
    """g(pi) = max_y r_y - R(pi) bounds R(pi') - R(pi) for every prior pi',
    since the risk vector r is a supergradient of the concave R."""

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        k=st.integers(2, 6),
        sigma=st.floats(0.3, 3.0),
        seed=st.integers(0, 2**32 - 1),
        zero=st.booleans(),
    )
    def test_gap_bounds_any_gain(self, dim, k, sigma, seed, zero):
        rng = np.random.default_rng(seed)
        spec = MixtureSpec(rng.normal(scale=3, size=(k, dim)), sigma)
        p = rng.dirichlet(np.ones(k))
        if zero:
            p[rng.integers(k)] = 0.0
            p = p / p.sum()
        pi, other = Prior(p), Prior(rng.dirichlet(np.ones(k)))
        risks = bayes_class_risks(spec, pi).estimates
        total = float(np.dot(pi.p, risks))
        gap = float(risks.max()) - total
        assert bayes_total_risk(spec, other) <= total + gap + 1e-12

    @pytest.mark.parametrize("method", ["grid", "ascent"])
    def test_result_gap_is_worst_risk_less_total(self, method):
        result = adversarial_prior_search(three_gaussians_1d(), method=method, iterations=50)
        assert result.gap == float(result.risks.estimates.max()) - result.risk
        assert result.gap >= 0

    def test_circle_gap_at_uniform_is_rounding(self):
        # the premise of GAP_TOLERANCE: a circle's optimum is the uniform
        # prior, where the gap is rounding only, far below the tolerance
        largest = 0.0
        for k in range(3, 17):
            uniform = Prior.uniform(k)
            for radius in np.arange(0.5, 8.0 + 1e-9, 0.25):
                risks = bayes_class_risks(circle_mixture(k, float(radius)), uniform).estimates
                largest = max(largest, float(risks.max()) - float(np.dot(uniform.p, risks)))
        assert largest < 1e-14

    def test_ascent_certifies_grid(self):
        spec = three_gaussians_1d()
        grid = adversarial_prior_search(spec, method="grid", resolution=1e-3)
        ascent = adversarial_prior_search(spec, method="ascent", iterations=2000)
        assert grid.risk - ascent.risk <= ascent.gap
        assert ascent.risk >= grid.risk
        assert ascent.gap <= 2e-4

    def test_circle_optimum_is_uniform(self):
        # the rotation-symmetric circle's adversarial prior is uniform: the
        # first evaluation is the best one, and its gap is rounding
        result = adversarial_prior_search(circle_mixture(10, 3.0), method="ascent", iterations=8)
        np.testing.assert_array_equal(result.prior.p, np.full(10, 0.1))
        assert result.iterations == 8
        assert result.gap <= 1e-12
        assert result.risk == pytest.approx(0.35380168174086746, abs=1e-12)

    def test_ascent_steps_once_per_evaluation(self, monkeypatch):
        # the search takes the training loop's ascent step, at 2 / (t + 2)
        alphas = []
        original = oracle.ascent_step

        def recording(state, risks):
            alphas.append(state.alpha)
            return original(state, risks)

        monkeypatch.setattr(oracle, "ascent_step", recording)
        adversarial_prior_search(three_gaussians_1d(), method="ascent", iterations=5)
        assert alphas == [2.0 / (t + 2) for t in range(1, 6)]

    @pytest.mark.parametrize("k, radius", [(3, 1.0), (4, 2.0), (10, 3.0)])
    def test_circle_stops_at_first_evaluation(self, monkeypatch, k, radius):
        # the uniform start's gap is rounding, so it certifies itself
        calls = []
        original = oracle.bayes_class_risks

        def counting(spec, pi):
            calls.append(pi)
            return original(spec, pi)

        monkeypatch.setattr(oracle, "bayes_class_risks", counting)
        result = adversarial_prior_search(circle_mixture(k, radius), method="ascent")
        assert len(calls) == 1
        np.testing.assert_array_equal(result.prior.p, Prior.uniform(k).p)
        assert result.evaluations == 1
        assert result.iterations == 2000
        assert result.gap <= oracle.GAP_TOLERANCE

    @pytest.mark.parametrize(
        "spec, iterations",
        [
            (three_gaussians_1d(), 50),
            (three_gaussians_1d(), 2000),
            (MixtureSpec([[0.0], [0.0]]), 50),
        ],
        ids=["three-class-50", "three-class-2000", "identical-pair-50"],
    )
    def test_uncertified_search_runs_to_the_cap(self, spec, iterations):
        # where no gap reaches the tolerance, the search is the uncapped loop
        result = adversarial_prior_search(spec, method="ascent", iterations=iterations)
        prior, risk, risks = _uncapped_ascent(spec, iterations)
        assert result.evaluations == result.iterations == iterations
        np.testing.assert_array_equal(result.prior.p, prior.p)
        assert result.risk == risk
        assert result.gap == float(risks.estimates.max()) - risk

    def test_ascent_draws_nothing(self):
        # a tie for the worst class goes to the smaller index, so the search
        # never loads numpy.random; the asymmetric mixture never meets the
        # stop rule, so all 5 evaluations and 4 steps run
        probe = (
            "import sys\n"
            "from minimaxclf.data import MixtureSpec\n"
            "from minimaxclf.oracle import adversarial_prior_search\n"
            "spec = MixtureSpec([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])\n"
            "result = adversarial_prior_search(spec, method='ascent', iterations=5)\n"
            "print(result.evaluations, 'numpy.random' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(Path(oracle.__file__).parents[1])},
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.split() == ["5", "False"]


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: bayes_predict(two_gaussians_1d(), Prior.uniform(2), np.zeros((3, 2))),
                     r"instances must be \(N, 1\)", id="densities-dim"),
        pytest.param(lambda: adversarial_prior_search(two_gaussians_1d(), method="x"),
                     "unknown search method", id="search-method"),
        pytest.param(lambda: _simplex_grid(4, 0.1), "K <= 3", id="grid-k4"),
        pytest.param(lambda: _simplex_grid(3, 0.4), r"1 / n", id="grid-resolution-0.4"),
        pytest.param(lambda: _simplex_grid(2, 1e-300), r"n <= 2000", id="grid-resolution-1e-300"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("spec", [MixtureSpec(np.eye(3))], ids=["3d"])
def test_mixture_without_exact_path_rejected(spec):
    # only 1-d and 2-d mixtures have an exact oracle; every entry point
    # names the dimension
    pi = Prior.uniform(spec.class_count)
    match = r"no exact Bayes risks for a 3-d mixture: the oracle needs 1-d or 2-d"
    for call in (
        lambda: bayes_class_risks(spec, pi),
        lambda: adversarial_prior_search(spec),
    ):
        with pytest.raises(ValueError, match=match):
            call()


# Two classes at -separation and +separation each err with
# Phi(-separation / sigma) at the uniform prior, and three classes spaced far
# beyond sigma never err. Each boundary is taken in a class's standardized
# coordinate, so no sigma or mean overflows or is lost: sigma and
# separation from the smallest float to 1e308 are as exact as sigma 1.
@pytest.mark.parametrize(
    "spec, expected",
    [
        pytest.param(two_gaussians_1d(separation, sigma), ndtr(-separation / sigma), id=name)
        for name, separation, sigma in [
            ("sigma-1e-300", 1.0, 1e-300), ("sigma-1e-160", 1.0, 1e-160),
            ("sigma-1e-150", 1.0, 1e-150), ("sigma-1e150", 1.0, 1e150),
            ("sigma-1e160", 1.0, 1e160), ("sigma-1e300", 1.0, 1e300),
            ("separation-1e-300", 1e-300, 1.0), ("separation-1e150", 1e150, 1.0),
            ("separation-1e200", 1e200, 1.0), ("separation-1e308", 1e308, 1.0),
            ("both-1e-150", 1e-150, 1e-150), ("slope-overflow", 1e10, 1e-150),
            ("both-5e-324", 5e-324, 5e-324), ("both-1e308", 1e308, 1e308),
        ]
    ]
    + [pytest.param(three_gaussians_1d(1e160), 0.0, id="spacing-1e160"),
       pytest.param(three_gaussians_1d(1e300), 0.0, id="spacing-1e300")],
)
def test_1d_lines_at_the_edge_of_range_exact(spec, expected):
    # the risks and the grid search's total are the closed form's, and
    # nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        risks = bayes_class_risks(spec, Prior.uniform(spec.class_count)).estimates
        search = adversarial_prior_search(spec, method="grid", resolution=0.5)
    np.testing.assert_allclose(risks, expected, rtol=0, atol=1e-15)
    assert search.risk == pytest.approx(expected, rel=0, abs=1e-15)
