import numpy as np
import pytest

from minimaxclf.losses import (
    VARIANTS,
    GeneralizedLossSpec,
    batch_loss,
    batch_loss_gradient,
    deferred_reweighting_weights,
    loss_and_grad,
    spec_from_variant,
    tla_offsets,
)
from minimaxclf.priors import Prior


# Reference: the loss and its gradient as two separate passes, each with its
# own softmax, and GML from explicit batch class scores. loss_and_grad must
# reproduce these bit for bit.


def _ref_adjusted_logits(spec, f, y):
    z = spec.delta * f + spec.ell
    if spec.true_class_offsets is not None:
        z = z.copy()
        z[np.arange(y.size), y] += spec.true_class_offsets[y]
    return z


def _ref_log_softmax(z):
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _ref_softmax(z):
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


def _ref_gml_class_scores(f, y, counts):
    m = f.max(axis=1, keepdims=True)
    e = np.exp(f - m)
    denom = (e * counts[None, :]).sum(axis=1)
    t = e[np.arange(y.size), y] / denom
    p_class = np.zeros(counts.size)
    np.add.at(p_class, y, t)
    return p_class


def _ref_gml_loss(f, y, counts):
    p_class = _ref_gml_class_scores(f, y, counts)
    return float(-np.mean(np.log(p_class[counts > 0])))


def _ref_gml_gradient(f, y, counts):
    k_present = int(np.count_nonzero(counts > 0))
    rows = np.arange(y.size)
    m = f.max(axis=1, keepdims=True)
    e = np.exp(f - m)
    denom = (e * counts[None, :]).sum(axis=1)
    ratio = e / denom[:, None]
    t = ratio[rows, y]
    p_class = np.zeros(counts.size)
    np.add.at(p_class, y, t)
    onehot = np.zeros_like(f)
    onehot[rows, y] = 1.0
    dt = t[:, None] * (onehot - counts[None, :] * ratio)
    return -dt / (k_present * p_class[y][:, None])


def _ref_loss(spec, f, y):
    if spec.variant == "GML":
        return _ref_gml_loss(f, y, np.bincount(y, minlength=spec.class_count).astype(np.float64))
    logp = _ref_log_softmax(_ref_adjusted_logits(spec, f, y))
    rows = np.arange(y.size)
    ce = -logp[rows, y]
    w = spec.weights[y]
    if spec.focal_gamma is not None:
        p_true = np.exp(logp[rows, y])
        w = w * (1.0 - p_true) ** spec.focal_gamma
    return float(np.mean(w * ce))


def _ref_gradient(spec, f, y):
    if spec.variant == "GML":
        return _ref_gml_gradient(
            f, y, np.bincount(y, minlength=spec.class_count).astype(np.float64)
        )
    n = y.size
    rows = np.arange(n)
    p = _ref_softmax(_ref_adjusted_logits(spec, f, y))
    onehot = np.zeros_like(p)
    onehot[rows, y] = 1.0
    base = spec.weights[y][:, None] * spec.delta[None, :] * (p - onehot)
    if spec.focal_gamma is None:
        return base / n
    gamma = spec.focal_gamma
    p_true = p[rows, y]
    ce = -np.log(p_true)
    focal = (1.0 - p_true) ** gamma
    dp_true = spec.delta[None, :] * (p_true[:, None] * (onehot - p))
    grad = (
        -gamma * (1.0 - p_true)[:, None] ** (gamma - 1.0) * ce[:, None] * dp_true
        + focal[:, None] * spec.delta[None, :] * (p - onehot)
    )
    return spec.weights[y][:, None] * grad / n


def _gml_spec(k):
    return GeneralizedLossSpec("GML", np.ones(k), np.ones(k), np.zeros(k))


def _prior(*values):
    return Prior(np.array(values, dtype=np.float64))


def _fd_gradient(fun, logits, h=1e-6):
    grad = np.zeros_like(logits)
    for idx in np.ndindex(*logits.shape):
        bump = logits.copy()
        bump[idx] += h
        up = fun(bump)
        bump[idx] -= 2 * h
        down = fun(bump)
        grad[idx] = (up - down) / (2 * h)
    return grad


def _make_spec(variant, k=4, seed=0):
    rng = np.random.default_rng(seed)
    counts = rng.integers(5, 200, size=k)
    pi_train = Prior.from_counts(counts)
    pi_target = Prior(rng.dirichlet(np.ones(k)))
    return spec_from_variant(variant, pi_train, pi_target, counts=counts, tau=1.3, gamma=0.2)


class TestTlaOffsets:
    def test_equal_priors_zero(self):
        pi = _prior(0.3, 0.7)
        assert np.array_equal(tla_offsets(pi, pi, 2.0), np.zeros(2))

    def test_frozen_values(self):
        # ln(0.9/0.5), ln(0.1/0.5) at 40-digit precision
        ell = tla_offsets(_prior(0.9, 0.1), _prior(0.5, 0.5), 1.0)
        np.testing.assert_allclose(ell, [0.587786664902, -1.609437912434], atol=1e-10)

    def test_linear_in_tau(self):
        a = tla_offsets(_prior(0.9, 0.1), _prior(0.2, 0.8), 1.0)
        b = tla_offsets(_prior(0.9, 0.1), _prior(0.2, 0.8), 2.0)
        np.testing.assert_allclose(b, 2.0 * a)

    def test_zero_target_coordinate_rejected(self):
        with pytest.raises(ValueError, match="target prior"):
            tla_offsets(_prior(0.9, 0.1), _prior(1.0, 0.0), 1.0)

    def test_zero_train_coordinate_rejected(self):
        with pytest.raises(ValueError, match="training prior"):
            tla_offsets(_prior(1.0, 0.0), _prior(0.5, 0.5), 1.0)


class TestSpecFromVariant:
    def test_tla_at_train_prior_is_ce(self):
        pi = _prior(0.6, 0.3, 0.1)
        tla = spec_from_variant("TLA", pi, pi, tau=2.25)
        ce = spec_from_variant("CE", pi)
        assert np.array_equal(tla.weights, ce.weights)
        assert np.array_equal(tla.delta, ce.delta)
        assert np.array_equal(tla.ell, ce.ell)

    def test_twce_at_train_prior_is_unit_weights(self):
        pi = _prior(0.6, 0.3, 0.1)
        twce = spec_from_variant("TWCE", pi, pi)
        np.testing.assert_array_equal(twce.weights, np.ones(3))

    def test_vs_delta(self):
        counts = np.array([5000, 500, 50])
        spec = spec_from_variant("VS", Prior.from_counts(counts), counts=counts, gamma=0.15)
        np.testing.assert_allclose(spec.delta, (counts / 5000) ** 0.15)
        # 0.01^0.15 frozen from high-precision evaluation
        np.testing.assert_allclose(spec.delta[2], 0.501187233627, atol=1e-10)

    def test_ldam_margin_normalization(self):
        counts = np.array([10000, 100, 10])
        spec = spec_from_variant("LDAM", Prior.from_counts(counts), counts=counts)
        assert np.max(np.abs(spec.true_class_offsets)) == pytest.approx(0.5)
        assert np.all(spec.true_class_offsets < 0)

    def test_wce_weights(self):
        counts = np.array([10, 40])
        spec = spec_from_variant("WCE", Prior.from_counts(counts), counts=counts)
        np.testing.assert_allclose(spec.weights, [0.1, 0.025])

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown loss variant"):
            spec_from_variant("XENT", _prior(0.5, 0.5))

    def test_bad_tau(self):
        with pytest.raises(ValueError, match="tau"):
            spec_from_variant("LA", _prior(0.5, 0.5), tau=-1.0)

    def test_missing_counts(self):
        with pytest.raises(ValueError, match="counts"):
            spec_from_variant("WCE", _prior(0.5, 0.5))

    def test_drw_weights(self):
        w = deferred_reweighting_weights([1, 10**6])
        assert w[0] == pytest.approx(1.0)
        assert w[1] == pytest.approx(1e-4, rel=1e-3)


class TestBatchLoss:
    def test_ce_uniform_logits(self):
        spec = spec_from_variant("CE", _prior(0.5, 0.5))
        loss = batch_loss(spec, np.array([[0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_shift_invariance_unit_delta(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(8, 3))
        labels = rng.integers(0, 3, size=8)
        for variant in ("CE", "WCE", "Focal", "FocalAlpha", "LDAM", "LA", "TWCE", "TLA"):
            spec = _make_spec(variant, k=3)
            a = batch_loss(spec, logits, labels)
            b = batch_loss(spec, logits + 5.0, labels)
            assert a == pytest.approx(b, rel=1e-12), variant

    def test_tla_equals_ce_on_shifted_logits(self):
        pi_train = _prior(0.7, 0.2, 0.1)
        pi_target = _prior(0.2, 0.5, 0.3)
        tla = spec_from_variant("TLA", pi_train, pi_target, tau=1.0)
        ce = spec_from_variant("CE", pi_train)
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(16, 3))
        labels = rng.integers(0, 3, size=16)
        a = batch_loss(tla, logits, labels)
        b = batch_loss(ce, logits + tla.ell, labels)
        assert a == pytest.approx(b, rel=1e-12)

    def test_nonnegative_all_variants(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(scale=3.0, size=(32, 4))
        labels = rng.integers(0, 4, size=32)
        for variant in VARIANTS:
            spec = _make_spec(variant)
            assert batch_loss(spec, logits, labels) >= 0.0, variant

    def test_zero_only_in_saturated_limit(self):
        spec = spec_from_variant("CE", _prior(0.5, 0.5))
        big = np.array([[50.0, -50.0]])
        assert batch_loss(spec, big, np.array([0])) == pytest.approx(0.0, abs=1e-12)
        assert batch_loss(spec, np.array([[1.0, -1.0]]), np.array([0])) > 0.0

    def test_stability_with_large_offsets(self):
        # tau ln(rho) offsets reach magnitude ~10; must not overflow
        pi_train = _prior(0.989, 0.01, 0.001)
        pi_target = _prior(0.001, 0.01, 0.989)
        spec = spec_from_variant("TLA", pi_train, pi_target, tau=2.25)
        loss = batch_loss(spec, np.full((4, 3), 100.0), np.array([0, 1, 2, 0]))
        assert np.isfinite(loss)

    def test_rejects_non_finite(self):
        spec = spec_from_variant("CE", _prior(0.5, 0.5))
        with pytest.raises(ValueError, match="non-finite"):
            batch_loss(spec, np.array([[np.inf, 0.0]]), np.array([0]))

    def test_rejects_empty_batch(self):
        spec = spec_from_variant("CE", _prior(0.5, 0.5))
        with pytest.raises(ValueError, match="empty"):
            batch_loss(spec, np.empty((0, 2)), np.empty(0, dtype=int))


class TestGradients:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_finite_differences(self, variant):
        rng = np.random.default_rng(hash(variant) % 2**32)
        logits = rng.normal(scale=0.8, size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        spec = _make_spec(variant)
        analytic = batch_loss_gradient(spec, logits, labels)
        numeric = _fd_gradient(lambda f: batch_loss(spec, f, labels), logits, h=1e-4)
        err = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
        assert err < 1e-5, f"{variant}: rel err {err}"

    def test_hundred_random_draws(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            variant = VARIANTS[rng.integers(len(VARIANTS))]
            spec = _make_spec(variant, seed=int(rng.integers(2**31)))
            logits = rng.normal(size=(3, 4))
            labels = rng.integers(0, 4, size=3)
            analytic = batch_loss_gradient(spec, logits, labels)
            numeric = _fd_gradient(lambda f: batch_loss(spec, f, labels), logits, h=1e-4)
            err = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
            assert err < 1e-5, variant

    def test_saturated_ce_gradient_vanishes(self):
        spec = spec_from_variant("CE", _prior(0.5, 0.5))
        g = batch_loss_gradient(spec, np.array([[60.0, -60.0]]), np.array([0]))
        np.testing.assert_allclose(g, 0.0, atol=1e-20)

    def test_row_sums_zero_for_equal_delta(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(10, 4))
        labels = rng.integers(0, 4, size=10)
        for variant in ("CE", "WCE", "LDAM", "LA", "TWCE", "TLA"):
            spec = _make_spec(variant)
            g = batch_loss_gradient(spec, logits, labels)
            np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-14)


class TestFusedMatchesReference:
    def _assert_bit_exact(self, spec, logits, labels):
        loss, grad = loss_and_grad(spec, logits, labels)
        assert loss == _ref_loss(spec, logits, labels)
        assert np.array_equal(grad, _ref_gradient(spec, logits, labels))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant(self, variant):
        rng = np.random.default_rng(sum(map(ord, variant)))
        for draw in range(5):
            spec = _make_spec(variant, k=5, seed=draw)
            logits = rng.normal(scale=2.0, size=(64, 5))
            labels = rng.integers(0, 5, size=64)
            self._assert_bit_exact(spec, logits, labels)
            # the same batch with class 2 absent
            self._assert_bit_exact(spec, logits, np.where(labels == 2, 3, labels))

    def test_drw_reweighted_vs(self):
        # the one configuration where both w and delta are non-unit
        rng = np.random.default_rng(11)
        counts = rng.integers(5, 500, size=6)
        spec = spec_from_variant("VS", Prior.from_counts(counts), counts=counts, tau=1.5, gamma=0.2)
        spec = spec.with_weights(deferred_reweighting_weights(counts))
        assert not np.all(spec.weights == 1.0) and not np.all(spec.delta == 1.0)
        logits = rng.normal(scale=2.0, size=(128, 6))
        labels = rng.integers(0, 6, size=128)
        self._assert_bit_exact(spec, logits, labels)


def _indexed_2d_loss_and_grad(spec, f, y):
    """The loss kernel written with 2-d [rows, y] indexing, a keepdims row
    maximum and the full w * delta * p / n product. loss_and_grad, with its
    flat label index, row-max reduction and all-ones skips, must agree with
    it bit for bit."""
    n = y.size
    rows = np.arange(n)
    w = spec.weights[y]
    if spec.variant == "GML":
        k = spec.class_count
        onehot = np.zeros_like(f)
        onehot[rows, y] = 1.0
        counts = np.bincount(y, minlength=k).astype(np.float64)
        e = np.exp(f - f.max(axis=1, keepdims=True))
        ratio = e / (e * counts[None, :]).sum(axis=1)[:, None]
        t = ratio[rows, y]
        p_class = np.zeros(k)
        np.add.at(p_class, y, t)
        present = counts > 0
        loss = float(-np.mean(np.log(p_class[present])))
        dt = t[:, None] * (onehot - counts[None, :] * ratio)
        return loss, -dt / (np.count_nonzero(present) * p_class[y][:, None])
    z = spec.delta * f + spec.ell
    if spec.true_class_offsets is not None:
        z[rows, y] += spec.true_class_offsets[y]
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    logp_true = shifted[rows, y] - np.log(total[:, 0])
    p = e / total
    if spec.focal_gamma is None:
        loss = float(np.add.reduce(w * -logp_true) / n)
        p[rows, y] -= 1.0
        return loss, w[:, None] * spec.delta[None, :] * p / n
    gamma = spec.focal_gamma
    loss = float(np.add.reduce(w * (1.0 - np.exp(logp_true)) ** gamma * -logp_true) / n)
    p_true = p[rows, y]
    ce = -np.log(p_true)
    focal = (1.0 - p_true) ** gamma
    p[rows, y] -= 1.0
    dp_true = spec.delta[None, :] * (p_true[:, None] * (0.0 - p))
    grad = (
        -gamma * (1.0 - p_true)[:, None] ** (gamma - 1.0) * ce[:, None] * dp_true
        + focal[:, None] * spec.delta[None, :] * p
    )
    return loss, w[:, None] * grad / n


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestPinnedTo2dIndexedKernel:
    # K >= 8 is where a column-wise row sum stops matching numpy's pairwise
    # one; logits up to 1e3 saturate the softmax, underflow exp and, for the
    # focal and GML variants, reach inf and NaN, which must match too
    @pytest.mark.parametrize("variant", VARIANTS + ("LDAM+DRW", "VS+DRW"))
    @pytest.mark.parametrize("k", [2, 3, 7, 8, 10, 16])
    def test_bit_identical(self, variant, k):
        rng = np.random.default_rng([k, sum(map(ord, variant))])
        base = variant.split("+")[0]
        counts = rng.integers(5, 500, size=k)
        spec = spec_from_variant(
            base, Prior.from_counts(counts), Prior(rng.dirichlet(np.ones(k))),
            counts=counts, tau=1.3, gamma=0.2,
        )
        if variant.endswith("+DRW"):
            spec = spec.with_weights(deferred_reweighting_weights(counts))
        for n in (1, 6, 128):
            for scale in (1.0, 30.0, 1e3):
                logits = rng.normal(scale=scale, size=(n, k))
                labels = rng.integers(0, k, size=n)
                with np.errstate(all="ignore"):
                    loss, grad = loss_and_grad(spec, logits, labels)
                    ref_loss, ref_grad = _indexed_2d_loss_and_grad(spec, logits.copy(), labels)
                assert _bits(loss) == _bits(ref_loss), (n, scale)
                assert np.array_equal(_bits(grad), _bits(ref_grad)), (n, scale)
                assert grad.flags.c_contiguous

    def test_fortran_ordered_logits(self):
        # the flat label index needs C order; a Fortran-ordered input is copied
        rng = np.random.default_rng(3)
        spec = _make_spec("LDAM", k=5)
        logits = np.asfortranarray(rng.normal(size=(32, 5)))
        labels = rng.integers(0, 5, size=32)
        loss, grad = loss_and_grad(spec, logits, labels)
        ref_loss, ref_grad = _indexed_2d_loss_and_grad(
            spec, np.ascontiguousarray(logits), labels
        )
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)


class TestGml:
    def test_single_class_batch_zero_loss(self):
        logits = np.array([[1.7], [0.3]])
        loss = batch_loss(_gml_spec(1), logits, np.array([0, 0]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_balanced_batch(self):
        k, per = 5, 3
        logits = np.zeros((k * per, k))
        labels = np.repeat(np.arange(k), per)
        loss = batch_loss(_gml_spec(k), logits, labels)
        assert loss == pytest.approx(np.log(k), rel=1e-12)

    def test_absent_class_skipped(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 0, 1, 1])
        loss = batch_loss(_gml_spec(3), logits, labels)
        assert np.isfinite(loss)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(8, 3))
        labels = rng.integers(0, 3, size=8)
        spec = _gml_spec(3)
        analytic = batch_loss_gradient(spec, logits, labels)
        numeric = _fd_gradient(lambda f: batch_loss(spec, f, labels), logits, h=1e-5)
        err = np.abs(analytic - numeric).max() / np.abs(numeric).max()
        assert err < 1e-5

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="empty"):
            batch_loss(_gml_spec(2), np.empty((0, 2)), np.empty(0, dtype=int))


_ONES, _ZEROS = np.ones(2), np.zeros(2)


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: GeneralizedLossSpec("XENT", _ONES, _ONES, _ZEROS),
                     "unknown loss variant", id="spec-variant"),
        pytest.param(lambda: GeneralizedLossSpec("CE", _ONES, np.ones(3), _ZEROS),
                     "equal length", id="spec-length"),
        pytest.param(lambda: GeneralizedLossSpec("CE", [1.0, 0.0], _ONES, _ZEROS),
                     "weights must be positive", id="spec-weights"),
        pytest.param(lambda: GeneralizedLossSpec("CE", _ONES, [1.0, 0.0], _ZEROS),
                     "multiplicative logits", id="spec-delta"),
        pytest.param(lambda: GeneralizedLossSpec("LDAM", _ONES, _ONES, _ZEROS, np.zeros(3)),
                     "true_class_offsets", id="spec-offsets"),
        pytest.param(lambda: GeneralizedLossSpec("CE", [np.nan, 1.0], _ONES, _ZEROS),
                     "weights must be finite", id="spec-weights-nan"),
        pytest.param(lambda: GeneralizedLossSpec("CE", [np.inf, 1.0], _ONES, _ZEROS),
                     "weights must be finite", id="spec-weights-inf"),
        pytest.param(lambda: GeneralizedLossSpec("CE", _ONES, [1.0, np.nan], _ZEROS),
                     "delta must be finite", id="spec-delta-nan"),
        pytest.param(lambda: GeneralizedLossSpec("CE", _ONES, [1.0, np.inf], _ZEROS),
                     "delta must be finite", id="spec-delta-inf"),
        pytest.param(lambda: GeneralizedLossSpec("CE", _ONES, _ONES, [0.0, np.inf]),
                     "ell must be finite", id="spec-ell-inf"),
        pytest.param(lambda: GeneralizedLossSpec("CE", _ONES, _ONES, [np.nan, 0.0]),
                     "ell must be finite", id="spec-ell-nan"),
        pytest.param(lambda: GeneralizedLossSpec("LDAM", _ONES, _ONES, _ZEROS, [0.0, np.nan]),
                     "true_class_offsets must be finite", id="spec-offsets-nan"),
        pytest.param(lambda: GeneralizedLossSpec("LDAM", _ONES, _ONES, _ZEROS, [-np.inf, 0.0]),
                     "true_class_offsets must be finite", id="spec-offsets-inf"),
        pytest.param(lambda: GeneralizedLossSpec("CE", [np.nan, 1.0], [1.0, np.nan],
                                                 [0.0, np.inf]),
                     "weights must be finite", id="spec-all-non-finite"),
        pytest.param(lambda: tla_offsets(_prior(0.5, 0.5), _prior(0.5, 0.5), 0.0),
                     "tau must be positive", id="tla-tau"),
        pytest.param(lambda: tla_offsets(_prior(0.5, 0.5), Prior.uniform(3), 1.0),
                     "different class counts", id="tla-class-count"),
        pytest.param(lambda: deferred_reweighting_weights([0, 5]), "at least one sample",
                     id="drw-empty-class"),
        pytest.param(lambda: spec_from_variant("WCE", _prior(0.5, 0.5), counts=[1, 2, 3]),
                     "match the class count", id="counts-length"),
        pytest.param(lambda: spec_from_variant("TLA", _prior(0.5, 0.5)), "needs a target prior",
                     id="missing-target"),
        pytest.param(lambda: spec_from_variant("VS", _prior(0.5, 0.5), counts=[1, 2], gamma=-1),
                     "invalid VS", id="vs-gamma"),
        pytest.param(lambda: spec_from_variant("TWCE", _prior(1.0, 0.0), _prior(0.5, 0.5)),
                     "zero coordinate", id="twce-zero-train"),
        pytest.param(lambda: loss_and_grad(_make_spec("CE", 2), np.zeros((3, 3)), [0, 0, 0]),
                     r"logits must be \(N, 2\)", id="logits-shape"),
        pytest.param(lambda: loss_and_grad(_make_spec("CE", 2), np.zeros((3, 2)), [0, 2, 0]),
                     "labels must be", id="label-range"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
