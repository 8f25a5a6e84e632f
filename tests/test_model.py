import json
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from minimaxclf import model
from minimaxclf.data import LabeledDataset
from minimaxclf.losses import (
    VARIANTS,
    GeneralizedLossSpec,
    deferred_reweighting_weights,
    loss_and_grad,
    spec_from_variant,
)
from minimaxclf.model import (
    ModelParams,
    OptimizerState,
    TrainConfig,
    backward,
    extract_features,
    forward_logits,
    init_optimizer,
    init_params,
    load_checkpoint,
    lr_schedule,
    predict,
    save_checkpoint,
    train_epoch,
)
from minimaxclf.priors import Prior


def _loss_of_params(params, spec, x, labels):
    from minimaxclf.losses import batch_loss

    return batch_loss(spec, forward_logits(params, x), labels)


def _flatten(tensors):
    return np.concatenate([t.ravel() for t in tensors])


def _fd_param_grads(params, spec, x, labels, h=1e-6):
    grads = []
    for t_idx, (_, tensor) in enumerate(params.tensors()):
        g = np.zeros_like(tensor)
        for idx in np.ndindex(*tensor.shape):
            for sign in (1.0, -1.0):
                bumped = [a.copy() for _, a in params.tensors()]
                bumped[t_idx][idx] += sign * h
                if params.architecture == "linear":
                    p = ModelParams("linear", (bumped[0],), (bumped[1],))
                else:
                    p = ModelParams("mlp", (bumped[0], bumped[2]), (bumped[1], bumped[3]))
                g[idx] += sign * _loss_of_params(p, spec, x, labels) / (2 * h)
        grads.append(g)
    return grads


class TestForward:
    def test_zero_params_zero_logits(self):
        params = ModelParams("linear", (np.zeros((3, 2)),), (np.zeros(2),))
        out = forward_logits(params, np.ones((4, 3)))
        np.testing.assert_array_equal(out, 0.0)

    def test_forced_linear(self):
        params = ModelParams("linear", (np.array([[2.0, -2.0]]),), (np.zeros(2),))
        np.testing.assert_array_equal(forward_logits(params, [[1.0]]), [[2.0, -2.0]])

    def test_batch_concatenation(self):
        params = init_params("mlp", 3, 4, seed=0, hidden_width=8)
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        joined = forward_logits(params, np.concatenate([a, b]))
        np.testing.assert_array_equal(joined[:5], forward_logits(params, a))
        np.testing.assert_array_equal(joined[5:], forward_logits(params, b))

    def test_dim_mismatch(self):
        params = init_params("linear", 3, 2, seed=0)
        with pytest.raises(ValueError, match="instances"):
            forward_logits(params, np.ones((2, 4)))

    @pytest.mark.parametrize("rows", [7, 10_000])
    @pytest.mark.parametrize("architecture", ["linear", "mlp"])
    def test_matches_unfused_formula(self, architecture, rows):
        # the bias is added in place, and each logit is still the sum of
        # x @ W + b, bit for bit; nonzero biases, so the addition shows
        rng = np.random.default_rng(5)
        weights = init_params(architecture, 2, 10, seed=4, hidden_width=64).weights
        biases = tuple(rng.normal(size=w.shape[1]) for w in weights)
        params = ModelParams(architecture, weights, biases)
        x = rng.normal(size=(rows, 2))
        h = x
        for w, b in zip(weights[:-1], biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
        assert np.array_equal(forward_logits(params, x), h @ weights[-1] + biases[-1])


class TestBackward:
    @pytest.mark.parametrize("architecture", ["linear", "mlp"])
    def test_matches_finite_differences(self, architecture):
        rng = np.random.default_rng(3)
        params = init_params(architecture, 3, 4, seed=1, hidden_width=6)
        x = rng.normal(size=(5, 3))
        labels = rng.integers(0, 4, size=5)
        spec = spec_from_variant("CE", Prior.uniform(4))
        logits = forward_logits(params, x)
        from minimaxclf.losses import batch_loss_gradient

        g = batch_loss_gradient(spec, logits, labels)
        analytic = backward(params, x, g)
        numeric = _fd_param_grads(params, spec, x, labels)
        err = np.abs(_flatten(analytic) - _flatten(numeric)).max()
        scale = max(np.abs(_flatten(numeric)).max(), 1e-12)
        assert err / scale < 1e-4

    def test_zero_upstream_zero_grads(self):
        params = init_params("mlp", 2, 3, seed=0, hidden_width=4)
        grads = backward(params, np.ones((4, 2)), np.zeros((4, 3)))
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_dead_relu_blocks_first_layer(self):
        w1 = np.full((2, 4), -1.0)
        params = ModelParams(
            "mlp", (w1, np.ones((4, 3))), (np.zeros(4), np.zeros(3))
        )
        grads = backward(params, np.ones((5, 2)), np.ones((5, 3)))
        np.testing.assert_array_equal(grads[0], 0.0)  # dW1
        np.testing.assert_array_equal(grads[1], 0.0)  # db1

    @pytest.mark.parametrize("architecture", ["linear", "mlp"])
    def test_matches_unfused_arithmetic(self, architecture):
        # each hidden layer recomputed, then W.T-chained gradients with the
        # decay term added as one 2 * lambda * W product, bit for bit
        rng = np.random.default_rng(4)
        params = init_params(architecture, 3, 4, seed=2, hidden_width=6)
        x = rng.normal(size=(9, 3))
        g = rng.normal(size=(9, 4))
        inputs = [x]
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            inputs.append(np.maximum(inputs[-1] @ w + b, 0.0))
        expected, up = [], g
        for i in reversed(range(len(params.weights))):
            w = params.weights[i]
            expected[:0] = [inputs[i].T @ up + 2.0 * 0.3 * w, up.sum(axis=0)]
            up = (up @ w.T) * (inputs[i] > 0.0)
        got = backward(params, x, g, weight_decay=0.3)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)

    def test_weight_decay_term(self):
        params = init_params("linear", 2, 2, seed=0)
        no_decay = backward(params, np.ones((1, 2)), np.zeros((1, 2)))
        decay = backward(params, np.ones((1, 2)), np.zeros((1, 2)), weight_decay=0.1)
        np.testing.assert_allclose(decay[0] - no_decay[0], 0.2 * params.weights[0])
        np.testing.assert_array_equal(decay[1], no_decay[1])  # biases not decayed


class TestLrSchedule:
    def test_warmup_ramp(self):
        config = TrainConfig(learning_rate=0.1, warmup_epochs=5, seed=0)
        assert lr_schedule(1, config) == pytest.approx(0.02)
        assert lr_schedule(5, config) == pytest.approx(0.1)

    def test_single_decay(self):
        config = TrainConfig(learning_rate=0.1, warmup_epochs=5,
                             decay_epochs=(200,), decay_factor=0.01, seed=0)
        assert lr_schedule(250, config) == pytest.approx(0.001)

    def test_double_decay(self):
        config = TrainConfig(learning_rate=0.1, warmup_epochs=5,
                             decay_epochs=(200, 320), decay_factor=0.01, seed=0)
        assert lr_schedule(330, config) == pytest.approx(1e-5)

    def test_epoch_must_be_positive(self):
        with pytest.raises(ValueError):
            lr_schedule(0, TrainConfig(seed=0))


def _toy_dataset(seed=0, n=64, separable=False):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(loc=-2.0 if separable else -1.0, scale=0.3 if separable else 1.0, size=(n, 1))
    x1 = rng.normal(loc=2.0 if separable else 1.0, scale=0.3 if separable else 1.0, size=(n, 1))
    x = np.concatenate([x0, x1])
    y = np.repeat([0, 1], n)
    return LabeledDataset(x, y, class_count=2)


class TestTrainEpoch:
    def test_zero_lr_epoch_keeps_params(self):
        ds = _toy_dataset()
        params = init_params("linear", 1, 2, seed=0)
        state = init_optimizer(params)
        spec = spec_from_variant("CE", Prior.uniform(2))
        config = TrainConfig(learning_rate=1e-300, momentum=0.0, weight_decay=0.0,
                             warmup_epochs=0, batch_size=16, seed=0)
        out, loss = train_epoch(params, state, ds, spec, config)
        np.testing.assert_allclose(
            _flatten([t for _, t in out.tensors()]),
            _flatten([t for _, t in params.tensors()]),
            atol=1e-250,
        )
        assert loss == pytest.approx(
            _loss_of_params(params, spec, ds.instances, ds.labels), rel=1e-9
        )

    def test_deterministic(self):
        ds = _toy_dataset()
        spec = spec_from_variant("CE", Prior.uniform(2))
        config = TrainConfig(batch_size=16, warmup_epochs=1, seed=3)
        results = []
        for _ in range(2):
            params = init_params("mlp", 1, 2, seed=5, hidden_width=4)
            state = init_optimizer(params)
            for _ in range(3):
                params, loss = train_epoch(params, state, ds, spec, config)
            results.append((_flatten([t for _, t in params.tensors()]), loss))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]

    def test_separable_data_reaches_zero_error(self):
        ds = _toy_dataset(separable=True)
        params = init_params("linear", 1, 2, seed=0)
        state = init_optimizer(params)
        spec = spec_from_variant("CE", Prior.uniform(2))
        config = TrainConfig(weight_decay=0.0, batch_size=16, warmup_epochs=2, seed=0)
        for _ in range(50):
            params, _ = train_epoch(params, state, ds, spec, config)
        assert np.mean(predict(params, ds.instances) != ds.labels) == 0.0

    def test_full_batch_loss_non_increasing_small_lr(self):
        ds = _toy_dataset()
        params = init_params("linear", 1, 2, seed=1)
        state = init_optimizer(params)
        spec = spec_from_variant("CE", Prior.uniform(2))
        config = TrainConfig(learning_rate=1e-3, momentum=0.0, weight_decay=0.0,
                             batch_size=len(ds), warmup_epochs=0, seed=0)
        losses = []
        for _ in range(10):
            params, loss = train_epoch(params, state, ds, spec, config)
            losses.append(loss)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_empty_dataset_rejected(self):
        ds = LabeledDataset(np.empty((0, 1)), np.empty(0, dtype=int), class_count=2)
        params = init_params("linear", 1, 2, seed=0)
        with pytest.raises(ValueError, match="empty"):
            train_epoch(params, init_optimizer(params), ds,
                        spec_from_variant("CE", Prior.uniform(2)), TrainConfig(seed=0))


def _public_epoch(params, state, dataset, spec, config):
    """One epoch as the public per-batch composition: forward_logits,
    loss_and_grad and backward, with their checks on every batch, then
    v <- momentum * v + g; theta <- theta - lr * v on each tensor."""
    state.epoch += 1
    lr = lr_schedule(state.epoch, config)
    order = np.random.default_rng([config.seed, state.epoch]).permutation(len(dataset))
    x, y = dataset.instances[order], dataset.labels[order]
    total = 0.0
    for start in range(0, len(dataset), config.batch_size):
        xb, yb = x[start : start + config.batch_size], y[start : start + config.batch_size]
        loss, g = loss_and_grad(spec, forward_logits(params, xb), yb)
        total += loss * len(yb)
        grads = backward(params, xb, g, weight_decay=config.weight_decay)
        state.velocities = [config.momentum * v + g for v, g in zip(state.velocities, grads)]
        tensors = [t - lr * v for (_, t), v in zip(params.tensors(), state.velocities)]
        params = ModelParams(params.architecture, tuple(tensors[0::2]), tuple(tensors[1::2]))
    return params, total / len(dataset)


def _three_class_data(seed=0, n=70):
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.arange(3), rng.integers(0, 3, size=n - 3)])
    x = rng.normal(size=(n, 2)) + y[:, None]
    return LabeledDataset(x, y, class_count=3)


def _epoch_spec(variant, dataset):
    counts = dataset.per_class_counts
    pi_train = dataset.train_prior()
    spec = spec_from_variant(
        variant.split("+")[0], pi_train, Prior(np.array([0.5, 0.3, 0.2])),
        counts=counts, tau=1.3, gamma=0.2,
    )
    if variant.endswith("+DRW"):
        spec = spec.with_weights(deferred_reweighting_weights(counts))
    return spec


# 70 samples in batches of 16 leave a short last batch of 6; epoch 1 is in
# the warmup ramp, epoch 2 ends it, and epochs 3-4 are decayed
_EPOCH_CONFIG = TrainConfig(learning_rate=0.2, momentum=0.9, weight_decay=1e-2,
                            batch_size=16, warmup_epochs=2, decay_epochs=(3,),
                            decay_factor=0.5, seed=7)


class TestFusedEpoch:
    @pytest.mark.parametrize("architecture", ["linear", "mlp"])
    @pytest.mark.parametrize("variant", VARIANTS + ("LDAM+DRW", "VS+DRW"))
    def test_equals_public_composition(self, variant, architecture):
        ds = _three_class_data()
        spec = _epoch_spec(variant, ds)
        fused = init_params(architecture, 2, 3, seed=3, hidden_width=5)
        ref = fused
        fused_state, ref_state = init_optimizer(fused), init_optimizer(ref)
        for _ in range(4):
            fused, fused_loss = train_epoch(fused, fused_state, ds, spec, _EPOCH_CONFIG)
            ref, ref_loss = _public_epoch(ref, ref_state, ds, spec, _EPOCH_CONFIG)
            assert fused_loss == ref_loss
            assert fused_state.epoch == ref_state.epoch
            for (_, a), (_, b) in zip(fused.tensors(), ref.tensors()):
                assert np.array_equal(a, b)
            for a, b in zip(fused_state.velocities, ref_state.velocities):
                assert np.array_equal(a, b)
        assert np.any(fused_state.velocities[0] != 0.0)

    @pytest.mark.parametrize("architecture", ["linear", "mlp"])
    @pytest.mark.parametrize("variant", ["TLA", "LDAM", "Focal", "GML", "VS+DRW"])
    @pytest.mark.parametrize(
        "n, batch_size",
        [pytest.param(33, 16, id="last-batch-one-row"), pytest.param(70, 128, id="one-batch")],
    )
    def test_edge_batch_shapes(self, n, batch_size, variant, architecture):
        # the per-epoch label index restarts at row 0 in every batch
        ds = _three_class_data(n=n)
        spec = _epoch_spec(variant, ds)
        config = replace(_EPOCH_CONFIG, batch_size=batch_size)
        fused = ref = init_params(architecture, 2, 3, seed=3, hidden_width=5)
        fused_state, ref_state = init_optimizer(fused), init_optimizer(ref)
        for _ in range(3):
            fused, fused_loss = train_epoch(fused, fused_state, ds, spec, config)
            ref, ref_loss = _public_epoch(ref, ref_state, ds, spec, config)
            assert fused_loss == ref_loss
            for (_, a), (_, b) in zip(fused.tensors(), ref.tensors()):
                assert np.array_equal(a, b)

    def test_inputs_left_alone_and_outputs_unshared(self):
        ds = _three_class_data()
        spec = _epoch_spec("TLA", ds)
        params0 = init_params("mlp", 2, 3, seed=3, hidden_width=5)
        state = init_optimizer(params0)
        seen = []  # (arrays a call received, copies of them at that time)
        outputs = []
        for _ in range(2):
            received = [t for _, t in params0.tensors()] + list(state.velocities)
            seen.append((received, [a.copy() for a in received]))
            params0, _ = train_epoch(params0, state, ds, spec, _EPOCH_CONFIG)
            outputs += [t for _, t in params0.tensors()] + list(state.velocities)
        for received, copies in seen:
            for a, b in zip(received, copies):
                assert np.array_equal(a, b)
        for a, b in combinations(outputs, 2):
            assert not np.shares_memory(a, b)
        assert all(a.flags.owndata for a in outputs)  # no view keeps a flat buffer alive

    def _run(self, params, spec, config=_EPOCH_CONFIG, ds=None, state=None):
        ds = _three_class_data() if ds is None else ds
        state = init_optimizer(params) if state is None else state
        with np.errstate(all="ignore"):
            return train_epoch(params, state, ds, spec, config)

    def test_non_finite_logits(self):
        params = init_params("linear", 2, 3, seed=3)
        params.weights[0][0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite logits"):
            self._run(params, _epoch_spec("CE", _three_class_data()))

    def test_non_finite_loss_names_epoch_and_batch(self):
        # each per-sample loss is finite, but their sum overflows
        spec = GeneralizedLossSpec("WCE", np.full(3, 1e308), np.ones(3), np.zeros(3))
        with pytest.raises(FloatingPointError, match="epoch 1, batch offset 0"):
            self._run(init_params("linear", 2, 3, seed=3), spec)

    @pytest.mark.parametrize("architecture", ["linear", "mlp"])
    def test_non_finite_gradient_names_tensor(self, architecture):
        # the loss is finite; 2 * lambda * W overflows in every weight gradient
        config = TrainConfig(weight_decay=1e308, batch_size=16, seed=0)
        params = init_params(architecture, 2, 3, seed=3, hidden_width=5)
        with pytest.raises(ValueError, match="non-finite gradient in tensor W1"):
            self._run(params, _epoch_spec("CE", _three_class_data()), config)

    def test_non_finite_gradient_names_later_tensor(self):
        # 2 * lambda * W is finite for W1 (entries below 0.75) and not for W2
        config = TrainConfig(weight_decay=1e307, batch_size=16, seed=0)
        params = init_params("mlp", 2, 3, seed=3, hidden_width=5)
        params.weights[1][...] *= 100.0
        with pytest.raises(ValueError, match="non-finite gradient in tensor W2"):
            self._run(params, _epoch_spec("CE", _three_class_data()), config)

    @pytest.mark.parametrize("classes", [2, 4])
    def test_spec_class_count_mismatch_before_any_update(self, classes):
        params = init_params("mlp", 2, 3, seed=3, hidden_width=5)
        state = init_optimizer(params)
        velocities = list(state.velocities)
        spec = spec_from_variant("CE", Prior.uniform(classes))
        with pytest.raises(ValueError, match="classes"):
            self._run(params, spec, state=state)
        assert state.epoch == 0
        assert all(a is b for a, b in zip(state.velocities, velocities))

    def test_labels_outside_spec_rejected(self):
        ds = LabeledDataset(np.zeros((4, 2)), np.array([0, 1, 2, 3]), class_count=4)
        params = init_params("linear", 2, 3, seed=0)
        with pytest.raises(ValueError, match="labels"):
            self._run(params, spec_from_variant("CE", Prior.uniform(3)), ds=ds)

    def test_instance_width_mismatch(self):
        params = init_params("linear", 3, 3, seed=0)
        with pytest.raises(ValueError, match="instances"):
            self._run(params, spec_from_variant("CE", Prior.uniform(3)))


class TestPredictAndFeatures:
    def test_argmax(self):
        params = ModelParams("linear", (np.array([[2.0, -2.0]]),), (np.zeros(2),))
        assert predict(params, [[1.0]])[0] == 0

    def test_tie_goes_to_smallest_index(self):
        params = ModelParams("linear", (np.zeros((1, 3)),), (np.zeros(3),))
        assert predict(params, [[1.0]])[0] == 0

    def test_constant_shift_invariance(self):
        params = init_params("linear", 2, 3, seed=2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 2))
        base = predict(params, x)
        shifted = ModelParams(
            "linear", params.weights, (params.biases[0] + 7.0,)
        )
        np.testing.assert_array_equal(predict(shifted, x), base)

    # the (architecture, dim, classes) of the presets and benchmark workloads
    @pytest.mark.parametrize("rows", [0, 1, 1999, 3999, 4000, 4040, 10_000, 20_200])
    @pytest.mark.parametrize(
        "architecture, dim, classes",
        [("mlp", 2, 10), ("linear", 2, 10), ("linear", 1, 2)],
        ids=["mlp-2d-10", "linear-2d-10", "linear-1d-2"],
    )
    def test_blocks_match_one_call(self, architecture, dim, classes, rows):
        # predict runs row blocks of 2,000-3,999 rows; each block's logits
        # equal one forward_logits call's bit for bit, so no label can move
        rng = np.random.default_rng(rows)
        weights = init_params(architecture, dim, classes, seed=3, hidden_width=64).weights
        params = ModelParams(architecture, weights, tuple(rng.normal(size=w.shape[1]) for w in weights))
        x = rng.normal(scale=3.0, size=(rows, dim))
        logits = forward_logits(params, x)
        labels = predict(params, x)
        assert labels.dtype == np.intp and labels.shape == (rows,)
        np.testing.assert_array_equal(labels, np.argmax(logits, axis=1))
        blocks = max(1, rows // model._PREDICT_ROWS)
        for i in range(blocks):
            block = slice(i * rows // blocks, (i + 1) * rows // blocks)
            assert rows < 2000 or 2000 <= block.stop - block.start < 4000
            assert np.array_equal(forward_logits(params, x[block]), logits[block])

    def test_predict_memory_bounded(self):
        # one call would hold the (50,000, 64) hidden layer, 25.6 MB; a
        # block holds at most 3,999 rows of it
        params = init_params("mlp", 2, 10, seed=0, hidden_width=64)
        x = np.random.default_rng(0).normal(size=(50_000, 2))
        tracemalloc.start()
        try:
            predict(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_features(self):
        x = np.array([[1.0, 2.0]])
        linear = init_params("linear", 2, 2, seed=0)
        np.testing.assert_array_equal(extract_features(linear, x), x)
        mlp = init_params("mlp", 2, 2, seed=0, hidden_width=4)
        feats = extract_features(mlp, x)
        pre = x @ mlp.weights[0] + mlp.biases[0]
        np.testing.assert_array_equal(feats, np.maximum(pre, 0.0))


class TestCheckpoint:
    @pytest.mark.parametrize("architecture", ["linear", "mlp"])
    def test_round_trip(self, tmp_path, architecture):
        params = init_params(architecture, 3, 4, seed=9, hidden_width=5)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, config_hash="abc123", seed=9)
        loaded, meta = load_checkpoint(path)
        assert loaded.architecture == params.architecture
        assert meta["config_hash"] == "abc123"
        assert meta["seed"] == 9
        for (_, a), (_, b) in zip(params.tensors(), loaded.tensors()):
            np.testing.assert_array_equal(a, b)


def _linear_2x2():
    return init_params("linear", 2, 2, seed=0)


def _old_checkpoint(tmp_path):
    path = tmp_path / "old.npz"
    meta = json.dumps({"version": 0, "architecture": "linear", "layers": 1}).encode()
    np.savez(path, meta=np.frombuffer(meta, dtype=np.uint8))
    return path


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda tmp: TrainConfig(learning_rate=0.0), "learning rate", id="lr"),
        pytest.param(lambda tmp: TrainConfig(momentum=1.0), "momentum", id="momentum"),
        pytest.param(lambda tmp: TrainConfig(decay_factor=0.0), "decay factor",
                     id="decay_factor"),
        pytest.param(lambda tmp: TrainConfig(batch_size=0), "batch_size", id="batch_size"),
        pytest.param(lambda tmp: init_params("cnn", 2, 2, seed=0), "unknown architecture",
                     id="architecture"),
        pytest.param(lambda tmp: backward(_linear_2x2(), np.zeros((3, 2)), np.zeros((3, 3))),
                     r"upstream gradient must be \(N, 2\)", id="backward-shape"),
        pytest.param(lambda tmp: train_epoch(_linear_2x2(), OptimizerState([]),
                                             LabeledDataset(np.zeros((2, 2)), [0, 1], 2),
                                             spec_from_variant("CE", Prior.uniform(2)),
                                             TrainConfig()),
                     "optimizer velocities", id="epoch-velocities"),
        pytest.param(lambda tmp: predict(_linear_2x2(), np.zeros((3, 3))),
                     r"instances must be \(N, 2\), got \(3, 3\)", id="predict-width"),
        pytest.param(lambda tmp: predict(_linear_2x2(), np.zeros(3)),
                     r"instances must be \(N, 2\), got \(3,\)", id="predict-rank"),
        pytest.param(lambda tmp: load_checkpoint(_old_checkpoint(tmp)),
                     "unsupported checkpoint version 0", id="checkpoint-version"),
    ],
)
def test_bad_input_rejected(tmp_path, call, match):
    with pytest.raises(ValueError, match=match):
        call(tmp_path)
