import hashlib

import numpy as np
import pytest

from minimaxclf import minimax
from minimaxclf.ascent import auto_m, estimate_class_risks
from minimaxclf.data import (
    LabeledDataset,
    circle_mixture,
    partition_dataset,
    sample_mixture,
    three_gaussians_1d,
    two_gaussians_1d,
)
from minimaxclf.metrics import per_class_accuracies
from minimaxclf.minimax import (
    AscentConfig,
    MinimaxConfig,
    run_minimax,
    swap_components,
)
from minimaxclf.model import ModelParams, TrainConfig
from minimaxclf.oracle import adversarial_prior_search, bayes_class_risks
from minimaxclf.priors import Prior


def _small_config(**kw):
    defaults = dict(
        warmup_epochs=2,
        minimax_epochs=4,
        finetune_epochs=2,
        loss_variant="TLA",
        tau=1.0,
        ascent=AscentConfig(method="linear", alpha=0.1, m_worst=1, tie_seed=0),
        train=TrainConfig(batch_size=32, warmup_epochs=1, seed=0, weight_decay=0.0),
        architecture="linear",
        partition_seed=0,
        init_seed=0,
    )
    defaults.update(kw)
    return MinimaxConfig(**defaults)


def _dataset(seed=0):
    return sample_mixture(two_gaussians_1d(), [200, 40], seed=seed)


def _total_epochs(config):
    return config.warmup_epochs + config.minimax_epochs + config.finetune_epochs


def _trajectory(report):
    """The target prior before each minimax step, then the final prior."""
    minimax_priors = [rec.prior for rec in report.records if rec.phase == minimax.MINIMAX]
    return minimax_priors + [report.final_prior]


class TestPhases:
    def test_epoch_count_and_phase_tags(self):
        report = run_minimax(_small_config(), _dataset())
        assert len(report.records) == 8
        phases = [r.phase for r in report.records]
        assert phases == ["warmup"] * 2 + ["minimax"] * 4 + ["finetune"] * 2

    def test_prior_frozen_outside_minimax_phase(self):
        report = run_minimax(_small_config(), _dataset())
        train_prior = report.train_prior
        for rec in report.records[:2]:
            assert rec.prior == train_prior
        final = report.final_prior
        for rec in report.records[-2:]:
            assert rec.prior == final

    def test_first_minimax_epoch_uses_train_prior(self):
        # the ascent step happens after the epoch's training pass
        report = run_minimax(_small_config(), _dataset())
        assert report.records[2].prior == report.train_prior

    def test_trajectory_steps_are_single_ascent_moves(self):
        config = _small_config()
        report = run_minimax(config, _dataset())
        traj = _trajectory(report)
        assert len(traj) == 5  # initial + one per minimax epoch
        alpha = 0.1
        for before, after in zip(traj, traj[1:]):
            move = (after.p - before.p) / alpha + before.p
            # the implied target is a valid worst-M indicator: 1/M on M classes
            np.testing.assert_allclose(np.sort(move)[-1:], 1.0, atol=1e-9)
            np.testing.assert_allclose(np.sort(move)[:-1], 0.0, atol=1e-9)

    def test_auto_m_sets_each_step_worst_set(self):
        # each linear step gives indicator mass to exactly auto_m(risks)
        # coordinates, whichever way ties break; the rest shrink by 1 - alpha
        alpha = 0.1
        config = _small_config(
            minimax_epochs=8,
            ascent=AscentConfig(method="linear", alpha=alpha, m_worst="auto"),
        )
        dataset = sample_mixture(circle_mixture(4, 1.0), [120, 60, 30, 30], seed=0)
        report = run_minimax(config, dataset)
        minimax_records = [rec for rec in report.records if rec.phase == minimax.MINIMAX]
        traj = _trajectory(report)
        sizes = []
        for rec, before, after in zip(minimax_records, traj, traj[1:]):
            raised = np.count_nonzero(after.p > (1.0 - alpha) * before.p + 1e-12)
            assert raised == auto_m(rec.risks)
            sizes.append(raised)
        assert len(sizes) == 8
        assert max(sizes) > 1  # the worst set grew past one class

    def test_deterministic(self):
        a = run_minimax(_small_config(), _dataset())
        b = run_minimax(_small_config(), _dataset())
        assert a.final_prior == b.final_prior
        for ra, rb in zip(a.records, b.records):
            assert ra.mean_loss == rb.mean_loss
        for ta, tb in zip(a.params.tensors(), b.params.tensors()):
            np.testing.assert_array_equal(ta[1], tb[1])

    def test_zero_minimax_epochs_keeps_train_prior(self):
        config = _small_config(minimax_epochs=0)
        report = run_minimax(config, _dataset())
        assert report.final_prior == report.train_prior

    def test_zero_alpha_keeps_train_prior(self):
        config = _small_config(ascent=AscentConfig(method="linear", alpha=0.0))
        report = run_minimax(config, _dataset())
        assert report.final_prior == report.train_prior

    def test_tla_at_train_prior_matches_ce_run(self):
        # with the prior frozen at the training prior, offsets vanish and the
        # whole run is plain cross-entropy training
        tla = run_minimax(_small_config(ascent=AscentConfig(alpha=0.0)), _dataset())
        ce = run_minimax(
            _small_config(loss_variant="CE", ascent=AscentConfig(alpha=0.0)), _dataset()
        )
        for (_, a), (_, b) in zip(tla.params.tensors(), ce.params.tensors()):
            np.testing.assert_array_equal(a, b)

    def test_fixed_target_overrides_initial_prior(self):
        config = _small_config(fixed_target=(0.3, 0.7), minimax_epochs=4)
        report = run_minimax(config, _dataset())
        assert np.allclose(report.final_prior.p, [0.3, 0.7])
        for rec in report.records:
            assert np.allclose(rec.prior.p, [0.3, 0.7])
        # minimax epochs still estimate held-out risks, but the prior never moves
        assert [r.risks is not None for r in report.records if r.phase == "minimax"] == [True] * 4
        assert all(rec.prior == report.final_prior for rec in report.records)

    @pytest.mark.parametrize(
        "frozen",
        [dict(fixed_target=(0.3, 0.7)), dict(ascent=AscentConfig(method="ega", alpha=0.0))],
        ids=["fixed-target", "zero-alpha"],
    )
    def test_frozen_prior_builds_no_ascent_state(self, monkeypatch, frozen):
        def refuse(*args, **kwargs):
            raise AssertionError("a frozen prior needs no ascent state")

        monkeypatch.setattr(minimax, "AscentState", refuse)
        report = run_minimax(_small_config(**frozen), _dataset())
        target = report.records[0].prior
        assert report.final_prior == target
        assert all(r.prior == report.final_prior for r in report.records)

    def test_drw_switch_changes_training(self):
        # same run with and without the deferred re-weighting switch must
        # diverge only after the switch epoch
        base = _small_config(loss_variant="LDAM", warmup_epochs=4, minimax_epochs=0,
                             finetune_epochs=0, ascent=AscentConfig(alpha=0.0))
        with_drw = _small_config(loss_variant="LDAM", warmup_epochs=4, minimax_epochs=0,
                                 finetune_epochs=0, drw_epoch=2,
                                 ascent=AscentConfig(alpha=0.0))
        plain = run_minimax(base, _dataset())
        drw = run_minimax(with_drw, _dataset())
        assert plain.records[0].mean_loss == drw.records[0].mean_loss
        assert plain.records[1].mean_loss == drw.records[1].mean_loss
        assert plain.records[2].mean_loss != drw.records[2].mean_loss

    def test_eval_metrics_recorded(self):
        eval_set = sample_mixture(two_gaussians_1d(), [100, 100], seed=9)
        report = run_minimax(_small_config(), _dataset(), eval_set)
        assert report.final_worst_class_acc is not None
        assert all(r.balanced_acc is not None for r in report.records)

    def test_shared_evaluation_matches_metrics(self):
        config = _small_config()
        dataset = _dataset()
        eval_set = sample_mixture(two_gaussians_1d(), [100, 100], seed=9)
        report = run_minimax(config, dataset, eval_set)
        acc = per_class_accuracies(report.params, eval_set)
        worst = int(np.argmin(acc))
        assert report.final_worst_class == worst
        assert report.final_worst_class_acc == acc[worst]
        assert report.final_balanced_acc == acc.mean()
        last = report.records[-1]
        assert (last.worst_class, last.worst_class_acc, last.balanced_acc) == (
            worst, acc[worst], report.final_balanced_acc
        )
        split = partition_dataset(dataset, config.model_fraction, config.partition_seed)
        risks = estimate_class_risks(report.params, split.prior_part)
        np.testing.assert_array_equal(last.risks.estimates, risks.estimates)
        np.testing.assert_array_equal(last.risks.counts, risks.counts)

    @pytest.mark.parametrize("phases", [(2, 4, 2), (0, 0, 0)], ids=["three-phase", "no-epochs"])
    def test_eval_set_predicted_once_per_epoch(self, monkeypatch, phases):
        calls = []

        def counted(params, eval_set):
            calls.append(params)
            return per_class_accuracies(params, eval_set)

        monkeypatch.setattr(minimax, "per_class_accuracies", counted)
        warmup, minimax_epochs, finetune = phases
        config = _small_config(
            warmup_epochs=warmup, minimax_epochs=minimax_epochs, finetune_epochs=finetune
        )
        eval_set = sample_mixture(two_gaussians_1d(), [100, 100], seed=9)
        report = run_minimax(config, _dataset(), eval_set)
        # the final metrics reuse the last epoch's; with no epochs, the initial
        # parameters are evaluated once
        assert len(calls) == max(_total_epochs(config), 1)
        assert calls[-1] is report.params
        acc = per_class_accuracies(report.params, eval_set)
        worst = int(np.argmin(acc))
        assert (report.final_worst_class, report.final_worst_class_acc) == (worst, acc[worst])
        assert report.final_balanced_acc == acc.mean()

    def test_tied_worst_class_is_smallest_index(self):
        # a threshold at 0 gets each class half right
        params = ModelParams("linear", (np.array([[-1.0, 1.0]]),), (np.zeros(2),))
        x = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        eval_set = LabeledDataset(x, np.array([0, 0, 1, 1]), 2)
        model = minimax.TrainedModel(_small_config(), _dataset(), eval_set)
        model.params = params
        assert model.evaluate() == (0, 0.5, 0.5)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_phase_error_context(self):
        # lr large enough to overflow the logits within the first epochs
        config = _small_config(
            train=TrainConfig(learning_rate=1e300, batch_size=32, warmup_epochs=0, seed=0)
        )
        with pytest.raises(RuntimeError, match="epoch"):
            run_minimax(config, _dataset())

    @pytest.mark.parametrize(
        "phases, phase",
        [((2, 4, 2), "warmup"), ((0, 2, 2), "minimax"), ((0, 0, 2), "finetune")],
    )
    def test_train_epoch_check_wrapped(self, phases, phase):
        # 2 * lambda * W overflows in the first gradient of the first phase
        warmup, minimax_epochs, finetune = phases
        config = _small_config(
            warmup_epochs=warmup, minimax_epochs=minimax_epochs, finetune_epochs=finetune,
            train=TrainConfig(weight_decay=1e308, batch_size=32, seed=0),
        )
        with np.errstate(all="ignore"), pytest.raises(RuntimeError) as info:
            run_minimax(config, _dataset())
        assert str(info.value) == f"{phase} epoch 1 failed: non-finite gradient in tensor W1"
        assert isinstance(info.value.__cause__, ValueError)


def _run_digest(report) -> str:
    """SHA-256 of every record's epoch, phase, mean loss, prior, risks and
    evaluation triple, the final prior and every params tensor, bit for bit."""
    h = hashlib.sha256()
    for rec in report.records:
        scalars = (rec.worst_class, rec.worst_class_acc, rec.balanced_acc)
        h.update(repr((rec.epoch, rec.phase, float(rec.mean_loss).hex(), *scalars)).encode())
        for a in (rec.prior.p, rec.risks.estimates, rec.risks.counts):
            h.update(a.tobytes())
    h.update(report.final_prior.p.tobytes())
    for name, tensor in report.params.tensors():
        h.update(name.encode() + tensor.tobytes())
    return h.hexdigest()


def _mlp_run():
    """A width-8 MLP on four circle classes: TWCE, EGA, deferred
    re-weighting after epoch 3 and an eval set."""
    spec = circle_mixture(4, 1.0)
    config = _small_config(
        loss_variant="TWCE", drw_epoch=3, architecture="mlp", hidden_width=8,
        ascent=AscentConfig(method="ega", alpha=0.1, m_worst=1, tie_seed=0),
    )
    dataset = sample_mixture(spec, [60, 30, 20, 20], seed=0)
    return run_minimax(config, dataset, sample_mixture(spec, [50] * 4, seed=9))


@pytest.mark.parametrize(
    "run, digest",
    [
        pytest.param(lambda: run_minimax(_small_config(), _dataset()),
                     "b68c530318d3bd024a931b661e139055333f779938216d676e5330e8eba55c3f",
                     id="linear-tla"),
        pytest.param(_mlp_run,
                     "e34ad75ca4cdf95bdce2896beaaca6124ffb44940b1a844c3274843fdd34c260",
                     id="mlp-twce-ega-drw"),
    ],
)
def test_run_bits_pinned(run, digest):
    # every epoch's record, the final prior and the parameters of two runs:
    # a change that moves any bit of the loop fails here
    assert _run_digest(run()) == digest


class _BayesRule:
    """A minimizer whose fit is the exact Bayes rule of ``three_gaussians_1d``
    at the target prior: its held-out risks and its evaluation are exact."""

    params = None

    def __init__(self):
        self.fits, self.risks = [], []

    def fit(self, phase, epoch, target):
        self.fits.append((phase, epoch, target))
        return 0.0

    def held_out_risks(self):
        self.risks.append(bayes_class_risks(three_gaussians_1d(), self.fits[-1][2]))
        return self.risks[-1]

    def evaluate(self):
        risks = self.risks[-1].estimates
        worst = int(np.argmax(risks))
        return worst, 1.0 - risks[worst], 1.0 - risks.mean()


class TestBayesMinimizer:
    """The loop, unchanged, over the exact Bayes rule in place of training."""

    DATASET = LabeledDataset(np.zeros((4040, 1)), np.repeat([0, 1, 2], [2000, 40, 2000]), 3)

    def _run(self, **kw):
        config = MinimaxConfig(
            warmup_epochs=0, minimax_epochs=400, finetune_epochs=0,
            ascent=AscentConfig(method="linear", alpha=0.01, m_worst=1), **kw,
        )
        rule = _BayesRule()
        return rule, run_minimax(config, self.DATASET, minimizer=rule)

    def test_loop_reads_only_the_minimizer(self):
        rule, report = self._run()
        assert [(phase, epoch) for phase, epoch, _ in rule.fits] == [
            (rec.phase, rec.epoch) for rec in report.records] == [
            ("minimax", epoch) for epoch in range(1, 401)]
        assert all(target is rec.prior for (_, _, target), rec in zip(rule.fits, report.records))
        assert len(rule.risks) == 400
        assert all(rec.risks is risks for rec, risks in zip(report.records, rule.risks))
        assert report.params is None and report.records[0].prior == report.train_prior

    def test_converges_to_the_minimax_risk(self):
        # at a constant alpha of 0.01 the ascent stalls in a band above R*:
        # the final prior's worst-class excess measures 1.91e-3 at 400 epochs
        # (4.7e-3 at 95); no prior's worst class is below R*
        _, report = self._run()
        star = adversarial_prior_search(three_gaussians_1d(), method="grid").risk
        excess = bayes_class_risks(three_gaussians_1d(), report.final_prior).estimates.max() - star
        assert 0.0 <= excess < 2.5e-3

    def test_fixed_target_never_moves(self):
        rule, report = self._run(fixed_target=(0.2, 0.3, 0.5))
        fixed = Prior((0.2, 0.3, 0.5))
        assert report.final_prior == fixed
        assert all(target == fixed for _, _, target in rule.fits)


class TestSwapComponents:
    def test_grid_contains_all_four(self):
        grid = swap_components(_small_config())
        assert set(grid) == {
            ("TLA", "linear"),
            ("TLA", "ega"),
            ("TWCE", "linear"),
            ("TWCE", "ega"),
        }

    def test_seeds_shared(self):
        base = _small_config()
        for cell in swap_components(base).values():
            assert cell.train.seed == base.train.seed
            assert cell.init_seed == base.init_seed
            assert cell.partition_seed == base.partition_seed
            assert cell.ascent.tie_seed == base.ascent.tie_seed

    def test_alpha_reset_when_method_flips(self):
        base = _small_config(ascent=AscentConfig(method="linear", alpha=0.05))
        grid = swap_components(base)
        assert grid[("TLA", "linear")].ascent.resolved_alpha() == 0.05
        assert grid[("TLA", "ega")].ascent.resolved_alpha() == 0.1  # ega default

    def test_only_loss_and_ascent_differ(self):
        base = _small_config()
        for (variant, method), cell in swap_components(base).items():
            assert cell.loss_variant == variant
            assert cell.ascent.method == method
            assert cell.train == base.train
            assert _total_epochs(cell) == _total_epochs(base)


class TestMinimaxDirection:
    def test_two_class_benchmark_helps_minority(self):
        # 0.9/0.1 imbalance on overlapping classes: the minority class is the
        # worst under plain training; the loop must move prior mass toward it
        # and lift its accuracy at the balanced evaluation set
        spec = two_gaussians_1d()
        dataset = sample_mixture(spec, [9000, 1000], seed=0)
        eval_set = sample_mixture(spec, [4000, 4000], seed=991)
        config = _small_config(
            warmup_epochs=3,
            minimax_epochs=30,
            finetune_epochs=5,
            ascent=AscentConfig(method="linear", alpha=0.05, m_worst=1, tie_seed=0),
            train=TrainConfig(batch_size=128, warmup_epochs=3, seed=0, weight_decay=0.0,
                              decay_epochs=(30,)),
        )
        report = run_minimax(config, dataset, eval_set)
        baseline = run_minimax(
            _small_config(
                warmup_epochs=3,
                minimax_epochs=30,
                finetune_epochs=5,
                loss_variant="CE",
                ascent=AscentConfig(alpha=0.0),
                train=config.train,
            ),
            dataset,
            eval_set,
        )
        assert report.final_prior.p[1] > report.train_prior.p[1]
        assert report.final_worst_class_acc > baseline.final_worst_class_acc


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: MinimaxConfig(warmup_epochs=-1), "nonnegative", id="epochs"),
        pytest.param(lambda: MinimaxConfig(model_fraction=1.0), "model_fraction",
                     id="model_fraction"),
    ],
)
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
