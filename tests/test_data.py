import numpy as np
import pytest

from minimaxclf.data import (
    ImbalanceProfile,
    LabeledDataset,
    MixtureSpec,
    circle_mixture,
    load_csv_dataset,
    make_imbalance_counts,
    partition_dataset,
    sample_mixture,
    two_gaussians_1d,
)

from helpers import save_csv_dataset


class TestImbalanceCounts:
    def test_long_tail_endpoint(self):
        profile = ImbalanceProfile("long_tail", 0.01, 5000)
        counts = make_imbalance_counts(profile, 10)
        assert counts[0] == 5000
        assert counts[9] == 50  # ratio^((10-1)/(10-1)) * base

    def test_step_profile(self):
        profile = ImbalanceProfile("step", 0.01, 5000)
        counts = make_imbalance_counts(profile, 10)
        assert list(counts[:5]) == [50] * 5
        assert list(counts[5:]) == [5000] * 5

    def test_long_tail_curve(self):
        # 5000 * 0.1^((y-1)/9) rounded half up, evaluated with 40-digit
        # arithmetic and frozen
        profile = ImbalanceProfile("long_tail", 0.1, 5000)
        counts = make_imbalance_counts(profile, 10)
        assert list(counts) == [5000, 3871, 2997, 2321, 1797, 1391, 1077, 834, 646, 500]

    def test_monotone_non_increasing(self):
        for ratio in (0.01, 0.1, 0.37, 1.0):
            counts = make_imbalance_counts(ImbalanceProfile("long_tail", ratio, 777), 7)
            assert np.all(np.diff(counts) <= 0)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            ImbalanceProfile("long_tail", 0.0, 100)
        with pytest.raises(ValueError):
            ImbalanceProfile("long_tail", 1.5, 100)

    def test_rejects_zero_count(self):
        profile = ImbalanceProfile("long_tail", 0.001, 100)
        with pytest.raises(ValueError, match="zero samples"):
            make_imbalance_counts(profile, 10)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown imbalance kind"):
            ImbalanceProfile("steep", 0.1, 100)


class TestSampleMixture:
    def test_zero_counts_empty(self):
        ds = sample_mixture(two_gaussians_1d(), [0, 0], seed=1)
        assert len(ds) == 0
        assert ds.class_count == 2

    def test_deterministic(self):
        spec = circle_mixture(4)
        a = sample_mixture(spec, [10, 20, 5, 7], seed=42)
        b = sample_mixture(spec, [10, 20, 5, 7], seed=42)
        assert np.array_equal(a.instances, b.instances)
        assert np.array_equal(a.labels, b.labels)

    def test_moments_1d(self):
        # standard errors: mean ~ N(0, 1/n), var estimate sd ~ sqrt(2/n)
        spec = MixtureSpec(np.array([[0.0], [10.0]]))
        ds = sample_mixture(spec, [10**6, 1], seed=3)
        x = ds.instances[ds.labels == 0, 0]
        assert abs(x.mean()) < 4e-3
        assert abs(x.var() - 1.0) < 0.01

    def test_mean_convergence_rate(self):
        spec = circle_mixture(3)
        ds = sample_mixture(spec, [10**5] * 3, seed=11)
        for y in range(3):
            xs = ds.instances[ds.labels == y]
            err = np.linalg.norm(xs.mean(axis=0) - spec.means[y])
            assert err < 5 * np.sqrt(2.0 / 10**5)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="counts length"):
            sample_mixture(two_gaussians_1d(), [5, 5, 5], seed=0)

    @pytest.mark.parametrize("k, d", [(2, 1), (4, 2), (3, 3)])
    def test_sigma_scales_draw_exactly(self, k, d):
        counts = np.arange(5, 5 + k)
        unit = sample_mixture(MixtureSpec(np.zeros((k, d))), counts, seed=6)
        wide = sample_mixture(MixtureSpec(np.zeros((k, d)), 2.0), counts, seed=6)
        assert np.array_equal(wide.instances, 2.0 * unit.instances)
        assert np.array_equal(wide.labels, unit.labels)


class TestPartition:
    def test_forced_counts(self):
        spec = two_gaussians_1d()
        ds = sample_mixture(spec, [100, 10], seed=0)
        split = partition_dataset(ds, 0.8, seed=0)
        assert list(split.model_part.per_class_counts) == [80, 8]
        assert list(split.prior_part.per_class_counts) == [20, 2]

    def test_tiny_class(self):
        ds = sample_mixture(two_gaussians_1d(), [5, 5], seed=0)
        split = partition_dataset(ds, 0.8, seed=0)
        assert list(split.model_part.per_class_counts) == [4, 4]
        assert list(split.prior_part.per_class_counts) == [1, 1]

    def test_union_is_multiset_identity(self):
        ds = sample_mixture(circle_mixture(5), [13, 7, 29, 4, 2], seed=5)
        split = partition_dataset(ds, 0.8, seed=9)
        merged = np.concatenate([split.model_part.instances, split.prior_part.instances])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.instances))
        total = split.model_part.per_class_counts + split.prior_part.per_class_counts
        assert np.array_equal(total, ds.per_class_counts)

    def test_rejects_singleton_class(self):
        ds = sample_mixture(two_gaussians_1d(), [5, 1], seed=0)
        with pytest.raises(ValueError, match="fewer than 2"):
            partition_dataset(ds, 0.8, seed=0)

    def test_rejects_bad_fraction(self):
        ds = sample_mixture(two_gaussians_1d(), [5, 5], seed=0)
        with pytest.raises(ValueError):
            partition_dataset(ds, 1.0, seed=0)


class TestCsv:
    def test_two_row_parse(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1.0,2.0,1\n3.0,4.0,2\n")
        ds = load_csv_dataset(path)
        assert ds.dim == 2
        assert list(ds.per_class_counts) == [1, 1]
        assert np.array_equal(ds.labels, [0, 1])

    def test_non_numeric_feature_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,1\noops,4.0,2\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv_dataset(path)

    def test_zero_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0\n")
        with pytest.raises(ValueError, match="1-based"):
            load_csv_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv_dataset(path)

    def test_header_flag(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y,label\n1.0,2.0,1\n")
        ds = load_csv_dataset(path, has_header=True)
        assert len(ds) == 1

    @pytest.mark.parametrize("header", ["", "x,y,label\n"], ids=["no-header", "header"])
    def test_byte_order_mark_dropped(self, tmp_path, header):
        path = tmp_path / "bom.csv"
        path.write_text(header + "1.0,2.0,1\n3.0,4.0,2\n", encoding="utf-8-sig")
        ds = load_csv_dataset(path, has_header=bool(header))
        assert np.array_equal(ds.instances, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ds.labels, [0, 1])

    def test_round_trip(self, tmp_path):
        ds = sample_mixture(circle_mixture(3), [4, 5, 6], seed=8)
        path = tmp_path / "rt.csv"
        save_csv_dataset(path, ds)
        back = load_csv_dataset(path)
        assert np.array_equal(back.instances, ds.instances)
        assert np.array_equal(back.labels, ds.labels)


def test_train_prior_from_realized_counts():
    ds = LabeledDataset(np.zeros((4, 1)), np.array([0, 0, 0, 1]), class_count=2)
    assert np.allclose(ds.train_prior().p, [0.75, 0.25])


def _load(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return load_csv_dataset(path)


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda tmp: MixtureSpec(np.zeros((1, 1))), "at least 2 classes",
                     id="mixture-one-class"),
        pytest.param(lambda tmp: MixtureSpec([[np.nan], [1.0]]), "means must be finite",
                     id="mixture-nan-mean"),
        *[
            pytest.param(lambda tmp, s=s: MixtureSpec(np.zeros((2, 1)), s),
                         "sigma must be finite and positive", id=f"mixture-sigma-{name}")
            for name, s in [("zero", 0.0), ("negative", -1.0), ("nan", np.nan), ("inf", np.inf)]
        ],
        pytest.param(lambda tmp: ImbalanceProfile("step", 0.5, 0), "base_count",
                     id="profile-base_count"),
        pytest.param(lambda tmp: make_imbalance_counts(ImbalanceProfile("step", 0.5, 10), 1),
                     "at least 2 classes", id="imbalance-one-class"),
        pytest.param(lambda tmp: LabeledDataset(np.zeros(3), np.zeros(3), 2), "2-d",
                     id="dataset-1d-instances"),
        pytest.param(lambda tmp: LabeledDataset(np.zeros((3, 1)), np.zeros(2, dtype=int), 2),
                     "labels shape", id="dataset-label-count"),
        # class indices only: numpy would truncate 0.7 to 0 and read a bool as 0 or 1
        *[pytest.param(lambda tmp, y=y: LabeledDataset(np.zeros((2, 1)), y, 2),
                       "labels must be a 1-d vector of integers", id=f"dataset-labels-{name}")
          for name, y in [("float", [0.7, 1.9]), ("bool", [True, False]),
                          ("mixed-bool", [True, 0]), ("ragged", [[0], [1, 0]])]],
        pytest.param(lambda tmp: LabeledDataset(np.zeros((2, 1)), [0, 2], 2),
                     r"lie in \[0, 2\)", id="dataset-label-range"),
        pytest.param(lambda tmp: sample_mixture(two_gaussians_1d(), [1, -1], 0), "nonnegative",
                     id="sample-negative-count"),
        pytest.param(lambda tmp: sample_mixture(two_gaussians_1d(), [2.5, 3.9], 0),
                     "counts must be a 1-d vector of integers", id="sample-float-counts"),
        pytest.param(lambda tmp: _load(tmp, "1.0\n2.0\n"), "row 1: need at least one feature",
                     id="csv-one-column"),
        pytest.param(lambda tmp: _load(tmp, "1.0,1\n2.0,3.0,2\n"),
                     "row 2: expected 2 columns, found 3", id="csv-ragged-row"),
        pytest.param(lambda tmp: _load(tmp, "1.0,1.5\n"), "row 1: non-integer label",
                     id="csv-non-integer-label"),
        # past int64: numpy raised OverflowError where it converted the labels
        pytest.param(lambda tmp: _load(tmp, f"1.0,{2**63 + 1}\n"),
                     "labels must be a 1-d vector of integers", id="csv-label-past-int64"),
        pytest.param(lambda tmp: _load(tmp, "1.0,0.5,1\nnan,0.5,1\n"),
                     "row 2: non-finite feature", id="csv-nan-feature"),
        pytest.param(lambda tmp: _load(tmp, "inf,0.5,1\n"), "row 1: non-finite feature",
                     id="csv-inf-feature"),
        pytest.param(lambda tmp: _load(tmp, b"1.0,0.5,1\n\xff,0.5,1\n"), "row 2: not UTF-8 text",
                     id="csv-not-utf8"),
        # only the file's first bytes can be a byte-order mark; elsewhere it is data
        pytest.param(lambda tmp: _load(tmp, "1.0,0.5,1\n\ufeff2.0,0.5,1\n"),
                     "row 2: non-numeric feature", id="csv-mark-inside"),
    ],
)
def test_bad_input_rejected(tmp_path, call, match):
    with pytest.raises(ValueError, match=match):
        call(tmp_path)
