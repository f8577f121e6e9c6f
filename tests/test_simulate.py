"""Tests for the benchmark scenarios: construction, sampling, and metrics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import rankdata

import catdcor.simulate
from catdcor import (
    ConfigurationError,
    InfeasibleSettingError,
    SettingSpec,
    UndefinedAUCError,
    build_joint,
    dcov2,
    distance_matrix,
    encoding_for_kind,
    roc_auc,
    roc_points,
    run_benchmark,
    sample_dataset,
    screen,
    setting_spec,
)


def brute_auc(scores, truth):
    """Pairwise comparison oracle: fraction of (relevant, irrelevant)
    pairs ranked correctly, ties counted half."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    pos = scores[truth]
    neg = scores[~truth]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


class TestSettingSpec:
    def test_canned_parameters(self):
        spec1 = setting_spec(1, n=100)
        assert spec1.n_rows == spec1.n_cols == 5
        assert_allclose(spec1.row_marginal, [0.5, 0.3, 0.1, 0.05, 0.05])
        assert spec1.delta == 0.04
        assert len(spec1.cells) == 5
        spec2 = setting_spec(2, n=100)
        assert len(spec2.cells) == 6
        spec4 = setting_spec(4, n=100)
        assert spec4.n_rows == 8
        assert spec4.delta == 0.025
        assert len(setting_spec(5, n=100).cells) == 10
        assert len(setting_spec(6, n=100).cells) == 10

    def test_unknown_setting(self):
        with pytest.raises(ValueError):
            setting_spec(7, n=100)

    def test_desk_scale_defaults(self):
        spec = setting_spec(3, n=50)
        assert spec.n_features == 1000
        assert spec.relevant_count == 50


class TestBuildJoint:
    def test_setting_one_exact_construction(self):
        spec = setting_spec(1, n=100)
        built = build_joint(spec)
        assert built.method == "exact"
        pi = built.joint.pi
        assert pi.min() >= 0.0
        assert_allclose(pi.sum(axis=1), spec.row_marginal, atol=1e-9)
        assert_allclose(pi.sum(axis=0), spec.col_marginal, atol=1e-9)
        delta = built.joint.delta()
        for i, j in spec.cells:
            assert_allclose(delta[i, j], spec.delta, atol=1e-9)

    def test_remaining_settings_need_fallback(self):
        # the listed cells alone exceed a marginal, so no exact table exists
        for setting_id in (2, 3, 4, 5, 6):
            spec = setting_spec(setting_id, n=100)
            with pytest.raises(InfeasibleSettingError):
                build_joint(spec)
            built = build_joint(spec, allow_rank_one=True)
            assert built.method == "rank-one-clipped"
            pi = built.joint.pi
            assert pi.min() >= 0.0
            assert_allclose(pi.sum(), 1.0, atol=1e-12)

    def test_empty_cells_gives_product(self):
        spec = SettingSpec(
            setting_id=1, n_rows=3, n_cols=3,
            row_marginal=np.array([0.5, 0.3, 0.2]),
            col_marginal=np.array([0.4, 0.4, 0.2]),
            delta=0.01, cells=(), n_features=10, relevant_count=0, n=50,
        )
        built = build_joint(spec)
        assert built.method == "ipf"
        assert_allclose(built.joint.pi,
                        np.outer([0.5, 0.3, 0.2], [0.4, 0.4, 0.2]))

    def test_mild_perturbation_uses_capped_ipf(self):
        # a small enough bump is absorbed on the complement without any
        # cell rising above its independence level
        spec = SettingSpec(
            setting_id=1, n_rows=3, n_cols=3,
            row_marginal=np.array([0.4, 0.35, 0.25]),
            col_marginal=np.array([0.4, 0.35, 0.25]),
            delta=0.01, cells=((0, 0), (1, 1), (2, 2)),
            n_features=10, relevant_count=2, n=50,
        )
        built = build_joint(spec)
        assert built.method == "ipf"
        pi = built.joint.pi
        prod = np.outer(spec.row_marginal, spec.col_marginal)
        assert_allclose(pi.sum(axis=1), spec.row_marginal, atol=1e-9)
        assert_allclose(pi.sum(axis=0), spec.col_marginal, atol=1e-9)
        delta = built.joint.delta()
        for i, j in spec.cells:
            assert_allclose(delta[i, j], 0.01, atol=1e-9)
        off = ~np.eye(3, dtype=bool)
        assert np.all(pi[off] <= prod[off] + 1e-12)

    def test_all_settings_positive_dcov2(self):
        for setting_id in range(1, 7):
            spec = setting_spec(setting_id, n=100)
            built = build_joint(spec, allow_rank_one=True)
            for kind in ("onehot", "ordinal", "semicircle"):
                dx = distance_matrix(encoding_for_kind(kind, spec.n_rows))
                dy = distance_matrix(encoding_for_kind(kind, spec.n_cols))
                assert dcov2(built.joint, dx, dy) > 0.0


class TestSampleDataset:
    def test_deterministic(self):
        spec = setting_spec(1, n=60, n_features=30, relevant_count=5)
        a = sample_dataset(spec, 12345)
        b = sample_dataset(spec, 12345)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.response, b.response)
        c = sample_dataset(spec, 54321)
        assert not np.array_equal(a.features, c.features)

    def test_no_relevant_features(self):
        spec = SettingSpec(
            setting_id=1, n_rows=3, n_cols=3,
            row_marginal=np.array([0.5, 0.3, 0.2]),
            col_marginal=np.array([0.5, 0.3, 0.2]),
            delta=0.02, cells=((0, 0),), n_features=12, relevant_count=0, n=40,
        )
        data = sample_dataset(spec, 7)
        assert data.relevant_ids.size == 0
        assert data.features.shape == (40, 12)

    def test_law_of_large_numbers(self):
        # empirical joint of (relevant feature, response) approaches pi
        spec = SettingSpec(
            setting_id=1, n_rows=5, n_cols=5,
            row_marginal=np.array([0.5, 0.3, 0.1, 0.05, 0.05]),
            col_marginal=np.array([0.5, 0.3, 0.1, 0.05, 0.05]),
            delta=0.04,
            cells=((0, 0), (1, 1), (2, 2), (3, 3), (4, 4)),
            n_features=1, relevant_count=1, n=1000000,
        )
        data = sample_dataset(spec, 99)
        empirical = np.zeros((5, 5))
        np.add.at(empirical, (data.features[:, 0], data.response), 1.0)
        empirical /= spec.n
        assert np.abs(empirical - data.joint.pi).max() < 0.003

    def test_irrelevant_features_follow_marginal(self):
        spec = setting_spec(1, n=200000, n_features=2, relevant_count=0)
        data = sample_dataset(spec, 17)
        freq = np.bincount(data.features[:, 1], minlength=5) / spec.n
        assert np.abs(freq - spec.row_marginal).max() < 0.005

    def test_relevant_columns_unchanged_by_total_feature_count(self):
        # scores of the shared leading columns do not depend on how many
        # noise columns follow, because draws are consumed column by column
        spec_small = setting_spec(1, n=80, n_features=40, relevant_count=10)
        spec_large = setting_spec(1, n=80, n_features=200, relevant_count=10)
        small = sample_dataset(spec_small, 4)
        large = sample_dataset(spec_large, 4)
        assert np.array_equal(small.features[:, :40], large.features[:, :40])
        assert np.array_equal(small.response, large.response)


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([5.0, 4.0, 3.0, 1.0, 0.5])
        truth = np.array([True, True, True, False, False])
        assert roc_auc(scores, truth) == 1.0

    def test_reversed_is_zero(self):
        scores = np.array([0.1, 0.2, 3.0, 4.0])
        truth = np.array([True, True, False, False])
        assert roc_auc(scores, truth) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(80)
        scores = rng.random(4000)
        truth = rng.random(4000) < 0.3
        assert abs(roc_auc(scores, truth) - 0.5) < 0.03

    def test_ties_averaged_matches_pairwise_oracle(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            scores = rng.integers(0, 4, size=30).astype(float)  # many ties
            truth = rng.random(30) < 0.4
            if truth.all() or not truth.any():
                continue
            assert_allclose(roc_auc(scores, truth), brute_auc(scores, truth),
                            atol=1e-12)

    @pytest.mark.parametrize("case", ["untied", "all-tied", "block-ties", "n=2"])
    def test_equals_rankdata_reference(self, case):
        rng = np.random.default_rng(83)
        for _ in range(20):
            n = 2 if case == "n=2" else int(rng.integers(3, 200))
            if case == "untied":
                scores = rng.random(n)
            elif case == "all-tied":
                scores = np.full(n, rng.random())
            elif case == "block-ties":
                scores = rng.integers(0, max(2, n // 5), size=n) * 0.1
            else:
                scores = rng.integers(0, 2, size=2).astype(float)
            truth = np.arange(n) < rng.integers(1, n)
            rng.shuffle(truth)
            n_pos = int(truth.sum())
            ranks = rankdata(scores)
            expected = float((ranks[truth].sum() - n_pos * (n_pos + 1) / 2.0)
                             / (n_pos * (n - n_pos)))
            assert roc_auc(scores, truth) == expected

    def test_nan_score_gives_nan(self):
        assert np.isnan(roc_auc([0.1, np.nan, 0.3], [True, False, False]))

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedAUCError):
            roc_auc([1.0, 2.0], [True, True])

    def test_roc_points_shape_and_ends(self):
        rng = np.random.default_rng(82)
        scores = rng.random(50)
        truth = rng.random(50) < 0.4
        points = roc_points(scores, truth)
        assert_allclose(points[0], [0.0, 0.0])
        assert_allclose(points[-1], [1.0, 1.0])
        assert np.all(np.diff(points[:, 0]) >= 0.0)
        assert np.all(np.diff(points[:, 1]) >= 0.0)


class TestRunBenchmark:
    def test_reproducible_single_replicate(self):
        a = run_benchmark(2, n=60, n_features=60, relevant_count=6,
                          replicates=1, seed=5)
        b = run_benchmark(2, n=60, n_features=60, relevant_count=6,
                          replicates=1, seed=5)
        for ra, rb in zip(a, b):
            assert ra.auc == rb.auc
            assert ra.sensitivity == rb.sensitivity
            assert ra.specificity == rb.specificity

    def test_metrics_in_unit_interval(self):
        results = run_benchmark(4, n=50, n_features=80, relevant_count=8,
                                replicates=2, seed=1)
        assert {r.encoding for r in results} == {"onehot", "ordinal", "semicircle"}
        for r in results:
            assert 0.0 <= r.auc <= 1.0
            assert 0.0 <= r.sensitivity <= 1.0
            assert 0.0 <= r.specificity <= 1.0
            assert r.construction == "rank-one-clipped"
            assert r.replicate_aucs.shape == (2,)

    def test_negative_seed(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            run_benchmark(2, n=60, n_features=60, relevant_count=6, replicates=1, seed=-1)

    def test_joint_built_once(self, monkeypatch):
        calls = []

        def counting_build_joint(*args, **kwargs):
            calls.append(args)
            return build_joint(*args, **kwargs)

        monkeypatch.setattr(catdcor.simulate, "build_joint", counting_build_joint)
        run_benchmark(3, n=50, n_features=40, relevant_count=4, replicates=3, seed=4)
        assert len(calls) == 1

    def test_replicates_match_sample_dataset(self):
        spec = setting_spec(5, n=40, n_features=30, relevant_count=3)
        results = run_benchmark(5, n=40, encoding_kinds=("ordinal",), n_features=30,
                                relevant_count=3, replicates=2, seed=9)
        for r, rep_seed in enumerate(results[0].replicate_seeds):
            data = sample_dataset(spec, rep_seed, allow_rank_one=True)
            report = screen(data.features, data.response,
                            [distance_matrix(encoding_for_kind("ordinal", 8))] * 30,
                            distance_matrix(encoding_for_kind("ordinal", 8)),
                            estimator="mle")
            assert np.array_equal(results[0].pooled_scores[30 * r:30 * (r + 1)],
                                  report.values)

    def test_detects_strong_signal(self):
        results = run_benchmark(1, n=150, n_features=100, relevant_count=10,
                                replicates=2, seed=2)
        for r in results:
            assert r.auc > 0.85
