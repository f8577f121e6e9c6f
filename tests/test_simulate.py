"""Tests for the benchmark scenarios: construction, sampling, and metrics."""

import hashlib
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose
from scipy.stats import rankdata

import catdcor.measures
import catdcor.simulate
from catdcor import (
    ConfigurationError,
    DistributionError,
    InfeasibleSettingError,
    InsufficientFeaturesError,
    InsufficientSampleError,
    SettingSpec,
    ShapeError,
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
from catdcor.measures import _score_many, _score_pairs
from catdcor.simulate import _draw_dataset

import draw_reference as ref
import scalar_reference


def small_spec(row, col, cells, relevant_count):
    """A 3x3 scenario with the given marginals and listed cells, delta 0.01."""
    return SettingSpec(
        setting_id=1, n_rows=3, n_cols=3, row_marginal=np.array(row),
        col_marginal=np.array(col), delta=0.01, cells=cells,
        n_features=10, relevant_count=relevant_count, n=50,
    )


EMPTY_SPEC = small_spec([0.5, 0.3, 0.2], [0.4, 0.4, 0.2], (), 0)
MILD_SPEC = small_spec([0.4, 0.35, 0.25], [0.4, 0.35, 0.25], ((0, 0), (1, 1), (2, 2)), 2)


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

    @pytest.mark.parametrize("row, col", [
        ([0.5, 0.5], [0.25, 0.25, 0.5]),             # a row marginal of 2 levels on 3 rows
        ([0.25, 0.25, 0.5], [0.5, 0.25, 0.125, 0.125]),
        ([[0.25, 0.25, 0.5]], [0.25, 0.25, 0.5]),    # not 1-d
        ([0.25, 0.25, 0.5], 1.0),
    ])
    def test_marginals_must_match_the_grid(self, row, col):
        with pytest.raises(ShapeError, match="^marginals must be 1-d of lengths "
                                             r"n_rows = 3 and n_cols = 3$"):
            small_spec(row, col, (), 0)

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

    def test_infeasible_margins_solve_no_program(self, monkeypatch):
        # A row or column whose listed cells alone exceed its marginal is
        # caught before either linear program; setting 1 still solves them.
        calls = []

        def counting_lp(*args, **kwargs):
            calls.append(kwargs.get("capped"))
            return exact_pin_lp(*args, **kwargs)

        exact_pin_lp = catdcor.simulate._exact_pin_lp
        monkeypatch.setattr(catdcor.simulate, "_exact_pin_lp", counting_lp)
        for setting_id in (2, 3, 4, 5, 6):
            built = build_joint(setting_spec(setting_id, n=100), allow_rank_one=True)
            assert built.method == "rank-one-clipped"
        assert calls == []
        assert build_joint(setting_spec(1, n=100)).method == "exact"
        assert calls == [True, False]

    def test_empty_cells_gives_product(self):
        built = build_joint(EMPTY_SPEC)
        assert built.method == "ipf"
        assert_allclose(built.joint.pi,
                        np.outer([0.5, 0.3, 0.2], [0.4, 0.4, 0.2]))

    def test_mild_perturbation_uses_capped_ipf(self):
        # a small enough bump is absorbed on the complement without any
        # cell rising above its independence level
        spec = MILD_SPEC
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


def pin_lp_cases():
    """(product, bump) pairs formed as build_joint forms them: every canned
    setting, the two small specs above, and 240 seeded random specs with
    2-9 rows and columns and one delta, whose listed cells are drawn with
    replacement (a repeated cell carries twice the delta)."""
    specs = [setting_spec(s, n=100) for s in range(1, 7)] + [EMPTY_SPEC, MILD_SPEC]
    rng = np.random.default_rng(1313)
    for _ in range(240):
        n_rows, n_cols = (int(k) for k in rng.integers(2, 10, size=2))
        # Fewer draws than cells, so at least one cell stays free.
        drawn = rng.integers(0, n_rows * n_cols, size=rng.integers(1, n_rows * n_cols))
        specs.append(SimpleNamespace(
            n_rows=n_rows, n_cols=n_cols, delta=rng.uniform(0.001, 0.05),
            row_marginal=rng.dirichlet(np.ones(n_rows)),
            col_marginal=rng.dirichlet(np.ones(n_cols)),
            cells=[divmod(int(cell), n_cols) for cell in drawn]))
    cases = []
    for spec in specs:
        bump = np.zeros((spec.n_rows, spec.n_cols))
        for i, j in spec.cells:
            bump[i, j] += spec.delta
        cases.append((np.outer(spec.row_marginal, spec.col_marginal), bump))
    return cases


class TestExactPinLp:
    def test_cases_cover_tall_tables_and_repeated_cells(self):
        cases = pin_lp_cases()
        assert sum(product.shape[0] >= 8 for product, _ in cases) >= 20
        assert sum(bump.max() > bump[bump > 0.0].min()
                   for _, bump in cases if bump.any()) >= 20

    @pytest.mark.parametrize("capped", [True, False])
    def test_arguments_match_loop_reference(self, monkeypatch, capped):
        captured = []

        def fake_linprog(c, **kwargs):
            captured.append(dict(kwargs, c=c))
            return SimpleNamespace(status=2)

        monkeypatch.setattr(scipy.optimize, "linprog", fake_linprog)
        for product, bump in pin_lp_cases():
            assert catdcor.simulate._exact_pin_lp(product, bump, capped=capped) is None
            args = captured.pop()
            want = scalar_reference.exact_pin_lp_args(product, bump, capped)
            assert args.keys() == want.keys()
            for key in ("c", "A_eq", "b_eq", "A_ub", "b_ub"):
                assert np.array_equal(args[key], want[key]), key
            assert args["bounds"] == want["bounds"]
            assert args["method"] == want["method"]


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

    @pytest.mark.parametrize("seed", [-1, (1, -2), (), 1.5, "7"])
    def test_invalid_seed(self, seed):
        spec = setting_spec(2, n=20, n_features=10, relevant_count=2)
        with pytest.raises(ConfigurationError, match="non-negative"):
            sample_dataset(spec, seed, allow_rank_one=True)

    @pytest.mark.parametrize("setting_id, n, n_features, relevant_count, seed, features_sha, "
                             "response_sha", [
        (2, 60, 300, 200, 7,
         "c27ba24ebccbdf332a93fd41b5e530e47d01f417eddb82b75d5bab4790d8e210",
         "854c519f5065cf1fae29bfd214e21ea6f2a9fa13126c917fdf92f3082c128bf2"),
        (4, 100, 1000, 50, (51, 4, 0),
         "0965bfbe2f5d8f457883dc20d943e9839a0856138612459fae1528e850fef52c",
         "44509c3c42405a4190669e4a1508483722998964f7e300c50419ca5bc232e2ec"),
    ])
    def test_sampled_bytes_pinned(self, setting_id, n, n_features, relevant_count, seed,
                                  features_sha, response_sha):
        # Any change to the random stream or to its mapping onto codes
        # changes these digests (int64 values in C order).
        spec = setting_spec(setting_id, n=n, n_features=n_features,
                            relevant_count=relevant_count)
        data = sample_dataset(spec, seed, allow_rank_one=True)
        features = np.ascontiguousarray(data.features, dtype=np.int64)
        response = np.ascontiguousarray(data.response, dtype=np.int64)
        assert hashlib.sha256(features.tobytes()).hexdigest() == features_sha
        assert hashlib.sha256(response.tobytes()).hexdigest() == response_sha


class TestDrawStream:
    """The blocked draw against the column-by-column reference loop."""

    @staticmethod
    def assert_matches_reference(spec, seed):
        built = build_joint(spec, allow_rank_one=True)
        data = _draw_dataset(spec, built, seed)
        features, response = ref.draw_dataset(spec, built.joint, seed)
        assert data.features.shape == (spec.n, spec.n_features)
        assert np.array_equal(data.features, features)
        assert np.array_equal(data.response, response)
        assert np.array_equal(data.relevant_ids, np.arange(spec.relevant_count))

    @pytest.mark.parametrize("setting_id", range(1, 7))
    def test_every_setting(self, setting_id):
        spec = setting_spec(setting_id, n=70, n_features=300, relevant_count=50)
        for seed in ((3, setting_id, 1), 21):
            self.assert_matches_reference(spec, seed)

    @pytest.mark.parametrize("n_features, relevant_count", [
        (300, 0),      # irrelevant columns only
        (300, 200),    # the relevant/irrelevant split falls inside a block
        (257, 257),    # relevant columns only, last block of one column
        (130, 128),    # split exactly at a block boundary
        (5, 2),        # fewer columns than one block
    ])
    def test_block_boundaries(self, n_features, relevant_count):
        spec = setting_spec(5, n=40, n_features=n_features, relevant_count=relevant_count)
        self.assert_matches_reference(spec, 11)

    @staticmethod
    def assert_counts_match_search(cdf, u):
        found = catdcor.simulate._inverse_cdf_sample(cdf, u)
        expected = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
        assert np.array_equal(found, expected)

    def test_zero_probability_categories(self):
        # Tied CDF entries; uniforms on every entry and between them.
        cdf = catdcor.simulate._cdf(np.array([0.0, 0.2, 0.0, 0.0, 0.5, 0.3, 0.0]))
        u = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0.0),
                            np.random.default_rng(1).random(500), [0.0]])
        self.assert_counts_match_search(cdf, u)

    def test_cumsum_overshooting_one(self):
        # The cumulative sums pass 1 before the last entry is pinned to it.
        cdf = catdcor.simulate._cdf(np.array([0.1, 0.2, 0.7 + 1e-12, 0.0]))
        assert cdf[2] > 1.0
        u = np.concatenate([np.random.default_rng(2).random(500),
                            [np.nextafter(1.0, 0.0), 0.3, 0.1]])
        self.assert_counts_match_search(cdf, u)

    def test_many_categories_widen_the_counter(self):
        cdf = catdcor.simulate._cdf(np.random.default_rng(3).dirichlet(np.ones(300)))
        u = np.concatenate([np.random.default_rng(4).random((4, 250)).ravel(),
                            [cdf[-2], np.nextafter(1.0, 0.0)]])
        assert catdcor.simulate._inverse_cdf_sample(cdf, u).max() == 299
        self.assert_counts_match_search(cdf, u)

    def test_features_column_major(self):
        spec = setting_spec(1, n=30, n_features=20, relevant_count=5)
        data = sample_dataset(spec, 2)
        assert data.features.flags.f_contiguous


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

    @pytest.mark.parametrize("curve", [roc_auc, roc_points])
    @pytest.mark.parametrize("n_scores", [2, 5])
    def test_scores_and_truth_of_unequal_length(self, curve, n_scores):
        with pytest.raises(ShapeError, match="equal length"):
            curve(np.arange(n_scores, dtype=float), [True, False, True])

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

    def test_one_scorer_call_per_block(self, monkeypatch):
        # 300 features are one group: one call scores it under every
        # encoding kind, its table-sized steps in blocks of 128, 128 and 44.
        calls = []

        def counting_score_pairs(counts, n, pairs):
            calls.append((len(counts), [pair[2] for pair in pairs]))
            return _score_pairs(counts, n, pairs)

        monkeypatch.setattr(catdcor.simulate, "_score_pairs", counting_score_pairs)
        stacks = {}
        for name in ("_centered", "_dcov2_many"):
            def counting(tables, *args, kernel=getattr(catdcor.measures, name),
                         sizes=stacks.setdefault(name, [])):
                sizes.append(len(tables))
                return kernel(tables, *args)

            monkeypatch.setattr(catdcor.measures, name, counting)
        blocks = [128, 128, 44]
        for estimator, centered in [("unbiased", []), ("mle", blocks * 2)]:
            calls.clear()
            for sizes in stacks.values():
                sizes.clear()
            run_benchmark(4, n=50, n_features=300, relevant_count=3, replicates=2, seed=3,
                          estimator=estimator)
            assert calls == [(300, [estimator] * 3)] * 2
            assert stacks["_centered"] == centered
            assert stacks["_dcov2_many"] == [size for size in blocks for _ in range(3)] * 2

    def test_shared_scoring_peak_within_per_kind_scoring(self, monkeypatch):
        # One setting-4 replicate at n = 5000: scoring each 128-column block
        # once for all kinds peaks no higher, traced, than scoring it once
        # per kind with nothing shared (warm runs differ by a few hundred
        # bytes of Python objects), and no higher than a loop over 128-column
        # blocks scored per kind plus the harness's own result arrays (about
        # 70 KB).  A wider stack would add megabytes: its (n, S) tabulation
        # index alone is 8 n S bytes.
        n, kinds = 5000, ("onehot", "ordinal", "semicircle")

        def traced_peak(call):
            call()  # the first call allocates once-only objects
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def benchmark():
            run_benchmark(4, n=n, n_features=1000, relevant_count=50, replicates=1, seed=7)

        def blocked_loop():
            spec = setting_spec(4, n=n, n_features=1000, relevant_count=50)
            data = _draw_dataset(spec, build_joint(spec, allow_rank_one=True), (7, 4, 0))
            dists = [(distance_matrix(encoding_for_kind(kind, 8)),) * 2 for kind in kinds]
            for start in range(0, 1000, 128):
                counts = scalar_reference.tabulate(data.features[:, start:start + 128],
                                                   data.response[:, None], 8, 8)
                for dx, dy in dists:
                    _score_many(counts, float(n), dx, dy, "mle")

        shared = traced_peak(benchmark)
        assert shared <= traced_peak(blocked_loop) + 2**20
        monkeypatch.setattr(catdcor.simulate, "_score_pairs", lambda counts, n, pairs: [
            _score_many(counts, n, *pair) for pair in pairs])
        assert shared <= traced_peak(benchmark) + 4096

    def test_joint_built_once(self, monkeypatch):
        calls = []

        def counting_build_joint(*args, **kwargs):
            calls.append(args)
            return build_joint(*args, **kwargs)

        monkeypatch.setattr(catdcor.simulate, "build_joint", counting_build_joint)
        run_benchmark(3, n=50, n_features=40, relevant_count=4, replicates=3, seed=4)
        assert len(calls) == 1

    @staticmethod
    def replicate_warnings_and_scores(setting_id, n, n_features, estimator):
        """Check run_benchmark against screen on every replicate and encoding.

        One tabulation per replicate, scored under every encoding, must
        give the scores screen gives on the same dataset, bit for bit, and
        the same degenerate warnings, each naming its replicate and
        encoding.  Returns the harness's warnings.
        """
        kinds = ("onehot", "ordinal", "semicircle")
        spec = setting_spec(setting_id, n=n, n_features=n_features, relevant_count=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_benchmark(setting_id, n=n, encoding_kinds=kinds,
                                    n_features=n_features, relevant_count=3,
                                    replicates=2, seed=2, estimator=estimator)
        bench_warnings = [str(w.message) for w in caught]
        screen_warnings = []
        for r, rep_seed in enumerate(results[0].replicate_seeds):
            data = sample_dataset(spec, rep_seed, allow_rank_one=True)
            for result in results:
                dist = distance_matrix(encoding_for_kind(result.encoding, spec.n_rows))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    report = screen(data.features, data.response, [dist] * n_features,
                                    dist, estimator=estimator)
                screen_warnings += [f"{w.message} (replicate {r}, {result.encoding} encoding)"
                                    for w in caught]
                scores = result.pooled_scores[n_features * r:n_features * (r + 1)]
                assert np.array_equal(scores, report.values)
                assert np.all(scores[report.degenerate] == 0.0)
        assert bench_warnings == screen_warnings
        return bench_warnings

    def test_replicates_match_sample_dataset(self):
        assert self.replicate_warnings_and_scores(5, n=40, n_features=30,
                                                  estimator="mle") == []

    def test_replicates_match_screen_across_blocks(self):
        self.replicate_warnings_and_scores(2, n=50, n_features=300, estimator="unbiased")

    def test_degenerate_columns_scored_zero_with_one_warning(self):
        # Four rows leave two constant feature columns in each replicate:
        # one warning per replicate and encoding, and those scores are 0.
        found = self.replicate_warnings_and_scores(4, n=4, n_features=30, estimator="mle")
        assert found == [f"2 feature(s) with degenerate margins scored 0 (replicate {r}, "
                         f"{kind} encoding)" for r in range(2)
                         for kind in ("onehot", "ordinal", "semicircle")]

    @pytest.mark.parametrize("kwargs, error, match", [
        (dict(replicates=0), ConfigurationError, "replicates must be at least 1, got 0"),
        (dict(replicates=1.5), ConfigurationError, "replicates must be an integer, got 1.5"),
        (dict(replicates=2.0), ConfigurationError, "replicates must be an integer, got 2.0"),
        (dict(encoding_kinds=("onehot", "ordinal", "onehot")), ConfigurationError,
         "encoding kinds must be distinct"),
        (dict(encoding_kinds=()), ConfigurationError,
         "^run_benchmark needs at least one encoding kind$"),
        (dict(n=0), DistributionError, "empty sample"),
        (dict(n=-5), DistributionError, "empty sample"),
        (dict(n=3, estimator="unbiased"), InsufficientSampleError,
         r"^the bias-corrected estimator needs n >= 4 observations, got n = 3\.0$"),
        (dict(relevant_count=0), UndefinedAUCError, "got 0 relevant of 60"),
        (dict(relevant_count=60), UndefinedAUCError, "got 60 relevant of 60"),
        (dict(n_features=0), ShapeError, r"relevant_count 6 must lie in \[0, 0\]"),
        (dict(n_features=3, relevant_count=1), InsufficientFeaturesError,
         "needs at least 4 features, got 3"),
    ], ids=["no-replicates", "float-replicates", "integral-float-replicates",
            "repeated-kind", "no-kinds", "n-zero", "n-negative", "unbiased-n-three",
            "no-relevant", "all-relevant", "no-features", "few-features"])
    def test_rejected_before_sampling(self, monkeypatch, kwargs, error, match):
        monkeypatch.setattr(catdcor.simulate, "_draw_dataset", None)
        monkeypatch.setattr(catdcor.simulate, "build_joint", None)
        args = dict(n=60, n_features=60, relevant_count=6, replicates=1)
        with pytest.raises(error, match=match):
            run_benchmark(2, **{**args, **kwargs})

    def test_numpy_integer_replicates(self):
        a = run_benchmark(2, n=60, n_features=60, relevant_count=6, replicates=2, seed=5)
        b = run_benchmark(2, n=60, n_features=60, relevant_count=6,
                          replicates=np.int64(2), seed=5)
        assert [r.replicate_aucs.tolist() for r in a] == [r.replicate_aucs.tolist() for r in b]

    def test_estimator_checked_before_sampling(self):
        with pytest.raises(ConfigurationError, match="estimator"):
            run_benchmark(2, n=60, n_features=60, relevant_count=6, replicates=1,
                          estimator="median")

    def test_detects_strong_signal(self):
        results = run_benchmark(1, n=150, n_features=100, relevant_count=10,
                                replicates=2, seed=2)
        for r in results:
            assert r.auc > 0.85
