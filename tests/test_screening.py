"""Tests for feature screening, the slope-break threshold, and the error bound."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from catdcor import (
    BoundParams,
    CatdcorError,
    ConfigurationError,
    DistributionError,
    InsufficientFeaturesError,
    InsufficientSampleError,
    InvalidThresholdError,
    JointTable,
    LabelError,
    ShapeError,
    apply_changepoint,
    changepoint_threshold,
    confidence_interval,
    distance_matrix,
    one_hot,
    ordinal_equal,
    screen,
    screening_bound,
    select,
    semicircle_equal,
)
from catdcor.measures import _score_pairs
import scalar_reference as ref

D2 = distance_matrix(one_hot(2))
D3 = distance_matrix(one_hot(3))


def make_dataset(rng, n=400, n_noise=8):
    """Response plus one perfectly aligned feature and independent noise."""
    y = rng.integers(0, 3, size=n)
    features = [y.copy()]
    for _ in range(n_noise):
        features.append(rng.integers(0, 3, size=n))
    return np.column_stack(features), y


class TestScreen:
    def test_perfect_feature_scores_near_one(self):
        rng = np.random.default_rng(60)
        x, y = make_dataset(rng)
        report = screen(x, y, [D3] * x.shape[1], D3)
        assert report.values[0] > 0.95
        assert report.order[0] == 0

    def test_independent_features_score_low(self):
        rng = np.random.default_rng(61)
        y = rng.integers(0, 3, size=5000)
        x = rng.integers(0, 3, size=(5000, 6))
        report = screen(x, y, [D3] * 6, D3)
        assert report.values.max() < 0.01

    def test_row_order_invariance(self):
        rng = np.random.default_rng(62)
        x, y = make_dataset(rng)
        report = screen(x, y, [D3] * x.shape[1], D3)
        perm = rng.permutation(len(y))
        shuffled = screen(x[perm], y[perm], [D3] * x.shape[1], D3)
        assert_allclose(shuffled.values, report.values, atol=1e-15)

    def test_column_permutation_matches_ids(self):
        rng = np.random.default_rng(63)
        x, y = make_dataset(rng)
        ids = [f"f{i}" for i in range(x.shape[1])]
        report = screen(x, y, [D3] * x.shape[1], D3, feature_ids=ids)
        perm = rng.permutation(x.shape[1])
        permuted = screen(x[:, perm], y, [D3] * x.shape[1], D3,
                          feature_ids=[ids[i] for i in perm])
        original = dict(zip(report.feature_ids, report.values))
        shuffled = dict(zip(permuted.feature_ids, permuted.values))
        for key in original:
            assert_allclose(shuffled[key], original[key], atol=1e-15)

    def test_degenerate_feature_scores_zero_with_warning(self):
        rng = np.random.default_rng(64)
        x, y = make_dataset(rng, n_noise=3)
        x[:, 2] = 0  # constant column
        with pytest.warns(RuntimeWarning):
            report = screen(x, y, [D3] * x.shape[1], D3)
        assert report.values[2] == 0.0
        assert 2 in report.degenerate

    def test_unseen_code_raises_label_error(self):
        rng = np.random.default_rng(65)
        x, y = make_dataset(rng, n_noise=2)
        x[0, 1] = 5
        with pytest.raises(LabelError):
            screen(x, y, [D3] * x.shape[1], D3)

    @pytest.mark.parametrize("change, error, match", [
        (lambda x, y: (x[:, 0], y), ShapeError, r"^features must form an \(n, S\) matrix$"),
        (lambda x, y: (x, y[:-1]), ShapeError,
         "^response length must match the number of rows$"),
        (lambda x, y: (x.astype(float), y), LabelError,
         "^codes must be integers, got dtype float64$"),
        (lambda x, y: (x, y.astype(float)), LabelError,
         "^codes must be integers, got dtype float64$"),
        (lambda x, y: (x.astype(object), y), LabelError,
         "^codes must be integers, got dtype object$"),
        (lambda x, y: (x, np.where(y == 2, 3, y)), LabelError,
         "^response codes fall outside the declared level set$"),
        (lambda x, y: (x[:3], y[:3]), InsufficientSampleError,
         r"^the bias-corrected estimator needs n >= 4 observations, got n = 3\.0$"),
    ], ids=["features-1d", "response-length", "float-features", "float-response",
            "object-features", "response-range", "unbiased-n-three"])
    def test_malformed_input_raises(self, change, error, match):
        x, y = change(*make_dataset(np.random.default_rng(65), n_noise=2))
        dists = [D3] * (x.shape[1] if x.ndim == 2 else 1)
        with pytest.raises(error, match=match):
            screen(x, y, dists, D3, estimator="unbiased")

    def test_wrong_id_count_raises(self):
        x, y = make_dataset(np.random.default_rng(66), n_noise=2)
        with pytest.raises(ConfigurationError,
                           match="^feature_ids length must match the feature count$"):
            screen(x, y, [D3] * 3, D3, feature_ids=["a", "b"])

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint8, np.int16, np.uint16,
                                       np.int32, np.uint32, np.uint64])
    def test_every_integer_dtype_scores_as_int64(self, dtype):
        rng = np.random.default_rng(67)
        x, y = rng.integers(0, 2, size=(50, 4)), rng.integers(0, 2, size=50)
        d2 = distance_matrix(one_hot(2))
        expected = screen(x, y, [d2] * 4, d2).values
        found = screen(x.astype(dtype), y.astype(dtype), [d2] * 4, d2).values
        assert found.tolist() == expected.tolist()

    def test_wrong_distance_count_raises(self):
        rng = np.random.default_rng(66)
        x, y = make_dataset(rng, n_noise=2)
        with pytest.raises(ConfigurationError):
            screen(x, y, [D3] * 2, D3)

    def test_unbiased_estimator_ranks_raw(self):
        rng = np.random.default_rng(67)
        x, y = make_dataset(rng, n=60, n_noise=10)
        report = screen(x, y, [D3] * x.shape[1], D3, estimator="unbiased")
        assert report.values.min() < 0.0  # null features dip below zero
        assert report.order[0] == 0

    def test_order_breaks_ties_by_id(self):
        rng = np.random.default_rng(68)
        x, y = make_dataset(rng, n_noise=2)
        x[:, 2] = x[:, 1]  # identical columns, identical scores
        report = screen(x, y, [D3] * x.shape[1], D3)
        pos1 = list(report.order).index(1)
        pos2 = list(report.order).index(2)
        assert pos1 < pos2

    def test_matches_direct_estimates(self):
        rng = np.random.default_rng(69)
        x, y = make_dataset(rng, n_noise=4)
        report = screen(x, y, [D3] * x.shape[1], D3)
        for s in range(x.shape[1]):
            t = JointTable.from_codes(x[:, s], y, 3, 3)
            assert_allclose(report.values[s], ref.dcor2(t.counts, D3, D3, "mle"), atol=1e-15)


KINDS = (one_hot, ordinal_equal, semicircle_equal)


class TestBatchedKernel:
    """screen scores features in blocks per distance matrix object."""

    @pytest.mark.parametrize("estimator", ["mle", "unbiased"])
    @pytest.mark.parametrize("n_levels", range(2, 11))
    def test_matches_scalar_estimators(self, estimator, n_levels):
        # Mixed groups: every kind with I = 2..10, each (kind, I) as two
        # distinct but equal DistanceMatrix objects.  The response's kind
        # cycles with its level count.
        choices = [distance_matrix(kind(i)) for kind in KINDS
                   for i in range(2, 11) for _ in range(2)]
        dy = distance_matrix(KINDS[n_levels % 3](n_levels))
        for n_features in (0, 1, 127, 128, 129, 1001):
            rng = np.random.default_rng((n_levels, n_features))
            n = int(rng.integers(8, 120))
            y = rng.integers(0, n_levels, size=n)
            picks = rng.integers(0, len(choices), size=n_features)
            dists = [choices[c] for c in picks]
            levels = np.array([d.n_categories for d in dists], dtype=int)
            x = (rng.random((n, n_features)) * levels).astype(np.int64)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report = screen(x, y, dists, dy, estimator=estimator)
            expected = ref.screen_scores(x, y, dists, dy, estimator)
            assert report.values.shape == (n_features,)
            assert_allclose(report.values, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("estimator", ["mle", "unbiased"])
    def test_fractional_counts(self, estimator):
        rng = np.random.default_rng(70)
        dx = distance_matrix(semicircle_equal(4))
        dy = distance_matrix(ordinal_equal(3))
        counts = 50.0 * rng.dirichlet(np.ones(12), size=20).reshape(20, 4, 3)
        counts *= 50.0 / counts.sum(axis=(1, 2))[:, None, None]
        n = float(counts[0].sum())
        values, degenerate = _score_pairs(counts, n, [(dx, dy, estimator)])[0]
        expected = [ref.dcor2(c, dx, dy, estimator) for c in counts]
        assert not degenerate.any()
        assert_allclose(values, expected, rtol=1e-12, atol=0.0)

    def test_identical_columns_on_block_edges_tie_exactly(self):
        rng = np.random.default_rng(71)
        n, n_features = 90, 300
        y = rng.integers(0, 3, size=n)
        x = rng.integers(0, 3, size=(n, n_features))
        edges = [0, 127, 128, n_features - 1]
        x[:, edges] = np.where(rng.random(n) < 0.5, y, rng.integers(0, 3, size=n))[:, None]
        report = screen(x, y, [D3] * n_features, D3)
        assert len({report.values[s] for s in edges}) == 1
        ranked = list(report.order)
        positions = [ranked.index(s) for s in edges]
        assert positions == list(range(positions[0], positions[0] + 4))

    def test_degenerate_columns_on_block_edges(self):
        rng = np.random.default_rng(72)
        n, n_features = 60, 260
        y = rng.integers(0, 3, size=n)
        x = rng.integers(0, 3, size=(n, n_features))
        edges = [0, 127, 128, n_features - 1]
        x[:, edges] = 1
        ids = [f"f{n_features - s:03d}" for s in range(n_features)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = screen(x, y, [D3] * n_features, D3, feature_ids=ids)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert report.degenerate == [ids[s] for s in edges]
        assert np.all(report.values[edges] == 0.0)
        assert np.all(np.delete(report.values, edges) > 0.0)

    def test_bad_label_in_later_block_names_first_column(self):
        rng = np.random.default_rng(73)
        n, n_features = 40, 400
        y = rng.integers(0, 3, size=n)
        x = rng.integers(0, 3, size=(n, n_features))
        d3_twin = distance_matrix(one_hot(3))
        # Even columns share D3, odd ones an equal twin: the first bad
        # column in column order (301) is not the first of its group's.
        dists = [D3 if s % 2 == 0 else d3_twin for s in range(n_features)]
        x[5, 330] = 3
        x[7, 301] = -1
        x[9, 360] = 7
        ids = [f"col{s}" for s in range(n_features)]
        with pytest.raises(LabelError, match="'col301'"):
            screen(x, y, dists, D3, feature_ids=ids)

    def test_unbiased_needs_four_rows(self):
        x = np.array([[0], [1], [2]])
        y = np.array([0, 1, 2])
        with pytest.raises(InsufficientSampleError):
            screen(x, y, [D3], D3, estimator="unbiased")

    @pytest.mark.parametrize("n_features", [0, 3])
    def test_empty_sample(self, n_features):
        x = np.zeros((0, n_features), dtype=np.int64)
        y = np.zeros(0, dtype=np.int64)
        with pytest.raises(DistributionError, match="empty sample"):
            screen(x, y, [D3] * n_features, D3)

    def test_memory_bounded_by_blocks(self):
        rng = np.random.default_rng(74)
        n, n_features = 100, 5000
        y = rng.integers(0, 3, size=n)
        x = rng.integers(0, 3, size=(n, n_features))
        dists = [D3] * n_features
        tracemalloc.start()
        try:
            screen(x, y, dists, D3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The codes alone are 4 MB; one block's index array is 100 KB.
        assert peak < 1_500_000


class TestGroupMemory:
    def test_single_group_peak_within_blocked_loop(self):
        # 5000 features sharing one matrix at n = 2000: tabulating the group
        # through one (128, n) index peaks near a loop over 128-column blocks.
        # A copy of the group's codes (10 MB) or its index (80 MB) would not.
        rng = np.random.default_rng(68)
        n, p = 2000, 5000
        x = rng.integers(0, 3, (n, p), dtype=np.int8)
        y = rng.integers(0, 3, n, dtype=np.int8)

        def blocked_loop():
            for start in range(0, p, 128):
                counts = ref.tabulate(x[:, start:start + 128], y[:, None], 3, 3)
                _score_pairs(counts, float(n), [(D3, D3, "mle")])[0]

        def traced_peak(call):
            call()  # the first call allocates once-only objects
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak = traced_peak(lambda: screen(x, y, [D3] * p, D3))
        assert peak <= 1.5 * traced_peak(blocked_loop)


class TestChangepoint:
    def test_obvious_break(self):
        values = [10.0, 9.8, 9.6, 0.1, 0.09, 0.08, 0.07]
        result = changepoint_threshold(values)
        assert result.index == 3
        assert 0.1 < result.threshold < 9.6
        assert_allclose(result.threshold, (9.6 + 0.1) / 2.0)
        assert not result.low_confidence

    def test_perfectly_linear_low_confidence(self):
        values = np.linspace(10.0, 1.0, 12)
        result = changepoint_threshold(values)
        assert result.low_confidence
        assert result.index == 2  # smallest admissible break wins ties

    def test_shift_invariance(self):
        rng = np.random.default_rng(70)
        values = np.sort(rng.random(30))[::-1]
        base = changepoint_threshold(values)
        shifted = changepoint_threshold(values + 5.0)
        assert shifted.index == base.index
        assert abs(shifted.threshold - (base.threshold + 5.0)) < 1e-12

    def test_too_short(self):
        with pytest.raises(InsufficientFeaturesError):
            changepoint_threshold([3.0, 2.0, 1.0])

    def test_not_one_dimensional(self):
        with pytest.raises(ShapeError, match="^sorted_values must be one-dimensional$"):
            changepoint_threshold([[3.0, 2.0], [1.0, 0.0]])

    def test_matches_polyfit_oracle(self):
        # exhaustive two-line fits via numpy polyfit on random sequences
        rng = np.random.default_rng(71)
        for _ in range(10):
            m = int(rng.integers(8, 40))
            values = np.sort(rng.random(m))[::-1]
            result = changepoint_threshold(values)
            x = np.arange(1.0, m + 1.0)
            best_rss, best_b = np.inf, None
            for b in range(2, m - 1):
                rss = 0.0
                for seg_x, seg_y in ((x[:b], values[:b]), (x[b:], values[b:])):
                    coef = np.polyfit(seg_x, seg_y, 1)
                    rss += float(np.sum((np.polyval(coef, seg_x) - seg_y) ** 2))
                if rss < best_rss - 1e-12:
                    best_rss, best_b = rss, b
            assert result.index == best_b

    def test_fit_matches_one_running_sum_per_moment(self):
        # The (6, m) running sums give the same residuals bit for bit, so the
        # same break, tie flag and threshold.
        rng = np.random.default_rng(72)
        for case in range(200):
            m = int(rng.integers(4, 300))
            values = np.sort(rng.standard_normal(m) * 10.0 ** rng.integers(-6, 6))[::-1]
            if case % 4 == 0:
                values = np.round(values, 1)  # ties among the scores
            total = ref.changepoint_total_rss(values)
            best = total.min()
            breaks = np.flatnonzero(total <= best + 1e-9 * (1.0 + abs(best))) + 2
            result = changepoint_threshold(values)
            assert (result.index, result.low_confidence) == (breaks[0], breaks.size > 1)
            assert result.threshold == 0.5 * (values[breaks[0] - 1] + values[breaks[0]])

    def test_two_point_segments_allowed(self):
        values = [5.0, 4.0, 1.0, 0.5]
        result = changepoint_threshold(values)
        assert result.index == 2


class TestSelect:
    @staticmethod
    def _report():
        rng = np.random.default_rng(72)
        x, y = make_dataset(rng, n_noise=6)
        return screen(x, y, [D3] * x.shape[1], D3)

    def test_strict_inequality(self):
        report = self._report()
        cut = float(report.values[0])
        assert 0 not in select(report, cut)

    def test_above_max_gives_empty(self):
        report = self._report()
        assert select(report, float(report.values.max()) + 1.0) == []

    def test_tiny_positive_selects_all_positive(self):
        report = self._report()
        chosen = select(report, 1e-12)
        expected = [fid for fid, v in zip(report.feature_ids, report.values)
                    if v > 1e-12]
        assert chosen == expected

    def test_nonpositive_threshold_rejected(self):
        report = self._report()
        with pytest.raises(InvalidThresholdError):
            select(report, 0.0)
        with pytest.raises(InvalidThresholdError):
            select(report, -1.0)

    def test_apply_changepoint_fills_report(self):
        rng = np.random.default_rng(73)
        x, y = make_dataset(rng, n_noise=10)
        report = screen(x, y, [D3] * x.shape[1], D3)
        apply_changepoint(report)
        assert report.threshold is not None
        assert report.changepoint_index is not None
        assert report.selected is not None
        assert 0 in report.selected
        # selection is exactly the strict-threshold rule
        expected = [fid for fid, v in zip(report.feature_ids, report.values)
                    if v > report.threshold]
        assert report.selected == expected


class TestScreeningBound:
    @staticmethod
    def _params(**overrides):
        base = dict(epsilon=0.1, n=1e6, n_features=100, max_levels=5,
                    response_levels=5, sigma2_min=0.5)
        base.update(overrides)
        return BoundParams(**base)

    def test_direct_formula_value(self):
        # at n = 1e6 the kappa^2 term keeps the exponent positive and the
        # bound clamps to 1; it only becomes informative for much larger n
        params = self._params()
        kappa = 4.0 / 0.5**4 + 2.0 / 0.5**5
        imax_j = 25.0
        denominator = 4.0 * 0.1 * imax_j * kappa + 3.0 * imax_j**2 * kappa**2
        expected = 2.0 * imax_j * np.exp(np.log(100.0) - 6.0 * 1e6 * 0.01 / denominator)
        assert expected > 1.0
        assert screening_bound(params) == 1.0

    def test_informative_for_large_n(self):
        params = self._params(n=1e10)
        kappa = 4.0 / 0.5**4 + 2.0 / 0.5**5
        imax_j = 25.0
        denominator = 4.0 * 0.1 * imax_j * kappa + 3.0 * imax_j**2 * kappa**2
        expected = 2.0 * imax_j * np.exp(np.log(100.0) - 6.0 * 1e10 * 0.01 / denominator)
        assert expected < 1.0
        assert_allclose(screening_bound(params), expected, rtol=1e-12)

    def test_small_sample_clamps_to_one(self):
        assert screening_bound(self._params(n=10, n_features=1e8)) == 1.0

    def test_monotone_in_n_and_features(self):
        values_n = [screening_bound(self._params(n=n))
                    for n in (1e5, 1e6, 1e7)]
        assert values_n[0] >= values_n[1] >= values_n[2]
        values_s = [screening_bound(self._params(n_features=s))
                    for s in (10, 100, 1000)]
        assert values_s[0] <= values_s[1] <= values_s[2]

    def test_bad_parameters_are_configuration_errors(self):
        # Catchable as ValueError, as before, and as the package's own errors.
        t = JointTable(np.full((2, 2), 5.0))
        for call, text in (
                (lambda: self._params(n=0.0), "n must be strictly positive"),
                (lambda: self._params(epsilon=1.5),
                 "epsilon cannot exceed 1 for rescaled distances"),
                (lambda: confidence_interval(t, D2, D2, level=1.0),
                 "confidence level must lie strictly between 0 and 1")):
            with pytest.raises(ConfigurationError, match=f"^{text}$") as caught:
                call()
            assert isinstance(caught.value, CatdcorError)
            assert isinstance(caught.value, ValueError)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._params(epsilon=0.0)
        with pytest.raises(ValueError):
            self._params(epsilon=1.5)
        with pytest.raises(ValueError):
            self._params(sigma2_min=-1.0)


class TestSureScreeningSmoke:
    def test_small_scale_containment(self):
        # reduced version of the full acceptance run
        from catdcor import sample_dataset, setting_spec

        spec = setting_spec(1, n=200, n_features=120, relevant_count=10)
        dist = distance_matrix(semicircle_equal(5))
        hits = 0
        for run in range(20):
            data = sample_dataset(spec, (600, run))
            report = screen(data.features, data.response,
                            [dist] * spec.n_features, dist)
            apply_changepoint(report)
            if set(range(10)).issubset(set(report.selected)):
                hits += 1
        assert hits >= 18
