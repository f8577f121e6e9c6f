"""Tests for the plug-in and bias-corrected sample estimators.

Oracles: literal four-index contingency sums for (T1, T2, T3), the
population formulas applied to observed proportions, Monte Carlo means
for unbiasedness, and deterministic fractional-count tables for the bias
limits.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from catdcor import (
    DegenerateMarginError,
    DistributionError,
    InsufficientSampleError,
    JointDistribution,
    JointTable,
    ShapeError,
    bias_limit,
    custom,
    dcor2,
    dcor2_estimates,
    dcor2_mle,
    dcor2_unbiased,
    dcov2,
    dcov2_estimates,
    dcov2_mle,
    dcov2_unbiased,
    distance_matrix,
    dvar2,
    dvar2_bias_limit,
    dvar2_mle,
    dvar2_unbiased,
    dvar_t_stats,
    one_hot,
    ordinal_equal,
    semicircle_equal,
    t_stats,
)
from catdcor.measures import _score_pairs
import scalar_reference as ref


def brute_t_stats(counts, dx, dy):
    """Exhaustive four-index enumeration of the three contingency sums."""
    n_rows, n_cols = counts.shape
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    t1 = t2 = t3 = 0.0
    for i in range(n_rows):
        for j in range(n_cols):
            for k in range(n_rows):
                for l in range(n_cols):
                    t1 += counts[i, j] * counts[k, l] * dx[i, k] * dy[j, l]
                    t2 += counts[i, j] * row[k] * col[l] * dx[i, k] * dy[j, l]
                    t3 += row[i] * col[j] * row[k] * col[l] * dx[i, k] * dy[j, l]
    return t1, t2, t3


def random_distance(rng, size):
    pts = rng.normal(size=(size, 3))
    return distance_matrix(custom([str(i) for i in range(size)], pts))


def random_table(rng, max_levels=6):
    n_rows, n_cols = rng.integers(2, max_levels + 1, size=2)
    counts = rng.integers(0, 12, size=(n_rows, n_cols)).astype(float)
    counts[0, 0] += 4.0  # keep n comfortably above the U-statistic minimum
    return JointTable(counts)


DM2 = distance_matrix(one_hot(2))


class TestTStats:
    def test_single_cell_table(self):
        t = JointTable(np.array([[7.0, 0.0], [0.0, 0.0]]))
        assert t_stats(t, DM2, DM2) == (0.0, 0.0, 0.0)

    def test_identity_counts_one_hot(self):
        # frozen from the exhaustive enumeration oracle below
        t = JointTable(np.eye(2))
        result = t_stats(t, DM2, DM2)
        assert_allclose(result, (2.0, 2.0, 4.0))
        assert_allclose(result, brute_t_stats(np.eye(2), DM2.d, DM2.d))

    def test_matches_enumeration(self):
        rng = np.random.default_rng(20)
        for _ in range(15):
            t = random_table(rng, max_levels=4)
            dx = random_distance(rng, t.shape[0])
            dy = random_distance(rng, t.shape[1])
            assert_allclose(t_stats(t, dx, dy),
                            brute_t_stats(t.counts, dx.d, dy.d), rtol=1e-12)

    def test_linear_in_distance_scaling(self):
        rng = np.random.default_rng(21)
        t = random_table(rng)
        dx = random_distance(rng, t.shape[0])
        dy = random_distance(rng, t.shape[1])
        base = np.array(t_stats(t, dx, dy))
        scaled = np.array(t_stats(t, dx.scaled_by(3.0), dy))
        assert_allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_margin_t_stats_match_enumeration(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            size = int(rng.integers(2, 6))
            margin = rng.integers(1, 10, size=size).astype(float)
            d = random_distance(rng, size)
            t1, t2, t3 = dvar_t_stats(margin, d)
            b1 = sum(margin[i] * margin[k] * d.d[i, k] ** 2
                     for i in range(size) for k in range(size))
            b2 = sum(margin[i] * margin[k] * margin[m] * d.d[i, k] * d.d[i, m]
                     for i in range(size) for k in range(size) for m in range(size))
            b3 = sum(margin[i] * margin[k] * d.d[i, k]
                     for i in range(size) for k in range(size)) ** 2
            assert_allclose((t1, t2, t3), (b1, b2, b3), rtol=1e-12)


class TestPlugInEstimates:
    def test_v_statistic_identity(self):
        # probability form equals the T-statistic combination exactly
        rng = np.random.default_rng(23)
        for _ in range(200):
            t = random_table(rng)
            dx = random_distance(rng, t.shape[0])
            dy = random_distance(rng, t.shape[1])
            t1, t2, t3 = t_stats(t, dx, dy)
            n = t.n
            v_form = t1 / n**2 - 2.0 * t2 / n**3 + t3 / n**4
            assert abs(dcov2_mle(t, dx, dy) - v_form) < 1e-12

    def test_product_counts_give_zero(self):
        t = JointTable(np.outer([4.0, 6.0], [3.0, 7.0]))
        assert dcov2_mle(t, DM2, DM2) <= 1e-15

    def test_diagonal_counts(self):
        t = JointTable(np.array([[5.0, 0.0], [0.0, 5.0]]))
        assert_allclose(dcov2_mle(t, DM2, DM2), 0.25)
        assert_allclose(dcor2_mle(t, DM2, DM2), 1.0)

    def test_equals_population_at_proportions(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            t = random_table(rng)
            dx = random_distance(rng, t.shape[0])
            dy = random_distance(rng, t.shape[1])
            p = t.to_distribution()
            assert_allclose(dcov2_mle(t, dx, dy), dcov2(p, dx, dy), atol=1e-13)
            assert_allclose(dvar2_mle(t, dx, axis=0), dvar2(p.row_marginal, dx),
                            atol=1e-13)
            assert_allclose(dvar2_mle(t, dy, axis=1), dvar2(p.col_marginal, dy),
                            atol=1e-13)


class TestUnbiasedEstimates:
    def test_small_sample_rejected(self):
        t = JointTable(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(InsufficientSampleError):
            dcov2_unbiased(t, DM2, DM2)
        with pytest.raises(InsufficientSampleError):
            dvar2_unbiased(t, DM2, axis=0)

    @pytest.mark.parametrize("n", [10, 20, 50])
    def test_monte_carlo_unbiasedness(self, n):
        # mean over multinomial replicates stays within 4 MC standard
        # errors of the population value at every sample size
        rng = np.random.default_rng(25 + n)
        pi = np.array([[0.25, 0.05, 0.05],
                       [0.05, 0.25, 0.05],
                       [0.05, 0.05, 0.20]])
        p = JointDistribution(pi)
        dx = distance_matrix(semicircle_equal(3))
        dy = distance_matrix(one_hot(3))
        target = dcov2(p, dx, dy)
        reps = 6000
        values = np.empty(reps)
        for r in range(reps):
            counts = rng.multinomial(n, pi.ravel()).reshape(3, 3).astype(float)
            values[r] = dcov2_unbiased(JointTable(counts), dx, dy)
        se = values.std(ddof=1) / np.sqrt(reps)
        assert abs(values.mean() - target) < 4.0 * se

    def test_fractional_count_bias_identity(self):
        # n (plug-in - unbiased) at counts n*pi matches the analytic limit
        rng = np.random.default_rng(26)
        n = 1e6
        for _ in range(10):
            n_rows, n_cols = rng.integers(2, 6, size=2)
            pi = rng.dirichlet(np.ones(n_rows * n_cols)).reshape(n_rows, n_cols)
            p = JointDistribution(pi)
            dx = random_distance(rng, n_rows)
            dy = random_distance(rng, n_cols)
            t = JointTable(n * pi)
            gap = n * (dcov2_mle(t, dx, dy) - dcov2_unbiased(t, dx, dy))
            limit = bias_limit(p, dx, dy)
            assert abs(gap - limit) < 1e-3 * abs(limit)

    def test_dvar_fractional_count_bias_identity(self):
        rng = np.random.default_rng(27)
        n = 1e6
        for _ in range(10):
            size = int(rng.integers(2, 6))
            m = rng.dirichlet(np.ones(size))
            d = random_distance(rng, size)
            t = JointTable(n * np.outer(m, [0.5, 0.5]))
            gap = n * (dvar2_mle(t, d, axis=0) - dvar2_unbiased(t, d, axis=0))
            limit = dvar2_bias_limit(m, d)
            assert abs(gap - limit) < 1e-3 * abs(limit)

    def test_degenerate_margin_zero(self):
        t = JointTable(np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert dvar2_mle(t, DM2, axis=0) == 0.0
        assert abs(dvar2_unbiased(t, DM2, axis=0)) <= 1e-12


class TestDcor2Estimates:
    def test_constant_column_raises(self):
        t = JointTable(np.array([[5.0, 5.0], [0.0, 0.0]]))
        with pytest.raises(DegenerateMarginError):
            dcor2_mle(t, DM2, DM2)
        with pytest.raises(DegenerateMarginError):
            dcor2_unbiased(t, DM2, DM2)

    def test_unbiased_can_go_negative_and_is_not_clamped(self):
        t = JointTable(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert dcor2_unbiased(t, DM2, DM2) < 0.0

    def test_consistency_along_growing_samples(self):
        # seeded path: estimation error shrinks from n=1e3 to n=1e6
        rng = np.random.default_rng(28)
        pi = np.array([[0.25, 0.05, 0.05],
                       [0.05, 0.25, 0.05],
                       [0.05, 0.05, 0.20]])
        p = JointDistribution(pi)
        dx = distance_matrix(ordinal_equal(3))
        dy = distance_matrix(one_hot(3))
        target = dcor2(p, dx, dy)
        errors = {}
        for n in (1000, 1000000):
            counts = rng.multinomial(n, pi.ravel()).reshape(3, 3).astype(float)
            t = JointTable(counts)
            errors[n] = (abs(dcor2_mle(t, dx, dy) - target),
                         abs(dcor2_unbiased(t, dx, dy) - target))
        assert errors[1000000][0] < errors[1000][0]
        assert errors[1000000][1] < errors[1000][1]
        assert errors[1000000][0] < 0.01
        assert errors[1000000][1] < 0.01

    def test_scale_behavior(self):
        rng = np.random.default_rng(29)
        t = random_table(rng)
        dx = random_distance(rng, t.shape[0])
        dy = random_distance(rng, t.shape[1])
        cx, cy = 0.1, 7.0
        assert_allclose(dcov2_mle(t, dx.scaled_by(cx), dy.scaled_by(cy)),
                        cx * cy * dcov2_mle(t, dx, dy), rtol=1e-12)
        assert_allclose(dcov2_unbiased(t, dx.scaled_by(cx), dy.scaled_by(cy)),
                        cx * cy * dcov2_unbiased(t, dx, dy), rtol=1e-12)
        assert_allclose(dvar2_mle(t, dx.scaled_by(cx), axis=0),
                        cx**2 * dvar2_mle(t, dx, axis=0), rtol=1e-12)
        assert abs(dcor2_mle(t, dx.scaled_by(cx), dy.scaled_by(cy))
                   - dcor2_mle(t, dx, dy)) < 1e-12
        assert abs(dcor2_unbiased(t, dx.scaled_by(cx), dy.scaled_by(cy))
                   - dcor2_unbiased(t, dx, dy)) < 1e-12

    def test_estimate_pairs(self):
        rng = np.random.default_rng(30)
        t = random_table(rng)
        dx = random_distance(rng, t.shape[0])
        dy = random_distance(rng, t.shape[1])
        pair = dcov2_estimates(t, dx, dy)
        assert pair.mle == dcov2_mle(t, dx, dy)
        assert pair.unbiased == dcov2_unbiased(t, dx, dy)
        assert pair.n == t.n
        cor_pair = dcor2_estimates(t, dx, dy)
        assert cor_pair.mle == dcor2_mle(t, dx, dy)

    def test_mle_unbiased_gap_shrinks_linearly(self):
        # deterministic fractional counts: gap scales as 1/n
        pi = np.array([[0.3, 0.1], [0.2, 0.4]])
        dx = dy = DM2
        gaps = []
        for n in (1e3, 1e4):
            t = JointTable(n * pi)
            gaps.append(dcov2_mle(t, dx, dy) - dcov2_unbiased(t, dx, dy))
        assert_allclose(gaps[0] / gaps[1], 10.0, rtol=0.02)


class TestBiasLimit:
    def test_independence_reduces_to_mean_distance_product(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n_rows, n_cols = rng.integers(2, 6, size=2)
            row = rng.dirichlet(np.ones(n_rows))
            col = rng.dirichlet(np.ones(n_cols))
            p = JointDistribution.independent(row, col)
            dx = random_distance(rng, n_rows)
            dy = random_distance(rng, n_cols)
            expected = float((row @ dx.d @ row) * (col @ dy.d @ col))
            assert_allclose(bias_limit(p, dx, dy), expected, atol=1e-13)

    def test_uniform_two_by_two_one_hot(self):
        p = JointDistribution.independent([0.5, 0.5], [0.5, 0.5])
        assert_allclose(bias_limit(p, DM2, DM2), 0.25)

    def test_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(8):
            n_rows, n_cols = rng.integers(2, 5, size=2)
            pi = rng.dirichlet(np.ones(n_rows * n_cols)).reshape(n_rows, n_cols)
            p = JointDistribution(pi)
            dx = random_distance(rng, n_rows)
            dy = random_distance(rng, n_cols)
            row = pi.sum(axis=1)
            col = pi.sum(axis=0)
            total = 0.0
            for i in range(n_rows):
                for j in range(n_cols):
                    for k in range(n_rows):
                        for l in range(n_cols):
                            total += ((10.0 * pi[i, j] * row[k] * col[l]
                                       - 3.0 * pi[i, j] * pi[k, l]
                                       - 6.0 * row[i] * col[j] * row[k] * col[l])
                                      * dx.d[i, k] * dy.d[j, l])
            assert_allclose(bias_limit(p, dx, dy), total, atol=1e-12)

    def test_matches_term_by_term_expansions(self):
        rng = np.random.default_rng(33)
        encodings = [one_hot, ordinal_equal, semicircle_equal]
        for case in range(300):
            n_rows, n_cols = (int(v) for v in rng.integers(2, 12, size=2))
            make = encodings[case % 3]
            dx, dy = distance_matrix(make(n_rows)), distance_matrix(make(n_cols))
            p = JointDistribution(rng.dirichlet(np.ones(n_rows * n_cols)).reshape(n_rows, n_cols))
            assert bias_limit(p, dx, dy) == ref.bias_limit(p.pi, dx, dy)
            assert dvar2_bias_limit(p.row_marginal, dx) == ref.dvar2_bias_limit(p.row_marginal, dx)
            assert dvar2_bias_limit(p.col_marginal, dy) == ref.dvar2_bias_limit(p.col_marginal, dy)

    @pytest.mark.parametrize("dx, dy, message", [
        (distance_matrix(one_hot(3)), DM2, "row distance matrix has 3 categories"),
        (DM2, distance_matrix(one_hot(3)), "column distance matrix has 3 categories"),
    ])
    def test_shape_mismatch(self, dx, dy, message):
        p = JointDistribution.independent([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ShapeError, match=message):
            bias_limit(p, dx, dy)


class TestKernelMatchesScalarReference:
    """The public scalars run the batched kernel on a stack of one table."""

    def test_fractional_counts_and_boundary_errors(self):
        # Same floating-point operations as the single-table references, so
        # the values agree bit for bit here; the 1e-12 check is the contract.
        rng = np.random.default_rng(30)
        kinds = (one_hot, ordinal_equal, semicircle_equal)
        for trial in range(300):
            n_rows, n_cols = (int(v) for v in rng.integers(2, 9, size=2))
            dx = (random_distance(rng, n_rows) if trial % 4 == 3
                  else distance_matrix(kinds[trial % 3](n_rows)))
            dy = distance_matrix(kinds[(trial // 3) % 3](n_cols))
            total = float(rng.uniform(4.0, 500.0))
            counts = total * rng.dirichlet(np.ones(n_rows * n_cols)).reshape(n_rows, n_cols)
            if trial % 10 == 0:
                counts[1:] = 0.0  # a constant row variable
                counts[0, 0] += 4.0
            t = JointTable(counts)
            pairs = [
                (t_stats(t, dx, dy), ref.t_stats(counts, dx, dy)),
                (dvar_t_stats(t.row_counts, dx), ref.dvar_t_stats(t.row_counts, dx)),
                (dvar_t_stats(t.col_counts, dy), ref.dvar_t_stats(t.col_counts, dy)),
                (dcov2_mle(t, dx, dy), ref.dcov2_mle(counts, dx, dy)),
                (dcov2_unbiased(t, dx, dy), ref.dcov2_unbiased(counts, dx, dy)),
            ]
            for axis, d in ((0, dx), (1, dy)):
                pairs.append((dvar2_mle(t, d, axis=axis), ref.dvar2_mle(counts, d, axis)))
                pairs.append((dvar2_unbiased(t, d, axis=axis),
                              ref.dvar2_unbiased(counts, d, axis)))
            for estimator, dcor in (("mle", dcor2_mle), ("unbiased", dcor2_unbiased)):
                try:
                    expected = ref.dcor2(counts, dx, dy, estimator)
                except DegenerateMarginError:
                    with pytest.raises(DegenerateMarginError):
                        dcor(t, dx, dy)
                else:
                    pairs.append((dcor(t, dx, dy), expected))
            for got, expected in pairs:
                assert got == expected
                assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

        small = JointTable(np.array([[1.5, 0.5], [1.0, 0.75]]))
        for call in (lambda: dcov2_unbiased(small, DM2, DM2),
                     lambda: dvar2_unbiased(small, DM2, axis=1),
                     lambda: dcor2_unbiased(small, DM2, DM2)):
            with pytest.raises(InsufficientSampleError):
                call()
        d3 = distance_matrix(one_hot(3))
        table = JointTable(np.full((2, 2), 2.5))
        for call in (lambda: t_stats(table, d3, DM2),
                     lambda: dcov2_mle(table, DM2, d3),
                     lambda: dcov2_unbiased(table, d3, DM2),
                     lambda: dvar2_mle(table, d3, axis=0),
                     lambda: dvar2_unbiased(table, d3, axis=1),
                     lambda: dvar_t_stats([1.0, 2.0], d3),
                     lambda: dcor2_mle(table, d3, DM2),
                     lambda: dcor2_unbiased(table, DM2, d3)):
            with pytest.raises(ShapeError):
                call()


class TestSharedMargins:
    """A margin shared by a whole stack is scored once, with the same bits."""

    def test_stack_matches_tables_one_at_a_time(self):
        rng = np.random.default_rng(41)
        kinds = (one_hot, ordinal_equal, semicircle_equal)
        for trial in range(60):
            n = int(rng.integers(8, 60))
            n_x, n_y = (int(v) for v in rng.integers(2, 7, size=2))
            dx = distance_matrix(kinds[trial % 3](n_x))
            dy = random_distance(rng, n_y) if trial % 4 == 3 else distance_matrix(
                kinds[(trial // 3) % 3](n_y))
            y = rng.integers(0, n_y, (n, 1))
            x = rng.integers(0, n_x, (n, 1))
            stacks = [
                # one response against a block of features: rows shared
                ref.tabulate(rng.integers(0, n_x, (n, 9)), y, n_x, n_y),
                # one feature against permuted responses: both margins shared
                ref.tabulate(x, rng.permuted(np.repeat(y, 9, axis=1), axis=0), n_x, n_y),
                # nothing shared
                ref.tabulate(rng.integers(0, n_x, (n, 9)), rng.integers(0, n_y, (n, 9)),
                             n_x, n_y),
            ]
            for counts in stacks:
                for estimator in ("mle", "unbiased"):
                    values, degenerate = _score_pairs(counts, n, [(dx, dy, estimator)])[0]
                    singles = [_score_pairs(c[None], n, [(dx, dy, estimator)])[0] for c in counts]
                    assert values.tolist() == [v[0] for v, _ in singles]
                    assert degenerate.tolist() == [d[0] for _, d in singles]


class TestJointTable:
    def test_from_codes(self):
        t = JointTable.from_codes([0, 0, 1, 2], [1, 1, 0, 1], 3, 2)
        assert_allclose(t.counts, [[0.0, 2.0], [1.0, 0.0], [0.0, 1.0]])
        assert t.n == 4.0

    def test_from_codes_range_check(self):
        with pytest.raises(ValueError):
            JointTable.from_codes([0, 3], [0, 1], 3, 2)

    @pytest.mark.parametrize("x, y, error, match", [
        ([0, 1, 2], [0, 1], ShapeError, "^x and y must be 1-d arrays of equal length$"),
        ([[0, 1]], [[0, 1]], ShapeError, "^x and y must be 1-d arrays of equal length$"),
        (np.array([], dtype=int), np.array([], dtype=int), DistributionError,
         "^empty sample$"),
        ([0, 3], [0, 1], ShapeError, "^codes fall outside the declared level ranges$"),
        ([0, 1], [0, -1], ShapeError, "^codes fall outside the declared level ranges$"),
        ([0.0, 1.0], [0, 1], ShapeError, "^codes must be integers, got dtype float64$"),
        ([0, 1], np.array([0, 1], dtype=object), ShapeError,
         "^codes must be integers, got dtype object$"),
    ], ids=["length", "two-d", "empty", "row-range", "column-range", "float-x", "object-y"])
    def test_from_codes_rejects(self, x, y, error, match):
        with pytest.raises(error, match=match):
            JointTable.from_codes(x, y, 3, 2)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint8, np.int16, np.uint16,
                                       np.int32, np.uint32, np.int64, np.uint64])
    def test_from_codes_takes_every_integer_dtype(self, dtype):
        x, y = np.array([0, 0, 1, 1, 1]), np.array([1, 1, 0, 1, 0])
        found = JointTable.from_codes(x.astype(dtype), y.astype(dtype), 2, 2)
        assert found.counts.tolist() == [[0.0, 2.0], [2.0, 1.0]]

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            JointTable(np.array([[1.0, -1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("counts, error, match", [
        ([1.0, 2.0], ShapeError, "^counts must form a 2-d table$"),
        ([[1.0, 2.0]], ShapeError, "^counts need at least two levels per margin$"),
        ([[1.0, np.nan], [1.0, 1.0]], DistributionError, "^counts must be finite$"),
        ([[1.0, np.inf], [1.0, 1.0]], DistributionError, "^counts must be finite$"),
        ([[0.0, 0.0], [0.0, 0.0]], DistributionError,
         "^the table must contain at least one observation$"),
    ], ids=["one-d", "one-row", "nan", "inf", "zero-total"])
    def test_rejects_malformed_counts(self, counts, error, match):
        with pytest.raises(error, match=match):
            JointTable(np.array(counts))

    def test_fractional_counts_accepted(self):
        t = JointTable(np.array([[0.5, 1.5], [2.25, 0.75]]))
        assert t.n == 5.0
