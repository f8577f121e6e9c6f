"""Tests for the population dependence measures.

Every nontrivial expected value is computed by an independent oracle in
this file: a literal four-index summation, the Kronecker quadratic form,
or the three-expectations decomposition of the squared distance
covariance.
"""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from catdcor import (
    DegenerateMarginError,
    DistanceMatrix,
    DistributionError,
    InternalConsistencyError,
    JointDistribution,
    ShapeError,
    custom,
    dcor2,
    dcov2,
    distance_matrix,
    dvar2,
    one_hot,
    ordinal_equal,
    semicircle_equal,
)
import catdcor.measures
from catdcor.measures import (_BLOCK, _DEGENERATE_TOL, _dcov2_many, _dvar2_many,
                              _score_pairs, _t_stats_many, _tabulate)
import scalar_reference as ref


def brute_dcov2(pi, dx, dy):
    """Literal four-index summation oracle."""
    n_rows, n_cols = pi.shape
    row = pi.sum(axis=1)
    col = pi.sum(axis=0)
    total = 0.0
    for i in range(n_rows):
        for j in range(n_cols):
            for k in range(n_rows):
                for l in range(n_cols):
                    total += ((pi[i, j] - row[i] * col[j])
                              * (pi[k, l] - row[k] * col[l])
                              * dx[i, k] * dy[j, l])
    return total


def brute_dvar2(marginal, d):
    size = len(marginal)
    dbar = d @ marginal
    total = 0.0
    for i in range(size):
        for k in range(size):
            total += marginal[i] * marginal[k] * (d[i, k] - dbar[i]) * (d[i, k] - dbar[k])
    return total


def expectation_form_dcov2(pi, dx, dy):
    """Oracle from the three-expectations decomposition:
    E[dXdY] + E[dX]E[dY] - 2E[dX dY'] over independent copies."""
    row = pi.sum(axis=1)
    col = pi.sum(axis=0)
    e_joint = float(np.sum(pi * (dx @ pi @ dy)))
    e_prod = float((row @ dx @ row) * (col @ dy @ col))
    e_cross = float((dx @ row) @ pi @ (dy @ col))
    return e_joint + e_prod - 2.0 * e_cross


def random_distribution(rng, n_rows, n_cols):
    return JointDistribution(rng.dirichlet(np.ones(n_rows * n_cols)).reshape(n_rows, n_cols))


def random_distance(rng, size):
    pts = rng.normal(size=(size, 3))
    return distance_matrix(custom([str(i) for i in range(size)], pts))


DM2 = distance_matrix(one_hot(2))
DIAG22 = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))


class TestDcov2:
    def test_product_distribution_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n_rows, n_cols = rng.integers(2, 6, size=2)
            p = JointDistribution.independent(rng.dirichlet(np.ones(n_rows)),
                                              rng.dirichlet(np.ones(n_cols)))
            dx = random_distance(rng, n_rows)
            dy = random_distance(rng, n_cols)
            assert dcov2(p, dx, dy) <= 1e-15

    def test_diagonal_two_by_two(self):
        assert_allclose(dcov2(DIAG22, DM2, DM2), 0.25)
        assert_allclose(brute_dcov2(DIAG22.pi, DM2.d, DM2.d), 0.25)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n_rows, n_cols = rng.integers(2, 6, size=2)
            p = random_distribution(rng, n_rows, n_cols)
            dx = random_distance(rng, n_rows)
            dy = random_distance(rng, n_cols)
            assert_allclose(dcov2(p, dx, dy), brute_dcov2(p.pi, dx.d, dy.d),
                            atol=1e-13)

    def test_one_hot_reduces_to_squared_departures(self):
        # rescaled one-hot distances give exactly sum(delta^2)
        rng = np.random.default_rng(2)
        for _ in range(10):
            n_rows, n_cols = rng.integers(2, 6, size=2)
            p = random_distribution(rng, n_rows, n_cols)
            dx = distance_matrix(one_hot(n_rows))
            dy = distance_matrix(one_hot(n_cols))
            assert_allclose(dcov2(p, dx, dy), np.sum(p.delta() ** 2), atol=1e-14)

    def test_expectation_form_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n_rows, n_cols = rng.integers(2, 6, size=2)
            p = random_distribution(rng, n_rows, n_cols)
            dx = random_distance(rng, n_rows)
            dy = random_distance(rng, n_cols)
            assert_allclose(dcov2(p, dx, dy),
                            expectation_form_dcov2(p.pi, dx.d, dy.d), atol=1e-13)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            dcov2(DIAG22, distance_matrix(one_hot(3)), DM2)

    @pytest.mark.parametrize("dx, dy, message", [
        (distance_matrix(one_hot(3)), DM2,
         "^row distance matrix has 3 categories, table has 2$"),
        (DM2, distance_matrix(one_hot(4)),
         "^column distance matrix has 4 categories, table has 2$"),
    ])
    def test_shape_messages(self, dx, dy, message):
        for measure in (dcov2, dcor2):
            with pytest.raises(ShapeError, match=message):
                measure(DIAG22, dx, dy)

    def test_nonzero_for_non_product(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = random_distribution(rng, 3, 3)
            if np.abs(p.delta()).max() < 1e-3:
                continue
            dx = random_distance(rng, 3)
            dy = random_distance(rng, 3)
            assert dcov2(p, dx, dy) > 0.0


class TestDcov2Kernel:
    """``dcov2`` is the estimators' plug-in kernel on a stack of one table."""

    def test_matches_bilinear_form_bit_for_bit(self):
        rng = np.random.default_rng(17)
        kinds = (one_hot, ordinal_equal, semicircle_equal)
        for trial in range(300):
            n_rows, n_cols = (int(v) for v in rng.integers(2, 10, size=2))
            p = random_distribution(rng, n_rows, n_cols)
            dx = distance_matrix(kinds[trial % 3](n_rows))
            dy = (random_distance(rng, n_cols) if trial % 4 == 3
                  else distance_matrix(kinds[(trial // 3) % 3](n_cols)))
            delta = p.delta()
            expected = float(np.sum(delta * (dx.d @ delta @ dy.d)))
            assert dcov2(p, dx, dy) == (0.0 if -1e-9 <= expected < 0.0 else expected)

    def test_negative_value_still_raises(self):
        # Distances that are not conditionally negative definite can make
        # the bilinear form negative: delta = eps * outer(c, e) gives
        # eps^2 (c'DXc)(e'DYe) = eps^2 * 12 * (-2).
        dx = DistanceMatrix(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 10.0], [1.0, 10.0, 0.0]]))
        dy = distance_matrix(one_hot(3))
        pi = np.full((3, 3), 1.0 / 9.0) + 0.02 * np.outer([2, -1, -1], [1, -1, 0])
        with pytest.raises(InternalConsistencyError):
            dcov2(JointDistribution(pi), dx, dy)


class TestKronecker:
    def test_independence_zero(self):
        p = JointDistribution.independent([0.4, 0.6], [0.3, 0.7])
        assert abs(ref.dcov2_kronecker(p, DM2, DM2)) <= 1e-15

    def test_diagonal_case(self):
        assert_allclose(ref.dcov2_kronecker(DIAG22, DM2, DM2), 0.25)

    def test_agrees_with_fast_path(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n_rows, n_cols = rng.integers(2, 6, size=2)
            p = random_distribution(rng, n_rows, n_cols)
            dx = random_distance(rng, n_rows)
            dy = random_distance(rng, n_cols)
            assert_allclose(ref.dcov2_kronecker(p, dx, dy), dcov2(p, dx, dy),
                            atol=1e-12)

    def test_column_vectorization_swaps_factors(self):
        rng = np.random.default_rng(5)
        p = random_distribution(rng, 3, 4)
        dx = random_distance(rng, 3)
        dy = random_distance(rng, 4)
        vec_col = p.delta().ravel(order="F")
        swapped = vec_col @ np.kron(dy.d, dx.d) @ vec_col
        assert_allclose(swapped, dcov2(p, dx, dy), atol=1e-13)


class TestDvar2:
    def test_one_hot_closed_form(self):
        # rescaled one-hot: (sum p^2)^2 - 2 sum p^3 + sum p^2
        rng = np.random.default_rng(6)
        for _ in range(10):
            size = int(rng.integers(2, 7))
            m = rng.dirichlet(np.ones(size))
            expected = (m @ m) ** 2 - 2.0 * np.sum(m**3) + m @ m
            assert_allclose(dvar2(m, distance_matrix(one_hot(size))), expected,
                            atol=1e-14)

    def test_uniform_two_category(self):
        assert_allclose(dvar2([0.5, 0.5], DM2), 0.25)

    @pytest.mark.parametrize("marginal, error, match", [
        ([0.5, 0.25, 0.25], ShapeError, "^marginal length must match the distance matrix$"),
        ([[0.5, 0.5]], ShapeError, "^marginal length must match the distance matrix$"),
        ([1.1, -0.1], DistributionError, "^marginal probabilities must be nonnegative$"),
        ([0.5, 0.4], DistributionError, "^marginal must sum to 1$"),
    ], ids=["length", "two-d", "negative", "total"])
    def test_rejects_malformed_marginal(self, marginal, error, match):
        with pytest.raises(error, match=match):
            dvar2(marginal, DM2)

    def test_degenerate_marginal_is_zero(self):
        assert dvar2([1.0, 0.0], DM2) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            size = int(rng.integers(2, 7))
            m = rng.dirichlet(np.ones(size))
            d = random_distance(rng, size)
            assert_allclose(dvar2(m, d), brute_dvar2(m, d.d), atol=1e-14)


def exact_dvar2(marginal, d):
    """The centered form in exact rational arithmetic on the float inputs."""
    m = [Fraction(float(v)) for v in marginal]
    dd = [[Fraction(float(v)) for v in row] for row in d.d]
    size = len(m)
    dbar = [sum(dd[i][k] * m[k] for k in range(size)) for i in range(size)]
    return sum(m[i] * m[k] * (dd[i][k] - dbar[i]) * (dd[i][k] - dbar[k])
               for i in range(size) for k in range(size))


ENCODINGS = [one_hot, ordinal_equal, semicircle_equal]


class TestDvar2Kernel:
    """dvar2 is the plug-in kernel at total 1, not the centered form."""

    def test_within_1e14_of_centered_form(self):
        rng = np.random.default_rng(16)
        for case in range(300):
            size = int(rng.integers(2, 12))
            d = distance_matrix(ENCODINGS[case % 3](size))
            m = rng.dirichlet(np.ones(size))
            assert_allclose(dvar2(m, d), ref.dvar2_centered(m, d), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("make", ENCODINGS)
    def test_near_degenerate_matches_exact_reference(self, make):
        for size in (2, 3, 5, 8):
            d = distance_matrix(make(size))
            for eps in np.logspace(-16, -4, 25):
                for heavy in (0, size - 1):
                    m = np.full(size, eps / (size - 1))
                    m[heavy] = 1.0 - eps
                    exact = exact_dvar2(m, d)
                    value = dvar2(m, d)
                    assert abs(Fraction(value) - exact) <= 1e-18
                    assert (value <= _DEGENERATE_TOL) == (exact <= _DEGENERATE_TOL)


class TestDcor2:
    def test_equals_kernel_at_total_one(self):
        rng = np.random.default_rng(17)
        for case in range(300):
            n_rows, n_cols = (int(v) for v in rng.integers(2, 12, size=2))
            make = ENCODINGS[case % 3]
            dx, dy = distance_matrix(make(n_rows)), distance_matrix(make(n_cols))
            p = random_distribution(rng, n_rows, n_cols)
            values, degenerate = _score_pairs(p.pi[None], 1.0, [(dx, dy, "mle")])[0]
            assert not degenerate[0]
            assert dcor2(p, dx, dy) == values[0]

    def test_equals_ratio_of_public_measures(self):
        rng = np.random.default_rng(18)
        for case in range(300):
            n_rows, n_cols = (int(v) for v in rng.integers(2, 9, size=2))
            make = ENCODINGS[case % 3]
            dx, dy = distance_matrix(make(n_rows)), distance_matrix(make(n_cols))
            p = random_distribution(rng, n_rows, n_cols)
            ratio = dcov2(p, dx, dy) / np.sqrt(dvar2(p.row_marginal, dx)
                                               * dvar2(p.col_marginal, dy))
            assert dcor2(p, dx, dy) == min(ratio, 1.0)

    @pytest.mark.parametrize("pi", [[[0.3, 0.2], [0.1, 0.4]], [[0.6, 0.4], [0.0, 0.0]]],
                             ids=["scored", "degenerate"])
    def test_one_covariance_evaluation(self, pi, monkeypatch):
        # dcov2's rounding-noise check and the ratio share one evaluation.
        calls = []

        def counting(*args):
            calls.append(args)
            return _dcov2_many(*args)

        monkeypatch.setattr(catdcor.measures, "_dcov2_many", counting)
        try:
            dcor2(JointDistribution(np.array(pi)), DM2, DM2)
        except DegenerateMarginError:
            pass
        assert len(calls) == 1

    def test_independence_zero(self):
        p = JointDistribution.independent([0.4, 0.6], [0.3, 0.7])
        assert dcor2(p, DM2, DM2) == 0.0

    def test_diagonal_is_one(self):
        assert_allclose(dcor2(DIAG22, DM2, DM2), 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        p = random_distribution(rng, 3, 4)
        dx = random_distance(rng, 3)
        dy = random_distance(rng, 4)
        base = dcor2(p, dx, dy)
        assert_allclose(dcor2(p, dx.scaled_by(3.0), dy.scaled_by(3.0)), base,
                        atol=1e-12)
        assert_allclose(dcor2(p, dx.scaled_by(0.1), dy.scaled_by(7.0)), base,
                        atol=1e-12)

    def test_degenerate_margin_raises(self):
        p = JointDistribution(np.array([[0.6, 0.4], [0.0, 0.0]]))
        with pytest.raises(DegenerateMarginError, match="^distance variance is zero on at "
                           "least one margin; distance correlation is undefined$"):
            dcor2(p, DM2, DM2)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n_rows, n_cols = rng.integers(2, 6, size=2)
            p = random_distribution(rng, n_rows, n_cols)
            dx = random_distance(rng, n_rows)
            dy = random_distance(rng, n_cols)
            assert 0.0 <= dcor2(p, dx, dy) <= 1.0


class TestBilinearity:
    def test_scaling_laws(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n_rows, n_cols = rng.integers(2, 6, size=2)
            p = random_distribution(rng, n_rows, n_cols)
            dx = random_distance(rng, n_rows)
            dy = random_distance(rng, n_cols)
            base_cov = dcov2(p, dx, dy)
            base_var = dvar2(p.row_marginal, dx)
            cx, cy = 0.7, 2.5
            assert_allclose(dcov2(p, dx.scaled_by(cx), dy.scaled_by(cy)),
                            cx * cy * base_cov, atol=1e-12)
            assert_allclose(dvar2(p.row_marginal, dx.scaled_by(cx)),
                            cx**2 * base_var, atol=1e-12)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n_rows, n_cols = rng.integers(2, 6, size=2)
            p = random_distribution(rng, n_rows, n_cols)
            dx = random_distance(rng, n_rows)
            dy = random_distance(rng, n_cols)
            bound = np.sqrt(dvar2(p.row_marginal, dx) * dvar2(p.col_marginal, dy))
            assert dcov2(p, dx, dy) <= bound + 1e-12


class TestJointDistribution:
    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            JointDistribution(np.array([[0.5, 0.2], [0.2, 0.2]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointDistribution(np.array([[0.6, -0.1], [0.3, 0.2]]))

    @pytest.mark.parametrize("pi, error, match", [
        ([0.5, 0.5], ShapeError, "^joint distribution must be a 2-d table$"),
        ([[0.5, 0.5]], ShapeError, "^joint distribution needs at least two levels per margin$"),
        ([[0.5, np.nan], [0.25, 0.25]], DistributionError, "^probabilities must be finite$"),
        ([[0.5, 0.2], [0.2, 0.2]], DistributionError, r"^probabilities sum to 1\.0999999999999999, not 1$"),
    ], ids=["one-d", "one-row", "nan", "total"])
    def test_rejects_malformed_table(self, pi, error, match):
        with pytest.raises(error, match=match):
            JointDistribution(np.array(pi))

    def test_marginals_are_sums(self):
        p = JointDistribution(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert_allclose(p.row_marginal, [0.3, 0.7])
        assert_allclose(p.col_marginal, [0.4, 0.6])

    def test_mixed_encodings(self):
        # sanity: semicircle x ordinal diagonal table has high correlation
        p = JointDistribution(np.diag([0.3, 0.4, 0.3]))
        dx = distance_matrix(semicircle_equal(3))
        dy = distance_matrix(ordinal_equal(3))
        assert dcor2(p, dx, dy) > 0.9


def unshared_score(counts, n, dx, dy, estimator):
    """One pair scored with nothing shared: every margin, its equality check and
    the centered tables recomputed, as each pair was scored before the kernel
    shared them."""
    variances = []
    for margins, d in ((counts.sum(axis=2), dx), (counts.sum(axis=1), dy)):
        if len(margins) > 1 and (margins == margins[0]).all():
            variances.append(np.broadcast_to(_dvar2_many(margins[:1], n, d.d, estimator),
                                             len(margins)))
        else:
            variances.append(_dvar2_many(margins, n, d.d, estimator))
    var_x, var_y = variances
    cov = _dcov2_many(counts, n, dx.d, dy.d, estimator)
    if estimator == "mle":
        cov = np.maximum(cov, 0.0)
    degenerate = (var_x <= _DEGENERATE_TOL) | (var_y <= _DEGENERATE_TOL)
    scale = np.sqrt(np.where(degenerate, 1.0, var_x * var_y))
    return np.where(degenerate, 0.0, cov / scale), degenerate


class TestScorePairs:
    """One call scores every pair as a separate call per pair would, bit for bit."""

    @staticmethod
    def check(counts, n, pairs):
        found = _score_pairs(counts, n, pairs)
        assert len(found) == len(pairs)
        for (values, degenerate), pair in zip(found, pairs):
            assert values.shape == degenerate.shape == (len(counts),)
            for expected in (_score_pairs(counts, n, [pair])[0], unshared_score(counts, n, *pair)):
                assert np.array_equal(values, expected[0])
                assert np.array_equal(degenerate, expected[1])
        return found

    @staticmethod
    def pairs(rng, n_rows, n_cols, estimators):
        return [(distance_matrix(ENCODINGS[int(rng.integers(3))](n_rows)),
                 random_distance(rng, n_cols), estimator) for estimator in estimators]

    def test_mixed_estimators(self):
        rng = np.random.default_rng(30)
        for trial in range(40):
            n_rows, n_cols = (int(v) for v in rng.integers(2, 9, size=2))
            n = int(rng.integers(4, 60))
            counts = ref.tabulate(rng.integers(0, n_rows, (n, 20)),
                                  rng.integers(0, n_cols, (n, 1)), n_rows, n_cols)
            estimators = ["mle", "unbiased", "unbiased", "mle", "unbiased"][:1 + trial % 5]
            self.check(counts, float(n), self.pairs(rng, n_rows, n_cols, estimators))

    def test_degenerate_margin(self):
        rng = np.random.default_rng(31)
        n = 30
        x = rng.integers(0, 4, (n, 12))
        x[:, [0, 5, 11]] = 2  # constant feature columns
        counts = ref.tabulate(x, rng.integers(0, 3, (n, 1)), 4, 3)
        found = self.check(counts, float(n), self.pairs(rng, 4, 3, ["mle", "unbiased", "mle"]))
        for values, degenerate in found:
            assert np.flatnonzero(degenerate).tolist() == [0, 5, 11]
            assert np.all(values[degenerate] == 0.0)

    def test_fixed_margins(self):
        # One feature against permuted responses: both margins are the same
        # in every table, so each pair scores each margin once.
        rng = np.random.default_rng(32)
        n = 80
        x = rng.integers(0, 5, (n, 1))
        y = rng.permuted(np.repeat(rng.integers(0, 4, (n, 1)), 50, axis=1), axis=0)
        counts = ref.tabulate(x, y, 5, 4)
        assert (counts.sum(axis=2) == counts[0].sum(axis=1)).all()
        assert (counts.sum(axis=1) == counts[0].sum(axis=0)).all()
        self.check(counts, float(n), self.pairs(rng, 5, 4, ["unbiased", "mle"]))

    def test_population_stack_of_one(self):
        # dcor2's path: one joint distribution at total 1.
        rng = np.random.default_rng(33)
        for _ in range(30):
            n_rows, n_cols = (int(v) for v in rng.integers(2, 9, size=2))
            p = random_distribution(rng, n_rows, n_cols)
            pairs = self.pairs(rng, n_rows, n_cols, ["mle", "mle"])
            found = self.check(p.pi[None], 1.0, pairs)
            assert [float(v[0]) for v, _ in found] == [dcor2(p, dx, dy) for dx, dy, _ in pairs]


class TestStackIndependence:
    """A table's score does not depend on the stack it is scored in.

    The permutation p-values rescore replicate tables by the kernel that
    scored the observed table, so their ties need every score of a table
    bit for bit equal to its stack-of-one score, wherever it sits in a
    stack of any size.
    """

    @staticmethod
    def tables(rng, count, n_rows, n_cols, n, fractional):
        p = rng.dirichlet(np.ones(n_rows * n_cols), count)
        counts = p * n if fractional else np.array([rng.multinomial(n, q) for q in p], float)
        return counts.reshape(count, n_rows, n_cols)

    @pytest.mark.parametrize("fractional", [False, True], ids=["integer", "fractional"])
    def test_score_equals_stack_of_one(self, fractional):
        rng = np.random.default_rng((37, fractional))
        n, compared = 60, 0
        for n_rows in range(2, 11):
            for n_cols in range(2, 11):
                pairs = [(distance_matrix(ENCODINGS[(n_rows + n_cols) % 3](n_rows)),
                          random_distance(rng, n_cols), estimator)
                         for estimator in ("mle", "unbiased")]
                table = self.tables(rng, 1, n_rows, n_cols, n, fractional)
                alone = [values[0] for values, _ in _score_pairs(table, float(n), pairs)]
                for size in (1, 5, 127, 128, 129, 300):
                    stack = self.tables(rng, size, n_rows, n_cols, n, fractional)
                    at = sorted({0, size // 2, size - 1} | {127, 128} & set(range(size)))
                    stack[at] = table
                    for values, expected in zip(_score_pairs(stack, float(n), pairs), alone):
                        assert (values[0][at] == expected).all(), (n_rows, n_cols, size)
                        compared += len(at)
                # A stack of copies: its margins agree and are scored once.
                copies = np.repeat(table, 300, axis=0)
                for values, expected in zip(_score_pairs(copies, float(n), pairs), alone):
                    assert (values[0] == expected).all(), (n_rows, n_cols)
        assert compared == 81 * 2 * 19


class TestMarginsOncePerStack:
    """The bias-corrected covariance reads each slice's margins from the stack's,
    which :func:`_score_pairs` sums once, instead of summing them again."""

    def test_t_stats_use_the_given_margins(self):
        # T1 reads only the tables; T2 and T3 read the margins passed in,
        # one row of which holds for every table.
        rng = np.random.default_rng(40)
        counts = rng.integers(0, 9, (6, 4, 3)).astype(float)
        dx, dy = random_distance(rng, 4).d, random_distance(rng, 3).d
        rows, cols = rng.random((6, 4)), rng.random((1, 3))
        t1, t2, t3 = _t_stats_many(counts, dx, dy, (rows, cols))
        assert np.array_equal(t1, _t_stats_many(counts, dx, dy)[0])
        for s in range(6):
            assert t2[s] == pytest.approx(rows[s] @ dx @ counts[s] @ dy @ cols[0], rel=1e-12)
            assert t3[s] == pytest.approx((rows[s] @ dx @ rows[s]) * (cols[0] @ dy @ cols[0]),
                                          rel=1e-12)

    @pytest.mark.parametrize("fixed", [False, True], ids=["varying", "fixed"])
    def test_each_slice_gets_the_stack_margins(self, monkeypatch, fixed):
        rng = np.random.default_rng(41)
        n = 50
        x = rng.integers(0, 4, (n, 1 if fixed else 300))
        y = rng.permuted(np.repeat(rng.integers(0, 3, (n, 1)), 300 if fixed else 1, axis=1),
                         axis=0)
        counts = ref.tabulate(x, y, 4, 3)
        calls = []

        def recording(block, dx, dy, margins=()):
            calls.append((len(block), [m.copy() for m in margins]))
            return _t_stats_many(block, dx, dy, margins)

        monkeypatch.setattr(catdcor.measures, "_t_stats_many", recording)
        pair = (distance_matrix(one_hot(4)), distance_matrix(ordinal_equal(3)), "unbiased")
        found = _score_pairs(counts, float(n), [pair])
        assert [size for size, _ in calls] == [128, 128, 44]
        for (size, (rows, cols)), start in zip(calls, (0, 128, 256)):
            block = counts[start:start + size]
            # Every table shares the response's margin, and with a fixed feature its own.
            for given, own, rows_given in ((rows, block.sum(axis=2), 1 if fixed else size),
                                           (cols, block.sum(axis=1), 1)):
                assert len(given) == rows_given
                assert np.array_equal(np.broadcast_to(given, own.shape), own)
        monkeypatch.undo()
        for values, expected in zip(found, _score_pairs(counts, float(n), [pair])):
            assert np.array_equal(values, expected)
        assert np.array_equal(found[0][0], unshared_score(counts, float(n), *pair)[0])


class TestKernelSwaps:
    """Each faster form in the kernel equals the form it replaced, bit for bit.

    The CLI's byte-identical outputs rest on these; a platform where one
    fails names the swap here rather than in a distant CLI pin.
    """

    def test_float_power_is_python_power(self):
        rng = np.random.default_rng(38)
        v = np.exp(rng.uniform(np.log(1e-150), np.log(1e150), 1_000_000))
        assert np.array_equal(np.float_power(v, 2.0), np.array([x**2 for x in v.tolist()]))

    def test_einsum_sums_and_outer_products(self):
        rng = np.random.default_rng(39)
        for size in (1, 3, 128, 129):
            for n_rows in range(2, 33):
                for n_cols in range(2, 33):
                    scale = 10.0 ** rng.integers(-3, 4)
                    counts = rng.random((size, n_rows, n_cols)) * scale
                    cols = np.einsum("sij->sj", counts)
                    assert np.array_equal(cols, counts.sum(axis=1)), (size, n_rows, n_cols)
                    rows = counts.sum(axis=2)
                    assert np.array_equal(np.einsum("si,sj->sij", rows, cols),
                                          rows[:, :, None] * cols[:, None, :])


INTEGER_DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]


class TestTabulate:
    """The one tabulation kernel, table for table equal to the per-table ``np.add.at`` reference."""

    @pytest.mark.parametrize("dtype", INTEGER_DTYPES)
    @pytest.mark.parametrize("count", [0, 1, _BLOCK, 2 * _BLOCK + 1])
    def test_rows_against_shared_column_codes(self, dtype, count):
        # uint64 codes: a bare intp + uint64 add would give float64.
        rng = np.random.default_rng((34, count))
        n = 37
        x = rng.integers(0, 4, (n, count)).astype(dtype)
        y = rng.integers(0, 3, n).astype(dtype)
        got = _tabulate(x.T, 3, y, (4, 3))
        assert got.shape == (count, 4, 3) and got.dtype == np.float64
        assert np.array_equal(got, ref.tabulate(x, y[:, None], 4, 3))

    @pytest.mark.parametrize("dtype", INTEGER_DTYPES)
    def test_listed_rows(self, dtype):
        rng = np.random.default_rng(35)
        n = 50
        x = rng.integers(0, 5, (n, 2 * _BLOCK + 1)).astype(dtype)
        y = rng.integers(0, 2, n).astype(dtype)
        take = rng.permutation(x.shape[1])[:_BLOCK + 3].tolist()
        assert np.array_equal(_tabulate(x.T, 2, y, (5, 2), take),
                              ref.tabulate(x[:, take], y[:, None], 5, 2))

    def test_one_observation(self):
        x = np.array([[0, 2, 1, 2]])
        got = _tabulate(x.T, 2, np.array([1]), (3, 2))
        assert np.array_equal(got, ref.tabulate(x, np.array([[1]]), 3, 2))
        assert got.sum(axis=(1, 2)).tolist() == [1.0] * 4

    @pytest.mark.parametrize("dtype, cols", [(np.uint8, 4), (np.uint16, 300)])
    def test_draws_against_joint_code(self, dtype, cols):
        # Draws of the last axis against the shared joint code of two variables.
        rng = np.random.default_rng(36)
        n, sizes = 600, (2, 3)
        joint = np.ravel_multi_index([rng.integers(0, k, n) for k in sizes], sizes)
        drawn = np.stack([rng.permutation(np.arange(n) % cols)
                          for _ in range(_BLOCK + 7)]).astype(dtype)
        got = _tabulate(drawn, 1, joint * cols, (*sizes, cols))
        expected = ref.tabulate(joint[:, None], drawn.T, 6, cols)
        assert np.array_equal(got, expected.reshape(len(drawn), *sizes, cols))
