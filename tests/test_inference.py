"""Tests for null spectra, tail probabilities, tests, and delta-method inference.

Oracles: hand eigenvalues for the 2x2 case, the trace identity against
the population distance variance, a general (non-symmetric) eigensolver
on the raw margin-weighted matrix, Monte Carlo tails for the weighted
chi-squared law, permutation tests, and central finite differences for
every analytic gradient.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.stats import chi2, norm

from catdcor import (
    ConfigurationError,
    DegenerateCategoryError,
    DegenerateDistributionError,
    DegenerateMarginError,
    DistributionError,
    InsufficientReplicatesError,
    InternalConsistencyError,
    JointDistribution,
    JointTable,
    NullSpectrum,
    alt_inference,
    confidence_interval,
    custom,
    dcor2,
    dcor2_mle,
    dcor2_unbiased,
    distance_matrix,
    dvar2,
    independence_test,
    inference,
    null_pvalue_mle,
    null_pvalue_unbiased,
    null_spectrum,
    ShapeError,
    one_hot,
    ordinal_equal,
    permutation_test,
    q_matrix,
    semicircle_equal,
    spectrum,
    weighted_chisq_sf,
)
import catdcor.cli
import catdcor.measures
from perfbench_inputs import perfbench_workload
import scalar_reference as ref
import tail_fuzz
import tail_reference as tails

DM2 = distance_matrix(one_hot(2))


def random_distance(rng, size):
    pts = rng.normal(size=(size, 3))
    return distance_matrix(custom([str(i) for i in range(size)], pts))


def random_marginal(rng, size):
    m = rng.dirichlet(np.ones(size) * 2.0)
    m = np.clip(m, 1e-3, None)
    return m / m.sum()


class TestQMatrix:
    def test_two_by_two_uniform(self):
        q = q_matrix([0.5, 0.5], DM2)
        assert_allclose(q, [[-0.25, 0.25], [0.25, -0.25]])
        eigvals = np.sort(np.linalg.eigvalsh(0.5 * (q + q.T)))
        assert_allclose(eigvals, [-0.5, 0.0], atol=1e-15)

    def test_one_hot_specialization(self):
        # unit distances: off-diagonal pi_i sqrt(pi_i pi_k), diagonal (pi_i - 1) pi_i
        m = np.array([0.5, 0.3, 0.2])
        q = q_matrix(m, distance_matrix(one_hot(3)))
        for i in range(3):
            for k in range(3):
                if i == k:
                    assert_allclose(q[i, i], (m[i] - 1.0) * m[i])
                else:
                    assert_allclose(q[i, k], m[i] * np.sqrt(m[i] * m[k]))

    def test_trace_identity(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            size = int(rng.integers(2, 8))
            m = random_marginal(rng, size)
            d = random_distance(rng, size)
            q = q_matrix(m, d)
            assert_allclose(np.trace(q @ q), dvar2(m, d), atol=1e-12)

    def test_zero_category_rejected(self):
        with pytest.raises(DegenerateCategoryError):
            q_matrix([1.0, 0.0], DM2)


class TestSpectrum:
    def test_two_by_two_uniform(self):
        assert_allclose(spectrum([0.5, 0.5], DM2), [-0.5])

    def test_sum_of_squares_is_dvar(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            size = int(rng.integers(2, 8))
            m = random_marginal(rng, size)
            kind = int(rng.integers(0, 4))
            if kind == 0:
                d = distance_matrix(one_hot(size))
            elif kind == 1:
                d = distance_matrix(ordinal_equal(size))
            elif kind == 2:
                d = distance_matrix(semicircle_equal(size))
            else:
                d = random_distance(rng, size)
            lam = spectrum(m, d)
            assert lam.shape == (size - 1,)
            assert abs(np.sum(lam**2) - dvar2(m, d)) < 1e-9

    def test_agrees_with_direct_eigensolver(self):
        # the raw margin-weighted matrix has the same nonzero spectrum
        rng = np.random.default_rng(42)
        for _ in range(40):
            size = int(rng.integers(2, 8))
            m = random_marginal(rng, size)
            d = random_distance(rng, size)
            lam = spectrum(m, d)
            direct = np.linalg.eigvals(q_matrix(m, d))
            assert np.abs(direct.imag).max() < 1e-9
            assert_allclose(np.sort(direct.real),
                            np.sort(np.append(lam, 0.0)), atol=1e-9)

    def test_exactly_one_zero_eigenvalue(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            size = int(rng.integers(3, 8))
            m = random_marginal(rng, size)
            d = random_distance(rng, size)
            direct = np.linalg.eigvals(q_matrix(m, d)).real
            radius = np.abs(direct).max()
            assert (np.abs(direct) <= 1e-9 * radius).sum() == 1

    def test_descending_magnitude(self):
        rng = np.random.default_rng(44)
        m = random_marginal(rng, 6)
        lam = spectrum(m, random_distance(rng, 6))
        assert np.all(np.diff(np.abs(lam)) <= 1e-15)


class TestNullSpectrum:
    def test_fields(self):
        ns = null_spectrum([0.5, 0.5], [0.5, 0.5], DM2, DM2)
        assert_allclose(ns.lambdas, [-0.5])
        assert_allclose(ns.mus, [-0.5])
        assert_allclose(ns.bias_shift, 0.25)
        assert_allclose(ns.dvar_x, 0.25)
        assert_allclose(ns.dvar_y, 0.25)

    def test_zero_count_categories_dropped_with_warning(self):
        dm3 = distance_matrix(one_hot(3))
        with pytest.warns(RuntimeWarning):
            ns = null_spectrum([0.5, 0.5, 0.0], [0.4, 0.6], dm3, DM2)
        assert ns.lambdas.shape == (1,)

    @pytest.mark.parametrize("marginal", [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    @pytest.mark.parametrize("side", ["row", "col"])
    def test_marginal_length_checked_before_dropping(self, marginal, side):
        margins = (marginal, [0.5, 0.5]) if side == "row" else ([0.5, 0.5], marginal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="marginal length must match"):
                null_spectrum(*margins, DM2, DM2)

    def test_margin_laws_equal_two_sort_reference(self):
        # Named encodings and random custom points, 2 to 30 categories; uniform
        # one-hot margins repeat eigenvalues, and some margins have zero counts.
        # Margins not summing to 1 lose the structural zero and give the error.
        rng = np.random.default_rng(45)
        marginals, dists = [], []
        for size in range(2, 31):
            for make in (one_hot, ordinal_equal, semicircle_equal, None):
                d = (random_distance(rng, size) if make is None else distance_matrix(make(size))).d
                uniform = np.full(size, 1.0 / size)
                zeros = rng.dirichlet(np.ones(size))
                zeros[1:][rng.random(size - 1) < 0.3] = 0.0
                for m in (uniform, random_marginal(rng, size), zeros / zeros.sum(),
                          1.5 * random_marginal(rng, size)):
                    marginals.append(m)
                    dists.append(d)
        got, expected = inference._margin_laws(marginals, dists), ref.margin_laws(marginals, dists)
        assert any(isinstance(law, InternalConsistencyError) for _, law in got)
        for (dropped, law), (ref_dropped, ref_law) in zip(got, expected, strict=True):
            assert dropped == ref_dropped
            if isinstance(ref_law, Exception):
                assert type(law) is type(ref_law) and str(law) == str(ref_law)
            else:
                assert isinstance(law, tuple), law
                assert law[0].tobytes() == ref_law[0].tobytes() and law[1] == ref_law[1]

    def test_normalizer(self):
        ns = null_spectrum([0.5, 0.5], [0.5, 0.5], DM2, DM2)
        assert_allclose(ns.normalizer(), 0.25)
        flat = NullSpectrum(lambdas=np.zeros(1), mus=np.array([-0.5]),
                            bias_shift=0.0, dvar_x=0.0, dvar_y=0.25)
        with pytest.raises(DegenerateMarginError, match="zero total weight"):
            flat.normalizer()


class TestWeightedChisqSf:
    def test_single_weight_chi2_tail(self):
        # P(chi2_1 > 1) via the complementary error function
        expected = math.erfc(math.sqrt(0.5))
        assert abs(weighted_chisq_sf([1.0], 0.0) - expected) < 1e-10

    def test_lower_support_limit(self):
        assert weighted_chisq_sf([1.0], -1.0 + 1e-12) > 1.0 - 1e-5

    def test_negative_single_weight(self):
        # -Z^2 + 1 > 0.5 iff Z^2 < 0.5
        from scipy.stats import chi2
        assert_allclose(weighted_chisq_sf([-1.0], 0.5), chi2.cdf(0.5, 1),
                        atol=1e-10)

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(45)
        w = rng.uniform(-2.0, 2.0, size=6)
        grid = np.linspace(-3.0, 8.0, 40)
        values = [weighted_chisq_sf(w, x) for x in grid]
        assert np.all(np.diff(values) <= 1e-8)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(46)
        worst = 0.0
        for _ in range(6):
            k = int(rng.integers(2, 10))
            w = rng.uniform(-2.0, 2.0, size=k)
            w[np.abs(w) < 0.1] += 0.5
            z = rng.standard_normal((200000, k))
            samples = ((z**2 - 1.0) * w).sum(axis=1)
            for quant in (0.1, 0.5, 0.9):
                x = np.quantile(samples, quant)
                worst = max(worst, abs(weighted_chisq_sf(w, x)
                                       - (samples > x).mean()))
        assert worst < 0.005  # MC standard error is about 1e-3

    @pytest.mark.parametrize("scale", [0.3, 1.0, 2.5, -0.3, -1.0, -2.5])
    def test_single_weight_matches_chi2_reference(self, scale):
        # q = 1 + x / scale from 1e-8 up to 1400, where P(chi2_1 > q) ~ 1e-300.
        # Beyond q ~ 450 the bound grows as q * eps: the tail's relative
        # condition number in q is about q / 2, and scipy's own chi2.sf is
        # 1.06e-13 from a 40-digit value near q = 1400.
        eps = np.finfo(float).eps
        for target in np.concatenate([np.geomspace(1e-8, 1400.0, 300),
                                      np.linspace(0.5, 1400.0, 300)]):
            x = (target - 1.0) * scale
            q = 1.0 + x / scale
            p = weighted_chisq_sf([scale], x)
            expected = chi2.sf(q, 1) if scale > 0.0 else chi2.cdf(q, 1)
            assert expected > 0.0
            assert abs(p - expected) <= max(1e-13, q * eps) * expected, (scale, q)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            weighted_chisq_sf([0.0, 0.0], 1.0)

    @pytest.mark.parametrize("weights, x", [
        ([1.0, math.nan], 0.0), ([1.0, 0.5], math.nan), ([1.0, math.inf], 0.0),
        ([1.0, 0.5], math.inf), ([math.nan], 0.0), ([1.0], math.nan),
        ([-math.inf], 0.0), ([1.0, -0.5], -math.inf),
    ], ids=["nan-weight", "nan-x", "inf-weight", "inf-x", "single-nan-weight",
            "single-weight-nan-x", "single-inf-weight", "minus-inf-x"])
    def test_non_finite_input_rejected(self, weights, x):
        with pytest.raises(DistributionError, match="must be finite"):
            weighted_chisq_sf(weights, x)

    def test_bounds(self):
        rng = np.random.default_rng(47)
        w = rng.uniform(-1.0, 1.0, size=5)
        for x in (-50.0, 0.0, 50.0):
            assert 0.0 <= weighted_chisq_sf(w, x) <= 1.0


def two_weight_reference(w0, w1, q):
    """P(w0 Z0^2 + w1 Z1^2 > q) by quadrature over Z0 of the exact Z1 tail.

    Independent of the library's polar-angle rule: given Z0 = z the event
    is a chi-squared(1) tail (w1 > 0) or body (w1 < 0) at
    ``(q - w0 z^2) / w1``; the kink at ``w0 z^2 = q`` is a breakpoint.
    Accurate when Z1 carries the larger weight, so callers put the
    smaller weight first.
    """
    def integrand(z):
        s = (q - w0 * z * z) / w1
        tail = chi2.sf(s, 1) if w1 > 0.0 else chi2.cdf(s, 1)
        return 2.0 * norm.pdf(z) * tail

    edges = [0.0, 40.0]
    if 0.0 < q / w0 < 40.0**2:
        edges.insert(1, math.sqrt(q / w0))
    return sum(integrate.quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13,
                              limit=500)[0]
               for a, b in zip(edges[:-1], edges[1:]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTailExactReferences:
    """Tails against exact references; any floating-point warning fails."""

    @pytest.mark.parametrize("w", [0.3, 1.0 / math.sqrt(2.0), 2.0])
    def test_equal_pair_is_chi2_two(self, w):
        # w (Z0^2 + Z1^2) - 2w > x  iff  chi2_2 > (x + 2w) / w
        for s in (0.5, 2.0, 10.0, 30.0, 45.0, 55.0):
            expected = chi2.sf(s, 2)
            got = weighted_chisq_sf([w, w], w * s - 2.0 * w)
            assert abs(got - expected) <= 1e-12 * expected
        assert chi2.sf(55.0, 2) < 2e-12

    @pytest.mark.parametrize("weights", [
        (0.9, 0.1), (0.3, 0.7), (0.8, -0.2), (-0.3, 0.9), (-0.6, -0.4),
        (1.0, -1.0),
    ])
    def test_unequal_and_mixed_pairs_match_quadrature(self, weights):
        small, large = sorted(weights, key=abs)
        for x in (-1.5, -0.4, 0.0, 0.3, 1.0, 4.0, 12.0):
            q = x + sum(weights)
            if (min(weights) > 0.0 and q <= 0.0) or (max(weights) < 0.0 and q >= 0.0):
                continue  # outside the support: handled before any integral
            expected = two_weight_reference(small, large, q)
            assert abs(weighted_chisq_sf(weights, x) - expected) <= 1e-12

    def test_mixed_pair_at_zero_quantile(self):
        # P(0.75 Z0^2 - 0.25 Z1^2 > 0) = (2/pi) atan(sqrt(3)) = 2/3
        assert abs(weighted_chisq_sf([0.75, -0.25], -0.5) - 2.0 / 3.0) <= 1e-15

    def test_skewed_pair_needs_no_inversion(self):
        for x in (-0.9, -0.5, 0.0, 1.0, 5.0, 30.0):
            q = x + 1.0 + 1e-6
            expected = two_weight_reference(1e-6, 1.0, q)
            assert abs(weighted_chisq_sf([1.0, 1e-6], x) - expected) <= 1e-12
            assert abs(weighted_chisq_sf([-1e-6, -1.0], -x) - (1.0 - expected)) <= 1e-12


def contour_tail(weights, quantile):
    """The public tail at ``quantile`` (not centered)."""
    weights = np.asarray(weights, dtype=float)
    return weighted_chisq_sf(weights, quantile - weights.sum())


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestContourExactReferences:
    """Positive weights: the saddle-point contour against exact tails.

    Above the mean the contour computes p, below it 1 - p; either way p
    must be within 1e-12 relative of the reference.
    """

    @pytest.mark.parametrize("k", [3, 4, 7, 16, 50])
    def test_equal_weights_match_chi2(self, k):
        w = 0.37
        below = np.geomspace(1e-3 * k, k, 30, endpoint=False)
        above = np.geomspace(k, chi2.isf(1e-200, k), 60)[1:]
        for s in np.concatenate([below, above]):
            expected = chi2.sf(s, k)
            assert abs(contour_tail(np.full(k, w), w * s) - expected) <= 1e-12 * expected, s
        assert chi2.sf(above[-1], k) < 1.01e-200

    @pytest.mark.parametrize("a, m, b, n", [
        (1.0, 1, 1e-6, 2), (1.0, 2, 0.5, 3), (0.3, 4, 1.0, 1), (1.0, 3, 0.01, 5)])
    def test_two_groups_match_convolution(self, a, m, b, n):
        weights = [a] * m + [b] * n
        mean = a * m + b * n
        for q in mean * np.array([0.05, 0.5, 0.9, 1.1, 2.0, 5.0, 20.0]):
            if q > mean:
                expected = tails.two_group_sf(a, m, b, n, q)
            else:
                expected = 1.0 - tails.two_group_sf(a, m, b, n, q, lower=True)
            assert abs(contour_tail(weights, q) - expected) <= 1e-12 * expected, q

    def test_product_spectra_of_two_by_four_tables(self):
        # One lambda times three mus: three distinct weights, whose tail
        # has a one-dimensional convolution reference.
        rng = np.random.default_rng(62)
        for _ in range(25):
            ns = null_spectrum(random_marginal(rng, 2), random_marginal(rng, 4),
                               DM2, random_distance(rng, 4))
            weights = np.outer(ns.lambdas, ns.mus).ravel() / ns.normalizer()
            a, b, c = np.sort(weights)[::-1]
            mean = a + b + c
            for q in (mean * rng.uniform(0.05, 1.0), mean * rng.uniform(1.0, 1.5),
                      mean + rng.uniform(1.0, 60.0)):
                if q > mean:
                    expected = tails.three_weight_sf(a, b, c, q)
                else:
                    expected = 1.0 - tails.three_weight_sf(a, b, c, q, lower=True)
                assert abs(contour_tail(weights, q) - expected) <= 1e-12 * expected, (weights, q)

    def test_skewed_weights_keep_the_exact_route(self):
        # The removed inversion integral gave up here; the moment match gave 6.65e-5.
        p = contour_tail([1.0, 1e-6, 1e-6], 30.0)
        assert abs(p - 4.3204675140067725e-08) <= 1e-12 * p
        assert abs(p - tails.two_group_sf(1.0, 1, 1e-6, 2, 30.0)) <= 1e-12 * p

    def test_tiny_quantile_complement(self):
        # The removed inversion integral was 3.7e-7 off here.
        expected = 1.0 - tails.three_weight_sf(1.0, 0.5, 1e-9, 1e-8, lower=True)
        assert abs(contour_tail([1.0, 0.5, 1e-9], 1e-8) - expected) <= 1e-12 * expected

    def test_far_tail_below_the_inversion_floor(self):
        # The removed inversion integral returned 5.2e-11.
        expected = tails.three_weight_sf(1.0, 0.5, 0.25, 1000.0)
        assert 2.9e-219 < expected < 3.0e-219
        assert abs(contour_tail([1.0, 0.5, 0.25], 1000.0) - expected) <= 1e-12 * expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMixedSignExactReferences:
    """Mixed signs: the contour against the convolution ``tails.mixed_sf``, at 1e-12 absolute."""

    @pytest.mark.parametrize("a, b, c", [
        (1.0, 0.5, 0.3), (1.0, 1e-3, 0.7), (0.4, 0.3, 1.0), (1.0, 0.2, 1e-6),
        (0.6, 0.6, 0.6), (1.0, 1e-6, 1.0)])
    def test_three_weights_match_convolution(self, a, b, c):
        mean = a + b - c
        sd = math.sqrt(2.0 * (a * a + b * b + c * c))
        far = mean + 30.0 * sd
        for q in (0.0, 1e-12, -1e-12, mean - 2.0 * sd, mean, mean + sd, far, -30.0 * c):
            expected = tails.mixed_sf(a, b, c, q)
            assert abs(contour_tail([a, b, -c], q) - expected) <= 1e-12, q
            # Two negative weights: P(c Z - a X - b Y > -q) = 1 - P(a X + b Y - c Z > q).
            assert abs(contour_tail([c, -a, -b], -q) - (1.0 - expected)) <= 1e-12, q
        expected = tails.mixed_sf(a, b, c, far)
        assert abs(contour_tail([a, b, -c], far) - expected) <= 1e-12 * expected


def test_skewed_mixed_signs_are_exact():
    # The removed inversion integral gave up here, and the moment match gave 6.65e-5.
    p = weighted_chisq_sf([1.0, -1e-6, 1e-6], 29.0)
    assert abs(p - 4.320463057829787e-08) <= 1e-12 * p
    assert abs(p - tails.mixed_sf(1.0, 1e-6, 1e-6, 30.0)) <= 1e-12 * p


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_adversarial_spectra():
    """Every sign pattern near the quantile 0, and beyond the floating-point range.

    ``tail_fuzz`` draws the spectra and holds each case's value from before
    the contour took every spectrum.  The tail must be within 1e-9 of it
    where it was tagged ``imhof``.  Where it was more than 1e-9 off a
    30-digit value pinned beside it, or came from the moment match, the
    tail must be within 1e-12 of that value instead.
    """
    pins = tail_fuzz.load_pins()
    cases = list(tail_fuzz.cases())
    assert len(pins) == len(cases)
    for (pattern, weights, quantile), pin in zip(cases, pins):
        p = weighted_chisq_sf(weights, quantile - weights.sum())
        assert 0.0 <= p <= 1.0
        if pin["exact"] is not None:
            assert abs(p - pin["exact"]) <= 1e-12, (pattern, weights, quantile)
        else:
            assert pin["parent_method"] == "imhof"
            assert abs(p - pin["parent"]) <= 1e-9, (pattern, weights, quantile)
    for _, weights, _ in cases[::3]:
        assert weighted_chisq_sf(weights, 1e300) == 0.0
        assert weighted_chisq_sf(-weights, -1e300) == 1.0


class TestAnalyticNull:
    def test_perfect_dependence_tiny_pvalue(self):
        t = JointTable(200.0 * np.eye(3) / 3.0)
        dx = dy = distance_matrix(one_hot(3))
        assert null_pvalue_unbiased(t, dx, dy) < 1e-6
        assert null_pvalue_mle(t, dx, dy) < 1e-6

    def test_calibration_smoke(self):
        # rejection rate near nominal on a modest null sample
        rng = np.random.default_rng(48)
        dx = distance_matrix(one_hot(3))
        dy = distance_matrix(one_hot(4))
        pi0 = np.outer([0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1])
        rej = 0
        reps = 400
        for _ in range(reps):
            counts = rng.multinomial(200, pi0.ravel()).reshape(3, 4).astype(float)
            rej += null_pvalue_unbiased(JointTable(counts), dx, dy) < 0.05
        assert 0.02 <= rej / reps <= 0.09

    def test_calibration_mixed_design(self):
        # nominal feature against an ordered response
        rng = np.random.default_rng(481)
        dx = distance_matrix(one_hot(3))
        dy = distance_matrix(semicircle_equal(4))
        pi0 = np.outer([0.5, 0.3, 0.2], [0.35, 0.3, 0.2, 0.15])
        rej_u = rej_m = 0
        reps = 800
        for _ in range(reps):
            counts = rng.multinomial(200, pi0.ravel()).reshape(3, 4).astype(float)
            t = JointTable(counts)
            rej_u += null_pvalue_unbiased(t, dx, dy) < 0.05
            rej_m += null_pvalue_mle(t, dx, dy) < 0.05
        assert 0.03 <= rej_u / reps <= 0.075
        assert 0.03 <= rej_m / reps <= 0.075

    def test_variants_converge_with_n(self):
        # the two analytic p-values approach each other as n grows
        rng = np.random.default_rng(49)
        dx = dy = distance_matrix(semicircle_equal(3))
        pi0 = np.outer([0.4, 0.35, 0.25], [0.4, 0.35, 0.25])
        gaps = []
        for n in (100, 10000):
            diffs = []
            for k in range(30):
                r = np.random.default_rng((490, n, k))
                counts = r.multinomial(n, pi0.ravel()).reshape(3, 3).astype(float)
                t = JointTable(counts)
                diffs.append(abs(null_pvalue_mle(t, dx, dy)
                                 - null_pvalue_unbiased(t, dx, dy)))
            gaps.append(np.mean(diffs))
        assert gaps[1] < gaps[0]

    def test_two_by_two_bias_shift(self):
        t = JointTable(np.array([[25.0, 25.0], [25.0, 25.0]]))
        result = independence_test(t, DM2, DM2, estimator="mle")
        assert_allclose(result.bias_shift, 0.25)

    def test_report_fields(self):
        rng = np.random.default_rng(50)
        counts = rng.multinomial(150, np.full(6, 1 / 6)).reshape(2, 3).astype(float)
        t = JointTable(counts)
        dx = DM2
        dy = distance_matrix(one_hot(3))
        result = independence_test(t, dx, dy, estimator="unbiased")
        assert result.lambdas.shape == (1,)
        assert result.mus.shape == (2,)
        assert result.method == "imhof"
        assert result.estimator == "unbiased"
        assert 0.0 <= result.p_value <= 1.0
        assert_allclose(result.statistic, t.n * result.statistic / t.n)


class TestPermutation:
    @staticmethod
    def _dependent_sample(rng, n=200):
        y = rng.integers(0, 3, size=n)
        x = np.where(rng.random(n) < 0.6, y, rng.integers(0, 3, size=n))
        return x, y

    def test_power_on_dependent_data(self):
        rng = np.random.default_rng(51)
        x, y = self._dependent_sample(rng)
        d3 = distance_matrix(one_hot(3))
        p = permutation_test(x, y, d3, d3, estimator="unbiased", reps=199, seed=0)
        assert p <= 0.01

    def test_observed_ranked_last_gives_one(self):
        # a perfectly balanced 2x2 sample: every permuted table scores at
        # least as high as the observed uniform table
        x = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 0, 1])
        p = permutation_test(x, y, DM2, DM2, estimator="unbiased", reps=199, seed=3)
        assert p == 1.0

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(52)
        x, y = self._dependent_sample(rng)
        d3 = distance_matrix(one_hot(3))
        p1 = permutation_test(x, y, d3, d3, estimator="mle", reps=199, seed=7)
        p2 = permutation_test(x, y, d3, d3, estimator="mle", reps=199, seed=7)
        assert p1 == p2

    def test_keyed_generator_values(self):
        # Recorded values: replicate r permutes y with default_rng((seed, r)).
        rng = np.random.default_rng(53)
        x = rng.integers(0, 3, size=80)
        y = rng.integers(0, 4, size=80)
        dx = distance_matrix(one_hot(3))
        dy = distance_matrix(ordinal_equal(4))
        assert permutation_test(x, y, dx, dy, estimator="mle", reps=199, seed=1) == 0.845
        assert permutation_test(x, y, dx, dy, estimator="unbiased", reps=199,
                                seed=1) == 0.855

    def test_too_few_replicates(self):
        with pytest.raises(InsufficientReplicatesError):
            permutation_test([0, 1], [0, 1], DM2, DM2, reps=50, seed=0)

    def test_negative_seed(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            permutation_test([0, 1, 0, 1], [0, 1, 1, 0], DM2, DM2, reps=99, seed=-1)

    @pytest.mark.parametrize("reps", [150.0, 1.5, "199"])
    def test_non_integral_replicates(self, reps):
        with pytest.raises(ConfigurationError, match="replicates must be an integer, got"):
            permutation_test([0, 1, 0, 1], [0, 1, 1, 0], DM2, DM2, reps=reps, seed=0)

    def test_numpy_integer_replicates(self):
        rng = np.random.default_rng(53)
        x = rng.integers(0, 3, size=80)
        y = rng.integers(0, 4, size=80)
        dx = distance_matrix(one_hot(3))
        dy = distance_matrix(ordinal_equal(4))
        assert permutation_test(x, y, dx, dy, estimator="mle", reps=np.int64(199),
                                seed=1) == 0.845

    @pytest.mark.parametrize("x, y", [
        (np.array([0.0, 1.0, 0.0, 1.0]), [0, 1, 1, 0]),
        ([0, 1, 0, 1], np.array([0.0, 1.0, 1.0, 0.0])),
        (np.array([0, 1, 0, 1], dtype=object), [0, 1, 1, 0]),
    ], ids=["float-x", "float-y", "object-x"])
    def test_non_integer_codes(self, x, y):
        with pytest.raises(ShapeError, match="codes must be integers, got dtype"):
            permutation_test(x, y, DM2, DM2, reps=99, seed=0)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64])
    def test_unsigned_codes_match_int64(self, dtype):
        rng = np.random.default_rng(530)
        x, y = rng.integers(0, 3, 60), rng.integers(0, 4, 60)
        dx, dy = distance_matrix(one_hot(3)), distance_matrix(ordinal_equal(4))
        expected = permutation_test(x, y, dx, dy, reps=199, seed=5)
        assert permutation_test(x.astype(dtype), y.astype(dtype), dx, dy,
                                reps=199, seed=5) == expected

    def test_agrees_with_analytic_on_null(self):
        diffs = []
        dx = distance_matrix(one_hot(3))
        dy = distance_matrix(one_hot(4))
        for k in range(8):
            rng = np.random.default_rng((520, k))
            x = rng.choice(3, 200, p=[0.5, 0.3, 0.2])
            y = rng.choice(4, 200, p=[0.4, 0.3, 0.2, 0.1])
            t = JointTable.from_codes(x, y, 3, 4)
            pa = null_pvalue_unbiased(t, dx, dy)
            pp = permutation_test(x, y, dx, dy, estimator="unbiased",
                                  reps=999, seed=k)
            diffs.append(abs(pa - pp))
        assert np.mean(diffs) < 0.03


class TestFixedMarginPermutation:
    """Replicates drawn in shared blocks and scored by the batched kernel keep every p-value."""

    @pytest.mark.parametrize("kind", [one_hot, ordinal_equal, semicircle_equal])
    def test_matches_old_loop_exactly(self, kind):
        dx = distance_matrix(kind(4))
        dy = distance_matrix(kind(3))
        all_ties = 0
        for seed in range(4):
            rng = np.random.default_rng((540, seed))
            n = 15
            y = np.repeat(np.arange(3), n // 3)  # balanced 3-level response
            x = np.where(rng.random(n) < 0.5, y, rng.integers(0, 4, size=n))
            table = JointTable.from_codes(x, y, 4, 3)
            observed = {"mle": dcor2_mle(table, dx, dy),
                        "unbiased": dcor2_unbiased(table, dx, dy)}
            expected, ties = ref.permutation_pvalues(x, y, dx, dy, observed, 199, seed)
            all_ties += ties
            got = inference._permutation_pvalues(y, dy, [(x, dx, observed)], 199, seed)
            assert got == [expected]
            for estimator in ("mle", "unbiased"):
                assert permutation_test(x, y, dx, dy, estimator=estimator, reps=199,
                                        seed=seed) == expected[estimator]
        assert all_ties > 0

    @pytest.mark.parametrize("reps", [99, 128, 129, 257])
    def test_shared_blocks_match_old_loop(self, reps):
        # Replicate counts on either side of the 128-replicate block edge;
        # three variables of different sizes and encodings share each block.
        rng = np.random.default_rng((541, reps))
        n = 24
        y = np.repeat(np.arange(4), n // 4)
        dy = distance_matrix(ordinal_equal(4))
        variables = []
        expected = []
        all_ties = 0
        for kind, levels in ((one_hot, 2), (semicircle_equal, 3), (ordinal_equal, 5)):
            dx = distance_matrix(kind(levels))
            x = np.where(rng.random(n) < 0.4, y % levels, rng.integers(0, levels, size=n))
            table = JointTable.from_codes(x, y, levels, 4)
            observed = {"mle": dcor2_mle(table, dx, dy),
                        "unbiased": dcor2_unbiased(table, dx, dy)}
            variables.append((x, dx, observed))
            p_values, ties = ref.permutation_pvalues(x, y, dx, dy, observed, reps, 3)
            expected.append(p_values)
            all_ties += ties
        assert inference._permutation_pvalues(y, dy, variables, reps, 3) == expected
        for (x, dx, _), p_values in zip(variables, expected):
            assert permutation_test(x, y, dx, dy, estimator="mle", reps=reps,
                                    seed=3) == p_values["mle"]
        assert all_ties > 0


class TestKeyedDraws:
    """The replicate keys computed on arrays give ``default_rng((seed, r)).permutation(y)``."""

    @staticmethod
    def check_rows(y, seed, reps, chunk):
        chunks = [inference._keyed_draws(y, seed, s, min(s + chunk, reps))
                  for s in range(0, reps, chunk)]
        assert all(c.dtype == np.uint8 for c in chunks)
        expected = [np.random.default_rng((seed, r)).permutation(y) for r in range(reps)]
        np.testing.assert_array_equal(np.concatenate(chunks), np.stack(expected))

    # 2**64 + 3 has three 32-bit words, so (seed, r) fills the pool of four;
    # 2**100 + 1 has four, so r goes through SeedSequence's extra mixing loop.
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 1,
                                      True, np.int64(5), (3, 4)], ids=repr)
    @pytest.mark.parametrize("n", [1, 2, 500])
    @pytest.mark.parametrize("dtype", [np.int64, np.int8])
    def test_rows_match_default_rng(self, seed, n, dtype):
        y = np.random.default_rng((560, n)).integers(0, 4, n).astype(dtype)
        self.check_rows(y, seed, 99, 64)

    @pytest.mark.parametrize("reps", [99, 128, 129, inference._CELLS // 500 + 1])
    def test_chunk_edges(self, reps):
        # The chunk _permutation_pvalues takes for 500 rows and small tables.
        y = np.random.default_rng(561).integers(0, 3, 500)
        self.check_rows(y, 7, reps, inference._CELLS // 500)

    def test_replicate_index_is_one_word(self):
        # Replicate indices stop below 2**32; the bound is checked before
        # anything is drawn.
        inference._require_replicates(2**32)
        with pytest.raises(ConfigurationError, match=r"at most 2\*\*32"):
            inference._require_replicates(2**32 + 1)
        with pytest.raises(ConfigurationError, match=r"at most 2\*\*32"):
            permutation_test([0, 1, 0, 1], [0, 1, 1, 0], DM2, DM2, reps=2**32 + 1, seed=0)


class TestStackedScoring:
    """``catdcor test`` scores both estimators in one call per group and rescores few replicates."""

    @pytest.mark.parametrize("pvalue", ["analytic", "permutation"])
    def test_one_scorer_call_per_block(self, monkeypatch, pvalue):
        # One scorer call per encoding group; its table-sized steps, and the
        # intervals' variances, take blocks of at most 128 tables.
        rng = np.random.default_rng(41)
        n = 400
        x = np.column_stack([rng.integers(0, 3, (n, 300)), rng.integers(0, 4, (n, 5))])
        y = rng.integers(0, 3, n)
        dists = [distance_matrix(one_hot(3))] * 300 + [distance_matrix(ordinal_equal(4))] * 5
        calls = []
        score_pairs = inference._score_pairs

        def counting_score_pairs(counts, n, pairs):
            calls.append((len(counts), [pair[2] for pair in pairs]))
            return score_pairs(counts, n, pairs)

        monkeypatch.setattr(inference, "_score_pairs", counting_score_pairs)
        stacks = {}
        for module, name in [(catdcor.measures, "_centered"), (catdcor.measures, "_dcov2_many"),
                             (inference, "_alt_many")]:
            def counting(tables, *args, kernel=getattr(module, name),
                         sizes=stacks.setdefault(name, [])):
                sizes.append(len(tables))
                return kernel(tables, *args)

            monkeypatch.setattr(module, name, counting)
        reports = inference._test_many(x, y, dists, distance_matrix(one_hot(3)), "unbiased",
                                       pvalue, 99, 0)
        # The group of 300 variables sharing one matrix, then the 5 sharing
        # the other; blocks of 128, 128 and 44 tables, then 5.  Permutation
        # p-values rescore only replicates near the observed value: at most
        # one call per variable for the single chunk of 99 replicates, each
        # with fewer tables than the chunk.
        assert calls[:2] == [(300, ["unbiased", "mle"]), (5, ["unbiased", "mle"])]
        blocks = [128, 128, 44, 5]
        assert stacks["_centered"][:4] == blocks
        assert stacks["_dcov2_many"][:8] == [size for size in blocks for _ in range(2)]
        assert stacks["_alt_many"] == blocks
        assert max(size for sizes in stacks.values() for size in sizes) <= 128
        if pvalue == "permutation":
            assert 0 < len(calls) - 2 <= 305
            assert all(0 < size < 99 and kinds == ["unbiased", "mle"] for size, kinds in calls[2:])
            assert len(stacks["_centered"]) == len(calls) + 2
        else:
            assert len(calls) == 2
            assert len(stacks["_centered"]) == 4 and len(stacks["_dcov2_many"]) == 8
        assert {r["method"] for r in reports} == {"imhof" if pvalue == "analytic" else pvalue}


class TestPermutationMemory:
    """Chunked draws and chunk-wide scoring keep the traced peak of the blocked loop."""

    @staticmethod
    def traced(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    # wide_response has small n and wide tables: a chunk must not hold
    # more table cells than the blocked loop's 128 replicates, and its 299
    # replicates take three chunks.  At n = 200 the blocked loop's (n, 128)
    # index no longer hides a table-sized allocation: a (IJ)^2 Kronecker
    # matrix (2.9 MB at I = 60, J = 10) fails wide_table_small_n.  The
    # binary variables of grouped_variables form 134 runs against an 8-level
    # response: an index held per run (62 times the blocked peak) or every
    # variable's chunk tables at once (2.9 times) fails.
    @pytest.mark.parametrize("n, p, levels, response, reps",
                             [(50_000, 3, 4, 3, 99), (2_000, 400, 10, 3, 99),
                              (100, 64, 2, 50, 299), (200, 2, 60, 10, 99),
                              (2_000, 400, 2, 8, 199)],
                             ids=["large_n", "many_variables", "wide_response",
                                  "wide_table_small_n", "grouped_variables"])
    def test_peak_within_blocked_loop(self, n, p, levels, response, reps):
        rng = np.random.default_rng((570, n))
        y = rng.integers(0, response, n)
        dx = distance_matrix(one_hot(levels))
        dy = distance_matrix(ordinal_equal(response))
        variables = []
        for _ in range(p):
            x = rng.integers(0, levels, n)
            table = JointTable.from_codes(x, y, levels, response)
            variables.append((x, dx, {"mle": dcor2_mle(table, dx, dy),
                                      "unbiased": dcor2_unbiased(table, dx, dy)}))
        for fn in (inference._permutation_pvalues, ref.blocked_permutation_pvalues):
            fn(y, dy, variables[:1], 99, 0)  # first-call allocations are not counted
        got, peak = self.traced(inference._permutation_pvalues, y, dy, variables, reps, 1)
        expected, blocked_peak = self.traced(ref.blocked_permutation_pvalues,
                                             y, dy, variables, reps, 1)
        assert got == expected
        assert peak <= 1.5 * blocked_peak


class TestFixedMarginSums:
    """Replicates decided by their two fixed-margin sums keep the full kernel's every count.

    Each case is compared with the replicate-by-replicate reference loop.
    """

    @staticmethod
    def check(x, y, dx, dy, reps=199, seed=0):
        """The p-values of ``_permutation_pvalues``, equal to the reference loop's; and its ties."""
        table = JointTable.from_codes(x, y, dx.n_categories, dy.n_categories)
        observed = {"mle": dcor2_mle(table, dx, dy), "unbiased": dcor2_unbiased(table, dx, dy)}
        expected, ties = ref.permutation_pvalues(x, y, dx, dy, observed, reps, seed)
        assert inference._permutation_pvalues(y, dy, [(x, dx, observed)], reps, seed) == [expected]
        return expected, ties

    @staticmethod
    def rescored(monkeypatch):
        """The stack sizes ``_permutation_pvalues`` passes to ``_score_pairs`` from now on."""
        sizes = []
        score_pairs = inference._score_pairs

        def counting_score_pairs(counts, n, pairs):
            sizes.append(len(counts))
            return score_pairs(counts, n, pairs)

        monkeypatch.setattr(inference, "_score_pairs", counting_score_pairs)
        return sizes

    @pytest.mark.parametrize("kind", [one_hot, ordinal_equal, semicircle_equal])
    def test_sums_match_reference(self, kind):
        rng = np.random.default_rng(580)
        x, y = rng.integers(0, 4, 60), rng.integers(0, 3, 60)
        dx, dy = distance_matrix(kind(4)), distance_matrix(kind(3))
        tables = np.stack([ref.crosstab(x, rng.permutation(y), 4, 3) for _ in range(20)])
        t1, t2 = inference._fixed_margin_sums(tables, dx.d, dy.d)
        expected = np.array([ref.t_stats(t, dx, dy)[:2] for t in tables])
        assert_allclose(t1, expected[:, 0], rtol=1e-12)
        assert_allclose(t2, expected[:, 1], rtol=1e-12)

    def test_band_of_everything_rescores_every_replicate(self, monkeypatch):
        rng = np.random.default_rng(581)
        y = rng.integers(0, 3, 60)
        x = np.where(rng.random(60) < 0.3, y, rng.integers(0, 3, 60))
        dx, dy = distance_matrix(one_hot(3)), distance_matrix(ordinal_equal(3))
        narrow = self.check(x, y, dx, dy, reps=257)
        sizes = self.rescored(monkeypatch)
        monkeypatch.setattr(inference, "_BAND", np.inf)
        assert self.check(x, y, dx, dy, reps=257) == narrow
        assert sum(sizes) == 257

    def test_exact_ties(self, monkeypatch):
        # A binary variable against a binary response: a replicate table is
        # fixed by one cell, so many replicates tie the observed table.
        rng = np.random.default_rng(582)
        y = np.repeat([0, 1], 20)
        x = np.where(rng.random(40) < 0.6, y, 1 - y)
        sizes = self.rescored(monkeypatch)
        _, ties = self.check(x, y, DM2, DM2)
        assert ties > 0
        assert 0 < sum(sizes) < 199

    def test_clamped_plugin_estimate_of_zero(self, monkeypatch):
        # The balanced 2 x 2 of test_observed_ranked_last_gives_one: the
        # plug-in estimate is clamped at 0, so every replicate is rescored
        # and ranks at or above it.
        x, y = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        assert dcor2_mle(JointTable.from_codes(x, y, 2, 2), DM2, DM2) == 0.0
        sizes = self.rescored(monkeypatch)
        p_values, _ = self.check(x, y, DM2, DM2)
        assert p_values["mle"] == 1.0
        assert sum(sizes) == 199

    @pytest.mark.parametrize("kind", [one_hot, semicircle_equal])
    def test_two_by_two(self, kind):
        rng = np.random.default_rng(583)
        y = rng.integers(0, 2, 50)
        x = np.where(rng.random(50) < 0.4, y, rng.integers(0, 2, 50))
        d = distance_matrix(kind(2))
        self.check(x, y, d, d)

    def test_response_with_zero_count_category(self):
        # The response declares four levels and never takes level 2: its
        # null spectrum drops the category, and its replicate tables keep
        # an empty column.
        rng = np.random.default_rng(584)
        y = rng.choice([0, 1, 3], 80)
        x = np.where(rng.random(80) < 0.3, y % 3, rng.integers(0, 3, 80))
        dx, dy = distance_matrix(ordinal_equal(3)), distance_matrix(semicircle_equal(4))
        expected, _ = self.check(x, y, dx, dy)
        with pytest.warns(RuntimeWarning, match="dropping 1 zero-count category"):
            (entry,) = inference._test_many(x[:, None], y, [dx], dy, "mle", "permutation",
                                            199, 0)
        assert entry["p_values"] == expected

    # A form over kron(dX, dY) would hold (IJ)^2 cells a variable: 2.9 MB at
    # I = 60, under this rule's slack, and 32 MB at I = 200, 3.5 times the
    # blocked loop's peak.
    @pytest.mark.parametrize("levels", [60, 200])
    def test_wide_tables_peak_within_blocked_loop(self, levels):
        rng = np.random.default_rng((585, levels))
        n, reps = 2_000, 199
        y = rng.integers(0, 10, n)
        dx, dy = distance_matrix(ordinal_equal(levels)), distance_matrix(one_hot(10))
        variables = []
        for _ in range(2):
            x = rng.integers(0, levels, n)
            table = JointTable.from_codes(x, y, levels, 10)
            variables.append((x, dx, {"mle": dcor2_mle(table, dx, dy),
                                      "unbiased": dcor2_unbiased(table, dx, dy)}))
        for fn in (inference._permutation_pvalues, ref.blocked_permutation_pvalues):
            fn(y, dy, variables[:1], 99, 0)  # first-call allocations are not counted
        traced = TestPermutationMemory.traced
        got, peak = traced(inference._permutation_pvalues, y, dy, variables, reps, 1)
        expected, blocked_peak = traced(ref.blocked_permutation_pvalues,
                                        y, dy, variables, reps, 1)
        assert got == expected
        assert peak <= 1.5 * blocked_peak


class TestAltInference:
    def test_independence_gives_zero(self):
        p = JointDistribution.independent([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])
        dx = distance_matrix(semicircle_equal(3))
        dy = distance_matrix(one_hot(3))
        info = alt_inference(p, dx, dy)
        assert np.abs(info.dprime).max() < 1e-12
        assert info.asymp_var < 1e-12

    def test_sigma_two_by_two_uniform(self):
        p = JointDistribution.independent([0.5, 0.5], [0.5, 0.5])
        info = alt_inference(p, DM2, DM2)
        assert_allclose(np.diag(info.sigma), 0.25 * 0.75)
        off = info.sigma[~np.eye(4, dtype=bool)]
        assert_allclose(off, -0.0625)

    def test_sigma_rows_sum_to_zero_and_psd(self):
        rng = np.random.default_rng(53)
        pi = rng.dirichlet(np.ones(12)).reshape(3, 4)
        info = alt_inference(JointDistribution(pi),
                             distance_matrix(one_hot(3)),
                             distance_matrix(ordinal_equal(4)))
        assert np.abs(info.sigma.sum(axis=1)).max() < 1e-10
        assert np.linalg.eigvalsh(info.sigma).min() > -1e-12

    def test_dprime_is_half_gradient(self):
        # central finite differences on the raw covariance functional
        rng = np.random.default_rng(54)
        pi = rng.dirichlet(np.ones(9)).reshape(3, 3)
        dx = distance_matrix(semicircle_equal(3))
        dy = distance_matrix(one_hot(3))
        info = alt_inference(JointDistribution(pi), dx, dy)

        def raw_dcov2(table):
            delta = table - np.outer(table.sum(1), table.sum(0))
            return float(np.sum(delta * (dx.d @ delta @ dy.d)))

        h = 1e-6
        for i in range(3):
            for j in range(3):
                up = pi.copy()
                up[i, j] += h
                down = pi.copy()
                down[i, j] -= h
                numeric = (raw_dcov2(up) - raw_dcov2(down)) / (2.0 * h)
                assert abs(numeric / 2.0 - info.dprime[i, j]) < 1e-7

    def test_asymp_var_matches_numeric_gradient(self):
        rng = np.random.default_rng(55)
        pi = rng.dirichlet(np.ones(9)).reshape(3, 3)
        dx = distance_matrix(ordinal_equal(3))
        dy = distance_matrix(semicircle_equal(3))
        info = alt_inference(JointDistribution(pi), dx, dy)

        def raw_dcor2(table):
            row, col = table.sum(1), table.sum(0)
            dbx, dby = dx.d @ row, dy.d @ col
            var_x = float(row @ ((dx.d - dbx[:, None]) * (dx.d - dbx[None, :])) @ row)
            var_y = float(col @ ((dy.d - dby[:, None]) * (dy.d - dby[None, :])) @ col)
            delta = table - np.outer(row, col)
            cov = float(np.sum(delta * (dx.d @ delta @ dy.d)))
            return cov / np.sqrt(var_x * var_y)

        h = 1e-6
        grad = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                up = pi.copy()
                up[i, j] += h
                down = pi.copy()
                down[i, j] -= h
                grad[i, j] = (raw_dcor2(up) - raw_dcor2(down)) / (2.0 * h)
        numeric_var = grad.ravel() @ info.sigma @ grad.ravel()
        assert abs(numeric_var - info.asymp_var) < 1e-6

    def test_variance_matches_monte_carlo(self):
        rng = np.random.default_rng(56)
        pi = np.array([[0.20, 0.05, 0.05],
                       [0.05, 0.20, 0.05],
                       [0.05, 0.05, 0.30]])
        p = JointDistribution(pi)
        dx = distance_matrix(semicircle_equal(3))
        dy = distance_matrix(one_hot(3))
        info = alt_inference(p, dx, dy)
        n, reps = 2000, 1500
        values = np.empty(reps)
        for r in range(reps):
            counts = rng.multinomial(n, pi.ravel()).reshape(3, 3).astype(float)
            values[r] = dcor2_mle(JointTable(counts), dx, dy)
        empirical = n * values.var(ddof=1)
        assert abs(empirical - info.asymp_var) < 0.2 * info.asymp_var


class TestConfidenceInterval:
    @staticmethod
    def _table(rng, pi, n):
        return JointTable(rng.multinomial(n, pi.ravel())
                          .reshape(pi.shape).astype(float))

    PI = np.array([[0.20, 0.05, 0.05],
                   [0.05, 0.20, 0.05],
                   [0.05, 0.05, 0.30]])

    def test_contains_point_estimate(self):
        rng = np.random.default_rng(57)
        t = self._table(rng, self.PI, 2000)
        dx = dy = distance_matrix(one_hot(3))
        lo, hi = confidence_interval(t, dx, dy, level=0.95, estimator="mle")
        point = dcor2_mle(t, dx, dy)
        assert lo <= point <= hi
        assert 0.0 <= lo and hi <= 1.0

    def test_width_shrinks_like_root_n(self):
        dx = dy = distance_matrix(one_hot(3))
        widths = {}
        for n in (2000, 8000):
            t = JointTable(n * self.PI)  # deterministic fractional counts
            lo, hi = confidence_interval(t, dx, dy, level=0.95, estimator="mle")
            widths[n] = hi - lo
        assert_allclose(widths[2000] / widths[8000], 2.0, rtol=0.01)

    def test_coverage(self):
        dx = distance_matrix(semicircle_equal(3))
        dy = distance_matrix(one_hot(3))
        target = dcor2(JointDistribution(self.PI), dx, dy)
        n, reps, covered = 2000, 300, 0
        for k in range(reps):
            rng = np.random.default_rng((570, k))
            t = self._table(rng, self.PI, n)
            lo, hi = confidence_interval(t, dx, dy, level=0.9, estimator="mle")
            covered += lo <= target <= hi
        assert 0.84 <= covered / reps <= 0.96

    def test_unbiased_variant_not_clipped(self):
        rng = np.random.default_rng(58)
        pi0 = np.outer([0.4, 0.3, 0.3], [0.4, 0.3, 0.3])
        t = self._table(rng, pi0, 50)
        dx = dy = distance_matrix(one_hot(3))
        lo, hi = confidence_interval(t, dx, dy, level=0.95, estimator="unbiased")
        assert lo <= hi  # may extend below zero near independence

    @pytest.mark.parametrize("level", [0.8, 0.9, 0.95, 0.99])
    def test_quantile_matches_normal_ppf(self, level, monkeypatch):
        # Unit standard error and a zero estimate make the unclipped
        # interval exactly (-z, z).
        t = JointTable(400 * self.PI)
        monkeypatch.setattr(inference, "_statistic", lambda *args: 0.0)
        monkeypatch.setattr(inference, "alt_inference",
                            lambda *args: inference.AltInference(None, None, t.n))
        dx = dy = distance_matrix(one_hot(3))
        lo, hi = confidence_interval(t, dx, dy, level=level, estimator="unbiased")
        z = norm.ppf(0.5 * (1.0 + level))
        assert lo == -hi
        # statistics.NormalDist().inv_cdf is within 3 ulps of a 40-digit value
        # here (3 at level 0.9, where scipy is exact).
        assert abs(hi - z) <= 4 * math.ulp(z)

    def test_bad_level_rejected(self):
        t = JointTable(np.full((2, 2), 5.0))
        with pytest.raises(ValueError):
            confidence_interval(t, DM2, DM2, level=1.5)


class TestEstimatorName:
    TABLE = JointTable(np.array([[6.0, 2.0], [3.0, 7.0]]))
    CODES = np.array([0, 0, 1, 1, 0, 1, 0, 1])

    @pytest.mark.parametrize("call", [
        lambda t, x: independence_test(t, DM2, DM2, estimator="plug-in"),
        lambda t, x: permutation_test(x, x[::-1], DM2, DM2, estimator="plug-in"),
        lambda t, x: confidence_interval(t, DM2, DM2, estimator="plug-in"),
    ], ids=["independence_test", "permutation_test", "confidence_interval"])
    def test_unknown_estimator_is_configuration_error(self, call):
        with pytest.raises(ConfigurationError, match="estimator must be 'mle' or 'unbiased'"):
            call(self.TABLE, self.CODES)


def relative_gap(got, expected):
    return 0.0 if got == expected else abs(got - expected) / abs(expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStackedTails:
    """Tails evaluated in stacks against the one-at-a-time contour they replaced."""

    def test_pins_as_stacks_match_scalar_reference(self):
        pins = tail_fuzz.load_pins()
        seen = 0
        for k, stack in tail_fuzz.cases_by_k():
            got = inference._tails([(w, q - w.sum()) for _, _, w, q in stack])
            for (index, pattern, w, q), p in zip(stack, got):
                expected = tails.scalar_chisq_sf(w, q - w.sum())
                assert relative_gap(p, expected) <= 1e-13, (k, pattern, index)
                if pins[index]["exact"] is not None:
                    assert abs(p - pins[index]["exact"]) <= 1e-12
                seen += 1
        assert seen == len(pins) == 450

    def test_a_tail_does_not_depend_on_its_stack(self):
        stacks = [[(w, q - w.sum()) for _, _, w, q in stack]
                  for _, stack in tail_fuzz.cases_by_k()]
        mixed = [case for stack in stacks for case in stack]
        mixed = mixed[1::2] + mixed[::2]  # other neighbours, other row positions
        alone = [weighted_chisq_sf(w, x) for w, x in mixed]
        assert inference._tails(mixed) == alone

    @pytest.mark.parametrize("seed", [7, 21])
    def test_analytic_workload_tails_match_scalar_reference(self, tmp_path, seed, monkeypatch):
        captured = []
        stacked = inference._tails

        def recording(cases):
            captured.extend(cases)
            return stacked(cases)

        monkeypatch.setattr(inference, "_tails", recording)
        argv = perfbench_workload("test_analytic", seed, tmp_path)
        assert catdcor.cli.main(argv + ["--out", str(tmp_path / "out.json")]) == 0
        assert len(captured) == 80
        assert len({len(w) for w, _ in captured}) == 9  # one stack per weight count
        for (w, x), p in zip(captured, stacked(captured)):
            assert relative_gap(p, tails.scalar_chisq_sf(w, x)) <= 1e-13

    @pytest.mark.parametrize("limit, value, index", [
        ("_SP_V_MAX", inference._SP_V, 15),  # no range doublings: the integrand has not decayed
        ("_SP_MAX_HALVINGS", 1, 17),  # one estimate only: the halvings do not converge
    ])
    def test_failing_row_fails_alone(self, monkeypatch, limit, value, index):
        _, weights, quantile = list(tail_fuzz.cases())[index]  # mixed signs, K = 3
        cases = [([1.0, 0.6, 0.3], -0.5), (weights, quantile - weights.sum()),
                 ([1.0, 0.9, 0.8], 2.0)]
        monkeypatch.setattr(inference, limit, value)
        got = inference._tails(cases)
        assert isinstance(got[1], InternalConsistencyError)
        assert [got[0], got[2]] == [weighted_chisq_sf(w, x) for w, x in cases[::2]]
        with pytest.raises(InternalConsistencyError, match="did not converge for weights"):
            weighted_chisq_sf(*cases[1])


def dense_table(rng, n_rows, n_cols):
    """Seeded counts of a random table, every margin observed, as proportions."""
    while True:
        pi = rng.dirichlet(np.ones(n_rows * n_cols))
        counts = rng.multinomial(int(rng.integers(200, 5000)), pi).reshape(n_rows, n_cols)
        if counts.sum(axis=1).all() and counts.sum(axis=0).all():
            return counts / counts.sum()


class TestStackedInterval:
    ENCODINGS = (one_hot, ordinal_equal, semicircle_equal)

    def test_variance_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(171)
        for n_rows in range(2, 12):
            for n_cols in range(2, 12):
                make_x, make_y = (self.ENCODINGS[i] for i in rng.integers(0, 3, 2))
                dx, dy = distance_matrix(make_x(n_rows)), distance_matrix(make_y(n_cols))
                stack = np.array([dense_table(rng, n_rows, n_cols) for _ in range(3)])
                variances = inference._alt_many(stack, dx, dy)[1]
                for pi, variance in zip(stack, variances):
                    assert relative_gap(variance, ref.asymp_var_dense(pi, dx, dy)) <= 1e-13
                    # alt_inference is a stack of one of the same kernel.
                    info = alt_inference(JointDistribution(pi), dx, dy)
                    assert info.asymp_var == variance

    def test_degenerate_table_is_nan_without_warnings(self):
        dx = distance_matrix(one_hot(3))
        stack = np.array([[[0.5, 0.5], [0.0, 0.0], [0.0, 0.0]],
                          [[0.2, 0.1], [0.1, 0.3], [0.2, 0.1]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            variances = inference._alt_many(stack, dx, DM2)[1]
        assert np.isnan(variances[0]) and variances[1] > 0.0
        with pytest.raises(DegenerateMarginError, match="distance variance is zero"):
            alt_inference(JointDistribution(stack[0]), dx, DM2)

    def test_sigma_is_built_when_read(self):
        info = alt_inference(JointDistribution(np.full((2, 3), 1.0 / 6.0)),
                             DM2, distance_matrix(one_hot(3)))
        assert "sigma" not in vars(info)
        assert info.sigma.shape == (6, 6)

    def test_interval_of_a_thousand_level_table(self):
        # One-hot rows of 1000 levels: the dense covariance would be an
        # (IJ)^2 = 10^8-entry matrix, 800 MB.
        import tracemalloc

        rng = np.random.default_rng(172)
        x = rng.integers(0, 1000, 20000)
        y = (x + rng.integers(0, 3, x.size)) % 10
        dx, dy = distance_matrix(one_hot(1000)), distance_matrix(one_hot(10))
        table = JointTable.from_codes(x, y, 1000, 10)
        tracemalloc.start()
        try:
            lo, hi = confidence_interval(table, dx, dy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 <= lo < dcor2_mle(table, dx, dy) < hi <= 1.0
        assert peak < 100e6


class TestGroupedTabulation:
    """Runs of variables tabulated from one joint code keep every table and every p-value.

    Each case is compared with the replicate-by-replicate reference loop.
    """

    @staticmethod
    def variables(rng, y, dy, kinds_levels, dtype=None):
        """``(x, dx, observed)`` per ``(kind, levels)``, x drawn partly from ``y``."""
        variables = []
        for kind, levels in kinds_levels:
            x = np.where(rng.random(len(y)) < 0.4, y % levels,
                         rng.integers(0, levels, len(y)))
            x = x.astype(dtype) if dtype else x
            dx = distance_matrix(kind(levels))
            table = JointTable.from_codes(x, y, levels, dy.n_categories)
            variables.append((x, dx, {"mle": dcor2_mle(table, dx, dy),
                                      "unbiased": dcor2_unbiased(table, dx, dy)}))
        return variables

    @staticmethod
    def check(y, dy, variables, reps=199, seed=0):
        """The p-values of ``_permutation_pvalues``, equal to the reference loop's; the ties."""
        expected, all_ties = [], 0
        for x, dx, observed in variables:
            p_values, ties = ref.permutation_pvalues(x, y, dx, dy, observed, reps, seed)
            expected.append(p_values)
            all_ties += ties
        assert inference._permutation_pvalues(y, dy, variables, reps, seed) == expected
        return expected, all_ties

    @staticmethod
    def recorded_runs(monkeypatch):
        """The level counts of each run ``_grouped_tables`` tabulates from now on."""
        runs = []
        grouped_tables = inference._grouped_tables

        def recording(groups, cols, rows):
            runs.append([[dx.n_categories for _, dx, _ in group] for group in groups])
            return grouped_tables(groups, cols, rows)

        monkeypatch.setattr(inference, "_grouped_tables", recording)
        return runs

    def test_mixed_levels_form_runs(self, monkeypatch):
        # With a 3-level response the runs are [2, 3], [4, 5], [2, 2, 2, 2]
        # and [3]: at most 64 joint cells each.
        rng = np.random.default_rng(590)
        y = np.repeat(np.arange(3), 10)
        dy = distance_matrix(ordinal_equal(3))
        kinds = (one_hot, ordinal_equal, semicircle_equal)
        levels = (2, 3, 4, 5, 2, 2, 2, 2, 3)
        variables = self.variables(rng, y, dy, [(kinds[v % 3], k) for v, k in enumerate(levels)])
        runs = self.recorded_runs(monkeypatch)
        _, ties = self.check(y, dy, variables)
        assert ties > 0
        assert runs[0] == [[2, 3], [4, 5], [2, 2, 2, 2], [3]]

    def test_wide_variable_between_runs(self, monkeypatch):
        # 30 levels x 4 response levels is wider than _JOINT: a run of its own.
        rng = np.random.default_rng(591)
        y = rng.integers(0, 4, 90)
        dy = distance_matrix(semicircle_equal(4))
        variables = self.variables(rng, y, dy, [(one_hot, 2), (one_hot, 3), (ordinal_equal, 30),
                                                (semicircle_equal, 2), (one_hot, 4)])
        runs = self.recorded_runs(monkeypatch)
        self.check(y, dy, variables)
        assert runs[0] == [[2, 3], [30], [2, 4]]

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.uint64])
    def test_narrow_and_unsigned_codes(self, dtype):
        rng = np.random.default_rng(592)
        y = rng.integers(0, 3, 70)
        dy = distance_matrix(one_hot(3))
        levels = [(one_hot, 2), (ordinal_equal, 3), (semicircle_equal, 4)]
        variables = self.variables(rng, y, dy, levels)
        narrow = [(x.astype(dtype), dx, observed) for x, dx, observed in variables]
        expected, _ = self.check(y, dy, variables)
        assert inference._permutation_pvalues(y.astype(dtype), dy, narrow, 199, 0) == expected

    def test_response_of_300_levels(self):
        # The draws are uint16; every variable is wider than _JOINT alone.
        rng = np.random.default_rng(593)
        y = rng.permutation(np.arange(600) % 300)
        dy = distance_matrix(ordinal_equal(300))
        variables = self.variables(rng, y, dy, [(one_hot, 2), (ordinal_equal, 3)])
        assert inference._keyed_draws(y, 0, 0, 2).dtype == np.uint16
        self.check(y, dy, variables, reps=99)

    def test_chunks_with_short_last_block(self, monkeypatch):
        # At n = 20 a chunk is 128 replicates: 299 take chunks of 128, 128
        # and 43, the last a short block.
        rng = np.random.default_rng(594)
        y = np.repeat(np.arange(2), 10)
        variables = self.variables(rng, y, DM2, [(one_hot, 2), (ordinal_equal, 3),
                                                 (one_hot, 2), (semicircle_equal, 4)])
        runs = self.recorded_runs(monkeypatch)
        _, ties = self.check(y, DM2, variables, reps=299)
        assert ties > 0
        assert len(runs) == 1 + 3  # the unpermuted tables, then one call per chunk

    def test_every_variable_alone_gives_same_counts(self, monkeypatch):
        rng = np.random.default_rng(595)
        y = rng.integers(0, 3, 50)
        dy = distance_matrix(ordinal_equal(3))
        variables = self.variables(rng, y, dy, [(one_hot, 2), (one_hot, 3), (ordinal_equal, 2),
                                                (semicircle_equal, 5), (one_hot, 2)])
        grouped = inference._permutation_pvalues(y, dy, variables, 257, 4)
        runs = self.recorded_runs(monkeypatch)
        monkeypatch.setattr(inference, "_JOINT", 1)
        assert self.check(y, dy, variables, reps=257, seed=4)[0] == grouped
        assert runs[0] == [[2], [3], [2], [5], [2]]

    def test_tables_match_reference(self):
        rng = np.random.default_rng(596)
        n = 40
        y = rng.integers(0, 3, n)
        dy = distance_matrix(one_hot(3))
        variables = self.variables(rng, y, dy, [(one_hot, 2), (ordinal_equal, 3),
                                                (one_hot, 4), (ordinal_equal, 30)])
        drawn = inference._keyed_draws(y, 0, 0, 300)
        groups = [variables[:2], variables[2:3], variables[3:]]
        tables = list(inference._grouped_tables(groups, 3, drawn))
        assert len(tables) == len(variables)
        for (x, dx, _), got in zip(variables, tables):
            expected = ref.tabulate(x[:, None], drawn.T, dx.n_categories, 3)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)
