"""Tests for category encodings and rescaled distance matrices."""

import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from numpy.testing import assert_allclose

from catdcor import (
    CardinalityError,
    ConfigurationError,
    DegenerateEncodingError,
    ShapeError,
    custom,
    distance_matrix,
    encoding_for_kind,
    load_metadata,
    one_hot,
    ordinal_equal,
    parse_metadata,
    semicircle_equal,
)

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def raw_distances(encoding):
    pts = encoding.points
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


class TestOneHot:
    def test_points_are_standard_basis(self):
        enc = one_hot(3)
        assert_allclose(enc.points, np.eye(3))

    def test_two_categories_raw_distance(self):
        assert_allclose(raw_distances(one_hot(2))[0, 1], SQRT2)

    def test_all_pairs_equal_for_five(self):
        d = raw_distances(one_hot(5))
        off = d[~np.eye(5, dtype=bool)]
        assert_allclose(off, SQRT2)

    def test_cardinality_error(self):
        with pytest.raises(CardinalityError):
            one_hot(1)


class TestOrdinal:
    def test_points_are_integers(self):
        enc = ordinal_equal(3)
        assert_allclose(enc.points.ravel(), [1.0, 2.0, 3.0])

    def test_two_categories(self):
        assert_allclose(raw_distances(ordinal_equal(2))[0, 1], 1.0)

    def test_additive_chain(self):
        d = raw_distances(ordinal_equal(4))
        assert_allclose(d[0, 3], d[0, 1] + d[1, 2] + d[2, 3])
        assert_allclose(d[0, 3], 3.0)

    def test_cardinality_error(self):
        with pytest.raises(CardinalityError):
            ordinal_equal(0)


class TestSemicircle:
    def test_four_category_points(self):
        enc = semicircle_equal(4)
        expected = np.array([
            [1.0, 0.0],
            [0.5, SQRT3 / 2.0],
            [-0.5, SQRT3 / 2.0],
            [-1.0, 0.0],
        ])
        assert_allclose(enc.points, expected, atol=1e-15)

    def test_two_categories_are_endpoints(self):
        enc = semicircle_equal(2)
        assert_allclose(enc.points, [[1.0, 0.0], [-1.0, 0.0]], atol=1e-15)
        assert_allclose(raw_distances(enc)[0, 1], 2.0)

    def test_chord_lengths_for_four(self):
        # chord between categories i, k is 2 sin(|i-k| pi / 6)
        d = raw_distances(semicircle_equal(4))
        assert_allclose(d[0, 1], 2.0 * np.sin(np.pi / 6.0))
        assert_allclose(d[0, 2], SQRT3)
        assert_allclose(d[0, 3], 2.0)

    def test_strict_triangle_inequality(self):
        for size in (3, 4, 6, 9):
            d = raw_distances(semicircle_equal(size))
            for i in range(size):
                for m in range(i + 1, size):
                    for k in range(m + 1, size):
                        assert d[i, k] < d[i, m] + d[m, k]


class TestCustom:
    def test_severity_scale(self):
        enc = custom(["mild", "moderate", "severe"], [[1.0], [3.0], [6.0]])
        d = raw_distances(enc)
        assert_allclose(d[0, 1], 2.0)
        assert_allclose(d[1, 2], 3.0)

    def test_uneven_semicircle(self):
        enc = custom(["a", "b", "c"],
                     [[1.0, 0.0], [0.5, SQRT3 / 2.0], [-1.0, 0.0]])
        d = raw_distances(enc)
        assert d[0, 1] < d[1, 2]

    def test_duplicate_points_rejected(self):
        with pytest.raises(DegenerateEncodingError):
            custom(["a", "b"], [[1.0, 0.0], [1.0, 0.0]])

    def test_underflowing_squared_distance_rejected(self):
        with pytest.raises(DegenerateEncodingError, match="pairwise distinct"):
            custom(["a", "b"], [[0.0], [1e-200]])
        with pytest.raises(DegenerateEncodingError, match="pairwise distinct"):
            custom(["a", "b", "c"], [[1.0, 2.0], [0.0, 5.0], [1.0, 2.0]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises((ShapeError, ValueError)):
            custom(["a", "b"], [[1.0, 0.0], [1.0]])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            custom(["a", "a"], [[0.0], [1.0]])


class TestDistanceMatrix:
    def test_one_hot_is_zero_one(self):
        dm = distance_matrix(one_hot(3))
        assert_allclose(dm.d, np.ones((3, 3)) - np.eye(3))
        assert_allclose(dm.scale, SQRT2)

    def test_ordinal_three(self):
        dm = distance_matrix(ordinal_equal(3))
        assert_allclose(dm.d[0, 1], 0.5)
        assert_allclose(dm.d[1, 2], 0.5)
        assert_allclose(dm.d[0, 2], 1.0)
        assert_allclose(dm.scale, 2.0)

    def test_semicircle_four(self):
        dm = distance_matrix(semicircle_equal(4))
        assert_allclose(dm.d[0, 1], 0.5)
        assert_allclose(dm.d[0, 2], SQRT3 / 2.0)
        assert_allclose(dm.d[0, 3], 1.0)
        assert_allclose(dm.scale, 2.0)

    def test_max_entry_exactly_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            size = int(rng.integers(2, 9))
            enc = custom([str(i) for i in range(size)], rng.normal(size=(size, 3)))
            dm = distance_matrix(enc)
            assert dm.d.max() == 1.0

    def test_invariant_under_uniform_rescaling(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(5, 2))
        base = distance_matrix(custom(list("abcde"), pts))
        for c in (0.1, 3.0, 1e6):
            scaled = distance_matrix(custom(list("abcde"), c * pts))
            assert_allclose(scaled.d, base.d, atol=1e-12)

    def test_triangle_inequality_random_encodings(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            size = int(rng.integers(3, 7))
            enc = custom([str(i) for i in range(size)], rng.normal(size=(size, 4)))
            d = distance_matrix(enc).d
            for i in range(size):
                for m in range(size):
                    for k in range(size):
                        assert d[i, k] <= d[i, m] + d[m, k] + 1e-12

    @pytest.mark.parametrize("make", [one_hot, ordinal_equal, semicircle_equal],
                             ids=["one-hot", "ordinal", "semicircle"])
    def test_bit_identical_to_pairwise_differences(self, make):
        # The formula distance_matrix used for every encoding before one-hot
        # took its closed form: all differences, then the symmetric part.
        for size in range(2, 120):
            pts = make(size).points
            diff = pts[:, None, :] - pts[None, :, :]
            d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            d = 0.5 * (d + d.T)
            got = distance_matrix(make(size))
            assert got.scale == float(d.max())
            assert np.array_equal(got.d, d / d.max()), size

    def test_three_thousand_one_hot_levels(self):
        # Pairwise differences of 3000 one-hot points would take 201 GiB.
        script = textwrap.dedent("""
            import time
            from catdcor import distance_matrix, one_hot
            start = time.perf_counter()
            d = distance_matrix(one_hot(3000))
            seconds = time.perf_counter() - start
            peak = next(line for line in open("/proc/self/status") if line.startswith("VmHWM"))
            print(seconds, int(peak.split()[1]) / 1024, d.d.shape[0])
        """)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True).stdout.split()
        seconds, peak_mb, size = float(out[0]), float(out[1]), int(out[2])
        assert size == 3000
        assert seconds < 1.0
        assert peak_mb < 400.0

    def test_row_averages(self):
        dm = distance_matrix(ordinal_equal(3))
        avg = dm.row_averages([0.5, 0.25, 0.25])
        assert_allclose(avg, dm.d @ np.array([0.5, 0.25, 0.25]))

    def test_row_averages_shape_error(self):
        dm = distance_matrix(ordinal_equal(3))
        with pytest.raises(ShapeError):
            dm.row_averages([0.5, 0.5])

    def test_scaled_by(self):
        dm = distance_matrix(one_hot(3))
        doubled = dm.scaled_by(2.0)
        assert_allclose(doubled.d, 2.0 * dm.d)
        assert_allclose(doubled.scale, dm.scale / 2.0)


class TestMetadata:
    def test_round_trip(self, tmp_path):
        doc = [
            {"name": "color", "type": "nominal", "encoding": "onehot",
             "levels": ["red", "green", "blue"]},
            {"name": "grade", "type": "ordinal", "encoding": "semicircle",
             "levels": ["low", "mid", "high"]},
            {"name": "rank", "type": "ordinal", "encoding": "ordinal",
             "levels": ["1st", "2nd"]},
            {"name": "severity", "type": "ordinal", "encoding": "custom",
             "levels": ["mild", "moderate", "severe"],
             "points": [[1.0], [3.0], [6.0]]},
        ]
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(doc))
        encodings = load_metadata(str(path))
        assert list(encodings) == ["color", "grade", "rank", "severity"]
        assert encodings["color"].kind == "one-hot"
        assert encodings["grade"].kind == "semicircle"
        assert encodings["rank"].kind == "ordinal"
        assert_allclose(encodings["severity"].points.ravel(), [1.0, 3.0, 6.0])

    def test_variables_wrapper_accepted(self):
        doc = {"variables": [{"name": "x", "type": "nominal",
                              "encoding": "onehot", "levels": ["a", "b"]}]}
        assert "x" in parse_metadata(doc)

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_metadata([{"name": "x", "type": "nominal", "levels": ["a", "b"]}])

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_metadata([{"name": "x", "type": "nominal",
                             "encoding": "target", "levels": ["a", "b"]}])

    def test_custom_requires_points(self):
        with pytest.raises(ConfigurationError):
            parse_metadata([{"name": "x", "type": "ordinal",
                             "encoding": "custom", "levels": ["a", "b"]}])

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_metadata([{"name": "x", "type": "continuous",
                             "encoding": "onehot", "levels": ["a", "b"]}])

    def test_named_encodings_shared_by_kind_and_labels(self):
        entry = {"type": "nominal", "encoding": "onehot", "levels": ["a", "b", "c"]}
        doc = [dict(entry, name="x"), dict(entry, name="y"),
               dict(entry, name="z", levels=["a", "c", "b"]),
               dict(entry, name="w", encoding="ordinal"),
               dict(entry, name="v", encoding="custom", points=[[0.0], [1.0], [3.0]]),
               dict(entry, name="u", encoding="custom", points=[[0.0], [1.0], [3.0]])]
        enc = parse_metadata(doc)
        assert enc["x"] is enc["y"]
        assert enc["z"] is not enc["x"] and enc["z"].labels == ("a", "c", "b")
        assert enc["w"] is not enc["x"] and enc["w"].kind == "ordinal"
        assert enc["v"] is not enc["u"]

    def test_encoding_for_kind_unknown(self):
        with pytest.raises(ConfigurationError):
            encoding_for_kind("frequency", 3)
