"""End-to-end tests of the command-line interface.

Each subcommand is exercised through ``main`` with real files; outputs
must be byte-identical across repeated invocations and must agree with
direct library calls.
"""

import csv
import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from catdcor import (
    JointTable,
    confidence_interval,
    dcor2_mle,
    dcor2_unbiased,
    distance_matrix,
    independence_test,
    load_metadata,
    null_spectrum,
    permutation_test,
)
from catdcor.cli import Dataset, ingest, main
from catdcor.exceptions import ConfigurationError, LabelError, ParseError

META = [
    {"name": "grade", "type": "ordinal", "encoding": "semicircle",
     "levels": ["low", "mid", "high"]},
    {"name": "color", "type": "nominal", "encoding": "onehot",
     "levels": ["r", "g", "b"]},
    {"name": "size", "type": "ordinal", "encoding": "ordinal",
     "levels": ["s", "m", "l"]},
    {"name": "shape", "type": "nominal", "encoding": "onehot",
     "levels": ["o", "x"]},
    {"name": "tone", "type": "ordinal", "encoding": "semicircle",
     "levels": ["a", "b", "c"]},
]


def write_inputs(tmp_path, n=240, seed=0, missing_rows=0):
    rng = np.random.default_rng(seed)
    meta_path = tmp_path / "meta.json"
    meta_path.write_text(json.dumps(META))
    grade = rng.choice(["low", "mid", "high"], n, p=[0.3, 0.4, 0.3])
    coupled = {"low": "r", "mid": "g", "high": "b"}
    color = np.where(rng.random(n) < 0.75,
                     np.vectorize(coupled.get)(grade),
                     rng.choice(["r", "g", "b"], n))
    size = rng.choice(["s", "m", "l"], n)
    shape = rng.choice(["o", "x"], n)
    tone = rng.choice(["a", "b", "c"], n)
    rows = list(zip(grade, color, size, shape, tone))
    for k in range(missing_rows):
        row = list(rows[k])
        row[2] = ""
        rows[k] = tuple(row)
    csv_path = tmp_path / "data.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["grade", "color", "size", "shape", "tone"])
        writer.writerows(rows)
    return str(csv_path), str(meta_path)


class TestIngest:
    def test_basic(self, tmp_path):
        csv_path, meta_path = write_inputs(tmp_path, n=50)
        dataset, encodings = ingest(csv_path, meta_path)
        assert isinstance(dataset, Dataset)
        assert dataset.row_count == 50
        assert dataset.dropped_rows == 0
        assert dataset.codes.shape == (50, 5)
        assert set(encodings) == {"grade", "color", "size", "shape", "tone"}

    def test_missing_rows_dropped(self, tmp_path):
        csv_path, meta_path = write_inputs(tmp_path, n=50, missing_rows=3)
        dataset, _ = ingest(csv_path, meta_path)
        assert dataset.row_count == 47
        assert dataset.dropped_rows == 3

    def test_unknown_label_names_column_and_row(self, tmp_path):
        csv_path, meta_path = write_inputs(tmp_path, n=10)
        lines = open(csv_path).read().splitlines()
        parts = lines[4].split(",")
        parts[1] = "purple"
        lines[4] = ",".join(parts)
        open(csv_path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(LabelError) as err:
            ingest(csv_path, meta_path)
        assert "color" in str(err.value)
        assert "line 5" in str(err.value)

    def test_ragged_row_is_parse_error(self, tmp_path):
        csv_path, meta_path = write_inputs(tmp_path, n=10)
        with open(csv_path, "a") as fh:
            fh.write("low,r\n")
        with pytest.raises(ParseError) as err:
            ingest(csv_path, meta_path)
        assert "line 12" in str(err.value)

    def test_metadata_column_missing_from_csv(self, tmp_path):
        csv_path, meta_path = write_inputs(tmp_path, n=10)
        doc = json.loads(open(meta_path).read())
        doc.append({"name": "ghost", "type": "nominal", "encoding": "onehot",
                    "levels": ["u", "v"]})
        open(meta_path, "w").write(json.dumps(doc))
        with pytest.raises(ConfigurationError):
            ingest(csv_path, meta_path)


class TestEncodeCommand:
    def test_matrix_values(self, tmp_path, capsys):
        _, meta_path = write_inputs(tmp_path, n=5)
        assert main(["encode", "--metadata", meta_path]) == 0
        out = capsys.readouterr().out
        assert "# variable,color,kind,one-hot" in out
        # one-hot 3x3 row: zeros diagonal, ones elsewhere
        assert "r,0.0,1.0,1.0" in out
        # ordinal 3 levels: 0.5 then 1.0
        assert "s,0.0,0.5,1.0" in out
        # binary one-hot block
        assert "o,0.0,1.0" in out

    def test_semicircle_entries(self, tmp_path, capsys):
        _, meta_path = write_inputs(tmp_path, n=5)
        main(["encode", "--metadata", meta_path])
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("low,")][0]
        values = [float(v) for v in line.split(",")[1:]]
        assert_allclose(values, [0.0, np.sqrt(2.0) / 2.0, 1.0])


class TestTestCommand:
    def test_report_structure_and_power(self, tmp_path):
        csv_path, meta_path = write_inputs(tmp_path, n=300, missing_rows=2)
        out_path = str(tmp_path / "report.json")
        code = main(["test", "--input", csv_path, "--metadata", meta_path,
                     "--response", "grade", "--seed", "3",
                     "--out", out_path])
        assert code == 0
        report = json.loads(open(out_path).read())
        assert report["rows_dropped"] == 2
        by_var = {r["variable"]: r for r in report["results"]}
        assert set(by_var) == {"color", "size", "shape", "tone"}
        assert by_var["color"]["p_value"] < 1e-4      # coupled with grade
        assert by_var["size"]["p_value"] > 0.001      # independent noise
        levels = {"color": 3, "size": 3, "shape": 2, "tone": 3}
        for name, entry in by_var.items():
            assert {"mle", "unbiased"} <= set(entry["statistic"])
            assert {"mle", "unbiased"} == set(entry["p_values"])
            assert entry["p_value"] == entry["p_values"]["mle"]  # default kind
            assert entry["method"] in ("imhof", "moment-match", "permutation")
            assert len(entry["lambdas"]) == levels[name] - 1  # feature margin
            assert len(entry["mus"]) == 2  # grade response, 3 levels
            ci = entry["confidence_interval"]
            assert ci["lo"] <= ci["hi"]

    def test_permutation_method(self, tmp_path):
        csv_path, meta_path = write_inputs(tmp_path, n=120)
        out_path = str(tmp_path / "perm.json")
        code = main(["test", "--input", csv_path, "--metadata", meta_path,
                     "--response", "grade", "--pvalue", "permutation",
                     "--perms", "199", "--seed", "11", "--out", out_path])
        assert code == 0
        report = json.loads(open(out_path).read())
        assert all(r["method"] == "permutation" for r in report["results"])

    @pytest.mark.parametrize("pvalue", ["analytic", "permutation"])
    def test_reported_spectrum_matches_library(self, tmp_path, pvalue):
        csv_path, meta_path = write_inputs(tmp_path, n=150)
        out_path = str(tmp_path / "report.json")
        code = main(["test", "--input", csv_path, "--metadata", meta_path,
                     "--response", "grade", "--estimator", "unbiased",
                     "--pvalue", pvalue, "--perms", "99", "--out", out_path])
        assert code == 0
        report = json.loads(open(out_path).read())
        dataset, encodings = ingest(csv_path, meta_path)
        names = list(dataset.column_names)
        y = dataset.codes[:, names.index("grade")]
        dy = distance_matrix(encodings["grade"])
        for entry in report["results"]:
            x = dataset.codes[:, names.index(entry["variable"])]
            dx = distance_matrix(encodings[entry["variable"]])
            t = JointTable.from_codes(x, y, dx.n_categories, dy.n_categories)
            ns = null_spectrum(t.row_counts / t.n, t.col_counts / t.n, dx, dy)
            assert entry["lambdas"] == ns.lambdas.tolist()
            assert entry["mus"] == ns.mus.tolist()
            assert entry["bias_shift"] == ns.bias_shift
            if pvalue == "analytic":
                result = independence_test(t, dx, dy, estimator="unbiased")
                assert entry["method"] == result.method
                assert entry["p_value"] == result.p_value
            for kind, score in (("mle", dcor2_mle), ("unbiased", dcor2_unbiased)):
                if pvalue == "analytic":
                    expected = independence_test(t, dx, dy, estimator=kind).p_value
                else:
                    expected = permutation_test(x, y, dx, dy, estimator=kind,
                                                reps=99, seed=report["seed"])
                assert entry["p_values"][kind] == expected
                assert entry["statistic"][kind] == t.n * score(t, dx, dy)
            lo, hi = confidence_interval(t, dx, dy, level=0.95, estimator="unbiased")
            assert (entry["confidence_interval"]["lo"],
                    entry["confidence_interval"]["hi"]) == (lo, hi)

    @pytest.mark.filterwarnings("ignore:dropping .* zero-count")
    @pytest.mark.parametrize("pvalue, estimator, error", [
        pytest.param(pvalue, estimator, error,
                     id=pvalue + ("" if estimator == "unbiased" else "-" + estimator))
        for estimator, error in (("unbiased", "InsufficientSampleError"),
                                 ("mle", "InsufficientReplicatesError"))
        for pvalue in ("analytic", "permutation")
    ])
    def test_statistic_error_precedes_replicate_check(self, tmp_path, capsys, pvalue,
                                                      estimator, error):
        # Three rows: the analytic guard falls back to permutation.  The
        # bias-corrected statistic fails before the replicate count is
        # checked; the plug-in one succeeds, so the replicate count fails
        # before the bias-corrected statistic is computed.
        csv_path, meta_path = write_inputs(tmp_path, n=3)
        code = main(["test", "--input", csv_path, "--metadata", meta_path,
                     "--response", "grade", "--estimator", estimator,
                     "--pvalue", pvalue, "--perms", "10"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {error}:")

    def test_invalid_response_errors(self, tmp_path, capsys):
        csv_path, meta_path = write_inputs(tmp_path, n=30)
        code = main(["test", "--input", csv_path, "--metadata", meta_path,
                     "--response", "nonexistent"])
        assert code == 1
        assert "ConfigurationError" in capsys.readouterr().err


class TestScreenCommand:
    def test_matches_direct_api(self, tmp_path):
        csv_path, meta_path = write_inputs(tmp_path, n=260)
        out_path = str(tmp_path / "screen.json")
        code = main(["screen", "--input", csv_path, "--metadata", meta_path,
                     "--response", "grade", "--out", out_path])
        assert code == 0
        report = json.loads(open(out_path).read())
        assert report["feature_ids"] == ["color", "size", "shape", "tone"]
        assert report["threshold"] is not None
        assert report["changepoint_index"] is not None
        assert "color" in report["selected"]

        dataset, encodings = ingest(csv_path, meta_path)
        names = list(dataset.column_names)
        y = dataset.codes[:, names.index("grade")]
        dy = distance_matrix(encodings["grade"])
        for feature, value in zip(report["feature_ids"], report["values"]):
            x = dataset.codes[:, names.index(feature)]
            dx = distance_matrix(encodings[feature])
            t = JointTable.from_codes(x, y, dx.n_categories, dy.n_categories)
            assert_allclose(value, dcor2_mle(t, dx, dy), atol=1e-12)

    def test_ranked_csv(self, tmp_path):
        csv_path, meta_path = write_inputs(tmp_path, n=200)
        out_path = str(tmp_path / "screen.json")
        main(["screen", "--input", csv_path, "--metadata", meta_path,
              "--response", "grade", "--out", out_path])
        ranked_path = str(tmp_path / "screen_ranked.csv")
        lines = open(ranked_path).read().splitlines()
        assert lines[0] == "rank,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)
        assert len(values) == 4

    def test_test_only_flags_rejected(self, tmp_path):
        csv_path, meta_path = write_inputs(tmp_path, n=30)
        with pytest.raises(SystemExit) as exc:
            main(["screen", "--input", csv_path, "--metadata", meta_path,
                  "--response", "grade", "--seed", "1"])
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_outputs_and_determinism(self, tmp_path):
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        args = ["simulate", "--setting", "2", "--n", "60", "--features", "50",
                "--relevant", "5", "--replicates", "1", "--seed", "9"]
        assert main(args + ["--out", out_a]) == 0
        assert main(args + ["--out", out_b]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()
        payload = json.loads(open(out_a).read())
        assert payload["construction"] == "rank-one-clipped"
        assert len(payload["results"]) == 3
        for roc_file in ("a_roc_onehot.csv", "a_roc_ordinal.csv",
                         "a_roc_semicircle.csv"):
            lines = open(str(tmp_path / roc_file)).read().splitlines()
            assert lines[0] == "fpr,tpr"
            assert len(lines) > 2
        delta_lines = open(str(tmp_path / "a_delta.csv")).read().splitlines()
        assert len(delta_lines) == 6  # header plus five rows

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        out_a = str(tmp_path / "w1.json")
        out_b = str(tmp_path / "w8.json")
        args = ["simulate", "--setting", "1", "--n", "50", "--features", "40",
                "--relevant", "4", "--replicates", "1", "--seed", "2"]
        os.environ["CATDCOR_WORKERS"] = "1"
        try:
            assert main(args + ["--out", out_a]) == 0
            os.environ["CATDCOR_WORKERS"] = "8"
            assert main(args + ["--out", out_b]) == 0
        finally:
            del os.environ["CATDCOR_WORKERS"]
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_bad_worker_env(self, tmp_path, capsys):
        os.environ["CATDCOR_WORKERS"] = "zero"
        try:
            code = main(["encode", "--metadata",
                         write_inputs(tmp_path, n=5)[1]])
        finally:
            del os.environ["CATDCOR_WORKERS"]
        assert code == 1
        assert "ConfigurationError" in capsys.readouterr().err


class TestByteIdenticalReruns:
    def test_test_command(self, tmp_path):
        csv_path, meta_path = write_inputs(tmp_path, n=150)
        out_a = str(tmp_path / "ra.json")
        out_b = str(tmp_path / "rb.json")
        args = ["test", "--input", csv_path, "--metadata", meta_path,
                "--response", "grade", "--seed", "5"]
        main(args + ["--out", out_a])
        main(args + ["--out", out_b])
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_screen_command(self, tmp_path):
        csv_path, meta_path = write_inputs(tmp_path, n=150)
        out_a = str(tmp_path / "sa.json")
        out_b = str(tmp_path / "sb.json")
        args = ["screen", "--input", csv_path, "--metadata", meta_path,
                "--response", "grade"]
        main(args + ["--out", out_a])
        main(args + ["--out", out_b])
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_load_metadata_used_by_cli_matches_library(self, tmp_path):
        _, meta_path = write_inputs(tmp_path, n=5)
        encodings = load_metadata(meta_path)
        assert encodings["grade"].kind == "semicircle"
