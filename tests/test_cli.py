"""End-to-end tests of the command-line interface.

Each subcommand is exercised through ``main`` with real files; outputs
must be byte-identical across repeated invocations and must agree with
direct library calls.
"""

import codecs
import csv
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from catdcor import (
    JointTable,
    confidence_interval,
    distance_matrix,
    independence_test,
    load_metadata,
    null_spectrum,
    permutation_test,
    roc_points,
    run_benchmark,
)
import catdcor.cli
from catdcor.cli import Dataset, ingest, main
from catdcor.measures import _BLOCK
from catdcor.exceptions import CatdcorError, ConfigurationError, LabelError, ParseError
from perfbench_inputs import perfbench_workload
import scalar_reference as ref

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


def write_grouped_inputs(tmp_path, n=200, shared=140, seed=2):
    """A response "y", ``shared`` one-hot variables of 3 levels and four
    variables with encodings of their own, one of them ("zero") with a
    declared level that never occurs; so does "b130"."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, n)
    columns = {"y": y}
    for j in range(shared):
        x = rng.integers(0, 3, n)
        columns[f"b{j:03d}"] = np.where(rng.random(n) < 0.03 * (j % 5), y, x)
    columns["b130"] = np.where(columns["b130"] == 2, 0, columns["b130"])
    columns["ord"] = np.where(rng.random(n) < 0.3, y, rng.integers(0, 4, n))
    columns["semi"] = rng.integers(0, 5, n)
    columns["cust"] = np.where(rng.random(n) < 0.5, 2 - y, rng.integers(0, 3, n))
    columns["zero"] = rng.integers(0, 3, n)
    meta = [{"name": "y", "type": "ordinal", "encoding": "semicircle",
             "levels": ["y0", "y1", "y2"]}]
    meta += [{"name": name, "type": "nominal", "encoding": "onehot",
              "levels": ["p", "q", "r"]} for name in list(columns)[1:shared + 1]]
    meta += [
        {"name": "ord", "type": "ordinal", "encoding": "ordinal",
         "levels": ["p", "q", "r", "s"]},
        {"name": "semi", "type": "ordinal", "encoding": "semicircle",
         "levels": ["p", "q", "r", "s", "t"]},
        {"name": "cust", "type": "ordinal", "encoding": "custom",
         "levels": ["p", "q", "r"], "points": [[0.0], [1.0], [3.5]]},
        {"name": "zero", "type": "nominal", "encoding": "onehot",
         "levels": ["p", "q", "r", "s"]},
    ]
    labels = {m["name"]: np.array(m["levels"]) for m in meta}
    meta_path = tmp_path / "grouped_meta.json"
    meta_path.write_text(json.dumps(meta))
    csv_path = tmp_path / "grouped.csv"
    cells = np.column_stack([labels[name][codes] for name, codes in columns.items()])
    csv_path.write_text("\n".join([",".join(columns)] + [",".join(r) for r in cells]) + "\n")
    return str(csv_path), str(meta_path)


AB_META = [
    {"name": "a", "type": "nominal", "encoding": "onehot", "levels": ["p", "q,r"]},
    {"name": "b", "type": "nominal", "encoding": "onehot", "levels": ["x", "y"]},
]


def write_raw(tmp_path, text, meta=AB_META):
    """Write ``text`` byte for byte as the CSV, plus the metadata JSON."""
    csv_path = tmp_path / "raw.csv"
    meta_path = tmp_path / "raw_meta.json"
    csv_path.write_bytes(text.encode("utf-8"))
    meta_path.write_text(json.dumps(meta))
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

    def test_missing_cell_drops_row_with_bad_label(self, tmp_path):
        csv_path, meta_path = write_raw(tmp_path, 'a,b\np,x\n,nope\n"q,r",y\n')
        dataset, _ = ingest(csv_path, meta_path)
        assert dataset.dropped_rows == 1
        assert dataset.codes.tolist() == [[0, 0], [1, 1]]

    def test_first_bad_label_by_record(self, tmp_path):
        csv_path, meta_path = write_raw(tmp_path, "a,b\np,bad\nbad,x\n")
        with pytest.raises(LabelError) as err:
            ingest(csv_path, meta_path)
        assert "line 2, column 'b'" in str(err.value)

    def test_first_bad_label_in_record_by_metadata_order(self, tmp_path):
        meta = [AB_META[1], AB_META[0]]
        csv_path, meta_path = write_raw(tmp_path, "a,b\np,x\nbad_a,bad_b\n", meta)
        with pytest.raises(LabelError) as err:
            ingest(csv_path, meta_path)
        assert "line 3, column 'b': label 'bad_b'" in str(err.value)

    def test_lines_count_records_not_physical_lines(self, tmp_path):
        text = 'a,b,note\n"q,r",x,"two\nlines"\np,"y\n",z\n'
        csv_path, meta_path = write_raw(tmp_path, text)
        with pytest.raises(LabelError) as err:
            ingest(csv_path, meta_path)
        assert f"{csv_path}: line 3, column 'b': label 'y\\n' is not in" in str(err.value)

    def test_duplicate_header_name_uses_first_occurrence(self, tmp_path):
        csv_path, meta_path = write_raw(tmp_path, "b,a,b\ny,p,zzz\nx,p,\n")
        dataset, _ = ingest(csv_path, meta_path)
        assert dataset.dropped_rows == 0
        assert dataset.codes.tolist() == [[0, 1], [0, 0]]

    def test_header_only(self, tmp_path):
        csv_path, meta_path = write_raw(tmp_path, "a,b\n")
        dataset, _ = ingest(csv_path, meta_path)
        assert dataset.codes.shape == (0, 2)
        assert dataset.codes.dtype == np.int64
        assert (dataset.row_count, dataset.dropped_rows) == (0, 0)

    def test_no_analyzed_columns(self, tmp_path):
        csv_path, meta_path = write_raw(tmp_path, "a,b\np,x\n,\n", meta=[])
        dataset, _ = ingest(csv_path, meta_path)
        assert dataset.codes.shape == (2, 0)
        assert (dataset.row_count, dataset.dropped_rows) == (2, 0)

    @pytest.mark.parametrize("tail, expected", [
        ("p\n", "line 3 has 1 fields, expected 2"),
        ("\np,x\n", "line 3 has 0 fields, expected 2"),
    ])
    def test_ragged_record_after_bad_label(self, tmp_path, tail, expected):
        csv_path, meta_path = write_raw(tmp_path, "a,b\nbad,x\n" + tail)
        with pytest.raises(ParseError) as err:
            ingest(csv_path, meta_path)
        assert expected in str(err.value)

    def test_ragged_record_precedes_absent_column(self, tmp_path):
        meta = AB_META + [{"name": "ghost", "type": "nominal", "encoding": "onehot",
                           "levels": ["u", "v"]}]
        csv_path, meta_path = write_raw(tmp_path, "a,b\np,x\np\n", meta)
        with pytest.raises(ParseError) as err:
            ingest(csv_path, meta_path)
        assert "line 3 has 1 fields" in str(err.value)

    def test_single_analyzed_column(self, tmp_path):
        meta = [{"name": "a", "type": "ordinal", "encoding": "ordinal",
                 "levels": ["lo", "mid", "hi"]}]
        csv_path, meta_path = write_raw(tmp_path, "b,a\nx,hi\ny,\nz,lo\nw,mid\n", meta)
        dataset, _ = ingest(csv_path, meta_path)
        assert dataset.codes.tolist() == [[2], [0], [1]]
        assert dataset.dropped_rows == 1

    def test_custom_missing_tokens(self, tmp_path):
        csv_path, meta_path = write_raw(tmp_path, 'a,b\np,NA\nNA,y\n"q,r",x\n')
        dataset, _ = ingest(csv_path, meta_path, missing_tokens=("NA",))
        assert dataset.codes.tolist() == [[1, 0]]
        assert dataset.dropped_rows == 2
        with pytest.raises(LabelError) as err:
            ingest(csv_path, meta_path, missing_tokens=("",))
        assert "line 2, column 'b': label 'NA'" in str(err.value)

    def test_missing_token_wins_over_declared_label(self, tmp_path):
        csv_path, meta_path = write_raw(tmp_path, "a,b\np,x\np,y\n")
        dataset, _ = ingest(csv_path, meta_path, missing_tokens=("", "y"))
        assert dataset.codes.tolist() == [[0, 0]]
        assert dataset.dropped_rows == 1

    def test_non_analyzed_cells_never_checked(self, tmp_path):
        text = 'note,a,b,extra\n"free, ""text""\nhere",p,x,\n,p,y,Ω\n'
        csv_path, meta_path = write_raw(tmp_path, text)
        dataset, _ = ingest(csv_path, meta_path)
        assert dataset.codes.tolist() == [[0, 0], [0, 1]]
        assert dataset.dropped_rows == 0


# Cell texts for the reference comparison: separators, quotes, line breaks,
# blanks and non-ASCII, so that the csv module's quoting is exercised.
TRICKY = ["p", "q,r", 'say "hi"', "two\nlines", "é", "Ωmega", " pad ", "x\r\ny",
          "NA", "日本", "a;b", "''"]


def reference_ingest(csv_path, encodings, missing_tokens=("",)):
    """The per-cell row loop ``ingest`` replaced, kept as its oracle.

    Returns (codes, row_count, dropped_rows) or the LabelError message.
    """
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    positions = {name: header.index(name) for name in encodings}
    level_maps = {name: {label: code for code, label in enumerate(enc.labels)}
                  for name, enc in encodings.items()}
    missing = set(missing_tokens)
    kept, dropped = [], 0
    for line_no, row in enumerate(rows[1:], start=2):
        cells = {name: row[positions[name]] for name in encodings}
        if any(cell in missing for cell in cells.values()):
            dropped += 1
            continue
        coded = []
        for name in encodings:
            cell = cells[name]
            if cell not in level_maps[name]:
                return (f"{csv_path}: line {line_no}, column {name!r}: label {cell!r} "
                        "is not in the declared level set")
            coded.append(level_maps[name][cell])
        kept.append(coded)
    codes = np.array(kept, dtype=np.int64).reshape(len(kept), len(encodings))
    return codes, len(kept), dropped


def write_random_table(tmp_path, seed, n=300, analyzed=12, extra=4, bad_cells=0):
    """Seeded CSV written with csv.writer, with its metadata; returns paths."""
    rng = np.random.default_rng(seed)
    meta, columns = [], {}
    for k in range(analyzed):
        # Columns draw from one pool, in their own order, so that the same
        # text has different codes in different columns.
        levels = [TRICKY[i] for i in rng.choice(len(TRICKY), rng.integers(2, 6),
                                                replace=False)]
        name = f"v{k}"
        meta.append({"name": name, "type": "nominal", "encoding": "onehot",
                     "levels": levels})
        cells = np.array(levels, dtype=object)[rng.integers(0, len(levels), n)]
        cells[rng.random(n) < 0.05] = ""
        columns[name] = cells
    for k in range(extra):
        columns[f"free{k}"] = np.array(TRICKY + [""], dtype=object)[
            rng.integers(0, len(TRICKY) + 1, n)]
    for _ in range(bad_cells):
        name = f"v{rng.integers(analyzed)}"
        columns[name][rng.integers(n)] = rng.choice(["undeclared", "q, r", ""]) + "?"
    header = list(columns)
    rng.shuffle(header)
    rng.shuffle(meta)
    csv_path = tmp_path / f"random_{seed}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(columns[name] for name in header)))
    meta_path = tmp_path / f"random_{seed}.json"
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    return str(csv_path), str(meta_path)


class TestIngestMatchesRowLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_codes_and_counts(self, tmp_path, seed):
        csv_path, meta_path = write_random_table(tmp_path, seed)
        dataset, encodings = ingest(csv_path, meta_path)
        codes, row_count, dropped = reference_ingest(csv_path, encodings)
        assert dataset.column_names == tuple(encodings)
        assert dataset.codes.dtype == np.int64
        np.testing.assert_array_equal(dataset.codes, codes)
        assert (dataset.row_count, dataset.dropped_rows) == (row_count, dropped)
        assert 0 < dropped < 300

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_missing_tokens(self, tmp_path, seed):
        csv_path, meta_path = write_random_table(tmp_path, seed)
        tokens = ("", "NA", "é")
        dataset, encodings = ingest(csv_path, meta_path, missing_tokens=tokens)
        codes, row_count, dropped = reference_ingest(csv_path, encodings, tokens)
        np.testing.assert_array_equal(dataset.codes, codes)
        assert (dataset.row_count, dataset.dropped_rows) == (row_count, dropped)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_first_bad_label(self, tmp_path, seed):
        csv_path, meta_path = write_random_table(tmp_path, seed, bad_cells=6)
        encodings = load_metadata(meta_path)
        message = reference_ingest(csv_path, encodings)
        assert isinstance(message, str)
        with pytest.raises(LabelError) as err:
            ingest(csv_path, meta_path)
        assert str(err.value) == message


class TestIngestMemory:
    # Peak traced bytes per analyzed cell while ingesting.  Holding every
    # record's strings at once, as a read-all-then-loop ingest does, costs
    # about 76 bytes per cell (str objects and list slots, plus the codes);
    # streaming the records into one int64 array and decoding it in place
    # costs about 17.
    BYTES_PER_CELL = 40

    def test_peak_bytes_per_cell(self, tmp_path):
        rng = np.random.default_rng(11)
        n, p = 400, 500
        levels = rng.integers(2, 8, p)
        codes = np.floor(rng.random((n, p)) * levels).astype(np.int64)
        cells = np.array([f"L{k}" for k in range(8)] + [""])[codes]
        cells[rng.random((n, p)) < 0.0005] = ""
        names = [f"f{j}" for j in range(p)]
        csv_path = tmp_path / "wide.csv"
        csv_path.write_text(
            "\n".join([",".join(names)] + [",".join(row) for row in cells.tolist()])
            + "\n", encoding="utf-8")
        meta_path = tmp_path / "wide.json"
        meta_path.write_text(json.dumps([
            {"name": name, "type": "ordinal", "encoding": "ordinal",
             "levels": [f"L{k}" for k in range(lev)]}
            for name, lev in zip(names, levels.tolist())
        ]))
        tracemalloc.start()
        try:
            dataset, _ = ingest(str(csv_path), str(meta_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < dataset.dropped_rows < n
        assert peak / (n * p) < self.BYTES_PER_CELL


def write_wide(tmp_path, eol):
    """The wide table of ``TestIngestMemory`` with ``eol`` line ends; returns paths."""
    rng = np.random.default_rng(11)
    n, p = 400, 500
    levels = rng.integers(2, 8, p)
    codes = np.floor(rng.random((n, p)) * levels).astype(np.int64)
    cells = np.array([f"L{k}" for k in range(8)] + [""])[codes]
    cells[rng.random((n, p)) < 0.0005] = ""
    names = [f"f{j}" for j in range(p)]
    csv_path = tmp_path / "wide.csv"
    csv_path.write_bytes(
        (eol.join([",".join(names)] + [",".join(row) for row in cells.tolist()]) + eol)
        .encode("utf-8"))
    meta_path = tmp_path / "wide.json"
    meta_path.write_text(json.dumps([
        {"name": name, "type": "ordinal", "encoding": "ordinal",
         "levels": [f"L{k}" for k in range(lev)]}
        for name, lev in zip(names, levels.tolist())
    ]))
    return str(csv_path), str(meta_path), n * p


class TestIngestMemoryCRLF:
    """The same bound when the line ends are CRLF, which the byte route
    removes with one more copy of the file."""

    BYTES_PER_CELL = TestIngestMemory.BYTES_PER_CELL

    def test_peak_bytes_per_cell(self, tmp_path):
        csv_path, meta_path, cells = write_wide(tmp_path, "\r\n")
        tracemalloc.start()
        try:
            dataset, _ = ingest(csv_path, meta_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < dataset.dropped_rows < 400
        assert peak / cells < self.BYTES_PER_CELL


# Unquotable cell texts for the byte route: non-ASCII, over 8 bytes (one
# exactly 8, one 9), blanks, a NUL byte, and a prefix of another label.
PLAIN = ["p", "q", "NA", "é", "Ωmega", "日本語テキスト", "category_alpha",
         "category_beta", "exactly8", "exactly8+", " pad ", "a;b", "nul\x00", "L",
         "L1", "''", "x\ty"]


def route_outcomes(csv_path, meta_path, missing_tokens=("",)):
    """Run both ingest routes; each gives a Dataset or the error it raised."""
    labels = catdcor.cli._Labels.of(load_metadata(meta_path), missing_tokens)
    outcomes = []
    for route in (catdcor.cli._ingest_bytes, catdcor.cli._ingest_stream):
        try:
            outcomes.append(route(csv_path, labels))
        except CatdcorError as exc:
            outcomes.append(exc)
    return outcomes


def assert_routes_agree(csv_path, meta_path, missing_tokens=("",)):
    """Hold the byte route to the streaming route on one unquoted file.

    A clean file, or one with a bad label, gives the same Dataset or the
    same LabelError by both routes.  The byte route declines a file with
    any other fault, and ``ingest`` raises the streaming route's error.
    """
    by_bytes, streamed = route_outcomes(csv_path, meta_path, missing_tokens)
    if isinstance(streamed, CatdcorError) and not isinstance(streamed, LabelError):
        assert by_bytes is None, "the byte route decoded a faulty file"
        with pytest.raises(type(streamed)) as err:
            ingest(csv_path, meta_path, missing_tokens)
        assert str(err.value) == str(streamed)
        return streamed
    assert by_bytes is not None, "the byte route declined an unquoted file"
    assert type(by_bytes) is type(streamed)
    if isinstance(streamed, CatdcorError):
        assert str(by_bytes) == str(streamed)
    else:
        assert_same_dataset(by_bytes, streamed)
    return streamed


def assert_same_dataset(got, expected):
    assert got.column_names == expected.column_names
    assert got.codes.dtype == expected.codes.dtype == np.int64
    np.testing.assert_array_equal(got.codes, expected.codes)
    assert (got.row_count, got.dropped_rows) == (expected.row_count, expected.dropped_rows)


def write_plain_table(tmp_path, seed, eol="\n", n=200, analyzed=10, extra=3,
                      final_eol=True):
    """A seeded unquoted table with duplicate header names; returns the
    header, the rows (lists of cells), the metadata and a writer."""
    rng = np.random.default_rng(seed)
    meta, columns = [], {}
    for k in range(analyzed):
        levels = [PLAIN[i] for i in rng.choice(len(PLAIN), rng.integers(2, 6),
                                               replace=False)]
        meta.append({"name": f"v{k}", "type": "nominal", "encoding": "onehot",
                     "levels": levels})
        cells = np.array(levels, dtype=object)[rng.integers(0, len(levels), n)]
        cells[rng.random(n) < 0.03] = ""
        columns[f"v{k}"] = cells
    for k in range(extra):
        columns[f"free{k}"] = np.array(PLAIN + [""], dtype=object)[
            rng.integers(0, len(PLAIN) + 1, n)]
    header = list(columns)
    rng.shuffle(header)
    rng.shuffle(meta)
    # A repeated analyzed name: its second column holds an undeclared text.
    header.append(meta[0]["name"])
    rows = [list(row) + ["dup"] for row in zip(*(columns[name] for name in header[:-1]))]

    def write(rows=rows, header=header, meta=meta, eol=eol, final_eol=final_eol):
        lines = [",".join(header)] + [",".join(row) for row in rows]
        text = eol.join(lines) + (eol if final_eol else "")
        csv_path = tmp_path / f"plain_{seed}.csv"
        csv_path.write_bytes(text.encode("utf-8"))
        meta_path = tmp_path / f"plain_{seed}.json"
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        return str(csv_path), str(meta_path)

    return header, rows, meta, write


class TestIngestRoutesAgree:
    """The byte route and the streaming route on the same unquoted files."""

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_codes_and_counts(self, tmp_path, seed, eol):
        _, _, _, write = write_plain_table(tmp_path, seed, eol)
        dataset = assert_routes_agree(*write())
        assert 0 < dataset.dropped_rows < dataset.row_count
        assert_routes_agree(*write(final_eol=False))

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_missing_token_matching_a_label(self, tmp_path, eol):
        _, _, meta, write = write_plain_table(tmp_path, 3, eol)
        paths = write()
        for tokens in (("", meta[0]["levels"][0]), ("NA", "é", "category_beta"), ()):
            outcome = assert_routes_agree(*paths, missing_tokens=tokens)
            assert isinstance(outcome, (Dataset, LabelError))

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_first_bad_label(self, tmp_path, seed, eol):
        header, rows, meta, write = write_plain_table(tmp_path, seed, eol)
        rng = np.random.default_rng(seed)
        analyzed = [header.index(entry["name"]) for entry in meta]
        # Two bad cells in one record, then more in later records.
        first = int(rng.integers(len(rows) // 2))
        for r in [first, first] + rng.integers(first, len(rows), 4).tolist():
            rows[r][analyzed[rng.integers(len(analyzed))]] = rng.choice(
                ["undeclared", "category_gamma", "Ωmeg", "nul", "exactly8++", "p "])
        outcome = assert_routes_agree(*write())
        assert isinstance(outcome, LabelError)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("tail", [[], ["x"], ["x", "y", "z"]])
    def test_ragged_record(self, tmp_path, eol, tail):
        header, rows, meta, write = write_plain_table(tmp_path, 7, eol)
        rows[150] = rows[150][:-2] + tail
        outcome = assert_routes_agree(*write())
        assert isinstance(outcome, ParseError)
        assert f"line 152 has {len(header) - 2 + len(tail)} fields" in str(outcome)
        # A ragged record is reported before an absent metadata column.
        absent = {"name": "ghost", "type": "nominal", "encoding": "onehot",
                  "levels": ["u", "v"]}
        assert isinstance(assert_routes_agree(*write(meta=meta + [absent])), ParseError)
        rows[150] = rows[151]
        outcome = assert_routes_agree(*write(meta=meta + [absent]))
        assert isinstance(outcome, ConfigurationError)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_blank_lines(self, tmp_path, eol):
        header, rows, meta, write = write_plain_table(tmp_path, 8, eol)
        rows.insert(40, [])
        outcome = assert_routes_agree(*write())
        assert "line 42 has 0 fields" in str(outcome)
        one = [{"name": "a", "type": "nominal", "encoding": "onehot", "levels": ["p", "q"]}]
        csv_path, meta_path = write_raw(tmp_path, eol.join(["a", "p", "q", "", "p"]) + eol, one)
        outcome = assert_routes_agree(csv_path, meta_path)
        assert "line 4 has 0 fields, expected 1" in str(outcome)
        # A blank header line is a header of no fields.  Metadata that
        # analyzes no column is left to streaming.
        csv_path, meta_path = write_raw(tmp_path, eol + eol, [])
        assert route_outcomes(csv_path, meta_path)[0] is None
        assert ingest(csv_path, meta_path)[0].codes.shape == (1, 0)
        csv_path, meta_path = write_raw(tmp_path, eol + "p" + eol, [])
        assert "line 2 has 1 fields, expected 0" in str(assert_routes_agree(csv_path, meta_path))

    @pytest.mark.parametrize("text", ["a,b\n", "a,b", "a,b\r\n", "", "a,b\np,x",
                                      "a,b\r\np,x", "b,a,b\r\ny,p,zzz\r\n"])
    def test_short_files(self, tmp_path, text):
        assert_routes_agree(*write_raw(tmp_path, text))

    @pytest.mark.parametrize("bad", [b"\xff", b"\xe9,", b"\xf0\x9f\x98", b"\xc3"])
    def test_invalid_utf8(self, tmp_path, bad):
        _, _, _, write = write_plain_table(tmp_path, 9)
        csv_path, meta_path = write()
        data = open(csv_path, "rb").read()
        cut = data.index(b"\n", len(data) // 2) + 1
        for corrupt in (data[:cut] + bad + data[cut:], data + bad):
            open(csv_path, "wb").write(corrupt)
            outcome = assert_routes_agree(csv_path, meta_path)
            assert isinstance(outcome, ParseError)
            assert "not valid UTF-8" in str(outcome)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("fault", [None, "label", "ragged"])
    def test_byte_order_mark(self, tmp_path, eol, fault):
        # Excel's "CSV UTF-8" export starts the file with a BOM; each route
        # gives what it gives for the file without one, with the fault and
        # once it is mended.
        header, rows, meta, write = write_plain_table(tmp_path, 10, eol)
        assert header[0] in {entry["name"] for entry in meta}  # the BOM precedes its name
        r = next(r for r in range(60, len(rows)) if "" not in rows[r])  # a record that is kept
        clean = rows[r]
        rows[r] = {None: clean, "label": ["undeclared"] + clean[1:], "ragged": clean[:-1]}[fault]
        for kind in ({None: Dataset, "label": LabelError, "ragged": ParseError}[fault], Dataset):
            csv_path, meta_path = write()
            plain = route_outcomes(csv_path, meta_path)
            data = open(csv_path, "rb").read()
            open(csv_path, "wb").write(codecs.BOM_UTF8 + data)
            assert type(assert_routes_agree(csv_path, meta_path)) is kind
            for got, expected in zip(route_outcomes(csv_path, meta_path), plain):
                assert type(got) is type(expected)
                if isinstance(expected, Dataset):
                    assert_same_dataset(got, expected)
                elif expected is not None:
                    assert str(got) == str(expected)
            rows[r] = clean

    def test_metadata_byte_order_mark(self, tmp_path):
        _, _, _, write = write_plain_table(tmp_path, 10)
        csv_path, meta_path = write()
        dataset, encodings = ingest(csv_path, meta_path)
        data = open(meta_path, "rb").read()
        open(meta_path, "wb").write(codecs.BOM_UTF8 + data)
        marked, marked_encodings = ingest(csv_path, meta_path)
        assert_same_dataset(marked, dataset)
        assert ({name: (enc.kind, enc.labels, enc.points.tolist())
                 for name, enc in marked_encodings.items()}
                == {name: (enc.kind, enc.labels, enc.points.tolist())
                    for name, enc in encodings.items()})

    @pytest.mark.parametrize("note", [b"n", b'"n"'], ids=["unquoted", "quoted"])
    def test_ragged_record_before_invalid_utf8(self, tmp_path, note):
        # csv.reader reaches the ragged line 3 long before the invalid byte
        # 120 KB on; a quote in a free cell must not change the report.
        csv_path, meta_path = write_raw(tmp_path, "")
        open(csv_path, "wb").write(b"a,b,note\np,x," + note + b"\np\n"
                                   + b"p,y,n\n" * 20_000 + b"p,x,\xff\n")
        outcome = assert_routes_agree(csv_path, meta_path)
        assert str(outcome) == f"{csv_path}: line 3 has 1 fields, expected 3"

    def test_no_slot_table_within_the_search_cap(self, tmp_path, monkeypatch):
        _, _, _, write = write_plain_table(tmp_path, 10)
        csv_path, meta_path = write()
        labels = catdcor.cli._Labels.of(load_metadata(meta_path), ("",))
        # A cap below one batch of moduli: no table is searched for.
        monkeypatch.setattr(catdcor.cli, "_SLOT_SEARCH", 1)
        assert catdcor.cli._ingest_bytes(csv_path, labels) is None
        dataset, _ = ingest(csv_path, meta_path)
        assert_same_dataset(dataset, catdcor.cli._ingest_stream(csv_path, labels))
        assert 0 < dataset.dropped_rows < dataset.row_count

    def test_header_cell_over_field_limit(self, tmp_path):
        csv_path, meta_path = write_raw(tmp_path, "a,b,long_note\np,x,n\n")
        limit = csv.field_size_limit()
        try:
            csv.field_size_limit(8)
            outcome = assert_routes_agree(csv_path, meta_path)
        finally:
            csv.field_size_limit(limit)
        assert str(outcome) == f"{csv_path}: field larger than field limit (8)"

    def test_files_left_to_streaming(self, tmp_path):
        labels = catdcor.cli._Labels.of(load_metadata(write_raw(tmp_path, "")[1]), ("",))
        for text in ['a,b\n"p",x\n', "a,b\rp,x\r", "a,b\np,x\r\nq\r,y\n",
                     "a,b\np," + "x" * 200_000 + "\n"]:
            csv_path, _ = write_raw(tmp_path, text)
            assert catdcor.cli._ingest_bytes(csv_path, labels) is None

    def test_labels_alike_but_for_trailing_nul_bytes(self, tmp_path):
        # Their packed bytes are equal; their lengths tell them apart.
        meta = [{"name": "a", "type": "nominal", "encoding": "onehot",
                 "levels": ["nul", "nul\x00"]}]
        csv_path, meta_path = write_raw(tmp_path, "a\nnul\x00\nnul\nnul\x00\x00\n", meta)
        outcome = assert_routes_agree(csv_path, meta_path)
        assert "line 4, column 'a': label 'nul\\x00\\x00'" in str(outcome)
        csv_path, meta_path = write_raw(tmp_path, "a\nnul\x00\nnul\n", meta)
        assert assert_routes_agree(csv_path, meta_path).codes.tolist() == [[1], [0]]


class TestIngestByteRouteChunks:
    """The byte route against the streaming route where records are split
    into chunks of one line or a few, so that dropped rows and bad labels
    fall on both sides of chunk boundaries."""

    @pytest.mark.parametrize("chunk", [1, 40, 97])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("seed", [21, 22])
    def test_routes_agree_across_chunk_boundaries(self, tmp_path, monkeypatch, seed, eol,
                                                  chunk):
        monkeypatch.setattr(catdcor.cli, "_CHUNK", chunk)
        header, rows, meta, write = write_plain_table(tmp_path, seed, eol, n=60)
        names = [entry["name"] for entry in meta]
        analyzed = [header.index(name) for name in names]
        # The header as written has other columns, the analyzed ones in
        # another order, and one analyzed name twice; the whole-header
        # variant is the analyzed columns alone, in metadata order.
        whole = [[row[j] for j in analyzed] for row in rows]
        for variant in ({}, {"header": names, "rows": whole}):
            dataset = assert_routes_agree(*write(**variant))
            assert 0 < dataset.dropped_rows < dataset.row_count
        rng = np.random.default_rng(seed)
        first = int(rng.integers(5, 40))
        # A bad label in a row that has a missing token too is dropped.
        rows[first][analyzed[0]] = whole[first][0] = "undeclared"
        rows[first][analyzed[-1]] = whole[first][-1] = ""
        for variant in ({}, {"header": names, "rows": whole}):
            assert isinstance(assert_routes_agree(*write(**variant)), Dataset)
        # Bad labels on consecutive records, so on both sides of a boundary.
        for r in range(first + 1, first + 4):
            k = int(rng.integers(len(names)))
            rows[r][analyzed[k]] = whole[r][k] = rng.choice(["Ωmeg", "nul", "p ", "LL"])
        for variant in ({}, {"header": names, "rows": whole}):
            outcome = assert_routes_agree(*write(**variant))
            assert isinstance(outcome, LabelError)
            assert f"line {first + 2}," not in str(outcome)

    def test_codes_columns_contiguous(self, tmp_path):
        # Scoring reads the codes a column at a time; C-order codes made
        # catdcor screen on a wide file more than twice as slow.
        _, _, _, write = write_plain_table(tmp_path, 23, n=300)
        csv_path, meta_path = write()
        by_bytes, streamed = route_outcomes(csv_path, meta_path)
        quoted = tmp_path / "quoted.csv"
        quoted.write_text(open(csv_path, encoding="utf-8").read().replace("dup", '"dup"'),
                          encoding="utf-8")
        for dataset in (by_bytes, streamed, ingest(csv_path, meta_path)[0],
                        ingest(str(quoted), meta_path)[0]):
            assert 0 < dataset.dropped_rows
            assert dataset.codes.strides[0] == dataset.codes.itemsize

    def test_wide_file_of_short_labels_by_bytes(self, tmp_path, monkeypatch):
        # The shape of the screening benchmark's input: unquoted, two-byte
        # labels, hundreds of columns, and about 1% of the records with a
        # missing cell.
        rng = np.random.default_rng(24)
        n, p = 400, 300
        levels = rng.integers(2, 9, p)
        cells = np.array([f"L{k}" for k in range(8)])[
            np.floor(rng.random((n, p)) * levels).astype(np.int64)]
        cells[rng.choice(n, n // 100, replace=False), rng.integers(0, p, n // 100)] = ""
        names = [f"x{j:04d}" for j in range(p)]
        meta = [{"name": name, "type": "nominal", "encoding": "onehot",
                 "levels": [f"L{k}" for k in range(lev)]}
                for name, lev in zip(names, levels.tolist())]
        text = "\n".join([",".join(names)] + [",".join(row) for row in cells.tolist()]) + "\n"
        csv_path, meta_path = write_raw(tmp_path, text, meta)
        labels = catdcor.cli._Labels.of(load_metadata(meta_path), ("",))
        streamed = catdcor.cli._ingest_stream(csv_path, labels)
        # Only the byte route can ingest now.
        monkeypatch.setattr(catdcor.cli, "_ingest_stream", None)
        dataset, _ = ingest(csv_path, meta_path)
        assert_same_dataset(dataset, streamed)
        assert 0 < dataset.dropped_rows < n

    def test_thousands_of_numeric_labels_by_bytes(self, tmp_path, monkeypatch):
        # 3000 declared labels, 0 to 2999, a thousand per column (ordinal, so
        # that loading the metadata stays cheap).
        rng = np.random.default_rng(25)
        n, names = 500, ["a", "b", "c"]
        meta = [{"name": name, "type": "ordinal", "encoding": "ordinal",
                 "levels": [str(k) for k in range(1000 * j, 1000 * j + 1000)]}
                for j, name in enumerate(names)]
        cells = (rng.integers(0, 1000, (n, 3)) + [0, 1000, 2000]).astype(str).astype(object)
        cells[rng.random((n, 3)) < 0.01] = ""
        text = "".join(",".join(row) + "\n" for row in cells.tolist())
        csv_path, meta_path = write_raw(tmp_path, ",".join(names) + "\n" + text, meta)
        labels = catdcor.cli._Labels.of(load_metadata(meta_path), ("",))
        streamed = catdcor.cli._ingest_stream(csv_path, labels)
        # Only the byte route can ingest now.
        monkeypatch.setattr(catdcor.cli, "_ingest_stream", None)
        dataset, _ = ingest(csv_path, meta_path)
        assert_same_dataset(dataset, streamed)
        assert 0 < dataset.dropped_rows < n


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
            assert entry["method"] in ("imhof", "permutation")
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
            observed = {kind: ref.dcor2(t.counts, dx, dy, kind)
                        for kind in ("mle", "unbiased")}
            if pvalue == "permutation":
                expected, _ = ref.permutation_pvalues(x, y, dx, dy, observed, 99,
                                                      report["seed"])
            for kind, value in observed.items():
                if pvalue == "analytic":
                    assert entry["p_values"][kind] == independence_test(
                        t, dx, dy, estimator=kind).p_value
                else:
                    assert entry["p_values"][kind] == expected[kind]
                assert entry["statistic"][kind] == t.n * value
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

    def test_permutation_variables_share_draws(self, tmp_path):
        # "size" and "tone" each hold a category rarer than 5/n, so the
        # analytic run falls back to permutation for them; the permutation
        # run permutes all four variables.  Every permutation p-value must
        # equal the replicate-by-replicate reference loop's.
        csv_path, meta_path = write_inputs(tmp_path, n=120, seed=5)
        rows = list(csv.reader(open(csv_path, newline="")))
        for k, row in enumerate(rows[1:]):
            row[2] = "l" if k < 2 else ("s", "m")[k % 2]
            row[4] = "c" if k in (7, 50, 90) else row[4].replace("c", "a")
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        dataset, encodings = ingest(csv_path, meta_path)
        names = list(dataset.column_names)
        y = dataset.codes[:, names.index("grade")]
        dy = distance_matrix(encodings["grade"])
        for pvalue, permuted in (("analytic", {"size", "tone"}),
                                 ("permutation", {"color", "size", "shape", "tone"})):
            out_path = str(tmp_path / f"{pvalue}.json")
            assert main(["test", "--input", csv_path, "--metadata", meta_path,
                         "--response", "grade", "--pvalue", pvalue, "--perms", "150",
                         "--seed", "11", "--out", out_path]) == 0
            report = json.loads(open(out_path).read())
            methods = {e["variable"]: e["method"] for e in report["results"]}
            assert {v for v, m in methods.items() if m == "permutation"} == permuted
            for entry in report["results"]:
                if entry["variable"] not in permuted:
                    continue
                x = dataset.codes[:, names.index(entry["variable"])]
                dx = distance_matrix(encodings[entry["variable"]])
                t = JointTable.from_codes(x, y, dx.n_categories, dy.n_categories)
                observed = {kind: ref.dcor2(t.counts, dx, dy, kind)
                            for kind in ("mle", "unbiased")}
                expected, _ = ref.permutation_pvalues(x, y, dx, dy, observed, 150, 11)
                assert entry["p_values"] == expected
                assert entry["p_value"] == expected["mle"]

    def test_perfbench_permutation_input_matches_reference(self, tmp_path):
        # The test_permutation workload at seed 7: 500 rows, 8 variables of
        # 2 to 5 levels (the binary ones with fixed cross-tabs) and 999
        # replicates, drawn as one chunk.  Every p-value equals the
        # replicate-by-replicate reference loop's, exact ties included.
        argv = perfbench_workload("test_permutation", 7, tmp_path)
        options = dict(zip(argv[1::2], argv[2::2]))
        assert (options["--perms"], options["--seed"]) == ("999", "7")
        out_path = str(tmp_path / "perm.json")
        assert main([*argv, "--out", out_path]) == 0
        report = json.loads(open(out_path).read())
        dataset, encodings = ingest(options["--input"], options["--metadata"])
        names = list(dataset.column_names)
        y = dataset.codes[:, names.index("y")]
        dy = distance_matrix(encodings["y"])
        all_ties = 0
        assert len(report["results"]) == 8
        for entry in report["results"]:
            assert entry["method"] == "permutation"
            x = dataset.codes[:, names.index(entry["variable"])]
            dx = distance_matrix(encodings[entry["variable"]])
            t = JointTable.from_codes(x, y, dx.n_categories, dy.n_categories)
            observed = {kind: ref.dcor2(t.counts, dx, dy, kind) for kind in ("mle", "unbiased")}
            expected, ties = ref.permutation_pvalues(x, y, dx, dy, observed, 999, 7)
            assert entry["p_values"] == expected
            all_ties += ties
        assert all_ties > 0

    @pytest.mark.filterwarnings("ignore:dropping .* zero-count")
    @pytest.mark.parametrize("estimator", ["mle", "unbiased"])
    def test_grouped_variables_match_library(self, tmp_path, estimator):
        # More than _BLOCK variables share one encoding, so one group is
        # tabulated in two blocks; four more have encodings of their own.
        # "b130" (second block) and "zero" each declare a level that never
        # occurs, so the analytic run falls back to permutation for them
        # and their spectra drop that category.
        csv_path, meta_path = write_grouped_inputs(tmp_path)
        dataset, encodings = ingest(csv_path, meta_path)
        names = list(dataset.column_names)
        assert sum(encodings[v].kind == "one-hot" and encodings[v].n_categories == 3
                   for v in names) > _BLOCK
        y = dataset.codes[:, names.index("y")]
        dy = distance_matrix(encodings["y"])
        out_path = str(tmp_path / "report.json")
        assert main(["test", "--input", csv_path, "--metadata", meta_path,
                     "--response", "y", "--estimator", estimator, "--perms", "99",
                     "--seed", "4", "--out", out_path]) == 0
        report = json.loads(open(out_path).read())
        assert [e["variable"] for e in report["results"]] == names[1:]
        permuted = {e["variable"] for e in report["results"] if e["method"] == "permutation"}
        assert permuted == {"b130", "zero"}
        for entry in report["results"]:
            x = dataset.codes[:, names.index(entry["variable"])]
            dx = distance_matrix(encodings[entry["variable"]])
            t = JointTable.from_codes(x, y, dx.n_categories, dy.n_categories)
            ns = null_spectrum(t.row_counts / t.n, t.col_counts / t.n, dx, dy)
            assert entry["n"] == t.n
            assert entry["lambdas"] == ns.lambdas.tolist()
            assert entry["mus"] == ns.mus.tolist()
            assert entry["bias_shift"] == ns.bias_shift
            for kind in ("mle", "unbiased"):
                result = independence_test(t, dx, dy, estimator=kind)
                assert entry["statistic"][kind] == result.statistic
                if entry["variable"] in permuted:
                    expected = permutation_test(x, y, dx, dy, estimator=kind, reps=99, seed=4)
                else:
                    expected = result.p_value
                assert entry["p_values"][kind] == expected
            lo, hi = confidence_interval(t, dx, dy, level=0.95, estimator=estimator)
            assert (entry["confidence_interval"]["lo"],
                    entry["confidence_interval"]["hi"]) == (lo, hi)

    @pytest.mark.parametrize("pvalue", ["analytic", "permutation"])
    def test_degenerate_first_variable_precedes_degenerate_response(self, tmp_path,
                                                                    capsys, pvalue):
        # Both "b" and the response "a" hold one observed category: the
        # variable's side warns and fails first; the response's side, which
        # would drop two categories, is never built.
        meta = [{"name": "a", "type": "nominal", "encoding": "onehot",
                 "levels": ["p", "q", "s"]},
                AB_META[1],
                {"name": "c", "type": "nominal", "encoding": "onehot", "levels": ["u", "v"]}]
        csv_path, meta_path = write_raw(tmp_path, "a,b,c\n" + "p,x,u\np,x,v\n" * 4, meta)
        code = main(["test", "--input", csv_path, "--metadata", meta_path,
                     "--response", "a", "--pvalue", pvalue])
        assert code == 1
        assert capsys.readouterr().err == (
            "warning: RuntimeWarning: dropping 1 zero-count category before building the null "
            "spectrum\n"
            "error: DegenerateMarginError: fewer than two observed categories on a margin\n")

    @pytest.mark.parametrize("pvalue", ["analytic", "permutation"])
    def test_degenerate_variable_inside_an_encoding_group(self, tmp_path, capsys, pvalue):
        # "b" holds one observed level between two healthy variables of the
        # same one-hot group; the stacks are computed for the whole group,
        # and "b" fails in its turn, after "a" and before "c" and "o".
        rng = np.random.default_rng(8)
        levels = ["u", "v", "w"]
        columns = {"y": rng.choice(levels, 90), "a": rng.choice(levels, 90),
                   "b": np.full(90, "v"), "c": rng.choice(levels, 90),
                   "o": rng.choice(levels + ["z"], 90)}
        meta = [{"name": name, "type": "nominal", "encoding": "onehot", "levels": levels}
                for name in "yabc"]
        meta.append({"name": "o", "type": "ordinal", "encoding": "ordinal",
                     "levels": levels + ["z"]})
        text = "y,a,b,c,o\n" + "".join(",".join(row) + "\n" for row in zip(*columns.values()))
        csv_path, meta_path = write_raw(tmp_path, text, meta)
        code = main(["test", "--input", csv_path, "--metadata", meta_path,
                     "--response", "y", "--pvalue", pvalue, "--perms", "99"])
        assert code == 1
        assert capsys.readouterr().err == (
            "warning: RuntimeWarning: dropping 2 zero-count categories before building the "
            "null spectrum\n"
            "error: DegenerateMarginError: fewer than two observed categories on a margin\n")

    @pytest.mark.parametrize("pvalue", ["analytic", "permutation"])
    def test_zero_count_warnings_in_variable_order(self, tmp_path, capsys, pvalue):
        # Two variables of one group and one of another each declare levels
        # that never occur, and so does the response: one warning line per
        # margin, the first variable's, then the response's, then the others'.
        # Python's default filter would show the repeated text once.
        rng = np.random.default_rng(9)
        columns = {"y": rng.choice(["u", "v"], 90), "a": rng.choice(["u", "w"], 90),
                   "o": rng.choice(["u", "v", "z"], 90), "c": rng.choice(["u", "v", "w"], 90),
                   "d": rng.choice(["w"] * 5 + ["v"], 90)}
        levels = {"y": ["u", "v", "w"], "a": ["u", "v", "w"], "o": ["u", "v", "w", "z", "t"],
                  "c": ["u", "v", "w"], "d": ["u", "v", "w"]}
        meta = [{"name": name, "type": "nominal",
                 "encoding": "ordinal" if name == "o" else "onehot", "levels": levels[name]}
                for name in columns]
        text = "y,a,o,c,d\n" + "".join(",".join(row) + "\n" for row in zip(*columns.values()))
        csv_path, meta_path = write_raw(tmp_path, text, meta)
        out_path = str(tmp_path / "report.json")
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["test", "--input", csv_path, "--metadata", meta_path,
                         "--response", "y", "--pvalue", pvalue, "--perms", "99",
                         "--out", out_path]) == 0
        assert capsys.readouterr().err == "".join(
            f"warning: RuntimeWarning: dropping {k} zero-count "
            f"categor{'y' if k == 1 else 'ies'} before building the null spectrum\n"
            for k in (1, 1, 2, 1))

    @pytest.mark.parametrize("estimator", ["mle", "unbiased"])
    @pytest.mark.parametrize("pvalue", ["analytic", "permutation"])
    def test_every_row_dropped_fails_before_scoring(self, tmp_path, capsys, estimator,
                                                    pvalue):
        csv_path, meta_path = write_raw(tmp_path, "a,b\np,\n,y\n")
        code = main(["test", "--input", csv_path, "--metadata", meta_path,
                     "--response", "a", "--estimator", estimator, "--pvalue", pvalue,
                     "--perms", "10"])
        assert code == 1
        assert capsys.readouterr().err == "error: DistributionError: empty sample\n"

    def test_every_row_dropped_without_variables(self, tmp_path):
        csv_path, meta_path = write_raw(tmp_path, "a,b\n,x\n,y\n", AB_META[:1])
        out_path = str(tmp_path / "out.json")
        assert main(["test", "--input", csv_path, "--metadata", meta_path,
                     "--response", "a", "--out", out_path]) == 0
        report = json.loads(open(out_path).read())
        assert (report["rows_used"], report["results"]) == (0, [])

    @pytest.mark.filterwarnings("ignore:dropping .* zero-count")
    @pytest.mark.parametrize("pvalue", ["analytic", "permutation"])
    def test_three_rows_unbiased_is_one_error_line(self, tmp_path, capsys, pvalue):
        csv_path, meta_path = write_inputs(tmp_path, n=3)
        code = main(["test", "--input", csv_path, "--metadata", meta_path,
                     "--response", "grade", "--estimator", "unbiased", "--pvalue", pvalue])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: InsufficientSampleError: the bias-corrected estimator needs "
            "n >= 4 observations, got n = 3.0\n")

    def test_invalid_response_errors(self, tmp_path, capsys):
        csv_path, meta_path = write_inputs(tmp_path, n=30)
        code = main(["test", "--input", csv_path, "--metadata", meta_path,
                     "--response", "nonexistent"])
        assert code == 1
        assert "ConfigurationError" in capsys.readouterr().err

    @pytest.mark.parametrize("pvalue", ["analytic", "permutation"])
    def test_negative_seed_is_one_line_error(self, tmp_path, capsys, pvalue):
        csv_path, meta_path = write_inputs(tmp_path, n=30)
        code = main(["test", "--input", csv_path, "--metadata", meta_path,
                     "--response", "grade", "--pvalue", pvalue, "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ConfigurationError: seed must be a non-negative integer, got -1\n")


def per_cell_csv(header, columns):
    """The CSV text of ``columns`` written one cell at a time, each its ``repr``."""
    rows = zip(*[np.asarray(column).tolist() for column in columns])
    return "\n".join([",".join(header)] + [",".join(map(repr, row)) for row in rows]) + "\n"


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
            assert_allclose(value, ref.dcor2(t.counts, dx, dy, "mle"), atol=1e-12)

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
        report = json.loads(open(out_path).read())
        values = np.array(report["values"])[report["order"]]
        assert open(ranked_path, "rb").read() == per_cell_csv(
            ["rank", "value"], [np.arange(1, values.size + 1), values]).encode()

    def test_test_only_flags_rejected(self, tmp_path):
        csv_path, meta_path = write_inputs(tmp_path, n=30)
        with pytest.raises(SystemExit) as exc:
            main(["screen", "--input", csv_path, "--metadata", meta_path,
                  "--response", "grade", "--seed", "1"])
        assert exc.value.code == 2

    def test_one_distance_matrix_per_distinct_encoding(self, tmp_path, monkeypatch):
        csv_path, meta_path = write_inputs(tmp_path, n=120)
        built = []

        def counting(enc):
            built.append(enc.kind)
            return distance_matrix(enc)

        monkeypatch.setattr(catdcor.cli, "distance_matrix", counting)
        out_path = str(tmp_path / "screen.json")
        assert main(["screen", "--input", csv_path, "--metadata", meta_path,
                     "--response", "grade", "--out", out_path]) == 0
        # grade and tone share the 3-level semicircle; color and shape are
        # one-hot with 3 and 2 levels; size is ordinal.
        assert sorted(built) == ["one-hot", "one-hot", "ordinal", "semicircle"]


    @pytest.mark.parametrize("response, view", [
        ("grade", True), ("size", False), ("tone", True)])
    def test_features_are_a_view_when_response_is_at_an_end(self, tmp_path, monkeypatch,
                                                               response, view):
        csv_path, meta_path = write_inputs(tmp_path, n=60)
        seen = {}

        class Captured(Exception):
            pass

        def ingesting(*args):
            seen["dataset"], encodings = ingest(*args)
            return seen["dataset"], encodings

        def screening(x, *args, **kwargs):
            seen["x"] = x
            raise Captured

        monkeypatch.setattr(catdcor.cli, "ingest", ingesting)
        monkeypatch.setattr(catdcor.cli, "screen", screening)
        with pytest.raises(Captured):
            main(["screen", "--input", csv_path, "--metadata", meta_path,
                  "--response", response])
        codes = seen["dataset"].codes
        others = [j for j, name in enumerate(seen["dataset"].column_names) if name != response]
        np.testing.assert_array_equal(seen["x"], codes[:, others])
        assert np.shares_memory(seen["x"], codes) == view

    def test_degenerate_feature_is_one_warning_line(self, tmp_path, capsys):
        # "b" holds one observed level and scores 0.
        meta = AB_META + [{"name": "c", "type": "nominal", "encoding": "onehot",
                           "levels": ["u", "v"]}]
        csv_path, meta_path = write_raw(tmp_path, "a,b,c\n" + 'p,x,u\n"q,r",x,v\n' * 4, meta)
        out_path = str(tmp_path / "screen.json")
        assert main(["screen", "--input", csv_path, "--metadata", meta_path,
                     "--response", "a", "--out", out_path]) == 0
        assert capsys.readouterr().err == (
            "warning: RuntimeWarning: 1 feature(s) with degenerate margins scored 0\n")
        assert json.loads(open(out_path).read())["degenerate"] == ["b"]

    def test_warnings_written_before_an_unexpected_error(self, tmp_path, capsys, monkeypatch):
        def failing_screen(*args, **kwargs):
            warnings.warn("scored", RuntimeWarning)
            raise KeyError("fault")

        monkeypatch.setattr(catdcor.cli, "screen", failing_screen)
        csv_path, meta_path = write_inputs(tmp_path, n=30)
        with pytest.raises(KeyError):
            main(["screen", "--input", csv_path, "--metadata", meta_path, "--response", "grade"])
        assert capsys.readouterr().err == "warning: RuntimeWarning: scored\n"

    @pytest.mark.parametrize("command", ["screen", "test"])
    def test_every_row_dropped(self, tmp_path, capsys, command):
        csv_path, meta_path = write_raw(tmp_path, "a,b\np,\n,y\n")
        out_path = str(tmp_path / "out.json")
        code = main([command, "--input", csv_path, "--metadata", meta_path,
                     "--response", "a", "--out", out_path])
        assert code == 1
        assert capsys.readouterr().err == "error: DistributionError: empty sample\n"
        assert not os.path.exists(out_path)


class TestUnreadableInput:
    """Undecodable or oversized input ends in one structured error line."""

    def run(self, capsys, command, csv_path, meta_path):
        code = main([command, "--input", csv_path, "--metadata", meta_path,
                     "--response", "a"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("command", ["screen", "test"])
    def test_csv_unreadable(self, tmp_path, capsys, command):
        _, meta_path = write_raw(tmp_path, "")
        missing_path = str(tmp_path / "absent.csv")
        err = self.run(capsys, command, missing_path, meta_path)
        assert err.startswith(f"error: ConfigurationError: cannot read {missing_path}: ")

    @pytest.mark.parametrize("command", ["screen", "test"])
    def test_csv_not_utf8(self, tmp_path, capsys, command):
        csv_path, meta_path = write_raw(tmp_path, "")
        open(csv_path, "wb").write(b"a,b\np,x\n\xe9,x\n")
        err = self.run(capsys, command, csv_path, meta_path)
        assert err.startswith(f"error: ParseError: {csv_path}: not valid UTF-8")

    @pytest.mark.parametrize("command", ["screen", "test"])
    def test_csv_field_over_limit(self, tmp_path, capsys, command):
        csv_path, meta_path = write_raw(tmp_path, "a,b\np," + "x" * 200_000 + "\n")
        err = self.run(capsys, command, csv_path, meta_path)
        assert err.startswith(f"error: ParseError: {csv_path}: field larger than")

    @pytest.mark.parametrize("command", ["screen", "test"])
    def test_metadata_not_utf8(self, tmp_path, capsys, command):
        csv_path, meta_path = write_raw(tmp_path, "a,b\np,x\n")
        open(meta_path, "wb").write(b'[{"name": "\xe9"}]')
        err = self.run(capsys, command, csv_path, meta_path)
        assert err.startswith(f"error: ConfigurationError: {meta_path} is not valid UTF-8")

    def test_metadata_unreadable(self, tmp_path, capsys):
        csv_path, _ = write_raw(tmp_path, "a,b\np,x\n")
        missing_path = str(tmp_path / "absent.json")
        err = self.run(capsys, "screen", csv_path, missing_path)
        assert err.startswith(f"error: ConfigurationError: cannot read {missing_path}")


class TestUnwritableOutput:
    """An ``--out`` path that cannot be opened ends in one structured error line."""

    @pytest.mark.parametrize("command", ["encode", "test", "screen", "simulate"])
    def test_missing_directory(self, tmp_path, capsys, command):
        csv_path, meta_path = write_inputs(tmp_path, n=60)
        flags = {
            "encode": ["--metadata", meta_path],
            "simulate": ["--setting", "4", "--n", "60", "--features", "40",
                         "--relevant", "4", "--replicates", "1"],
        }.get(command, ["--input", csv_path, "--metadata", meta_path, "--response", "grade"])
        out_path = str(tmp_path / "missing" / "out.json")
        assert main([command, *flags, "--out", out_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: ConfigurationError: cannot write {out_path}: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "missing").exists()


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
        # Every CSV byte as the library's values formatted one cell at a time.
        results = run_benchmark(2, n=60, n_features=50, relevant_count=5, replicates=1, seed=9)
        delta = results[0].joint.delta()
        expected = {"a_delta.csv": per_cell_csv(
            [f"col{j + 1}" for j in range(delta.shape[1])], list(delta.T))}
        for r in results:
            points = roc_points(r.pooled_scores, r.pooled_truth)
            expected[f"a_roc_{r.encoding}.csv"] = per_cell_csv(["fpr", "tpr"], list(points.T))
        for name, text in expected.items():
            assert open(str(tmp_path / name), "rb").read() == text.encode()

    def test_repeated_runs_write_identical_bytes(self, tmp_path):
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        args = ["simulate", "--setting", "1", "--n", "50", "--features", "40",
                "--relevant", "4", "--replicates", "1", "--seed", "2"]
        assert main(args + ["--out", out_a]) == 0
        assert main(args + ["--out", out_b]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    @pytest.mark.parametrize("action", ["default", "always"])
    def test_degenerate_columns_are_warning_lines(self, tmp_path, capsys, action):
        # Four rows leave two constant feature columns in each of 2 replicates
        # x 3 encodings; each warning names its replicate and encoding, so
        # Python's default filter writes all six.
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert main(["simulate", "--setting", "4", "--n", "4", "--features", "30",
                         "--relevant", "3", "--replicates", "2", "--seed", "2",
                         "--out", str(tmp_path / "s.json")]) == 0
        assert capsys.readouterr().err == "".join(
            "warning: RuntimeWarning: 2 feature(s) with degenerate margins scored 0 "
            f"(replicate {r}, {kind} encoding)\n"
            for r in range(2) for kind in ("onehot", "ordinal", "semicircle"))

    def test_negative_seed_is_one_line_error(self, tmp_path, capsys):
        code = main(["simulate", "--setting", "2", "--n", "60", "--features", "50",
                     "--relevant", "5", "--replicates", "1", "--seed", "-1",
                     "--out", str(tmp_path / "s.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ConfigurationError: seed must be a non-negative integer, got -1\n")
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("flags, line", [
        (["--replicates", "0"], "ConfigurationError: replicates must be at least 1, got 0"),
        (["--n", "-5"], "DistributionError: empty sample"),
        (["--encodings", "onehot,onehot"],
         "ConfigurationError: encoding kinds must be distinct, got onehot,onehot"),
        (["--relevant", "0"], "UndefinedAUCError: AUC needs both relevant and "
         "irrelevant features, got 0 relevant of 40"),
        (["--features", "0"],
         "ShapeError: relevant_count 4 must lie in [0, 0], the feature count"),
        (["--features", "3", "--relevant", "1"],
         "InsufficientFeaturesError: the two-piece fit needs at least 4 features, got 3"),
    ], ids=["no-replicates", "negative-n", "repeated-kind", "no-relevant", "no-features",
            "few-features"])
    def test_bad_arguments_are_one_line_errors(self, tmp_path, capsys, flags, line):
        code = main(["simulate", "--setting", "1", "--n", "60", "--features", "40",
                     "--relevant", "4", "--replicates", "1", *flags,
                     "--out", str(tmp_path / "s.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        assert list(tmp_path.iterdir()) == []


class TestCsvWriter:
    """The shared-table CSV writer against per-cell formatting."""

    NAN_PAYLOADS = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64).view(float)

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 0.0, 1.5, -0.0],
        [*NAN_PAYLOADS, np.nan, 2.0],
        [np.inf, -np.inf, 5e-324, -5e-324, np.inf],
        [1e16, 0.1 + 0.2, 0.3, 1e16 + 2.0, 123456789.0],
        [1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 1.0],
    ], ids=["signed-zeros", "nan-payloads", "infinities-subnormal", "large-and-inexact",
            "one-ulp-apart"])
    def test_bytes_equal_per_cell_repr(self, tmp_path, values):
        values = np.array(values)
        ranked = (str(tmp_path / "ranked.csv"), ["rank", "value"],
                  [np.arange(1, values.size + 1), values])
        pairs = (str(tmp_path / "pairs.csv"), ["a", "b"], [values[::-1], values])
        empty = (str(tmp_path / "empty.csv"), ["fpr", "tpr"], [values[:0], values[:0]])
        catdcor.cli._write_csvs([ranked, pairs, empty])
        for path, header, columns in (ranked, pairs, empty):
            assert open(path, "rb").read() == per_cell_csv(header, columns).encode()


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
