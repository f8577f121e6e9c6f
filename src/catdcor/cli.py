"""Command-line interface: encode, test, screen, and simulate subcommands.

Every subcommand is a pure function of its input files, flags, and seed:
identical invocations write byte-identical outputs.  Machine-readable
results are JSON; tabular data for plotting is CSV.  Errors exit nonzero
with a one-line structured message on stderr.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import operator
import os
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .encodings import DistanceMatrix, Encoding, distance_matrix, load_metadata
from .estimators import _require_nondegenerate, _require_u_sample, _score_many, _tabulated
from .exceptions import (
    CatdcorError,
    ConfigurationError,
    DistributionError,
    InsufficientFeaturesError,
    LabelError,
    ParseError,
)
from .inference import (
    _interval,
    _margin_law,
    _null_law,
    _permutation_pvalues,
    _positive_part,
    _require_replicates,
    _require_seed,
    _test_result,
)
from .screening import apply_changepoint, screen
from .simulate import roc_points, run_benchmark

__all__ = ["Dataset", "ingest", "main"]

_WORKERS_ENV = "CATDCOR_WORKERS"


@dataclass(frozen=True)
class Dataset:
    """Label-coded columns of a rectangular categorical data file."""

    column_names: tuple[str, ...]
    codes: np.ndarray  # (n_rows, n_columns) integer codes
    row_count: int
    dropped_rows: int


# Records are decoded by bytes in chunks of about this many bytes.
_CHUNK = 1 << 16
# _MASKS[k] keeps the low k bytes of a little-endian word.
_MASKS = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)
# Multiplier that folds a text's later words into its slot key.
_FOLD = np.uint64(0x9E3779B97F4A7C15)
# Work cap, in remainders, of the search for a collision-free slot table.
_SLOT_SEARCH = 1 << 22


@dataclass(frozen=True)
class _Labels:
    """The declared cell texts, numbered, and each analyzed column's codes.

    ``ids`` numbers the missing tokens, then every other declared label; a
    cell's text id is its number there, or ``len(ids)`` for any other
    text.  ``table[group[j], t]`` is analyzed column j's code for text id
    t: its level, -1 for a missing token (which wins over a label with the
    same text) and -2 for a text the column does not declare.
    """

    names: tuple[str, ...]
    ids: dict[str, int]
    table: np.ndarray
    group: np.ndarray

    @classmethod
    def of(cls, encodings: dict[str, Encoding], missing_tokens: Sequence[str]) -> "_Labels":
        rows: dict[tuple[str, ...], int] = {}
        group = np.array([rows.setdefault(enc.labels, len(rows))
                          for enc in encodings.values()], dtype=np.intp)
        texts = dict.fromkeys(itertools.chain(missing_tokens, *rows))
        ids = {text: t for t, text in enumerate(texts)}
        table = np.full((len(rows), len(ids) + 1), -2, dtype=np.int64)
        for row, labels in zip(table, rows):
            row[[ids[label] for label in labels]] = np.arange(len(labels))
        table[:, [ids[token] for token in missing_tokens]] = -1
        return cls(tuple(encodings), ids, table, group)

    def codes(self, text_ids: np.ndarray) -> np.ndarray:
        """Codes of the text ids of the analyzed cells, shape (records, columns)."""
        return self.table.ravel()[text_ids + self.group * self.table.shape[1]]


def _positions(header: list[str], names: tuple[str, ...]) -> list[int | None]:
    """Each name's first position in the header, None where it is absent."""
    first: dict[str, int] = {}
    for pos, name in enumerate(header):
        first.setdefault(name, pos)
    return [first.get(name) for name in names]


def _checked_records(reader, width: int, csv_path: str):
    """Yield the records after the header, failing on the first ragged one.

    Line numbers count records (the header is line 1), so a quoted
    newline inside a cell does not shift them.
    """
    for line_no, row in enumerate(reader, start=2):
        if len(row) != width:
            raise ParseError(
                f"{csv_path}: line {line_no} has {len(row)} fields, expected {width}"
            )
        yield row


def _ingest_stream(csv_path: str, labels: _Labels) -> Dataset:
    """The streaming route of :func:`ingest`, through ``csv.reader``."""
    names = labels.names
    try:
        with open(csv_path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{csv_path}: empty file, expected a header row")
            records = _checked_records(reader, len(header), csv_path)
            positions = _positions(header, names)
            if None in positions or not names:
                codes = np.zeros((sum(1 for _ in records), 0), dtype=np.int64)
            else:
                # One analyzed column makes the getter return a cell, not a tuple.
                cells = map(operator.itemgetter(*positions), records)
                if len(names) > 1:
                    cells = itertools.chain.from_iterable(cells)
                undeclared = itertools.repeat(len(labels.ids))
                text_ids = np.fromiter(map(labels.ids.get, cells, undeclared),
                                       dtype=np.int64)
                codes = labels.codes(text_ids.reshape(-1, len(names)))
    except OSError as exc:
        raise ConfigurationError(f"cannot read {csv_path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{csv_path}: not valid UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        raise ParseError(f"{csv_path}: {exc}") from None
    return _dataset(csv_path, labels, positions, np.asfortranarray(codes))


class _Slots(NamedTuple):
    """A collision-free ``key % m`` table of the declared texts' packed words."""

    m: np.uint64
    ids: np.ndarray    # text id per slot, the undeclared id where empty
    words: np.ndarray  # (words per text, m): the bytes, then the length
    undeclared: int    # the text id of any other text


def _slot_keys(words) -> np.ndarray:
    """One key per text from its packed words (a sequence of arrays)."""
    keys = words[0]
    for word in words[1:]:
        keys = keys * _FOLD + word
    return keys


def _slots(texts: list[bytes]) -> _Slots | None:
    """The table with the smallest ``m``, or None if none lies within the cap.

    A text packs into little-endian words of 8 bytes, zero past its end,
    followed by its length.  The search tries ``m`` upward from the number
    of texts, a batch of 256 at a time, for at most ``_SLOT_SEARCH``
    remainders: a few hundred labels need ``m`` of a few thousand, while
    thousands of labels can exhaust the cap.
    """
    n_words = max(1, -(-max(map(len, texts)) // 8))
    words = np.array([[int.from_bytes(text[8 * k:8 * k + 8], "little") for text in texts]
                      for k in range(n_words)] + [list(map(len, texts))], dtype=np.uint64)
    keys = _slot_keys(words)
    for low in range(len(texts), len(texts) + _SLOT_SEARCH // len(texts), 256):
        moduli = np.arange(low, low + 256, dtype=np.uint64)
        rem = np.sort(keys[:, None] % moduli, axis=0)
        distinct = (rem[1:] != rem[:-1]).all(axis=0)
        if distinct.any():
            m = moduli[np.argmax(distinct)]
            slot = (keys % m).view(np.int64)
            ids = np.full(int(m), len(texts), dtype=np.int64)
            ids[slot] = np.arange(len(texts))
            slot_words = np.zeros((len(words), int(m)), dtype=np.uint64)
            slot_words[:, slot] = words
            return _Slots(m, ids, slot_words, len(texts))
    return None


def _text_ids(word_at: np.ndarray, start: np.ndarray, length: np.ndarray,
              slots: _Slots) -> np.ndarray:
    """Text ids of the cells at byte offsets ``start``, ``length`` bytes long.

    ``word_at[i]`` is the little-endian word of the 8 bytes from offset i.
    """
    words = []
    for k in range(len(slots.words) - 1):
        word = word_at[start + 8 * k]
        word &= _MASKS[np.clip(length - 8 * k, 0, 8)]
        words.append(word)
    words.append(length.astype(np.uint64))
    slot = (_slot_keys(words) % slots.m).view(np.int64)
    found = slots.words[0][slot] == words[0]
    for word, slot_word in zip(words[1:], slots.words[1:]):
        found &= slot_word[slot] == word
    return np.where(found, slots.ids[slot], slots.undeclared)


def _ingest_bytes(csv_path: str, labels: _Labels) -> Dataset | None:
    """The byte route of :func:`ingest`; None for a file it leaves to streaming.

    It takes every file with no ``"`` byte, no ``\\r`` outside a CRLF line
    end and no cell over ``csv.field_size_limit()`` bytes, and splits it
    as ``csv.reader`` would: a blank line is a record of 0 fields.  Each
    chunk of records is split at its ``,`` and ``\\n`` bytes, and each
    analyzed cell is looked up by its packed bytes in a :class:`_Slots`
    table; a label set that :func:`_slots` finds no table for streams too.
    """
    try:
        with open(csv_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {csv_path}: {exc}") from None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
    if b'"' in raw or b"\r" in raw:
        return None
    if not raw:
        raise ParseError(f"{csv_path}: empty file, expected a header row")
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{csv_path}: not valid UTF-8: {exc.reason}") from None
    limit = csv.field_size_limit()
    head = raw[:raw.find(b"\n")] if b"\n" in raw else raw
    header = head.split(b",") if head else []
    if any(len(cell) > limit for cell in header):
        return None
    width = len(header)
    positions = _positions([cell.decode("utf-8") for cell in header], labels.names)
    cols = np.array([] if None in positions else positions, dtype=np.int64)
    slots = _slots([text.encode("utf-8") for text in labels.ids]) if cols.size else None
    if cols.size and slots is None:
        return None
    # A newline to end the last record, and zero bytes so that every word
    # read from a cell start stays inside the buffer.
    pad = 8 * (len(slots.words) - 1 if slots else 1)
    data = b"".join((raw, b"" if raw.endswith(b"\n") else b"\n", bytes(pad)))
    del raw
    buf = np.frombuffer(data, dtype=np.uint8)
    word_at = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    pos, end = len(head) + 1, len(data) - pad
    codes = np.empty((data.count(b"\n", pos, end), cols.size), dtype=np.int64, order="F")
    record = 0
    while pos < end:
        chunk_end = data.find(b"\n", min(pos + _CHUNK, end) - 1) + 1
        # The chunk's bytes, from the newline that ends the line before it.
        chunk = buf[pos - 1:chunk_end]
        delims = np.flatnonzero((chunk == ord(",")) | (chunk == ord("\n")))
        line_ends = np.flatnonzero(chunk[delims] == ord("\n"))
        line_len = np.diff(delims[line_ends]) - 1
        if line_len.max() > limit and (np.diff(delims) - 1).max() > limit:
            return None
        fields = np.diff(line_ends)
        fields[line_len == 0] = 0
        ragged = np.flatnonzero(fields != width)
        if ragged.size:
            line = int(ragged[0])
            raise ParseError(f"{csv_path}: line {record + line + 2} has "
                             f"{fields[line]} fields, expected {width}")
        lines = line_ends.size - 1
        if cols.size:
            # Every line has ``width`` cells, so cell (r, j) lies between
            # delimiters r * width + j and r * width + j + 1.
            before = delims[:-1].reshape(lines, width)[:, cols]
            length = delims[1:].reshape(lines, width)[:, cols] - before - 1
            codes[record:record + lines] = labels.codes(
                _text_ids(word_at, before + pos, length, slots))
        record += lines
        pos = chunk_end
    return _dataset(csv_path, labels, positions, codes)


def _dataset(csv_path: str, labels: _Labels, positions: list[int | None],
             codes: np.ndarray) -> Dataset:
    """Drop the rows with a missing token and check the labels of the rest."""
    names = labels.names
    missing_cols = [name for name, pos in zip(names, positions) if pos is None]
    if missing_cols:
        raise ConfigurationError(
            f"metadata variables absent from the CSV header: {missing_cols}"
        )
    dropped = (codes == -1).any(axis=1)
    if dropped.any():
        codes = codes.T.compress(~dropped, axis=1).T
    bad = codes < -1
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), len(names))
        record = int(np.flatnonzero(~dropped)[row])
        with open(csv_path, "r", encoding="utf-8", newline="") as fh:
            cells = next(itertools.islice(csv.reader(fh), record + 1, None))
        raise LabelError(
            f"{csv_path}: line {record + 2}, column {names[col]!r}: "
            f"label {cells[positions[col]]!r} is not in the declared level set"
        )
    return Dataset(
        column_names=names,
        codes=codes,
        row_count=codes.shape[0],
        dropped_rows=int(dropped.sum()),
    )


def ingest(csv_path: str, metadata_path: str,
           missing_tokens: tuple[str, ...] = ("",)
           ) -> tuple[Dataset, dict[str, Encoding]]:
    """Read a CSV with a header row against declared encoding metadata.

    Only columns present in the metadata are analyzed; each must exist in
    the file, and a header name that appears twice resolves to its first
    occurrence.  Cells of other columns are never checked.  Rows
    containing a missing-value token in any analyzed column are dropped
    (the count is reported on the Dataset); a missing token wins over a
    declared label with the same text.  Any other label outside a
    column's declared level set raises :class:`LabelError` naming the
    column and the line, where line N is the N-th record of the file
    (the header is line 1).  A record of the wrong width raises
    :class:`ParseError`, checked before the metadata columns and labels.

    A file with no ``"`` byte is decoded by bytes, CRLF line ends
    included.  Only a file with quotes, with a lone ``\\r``, or with a
    cell over ``csv.field_size_limit()`` is streamed through
    ``csv.reader`` (so is any file when the metadata declares thousands
    of distinct labels; see :func:`_slots`).  Both routes number each
    cell by its declared text and decode every column through one table,
    so peak memory grows with the number of analyzed cells: about 19
    bytes each on a wide file of two-byte labels.
    """
    encodings = load_metadata(metadata_path)
    labels = _Labels.of(encodings, missing_tokens)
    dataset = _ingest_bytes(csv_path, labels)
    if dataset is None:
        dataset = _ingest_stream(csv_path, labels)
    return dataset, encodings


def _numpy_json(value):
    """A numpy array or scalar as Python data (``np.float64``, a float, never gets here)."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write(text: str, out_path: str | None) -> None:
    """Write ``text`` to ``out_path``, or to stdout when it is None."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_json(payload: dict, out_path: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True, default=_numpy_json) + "\n", out_path)


def _write_csv(rows: Iterable[Sequence], out_path: str | None, header: list[str]) -> None:
    """One line per row of Python ints and floats, each cell its ``repr``."""
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    _write("\n".join(lines) + "\n", out_path)


def _variables(args: argparse.Namespace) -> tuple:
    """Ingest ``args.input`` and split off the ``args.response`` column.

    Returns the dataset, the response's codes and distance matrix, and the
    other variables' names (in column order), codes ``(rows, names)`` and
    distance matrices.  Many variables share one encoding: each distinct
    matrix is built once, and the kernels score its variables together.
    """
    dataset, encodings = ingest(args.input, args.metadata)
    names = dataset.column_names
    if args.response not in names:
        raise ConfigurationError(
            f"response column {args.response!r} is not among the analyzed variables "
            f"{list(names)}"
        )
    shared: dict[tuple, DistanceMatrix] = {}

    def dist(name: str) -> DistanceMatrix:
        points = encodings[name].points
        key = (points.shape, points.tobytes())
        if key not in shared:
            shared[key] = distance_matrix(encodings[name])
        return shared[key]

    keep = [j for j, name in enumerate(names) if name != args.response]
    return (dataset, dataset.codes[:, names.index(args.response)], dist(args.response),
            [names[j] for j in keep], dataset.codes[:, keep], [dist(names[j]) for j in keep])


def cmd_encode(args: argparse.Namespace) -> None:
    """Dump each declared variable's rescaled distance matrix as CSV blocks."""
    encodings = load_metadata(args.metadata)
    lines: list[str] = []
    for name, enc in encodings.items():
        dm = distance_matrix(enc)
        lines.append(f"# variable,{name},kind,{enc.kind},scale,{dm.scale!r}")
        lines.append("," + ",".join(enc.labels))
        for label, row in zip(enc.labels, dm.d):
            lines.append(label + "," + ",".join(repr(float(v)) for v in row))
    _write("\n".join(lines) + "\n", args.out)


def cmd_test(args: argparse.Namespace) -> None:
    """Test every non-response variable for dependence on the response.

    Variables are tabulated and scored per encoding group, as in
    ``screen``: one tabulation per block of at most 128 variables that
    share a distance matrix, scored once per estimator.  The response's
    side of the null spectrum is built once, at the first variable; each
    variable adds its own side, and both analytic tails come from that
    spectrum.  The interval is centered at the estimate already scored.
    The permutation p-values of all variables that need them come after
    the loop, from one set of response permutations.  A degenerate
    variable fails in a fixed order: spectrum, zero total weight, the
    ``--estimator`` statistic, the replicate count (permutation only), the
    other statistic.
    """
    dataset, y, dy, names, x, dists = _variables(args)
    n = float(dataset.row_count)
    if names and not n:
        raise DistributionError("empty sample")
    other = "unbiased" if args.estimator == "mle" else "mle"
    # The stacks are scored without raising; each variable raises from
    # them in its turn.  The bias-corrected stack divides by n - 3, so
    # below n = 4 it is not scored.
    kinds = [kind for kind in (args.estimator, other) if kind == "mle" or n >= 4]
    tables: dict[int, np.ndarray] = {}
    scored = {kind: (np.zeros(len(names)), np.zeros(len(names), dtype=bool)) for kind in kinds}
    for dx, block, counts in _tabulated(x, y, dists, dy.n_categories):
        tables.update(zip(block, counts))
        for kind, (values, degenerate) in scored.items():
            values[block], degenerate[block] = _score_many(counts, n, dx, dy, kind)

    def statistic(s: int, kind: str) -> float:
        if kind == "unbiased":
            _require_u_sample(n)
        values, degenerate = scored[kind]
        _require_nondegenerate(degenerate[s])
        return float(values[s])

    results = []
    permuted: list[tuple[dict, tuple]] = []  # (p-values to fill, variable)
    response_law = None  # the response's side, built at the first variable
    for s, (name, dx) in enumerate(zip(names, dists)):
        counts = tables[s]
        row, col = counts.sum(axis=1) / n, counts.sum(axis=0) / n
        method = args.pvalue
        # Small-sample guard: the asymptotic law is unreliable when any
        # observed category is rarer than 5/n.
        if method == "analytic" and np.any(np.concatenate([row, col]) < 5.0 / n):
            method = "permutation"
        # In null_spectrum's order: both margins' zero-count categories are
        # dropped before either spectrum is computed.
        row_part = _positive_part(row, dx)
        response_law = response_law or _margin_law(*_positive_part(col, dy))
        ns = _null_law(row_part, response_law)
        ns.normalizer()
        dcor2 = {args.estimator: statistic(s, args.estimator)}
        if method == "permutation":
            _require_replicates(args.perms)
        dcor2[other] = statistic(s, other)
        if method == "permutation":
            p_values = {}
            permuted.append((p_values, (x[:, s], dx, dcor2)))
        else:
            p_values = {kind: _test_result(ns, n * value, kind, n).p_value
                        for kind, value in dcor2.items()}
            method = "imhof"
        ci_lo, ci_hi = _interval(dcor2[args.estimator], counts, n, dx, dy, 0.95, args.estimator)
        results.append({
            "variable": name,
            "n": n,
            "statistic": {kind: n * value for kind, value in dcor2.items()},
            "p_values": p_values,
            "method": method,
            "lambdas": ns.lambdas,
            "mus": ns.mus,
            "bias_shift": ns.bias_shift,
            "confidence_interval": {
                "level": 0.95,
                "estimator": args.estimator,
                "lo": ci_lo,
                "hi": ci_hi,
            },
        })
    if permuted:
        found = _permutation_pvalues(y, dy, [v for _, v in permuted], args.perms, args.seed)
        for (p_values, _), values in zip(permuted, found):
            p_values.update(values)
    for entry in results:
        entry["p_value"] = entry["p_values"][args.estimator]
    _write_json({
        "response": args.response,
        "estimator": args.estimator,
        "rows_used": dataset.row_count,
        "rows_dropped": dataset.dropped_rows,
        "seed": args.seed,
        "results": results,
    }, args.out)


def cmd_screen(args: argparse.Namespace) -> None:
    """Rank all features by dependence on the response; emit report and CSV."""
    dataset, y, dy, names, x, dists = _variables(args)
    report = screen(x, y, dists, dy, estimator=args.estimator, feature_ids=names)
    try:
        apply_changepoint(report)
    except InsufficientFeaturesError:
        pass  # fewer than 4 features: report scores without a threshold
    _write_json({
        "response": args.response,
        "estimator": args.estimator,
        "rows_used": dataset.row_count,
        "rows_dropped": dataset.dropped_rows,
        "feature_ids": report.feature_ids,
        "values": report.values,
        "order": report.order,
        "degenerate": report.degenerate,
        "threshold": report.threshold,
        "changepoint_index": report.changepoint_index,
        "low_confidence": report.low_confidence,
        "selected": report.selected,
    }, args.out)
    ranked = enumerate(report.sorted_values().tolist(), start=1)
    _write_csv(ranked, _sibling_path(args.out, "_ranked.csv"), ["rank", "value"])


def _sibling_path(out_path: str | None, suffix: str) -> str | None:
    if out_path is None:
        return None
    stem, _ = os.path.splitext(out_path)
    return stem + suffix


def cmd_simulate(args: argparse.Namespace) -> None:
    """Run one benchmark scenario and emit metrics plus ROC point files."""
    encodings = tuple(args.encodings.split(","))
    results = run_benchmark(
        args.setting, n=args.n, encoding_kinds=encodings,
        n_features=args.features, relevant_count=args.relevant,
        replicates=args.replicates, seed=args.seed,
    )
    payload = {
        "setting": args.setting,
        "n": args.n,
        "features": args.features,
        "relevant": args.relevant,
        "replicates": args.replicates,
        "seed": args.seed,
        "construction": results[0].construction,
        "results": [
            {
                "encoding": r.encoding,
                "auc": r.auc,
                "sensitivity": r.sensitivity,
                "specificity": r.specificity,
                "replicate_aucs": r.replicate_aucs,
            }
            for r in results
        ],
    }
    _write_json(payload, args.out)
    delta = results[0].joint.delta()
    _write_csv(delta.tolist(),
               _sibling_path(args.out, "_delta.csv"),
               [f"col{j + 1}" for j in range(delta.shape[1])])
    for r in results:
        points = roc_points(r.pooled_scores, r.pooled_truth)
        _write_csv(points.tolist(),
                   _sibling_path(args.out, f"_roc_{r.encoding}.csv"),
                   ["fpr", "tpr"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catdcor",
        description="Distance correlation for categorical data: encode, "
                    "test, screen, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="dump rescaled distance matrices")
    enc.add_argument("--metadata", required=True)
    enc.add_argument("--out", default=None)
    enc.set_defaults(func=cmd_encode)

    for name, func in (("test", cmd_test), ("screen", cmd_screen)):
        cmd = sub.add_parser(name, help=f"{name} variables against a response")
        cmd.add_argument("--input", required=True)
        cmd.add_argument("--metadata", required=True)
        cmd.add_argument("--response", required=True)
        cmd.add_argument("--estimator", choices=("mle", "unbiased"), default="mle")
        if name == "test":
            cmd.add_argument("--pvalue", choices=("analytic", "permutation"),
                             default="analytic")
            cmd.add_argument("--perms", type=int, default=999)
            cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--out", default=None)
        cmd.set_defaults(func=func)

    sim = sub.add_parser("simulate", help="run a benchmark scenario")
    sim.add_argument("--setting", type=int, choices=range(1, 7), required=True)
    sim.add_argument("--n", type=int, default=100)
    sim.add_argument("--features", type=int, default=1000)
    sim.add_argument("--relevant", type=int, default=50)
    sim.add_argument("--replicates", type=int, default=3)
    sim.add_argument("--encodings", default="onehot,ordinal,semicircle")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)
    return parser


def _check_workers() -> None:
    value = os.environ.get(_WORKERS_ENV)
    if value is None:
        return
    try:
        workers = int(value)
    except ValueError:
        raise ConfigurationError(f"{_WORKERS_ENV} must be an integer, got {value!r}")
    if workers < 1:
        raise ConfigurationError(f"{_WORKERS_ENV} must be >= 1, got {workers}")
    # Computation is vectorized in-process; results are identical for any
    # worker count, which the determinism contract requires.


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_workers()
        if hasattr(args, "seed"):
            _require_seed(args.seed)
        args.func(args)
    except CatdcorError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
