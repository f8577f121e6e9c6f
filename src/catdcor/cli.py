"""Command-line interface: encode, test, screen, and simulate subcommands.

Every subcommand is a pure function of its input files, flags, and seed:
identical invocations write byte-identical outputs.  Machine-readable
results are JSON; tabular data for plotting is CSV.  Errors exit nonzero
with a one-line structured message on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
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
    _alt_many,
    _interval,
    _margin_laws,
    _null_law,
    _permutation_pvalues,
    _raised,
    _require_replicates,
    _require_seed,
    _tail_cases,
    _tails,
)
from .screening import apply_changepoint, screen
from .simulate import roc_points, run_benchmark

__all__ = ["Dataset", "ingest", "main"]

@dataclass(frozen=True)
class Dataset:
    """Label-coded columns of a rectangular categorical data file."""

    column_names: tuple[str, ...]
    codes: np.ndarray  # (n_rows, n_columns) integer codes, each column contiguous
    row_count: int
    dropped_rows: int


# Records are decoded by bytes in chunks of about this many bytes.
_CHUNK = 1 << 16
# A cell packs into words of 7 bytes each, tagged with its length (see
# _slots); _MASKS[t] keeps the min(t, 7) bytes above a word's tag byte.
_MASKS = np.array([((1 << (8 * min(t, 7))) - 1) << 8 for t in range(9)], dtype=np.uint64)
# Multiplier that folds a text's words into one key.
_FOLD = np.uint64(0x9E3779B97F4A7C15)
# The odd multipliers the slot search tries for each table size: powers of _FOLD.
_MULTIPLIERS = np.cumprod(np.full(64, _FOLD))
# Cap of the slot search, in hashed keys, and of the slot tables, in entries.
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
                codes = labels.table[labels.group, text_ids.reshape(-1, len(names))]
    except OSError as exc:
        raise ConfigurationError(f"cannot read {csv_path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{csv_path}: not valid UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        raise ParseError(f"{csv_path}: {exc}") from None
    missing_cols = [name for name, pos in zip(names, positions) if pos is None]
    if missing_cols:
        raise ConfigurationError(
            f"metadata variables absent from the CSV header: {missing_cols}"
        )
    kept, bad = _drop_missing(codes, 0)
    if bad:
        raise _label_error(csv_path, labels, positions, *bad)
    return Dataset(names, np.asfortranarray(kept), len(kept), len(codes) - len(kept))


def _drop_missing(codes: np.ndarray, record: int) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The rows of ``codes`` (records from ``record`` on) without a missing
    token, and the record and column of the first undeclared text left."""
    if codes.min(initial=0) < 0:
        keep = np.flatnonzero((codes != -1).all(axis=1))
        codes = codes[keep]
        bad = np.flatnonzero(codes == -2)
        if bad.size:
            row, col = divmod(int(bad[0]), codes.shape[1])
            return codes, (record + int(keep[row]), col)
    return codes, None


def _label_error(csv_path: str, labels: _Labels, positions: list[int | None],
                 record: int, col: int) -> LabelError:
    """The error for the undeclared text of analyzed column ``col`` in ``record``."""
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        cell = next(itertools.islice(csv.reader(fh), record + 1, None))[positions[col]]
    return LabelError(f"{csv_path}: line {record + 2}, column {labels.names[col]!r}: "
                      f"label {cell!r} is not in the declared level set")


class _Slots(NamedTuple):
    """A collision-free multiply-shift table of the declared texts' packed words."""

    a: np.uint64       # odd multiplier: a key's slot is (key * a) >> shift
    shift: np.uint64   # 64 - b for a table of 2**b slots
    ids: np.ndarray    # text id per slot, then the undeclared id for "not found"
    words: np.ndarray  # (words per text, 2**b)


def _slots(texts: list[bytes], rows: int) -> _Slots | None:
    """The table with the fewest slots found, or None within the cap.

    A text packs into little-endian words: word k holds bytes 7k to 7k + 6,
    zero past the end, above a tag byte min(max(length - 7k, 0), 8), so
    equal words mean equal texts, and a cell too long for the words gets a
    last tag of 8, which no declared text has.  n keys fall into 2**b slots
    without a collision with odds of about exp(-n**2 / 2**(b + 1)), so b
    starts near 2 log2(n) - 5 and grows until one of ``_MULTIPLIERS``
    works, while at most ``_SLOT_SEARCH`` keys are hashed and the tables,
    ``rows`` code rows and the words by 2**b slots, stay within that many
    entries: thousands of labels exhaust it.
    """
    n = len(texts)
    words = np.array([[int.from_bytes(text[7 * k:7 * k + 7], "little") << 8
                       | min(max(len(text) - 7 * k, 0), 8) for text in texts]
                      for k in range(max(1, -(-max(map(len, texts)) // 7)))], dtype=np.uint64)
    keys = functools.reduce(lambda keys, word: keys * _FOLD + word, words)
    bits, hashed = max(1, (n - 1).bit_length(), (n * n).bit_length() - 5), n * _MULTIPLIERS.size
    while hashed <= _SLOT_SEARCH and (rows + len(words)) << bits <= _SLOT_SEARCH:
        shift = np.uint64(64 - bits)
        slot = np.sort((_MULTIPLIERS[:, None] * keys) >> shift, axis=1)
        distinct = (slot[:, 1:] != slot[:, :-1]).all(axis=1)
        if distinct.any():
            a = _MULTIPLIERS[np.argmax(distinct)]
            slot = ((keys * a) >> shift).view(np.int64)
            ids = np.full((1 << bits) + 1, n, dtype=np.int64)
            ids[slot] = np.arange(n)
            slot_words = np.zeros((len(words), 1 << bits), dtype=np.uint64)
            slot_words[:, slot] = words
            return _Slots(a, shift, ids, slot_words)
        bits, hashed = bits + 1, hashed + n * _MULTIPLIERS.size
    return None


def _slot_index(word_at: np.ndarray, before: np.ndarray, length: np.ndarray,
                slots: _Slots) -> np.ndarray:
    """Slots of the cells after byte offsets ``before``, ``length`` bytes long.

    ``word_at[i]`` holds the 8 bytes from offset i, so a cell's word k is
    read from 7k bytes past the byte before it, whose place the tag takes.
    A cell whose packed words differ from its slot's gets the "not found"
    slot after the table.
    """
    words = []
    for k in range(len(slots.words)):
        word = word_at[before + 7 * k].view("<u8")
        tag = np.clip(length - 7 * k, 0, 8)
        word &= _MASKS[tag]
        word |= tag.view(np.uint64)
        words.append(word)
    keys = functools.reduce(lambda keys, word: keys * _FOLD + word, words)
    slot = ((keys * slots.a) >> slots.shift).view(np.int64)
    found = functools.reduce(operator.and_, [row[slot] == word
                                             for row, word in zip(slots.words, words)])
    return np.where(found, slot, len(slots.ids) - 1)


def _ingest_bytes(csv_path: str, labels: _Labels) -> Dataset | None:
    """The byte route of :func:`ingest`; None for a file it leaves to streaming.

    It decodes a file whole or declines it, and raises only the
    :class:`LabelError` of :func:`_label_error`.  It declines an unreadable
    file, a ``"`` byte, a ``\\r`` outside a CRLF line end, invalid UTF-8, a
    cell over ``csv.field_size_limit()`` bytes, a ragged or blank record,
    and an analyzed column absent from the header (or none at all).  Each
    chunk of records is split at its ``,`` and ``\\n`` bytes; each
    analyzed cell's packed bytes hash to a slot of a :class:`_Slots` table,
    and one table of slots by column group gives its code.  Rows with a
    missing token are dropped in the chunk, before the rest land in the
    column-major code array.  A label set that :func:`_slots` finds no
    table for streams too.
    """
    try:
        with open(csv_path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
    if b'"' in raw or b"\r" in raw:
        return None
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return None
    limit = csv.field_size_limit()
    head = raw[:raw.find(b"\n")] if b"\n" in raw else raw
    header = head.split(b",") if head else []
    width = len(header)
    positions = _positions([cell.decode("utf-8") for cell in header], labels.names)
    if not positions or None in positions or any(len(cell) > limit for cell in header):
        return None
    slots = _slots([text.encode("utf-8") for text in labels.ids], len(labels.table))
    if slots is None:
        return None
    # Analyzed column j's code for the text in slot s is table[group[j], s].
    table = labels.table[:, slots.ids]
    offset = labels.group * table.shape[1]
    gather = positions != list(range(width))
    # A newline to end the last record, and zero bytes so that every word
    # read for a cell stays inside the buffer.
    pad = 7 * len(slots.words)
    data = b"".join((raw, b"" if raw.endswith(b"\n") else b"\n", bytes(pad)))
    del raw
    buf = np.frombuffer(data, dtype=np.uint8)
    # The 8 bytes from each offset; numpy gathers S8 faster than unaligned '<u8'.
    word_at = np.ndarray((len(data) - 7,), dtype="S8", buffer=data, strides=(1,))
    pos, end = len(head) + 1, len(data) - pad
    codes = np.empty((data.count(b"\n", pos, end), len(positions)), dtype=np.int64, order="F")
    record, kept, bad = 0, 0, None
    while pos < end:
        chunk_end = data.find(b"\n", min(pos + _CHUNK, end) - 1) + 1
        # The chunk's bytes, from the newline that ends the line before it.
        chunk = buf[pos - 1:chunk_end]
        delims = np.flatnonzero((chunk == ord(",")) | (chunk == ord("\n")))
        line_ends = np.flatnonzero(chunk[delims] == ord("\n"))
        line_len = np.diff(delims[line_ends]) - 1
        length = np.diff(delims) - 1
        if line_len.max() > limit and length.max() > limit:
            return None
        # csv.reader reads a blank line as a record of no fields.
        if (np.diff(line_ends) != width).any() or not line_len.all():
            return None
        lines = line_ends.size - 1
        # Every line has ``width`` cells, so cell (r, j) follows delimiter
        # r * width + j and has length[r * width + j] bytes.
        before = delims[:-1]
        if gather:
            before = before.reshape(lines, width)[:, positions]
            length = length.reshape(lines, width)[:, positions]
        slot = _slot_index(word_at[pos - 1:], before, length, slots).reshape(lines, -1)
        slot += offset
        rows, first_bad = _drop_missing(table.ravel()[slot], record)
        bad = bad or first_bad
        codes[kept:kept + len(rows)] = rows
        kept += len(rows)
        record += lines
        pos = chunk_end
    if bad:
        raise _label_error(csv_path, labels, positions, *bad)
    # Rows past ``kept`` were never written; the row slice keeps each column contiguous.
    return Dataset(labels.names, codes[:kept], kept, record - kept)


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

    A file with no ``"`` byte and no fault but a bad label is decoded by
    bytes, CRLF line ends included (see :func:`_ingest_bytes`).  Any other
    file is streamed through ``csv.reader``, which reports every fault in
    the order it reaches them; a bad label gets the same error either way.
    Peak memory grows with the number of analyzed cells: by bytes, about
    12 bytes each (the int64 codes and the file) on 1000 records of 2000
    two-byte labels, since rows are dropped before the codes are stored.
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
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {out_path}: {exc}") from None


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

    r = names.index(args.response)
    keep = [j for j in range(len(names)) if j != r]
    # A view, not a copy, when the response is the first or the last column.
    columns = slice(1, None) if r == 0 else slice(None, r) if r == len(keep) else keep
    return (dataset, dataset.codes[:, r], dist(args.response),
            [names[j] for j in keep], dataset.codes[:, columns], [dist(names[j]) for j in keep])


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
    share a distance matrix, scored once per estimator, with the
    delta-method variances of the intervals scored per block too.  The
    variables' sides of the null spectrum come from one ``eigvalsh`` call
    per matrix size and the response's side is built once; the analytic
    tails of all variables run in one stack per weight count.  The
    permutation p-values of all variables that need them come after the
    loop, from one set of response permutations.  All of this is computed
    without raising; each variable then warns and fails in its turn, in a
    fixed order: spectrum (with its zero-category warning), zero total
    weight, the ``--estimator`` statistic, the replicate count
    (permutation only), the other statistic, the tail (analytic only),
    the interval.
    """
    dataset, y, dy, names, x, dists = _variables(args)
    n = float(dataset.row_count)
    if names and not n:
        raise DistributionError("empty sample")
    other = "unbiased" if args.estimator == "mle" else "mle"
    # The bias-corrected stack divides by n - 3, so below n = 4 it is not
    # scored.
    kinds = [kind for kind in (args.estimator, other) if kind == "mle" or n >= 4]
    scored = {kind: (np.zeros(len(names)), np.zeros(len(names), dtype=bool)) for kind in kinds}
    rows: list = [None] * len(names)
    asymp_var = np.zeros(len(names))
    for dx, block, counts in _tabulated(x, y, dists, dy.n_categories):
        for kind, (values, degenerate) in scored.items():
            values[block], degenerate[block] = _score_many(counts, n, dx, dy, kind)
        for s, row in zip(block, counts.sum(axis=2) / n):
            rows[s] = row
        asymp_var[block] = _alt_many(counts / n, dx, dy)[1]

    def statistic(s: int, kind: str) -> float:
        if kind == "unbiased":
            _require_u_sample(n)
        values, degenerate = scored[kind]
        _require_nondegenerate(degenerate[s])
        return float(values[s])

    laws = _margin_laws(rows, [dx.d for dx in dists])
    if names:
        col = np.bincount(y, minlength=dy.n_categories) / n
        response_law = _margin_laws([col], [dy.d])[0]
    # Small-sample guard: the asymptotic law is unreliable when any
    # observed category is rarer than 5/n.
    methods = [args.pvalue if args.pvalue == "permutation" or min(row.min(), col.min()) >= 5.0 / n
               else "permutation" for row in rows]
    # The analytic tails of every variable whose earlier steps pass, stacked.
    nulls, cases = [], {}
    for s, (_, law) in enumerate(laws):
        sides = (law, response_law[1])
        nulls.append(None if any(isinstance(v, Exception) for v in sides) else _null_law(*sides))
        if (methods[s] == "analytic" and nulls[s] and nulls[s].dvar_x * nulls[s].dvar_y > 0.0
                and all(kind in scored and not scored[kind][1][s] for kind in (args.estimator, other))):
            cases[s] = _tail_cases(nulls[s], {kind: n * scored[kind][0][s]
                                              for kind in (args.estimator, other)})
    found = iter(_tails([case for per in cases.values() for case in per.values()]))
    tails = {s: {kind: next(found) for kind in per} for s, per in cases.items()}

    results = []
    permuted: list[tuple[dict, tuple]] = []  # (p-values to fill, variable)
    for s, (name, dx) in enumerate(zip(names, dists)):
        # In null_spectrum's order: the variable's side, then the response's.
        _raised(laws[s], stacklevel=2)
        if s == 0:
            _raised(response_law, stacklevel=2)
        ns = nulls[s]
        ns.normalizer()
        dcor2 = {args.estimator: statistic(s, args.estimator)}
        if methods[s] == "permutation":
            _require_replicates(args.perms)
        dcor2[other] = statistic(s, other)
        if methods[s] == "permutation":
            p_values = {}
            permuted.append((p_values, (x[:, s], dx, dcor2)))
        else:
            p_values = tails[s]
            for p in p_values.values():
                if isinstance(p, Exception):
                    raise p
        ci_lo, ci_hi = _interval(dcor2[args.estimator], asymp_var[s], n, 0.95, args.estimator)
        results.append({
            "variable": name,
            "n": n,
            "statistic": {kind: n * value for kind, value in dcor2.items()},
            "p_values": p_values,
            "method": "imhof" if methods[s] == "analytic" else "permutation",
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed"):
            _require_seed(args.seed)
        args.func(args)
    except CatdcorError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
