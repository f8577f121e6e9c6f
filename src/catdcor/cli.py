"""Command-line interface: encode, test, screen, and simulate subcommands.

Every subcommand is a pure function of its input files, flags, and seed:
identical invocations write byte-identical outputs.  Machine-readable
results are JSON; tabular data for plotting is CSV.  Stderr gets one line
per warning, ``warning: <Category>: <message>`` in the order raised, then
for an error ``error: <Class>: <message>`` and exit status 1.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import functools
import itertools
import json
import operator
import os
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .encodings import DistanceMatrix, Encoding, distance_matrix, load_metadata
from .exceptions import (
    CatdcorError,
    ConfigurationError,
    InsufficientFeaturesError,
    LabelError,
    ParseError,
)
from .inference import _require_seed, _test_many
from .screening import _screen, apply_changepoint
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
# Bytes of kept code rows staged between copies into the columns.
_STAGE = 1 << 21


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
        with open(csv_path, "r", encoding="utf-8-sig", newline="") as fh:
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
    """The rows of ``codes`` (records from ``record`` on) without a missing token, moved
    to its front, and the record and column of the first undeclared text left."""
    if codes.min(initial=0) < 0:
        keep = np.flatnonzero((codes != -1).all(axis=1))
        codes[:keep.size] = codes[keep]
        codes = codes[:keep.size]
        bad = np.flatnonzero(codes == -2)
        if bad.size:
            row, col = divmod(int(bad[0]), codes.shape[1])
            return codes, (record + int(keep[row]), col)
    return codes, None


def _label_error(csv_path: str, labels: _Labels, positions: list[int | None],
                 record: int, col: int) -> LabelError:
    """The error for the undeclared text of analyzed column ``col`` in ``record``."""
    with open(csv_path, "r", encoding="utf-8-sig", newline="") as fh:
        cell = next(itertools.islice(csv.reader(fh), record + 1, None))[positions[col]]
    return LabelError(f"{csv_path}: line {record + 2}, column {labels.names[col]!r}: "
                      f"label {cell!r} is not in the declared level set")


class _Slots(NamedTuple):
    """A collision-free multiply-shift table of the declared texts' packed words."""

    a: np.uint64       # odd multiplier: a key's slot is (key * a) >> shift
    shift: np.uint64   # 64 - b for a table of 2**b slots
    ids: np.ndarray    # text id per slot, the undeclared id where no text hashes
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
            ids = np.full(1 << bits, n, dtype=np.int64)
            ids[slot] = np.arange(n)
            slot_words = np.zeros((len(words), 1 << bits), dtype=np.uint64)
            slot_words[:, slot] = words
            return _Slots(a, shift, ids, slot_words)
        bits, hashed = bits + 1, hashed + n * _MULTIPLIERS.size
    return None


def _cell_codes(windows: np.ndarray, before: np.ndarray, length: np.ndarray, slots: _Slots,
                table: np.ndarray, offset: np.ndarray, out: np.ndarray) -> None:
    """Write to ``out`` the codes of the cells after offsets ``before``, ``length`` bytes long.

    ``windows[i]`` holds the 8 bytes from offset i (``take`` reads an aligned
    copy), so a cell's word k is read from 7k bytes past the byte before it,
    whose place the tag takes.  Column j's code for slot s is
    ``table[offset[j] + s]``, or -2 where the cell's words differ from the slot's.
    That index is below ``table.size`` by construction: a slot is below 2**b,
    and ``offset[j]`` is column j's group number times 2**b.
    """
    cell_words = []
    for k in range(len(slots.words)):
        word = windows[7 * k:].take(before).view("<u8")
        tag = np.minimum(length, 8) if k == 0 else np.clip(length - 7 * k, 0, 8)
        word &= _MASKS[tag]
        word |= tag.view(np.uint64)
        cell_words.append(word)
    # A lone word is its own key, which must stay as it is for the check.
    slot = functools.reduce(lambda keys, word: keys * _FOLD + word, cell_words) * slots.a
    slot >>= slots.shift
    slot = slot.view(np.int64)
    mismatch = functools.reduce(operator.or_, [row.take(slot) != word
                                               for row, word in zip(slots.words, cell_words)])
    slot += offset
    # "wrap" never wraps an index in range, and unlike "raise" it writes to out unbuffered.
    np.take(table, slot, out=out, mode="wrap")
    np.copyto(out, -2, where=mismatch)


def _ingest_bytes(csv_path: str, labels: _Labels) -> Dataset | None:
    """The byte route of :func:`ingest`; None for a file it leaves to streaming.

    It decodes a file whole or declines it, and raises only the
    :class:`LabelError` of :func:`_label_error`.  It declines an unreadable
    file, a ``"`` byte, a ``\\r`` outside a CRLF line end, invalid UTF-8, a
    cell over ``csv.field_size_limit()`` bytes, a ragged or blank record,
    and an analyzed column absent from the header (or none at all).  Each
    chunk of records is split at its ``,`` and ``\\n`` bytes; each analyzed
    cell's packed bytes, read from the chunk's own copy of the file's 8-byte
    windows, hash to a slot of a :class:`_Slots` table that gives its code.
    Rows with a missing token are dropped in the chunk, and the rest are
    staged row-major, about 2 MB at a time, for the column-major code
    array.  After the chunk with the first bad label, later chunks are only
    split and checked for a fault that declines the file.  A label set that
    :func:`_slots` finds no table for streams too.
    """
    try:
        with open(csv_path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    raw = raw.removeprefix(codecs.BOM_UTF8)
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
    # Analyzed column j's code for the text in slot s is table[offset[j] + s].
    offset = labels.group * len(slots.ids)
    table = labels.table[:, slots.ids].ravel()
    gather = positions != list(range(width))
    # A newline to end the last record, and zero bytes so that every word
    # read for a cell stays inside the buffer.
    pad = 7 * len(slots.words)
    data = b"".join((raw, b"" if raw.endswith(b"\n") else b"\n", bytes(pad)))
    del raw
    buf = np.frombuffer(data, dtype=np.uint8)
    # The 8 bytes from each offset, unaligned: each chunk copies its own.
    word_at = np.ndarray((len(data) - 7,), dtype="S8", buffer=data, strides=(1,))
    pos, end = len(head) + 1, len(data) - pad
    codes = np.empty((np.count_nonzero(buf[pos:end] == ord("\n")), len(positions)),
                     dtype=np.int64, order="F")
    # Kept rows wait here, row-major, for one copy into the columns; a chunk's
    # rows fit, since a record takes at least max(width, 2) bytes.
    height = max(_STAGE // (8 * len(positions)), _CHUNK // max(width, 2) + 1)
    stage = np.empty((min(len(codes), height), len(positions)), dtype=np.int64)
    record, kept, staged, bad = 0, 0, 0, None
    while pos < end:
        chunk_end = data.find(b"\n", min(pos + _CHUNK, end) - 1) + 1
        # The chunk's bytes, from the newline that ends the line before it.
        chunk = buf[pos - 1:chunk_end]
        lines = np.count_nonzero(chunk == ord("\n")) - 1
        delims = np.flatnonzero((chunk == ord(",")) | (chunk == ord("\n")))
        line_len = np.diff(delims[::width]) - 1
        # Every line has ``width`` cells when the newlines are every width-th
        # delimiter; csv.reader reads a blank line as a record of no fields.
        if (delims.size != lines * width + 1 or (chunk[delims[::width]] != ord("\n")).any()
                or not line_len.all()):
            return None
        length = np.diff(delims)
        length -= 1
        if line_len.max() > limit and length.max() > limit:
            return None
        if bad:  # past a bad label only these checks can change the outcome
            pos = chunk_end
            continue
        # Cell (r, j) follows delimiter r * width + j and has length[r * width + j] bytes.
        before, length = delims[:-1].reshape(lines, width), length.reshape(lines, width)
        if gather:
            before, length = before[:, positions], length[:, positions]
        if staged + lines > len(stage):
            codes[kept - staged:kept] = stage[:staged]
            staged = 0
        rows = stage[staged:staged + lines]
        _cell_codes(word_at[pos - 1:chunk_end + pad - 7], before, length, slots, table,
                    offset, rows)
        rows, first_bad = _drop_missing(rows, record)
        bad = bad or first_bad
        staged += len(rows)
        kept += len(rows)
        record += lines
        pos = chunk_end
    if bad:
        raise _label_error(csv_path, labels, positions, *bad)
    codes[kept - staged:kept] = stage[:staged]
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
    Every kept cell is mapped through its column's declared labels, so
    each code lies in ``range(levels)``: nothing downstream checks it again.

    A file with no ``"`` byte and no fault but a bad label is decoded by
    bytes, CRLF line ends included (see :func:`_ingest_bytes`).  Any other
    file is streamed through ``csv.reader``, which reports every fault in
    the order it reaches them; a bad label gets the same error either way.
    Both routes skip a leading UTF-8 byte-order mark.
    Peak memory grows with the number of analyzed cells: by bytes, about
    13 bytes each (the int64 codes, the file and a 2 MB stage) on 1000
    records of 2000 two-byte labels, since rows are dropped before storing.
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


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """A C encoder whose item separator starts a line at ``depth`` of ``indent=2``."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "))


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2, sort_keys=True, default=_numpy_json)``, nested ``depth`` deep.

    A list of scalars (a numpy array's too) is one call of :func:`_encoder`.
    So is a dict, rebuilt in key order, with each value that is not a scalar
    as a 0 whose text is then replaced by its own, from here: encoded
    strings hold no raw newline, so the item separator splits the items.
    Anything else, such as a list of small records, ``json.dumps`` writes,
    faster than one C call per record, and each of its newlines takes the
    indent.
    """
    if isinstance(value, (np.ndarray, np.generic)) and not isinstance(value, (str, float)):
        value = _numpy_json(value)
    encoder = _encoder(depth + 1)
    if isinstance(value, (list, tuple)) and value and set(map(type, value)) <= _SCALARS:
        opening, body, closing = "[", encoder.encode(value)[1:-1], "]"
    elif isinstance(value, dict) and value:
        items = sorted(value.items())
        parts = encoder.encode({key: v if type(v) in _SCALARS else 0 for key, v in items})
        opening, closing = "{}"
        body = encoder.item_separator.join(
            part if type(v) in _SCALARS else part[:-1] + _json(v, depth + 1)
            for part, (_, v) in zip(parts[1:-1].split(encoder.item_separator), items))
    else:
        return json.dumps(value, indent=2, sort_keys=True,
                          default=_numpy_json).replace("\n", "\n" + "  " * depth)
    return opening + encoder.item_separator[1:] + body + "\n" + "  " * depth + closing


def _write_json(payload: dict, out_path: str | None) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True, default=_numpy_json)``
    and a newline, its flat lists and dicts encoded in C (see :func:`_json`)."""
    _write(_json(payload) + "\n", out_path)


def _write_csvs(files: Sequence[tuple[str | None, list[str], list[np.ndarray]]]) -> None:
    """Write each ``(out_path, header, columns)`` as CSV, one line per row.

    Float cells are their shortest round-trip ``repr``, formatted once per
    distinct bit pattern of all files' floats; integer cells their ``str``.
    """
    floats = [c for _, _, columns in files for c in columns if c.dtype.kind == "f"]
    # Unique int64 views keep 0.0 and -0.0 apart; unique floats would merge them.
    patterns, where = np.unique(np.concatenate(
        [np.asarray(c, dtype=np.float64).view(np.int64) for c in floats]), return_inverse=True)
    table = np.array(list(map(repr, patterns.view(np.float64).tolist())), dtype=object)
    texts = iter(np.split(table[where], np.cumsum([len(c) for c in floats])[:-1]))
    for out_path, header, columns in files:
        cells = np.full((len(columns[0]), 2 * len(columns)), ",", dtype=object)
        cells[:, -1] = "\n"
        for j, column in enumerate(columns):
            cells[:, 2 * j] = (next(texts) if column.dtype.kind == "f"
                               else list(map(str, column.tolist())))
        _write(",".join(header) + "\n" + "".join(cells.ravel().tolist()), out_path)


def _variables(args: argparse.Namespace) -> tuple:
    """Ingest ``args.input`` and split off the ``args.response`` column.

    Returns the report keys that ``catdcor test`` and ``catdcor screen``
    share, the response's codes and distance matrix, and the other
    variables' names (in column order), codes ``(rows, names)`` and
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
    # The matrix of each Encoding object (load_metadata shares one among the
    # variables of one kind and levels) and of each distinct array of points.
    shared: dict[int | tuple, DistanceMatrix] = {}

    def dist(name: str) -> DistanceMatrix:
        enc = encodings[name]
        if id(enc) not in shared:
            key = (enc.points.shape, enc.points.tobytes())
            shared[id(enc)] = shared[key] = shared.get(key) or distance_matrix(enc)
        return shared[id(enc)]

    r = names.index(args.response)
    keep = [j for j in range(len(names)) if j != r]
    # A view, not a copy, when the response is the first or the last column.
    columns = slice(1, None) if r == 0 else slice(None, r) if r == len(keep) else keep
    keys = {"response": args.response, "estimator": args.estimator,
            "rows_used": dataset.row_count, "rows_dropped": dataset.dropped_rows}
    return (keys, dataset.codes[:, r], dist(args.response),
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
    """Test every non-response variable against the response: ``inference._test_many``."""
    keys, y, dy, names, x, dists = _variables(args)
    results = _test_many(x, y, dists, dy, args.estimator, args.pvalue, args.perms, args.seed)
    _write_json({
        **keys,
        "seed": args.seed,
        "results": [{"variable": name, **entry} for name, entry in zip(names, results)],
    }, args.out)


def cmd_screen(args: argparse.Namespace) -> None:
    """Rank all features by dependence on the response; emit report and CSV."""
    keys, y, dy, names, x, dists = _variables(args)
    # Ingest mapped every kept cell through its column's labels: no code check here.
    report = _screen(x, y, dists, dy, args.estimator, names)
    try:
        apply_changepoint(report)
    except InsufficientFeaturesError:
        pass  # fewer than 4 features: report scores without a threshold
    _write_json({**keys, **vars(report)}, args.out)
    values = report.sorted_values()
    _write_csvs([(_sibling_path(args.out, "_ranked.csv"), ["rank", "value"],
                  [np.arange(1, values.size + 1), values])])


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
    _write_csvs([(_sibling_path(args.out, "_delta.csv"),
                  [f"col{j + 1}" for j in range(delta.shape[1])], list(delta.T))]
                + [(_sibling_path(args.out, f"_roc_{r.encoding}.csv"), ["fpr", "tpr"],
                    list(roc_points(r.pooled_scores, r.pooled_truth).T)) for r in results])


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
    error = ""
    with warnings.catch_warnings(record=True) as caught:
        # One run's warnings share a line, so a filter that shows a text once would
        # hide repeats: show each one the caller neither ignores nor raises.
        warnings.filters[:] = [("always", *f[1:]) if f[0] in ("default", "module", "once")
                               else f for f in warnings.filters]
        warnings.simplefilter("always", append=True)
        try:
            if hasattr(args, "seed"):
                _require_seed(args.seed)
            args.func(args)
        except CatdcorError as exc:
            error = f"error: {type(exc).__name__}: {exc}\n"
        finally:
            sys.stderr.writelines(f"warning: {w.category.__name__}: {w.message}\n" for w in caught)
    sys.stderr.write(error)
    return 1 if error else 0


if __name__ == "__main__":
    sys.exit(main())
