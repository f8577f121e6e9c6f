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
from typing import Iterable, Sequence

import numpy as np

from .encodings import DistanceMatrix, Encoding, distance_matrix, load_metadata
from .estimators import JointTable
from .exceptions import (
    CatdcorError,
    ConfigurationError,
    InsufficientFeaturesError,
    LabelError,
    ParseError,
)
from .inference import (
    _permutation_pvalues,
    _require_replicates,
    _require_seed,
    _statistic,
    _test_result,
    confidence_interval,
    null_spectrum,
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


class _Vocabulary(dict):
    """Cell string -> index, numbering each new string on first lookup."""

    def __missing__(self, key: str) -> int:
        self[key] = index = len(self)
        return index


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

    The file is streamed: each record's analyzed cells are numbered
    through one vocabulary of distinct strings as the record is read,
    so only one record's strings are alive at a time, and every column
    is then decoded through a lookup table over its distinct numbers.
    """
    encodings = load_metadata(metadata_path)
    names = tuple(encodings)
    try:
        with open(csv_path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{csv_path}: empty file, expected a header row")
            records = _checked_records(reader, len(header), csv_path)
            first_position: dict[str, int] = {}
            for pos, name in enumerate(header):
                first_position.setdefault(name, pos)
            missing_cols = [name for name in names if name not in first_position]
            if missing_cols or not names:
                n_rows = sum(1 for _ in records)
                if missing_cols:
                    raise ConfigurationError(
                        f"metadata variables absent from the CSV header: {missing_cols}"
                    )
                empty = np.zeros((n_rows, 0), dtype=np.int64)
                return Dataset(names, empty, n_rows, 0), encodings
            # One analyzed column makes the getter return a cell, not a tuple.
            cells = map(operator.itemgetter(*(first_position[n] for n in names)),
                        records)
            if len(names) > 1:
                cells = itertools.chain.from_iterable(cells)
            vocab = _Vocabulary()
            numbers = np.fromiter(map(vocab.__getitem__, cells), dtype=np.int64)
            # Column-major, so that each column below is one contiguous run.
            codes = np.asfortranarray(numbers.reshape(-1, len(names)))
            del numbers
    except OSError as exc:
        raise ConfigurationError(f"cannot read {csv_path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{csv_path}: not valid UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        raise ParseError(f"{csv_path}: {exc}") from None

    strings = list(vocab)
    missing = set(missing_tokens)
    # Decode in place, column by column.  Columns with the same level labels
    # share one table from cell number to code, filled only for the numbers
    # they hold: -1 marks a missing token, -2 - v the undeclared label v.
    columns: dict[tuple[str, ...], list[int]] = {}
    for j, enc in enumerate(encodings.values()):
        columns.setdefault(enc.labels, []).append(j)
    for labels, cols in columns.items():
        level_of = {label: code for code, label in enumerate(labels)}
        present = np.zeros(len(strings), dtype=bool)
        for j in cols:
            present[codes[:, j]] = True
        table = np.empty(len(strings), dtype=np.int64)
        for v in np.flatnonzero(present).tolist():
            cell = strings[v]
            table[v] = -1 if cell in missing else level_of.get(cell, -2 - v)
        for j in cols:
            codes[:, j] = table[codes[:, j]]
    dropped = (codes == -1).any(axis=1)
    if dropped.any():
        codes = codes.T.compress(~dropped, axis=1).T
    bad = codes < -1
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), len(names))
        record = int(np.flatnonzero(~dropped)[row])
        raise LabelError(
            f"{csv_path}: line {record + 2}, column {names[col]!r}: "
            f"label {strings[-2 - int(codes[row, col])]!r} is not in the declared level set"
        )
    dataset = Dataset(
        column_names=names,
        codes=codes,
        row_count=codes.shape[0],
        dropped_rows=int(dropped.sum()),
    )
    return dataset, encodings


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_json(payload: dict, out_path: str | None) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_csv(rows: Iterable[Sequence], out_path: str | None, header: list[str]) -> None:
    """One line per row of Python ints and floats, each cell its ``repr``."""
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _column(dataset: Dataset, name: str) -> np.ndarray:
    return dataset.codes[:, dataset.column_names.index(name)]


def _require_response(dataset: Dataset, response: str) -> None:
    if response not in dataset.column_names:
        raise ConfigurationError(
            f"response column {response!r} is not among the analyzed variables "
            f"{list(dataset.column_names)}"
        )


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
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_test(args: argparse.Namespace) -> None:
    """Test every non-response variable for dependence on the response.

    Per variable: one null spectrum and each statistic computed once; both
    analytic tails come from that spectrum.  The permutation p-values of
    all variables that need them come after the loop, from one set of
    response permutations.  A degenerate variable fails in a fixed order:
    spectrum, zero total weight, the ``--estimator`` statistic, the
    replicate count (permutation only), the other statistic.
    """
    dataset, encodings = ingest(args.input, args.metadata)
    _require_response(dataset, args.response)
    y = _column(dataset, args.response)
    dy = distance_matrix(encodings[args.response])
    other = "unbiased" if args.estimator == "mle" else "mle"
    results = []
    permuted: list[tuple[dict, tuple]] = []  # (p-values to fill, variable)
    for name in dataset.column_names:
        if name == args.response:
            continue
        x = _column(dataset, name)
        dx = distance_matrix(encodings[name])
        table = JointTable.from_codes(x, y, dx.n_categories, dy.n_categories)
        n = table.n
        row, col = table.row_counts / n, table.col_counts / n
        method = args.pvalue
        # Small-sample guard: the asymptotic law is unreliable when any
        # observed category is rarer than 5/n.
        if method == "analytic" and np.any(np.concatenate([row, col]) < 5.0 / n):
            method = "permutation"
        ns = null_spectrum(row, col, dx, dy)
        ns.normalizer()
        dcor2 = {args.estimator: _statistic(table, dx, dy, args.estimator)}
        if method == "permutation":
            _require_replicates(args.perms)
        dcor2[other] = _statistic(table, dx, dy, other)
        if method == "permutation":
            p_values = {}
            permuted.append((p_values, (x, dx, dcor2)))
        else:
            tests = [_test_result(ns, n * dcor2[kind], kind, n) for kind in dcor2]
            p_values = {r.estimator: r.p_value for r in tests}
            imhof = all(r.method == "imhof" for r in tests)
            method = "imhof" if imhof else "moment-match"
        ci_lo, ci_hi = confidence_interval(table, dx, dy, level=0.95,
                                           estimator=args.estimator)
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
    dataset, encodings = ingest(args.input, args.metadata)
    _require_response(dataset, args.response)
    y = _column(dataset, args.response)
    keep = [j for j, n in enumerate(dataset.column_names) if n != args.response]
    feature_names = [dataset.column_names[j] for j in keep]
    features = dataset.codes[:, keep]
    # Many features share one encoding; build each distinct matrix once.
    shared: dict[tuple, DistanceMatrix] = {}

    def dist(name: str) -> DistanceMatrix:
        points = encodings[name].points
        key = (points.shape, points.tobytes())
        if key not in shared:
            shared[key] = distance_matrix(encodings[name])
        return shared[key]

    dy = dist(args.response)
    dists = [dist(n) for n in feature_names]
    report = screen(features, y, dists, dy, estimator=args.estimator,
                    feature_ids=feature_names)
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
