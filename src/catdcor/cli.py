"""Command-line interface: encode, test, screen, and simulate subcommands.

Every subcommand is a pure function of its input files, flags, and seed:
identical invocations write byte-identical outputs.  Machine-readable
results are JSON; tabular data for plotting is CSV.  Errors exit nonzero
with a one-line structured message on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .encodings import DistanceMatrix, Encoding, distance_matrix, load_metadata
from .estimators import JointTable, dcor2_mle, dcor2_unbiased
from .exceptions import (
    CatdcorError,
    ConfigurationError,
    InsufficientFeaturesError,
    LabelError,
    ParseError,
)
from .inference import (
    NullSpectrum,
    TestResult,
    confidence_interval,
    independence_test,
    null_spectrum,
    permutation_test,
)
from .screening import apply_changepoint, screen
from .simulate import build_joint, roc_points, run_benchmark, setting_spec

__all__ = ["Dataset", "ingest", "main"]

_WORKERS_ENV = "CATDCOR_WORKERS"


@dataclass(frozen=True)
class Dataset:
    """Label-coded columns of a rectangular categorical data file."""

    column_names: tuple[str, ...]
    codes: np.ndarray  # (n_rows, n_columns) integer codes
    row_count: int
    dropped_rows: int


def ingest(csv_path: str, metadata_path: str,
           missing_tokens: tuple[str, ...] = ("",)
           ) -> tuple[Dataset, dict[str, Encoding]]:
    """Read a CSV with a header row against declared encoding metadata.

    Only columns present in the metadata are analyzed; each must exist in
    the file.  Rows containing a missing-value token in any analyzed
    column are dropped (the count is reported on the Dataset).  Any other
    label outside a column's declared level set raises :class:`LabelError`
    naming the column and row.
    """
    encodings = load_metadata(metadata_path)
    try:
        with open(csv_path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigurationError(f"cannot read {csv_path}: {exc}") from None
    if not rows:
        raise ParseError(f"{csv_path}: empty file, expected a header row")
    header = rows[0]
    width = len(header)
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(
                f"{csv_path}: line {line_no} has {len(row)} fields, expected {width}"
            )
    missing_cols = [name for name in encodings if name not in header]
    if missing_cols:
        raise ConfigurationError(
            f"metadata variables absent from the CSV header: {missing_cols}"
        )
    positions = {name: header.index(name) for name in encodings}
    level_maps = {
        name: {label: code for code, label in enumerate(enc.labels)}
        for name, enc in encodings.items()
    }
    missing = set(missing_tokens)

    kept: list[list[int]] = []
    dropped = 0
    for line_no, row in enumerate(rows[1:], start=2):
        cells = {name: row[positions[name]] for name in encodings}
        if any(cell in missing for cell in cells.values()):
            dropped += 1
            continue
        coded = []
        for name in encodings:
            cell = cells[name]
            try:
                coded.append(level_maps[name][cell])
            except KeyError:
                raise LabelError(
                    f"{csv_path}: line {line_no}, column {name!r}: label {cell!r} "
                    "is not in the declared level set"
                ) from None
        kept.append(coded)
    codes = np.array(kept, dtype=np.int64).reshape(len(kept), len(encodings))
    dataset = Dataset(
        column_names=tuple(encodings),
        codes=codes,
        row_count=len(kept),
        dropped_rows=dropped,
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


def _write_csv(rows: list[list], out_path: str | None, header: list[str]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
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


def _pvalues_both(table: JointTable, x: np.ndarray, y: np.ndarray,
                  dx: DistanceMatrix, dy: DistanceMatrix,
                  estimator: str, method: str, perms: int, seed: int
                  ) -> tuple[dict[str, float], str, NullSpectrum | TestResult]:
    """P-values for both estimators, the method actually used, and the null law.

    The last item carries the reported ``lambdas``, ``mus`` and
    ``bias_shift``: the analytic test result for ``estimator``, or the
    bare null spectrum when permutation p-values are used.  Either way a
    degenerate variable fails as the analytic test for ``estimator``
    does: spectrum, then zero total weight, then the statistic.
    """
    n = table.n
    if method == "analytic":
        # Small-sample guard: the asymptotic law is unreliable when any
        # observed category is rarer than 5/n.
        guard = 5.0 / n
        margins = np.concatenate([table.row_counts / n, table.col_counts / n])
        if np.any(margins < guard):
            method = "permutation"
    if method == "permutation":
        ns = null_spectrum(table.row_counts / n, table.col_counts / n, dx, dy)
        ns.normalizer()
        (dcor2_mle if estimator == "mle" else dcor2_unbiased)(table, dx, dy)
        values = {
            kind: permutation_test(x, y, dx, dy, estimator=kind,
                                   reps=perms, seed=seed)
            for kind in ("mle", "unbiased")
        }
        return values, "permutation", ns
    other = "unbiased" if estimator == "mle" else "mle"
    results = {kind: independence_test(table, dx, dy, estimator=kind)
               for kind in (estimator, other)}
    tags = {r.method for r in results.values()}
    tag = "imhof" if tags == {"imhof"} else "moment-match"
    return {kind: r.p_value for kind, r in results.items()}, tag, results[estimator]


def cmd_test(args: argparse.Namespace) -> None:
    """Test every non-response variable for dependence on the response."""
    dataset, encodings = ingest(args.input, args.metadata)
    _require_response(dataset, args.response)
    y = _column(dataset, args.response)
    dy = distance_matrix(encodings[args.response])
    results = []
    for name in dataset.column_names:
        if name == args.response:
            continue
        x = _column(dataset, name)
        dx = distance_matrix(encodings[name])
        table = JointTable.from_codes(x, y, dx.n_categories, dy.n_categories)
        p_values, method, null_law = _pvalues_both(
            table, x, y, dx, dy, args.estimator, args.pvalue, args.perms, args.seed,
        )
        ci_lo, ci_hi = confidence_interval(table, dx, dy, level=0.95,
                                           estimator=args.estimator)
        results.append({
            "variable": name,
            "n": table.n,
            "statistic": {
                "mle": table.n * dcor2_mle(table, dx, dy),
                "unbiased": table.n * dcor2_unbiased(table, dx, dy),
            },
            "p_value": p_values[args.estimator],
            "p_values": p_values,
            "method": method,
            "lambdas": null_law.lambdas,
            "mus": null_law.mus,
            "bias_shift": null_law.bias_shift,
            "confidence_interval": {
                "level": 0.95,
                "estimator": args.estimator,
                "lo": ci_lo,
                "hi": ci_hi,
            },
        })
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
    dy = distance_matrix(encodings[args.response])
    feature_names = [n for n in dataset.column_names if n != args.response]
    features = np.column_stack([_column(dataset, n) for n in feature_names])
    dists = [distance_matrix(encodings[n]) for n in feature_names]
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
    ranked = [[rank + 1, float(v)] for rank, v in enumerate(report.sorted_values())]
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
    spec = setting_spec(args.setting, n=args.n, n_features=args.features,
                        relevant_count=args.relevant)
    built = build_joint(spec, allow_rank_one=True)
    delta_rows = [[float(v) for v in row] for row in built.joint.delta()]
    _write_csv(delta_rows, _sibling_path(args.out, "_delta.csv"),
               [f"col{j + 1}" for j in range(spec.n_cols)])
    for r in results:
        points = roc_points(r.pooled_scores, r.pooled_truth)
        _write_csv([[float(a), float(b)] for a, b in points],
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
        args.func(args)
    except CatdcorError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
