"""The four seeded CLI workloads and their input generators.

Each workload fixes its structure (sizes, level counts, encodings, which
columns depend on the response) and draws the cell values from the seed,
so run-to-run cost barely moves with the seed while the inputs still
differ.  Binary columns of the two test workloads keep a fixed cross-tab
with the response; only their row placement is drawn.  Generation is vectorized numpy and runs before any timing.
The program under test sees only the generated CSV, the metadata JSON and
the CLI flags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

KINDS = ("onehot", "ordinal", "semicircle")
MAX_LEVELS = 10
# Level k is written as "L<k>"; the extra last entry is the missing cell.
_LABELS = np.array([f"L{k}" for k in range(MAX_LEVELS)] + [""])
_MISSING = MAX_LEVELS


@dataclass(frozen=True)
class Workload:
    """One CLI invocation on seeded inputs.

    ``make(seed, directory, tiny)`` writes the inputs into ``directory``
    and returns the CLI argv (without ``--out``) and the number of work
    items one call performs, the unit of ``items_per_s``.
    """

    name: str
    why: str
    make: Callable[[int, Path, bool], tuple[list[str], int]]


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _write_table(directory: Path, names: list[str], codes: np.ndarray,
                 levels: np.ndarray, kinds: list[str]) -> tuple[str, str]:
    """Write ``codes`` (n, p) as a labelled CSV plus its metadata JSON.

    A code equal to ``MAX_LEVELS`` is written as an empty (missing) cell.
    """
    cells = _LABELS[codes]
    lines = [",".join(names)]
    lines.extend(",".join(row) for row in cells.tolist())
    meta = [
        {"name": name,
         "type": "nominal" if kind == "onehot" else "ordinal",
         "encoding": kind,
         "levels": [f"L{k}" for k in range(int(lev))]}
        for name, lev, kind in zip(names, levels, kinds)
    ]
    csv_path = directory / "data.csv"
    meta_path = directory / "meta.json"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta_path.write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return str(csv_path), str(meta_path)


def _mix_in_response(rng: np.random.Generator, codes: np.ndarray,
                     y: np.ndarray, levels: np.ndarray, columns: np.ndarray,
                     strength: float) -> None:
    """Replace a ``strength`` share of cells in ``columns`` by ``y mod levels``."""
    take = rng.random((codes.shape[0], columns.size)) < strength
    signal = y[:, None] % levels[columns][None, :]
    codes[:, columns] = np.where(take, signal, codes[:, columns])


def _every_level_at_least(rng: np.random.Generator, codes: np.ndarray,
                          levels: np.ndarray, columns: np.ndarray, count: int) -> None:
    """Plant ``count`` copies of every level of each column on random rows.

    Keeps every observed level frequency at or above ``count / n``; the
    analytic workload relies on it so the CLI never falls back to
    permutation p-values.
    """
    n = codes.shape[0]
    for j in columns:
        rows = rng.permutation(n)[: count * levels[j]]
        codes[rows, j] = np.repeat(np.arange(levels[j]), count)


def _balanced(rng: np.random.Generator, n: int, levels: int) -> np.ndarray:
    """Codes with level counts as equal as possible, in seeded order."""
    return rng.permutation(np.arange(n) % levels)


def _binary_crosstabs(rng: np.random.Generator, y: np.ndarray, n_y: int,
                      shifts: np.ndarray) -> np.ndarray:
    """Binary columns whose cross-tab with a balanced ``y`` is fixed.

    Within response level ``c`` a share ``0.5 + shift * (c - (n_y - 1) / 2)``
    of the rows is coded 1; only which rows is drawn from the seed.  The
    cost of the K = 2 tail probability swings several-fold with the
    statistic (see the test_analytic workload), so fixing the tables, and
    with them the statistics, keeps that cost the same for every seed while
    the shifts spread the p-values from null to small.
    """
    out = np.zeros((y.size, shifts.size), dtype=np.int64)
    for c in range(n_y):
        rows = np.flatnonzero(y == c)
        shares = 0.5 + shifts * (c - (n_y - 1) / 2)
        for j, share in enumerate(shares):
            out[rng.choice(rows, int(round(share * rows.size)), replace=False), j] = 1
    return out


def _uniform_codes(rng: np.random.Generator, n: int, levels: np.ndarray) -> np.ndarray:
    return np.floor(rng.random((n, levels.size)) * levels).astype(np.int64)


def _feature_names(count: int) -> list[str]:
    return [f"x{j:04d}" for j in range(count)]


def make_screen_wide(seed: int, directory: Path, tiny: bool) -> tuple[list[str], int]:
    """``catdcor screen``: 1000 rows, 2000 features, a 4-level response.

    Why: the screening path users run.  CSV ingest does most of the work
    (about 0.97 s of 1.21 s in a trace at the seed commit); scoring and
    tabulating 2000 features take most of the rest.  Features have 2-8
    levels over onehot, ordinal and semicircle encodings, so only ~21
    distinct distance matrices are shared by 2000 features.  One feature
    in ten depends on the response, ~1% of rows carry a missing cell and
    four columns are constant (degenerate).  ``inference`` is not used.
    """
    n, p = (120, 60) if tiny else (1000, 2000)
    rng = _rng(seed, 1)
    j = np.arange(p)
    levels = 2 + (j * 5) % 7                      # 2..8 levels
    kinds = [KINDS[(k // 7) % 3] for k in j]      # ~7 x 3 = 21 distinct matrices
    y = rng.integers(0, 4, n)
    codes = _uniform_codes(rng, n, levels)
    _mix_in_response(rng, codes, y, levels, j[j % 10 == 3], strength=0.3)
    codes[:, j[j % 500 == 7]] = 0                 # a few constant columns
    missing_rows = rng.choice(n, max(1, n // 100), replace=False)
    codes[missing_rows, rng.integers(0, p, missing_rows.size)] = _MISSING
    names = ["y"] + _feature_names(p)
    csv_path, meta_path = _write_table(
        directory, names, np.column_stack([y, codes]),
        np.concatenate([[4], levels]), ["onehot"] + kinds,
    )
    return ["screen", "--input", csv_path, "--metadata", meta_path,
            "--response", "y"], p


def make_test_analytic(seed: int, directory: Path, tiny: bool) -> tuple[list[str], int]:
    """``catdcor test --pvalue analytic``: 2000 rows, 40 variables, 3-level response.

    Why: the tail probability, the self time of ``independence_test``,
    dominates (about 4.3 s of 4.6 s over 118 calls at the seed commit,
    three calls per variable).  Every level of every variable occurs at
    least 5 times, so the CLI never falls back to permutation.  The five
    binary variables give 2x3 tables with K = 2 weights, the slow small-K
    tail case; their cross-tabs are fixed (see ``_binary_crosstabs``).
    """
    n, p = (200, 6) if tiny else (2000, 40)
    rng = _rng(seed, 2)
    j = np.arange(p)
    levels = 2 + j % 9                            # 2..10 levels, binary included
    kinds = [KINDS[k % 3] for k in j]
    binary = levels == 2
    y = _balanced(rng, n, 3)
    codes = _uniform_codes(rng, n, levels)
    _mix_in_response(rng, codes, y, levels, j[j % 4 == 1], strength=0.1)
    _every_level_at_least(rng, codes, levels, j[~binary], 5)
    codes[:, binary] = _binary_crosstabs(rng, y, 3, 0.01 * np.arange(1, binary.sum() + 1))
    names = ["y"] + _feature_names(p)
    csv_path, meta_path = _write_table(
        directory, names, np.column_stack([y, codes]),
        np.concatenate([[3], levels]), ["onehot"] + kinds,
    )
    return ["test", "--input", csv_path, "--metadata", meta_path,
            "--response", "y", "--pvalue", "analytic"], p


def make_test_permutation(seed: int, directory: Path, tiny: bool) -> tuple[list[str], int]:
    """``catdcor test --pvalue permutation --perms 999``: 500 rows, 8 variables.

    Why: the same ``estimators`` layer as screen_wide used another way:
    thousands of tables for one pair with fixed margins instead of one
    table for each of many features.  Tabulate and score took 1.15 s of
    1.68 s at the seed commit, the keyed RNG loop 0.47 s.
    """
    n, p, perms = (100, 3, 99) if tiny else (500, 8, 999)
    rng = _rng(seed, 3)
    j = np.arange(p)
    levels = 2 + j % 4                            # 2..5 levels
    kinds = [KINDS[k % 3] for k in j]
    binary = levels == 2
    y = _balanced(rng, n, 3)
    codes = _uniform_codes(rng, n, levels)
    _mix_in_response(rng, codes, y, levels, j[j % 2 == 1], strength=0.15)
    codes[:, binary] = _binary_crosstabs(rng, y, 3, 0.02 * np.arange(1, binary.sum() + 1))
    names = ["y"] + _feature_names(p)
    csv_path, meta_path = _write_table(
        directory, names, np.column_stack([y, codes]),
        np.concatenate([[3], levels]), ["ordinal"] + kinds,
    )
    return ["test", "--input", csv_path, "--metadata", meta_path,
            "--response", "y", "--pvalue", "permutation",
            "--perms", str(perms), "--seed", str(seed)], p


def make_simulate_s4(seed: int, directory: Path, tiny: bool) -> tuple[list[str], int]:
    """``catdcor simulate --setting 4 --n 100 --features 1000 --replicates 5``.

    Why: the only workload that reaches ``simulate`` (build_joint,
    sample_dataset, roc) and it does no ingest.  All features share one
    distance matrix per encoding and the same counts are tabulated again
    for each of the three encodings; tabulate and score take about 80%.
    """
    features, replicates = (100, 2) if tiny else (1000, 5)
    return ["simulate", "--setting", "4", "--n", "100",
            "--features", str(features), "--replicates", str(replicates),
            "--seed", str(seed)], features * replicates * len(KINDS)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "screen_wide",
        "catdcor screen, 1000 rows x 2000 features: CSV ingest dominates, then "
        "tabulate and score; ~21 distance matrices shared; no inference",
        make_screen_wide,
    ),
    Workload(
        "test_analytic",
        "catdcor test, analytic p-values on 2000 rows x 40 variables: the "
        "weighted chi-square tail inside independence_test dominates",
        make_test_analytic,
    ),
    Workload(
        "test_permutation",
        "catdcor test, 999 permutations on 500 rows x 8 variables: thousands "
        "of tables with fixed margins per pair stress tabulate and score",
        make_test_permutation,
    ),
    Workload(
        "simulate_s4",
        "catdcor simulate, setting 4, 1000 features x 5 replicates x 3 "
        "encodings: the only path through simulate; no ingest",
        make_simulate_s4,
    ),
)}
