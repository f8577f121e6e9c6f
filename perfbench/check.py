"""Output check: compare one CLI run's files against the seed-commit reference.

Integers, strings, booleans and nulls must match exactly; that covers
``order``, ``selected``, ``degenerate``, ``rows_dropped`` and the
``method``/``construction`` tags.  Floats must agree within
``STAT_TOL * max(1, |reference|)``.  P-values of a result whose method is
``permutation`` must match exactly, and analytic ones within
``PVALUE_TOL``.  The tolerances are the ones the roadmap sets for fast
paths (1e-12 for scores and statistics, 1e-9 for analytic p-values).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

STAT_TOL = 1e-12
PVALUE_TOL = 1e-9
PVALUE_KEYS = ("p_value", "p_values")


def _numbers_match(a: float, b: float, tol: float) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_json(got, ref, path: str, tol: float = STAT_TOL) -> list[str]:
    """Differences between two parsed JSON documents, as readable lines."""
    if _is_number(got) and _is_number(ref):
        return [] if _numbers_match(got, ref, tol) else [f"{path}: {got!r} != {ref!r}"]
    if type(got) is not type(ref):
        return [f"{path}: type {type(got).__name__} != {type(ref).__name__}"]
    if isinstance(ref, dict):
        if got.keys() != ref.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        out = []
        for key in ref:
            child_tol = tol
            if key in PVALUE_KEYS and "method" in ref:
                child_tol = 0.0 if ref["method"] == "permutation" else PVALUE_TOL
            out += compare_json(got[key], ref[key], f"{path}.{key}", child_tol)
        return out
    if isinstance(ref, list):
        if len(got) != len(ref):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += compare_json(g, r, f"{path}[{i}]", tol)
        return out
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]


def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def compare_csv(got: str, ref: str, path: str) -> list[str]:
    got_rows = [[_cell(c) for c in line.split(",")] for line in got.splitlines()]
    ref_rows = [[_cell(c) for c in line.split(",")] for line in ref.splitlines()]
    return compare_json(got_rows, ref_rows, path)


def compare_dirs(got_dir: Path, ref_dir: Path) -> list[str]:
    """Differences between the output files of two runs of one workload."""
    got_files = sorted(p.name for p in got_dir.iterdir())
    ref_files = sorted(p.name for p in ref_dir.iterdir())
    if got_files != ref_files:
        return [f"output files {got_files} != {ref_files}"]
    out = []
    for name in ref_files:
        got = (got_dir / name).read_text(encoding="utf-8")
        ref = (ref_dir / name).read_text(encoding="utf-8")
        if name.endswith(".json"):
            out += compare_json(json.loads(got), json.loads(ref), name)
        else:
            out += compare_csv(got, ref, name)
    return out


def same_bytes(a_dir: Path, b_dir: Path) -> bool:
    """True when two output directories hold byte-identical files."""
    a_files = sorted(p.name for p in a_dir.iterdir())
    if a_files != sorted(p.name for p in b_dir.iterdir()):
        return False
    return all((a_dir / n).read_bytes() == (b_dir / n).read_bytes() for n in a_files)
