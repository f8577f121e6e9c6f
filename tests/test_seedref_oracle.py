"""Differential test of the CLI against the round-start package in ``perfbench/seedref``.

``perfbench/seedref/catdcor`` is the package as it stood when the current
round of performance work began.  It is loaded in-process as
``catdcor_seedref``; its modules import each other relatively.  Each of
``INPUTS`` seeded small inputs (n = 8 to 200, 2 to 6 variables of 2 to 5
levels, every encoding kind, custom points included, about 3% missing
cells, a few undeclared labels, some files quoted whole, with CRLF line
ends or with a byte-order mark) runs four commands through both ``cli.main``: ``screen``, ``test``,
``test --estimator unbiased`` and ``test --pvalue permutation``, all tests
with 99 replicates.  Output files are compared by ``perfbench/check.py`` at
its own tolerances; exit codes and ``error:`` lines must be equal.
``warning:`` lines are not compared, since their format changed on purpose.

``simulate`` runs live through both packages (settings 1 to 6 at two
seeds, n = 40, 40 features, 5 relevant, 2 replicates): its JSON report is
compared by ``perfbench/check.py``, and its ``_delta.csv`` and ROC point
files must be byte-identical.

Two differences from the seed package are intended and checked another way:

- A CSV or metadata file that starts with a byte-order mark reads as the
  same file without it; the seed package rejected it, so it reads the file
  without the mark.
- The seed package's tails of two weights were off by up to 2e-9.  Where a
  two-weight analytic p-value differs from the seed's by more than the
  tolerance, it is checked against the exact convolution of
  ``tail_reference.two_group_sf`` instead, at the same tolerance.
"""

import contextlib
import copy
import importlib
import importlib.util
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from catdcor import cli
import tail_reference

ROOT = Path(__file__).resolve().parent.parent
INPUTS = 100
KINDS = ("onehot", "ordinal", "semicircle", "custom")
COMMANDS = (["screen"], ["test"], ["test", "--estimator", "unbiased"],
            ["test", "--pvalue", "permutation"])


def _load(name: str, path: Path, package: bool = False):
    """Import the file at ``path`` as module ``name`` (a package when ``package``)."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


check = _load("perfbench_check", ROOT / "perfbench" / "check.py")
_load("catdcor_seedref", ROOT / "perfbench" / "seedref" / "catdcor", package=True)
seed_cli = importlib.import_module("catdcor_seedref.cli")
EXPECTED = Path(__file__).with_name("seedref_oracle.json")
LIVE = (3, 4)
# The input after the seeded ones: a 3 x 2 one-hot table (variable by response)
# whose two-weight analytic tails the seed package gets 1.3e-9 and 1.5e-9 off.
TWO_WEIGHT, TWO_WEIGHT_COUNTS = INPUTS, [[44, 36], [7, 4], [102, 79]]


def write_input(case: int, directory: Path) -> tuple[list[str], str, str]:
    """Seeded small input files for ``case``: the argv they share, the CSV text, the metadata.

    Returns the CSV and metadata texts without a byte-order mark; the
    caller adds one (``"\\ufeff"``) where the case asks for it.
    """
    csv_path, meta_path = directory / "data.csv", directory / "meta.json"
    argv = ["--input", str(csv_path), "--metadata", str(meta_path), "--response", "y"]
    if case == TWO_WEIGHT:
        meta = [{"name": name, "type": "nominal", "encoding": "onehot",
                 "levels": ["a", "b", "c"][:k]} for name, k in (("y", 2), ("v1", 3))]
        cells = [f"{y},{x}" for x, row in zip("abc", TWO_WEIGHT_COUNTS)
                 for y, count in zip("ab", row) for _ in range(count)]
        return argv, "\n".join(["y,v1", *cells]) + "\n", json.dumps(meta)
    rng = np.random.default_rng((1998, case))
    n, p = int(rng.integers(8, 201)), int(rng.integers(2, 7))
    levels = rng.integers(2, 6, p)
    quoted = rng.random() < 0.3
    names = ["y"] + [f"v{j}" for j in range(1, p)]
    meta, columns = [], []
    for j, (name, count) in enumerate(zip(names, levels)):
        kind = KINDS[int(rng.integers(len(KINDS)))]
        entry = {"name": name, "type": "nominal" if kind == "onehot" else "ordinal",
                 "encoding": kind,
                 "levels": [f"{name},{k}" if quoted else f"{name}_{k}" for k in range(count)]}
        if kind == "custom":
            dim = int(rng.integers(1, 3))
            grid = rng.permutation(6**dim)[:count]
            entry["points"] = [[int(g) // 6**d % 6 for d in range(dim)] for g in grid]
        meta.append(entry)
        if j == 0:
            codes = rng.integers(0, count, n)
        elif rng.random() < 0.05:
            codes = np.full(n, int(rng.integers(count)))  # a degenerate variable
        else:
            codes = np.where(rng.random(n) < rng.random(), columns[0] % count,
                             rng.integers(0, count, n))
        columns.append(codes)
    cells = np.array([[m["levels"][c] for c in codes] for m, codes in zip(meta, columns)],
                     dtype=object).T
    cells[rng.random(cells.shape) < 0.03] = ""
    if rng.random() < 0.05:  # a label the metadata does not declare
        cells[rng.integers(n), rng.integers(p)] = "zz"
    header = list(names)
    if rng.random() < 0.3:  # a column the metadata does not name
        header.append("note")
        cells = np.column_stack([cells, rng.choice(["a", "b c", ""], n)])
    order = rng.permutation(len(header))
    rows = [[header[k] for k in order]] + [[row[k] for k in order] for row in cells.tolist()]
    eol = "\r\n" if rng.random() < 0.2 else "\n"
    text = eol.join(",".join(f'"{c}"' if quoted else c for c in row) for row in rows) + eol
    return argv, text, json.dumps(meta)


def run(main, argv: list[str], out: Path) -> list:
    """``main(argv)`` writing into directory ``out``: its exit code, ``error:`` lines and files.

    JSON files are parsed; other files are kept as text.
    """
    out.mkdir()
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([*argv, "--out", str(out / "report.json")])
    files = {path.name: json.loads(path.read_text()) if path.suffix == ".json"
             else path.read_text() for path in sorted(out.iterdir())}
    # Error lines name the input files: their directory is left out.
    return [code, [line.replace(str(out.parent), "<inputs>") for line in
                   stderr.getvalue().splitlines() if line.startswith("error:")], files]


def commands(case: int, directory: Path, package) -> list[list]:
    """The four commands of ``case`` through ``package``'s ``cli.main``, their outcomes.

    The seed package reads the input without a byte-order mark.
    """
    argv, text, meta = write_input(case, directory)
    rng = np.random.default_rng((1999, case))
    bom = "\ufeff" if rng.random() < 0.2 and package is cli else ""
    seed = str(int(rng.integers(0, 2**31)))
    Path(argv[1]).write_text(bom + text, encoding="utf-8", newline="")
    Path(argv[3]).write_text(bom + meta, encoding="utf-8")
    return [run(package.main, cmd + argv + (["--perms", "99", "--seed", seed]
                                            if cmd[0] == "test" else []), directory / f"out{k}")
            for k, cmd in enumerate(COMMANDS)]


def exact_two_weight(result: dict, kind: str) -> float | None:
    """The exact analytic p-value of ``result`` under ``kind``, if its null has two weights."""
    weights = np.outer(result["lambdas"], result["mus"]).ravel()
    weights = weights[weights != 0.0]
    if result["method"] != "imhof" or len(weights) != 2:
        return None
    norm = float(np.sqrt(np.sum(np.square(result["lambdas"]))
                         * np.sum(np.square(result["mus"]))))
    x = result["statistic"][kind] - (result["bias_shift"] / norm if kind == "mle" else 0.0)
    a, b = weights / norm
    return tail_reference.two_group_sf(a, 1, b, 1, x + a + b)


def with_exact_tails(got: list, ref: list) -> list:
    """A copy of outcome ``ref``, each two-weight p-value ``got`` moved past the tolerance exact."""
    ref = copy.deepcopy(ref)
    for mine, theirs in zip(got[2].get("report.json", {}).get("results", []),
                            ref[2].get("report.json", {}).get("results", [])):
        for kind, p in theirs["p_values"].items():
            exact = exact_two_weight(mine, kind)
            if exact is not None and check.compare_json(mine["p_values"][kind], p, "",
                                                         check.PVALUE_TOL):
                theirs["p_values"][kind] = exact
                if theirs["p_value"] == p:
                    theirs["p_value"] = exact
    return ref


def differences(got: list, ref: list) -> list[str]:
    """What differs between two outcomes of one command, at ``perfbench/check.py``'s tolerances."""
    if got[:2] != ref[:2] or got[2].keys() != ref[2].keys():
        return [f"exit code, errors or files: {got[:2]}, {sorted(got[2])} != "
                f"{ref[:2]}, {sorted(ref[2])}"]
    return [line for name, content in got[2].items() for line in (
        check.compare_json(content, ref[2][name], name) if name.endswith(".json")
        else check.compare_csv(content, ref[2][name], name))]


@pytest.fixture(scope="module")
def expected() -> list:
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("case", range(INPUTS + 1))
def test_cli_matches_seed_package(case, tmp_path, expected):
    for cmd, got, ref in zip(COMMANDS, commands(case, tmp_path, cli), expected[case]):
        assert differences(got, with_exact_tails(got, ref)) == [], cmd


def test_seed_package_two_weight_tails_are_off(tmp_path, expected):
    # The named input's analytic reports differ from the seed package's past
    # the tolerance, and only by the tails made exact.
    for got, ref in zip(commands(TWO_WEIGHT, tmp_path, cli)[1:3], expected[TWO_WEIGHT][1:3]):
        assert [line.split(":")[0] for line in differences(got, ref)] == [
            "report.json.results[0].p_value", "report.json.results[0].p_values.mle",
            "report.json.results[0].p_values.unbiased"]
        assert differences(got, with_exact_tails(got, ref)) == []


@pytest.mark.parametrize("case", LIVE)
def test_recorded_outcomes_are_the_seed_package_s(case, tmp_path, expected):
    # The recorded outcomes of the slow seed package, rerun live for a few inputs.
    for cmd, got, ref in zip(COMMANDS, commands(case, tmp_path, seed_cli), expected[case]):
        assert differences(got, ref) == [], cmd


@pytest.mark.parametrize("setting", range(1, 7))
@pytest.mark.parametrize("seed", (3, 11))
def test_simulate_matches_seed_package(setting, seed, tmp_path):
    argv = ["simulate", "--setting", str(setting), "--n", "40", "--features", "40",
            "--relevant", "5", "--replicates", "2", "--seed", str(seed)]
    got, ref = (run(main, argv, tmp_path / name) for name, main in
                (("got", cli.main), ("ref", seed_cli.main)))
    assert got[:2] == ref[:2] == [0, []]
    assert sorted(got[2]) == sorted(ref[2]) == [
        "report.json", "report_delta.csv", "report_roc_onehot.csv",
        "report_roc_ordinal.csv", "report_roc_semicircle.csv"]
    assert check.compare_json(got[2]["report.json"], ref[2]["report.json"], "report.json") == []
    for name in sorted(got[2])[1:]:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


if __name__ == "__main__":
    # Record the seed package's outcomes: PYTHONPATH=src python tests/test_seedref_oracle.py
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        outcomes = []
        for case in range(INPUTS + 1):
            (Path(scratch) / str(case)).mkdir()
            outcomes.append(commands(case, Path(scratch) / str(case), seed_cli))
    EXPECTED.write_text(json.dumps(outcomes, separators=(",", ":")) + "\n")
