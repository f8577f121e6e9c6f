"""Import hygiene: scipy stays off the import path of the package and the CLI.

Loading ``scipy.stats`` and ``scipy.optimize`` costs about a second per
process, more than a whole ``catdcor test`` or ``catdcor screen`` run.
Only joint construction (``build_joint``, ``catdcor simulate``) needs
scipy, and it imports it on first use, only for a setting whose margins
leave room for its linear programs (setting 1 of the six).  Each check runs in a fresh
interpreter with ``PYTHONPATH=src`` and lists the scipy modules loaded
when it finishes.  The CLI's imports are checked on its source: it runs
``catdcor test`` through one inference call.  So is the package's
layering: its modules import each other at module level only, without a
cycle, and the dcov/dvar/dcor kernel is defined in ``measures`` alone.
So is the one way out for diagnostics: ``exceptions._warn``.
"""

import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

# Binary response, so the 2-, 3- and 4-level variables reach the one-,
# two- and three-weight tails of the analytic test.
META = [
    {"name": "resp", "type": "nominal", "encoding": "onehot", "levels": ["n", "y"]},
    {"name": "two", "type": "nominal", "encoding": "onehot", "levels": ["a", "b"]},
    {"name": "three", "type": "ordinal", "encoding": "semicircle",
     "levels": ["lo", "mid", "hi"]},
    {"name": "four", "type": "ordinal", "encoding": "ordinal",
     "levels": ["1", "2", "3", "4"]},
]


def scipy_modules_after(code: str, cwd: Path) -> list[str]:
    """Run ``code`` in a fresh interpreter; return the scipy modules it left loaded."""
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


def cli_code(argv: list[str]) -> str:
    return ("import catdcor.cli\n"
            f"assert catdcor.cli.main({argv!r}) == 0\n")


@pytest.fixture
def inputs(tmp_path):
    rng = np.random.default_rng(3)
    n = 300
    resp = rng.choice(["n", "y"], n)
    rows = zip(resp, rng.choice(["a", "b"], n),
               np.where(resp == "y", "hi", rng.choice(["lo", "mid", "hi"], n)),
               rng.choice(["1", "2", "3", "4"], n))
    with open(tmp_path / "data.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([entry["name"] for entry in META])
        writer.writerows(rows)
    (tmp_path / "meta.json").write_text(json.dumps(META))
    return ["--input", str(tmp_path / "data.csv"), "--metadata",
            str(tmp_path / "meta.json"), "--response", "resp"]


@pytest.mark.parametrize("code", ["import catdcor", "import catdcor.cli"])
def test_import_loads_no_scipy(code, tmp_path):
    assert scipy_modules_after(code, tmp_path) == []


def test_mixed_sign_tail_loads_no_scipy(tmp_path):
    code = ("from catdcor import weighted_chisq_sf\n"
            "assert 0.0 < weighted_chisq_sf([1.0, -0.5, 0.25, -1e-6], 0.3) < 1.0\n")
    assert scipy_modules_after(code, tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["test", "--pvalue", "analytic"],
    ["test", "--pvalue", "permutation", "--perms", "99"],
    ["screen"],
], ids=["test-analytic", "test-permutation", "screen"])
def test_command_loads_no_scipy(argv, inputs, tmp_path):
    out = tmp_path / "out.json"
    full = argv[:1] + inputs + argv[1:] + ["--out", str(out)]
    assert scipy_modules_after(cli_code(full), tmp_path) == []
    report = json.loads(out.read_text())
    if argv[0] == "test":
        methods = {r["method"] for r in report["results"]}
        assert methods == ({"imhof"} if argv[2] == "analytic" else {"permutation"})


def test_simulate_loads_optimize_but_not_stats(tmp_path):
    argv = ["simulate", "--setting", "1", "--n", "60", "--features", "20",
            "--relevant", "5", "--replicates", "1", "--encodings", "onehot",
            "--out", str(tmp_path / "sim.json")]
    loaded = scipy_modules_after(cli_code(argv), tmp_path)
    assert "scipy.optimize" in loaded
    assert not [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")]


def test_simulate_with_infeasible_margins_loads_no_scipy(tmp_path):
    # Setting 4's listed cells exceed their marginals, so build_joint
    # solves no linear program.
    argv = ["simulate", "--setting", "4", "--n", "60", "--features", "20",
            "--relevant", "5", "--replicates", "1", "--encodings", "onehot",
            "--out", str(tmp_path / "sim.json")]
    assert scipy_modules_after(cli_code(argv), tmp_path) == []
    assert json.loads((tmp_path / "sim.json").read_text())["construction"] == "rank-one-clipped"


def test_cli_binds_one_inference_call_and_no_estimator():
    # ``catdcor test`` is composed in ``inference``: of its private names
    # the CLI binds the seed check and the stacked test, and no estimator.
    bound: dict[str, set] = {}
    for node in ast.walk(ast.parse((ROOT / "src" / "catdcor" / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names = bound.setdefault((node.module or "").rsplit(".", 1)[-1], set())
            names.update(alias.asname or alias.name for alias in node.names)
    assert {name for name in bound["inference"] if name.startswith("_")} == {
        "_require_seed", "_test_many"}
    assert not bound.get("estimators")


PACKAGE = ROOT / "src" / "catdcor"
KERNEL = {
    "_tabulate", "_tabulated", "_quad_many", "_t_stats_many", "_dvar_t_stats_many",
    "_v_statistic", "_u_statistic", "_dvar2_many", "_dcov2_many", "_centered",
    "_score_pairs", "_score_many", "_BLOCK", "_DEGENERATE_TOL", "_require_estimator",
    "_require_u_sample", "_require_scorable", "_require_nondegenerate", "_check_codes",
}


def package_imports(tree: ast.Module) -> list[tuple[ast.AST, str]]:
    """Each import of a ``catdcor`` module in ``tree``: the node and the module's short name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.append((node, node.module.split(".")[0]))
            elif node.level == 1 or node.module == "catdcor":
                found += [(node, alias.name) for alias in node.names]
            elif (node.module or "").startswith("catdcor."):
                found.append((node, node.module.split(".")[1]))
        elif isinstance(node, ast.Import):
            found += [(node, alias.name.split(".")[1]) for alias in node.names
                      if alias.name.startswith("catdcor.")]
    return found


def test_package_layering():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    graph, local, defined = {}, [], {}
    for name, tree in trees.items():
        imports = package_imports(tree)
        graph[name] = {target for _, target in imports if target in trees}
        nested = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)}
        local += [f"{name}:{node.lineno}" for node, _ in imports if id(node) in nested]
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [node])
            for target in targets:
                label = getattr(target, "name", None) or getattr(target, "id", None)
                if label in KERNEL:
                    defined.setdefault(label, []).append(name)
    assert local == []
    # Depth-first search for a back edge: the import graph is acyclic.
    state: dict[str, str] = {}

    def visit(name: str, path: tuple) -> None:
        state[name] = "open"
        for target in sorted(graph[name]):
            assert state.get(target) != "open", " -> ".join(path + (target,))
            if target not in state:
                visit(target, path + (target,))
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, (name,))
    assert defined == {name: ["measures"] for name in KERNEL}


def test_diagnostics_leave_through_one_helper():
    # ``exceptions._warn`` alone calls ``warnings.warn`` and sets a
    # stacklevel; no module imports ``logging``.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            where = (path.stem, owner.get(id(node)))
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("warnings.warn", "warn"):
                found.append(("warn",) + where)
            elif isinstance(node, ast.keyword) and node.arg == "stacklevel":
                found.append(("stacklevel",) + where)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                           else [alias.name for alias in node.names])
                found += [("logging",) + where for module in modules
                          if module.split(".")[0] == "logging"]
    assert found == [("warn", "exceptions", "_warn"), ("stacklevel", "exceptions", "_warn")]
