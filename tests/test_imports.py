"""Import hygiene: scipy stays off the import path of the package and the CLI.

Loading ``scipy.stats`` and ``scipy.optimize`` costs about a second per
process, more than a whole ``catdcor test`` or ``catdcor screen`` run.
Only joint construction (``build_joint``, ``catdcor simulate``) needs
scipy, and it imports it on first use.  Each check runs in a fresh
interpreter with ``PYTHONPATH=src`` and lists the scipy modules loaded
when it finishes.
"""

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
