"""``tools/cli_outputs.py`` on the workloads' small inputs: two runs write the same bytes.

Each run is a fresh interpreter, so this also checks that every CLI
output, the unbiased and opposite-p-value variants included, depends on
nothing but the inputs and the seed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = {"screen_wide-mle", "screen_wide-unbiased", "simulate_s4",
        *(f"test_{workload}-{pvalue}-{estimator}" for workload in ("analytic", "permutation")
          for pvalue in ("analytic", "permutation") for estimator in ("mle", "unbiased"))}


def _tree(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_two_runs_write_identical_trees(tmp_path):
    trees = []
    for name in ("a", "b"):
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "cli_outputs.py"), str(ROOT / "src"),
             str(tmp_path / name), "--tiny"],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        trees.append(_tree(tmp_path / name))
    assert {path.rsplit("/", 1)[0] for path in trees[0]} == {
        f"seed{seed}/{run}" for seed in (7, 21) for run in RUNS}
    assert all(trees[0][f"seed{seed}/{run}/code"] == b"0\n" for seed in (7, 21) for run in RUNS)
    assert trees[0]["seed7/screen_wide-mle/out.json"].startswith(b"{")
    assert trees[0] == trees[1]
