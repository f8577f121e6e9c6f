"""Tests of the benchmark itself.  Run with ``python -m pytest perfbench``.

A tiny-size run of each workload, untraced and traced, must pass its
output check and report exactly the metrics ``BENCHMARK.json`` names,
with their units.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from calibrate import kernel, time_kernel  # noqa: E402
from check import PVALUE_TOL, compare_json  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_passes_check_and_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 3
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "simulate_s4", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_pvalue_tolerance_depends_on_method():
    ref = {"method": "imhof", "p_value": 0.5, "statistic": 2.0}
    assert compare_json({**ref, "p_value": 0.5 + 0.5 * PVALUE_TOL}, ref, "r") == []
    assert compare_json({**ref, "p_value": 0.5 + 2 * PVALUE_TOL}, ref, "r") != []
    assert compare_json({**ref, "statistic": 2.0 + 1e-10}, ref, "r") != []
    perm = {"method": "permutation", "p_value": 0.5}
    assert compare_json({**perm, "p_value": 0.5 + 1e-15}, perm, "r") != []
    assert compare_json({"order": [1, 0]}, {"order": [0, 1]}, "r") != []


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.call("cli.main", lambda: tracer.call("cli.ingest", lambda: None))
    (main_name, m0, m1, m_parent), (child_name, c0, c1, c_parent) = tracer.spans
    assert (main_name, m_parent, child_name, c_parent) == ("cli.main", -1, "cli.ingest", 0)
    totals = tracer.layer_totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["cli.main"]["self_s"] == pytest.approx((m1 - m0) - (c1 - c0))
    assert totals["screening.screen"] == {"calls": 0, "self_s": 0.0}


def test_calibration_kernel_is_fixed_work():
    assert kernel() == kernel()
    assert 0.0 < time_kernel() < 10.0
