"""End-to-end benchmark of the catdcor CLI, with a traced run for per-layer numbers.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run generates the workload's inputs from the seed, computes the
reference outputs with ``perfbench/seedref/catdcor`` (a verbatim copy of
``src/catdcor`` from the commit that added this benchmark, kept only as
the output oracle: never edit it), and then measures for ``S`` seconds.
It first starts ``SETUP_PROCESSES`` fresh Python processes that only
cold-import ``catdcor.cli`` from ``src/``, then one workload process that
cold-imports it too and makes ``catdcor.cli.main(argv)`` calls one after
another (a closed loop with one client), at least ``MIN_SAMPLES`` of
them, until the time is up.  Every import counts as a set-up sample.
Every call's outputs are checked against the reference and against the
first call's bytes, so state carried between calls would show.

``--trace 0`` reports the end-to-end metrics, each a median over the
run.  The host is a shared one whose speed drifts by up to 2x over
seconds to minutes, so a whole 25 s run can fall into a slow period.
The times are therefore scaled to a fixed host speed with the fixed
kernel of ``calibrate.py``: each call's time is multiplied by
``calibrate.NOMINAL_S`` over the mean kernel time just before and just
after it, and each import's time by ``NOMINAL_S`` over the kernel time
right after it.  The scaling is the same for the parent and a change;
a slower or faster catdcor moves the result in full, a slower or faster
host much less.  Raw times and kernel times are in the report.
``--trace 1`` splits the time between an untraced and a traced workload
process and reports the per-layer metrics of the traced calls, with
self times scaled in the same way, plus the tracing overhead.

The last line of standard output is the result object; the line before
it is the full report, with the environment record.  Scratch files go to
``.perfbench_work/``.  The benchmark's own tests: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from calibrate import NOMINAL_S
from check import compare_dirs, same_bytes
from tracing import SPAN_NAMES
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SEEDREF = BENCH / "seedref"
WORK = ROOT / ".perfbench_work"
WORKER = BENCH / "worker.py"

MIN_SAMPLES = 3
# Set-up-only processes per run; the workload processes' imports add to them.
SETUP_PROCESSES = 3
WORKER_TIMEOUT_S = 60
# The tables and eigenproblems are at most 30 x 30; one BLAS thread
# removes scheduler noise and nothing else.
BLAS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}

E2E_UNITS = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Layers whose call counts per work item count repeated work.
PER_ITEM_LAYERS = ("estimators.score", "inference.independence_test")


def layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in PER_ITEM_LAYERS:
        units[f"{name}.calls_per_item"] = "count"
    units["trace.overhead_frac"] = "fraction"
    return units


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "seed": seed,
        "blas_threads": BLAS_ENV,
    }


def run_worker(src: Path, argv: list[str], out_dir: Path, seconds: float = 0.0,
               min_calls: int = 1, spans: Path | None = None,
               setup_only: bool = False) -> tuple[dict | None, str]:
    """Run one fresh workload process; return its JSON record and stderr."""
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, "-I", str(WORKER), "--src", str(src), "--out-dir", str(out_dir),
           "--seconds", repr(seconds), "--min-calls", str(min_calls)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", *argv]
    timeout = seconds + WORKER_TIMEOUT_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, env={**os.environ, **BLAS_ENV})
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr.strip()[-2000:]
    return json.loads(lines[-1]), proc.stderr.strip()[-2000:]


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the inputs (for testing the benchmark itself)")
    args = parser.parse_args(argv)
    if not (SRC / "catdcor" / "cli.py").is_file():
        sys.stderr.write(f"error: {SRC / 'catdcor'} not found; run from a full checkout\n")
        return 2

    workload = WORKLOADS[args.workload]
    key = f"{workload.name}-{'tiny' if args.tiny else 'full'}-{args.seed}"
    run_dir = WORK / f"{key}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return measure(workload, args, run_dir, WORK / f"spans-{key}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(workload: Workload, args: argparse.Namespace, run_dir: Path,
            spans_file: Path) -> int:
    """Generate, compute the reference, time the calls, print the result."""
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    cli_argv, items = workload.make(args.seed, inputs, args.tiny)

    ref_record, ref_err = run_worker(SEEDREF, cli_argv, run_dir / "reference")
    if ref_record is None or ref_record["calls"][0]["exit_code"] != 0:
        sys.stderr.write(f"error: the reference run failed: {ref_err}\n")
        return 1
    reference = run_dir / "reference" / "call0"
    # Compile src/ to bytecode and warm the file cache before timing imports.
    run_worker(SRC, [], run_dir / "warm", setup_only=True)

    deadline = time.monotonic() + args.seconds
    failures: list[str] = []
    attempted = 0
    # Each set-up sample is scaled by the kernel timed right after it.
    setups: list[float] = []
    kernels: dict[str, list[float]] = {"setup": []}
    for i in range(SETUP_PROCESSES):
        attempted += 1
        record, err = run_worker(SRC, [], run_dir / f"setup{i}", setup_only=True)
        if record is None:
            failures.append(f"set-up process {i}: no result: {err}")
            continue
        setups.append(record["setup_s"] * NOMINAL_S / record["kernel_s"][0])
        kernels["setup"] += record["kernel_s"]

    kinds = ("plain", "traced") if args.trace else ("plain",)
    samples: dict[str, list[dict]] = {kind: [] for kind in kinds}
    peak_rss_mb = 0.0
    first_output: Path | None = None
    first_counts: dict | None = None
    for k, kind in enumerate(kinds):
        share = max(0.0, deadline - time.monotonic()) / (len(kinds) - k)
        record, err = run_worker(SRC, cli_argv, run_dir / kind, share, MIN_SAMPLES,
                                 spans_file if kind == "traced" else None)
        if record is None:
            attempted += 1
            failures.append(f"{kind} process: no result: {err}")
            continue
        setups.append(record["setup_s"] * NOMINAL_S / record["kernel_s"][0])
        kernels[kind] = kernel = record["kernel_s"]
        if kind == "plain":
            peak_rss_mb = record["peak_rss_mb"]
        for i, call in enumerate(record["calls"]):
            attempted += 1
            if call["exit_code"] != 0:
                # A call that did not finish its work is not timed.
                failures.append(f"{kind} call {i}: exit code {call['exit_code']}: {err}")
                continue
            # Scale by the kernel times just before and just after the call.
            call["scale"] = NOMINAL_S / ((kernel[i] + kernel[i + 1]) / 2)
            samples[kind].append(call)
            out_dir = run_dir / kind / f"call{i}"
            problems = compare_dirs(out_dir, reference)[:5]
            if first_output is None:
                first_output = out_dir
            elif not same_bytes(out_dir, first_output):
                problems.append(f"{kind} outputs differ in bytes from the first call's")
            if kind == "traced":
                counts = {name: layer["calls"] for name, layer in call["layers"].items()}
                first_counts = first_counts or counts
                if counts != first_counts:
                    problems.append("layer call counts differ from the first traced call's")
            if problems:
                failures.append(f"{kind} call {i}: " + "; ".join(problems))

    if not all(samples.values()) or not setups:
        sys.stderr.write("error: no call completed\n" + "\n".join(failures) + "\n")
        return 1
    plain_wall = median([r["wall_s"] * r["scale"] for r in samples["plain"]])
    if args.trace:
        metrics = traced_metrics(samples["traced"], plain_wall, items)
        units = layer_units()
    else:
        metrics = {
            "wall_s": plain_wall,
            "items_per_s": items / plain_wall,
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS
    failed = len(failures)
    report = {
        "workload": workload.name,
        "why": workload.why,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "items": items,
        "environment": environment(args.seed),
        "nominal_kernel_s": NOMINAL_S,
        "kernel_s": kernels,
        "scaled_setup_s": setups,
        "wall_s": {kind: [r["wall_s"] for r in recs] for kind, recs in samples.items()},
        "scale": {kind: [r["scale"] for r in recs] for kind, recs in samples.items()},
        "failed_frac": failed / attempted,
        "failures": failures,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def traced_metrics(traced: list[dict], plain_wall: float, items: int) -> dict[str, float]:
    """Per-layer calls and median scaled self time over the traced calls.

    The overhead compares the median scaled traced and untraced calls.
    """
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = traced[0]["layers"][name]["calls"]
        metrics[f"{name}.self_s"] = median([r["layers"][name]["self_s"] * r["scale"] for r in traced])
    for name in PER_ITEM_LAYERS:
        metrics[f"{name}.calls_per_item"] = metrics[f"{name}.calls"] / items
    traced_wall = median([r["wall_s"] * r["scale"] for r in traced])
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return metrics


if __name__ == "__main__":
    sys.exit(main())
