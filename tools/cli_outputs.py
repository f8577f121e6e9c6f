"""Write every CLI output of the perfbench workloads, one directory per run, for ``diff -r``.

Usage: ``python tools/cli_outputs.py SRC OUT [--tiny]``

``catdcor`` is imported from the directory ``SRC`` (for example a
checkout's ``src``).  The inputs come from ``perfbench/workloads.py``,
which is read, not changed.  At each of the seeds 7 and 21 there are 11
runs: ``screen`` on screen_wide under both estimators; ``test`` on
test_analytic and on test_permutation with ``--pvalue analytic`` and
``--pvalue permutation`` under both estimators; and ``simulate`` as
simulate_s4 runs it.  Run
``OUT/seed<S>/<run>/`` holds the run's output files and its ``stdout``,
``stderr`` and exit ``code``.  Two packages whose runs give trees equal
under ``diff -r`` wrote the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
ESTIMATORS = ("mle", "unbiased")
SEEDS = (7, 21)


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module.WORKLOADS


def runs(seed: int, inputs: Path, tiny: bool) -> dict[str, list[str]]:
    """Run name -> argv (without ``--out``), the workloads' inputs written under ``inputs``."""
    argvs = {}
    for name, workload in _workloads().items():
        (inputs / name).mkdir()
        argv = workload.make(seed, inputs / name, tiny)[0]
        if argv[0] == "screen":
            for estimator in ESTIMATORS:
                argvs[f"{name}-{estimator}"] = argv + ["--estimator", estimator]
        elif argv[0] == "test":
            for pvalue in ("analytic", "permutation"):
                for estimator in ESTIMATORS:
                    argvs[f"{name}-{pvalue}-{estimator}"] = argv + [
                        "--pvalue", pvalue, "--estimator", estimator, "--seed", str(seed)]
        else:
            argvs[name] = argv
    return argvs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory that holds the catdcor package")
    parser.add_argument("out", type=Path, help="directory to write the runs into")
    parser.add_argument("--tiny", action="store_true", help="the workloads' small inputs")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import catdcor.cli

    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as inputs:
            for name, run_argv in runs(seed, Path(inputs), args.tiny).items():
                run = args.out / f"seed{seed}" / name
                run.mkdir(parents=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = catdcor.cli.main(run_argv + ["--out", str(run / "out.json")])
                    except SystemExit as exc:
                        code = exc.code
                (run / "stdout").write_text(stdout.getvalue(), encoding="utf-8")
                (run / "stderr").write_text(stderr.getvalue(), encoding="utf-8")
                (run / "code").write_text(f"{code}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
