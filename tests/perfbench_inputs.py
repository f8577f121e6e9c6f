"""The seeded perfbench workloads' inputs, for tests that run the CLI on them."""

import importlib.util
import sys
from pathlib import Path


def perfbench_workload(name, seed, directory):
    """The argv of a seeded perfbench workload, its inputs written to ``directory``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module.WORKLOADS[name].make(seed, directory, False)[0]
