"""Spans around calls into catdcor's public functions, installed from outside.

The package is not edited.  Each traced function is replaced, at every
module attribute that holds it, by a wrapper that records a span (name,
start, end, parent) in memory.  Callers look functions up through their
own module's namespace (``cli.screen``, ``simulate.screen`` and
``screening.screen`` are separate bindings), so every binding of the same
function object is replaced.  ``JointTable.from_codes`` is a classmethod
and is replaced on the class.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Span name -> (home module, attribute).  A dotted attribute names a
# classmethod on a class of that module.  The span names are the layer
# metrics' names: ``<module>.<function>``.
TRACED: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.ingest": (("cli", "ingest"),),
    "encodings.distance_matrix": (("encodings", "distance_matrix"),),
    "estimators.tabulate": (("estimators", "JointTable.from_codes"),),
    "estimators.score": (("estimators", "dcor2_mle"), ("estimators", "dcor2_unbiased")),
    "inference.independence_test": (("inference", "independence_test"),),
    "inference.null_spectrum": (("inference", "null_spectrum"),),
    "inference.permutation_test": (("inference", "permutation_test"),),
    "inference.confidence_interval": (("inference", "confidence_interval"),),
    "inference.alt_inference": (("inference", "alt_inference"),),
    "screening.screen": (("screening", "screen"),),
    "screening.apply_changepoint": (("screening", "apply_changepoint"),),
    "simulate.build_joint": (("simulate", "build_joint"),),
    "simulate.sample_dataset": (("simulate", "sample_dataset"),),
    "simulate.roc_auc": (("simulate", "roc_auc"),),
    "simulate.roc_points": (("simulate", "roc_points"),),
    "simulate.run_benchmark": (("simulate", "run_benchmark"),),
}
ROOT_SPAN = "cli.main"
SPAN_NAMES = (ROOT_SPAN,) + tuple(TRACED)


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent]``.

    ``parent`` is the index of the enclosing span, or -1.  The workloads
    are single-threaded, so one stack of open spans suffices.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self, package: str = "catdcor") -> list[str]:
        """Wrap every binding of the traced functions; return names not found.

        A function that a later version of the package renamed or removed
        is reported and skipped, so its metrics read zero calls.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        missing = []
        for name, targets in TRACED.items():
            for module_name, attr in targets:
                home = sys.modules.get(f"{package}.{module_name}")
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                if owner is None or not hasattr(owner, method):
                    missing.append(f"{module_name}.{attr}")
                    continue
                if owner_name:
                    original = owner.__dict__[method]
                    if not isinstance(original, classmethod):
                        missing.append(f"{module_name}.{attr}")
                        continue
                    setattr(owner, method, classmethod(self.wrap(name, original.__func__)))
                    continue
                original = getattr(owner, method)
                wrapped = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
        return missing

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it and do not overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - inner
        return {name: totals[name] for name in SPAN_NAMES}
