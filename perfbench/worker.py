"""One workload process: cold import, then timed ``catdcor.cli.main`` calls.

Run as::

    python -I worker.py --src DIR --out-dir DIR --seconds S --min-calls N
                        [--trace SPANS_FILE] [--setup-only] -- <cli argv>

The process imports ``catdcor.cli`` from ``--src`` (timed as set-up) and
then makes one CLI call after another, each writing its output to
``<out-dir>/call<i>/``, until at least ``--min-calls`` calls are done and
the next one would not end within ``--seconds`` of the first.  The
calibration kernel is timed before every call and after the last.  With
``--setup-only`` it makes no call and times the kernel once.  With
``--trace`` it first wraps the traced functions, writes every span to
``SPANS_FILE`` at the end, and adds per-layer totals to each call.  The
last line of standard output is one JSON object with all of it and the
process's peak resident set size.

Only the standard library is imported before the set-up timer starts.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time


def parse(argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    sep = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-calls", type=int, default=1)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv[:sep]), argv[sep + 1:]


def main() -> int:
    opts, cli_argv = parse(sys.argv[1:])
    src = os.path.abspath(opts.src)
    sys.path.insert(0, src)

    start = time.perf_counter()
    import catdcor.cli as cli
    setup_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {cli.__file__}, expected a module under {src}")

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from calibrate import time_kernel
    kernel_s = [time_kernel()]
    result = {"setup_s": setup_s, "kernel_s": kernel_s, "calls": []}
    if opts.setup_only:
        sys.stdout.write(json.dumps(result) + "\n")
        return 0

    tracer = None
    all_spans: list[list] = []
    if opts.trace is not None:
        from tracing import ROOT_SPAN, Tracer
        tracer = Tracer()
        missing = tracer.install()
        if missing:
            sys.stderr.write(f"untraced (not found): {missing}\n")

    deadline = time.monotonic() + opts.seconds
    walls: list[float] = []
    while len(walls) < opts.min_calls or (
            time.monotonic() + statistics.median(walls) <= deadline):
        out = os.path.join(opts.out_dir, f"call{len(walls)}")
        os.makedirs(out)
        argv = [*cli_argv, "--out", os.path.join(out, "out.json")]
        if len(walls):
            kernel_s.append(time_kernel())
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(ROOT_SPAN, cli.main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a failed call is counted, not fatal
            sys.stderr.write(f"call {len(walls)}: {exc!r}\n")
            code = 1
        walls.append(time.perf_counter() - start)
        call = {"wall_s": walls[-1], "exit_code": code}
        if tracer is not None:
            call["layers"] = tracer.layer_totals()
            offset = len(all_spans)
            all_spans.extend([name, start, end, parent + offset if parent >= 0 else -1]
                             for name, start, end, parent in tracer.spans)
            tracer.spans = []
        result["calls"].append(call)
    kernel_s.append(time_kernel())

    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open(opts.trace, "w", encoding="utf-8") as fh:
            json.dump(all_spans, fh)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
