"""One workload in one process: set up, run ops in a closed loop, report.

Started by run.py, never by hand; the last line of standard output is a
JSON object for run.py.  Modes:

- ``setup``: set up, report the monotonic time at which the first op could
  start, exit;
- ``time``: run ops untraced for --seconds (at least three), report each
  op's wall time, steps and problems, and the process's peak resident
  memory;
- ``trace``: alternate untraced and traced ops; report each traced op's
  counts and self times, and write its spans to --spans.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy
import phwc
import phwc.cli  # noqa: F401  (loads catalog too; the package does not)

from tracer import Tracer
from workloads import WORKLOADS


def _run_op(workload, call):
    """Returns (wall seconds, steps, problems) of one op."""
    t0 = time.perf_counter()
    try:
        out = call(workload.op)
    except Exception as err:  # a raising op is a failed op, not a crash
        return time.perf_counter() - t0, 0, [f"{type(err).__name__}: {err}"]
    wall = time.perf_counter() - t0
    try:
        steps, problems = workload.check(out)
    except Exception as err:
        return wall, 0, [f"output check raised {type(err).__name__}: {err}"]
    return wall, steps, problems


def _direct(fn):
    return fn()


def _op_record(wall, steps, problems):
    return {"wall_s": wall, "steps": steps, "problems": problems}


def run_timed(workload, seconds, min_ops=3):
    ops = []
    start = time.perf_counter()
    while True:
        wall, steps, problems = _run_op(workload, _direct)
        ops.append(_op_record(wall, steps, problems))
        # start another op only if it should end within the run
        elapsed = time.perf_counter() - start
        if len(ops) >= min_ops and elapsed + wall > seconds:
            return {"ops": ops}


def run_traced(phwc, workload, seconds, spans_path):
    """Alternate untraced and traced ops for --seconds, at least one pair;
    the untraced ops are the baseline of the tracing overhead, taken in the
    same stretch of time as the traced ones."""
    tracer = Tracer(phwc)
    ops, spans = [], []
    start = time.perf_counter()
    while True:
        ops.append(_op_record(*_run_op(workload, _direct)))
        tracer.reset()
        tracer.install()
        try:
            traced = _op_record(*_run_op(workload, tracer.op))
        finally:
            tracer.uninstall()
        traced.update(counts=tracer.counts(), self_s=tracer.self_times())
        ops.append(traced)
        spans.append(list(tracer.spans))
        pair = ops[-2]["wall_s"] + traced["wall_s"]
        if time.perf_counter() - start + pair > seconds:
            break
    with open(spans_path, "w") as fh:
        fh.write("op\tindex\tparent\tname\tstart_ns\tend_ns\n")
        for k, op_spans in enumerate(spans):
            for i, (name, t0, t1, parent) in enumerate(op_spans):
                fh.write(f"{k}\t{i}\t{parent}\t{name}\t{t0}\t{t1}\n")
    return {"ops": ops}


def _environment() -> dict:
    """Versions, and OpenBLAS's own thread count when it can be asked."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            threads = fn()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace"),
                        required=True)
    parser.add_argument("--spans", help="span file of the trace mode")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](phwc, args.seed)
    result = {"ready": time.monotonic(), "phwc": phwc.__file__}
    if args.mode == "time":
        result.update(run_timed(workload, args.seconds))
    elif args.mode == "trace":
        result.update(run_traced(phwc, workload, args.seconds, args.spans))
    result["env"] = _environment()
    if hasattr(workload, "describe"):
        result["describe"] = workload.describe()
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
