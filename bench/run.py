"""phwc benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload paper --seed 42 --seconds 55 --trace 0

Run from the root of a source checkout; phwc is imported from ./src.  Each
workload runs in processes of its own, with OpenBLAS pinned to one thread:
a few set-up probes (each starts, sets up and exits; ``setup_s`` is the
median from process start to the first op) and one process that runs the
ops.  With ``--trace 0`` the ops run untraced and the end-to-end metrics
are printed; with ``--trace 1`` two processes alternate untraced and traced
ops, and the per-layer metrics are printed.  The last line of standard
output is one JSON object; the exit code is 0 when every op's output checked
correct, 1 when one did not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import BOUNDARIES, LAYERS, SKIP_REASONS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 10          # plus the measuring process: eleven samples
RUN_LIMIT_S = 170.0        # every run must end within 180 s
SPANS_DIR = HERE / "out"
TRACED_PROCESSES = 2
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s",
              "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for layer, names in BOUNDARIES.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "jet.node_evals": "count",
        "jet.repeat_node_share": "ratio",
        "fstruct.f_evals_per_theorem_point": "count",
        "fstruct.theorem_checked": "count",
        "flow.halvings": "count",
        "flow.accepted_per_energy_eval": "ratio",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    })
    for reason in SKIP_REASONS:
        units[f"fstruct.theorem_skipped.{reason}"] = "count"
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _worker(args, mode, deadline, seconds=0.0, extra=()):
    """Run worker.py once; returns (its JSON result, seconds to ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{mode} process exceeded the run limit") from err
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["phwc"].startswith(str(ROOT / "src") + os.sep):
        raise BenchError(f"phwc was imported from {result['phwc']}, "
                         f"not from this checkout")
    return result, result["ready"] - spawned


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _context(args, result, ops) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "git_commit": _git_commit(),
        "ops": len(ops), **result["env"], **result.get("describe", {}),
    }


def _problems(ops) -> list:
    return [p for op in ops for p in op["problems"]]


def run_timed(args, deadline):
    setup = [_worker(args, "setup", deadline)[1]
             for _ in range(SETUP_PROBES)]
    result, ready = _worker(args, "time", deadline, args.seconds)
    setup.append(ready)
    ops = result["ops"]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "steps_per_s": statistics.median(op["steps"] / op["wall_s"]
                                         for op in ops),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return result, ops, metrics, _problems(ops)


def run_traced(args, deadline):
    """Two traced processes of the same seed, each given half of --seconds;
    every count must agree across all their traced ops."""
    SPANS_DIR.mkdir(exist_ok=True)
    ops = []
    for k in range(TRACED_PROCESSES):
        spans = SPANS_DIR / f"{args.workload}-seed{args.seed}-{k}.spans.tsv"
        result, _ = _worker(args, "trace", deadline,
                            args.seconds / TRACED_PROCESSES,
                            ("--spans", str(spans)))
        ops += result["ops"]
        print(f"spans: {spans.relative_to(ROOT)}")
    traced = [op for op in ops if "counts" in op]
    untraced = [op for op in ops if "counts" not in op]
    counts = traced[0]["counts"]
    metrics = {}
    for name in per_layer_units():
        if name in counts or name.endswith(".calls"):
            metrics[name] = counts.get(name, 0)
        elif name.endswith(".self_s"):
            metrics[name] = statistics.median(op["self_s"].get(name, 0.0)
                                              for op in traced)
    evals = counts["jet.node_evals"]
    metrics["jet.repeat_node_share"] = \
        counts["jet.node_repeats"] / evals if evals else 0.0
    metrics["trace.wall_s"] = statistics.median(op["wall_s"] for op in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        op["wall_s"] for op in untraced)
    problems = _problems(ops)
    if any(op["counts"] != counts for op in traced):
        problems.append("counts differ between traced ops of one seed")
    return result, ops, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "phwc" / "__init__.py").is_file():
        print(f"bench: no phwc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            result, ops, metrics, problems = run_traced(args, deadline)
        else:
            result, ops, metrics, problems = run_timed(args, deadline)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2

    units = per_layer_units() if args.trace else END_TO_END
    failed = sum(1 for op in ops if op["problems"])
    context = _context(args, result, ops)
    print("context: " + json.dumps(context, sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}")
    print(f"{args.workload}: {len(ops)} ops, wall_s median "
          f"{statistics.median(op['wall_s'] for op in ops):.4f} s, "
          f"fail_ratio {failed}/{len(ops)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
