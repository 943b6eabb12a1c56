"""The benchmark's workloads: inputs from a seed, one op, and its checks.

Every workload is a closed loop of one client: the next op starts only after
the previous one has returned.  Construction is the workload's set-up (the
``setup_s`` metric); ``op`` is the timed call into phwc; ``check`` verifies
the op's output outside the timed region and returns the op's step count
and a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# sha256 of the JSON report of `phwc verify-paper --seed 42` at the seed
# commit; a refactor that changes it must say why.
PAPER_SEED42_SHA256 = \
    "3ea5085ed3970afc0656319e1ab06e1049017b1cf5cfd9a157f39620910f3b6f"

# run_flow promises E_next <= E + ENERGY_SLACK for every accepted step.
ENERGY_SLACK = 1e-12


class Paper:
    """`phwc verify-paper --seed <seed>`: the main user path.

    Deep composite expression trees with shared subtrees at few points; runs
    the whole f-structure theorem harness and almost no flow.
    """

    def __init__(self, phwc, seed: int):
        self.cli = phwc.cli
        self.seed = seed
        self.digest = None

    def op(self):
        report = self.cli.verify_paper(self.seed)
        return report, self.cli.emit_report(report, "json")

    def check(self, out):
        report, data = out
        problems = [f"verdict {rec['check']} failed"
                    for rec in report["records"] if not rec["pass"]]
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("report bytes differ between ops of one run")
        if self.seed == 42 and digest != PAPER_SEED42_SHA256:
            problems.append(f"seed 42 report sha256 {digest} is not the "
                            f"seed commit's {PAPER_SEED42_SHA256}")
        return len(report["records"]), problems

    def describe(self) -> dict:
        return {"report_sha256": self.digest}


class FlowFlat:
    """`phwc flow` on the shape of manifests/flow_demo.json.

    32x32 torus grid into flat C^1, explicit Euler to stop_tol.  The seed
    draws phases and small amplitude changes of the low modes, which keep
    the step count near 3200, so a change in per-step speed is not hidden
    by a change in step count.
    """

    def __init__(self, phwc, seed: int):
        self.cli = phwc.cli
        self.flow = phwc.flow
        rng = np.random.default_rng(seed)
        a, b, c = (rng.uniform(lo, hi) for lo, hi in
                   ((0.28, 0.32), (0.08, 0.12), (0.02, 0.05)))
        t1, t2, t3 = rng.uniform(0.0, 2 * math.pi, 3)
        initial = (f"{a:.6f}*cos(x1 + {t1:.6f}) "
                   f"+ {b:.6f}*i*sin(x2 + {t2:.6f}) "
                   f"+ {c:.6f}*cos(2*x1 + x2 + {t3:.6f})")
        manifest = {
            "domain": {"dim": 2, "metric": "euclidean"},
            "target": {"cdim": 1, "hermitian": "flat", "kaehler": True},
            "map": {"components": ["x1 + i*x2"]},
            "checks": [],
            "sample": {"count": 0, "seed": seed},
            "flow": {"grid": [32, 32], "dt": 0.004, "max_steps": 8000,
                     "stop_tol": 1e-6, "initial": [initial]},
        }
        self.raw = self.cli.parse_manifest(json.dumps(manifest))
        self.stop_tol = manifest["flow"]["stop_tol"]
        # run_flow_manifest reports only the end points of the energy
        # trace; keep the whole trace of each op for the check
        self.traces = []
        self.cli.run_flow = self._run_flow_keeping_trace

    def _run_flow_keeping_trace(self, *args, **kwargs):
        final, trace = self.flow.run_flow(*args, **kwargs)
        self.traces.append(trace)
        return final, trace

    def op(self):
        self.traces.clear()
        report = self.cli.run_flow_manifest(self.raw)
        return report, self.cli.emit_report(report, "json"), list(self.traces)

    def check(self, out):
        report, _, traces = out
        (rec,) = report["records"]
        (trace,) = traces
        problems = []
        if not (rec["pass"] and rec["value"] < self.stop_tol):
            problems.append(f"flow did not converge: max|tau| {rec['value']}")
        problems += _energy_problems(trace)
        return trace[-1][0], problems


def _energy_problems(trace) -> list:
    return [f"energy rose from {e0!r} to {e1!r} at step {step}"
            for (_, e0, _), (step, e1, _) in zip(trace, trace[1:])
            if e1 > e0 + ENERGY_SLACK]


WORKLOADS = {"paper": Paper, "flow_flat": FlowFlat}
