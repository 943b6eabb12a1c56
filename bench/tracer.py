"""Spans and counts around the calls into each phwc layer.

The tracer wraps the public functions of the package from outside: every
module namespace that bound a function (``from .maps import tension`` makes
second names in ``fstruct``, ``cli`` and the package itself) gets the same
wrapper, and methods are wrapped on their classes.  Each wrapped call
records one span ``[name, start_ns, end_ns, parent]`` in memory.  Below the
layer boundary, at the level of single expression nodes, only counts are
gathered: every ``Expr.jet`` call is counted, and counted again as a repeat
when the same node object was already evaluated inside the same
``eval_jet2`` call.

Self time of a span is its duration minus the durations of its direct
children; calls are single-threaded and nest, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time

# Boundary functions per layer, as "<function>" or "<Class>.<method>".
BOUNDARIES = {
    "jet": ["eval_jet2", "parse_expr"],
    "geometry": ["MetricField.matrix", "MetricField.jets",
                 "HermitianMetricField.matrix", "HermitianMetricField.jets",
                 "christoffel_domain", "christoffel_kaehler",
                 "kaehler_residual", "laplace_beltrami"],
    "maps": ["SmoothMap.jets", "SmoothMap.value", "differential",
             "phwc_residual_coord", "isotropy_residual",
             "phwc_residual_commutator", "hwc_report", "tension", "compose"],
    "fstruct": ["associated_f_structure", "f_holomorphy_residual",
                "dphi_kernel_residual", "nijenhuis_residual",
                "parallel_residual", "met_residual", "domega_12_residual",
                "theorem_suite"],
    "flow": ["run_flow", "dirichlet_energy", "discrete_tension",
             "discrete_phwc_residual"],
    "cli": ["verify_paper", "run_checks", "run_flow_manifest", "emit_report",
            "validate_manifest"],
}
# Layers timed as a whole: every public function gets a span, and only the
# layer's self time is reported.
WHOLE_LAYERS = ("catalog",)
LAYERS = ("jet", "geometry", "maps", "fstruct", "flow", "catalog", "cli")

# The root span of one benchmark op; its self time is the benchmark's own.
ROOT = "bench.op"

# Return values the derived counts are computed from.
_KEEP_RESULTS = ("fstruct.theorem_suite", "flow.run_flow")
SKIP_REASONS = ("NotPHWCAtPoint", "RankDeficiencyAmbiguous",
                "RankJumpOnStencil")


class Tracer:
    """Installs span wrappers on a phwc package and removes them again."""

    def __init__(self, phwc):
        self.phwc = phwc
        self.spans: list[list] = []
        self.results: dict[int, object] = {}
        self.nodes = [0, 0]            # node evaluations, repeats
        self._seen: list[set] = [set()]
        self._stack = [-1]
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        prefix = self.phwc.__name__
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None
                and (name == prefix or name.startswith(prefix + "."))]

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = self._modules()
        for layer, names in BOUNDARIES.items():
            module = getattr(self.phwc, layer)
            for qual in names:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, meth, self._span(name, cls.__dict__[meth]))
                else:
                    fn = getattr(module, qual)
                    self._rebind(mods, fn, self._span(name, fn))
        for layer in WHOLE_LAYERS:
            module = getattr(self.phwc, layer)
            for name in module.__all__:
                fn = getattr(module, name)
                self._rebind(mods, fn, self._span(f"{layer}.{name}", fn))
        self._install_node_counts()

    def _rebind(self, mods, original, wrapper) -> None:
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _install_node_counts(self) -> None:
        jet = self.phwc.jet
        nodes, seen = self.nodes, self._seen
        for cls in _subclasses(jet.Expr):
            if "jet" not in cls.__dict__:
                continue

            def counted(node, p, _orig=cls.__dict__["jet"]):
                nodes[0] += 1
                key = id(node)
                if key in seen[0]:
                    nodes[1] += 1
                else:
                    seen[0].add(key)
                return _orig(node, p)

            self._set(cls, "jet", counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- recording --------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter_ns
        keep = name in _KEEP_RESULTS
        fresh_nodes = name == "jet.eval_jet2"
        seen = self._seen

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fresh_nodes:
                seen[0] = set()
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1]])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if keep:
                results[idx] = out
            return out

        return wrapper

    def op(self, fn):
        """Run fn() under a root span; returns its result."""
        return self._span(ROOT, fn)()

    def reset(self) -> None:
        self.spans.clear()
        self.results.clear()
        self.nodes[:] = [0, 0]

    # -- summaries --------------------------------------------------------

    def counts(self) -> dict:
        """Exact counts of the recorded op; equal across same-input ops."""
        calls: dict[str, int] = {}
        for span in self.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        out = {f"{name}.calls": n for name, n in calls.items()}
        out["jet.node_evals"] = self.nodes[0]
        out["jet.node_repeats"] = self.nodes[1]
        out.update(self._flow_counts())
        out.update(self._theorem_counts())
        return out

    def self_times(self) -> dict:
        """Self seconds per span name and per layer."""
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        per_name: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(spans):
            per_name[name] = per_name.get(name, 0) + (end - start - child[i])
        out = {f"{name}.self_s": ns / 1e9 for name, ns in per_name.items()}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                ns for name, ns in per_name.items()
                if name.split(".")[0] == layer) / 1e9
        return out

    def _children(self, idx, name):
        return sum(1 for span in self.spans
                   if span[3] == idx and span[0] == name)

    def _flow_counts(self) -> dict:
        runs = self._results("flow.run_flow")
        accepted = sum(trace[-1][0] for _, (_, trace) in runs)
        energy_evals = sum(self._children(idx, "flow.dirichlet_energy")
                           for idx, _ in runs)
        return {
            # every run evaluates the initial energy once, then once per
            # trial step; trials beyond the accepted ones are halvings
            "flow.halvings": energy_evals - len(runs) - accepted,
            "flow.accepted_per_energy_eval":
                accepted / energy_evals if energy_evals else 0.0,
        }

    def _theorem_counts(self) -> dict:
        under = [False] * len(self.spans)
        f_evals = 0
        for i, (name, _, _, parent) in enumerate(self.spans):
            under[i] = name == "fstruct.theorem_suite" or (
                parent >= 0 and under[parent])
            if under[i] and name == "fstruct.associated_f_structure":
                f_evals += 1
        points = checked = 0
        skipped = dict.fromkeys(SKIP_REASONS, 0)
        for _, report in self._results("fstruct.theorem_suite"):
            points += len(report.records)
            checked += report.checked
            for rec in report.records:
                if rec.status == "skipped":
                    for reason in rec.reasons:
                        skipped[reason] = skipped.get(reason, 0) + 1
        out = {
            "fstruct.f_evals_per_theorem_point":
                f_evals / points if points else 0.0,
            "fstruct.theorem_checked": checked,
        }
        for reason, n in skipped.items():
            out[f"fstruct.theorem_skipped.{reason}"] = n
        return out

    def _results(self, name):
        return [(idx, out) for idx, out in sorted(self.results.items())
                if self.spans[idx][0] == name]


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
