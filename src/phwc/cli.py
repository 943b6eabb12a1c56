"""Manifest-driven command-line driver.

A manifest is a JSON document describing the geometry, the map, the checks
to run and the sampling plan:

    {
      "domain": {"dim": 2, "metric": "euclidean"},          // or expr grid
      "target": {"cdim": 3, "hermitian": "flat", "kaehler": true},
      "map":    {"components": ["x1 + i*x2", "x1 + i*x2", "x1 + i*x2"]},
      "checks": ["phwc", {"name": "hwc", "tol": 0.5, "negate": true}],
      "sample": {"count": 100, "seed": 7, "box": [[-2, 2], [-2, 2]]},
      "flow":   {"grid": [64, 64], "dt": 1e-3, "stop_tol": 1e-6,
                 "max_steps": 2000, "initial": ["..."], "snapshot": "out.txt"}
    }

Metric grids are matrices of expression strings in the grammar of the jet
module; check entries take per-check "tol" overrides, "negate": true for
residuals that are expected to exceed the tolerance, and (for "fstructure")
an expected "rank".  The seed is mandatory whenever points are sampled, so
identical manifests always produce byte-identical JSON reports.

Subcommands: check, sweep (same, larger default count), flow, verify-paper,
report (re-emit a stored report).  Exit codes: 0 all pass, 1 check failure,
2 usage or parse error.  Reports carry "schema": 1.

Flow snapshots (written when the manifest sets ``flow.snapshot``) are text
tables, one node per row in C order: the grid coordinates followed by
re/im pairs for each target component, with '#' header lines recording the
grid shape.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, catalog, jet
from .flow import (
    FlowConfig,
    GridMap,
    StepSizeUnderflow,
    discrete_phwc_residual,
    run_flow,
    save_snapshot,
    stable_dt_bound,
)
from .fstruct import (
    CheckPoint,
    NotPHWCAtPoint,
    RankDeficiencyAmbiguous,
    RankJumpOnStencil,
    SuiteSample,
    dphi_kernel_residual,
    domega_12_residual,
    f_holomorphy_residual,
    met_residual,
    nijenhuis_residual,
    parallel_residual,
    share_stencils,
    theorem_suite,
)
from .geometry import (GeometryError, HermitianMetricField, MetricField,
                       share_metric)
from .jet import ParseError, VariableIndexOutOfRange
from .maps import (
    PointData,
    SmoothMap,
    compose,
    differential,
    hwc_report,
    isotropy_residual,
    phwc_residual_commutator,
    phwc_residual_coord,
    pluriharmonic_residual,
    share_differential,
    share_pass,
    tension,
)

SCHEMA_VERSION = 1


def _hwc(pt: CheckPoint):
    rep = hwc_report(pt)
    return rep.defect, {"lambda_sq": rep.lambda_sq}


def _fstructure(pt: CheckPoint):
    return pt.fp.algebra_residual(), {
        "rank": pt.fp.rank, "dphi_pzero": dphi_kernel_residual(pt, pt.fp)}


# name: (default tol, residual of a CheckPoint giving (value, extra)).
# Equality residuals default to 1e-10, those read off F's difference
# stencil to 1e-6.  The residuals are looked up by name at each call, so a
# wrapper bound to a module name (the benchmark's tracer) sees every call.
CHECKS = {
    "phwc": (1e-10, lambda pt: (phwc_residual_coord(pt), {})),
    "isotropy": (1e-10, lambda pt: (isotropy_residual(pt), {})),
    "commutator": (1e-10, lambda pt: (phwc_residual_commutator(pt), {})),
    "hwc": (1e-10, _hwc),
    "tension": (1e-10, lambda pt: (tension(pt).harmonic_residual, {})),
    "pluriharmonic": (1e-10, lambda pt: (pluriharmonic_residual(pt), {})),
    "fstructure": (1e-10, _fstructure),
    "f_holomorphy": (1e-10, lambda pt: (f_holomorphy_residual(pt, pt.fp), {})),
    "nijenhuis": (1e-6, lambda pt: (nijenhuis_residual(pt.stencil), {})),
    "parallel": (1e-6, lambda pt: (parallel_residual(pt.stencil), {})),
    "domega12": (1e-6, lambda pt: (domega_12_residual(pt.stencil), {})),
    "met": (1e-6, lambda pt: (met_residual(pt.stencil), {})),
}
CHECK_NAMES = tuple(CHECKS)

# the checks that read F's difference stencil
STENCIL_CHECKS = ("nijenhuis", "parallel", "domega12", "met")

BUILTIN_MANIFESTS = {
    "example1": {
        "domain": {"dim": 2, "metric": "euclidean"},
        "target": {"cdim": 3, "hermitian": "flat", "kaehler": True},
        "map": {"components": ["x1 + i*x2", "x1 + i*x2", "x1 + i*x2"]},
        "checks": [
            {"name": "phwc", "tol": 1e-12},
            {"name": "isotropy", "tol": 1e-12},
            {"name": "commutator", "tol": 1e-10},
            {"name": "tension", "tol": 1e-12},
            {"name": "hwc", "tol": 0.5, "negate": True},
            {"name": "fstructure", "tol": 1e-10, "rank": 2},
            {"name": "f_holomorphy", "tol": 1e-9},
        ],
        "sample": {"count": 100, "seed": 7, "box": [[-2, 2], [-2, 2]]},
    },
    "example2": {
        "domain": {"dim": 4, "metric": "euclidean"},
        "target": {"cdim": 2, "hermitian": "flat", "kaehler": True},
        "map": {"components": ["i*(x1 + x2) + x3 + x4",
                               "i*(x1 + x2) + x3 + x4"]},
        "checks": [
            {"name": "phwc", "tol": 1e-12},
            {"name": "isotropy", "tol": 1e-12},
            {"name": "commutator", "tol": 1e-10},
            {"name": "tension", "tol": 1e-12},
            {"name": "hwc", "tol": 1.0, "negate": True},
            {"name": "fstructure", "tol": 1e-10, "rank": 2},
            {"name": "f_holomorphy", "tol": 1e-9},
        ],
        "sample": {"count": 100, "seed": 11, "box": [[-2, 2]] * 4},
    },
}


# Errors of one operation at one point (or of one flow run): recorded on the
# record with pass = false, never fatal.  ArithmeticError covers
# DivisionNearZero, OverflowError and ZeroDivisionError.
OPERATION_ERRORS = (GeometryError, NotPHWCAtPoint, RankDeficiencyAmbiguous,
                    RankJumpOnStencil, ArithmeticError, np.linalg.LinAlgError,
                    VariableIndexOutOfRange, StepSizeUnderflow)


class ValidationError(ValueError):
    """Manifest is structurally valid JSON but violates the schema."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# ---------------------------------------------------------------------------
# manifest parsing and validation
# ---------------------------------------------------------------------------

def _integer(x) -> bool:
    """A JSON integer, not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _number(x) -> bool:
    """A JSON number (not a bool) within the float range."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        float(x)
    except OverflowError:         # an integer beyond the float range
        return False
    return True


def _finite_number(x) -> bool:
    """A JSON number (not a bool) with a finite float value."""
    return _number(x) and math.isfinite(x)


def _parse_expression(text, field: str, max_vars: int):
    if not isinstance(text, str):
        raise ValidationError(field, "expected an expression string")
    try:
        e = jet.parse_expr(text)
    except ParseError as err:
        raise ValidationError(field, str(err)) from err
    top = jet.max_var_index(e)
    if top >= max_vars:
        raise ValidationError(
            field, f"references x{top + 1} but only x1..x{max_vars} exist")
    return e


def _expr_grid(grid, field: str, size: int, max_vars: int):
    if not (isinstance(grid, list) and len(grid) == size
            and all(isinstance(row, list) and len(row) == size for row in grid)):
        raise ValidationError(field, f"expected a {size}x{size} matrix of "
                                     "expression strings")
    return [[_parse_expression(grid[i][j], f"{field}[{i}][{j}]", max_vars)
             for j in range(size)] for i in range(size)]


def parse_manifest(text: str) -> dict:
    """Parse and validate manifest text; returns the manifest dictionary.

    Raises ParseError with position information for malformed JSON or
    expressions, ValidationError naming the offending field otherwise.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"manifest is not valid JSON: {err.msg} "
                         f"(line {err.lineno})", err.pos) from err
    validate_manifest(raw)
    return raw


def validate_manifest(raw: dict) -> None:
    if not isinstance(raw, dict):
        raise ValidationError("$", "manifest must be a JSON object")

    domain = raw.get("domain")
    if not isinstance(domain, dict) or "dim" not in domain:
        raise ValidationError("domain", "missing object with a 'dim' field")
    dim = domain["dim"]
    if not _integer(dim) or dim < 1:
        raise ValidationError("domain.dim", "must be a positive integer")
    metric = domain.get("metric", "euclidean")
    if isinstance(metric, str):
        if metric != "euclidean":
            raise ValidationError("domain.metric",
                                  f"unknown builtin {metric!r}; use "
                                  "'euclidean' or an expression matrix")
    else:
        _expr_grid(metric, "domain.metric", dim, dim)

    target = raw.get("target")
    if not isinstance(target, dict) or "cdim" not in target:
        raise ValidationError("target", "missing object with a 'cdim' field")
    cdim = target["cdim"]
    if not _integer(cdim) or cdim < 1:
        raise ValidationError("target.cdim", "must be a positive integer")
    hermitian = target.get("hermitian", "flat")
    if isinstance(hermitian, str):
        if hermitian != "flat":
            raise ValidationError("target.hermitian",
                                  f"unknown builtin {hermitian!r}; use "
                                  "'flat' or an expression matrix")
    else:
        _expr_grid(hermitian, "target.hermitian", cdim, 2 * cdim)
    if not isinstance(target.get("kaehler", False), bool):
        raise ValidationError("target.kaehler", "must be a boolean")

    map_block = raw.get("map")
    if not isinstance(map_block, dict) or "components" not in map_block:
        raise ValidationError("map", "missing object with 'components'")
    comps = map_block["components"]
    if not isinstance(comps, list) or len(comps) != cdim:
        raise ValidationError("map.components",
                              f"expected {cdim} expression strings")
    for a, comp in enumerate(comps):
        _parse_expression(comp, f"map.components[{a}]", dim)

    checks = raw.get("checks", [])
    if not isinstance(checks, list):
        raise ValidationError("checks", "must be a list")
    for idx, entry in enumerate(checks):
        name = entry if isinstance(entry, str) else (
            entry.get("name") if isinstance(entry, dict) else None)
        if name not in CHECK_NAMES:
            raise ValidationError(
                f"checks[{idx}]", f"unknown check {name!r}; valid names: "
                + ", ".join(CHECK_NAMES))
        if name == "pluriharmonic" and dim % 2:
            raise ValidationError(
                f"checks[{idx}]", "pluriharmonic needs an even-dimensional "
                "domain chart")
        if isinstance(entry, dict):
            if "tol" in entry and not _finite_number(entry["tol"]):
                raise ValidationError(f"checks[{idx}].tol",
                                      "must be a finite number")
            if "negate" in entry and not isinstance(entry["negate"], bool):
                raise ValidationError(f"checks[{idx}].negate",
                                      "must be a boolean")

    sample = raw.get("sample", {"count": 0})
    if not isinstance(sample, dict):
        raise ValidationError("sample", "must be an object")
    count = sample.get("count", 0)
    if not _integer(count) or count < 0:
        raise ValidationError("sample.count", "must be a non-negative integer")
    seed = sample.get("seed")
    if count > 0 and seed is None:
        raise ValidationError("sample.seed",
                              "a seed is mandatory when count > 0")
    if seed is not None and (not _integer(seed) or seed < 0):
        raise ValidationError("sample.seed", "must be a non-negative integer")
    box = sample.get("box", [[-1.0, 1.0]] * dim)
    if (not isinstance(box, list) or len(box) != dim
            or any(not isinstance(iv, list) or len(iv) != 2
                   or not all(_finite_number(x) for x in iv)
                   or not iv[0] < iv[1]
                   or not math.isfinite(float(iv[1]) - float(iv[0]))
                   for iv in box)):
        raise ValidationError("sample.box",
                              f"expected {dim} intervals [lo, hi] of finite "
                              "numbers with lo < hi and a finite width")
    if checks and count == 0:
        raise ValidationError("sample.count",
                              "checks are requested but no points are sampled")

    flow = raw.get("flow")
    if flow is not None:
        if not isinstance(flow, dict):
            raise ValidationError("flow", "must be an object")
        grid = flow.get("grid")
        if (not isinstance(grid, list) or not grid
                or any(not isinstance(N, int) or N < 4 for N in grid)):
            raise ValidationError("flow.grid",
                                  "expected a list of grid sizes >= 4")
        if not _finite_number(flow.get("dt")) or flow["dt"] <= 0:
            raise ValidationError("flow.dt", "must be a positive number")
        bound = stable_dt_bound(grid)
        if flow["dt"] >= bound:
            raise ValidationError(
                "flow.dt", f"{flow['dt']} violates the explicit Euler "
                f"stability bound {bound:.3e} of this grid")
        initial = flow.get("initial")
        if not isinstance(initial, list) or len(initial) != cdim:
            raise ValidationError("flow.initial",
                                  f"expected {cdim} expression strings")
        for a, comp in enumerate(initial):
            _parse_expression(comp, f"flow.initial[{a}]", len(grid))
        max_steps = flow.get("max_steps", 2000)
        if not _integer(max_steps) or max_steps < 1:
            raise ValidationError("flow.max_steps", "must be a positive integer")
        stop_tol = flow.get("stop_tol", 1e-6)
        if not _finite_number(stop_tol) or stop_tol <= 0:
            raise ValidationError("flow.stop_tol",
                                  "must be a positive finite number")
        if not isinstance(flow.get("energy_backtrack", True), bool):
            raise ValidationError("flow.energy_backtrack", "must be a boolean")
        if not isinstance(flow.get("snapshot", ""), str):
            raise ValidationError("flow.snapshot", "must be a file path string")


def _load_manifest_arg(arg: str) -> dict:
    if arg in BUILTIN_MANIFESTS:
        raw = json.loads(json.dumps(BUILTIN_MANIFESTS[arg]))
        validate_manifest(raw)
        return raw
    try:
        with open(arg, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise ValidationError(arg, "not a UTF-8 text manifest: "
                                   f"{err.reason} at byte {err.start}") from err
    return parse_manifest(text)


# The fields of a stored report that emit_report reads, as
# name: (required, test of the value).
_RECORD_FIELDS = {
    "check": (True, lambda v: isinstance(v, str)),
    "tol": (True, _number),
    "pass": (True, lambda v: isinstance(v, bool)),
    "value": (False, _number),
    "point": (False, lambda v: v is None
              or isinstance(v, list) and all(map(_number, v))),
    "extra": (False, lambda v: isinstance(v, dict)),
}
_SUMMARY_FIELDS = {
    "check": (True, lambda v: isinstance(v, str)),
    "count": (True, _integer),
    "failures": (True, _integer),
    "max": (True, lambda v: v is None or _number(v)),
}


def _check_fields(entries: list, name: str, fields: dict) -> None:
    for idx, entry in enumerate(entries):
        for key, (required, ok) in fields.items():
            if not isinstance(entry, dict) or (
                    not ok(entry[key]) if key in entry else required):
                raise ValidationError(f"{name}[{idx}].{key}",
                                      "missing or of the wrong type")


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is not a finite number")
    return x


def _load_report(path: str) -> dict:
    """A stored JSON report whose fields emit_report reads are checked."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        report = json.loads(data, parse_float=_finite_float,
                            parse_constant=_finite_float)
    except ValueError as err:        # not JSON, not decodable text, or NaN
        raise ValidationError(path, f"not a JSON report: {err}") from err
    if not isinstance(report, dict) or not isinstance(report.get("records"),
                                                      list):
        raise ValidationError("records", "a report needs a list of records")
    if not isinstance(report.get("provenance", {}), dict):
        raise ValidationError("provenance", "must be an object")
    _check_fields(report["records"], "records", _RECORD_FIELDS)
    if not isinstance(report.get("summaries"), list):
        raise ValidationError("summaries", "a report needs a list of summaries")
    _check_fields(report["summaries"], "summaries", _SUMMARY_FIELDS)
    return report


def _manifest_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# running checks
# ---------------------------------------------------------------------------

class _Context:
    """Geometry and map objects instantiated from a validated manifest."""

    def __init__(self, raw: dict):
        self.raw = raw
        dim = raw["domain"]["dim"]
        metric = raw["domain"].get("metric", "euclidean")
        if metric == "euclidean":
            self.g = MetricField.euclidean(dim)
        else:
            self.g = MetricField(dim, _expr_grid(metric, "domain.metric",
                                                 dim, dim))
        cdim = raw["target"]["cdim"]
        hermitian = raw["target"].get("hermitian", "flat")
        kaehler = raw["target"].get("kaehler", False)
        if hermitian == "flat":
            self.h = HermitianMetricField.flat(cdim)
        else:
            self.h = HermitianMetricField(
                cdim, _expr_grid(hermitian, "target.hermitian", cdim, 2 * cdim),
                kaehler=kaehler)
        self.phi = SmoothMap(dim, cdim, [
            jet.parse_expr(c) for c in raw["map"]["components"]])
        box = raw.get("sample", {}).get("box", [[-1.0, 1.0]] * dim)
        self.box = np.asarray(box, dtype=float)
        self.h_step = 1e-4 * float(np.max(self.box[:, 1] - self.box[:, 0]))

    def verify_kaehler_claim(self, pts) -> None:
        """Gate manifests that claim a Kaehler target on sampled images; a
        point where the gate cannot be evaluated is left to its checks."""
        if not self.h.kaehler or self.raw["target"].get("hermitian") == "flat":
            return
        for pt in pts[:10]:
            try:
                kr = pt.target.kaehler
            except OPERATION_ERRORS:
                continue
            if kr > 1e-10:
                raise ValidationError(
                    "target.kaehler",
                    f"metric claims Kaehler but the closedness residual is "
                    f"{kr:.3e} at the image of {list(pt.p)}")


def _check_entries(raw: dict, tol_overrides: dict | None):
    entries = []
    for entry in raw.get("checks", []):
        if isinstance(entry, str):
            entry = {"name": entry}
        opts = dict(entry)
        name = opts["name"]
        tol = opts.get("tol", CHECKS[name][0])
        if tol_overrides and name in tol_overrides:
            tol = tol_overrides[name]
        opts["tol"] = float(tol)
        opts.setdefault("negate", False)
        entries.append(opts)
    return entries


def _check_finite(name: str, value, extra: dict) -> None:
    """Raise FloatingPointError when a residual, or a number recorded with
    it, is not finite: it overflowed, and a report holds finite numbers."""
    for key, v in (("residual", value), *extra.items()):
        if isinstance(v, float) and not math.isfinite(v):
            raise FloatingPointError(f"{name} {key} is {v}")


def _verdict(value, tol: float, negate: bool) -> bool:
    """A residual passes at most tol, or, negated, above it."""
    return bool((value > tol) if negate else (value <= tol))


def run_checks(raw: dict, seed: int | None = None, count: int | None = None,
               tol_overrides: dict | None = None) -> dict:
    """Execute every requested check at seeded sample points.

    Operation errors at individual points, a residual that is not finite
    among them, are recorded on the offending record (pass = false) and
    never abort the sweep.  count, when given, overrides sample.count.
    """
    ctx = _Context(raw)
    sample = raw.get("sample", {"count": 0})
    use_seed = sample.get("seed", 0) if seed is None else seed
    use_count = sample.get("count", 0) if count is None else count
    rng = np.random.default_rng(use_seed)
    try:
        points = catalog.sample_points(rng, use_count, ctx.box)
    except MemoryError as err:
        field = ("sample.count" if use_count == sample.get("count", 0)
                 else "--points")
        raise ValidationError(field, f"{use_count} sample points do not fit "
                                     "in memory") from err
    pts = [CheckPoint(ctx.phi, ctx.g, point, ctx.h, ctx.h_step)
           for point in points]
    with np.errstate(all="ignore"):
        share_pass(pts)
    ctx.verify_kaehler_claim(pts)
    entries = _check_entries(raw, tol_overrides)
    if any(entry["name"] in STENCIL_CHECKS for entry in entries):
        with np.errstate(all="ignore"):
            share_stencils(pts)

    records = []
    for p_idx, pt in enumerate(pts):
        for entry in entries:
            name = entry["name"]
            rec = {
                "point_index": p_idx,
                "point": [float(x) for x in pt.p],
                "check": name,
                "tol": entry["tol"],
                "negate": entry["negate"],
            }
            try:
                # a residual that overflows is recorded by _check_finite
                with np.errstate(all="ignore"):
                    value, extra = CHECKS[name][1](pt)
                _check_finite(name, value, extra)
            except OPERATION_ERRORS as err:
                rec["error"] = f"{type(err).__name__}: {err}"
                rec["pass"] = False
                records.append(rec)
                continue
            rec["value"] = float(value)
            ok = _verdict(value, entry["tol"], entry["negate"])
            if name == "fstructure":
                if "rank" in entry and extra.get("rank") != entry["rank"]:
                    ok = False
                if extra.get("dphi_pzero", 0.0) > entry["tol"]:
                    ok = False
            if extra:
                rec["extra"] = {k: (float(v) if isinstance(v, float) else v)
                                for k, v in extra.items()}
            rec["pass"] = bool(ok)
            records.append(rec)

    return _assemble_report(raw, use_seed, records)


def summarize(records: list) -> list:
    """Per-check summaries, recomputable from the records alone."""
    by_check: dict[str, list] = {}
    for rec in records:
        by_check.setdefault(rec["check"], []).append(rec)
    out = []
    for name in sorted(by_check):
        recs = by_check[name]
        values = [r["value"] for r in recs if "value" in r]
        out.append({
            "check": name,
            "count": len(recs),
            "failures": sum(1 for r in recs if not r["pass"]),
            "max": max(values) if values else None,
            "mean": _mean(values) if values else None,
        })
    return out


def _mean(values: list) -> float:
    mean = sum(values) / len(values)
    # finite values whose sum overflows still have a finite mean
    return mean if math.isfinite(mean) else sum(v / len(values)
                                                 for v in values)


def _assemble_report(raw: dict, seed, records: list) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "provenance": {
            "manifest_sha256": _manifest_hash(raw),
            "seed": seed,
            "tool_version": __version__,
        },
        "records": records,
        "summaries": summarize(records),
    }


def report_passed(report: dict) -> bool:
    return all(rec["pass"] for rec in report["records"])


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit_report(report: dict, fmt: str = "json") -> bytes:
    """Serialize a report; 'json' has stable key order and raises
    ValueError on a number that is not finite, 'table' is aligned text.
    Both contain every record."""
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
                + "\n").encode()
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    prov = report.get("provenance", {})
    lines.append(f"report schema {report.get('schema')} | tool "
                 f"{prov.get('tool_version')} | seed {prov.get('seed')} | "
                 f"manifest {str(prov.get('manifest_sha256'))[:12]}")
    header = ("check", "point", "value", "tol", "verdict", "note")
    rows = [header]
    for rec in report["records"]:
        point = rec.get("point")
        point_txt = ",".join(f"{x:.3g}" for x in point) if point else "-"
        value = rec.get("value")
        note = rec.get("error", "")
        if "extra" in rec:
            note = " ".join(f"{k}={v:.3g}" if isinstance(v, float)
                            else f"{k}={v}" for k, v in rec["extra"].items())
        rows.append((
            rec["check"], point_txt,
            f"{value:.3e}" if value is not None else "error",
            f"{rec['tol']:.1e}" + ("!" if rec.get("negate") else ""),
            "pass" if rec["pass"] else "FAIL",
            note,
        ))
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(header))]
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w)
                               for cell, w in zip(row, widths)).rstrip())
    lines.append("")
    for s in report["summaries"]:
        max_txt = f"{s['max']:.3e}" if s["max"] is not None else "-"
        lines.append(f"{s['check']}: {s['count']} records, "
                     f"{s['failures']} failures, max {max_txt}")
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# flow subcommand
# ---------------------------------------------------------------------------

def _initial_value(initial_map: SmoothMap, points, idx) -> np.ndarray:
    try:
        return initial_map.value(points[idx])
    except ArithmeticError as err:
        raise ValidationError("flow.initial", f"{type(err).__name__} at grid "
                              f"node {list(idx)}: {err}") from err


def run_flow_manifest(raw: dict) -> dict:
    ctx = _Context(raw)
    flow_block = raw.get("flow")
    if flow_block is None:
        raise ValidationError("flow", "manifest has no flow block")
    grid = tuple(flow_block["grid"])
    exprs = [jet.parse_expr(c) for c in flow_block["initial"]]
    initial_map = SmoothMap(len(grid), len(exprs), exprs)
    axes = [np.arange(N) * (2 * np.pi / N) for N in grid]
    try:
        points = np.stack(np.meshgrid(*axes, indexing="ij"), -1)
    except MemoryError as err:
        raise ValidationError("flow.grid", "a grid of " + " x ".join(
            map(str, grid)) + " nodes does not fit in memory") from err
    with np.errstate(all="ignore"):   # non-finite values are caught below
        try:
            values = initial_map.value(points.reshape(-1, len(grid)))
        except ArithmeticError:   # node by node, to name the node that fails
            values = np.array([_initial_value(initial_map, points, idx)
                               for idx in np.ndindex(*grid)])
    values = values.reshape(tuple(grid) + (len(exprs),))
    if not np.all(np.isfinite(values)):
        raise ValidationError("flow.initial",
                              "values are not finite at every grid node")
    u0 = GridMap(values)
    cfg = FlowConfig(
        dt=float(flow_block["dt"]),
        max_steps=int(flow_block.get("max_steps", 2000)),
        stop_tol=float(flow_block.get("stop_tol", 1e-6)),
        energy_backtrack=bool(flow_block.get("energy_backtrack", True)),
    )
    rec = {"point": None, "check": "flow", "tol": cfg.stop_tol,
           "negate": False}
    try:
        final, trace = run_flow(u0, ctx.h, cfg)
        extra = {
            "steps": trace[-1][0],
            "initial_energy": trace[0][1],
            "final_energy": trace[-1][1],
            "phwc_residual": discrete_phwc_residual(final),
        }
        _check_finite("flow", trace[-1][2], extra)
    except OPERATION_ERRORS as err:
        rec.update({"error": f"{type(err).__name__}: {err}", "pass": False})
    else:
        if "snapshot" in flow_block:
            try:
                save_snapshot(final, flow_block["snapshot"])
            except OSError as err:
                raise ValidationError(
                    "flow.snapshot", f"cannot write {flow_block['snapshot']!r}"
                    f": {err.strerror}") from err
        rec.update({"value": trace[-1][2],
                    "pass": bool(trace[-1][2] < cfg.stop_tol), "extra": extra})
    return _assemble_report(raw, raw.get("sample", {}).get("seed", 0), [rec])


# ---------------------------------------------------------------------------
# built-in regression and theorem verification bundle
# ---------------------------------------------------------------------------

def _suite_record(name, value, tol, negate=False, extra=None):
    rec = {"point": None, "check": name, "value": float(value),
           "tol": float(tol), "negate": bool(negate),
           "pass": _verdict(value, tol, negate)}
    if extra:
        rec["extra"] = extra
    return rec


def _phwc_equivalence(rng, ex1, ex2, g2, g4) -> list:
    """Records of the three PHWC formulations agreeing at 200 random
    (phi, g, h, point) cases.

    Every case is drawn first.  Then each map that several cases share
    (ex1, ex2) makes one first-order pass over their points, every other
    map one at its point; g2 and g4 make one pass each over their cases,
    and the random metrics one pass per dimension, stacked (share_metric).
    The residuals are then read case by case."""
    flat = {n: HermitianMetricField.flat(n) for n in (1, 2, 3)}
    cases, by_metric = [], {}
    for _ in range(200):
        if rng.random() < 0.5:
            idx = int(rng.integers(3))
            if idx == 0:
                phi, g, h = ex1, g2, flat[3]
            elif idx == 1:
                phi, g, h = ex2, g4, flat[2]
            else:
                psi = catalog.random_holomorphic_map(rng, 3, 2)
                phi, g, h = compose(psi, ex1), g2, flat[2]
            key = g
        else:
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            phi = catalog.random_polynomial_map(rng, m, n)
            g = catalog.random_polynomial_metric(rng, m)
            h, key = flat[n], m
        cases.append(PointData(phi, g, rng.uniform(-1, 1, phi.domain_dim), h))
        by_metric.setdefault(key, []).append(cases[-1])
    by_map: dict[int, list] = {}
    for pd in cases:
        by_map.setdefault(id(pd.phi), []).append(pd)
    for group in by_map.values():
        share_differential(group, order=1)
    for group in by_metric.values():
        share_metric(group)

    gap = 0.0
    iff_violations = 0
    for pd in cases:
        coord = phwc_residual_coord(pd)
        iso = isotropy_residual(pd)
        comm = phwc_residual_commutator(pd)
        gap = max(gap, abs(coord - iso))
        if (coord <= 1e-10) != (comm <= 1e-8):
            iff_violations += 1
    return [_suite_record("phwc_equivalence_gap", gap, 1e-12),
            _suite_record("phwc_equivalence_iff_violations",
                          float(iff_violations), 0.0)]


def verify_paper(seed: int = 42) -> dict:
    """Regression bundle: both built-in example manifests, the randomized
    pullback/composition suites, the PHWC-equivalence sweep, and the
    theorem-implication harness with its negative controls."""
    rng = np.random.default_rng(seed)
    records = []

    for name in ("example1", "example2"):
        sub = run_checks(_load_manifest_arg(name), seed=seed)
        for rec in sub["records"]:
            rec = dict(rec)
            rec["check"] = f"{name}.{rec['check']}"
            records.append(rec)

    ex1 = catalog.immersion_r2_c3()
    ex2 = catalog.linear_r4_c2()
    g2, g4 = MetricField.euclidean(2), MetricField.euclidean(4)
    h1 = HermitianMetricField.flat(1)

    # pullbacks of +/-holomorphic and pluriharmonic functions through the
    # immersion: harmonic, and the holomorphic ones horizontally conformal
    worst_lap = worst_hwc = worst_pluri_lap = 0.0
    for _ in range(20):
        f = SmoothMap(6, 1, [catalog.holomorphic_polynomial(rng, 3)])
        pulled = compose(f, ex1)
        fr = SmoothMap(6, 1, [jet.re(catalog.holomorphic_polynomial(rng, 3))
                              + jet.re(catalog.holomorphic_polynomial(rng, 3))
                              * jet.Const(rng.uniform(-1, 1))])
        pulled_r = compose(fr, ex1)
        pd = PointData(pulled, g2,
                       catalog.sample_points(rng, 50, [[-1, 1]] * 2), h1)
        # phi and the pluriharmonic function share one pass of their jets
        both = differential(SmoothMap(2, 2, [*pulled.components,
                                             *pulled_r.components]), pd.p)
        pd.diff, dr = both[:, :1], both[:, 1:]
        lap = pd.laplacian(pd.diff.dphi[:, 0], pd.diff.second[:, 0])
        worst_lap = max(worst_lap, np.max(np.abs(lap.real)),
                        np.max(np.abs(lap.imag)))
        worst_hwc = max(worst_hwc, np.max(hwc_report(pd).defect))
        worst_pluri_lap = max(worst_pluri_lap, np.max(np.abs(
            pd.laplacian(dr.dphi[:, 0], dr.second[:, 0]).real)))
    records.append(_suite_record("pullback_holomorphic_laplacian",
                                 worst_lap, 1e-9))
    records.append(_suite_record("pullback_holomorphic_hwc", worst_hwc, 1e-9))
    records.append(_suite_record("pullback_pluriharmonic_laplacian",
                                 worst_pluri_lap, 1e-9))

    # composition with holomorphic maps preserves PHWC and harmonicity
    worst_phwc = worst_tension = 0.0
    for idx in range(20):
        base, g, nin = (ex1, g2, 3) if idx % 2 == 0 else (ex2, g4, 2)
        psi = catalog.random_holomorphic_map(rng, nin, 2)
        comp = compose(psi, base)
        hk = HermitianMetricField.flat(2)
        pd = PointData(comp, g, catalog.sample_points(
            rng, 50, [[-1, 1]] * base.domain_dim), hk)
        worst_phwc = max(worst_phwc, np.max(phwc_residual_coord(pd)))
        worst_tension = max(worst_tension,
                            np.max(tension(pd).harmonic_residual))
    records.append(_suite_record("composition_phwc", worst_phwc, 1e-10))
    records.append(_suite_record("composition_tension", worst_tension, 1e-9))

    control = compose(SmoothMap(6, 1, [catalog.zvar(0)
                                       + jet.conj(catalog.zvar(0))]), ex1)
    control_val = np.min(phwc_residual_coord(PointData(
        control, g2, catalog.sample_points(rng, 10, [[-1, 1]] * 2))))
    records.append(_suite_record("composition_nonholomorphic_control",
                                 control_val, 1e-3, negate=True))

    records += _phwc_equivalence(rng, ex1, ex2, g2, g4)

    # theorem implications, honest suite then the forged-flag control
    samples = [
        SuiteSample("immersion_c3", ex1, g2, HermitianMetricField.flat(3),
                    catalog.sample_points(rng, 5, [[-1, 1]] * 2)),
        SuiteSample("linear_c2", ex2, g4, HermitianMetricField.flat(2),
                    catalog.sample_points(rng, 5, [[-1, 1]] * 4)),
    ]
    for idx in range(10):
        base, g, nin = (ex1, g2, 3) if idx % 2 == 0 else (ex2, g4, 2)
        psi = catalog.random_holomorphic_map(rng, nin, 2)
        samples.append(SuiteSample(
            f"composite_{idx}", compose(psi, base), g,
            HermitianMetricField.flat(2),
            catalog.sample_points(rng, 3, [[-1, 1]] * base.domain_dim)))
    suite = theorem_suite(samples)
    records.append(_suite_record("theorem_counterexamples",
                                 float(suite.counterexamples), 0.0,
                                 extra={"checked": suite.checked,
                                        "skipped": suite.skipped}))

    forged = catalog.non_kaehler_hermitian_c2()
    forged.kaehler = True
    forged_suite = theorem_suite([SuiteSample(
        "forged_flag", ex2, g4, forged,
        catalog.sample_points(rng, 3, [[-1, 1]] * 4))])
    records.append(_suite_record("forged_kaehler_control",
                                 float(forged_suite.counterexamples), 0.0,
                                 negate=True))

    meta = {"bundle": "verify-paper", "seed": seed,
            "examples": ["example1", "example2"]}
    return _assemble_report(meta, seed, records)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse_tol_overrides(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError("--tol", f"expected check=value, got {pair!r}")
        name, _, value = pair.partition("=")
        if name not in CHECK_NAMES:
            raise ValidationError("--tol", f"unknown check {name!r}")
        try:
            tol = float(value)
        except ValueError:
            tol = math.nan
        if not math.isfinite(tol):
            raise ValidationError(
                "--tol", f"{name}: {value!r} is not a finite number")
        out[name] = tol
    return out


def _write_output(data: bytes, out_path):
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phwc",
        description="residual checks and flows for pseudo horizontally "
                    "weakly conformal maps")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--points", type=int, default=None)
        p.add_argument("--tol", action="append", metavar="CHECK=VALUE")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "table"), default="json")

    p_check = sub.add_parser("check", help="run manifest checks")
    p_check.add_argument("manifest")
    add_common(p_check)

    p_sweep = sub.add_parser("sweep", help="run checks over a larger sample")
    p_sweep.add_argument("manifest")
    add_common(p_sweep)

    p_flow = sub.add_parser("flow", help="run the tension-field flow")
    p_flow.add_argument("manifest")
    p_flow.add_argument("--out", default=None)
    p_flow.add_argument("--format", choices=("json", "table"), default="json")

    p_verify = sub.add_parser("verify-paper",
                              help="run the full regression bundle")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", choices=("json", "table"),
                          default="json")

    p_report = sub.add_parser("report", help="re-emit a stored JSON report")
    p_report.add_argument("path")
    p_report.add_argument("--format", choices=("json", "table"),
                          default="table")
    p_report.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        for flag in ("seed", "points"):
            if (getattr(args, flag, None) or 0) < 0:
                raise ValidationError(f"--{flag}", "must not be negative")
        if args.command in ("check", "sweep"):
            raw = _load_manifest_arg(args.manifest)
            count = args.points
            if args.command == "sweep" and count is None:
                count = max(raw.get("sample", {}).get("count", 0), 250)
            report = run_checks(raw, seed=args.seed, count=count,
                                tol_overrides=_parse_tol_overrides(args.tol))
        elif args.command == "flow":
            report = run_flow_manifest(_load_manifest_arg(args.manifest))
        elif args.command == "verify-paper":
            report = verify_paper(seed=args.seed)
        elif args.command == "report":
            report = _load_report(args.path)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
        _write_output(emit_report(report, args.format), args.out)
    except (ParseError, ValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:             # the message names the path
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0 if args.command == "report" or report_passed(report) else 1


if __name__ == "__main__":
    sys.exit(main())
