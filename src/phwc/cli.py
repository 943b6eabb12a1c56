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

A manifest is validated and built in one walk: validate_manifest checks
each field as it builds the objects the commands run on (the metrics, the
maps, the check entries and the flow parameters, with their defaults), and
raises a ValidationError naming the first field that is wrong or unknown.

Subcommands: check, sweep (same, larger default count), flow, verify-paper
(the example manifests, then the sections of phwc.paper), report (re-emit a
stored report).  Exit codes: 0 all pass, 1 check failure,
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
import pathlib
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, catalog, jet, paper
from .flow import (
    FlowConfig,
    GridMap,
    StepSizeUnderflow,
    discrete_phwc_residual,
    node_coordinates,
    run_flow,
    save_snapshot,
    stable_dt_bound,
)
from .fstruct import CHECKS, CheckPoint, check_at, check_sets, verdict
from .geometry import (KAEHLER_TOL, POINT_ERRORS, HermitianMetricField,
                       MetricField, _build)
from .jet import ParseError
from .maps import SmoothMap

SCHEMA_VERSION = 1

# Largest domain.dim and target.cdim: dim x dim metric trees are built first
MAX_DIM = 64

# The built-in manifests, each read from its one copy under manifests/
BUILTIN_MANIFESTS = {
    name: json.loads((pathlib.Path(__file__).parent / "manifests"
                      / f"{name}.json").read_text(encoding="utf-8"))
    for name in ("example1", "example2")
}


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


def _known_keys(block: dict, field: str, keys: tuple) -> None:
    """Raise ValidationError naming the first key of block (at field, or
    at the top level when field is "") that is not one of keys."""
    for key in block:
        if key not in keys:
            raise ValidationError(f"{field}.{key}" if field else str(key),
                                  "unknown key; known: " + ", ".join(keys))


def parse_manifest(text: str) -> Manifest:
    """Parse and validate manifest text; returns the Manifest built from it.

    Raises ParseError with position information for malformed JSON or
    expressions, ValidationError naming the offending field otherwise.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"manifest is not valid JSON: {err.msg} "
                         f"(line {err.lineno})", err.pos) from err
    return validate_manifest(raw)


@dataclass
class Manifest:
    """What validate_manifest builds from a manifest, its defaults filled
    in: the geometry and the map; the sample box, the sample count and the
    seed (0 when there is none); a (name, tol, negate, rank) tuple per
    check, rank None when no F rank is expected; and the flow block as
    (initial map, grid shape, FlowConfig, snapshot path or None), or None.
    raw is the manifest, for its hash."""
    raw: dict
    g: MetricField
    h: HermitianMetricField
    phi: SmoothMap
    box: np.ndarray
    count: int
    seed: int
    checks: list[tuple]
    flow: tuple | None


def validate_manifest(raw: dict) -> Manifest:
    """Check every field of a manifest, building its objects as it goes;
    raises ValidationError naming the first field that is wrong."""
    if not isinstance(raw, dict):
        raise ValidationError("$", "manifest must be a JSON object")
    _known_keys(raw, "", ("domain", "target", "map", "checks", "sample",
                          "flow"))

    domain = raw.get("domain")
    if not isinstance(domain, dict) or "dim" not in domain:
        raise ValidationError("domain", "missing object with a 'dim' field")
    _known_keys(domain, "domain", ("dim", "metric"))
    dim = domain["dim"]
    if not _integer(dim) or not 1 <= dim <= MAX_DIM:
        raise ValidationError("domain.dim",
                              f"must be an integer in 1..{MAX_DIM}")
    metric = domain.get("metric", "euclidean")
    if isinstance(metric, str):
        if metric != "euclidean":
            raise ValidationError("domain.metric",
                                  f"unknown builtin {metric!r}; use "
                                  "'euclidean' or an expression matrix")
        g = MetricField.euclidean(dim)
    else:
        g = MetricField(dim, _expr_grid(metric, "domain.metric", dim, dim))

    target = raw.get("target")
    if not isinstance(target, dict) or "cdim" not in target:
        raise ValidationError("target", "missing object with a 'cdim' field")
    _known_keys(target, "target", ("cdim", "hermitian", "kaehler"))
    cdim = target["cdim"]
    if not _integer(cdim) or not 1 <= cdim <= MAX_DIM:
        raise ValidationError("target.cdim",
                              f"must be an integer in 1..{MAX_DIM}")
    hermitian = target.get("hermitian", "flat")
    if isinstance(hermitian, str):
        if hermitian != "flat":
            raise ValidationError("target.hermitian",
                                  f"unknown builtin {hermitian!r}; use "
                                  "'flat' or an expression matrix")
        hermitian = None
    else:
        hermitian = _expr_grid(hermitian, "target.hermitian", cdim, 2 * cdim)
    kaehler = target.get("kaehler", False)
    if not isinstance(kaehler, bool):
        raise ValidationError("target.kaehler", "must be a boolean")
    h = (HermitianMetricField.flat(cdim) if hermitian is None else
         HermitianMetricField(cdim, hermitian, kaehler=kaehler))

    map_block = raw.get("map")
    if not isinstance(map_block, dict) or "components" not in map_block:
        raise ValidationError("map", "missing object with 'components'")
    _known_keys(map_block, "map", ("components",))
    comps = map_block["components"]
    if not isinstance(comps, list) or len(comps) != cdim:
        raise ValidationError("map.components",
                              f"expected {cdim} expression strings")
    phi = SmoothMap(dim, cdim, [_parse_expression(comp, f"map.components[{a}]",
                                                  dim)
                                for a, comp in enumerate(comps)])

    checks = raw.get("checks", [])
    if not isinstance(checks, list):
        raise ValidationError("checks", "must be a list")
    entries = []
    for idx, entry in enumerate(checks):
        if isinstance(entry, str):
            entry = {"name": entry}
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name not in CHECKS:
            raise ValidationError(
                f"checks[{idx}]", f"unknown check {name!r}; valid names: "
                + ", ".join(CHECKS))
        _known_keys(entry, f"checks[{idx}]", ("name", "tol", "negate", "rank"))
        if name == "pluriharmonic" and dim % 2:
            raise ValidationError(
                f"checks[{idx}]", "pluriharmonic needs an even-dimensional "
                "domain chart")
        tol = entry.get("tol", CHECKS[name][0])
        if not _finite_number(tol):
            raise ValidationError(f"checks[{idx}].tol",
                                  "must be a finite number")
        negate = entry.get("negate", False)
        if not isinstance(negate, bool):
            raise ValidationError(f"checks[{idx}].negate", "must be a boolean")
        rank = entry.get("rank")
        if "rank" in entry and name != "fstructure":
            raise ValidationError(f"checks[{idx}].rank",
                                  "only the fstructure check takes a rank")
        if "rank" in entry and (not _integer(rank) or rank < 0):
            raise ValidationError(f"checks[{idx}].rank",
                                  "must be a non-negative integer")
        entries.append((name, float(tol), negate, rank))

    sample = raw.get("sample", {})
    if not isinstance(sample, dict):
        raise ValidationError("sample", "must be an object")
    _known_keys(sample, "sample", ("count", "seed", "box"))
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
    box = np.asarray(box, dtype=float)

    flow = raw.get("flow")
    if flow is not None:
        if not isinstance(flow, dict):
            raise ValidationError("flow", "must be an object")
        _known_keys(flow, "flow", ("grid", "dt", "stop_tol", "max_steps",
                                   "initial", "snapshot"))
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
        initial = SmoothMap(len(grid), cdim, [
            _parse_expression(comp, f"flow.initial[{a}]", len(grid))
            for a, comp in enumerate(initial)])
        # a field left out keeps FlowConfig's default
        cfg = FlowConfig(float(flow["dt"]), **{
            key: flow[key] for key in ("max_steps", "stop_tol")
            if key in flow})
        if not _integer(cfg.max_steps) or cfg.max_steps < 1:
            raise ValidationError("flow.max_steps",
                                  "must be a positive integer")
        if not _finite_number(cfg.stop_tol) or cfg.stop_tol <= 0:
            raise ValidationError("flow.stop_tol",
                                  "must be a positive finite number")
        cfg.stop_tol = float(cfg.stop_tol)
        snapshot = flow.get("snapshot")
        if "snapshot" in flow and not isinstance(snapshot, str):
            raise ValidationError("flow.snapshot",
                                  "must be a file path string")
        flow = initial, tuple(grid), cfg, snapshot
    return Manifest(raw, g, h, phi, box, count, 0 if seed is None else seed,
                    entries, flow)


def _load_manifest_arg(arg: str) -> Manifest:
    """The built-in manifest of that name, or else the manifest file at
    that path, validated."""
    if arg in BUILTIN_MANIFESTS:
        return validate_manifest(BUILTIN_MANIFESTS[arg])
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


# ---------------------------------------------------------------------------
# running checks
# ---------------------------------------------------------------------------

def _check_finite(name: str, value, extra: dict) -> None:
    """Raise FloatingPointError when a residual, or a number recorded with
    it, is not finite: it overflowed, and a report holds finite numbers."""
    for key, v in (("residual", value), *extra.items()):
        if isinstance(v, float) and not math.isfinite(v):
            raise FloatingPointError(f"{name} {key} is {v}")


def run_checks(manifest: Manifest, seed: int | None = None,
               count: int | None = None,
               tol_overrides: dict | None = None) -> dict:
    """Execute every requested check of a built manifest at seeded sample
    points.

    The checks are read by fstruct's set rule (check_sets, check_at): one
    that reads no derivative of F runs once over the sample, one CheckPoint
    of the set, and its records are the rows; where that raises one of
    geometry.POINT_ERRORS, and for the derivative checks, it runs on the
    set's row whole[k], made only where a check runs there.  An error of
    geometry.POINT_ERRORS at a point, a residual that is not finite among
    them, is recorded on the offending record (pass = false) and never
    aborts the sweep.  count, when given, overrides sample.count; as there,
    checks need at least one point.
    """
    use_seed = manifest.seed if seed is None else seed
    use_count = manifest.count if count is None else count
    if use_count == 0 and manifest.checks:
        raise ValidationError("--points", "checks are requested but no "
                                          "points are sampled")
    rng = np.random.default_rng(use_seed)
    try:
        points = catalog.sample_points(rng, use_count, manifest.box)
    except (MemoryError, ValueError) as err:   # or a size numpy refuses
        field = "sample.count" if use_count == manifest.count else "--points"
        raise ValidationError(field, f"{use_count} sample points do not fit "
                                     "in memory") from err
    whole = CheckPoint(manifest.phi, manifest.g, points, manifest.h)
    entries = [(name, float((tol_overrides or {}).get(name, tol)), *rest)
               for name, tol, *rest in manifest.checks]
    records = []
    # what overflows in the set pass, the gate or a check is an error or a
    # value that is not finite, which the points record (_check_finite)
    with np.errstate(all="ignore"):
        # a target that claims to be Kaehler is gated on sampled images; a
        # point where the gate cannot be evaluated is left to its checks
        if manifest.h.kaehler:
            _build(whole, "target.kaehler")
        for k in range(min(10, len(points)) if manifest.h.kaehler else 0):
            pt = whole[k]
            try:
                kr = pt.target.kaehler
            except POINT_ERRORS:
                continue
            if not kr <= KAEHLER_TOL:   # a NaN fails too
                raise ValidationError(
                    "target.kaehler",
                    f"metric claims Kaehler but the closedness residual is "
                    f"{kr:.3e} at the image of {pt.p.tolist()}")

        names = dict.fromkeys(name for name, *_ in entries)
        sets = check_sets(whole, names)
        alone = len(sets) < len(names)   # some check runs point by point

        for p_idx, point in enumerate(points.tolist()):
            pt = whole[p_idx] if alone else None
            for name, tol, negate, rank in entries:
                rec = {
                    "point_index": p_idx,
                    "point": list(point),
                    "check": name,
                    "tol": tol,
                    "negate": negate,
                }
                try:
                    value, extra = check_at(sets, name, p_idx, pt)
                    _check_finite(name, value, extra)
                except POINT_ERRORS as err:
                    rec["error"] = f"{type(err).__name__}: {err}"
                    rec["pass"] = False
                    records.append(rec)
                    continue
                rec["value"] = float(value)
                ok = verdict(value, tol, negate)
                if name == "fstructure":
                    if rank is not None and extra.get("rank") != rank:
                        ok = False
                    if extra.get("dphi_pzero", 0.0) > tol:
                        ok = False
                if extra:
                    rec["extra"] = {k: float(v) if isinstance(v, float) else v
                                    for k, v in extra.items()}
                rec["pass"] = bool(ok)
                records.append(rec)

    return _assemble_report(manifest.raw, use_seed, records)


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
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return {
        "schema": SCHEMA_VERSION,
        "provenance": {
            "manifest_sha256": hashlib.sha256(blob).hexdigest(),
            "seed": seed,
            "tool_version": __version__,
        },
        "records": records,
        "summaries": summarize(records),
    }


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


def run_flow_manifest(manifest: Manifest) -> dict:
    """Run the flow block of a built manifest; one record."""
    if manifest.flow is None:
        raise ValidationError("flow", "manifest has no flow block")
    initial_map, grid, cfg, snapshot = manifest.flow
    try:
        points = np.stack(node_coordinates(grid), -1)
    except (MemoryError, ValueError) as err:   # or a size numpy refuses
        raise ValidationError("flow.grid", "a grid of " + " x ".join(
            map(str, grid)) + " nodes does not fit in memory") from err
    with np.errstate(all="ignore"):   # non-finite values are caught below
        try:
            values = initial_map.value(points.reshape(-1, len(grid)))
        except ArithmeticError:   # node by node, to name the node that fails
            values = np.array([_initial_value(initial_map, points, idx)
                               for idx in np.ndindex(*grid)])
    values = values.reshape(grid + (initial_map.target_cdim,))
    if not np.all(np.isfinite(values)):
        raise ValidationError("flow.initial",
                              "values are not finite at every grid node")
    u0 = GridMap(values)
    rec = {"point": None, "check": "flow", "tol": cfg.stop_tol,
           "negate": False}
    try:
        with np.errstate(all="ignore"):   # run_flow raises on a non-finite tau
            final, trace = run_flow(u0, manifest.h, cfg)
        extra = {
            "steps": trace[-1][0],
            "initial_energy": trace[0][1],
            "final_energy": trace[-1][1],
            "phwc_residual": discrete_phwc_residual(final),
        }
        _check_finite("flow", trace[-1][2], extra)
    except (*POINT_ERRORS, StepSizeUnderflow) as err:
        rec.update({"error": f"{type(err).__name__}: {err}", "pass": False})
    else:
        if snapshot is not None:
            try:
                save_snapshot(final, snapshot)
            except OSError as err:
                raise ValidationError(
                    "flow.snapshot", f"cannot write {snapshot!r}"
                    f": {err.strerror}") from err
        rec.update({"value": trace[-1][2],
                    "pass": bool(trace[-1][2] < cfg.stop_tol), "extra": extra})
    return _assemble_report(manifest.raw, manifest.seed, [rec])


# ---------------------------------------------------------------------------
# built-in regression and theorem verification bundle
# ---------------------------------------------------------------------------

def verify_paper(seed: int = 42) -> dict:
    """Regression bundle: both built-in example manifests, then every
    section of phwc.paper (pullbacks, composition, the PHWC equivalence
    sweep and the theorem harness, with their negative controls), all
    drawing in turn from one generator of the seed."""
    rng = np.random.default_rng(seed)
    records = []

    for name, raw in BUILTIN_MANIFESTS.items():
        sub = run_checks(validate_manifest(raw), seed=seed)
        for rec in sub["records"]:
            rec = dict(rec)
            rec["check"] = f"{name}.{rec['check']}"
            records.append(rec)
    for section in paper.SECTIONS:
        records += section(rng)

    meta = {"bundle": "verify-paper", "seed": seed,
            "examples": list(BUILTIN_MANIFESTS)}
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
        if name not in CHECKS:
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

    def add(name, text, fmt, *positional):
        """A subcommand with its positional arguments, --out and --format."""
        p = sub.add_parser(name, help=text)
        for arg in positional:
            p.add_argument(arg)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "table"), default=fmt)
        return p

    for name, text in (("check", "run manifest checks"),
                       ("sweep", "run checks over a larger sample")):
        p = add(name, text, "json", "manifest")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--points", type=int, default=None)
        p.add_argument("--tol", action="append", metavar="CHECK=VALUE")
    add("flow", "run the tension-field flow", "json", "manifest")
    add("verify-paper", "run the full regression bundle", "json").add_argument(
        "--seed", type=int, default=42)
    add("report", "re-emit a stored JSON report", "table", "path")

    args = parser.parse_args(argv)
    try:
        for flag in ("seed", "points"):
            if (getattr(args, flag, None) or 0) < 0:
                raise ValidationError(f"--{flag}", "must not be negative")
        if args.command in ("check", "sweep"):
            manifest = _load_manifest_arg(args.manifest)
            count = args.points
            if args.command == "sweep" and count is None:
                count = max(manifest.count, 250)
            report = run_checks(manifest, seed=args.seed, count=count,
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
    passed = all(rec["pass"] for rec in report["records"])
    return 0 if args.command == "report" or passed else 1


if __name__ == "__main__":
    sys.exit(main())
