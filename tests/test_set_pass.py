"""A set of points is checked, inverted and contracted in one numpy call per
quantity; every row must equal, bit for bit, what one point computes alone,
and an error must land on the points where it occurs only."""

import json
import re

import numpy as np
import pytest

from phwc import catalog, cli, fstruct, geometry, jet
from phwc.geometry import (HermitianMetricField, MetricField, MetricPoint,
                           share_metric)
from phwc.jet import Const, DivisionNearZero, Var, parse_expr
from phwc.maps import (
    PointData,
    SmoothMap,
    hwc_report,
    isotropy_residual,
    phwc_residual_commutator,
    phwc_residual_coord,
    pluriharmonic_residual,
    share_differential,
    tension,
)
from test_fstruct import FAMILIES

N = 50


def random_set(target: str, seed: int = 4):
    rng = np.random.default_rng(seed)
    phi = catalog.random_polynomial_map(rng, 4, 2)
    g = catalog.random_polynomial_metric(rng, 4)
    h = (HermitianMetricField.flat(2) if target == "flat"
         else catalog.random_kaehler_metric(rng, 2))
    return phi, g, h, rng.uniform(-1, 1, (N, 4))


SET_RESIDUALS = {
    "phwc": lambda pd: phwc_residual_coord(pd),
    "isotropy": isotropy_residual,
    "commutator": phwc_residual_commutator,
    "lambda_sq": lambda pd: hwc_report(pd).lambda_sq,
    "defect": lambda pd: hwc_report(pd).defect,
    "tension": lambda pd: tension(pd).tau,
    "harmonic": lambda pd: tension(pd).harmonic_residual,
    "laplacian": lambda pd: pd.laplacian(pd.diff.grad, pd.diff.second),
    "pluriharmonic": pluriharmonic_residual,
    "fstructure": lambda pt: pt.fp.algebra_residual(),
    "rank": lambda pt: pt.fp.rank,
    "dphi_pzero": fstruct.dphi_kernel_residual,
    "f_holomorphy": fstruct.f_holomorphy_residual,
}
FP_FIELDS = ("F", "Pplus", "Pminus", "Pzero", "gm", "ginv", "basis_plus",
             "basis_zero")


def family_set(family: str, seed: int = 4):
    phi, g, _ = FAMILIES[family]
    rng = np.random.default_rng(seed)
    return (phi, g, HermitianMetricField.flat(phi.target_cdim),
            rng.uniform(-1, 1, (N, phi.domain_dim)))


SETS = {"flat": lambda: random_set("flat"),
        "kaehler": lambda: random_set("kaehler"),
        **{family: lambda family=family: family_set(family)
           for family in FAMILIES}}


# F exists only where the PHWC gate holds: the random maps are off it at
# every point, the FAMILIES on it
F_RESIDUALS = ("fstructure", "rank", "dphi_pzero", "f_holomorphy")
OFF_GATE = ("flat", "kaehler")


@pytest.mark.parametrize("case", SETS)
def test_set_rows_equal_each_lone_point(case):
    phi, g, h, points = SETS[case]()
    whole = fstruct.CheckPoint(phi, g, points, h)
    lone = [fstruct.CheckPoint(phi, g, p, h) for p in points]
    # the set builds what its rows then hold; F raises off the gate
    for name, residual in SET_RESIDUALS.items():
        if not (name in F_RESIDUALS and case in OFF_GATE):
            residual(whole)
    shared = [whole[k] for k in range(N)]
    for pt in shared:
        assert type(pt) is fstruct.CheckPoint
        for name in ("_jets", "diff", "gm", "ginv", "gamma", "gram",
                     "target"):
            assert name in vars(pt), name
        assert {"hm", "hinv", "gamma"} <= set(vars(pt.target))
    for k in range(N):
        for name in ("gm", "ginv", "gamma", "gram"):
            want = getattr(lone[k], name)
            assert np.array_equal(getattr(whole, name)[k], want), name
            assert np.array_equal(getattr(shared[k], name), want), name
        for name in ("hm", "hinv", "gamma", "kaehler"):
            want = getattr(lone[k].target, name)
            assert np.array_equal(getattr(whole.target, name)[k], want), name
            assert np.array_equal(getattr(shared[k].target, name), want), name
        assert np.array_equal(shared[k].p, lone[k].p)
        assert np.array_equal(shared[k].target.z, lone[k].target.z)
    for name, residual in SET_RESIDUALS.items():
        if name in F_RESIDUALS and case in OFF_GATE:
            for pt in (whole, *lone, *shared):
                with pytest.raises(fstruct.NotPHWCAtPoint):
                    residual(pt)
            continue
        over_set = residual(whole)
        for k, pt in enumerate(lone):
            want = residual(pt)
            row = over_set[k] if isinstance(over_set, np.ndarray) else over_set
            assert np.array_equal(row, want), name
            assert type(residual(shared[k])) is type(want), name
            assert np.array_equal(residual(shared[k]), want), name
    assert isinstance(phwc_residual_coord(lone[0]), float)
    assert isinstance(shared[0].target.kaehler, float)


@pytest.mark.parametrize("case", [*FAMILIES, "example1", "example2"])
def test_the_rows_of_a_set_f_equal_each_lone_build(case):
    if case in FAMILIES:
        phi, g, h, points = family_set(case)
    else:
        manifest = cli.validate_manifest(cli.BUILTIN_MANIFESTS[case])
        phi, g, h = manifest.phi, manifest.g, manifest.h
        points = sampled(N, 42, manifest.box)
    fp = fstruct.CheckPoint(phi, g, points, h).fp
    assert type(fp.rank) is int
    for k, p in enumerate(points):
        row, want = fp[k], fstruct.CheckPoint(phi, g, p, h).fp
        for name in FP_FIELDS:
            assert getattr(row, name).tobytes() == \
                getattr(want, name).tobytes(), name
            assert getattr(row, name).shape == getattr(want, name).shape
        assert row.rank == want.rank
        assert row.pivots == want.pivots
        assert all(type(a) is int for a in row.pivots)
        assert row.algebra_residual() == want.algebra_residual()


def test_a_set_whose_ranks_differ_is_built_point_by_point():
    # z^2 is holomorphic, so PHWC everywhere; F has rank 0 at z = 0, where
    # its differential vanishes, and rank 2 elsewhere
    phi = SmoothMap(2, 1, [parse_expr("(x1 + i*x2)^2")])
    g, h = MetricField.euclidean(2), HermitianMetricField.flat(1)
    points = np.array([[0.5, 0.5], [0.0, 0.0], [0.0, 1.0]])
    whole = fstruct.CheckPoint(phi, g, points, h)
    with pytest.raises(geometry.GeometryError, match="rank differs"):
        whole.fp
    # a point does not inherit the set's error: each builds its own F
    pts = [whole[k] for k in range(len(points))]
    assert "fp" not in vars(pts[0])
    assert [pt.fp.rank for pt in pts] == [2, 0, 2]


def sampled(count, seed, box):
    return catalog.sample_points(np.random.default_rng(seed), count,
                                 np.asarray(box, dtype=float))


def lone_records(manifest, report):
    """The records of report, run on manifest, as each point computes them
    alone."""
    want = []
    for rec in report["records"]:
        pt = fstruct.CheckPoint(manifest.phi, manifest.g,
                                np.array(rec["point"]), manifest.h)
        try:
            with np.errstate(all="ignore"):
                value, _ = cli.CHECKS[rec["check"]][1](pt)
        except geometry.POINT_ERRORS as err:
            want.append(f"{type(err).__name__}: {err}")
        else:
            want.append(value)
    return want


@pytest.mark.parametrize("where", ["domain", "target"])
def test_an_error_at_one_point_lands_on_its_records_only(where):
    box = [[-1, 1], [-1, 1]]
    xs = sampled(6, 4, box)[:, 0]
    least = int(np.argmin(xs))
    assert 0 < least < 5     # a check of the first or last point misses it
    # below 0 at the point of least x1 only
    shifted = f"x1 - {float(np.mean(np.sort(xs)[:2]))!r}"
    domain = {"dim": 2, "metric": "euclidean"}
    target = {"cdim": 1, "hermitian": "flat", "kaehler": True}
    if where == "domain":
        domain["metric"] = [[shifted, "0"], ["0", "1"]]
    else:
        target["hermitian"] = [[shifted]]
    manifest = cli.parse_manifest(json.dumps({
        "domain": domain, "target": target,
        "map": {"components": ["x1 + i*x2"]},
        "checks": ["phwc", "isotropy", "commutator", "hwc", "tension",
                   "pluriharmonic"],
        "sample": {"count": 6, "seed": 4, "box": box}}))
    report = cli.run_checks(manifest)
    bad = [rec for rec in report["records"] if "error" in rec]
    assert bad and {rec["point_index"] for rec in bad} == {least}
    kind = "MetricNotSPD" if where == "domain" else "MetricNotPD"
    assert all(rec["error"].startswith(kind) for rec in bad)
    for rec, want in zip(report["records"], lone_records(manifest, report)):
        assert rec.get("error", rec.get("value")) == want
        assert "error" not in rec or rec["pass"] is False


def test_a_set_check_that_fails_at_one_point_leaves_the_others_their_rows(
        monkeypatch):
    passes = []
    g_jets = MetricField.jets

    def counted(self, p):
        passes.append(len(np.atleast_2d(p)))
        return g_jets(self, p)

    monkeypatch.setattr(MetricField, "jets", counted)
    # g = diag(x1, 1) is SPD where x1 > 0 only
    g = MetricField(2, [[parse_expr("x1"), 0], [0, 1]])
    points = np.array([[0.5, 0.1], [-0.5, 0.3], [1.25, -1.0], [2.0, 0.0]])
    whole = MetricPoint(g, points)
    with pytest.raises(geometry.MetricNotSPD):
        whole.gm
    assert passes == [4]
    for k, p in enumerate(points):
        row = whole[k]
        assert "gm" not in vars(row) and "_jets" in vars(row)
        if k == 1:
            with pytest.raises(geometry.MetricNotSPD,
                               match=re.escape(f"not SPD at {p}")):
                row.gm
        else:
            assert row.gm.tobytes() == MetricPoint(g, p).gm.tobytes()
    # the rows read the set's one pass; only the lone points made their own
    assert passes == [4, 1, 1, 1]


@pytest.mark.parametrize("case", ["example1", "example2"])
def test_run_checks_of_an_example_makes_one_set_and_at_most_ten_rows(
        case, monkeypatch):
    inits, rows = [], []
    pd_init, point_of = PointData.__init__, MetricPoint.__getitem__

    def counted_init(self, *args, **kwargs):
        inits.append(type(self))
        pd_init(self, *args, **kwargs)

    def counted_rows(self, k):
        rows.append(type(self))
        return point_of(self, k)

    monkeypatch.setattr(PointData, "__init__", counted_init)
    monkeypatch.setattr(MetricPoint, "__getitem__", counted_rows)
    report = cli.run_checks(cli.validate_manifest(cli.BUILTIN_MANIFESTS[case]))
    assert len(report["records"]) == 700
    assert inits == [fstruct.CheckPoint]
    # the rows are the Kaehler gate's: every check runs over the set
    assert rows == [fstruct.CheckPoint] * 10


def test_a_failing_pass_over_a_set_is_made_once(monkeypatch):
    passes = []
    for cls in (SmoothMap, MetricField, HermitianMetricField):
        def jets(self, p, *order, _orig=cls.jets):
            passes.append(type(self).__name__)
            return _orig(self, p, *order)
        monkeypatch.setattr(cls, "jets", jets)
    g = MetricField(2, [[parse_expr("1/x2"), 0], [0, 1]])
    h = HermitianMetricField(1, [[parse_expr("1/x1")]], kaehler=True)
    points = [(0.5, 0.1), (0.0, 0.0), (0.3, 0.2)]
    for phi, fails, made in (
            (parse_expr("1/x1"), True, ["SmoothMap", "MetricField"]),
            (parse_expr("x1"), False, ["SmoothMap", "MetricField",
                                       "HermitianMetricField"])):
        whole = PointData(SmoothMap(2, 1, [phi]), g, points, h)
        passes.clear()
        geometry._build(whole, "diff", "gm", "ginv", "gamma", "gram",
                        "target.hm", "target.hinv", "target.gamma",
                        "target.kaehler")
        assert passes == made
        pds = [whole[k] for k in range(len(points))]
        with pytest.raises(DivisionNearZero):
            pds[1].gm
        assert pds[0].gm[1, 1] == 1.0 and pds[2].gm[0, 0] == 5.0
        # so is phi's first-order pass alone, which gives no rows if it fails
        pds = [PointData(SmoothMap(2, 1, [phi]), g, p, h) for p in points]
        passes.clear()
        share_differential(pds, order=1)
        assert passes == ["SmoothMap"]
        assert all(("diff" not in vars(pd)) == fails for pd in pds)


def counted(monkeypatch, module, name, calls):
    orig = getattr(module, name)

    def wrapper(*args):
        calls.append(args[-1])
        return orig(*args)
    monkeypatch.setattr(module, name, wrapper)


def test_a_constant_target_is_checked_once_per_field(monkeypatch):
    checks, inverses = [], []
    counted(monkeypatch, geometry, "_check_hermitian_pd", checks)
    counted(monkeypatch, geometry, "_inverse_checked", inverses)
    for n in (1, 2):
        phi = catalog.random_polynomial_map(np.random.default_rng(n), 2, n)
        h = HermitianMetricField.flat(n)
        whole = PointData(phi, MetricField.euclidean(2),
                          sampled(8, n, [[-1, 1]] * 2), h)
        for residual in (hwc_report, tension, pluriharmonic_residual,
                         phwc_residual_commutator):
            residual(whole)
        for pd in (whole[k] for k in range(8)):
            hwc_report(pd)
            tension(pd)
            pluriharmonic_residual(pd)
            phwc_residual_commutator(pd)
            assert pd.target.kaehler == 0.0
            assert not np.any(pd.target.gamma)
        assert len(checks) == n
        assert inverses.count("target metric") == n


def test_a_literal_target_that_fails_its_check_fails_at_each_point():
    h = HermitianMetricField(1, [[Const(-1.0)]], kaehler=True)
    zs = np.array([[0.5j], [2.0]])
    phi = SmoothMap(2, 1, [parse_expr("x1 + i*x2")])
    whole = PointData(phi, MetricField.euclidean(2),
                      [[0.0, 0.5], [2.0, 0.0]], h)
    with pytest.raises(geometry.MetricNotPD,
                       match=re.escape(f"z={zs[0]}")):
        whole.target.hm
    assert np.array_equal(whole.target.kaehler, [0.0, 0.0])
    for pd, z in zip((whole[0], whole[1]), zs):
        assert np.array_equal(pd.target.z, z)
        with pytest.raises(geometry.MetricNotPD, match=re.escape(f"z={z}")):
            pd.target.hm
        assert pd.target.kaehler == 0.0


OVERFLOW = {
    "domain": {"dim": 2, "metric": "euclidean"},
    "target": {"cdim": 1, "hermitian": "flat", "kaehler": True},
    "map": {"components": ["x1^2000"]},
    "checks": ["phwc", "tension", "hwc"],
    "sample": {"count": 3, "seed": 1, "box": [[1.40, 1.42], [0, 1]]},
}


def strict_json(data: bytes):
    def refuse(text):
        raise ValueError(text)
    return json.loads(data, parse_constant=refuse)


def test_an_overflowing_residual_is_an_error_not_infinity(tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW))
    out = tmp_path / "report.json"
    assert cli.main(["check", str(path), "--out", str(out)]) == 1
    report = strict_json(out.read_bytes())
    assert len(report["records"]) == 9
    for rec in report["records"]:
        assert not rec["pass"] and "value" not in rec
        assert rec["error"].startswith("FloatingPointError: ")
    assert all(s["max"] is None and s["mean"] is None
               for s in report["summaries"])


def test_an_overflow_lands_on_the_records_of_its_point_only():
    # |dphi|^2 = (2000 x1^1999)^2 overflows for x1 above about 1.19
    manifest = cli.parse_manifest(json.dumps(
        {**OVERFLOW, "sample": {"count": 8, "seed": 2,
                                "box": [[1.0, 1.42], [0, 1]]}}))
    report = cli.run_checks(manifest)
    over = {rec["point_index"] for rec in report["records"] if "error" in rec}
    assert 0 < len(over) < 8
    for rec, want in zip(report["records"], lone_records(manifest, report)):
        if np.isfinite(want):
            assert rec["value"] == want
        else:
            assert not rec["pass"]
            assert rec["error"] == f"FloatingPointError: {rec['check']} " \
                                   f"residual is {want}"
    strict_json(cli.emit_report(report))


def test_emit_report_refuses_a_number_that_is_not_finite():
    report = cli._assemble_report({}, 0, [])
    report["records"].append({"check": "phwc", "value": float("inf"),
                              "tol": 1.0, "pass": False})
    with pytest.raises(ValueError):
        cli.emit_report(report)


def test_summary_mean_of_finite_values_whose_sum_overflows():
    (summary,) = cli.summarize([{"check": "phwc", "value": 1.5e308,
                                 "pass": False}] * 2)
    assert summary["mean"] == 1.5e308


# --------------------------------------------------------------------------
# several maps and metrics, one pass each or one stacked pass
# --------------------------------------------------------------------------

def test_stacked_metric_rows_equal_each_lone_point():
    rng = np.random.default_rng(31)
    for m in (2, 3, 4):
        one = catalog.random_polynomial_metric(rng, m)
        # fields of one shape, then one field (random or Euclidean) that the
        # points share, which share_metric stacks with itself
        for fields in ([catalog.random_polynomial_metric(rng, m)
                        for _ in range(9)], [one] * 9,
                       [MetricField.euclidean(m)] * 9):
            points = rng.uniform(-1, 1, (9, m))
            shared = [MetricPoint(g, p) for g, p in zip(fields, points)]
            share_metric(shared)
            for pt, g, p in zip(shared, fields, points):
                lone = MetricPoint(g, p)
                for name in ("gm", "ginv", "gamma"):
                    assert getattr(pt, name).tobytes() == \
                        getattr(lone, name).tobytes(), name


def test_first_order_rows_equal_each_lone_point():
    phi, g, h, points = random_set("flat")
    shared = [PointData(phi, g, p, h) for p in points]
    share_differential(shared, order=1)
    for pd in shared:
        lone = PointData(phi, g, pd.p, h)
        for name in ("value", "grad"):
            assert getattr(pd.diff, name).tobytes() == \
                getattr(lone.diff, name).tobytes()
        assert phwc_residual_coord(pd) == phwc_residual_coord(lone)
        assert isotropy_residual(pd) == isotropy_residual(lone)
        assert phwc_residual_commutator(pd) == phwc_residual_commutator(lone)
        with pytest.raises(jet.HessianNotComputed):
            tension(pd)


def stacked_cases(monkeypatch, offsets, poles):
    """MetricPoints of the one-dimensional fields a + 1/(x1 - c)^2 of one
    shape, for a in offsets and c in poles, each at x1 = 0.5, sharing one
    stacked pass; and the record of the jet passes of metrics."""
    passes = []
    g_jets = MetricField.jets

    def counted(self, p):
        passes.append(len(np.atleast_2d(p)))
        return g_jets(self, p)

    monkeypatch.setattr(MetricField, "jets", counted)
    fields = [MetricField(1, [[Const(a) + (Const(1.0) / (
        Var(0) - Const(c))) ** 2]]) for a, c in zip(offsets, poles)]
    shared = [MetricPoint(g, [0.5]) for g in fields]
    share_metric(shared)
    return fields, shared, passes


def test_a_division_near_zero_in_one_stacked_metric_stays_on_its_case(
        monkeypatch):
    fields, shared, passes = stacked_cases(monkeypatch, (1.0, 1.0, 1.0),
                                           (0.1, 0.5, 0.9))
    # the stacked pass fails, so each case evaluates alone, from its tree
    assert passes == [3]
    for k, (pt, g) in enumerate(zip(shared, fields)):
        lone = MetricPoint(g, [0.5])
        if k == 1:
            for point in (pt, lone):
                with pytest.raises(DivisionNearZero,
                                   match="modulus 0.000e[+]00"):
                    point.ginv
        else:
            assert pt.ginv.tobytes() == lone.ginv.tobytes()
    assert passes == [3, 1, 1, 1, 1, 1, 1]


def test_a_metric_check_that_fails_at_one_stacked_case_stays_on_it(
        monkeypatch):
    # -10 + 1/(0.5 - 0.1)^2 < 0: the SPD check fails for that case alone
    fields, shared, passes = stacked_cases(monkeypatch, (1.0, -10.0, 1.0),
                                           (0.1, 0.1, 0.9))
    assert passes == [3]
    for k, (pt, g) in enumerate(zip(shared, fields)):
        lone = MetricPoint(g, [0.5])
        if k == 1:
            for point in (pt, lone):
                with pytest.raises(geometry.MetricNotSPD,
                                   match=re.escape("not SPD at [0.5]")):
                    point.ginv
        else:
            assert pt.gm.tobytes() == lone.gm.tobytes()
            assert pt.ginv.tobytes() == lone.ginv.tobytes()
    # the failing case reads its rows of the stacked pass; only the lone
    # points made passes of their own
    assert passes == [3, 1, 1, 1]


def test_share_metric_refuses_fields_of_another_shape():
    points = [MetricPoint(MetricField.euclidean(2), [0.0, 0.0]),
              MetricPoint(catalog.random_polynomial_metric(
                  np.random.default_rng(0), 2), [0.0, 0.0])]
    with pytest.raises(ValueError):
        share_metric(points)


def test_run_checks_builds_the_stencils_of_a_sample_in_one_pass(monkeypatch):
    manifest = cli.parse_manifest(json.dumps({
        "domain": {"dim": 4, "metric": [
            ["2 + x1^2" if i == j else "0" for j in range(4)]
            for i in range(4)]},
        "target": {"cdim": 2, "hermitian": "flat", "kaehler": True},
        "map": {"components": ["i*(x1 + x2) + x3 + x4",
                               "i*(x1 + x2) + x3 + x4"]},
        "checks": ["nijenhuis", "parallel", "met", "domega12", "tension"],
        "sample": {"count": 4, "seed": 6, "box": [[-1, 1]] * 4}}))
    phi_passes, g_passes = [], []
    phi_jets, g_jets = SmoothMap.jets, MetricField.jets

    def counted_phi(self, p, order=2):
        phi_passes.append((len(np.atleast_2d(p)), order))
        return phi_jets(self, p, order)

    def counted_g(self, p):
        g_passes.append(len(np.atleast_2d(p)))
        return g_jets(self, p)

    monkeypatch.setattr(SmoothMap, "jets", counted_phi)
    monkeypatch.setattr(MetricField, "jets", counted_g)
    report = cli.run_checks(manifest)
    # phi to second order and g once, at the sample points only: F's
    # derivatives read phi's Hessian and g's gradient there
    assert phi_passes == [(4, 2)]
    assert g_passes == [4]
    monkeypatch.undo()
    errors = [rec for rec in report["records"] if "error" in rec]
    assert len(report["records"]) == 4 * 5 and len(errors) < 4 * 4
    for rec, want in zip(report["records"], lone_records(manifest, report)):
        assert rec.get("error", rec.get("value")) == want


def counted_f_builds(monkeypatch) -> list:
    """The points of every F build from now on."""
    builds = []
    build = fstruct.associated_f_structure

    def counted(pd):
        builds.append(pd.p)
        return build(pd)
    monkeypatch.setattr(fstruct, "associated_f_structure", counted)
    return builds


def test_run_checks_builds_f_once_per_sample_set(monkeypatch):
    # fstructure reads the set's F, nijenhuis each point's row of it, whose
    # derivatives build no F of their own
    raw = dict(cli.BUILTIN_MANIFESTS["example2"],
               checks=["fstructure", "nijenhuis"])
    raw["sample"] = dict(raw["sample"], count=4)
    builds = counted_f_builds(monkeypatch)
    report = cli.run_checks(cli.validate_manifest(raw))
    assert all(rec["pass"] for rec in report["records"])
    assert [p.shape for p in builds] == [(4, 4)]
    # no check that reads F, no F
    builds.clear()
    cli.run_checks(cli.validate_manifest(dict(raw, checks=["phwc", "hwc"])))
    assert builds == []


# x1^12 moves the map off PHWC as x1 grows: the gate holds on part of the
# box and fails on the rest
MIXED_GATE = {
    "domain": {"dim": 2, "metric": "euclidean"},
    "target": {"cdim": 1, "hermitian": "flat", "kaehler": True},
    "map": {"components": ["x1 + i*x2 + x1^12"]},
    "checks": ["phwc", "fstructure", "f_holomorphy", "nijenhuis", "tension"],
    "sample": {"count": 20, "seed": 3, "box": [[0, 1], [-1, 1]]},
}


def test_a_gate_that_fails_at_some_points_runs_f_point_by_point(monkeypatch):
    manifest = cli.validate_manifest(MIXED_GATE)
    builds = counted_f_builds(monkeypatch)
    report = cli.run_checks(manifest)
    # the set's build raises, so each point builds its own F once
    assert [p.shape for p in builds] == [(20, 2)] + [(2,)] * 20
    monkeypatch.undo()
    gate = {}
    for rec in report["records"]:
        if rec["check"] in ("fstructure", "f_holomorphy", "nijenhuis"):
            kind = rec.get("error", "pass").split(":")[0]
            gate[rec["check"], kind] = gate.get((rec["check"], kind), 0) + 1
            assert rec["pass"] == (kind == "pass")
    assert gate == {("fstructure", "pass"): 4,
                    ("fstructure", "NotPHWCAtPoint"): 16,
                    ("f_holomorphy", "pass"): 4,
                    ("f_holomorphy", "NotPHWCAtPoint"): 16,
                    ("nijenhuis", "pass"): 3,
                    ("nijenhuis", "NotPHWCAtPoint"): 17}
    for rec, want in zip(report["records"], lone_records(manifest, report)):
        assert rec.get("error", rec.get("value")) == want
    for rec in report["records"]:
        if rec["check"] == "fstructure" and rec["pass"]:
            pt = fstruct.CheckPoint(manifest.phi, manifest.g,
                                    np.array(rec["point"]), manifest.h)
            assert rec["extra"] == {
                "rank": pt.fp.rank,
                "dphi_pzero": fstruct.dphi_kernel_residual(pt)}
            assert type(rec["extra"]["rank"]) is int
