"""A set of points is checked, inverted and contracted in one numpy call per
quantity; every row must equal, bit for bit, what one point computes alone,
and an error must land on the points where it occurs only."""

import json
import re

import numpy as np
import pytest

from phwc import catalog, cli, geometry
from phwc.geometry import HermitianMetricField, MetricField
from phwc.jet import Const, DivisionNearZero, parse_expr
from phwc.maps import (
    PointData,
    SmoothMap,
    hwc_report,
    isotropy_residual,
    phwc_residual_commutator,
    phwc_residual_coord,
    pluriharmonic_residual,
    share_pass,
    tension,
)

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
    "lambda_sq": lambda pd: hwc_report(pd).lambda_sq,
    "defect": lambda pd: hwc_report(pd).defect,
    "tension": lambda pd: tension(pd).tau,
    "harmonic": lambda pd: tension(pd).harmonic_residual,
    "laplacian": lambda pd: pd.laplacian(pd.diff.dphi, pd.diff.second),
}
POINT_RESIDUALS = {
    **SET_RESIDUALS,
    "isotropy": isotropy_residual,
    "commutator": phwc_residual_commutator,
    "pluriharmonic": pluriharmonic_residual,
}


@pytest.mark.parametrize("target", ["flat", "kaehler"])
def test_set_rows_equal_each_lone_point(target):
    phi, g, h, points = random_set(target)
    whole = PointData(phi, g, points, h)
    lone = [PointData(phi, g, p, h) for p in points]
    shared = [PointData(phi, g, p, h) for p in points]
    share_pass(shared)
    for k in range(N):
        for name in ("gm", "ginv", "gamma", "gram"):
            want = getattr(lone[k], name)
            assert np.array_equal(getattr(whole, name)[k], want), name
            assert np.array_equal(getattr(shared[k], name), want), name
        for name in ("hm", "hinv", "gamma", "kaehler"):
            want = getattr(lone[k].target, name)
            assert np.array_equal(getattr(whole.target, name)[k], want), name
            assert np.array_equal(getattr(shared[k].target, name), want), name
        for name, residual in SET_RESIDUALS.items():
            assert np.array_equal(residual(whole)[k], residual(lone[k])), name
        for name, residual in POINT_RESIDUALS.items():
            assert np.array_equal(residual(shared[k]),
                                  residual(lone[k])), name
    assert isinstance(phwc_residual_coord(lone[0]), float)
    assert isinstance(shared[0].target.kaehler, float)


def sampled(count, seed, box):
    return catalog.sample_points(np.random.default_rng(seed), count,
                                 np.asarray(box, dtype=float))


def lone_records(raw, report):
    """The records of report as each point computes them alone."""
    ctx = cli._Context(raw)
    want = []
    for rec in report["records"]:
        at = cli._PointChecks(ctx, np.array(rec["point"]))
        try:
            value, _ = cli._run_one_check(at, rec["check"])
        except cli.OPERATION_ERRORS as err:
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
    # below 0 at the point of least x1 only; the grammar has no unary minus
    shifted = f"x1 + 2 - {float(np.mean(np.sort(xs)[:2])) + 2!r}"
    domain = {"dim": 2, "metric": "euclidean"}
    target = {"cdim": 1, "hermitian": "flat", "kaehler": True}
    if where == "domain":
        domain["metric"] = [[shifted, "0"], ["0", "1"]]
    else:
        target["hermitian"] = [[shifted]]
    raw = cli.parse_manifest(json.dumps({
        "domain": domain, "target": target,
        "map": {"components": ["x1 + i*x2"]},
        "checks": ["phwc", "isotropy", "commutator", "hwc", "tension",
                   "pluriharmonic"],
        "sample": {"count": 6, "seed": 4, "box": box}}))
    report = cli.run_checks(raw)
    bad = [rec for rec in report["records"] if "error" in rec]
    assert bad and {rec["point_index"] for rec in bad} == {least}
    kind = "MetricNotSPD" if where == "domain" else "MetricNotPD"
    assert all(rec["error"].startswith(kind) for rec in bad)
    for rec, want in zip(report["records"], lone_records(raw, report)):
        assert rec.get("error", rec.get("value")) == want
        assert "error" not in rec or rec["pass"] is False


def test_a_failing_pass_over_a_set_is_made_once(monkeypatch):
    passes = []
    for cls in (SmoothMap, MetricField, HermitianMetricField):
        def jets(self, p, _orig=cls.jets):
            passes.append(type(self).__name__)
            return _orig(self, p)
        monkeypatch.setattr(cls, "jets", jets)
    g = MetricField(2, [[parse_expr("1/x2"), 0], [0, 1]])
    h = HermitianMetricField(1, [[parse_expr("1/x1")]], kaehler=True)
    points = [(0.5, 0.1), (0.0, 0.0), (0.3, 0.2)]
    for phi, made in ((parse_expr("1/x1"), ["SmoothMap", "MetricField"]),
                      (parse_expr("x1"), ["SmoothMap", "MetricField",
                                          "HermitianMetricField"])):
        pds = [PointData(SmoothMap(2, 1, [phi]), g, p, h) for p in points]
        passes.clear()
        share_pass(pds)
        assert passes == made
        with pytest.raises(DivisionNearZero):
            pds[1].gm
        assert pds[0].gm[1, 1] == 1.0 and pds[2].gm[0, 0] == 5.0


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
        pds = [PointData(phi, MetricField.euclidean(2), p, h)
               for p in sampled(8, n, [[-1, 1]] * 2)]
        share_pass(pds)
        for pd in pds:
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
    for point, z in zip(geometry.hermitian_points(h, zs), zs):
        with pytest.raises(geometry.MetricNotPD, match=re.escape(f"z={z}")):
            point.hm
        assert point.kaehler == 0.0


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflow_lands_on_the_records_of_its_point_only():
    # |dphi|^2 = (2000 x1^1999)^2 overflows for x1 above about 1.19
    raw = cli.parse_manifest(json.dumps(
        {**OVERFLOW, "sample": {"count": 8, "seed": 2,
                                "box": [[1.0, 1.42], [0, 1]]}}))
    report = cli.run_checks(raw)
    over = {rec["point_index"] for rec in report["records"] if "error" in rec}
    assert 0 < len(over) < 8
    for rec, want in zip(report["records"], lone_records(raw, report)):
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
