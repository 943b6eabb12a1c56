import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from phwc import catalog, cli, fstruct, geometry, jet, maps, paper
from phwc.cli import (
    BUILTIN_MANIFESTS,
    ValidationError,
    emit_report,
    main,
    parse_manifest,
    run_checks,
    run_flow_manifest,
    summarize,
    verify_paper,
)
from phwc.fstruct import SuiteSample, theorem_suite
from phwc.geometry import HermitianMetricField, MetricField
from phwc.jet import ParseError, parse_expr
from phwc.maps import PointData, SmoothMap, phwc_residual_coord, tension

MANIFESTS = pathlib.Path(__file__).resolve().parent.parent / "manifests"


def manifest_text(**overrides):
    raw = {
        "domain": {"dim": 2, "metric": "euclidean"},
        "target": {"cdim": 1, "hermitian": "flat", "kaehler": True},
        "map": {"components": ["x1 + i*x2"]},
        "checks": ["phwc", "tension"],
        "sample": {"count": 5, "seed": 3, "box": [[-1, 1], [-1, 1]]},
    }
    raw.update(overrides)
    return json.dumps(raw)


# --------------------------------------------------------------------------
# parsing and validation
# --------------------------------------------------------------------------

def test_builtin_manifests_validate():
    for name, raw in BUILTIN_MANIFESTS.items():
        parsed = parse_manifest(json.dumps(raw))
        assert parsed.raw == raw and parsed.phi.domain_dim in (2, 4)


def test_builtin_manifests_equal_their_files():
    # verify-paper runs the built-in copies; the README points at the files
    for name in ("example1", "example2"):
        text = (MANIFESTS / f"{name}.json").read_text()
        assert BUILTIN_MANIFESTS[name] == parse_manifest(text).raw


@pytest.mark.parametrize("args, parses", [
    (["check", "example1"], 3),
    (["flow", str(MANIFESTS / "flow_demo.json")], 2),
])
def test_a_manifest_is_walked_once(monkeypatch, tmp_path, args, parses):
    # one parse per component string: the map's, and the flow's initial
    texts = []

    def counted(text):
        texts.append(text)
        return parse_expr(text)
    monkeypatch.setattr(cli.jet, "parse_expr", counted)
    assert main([*args, "--out", str(tmp_path / "report.json")]) == 0
    assert len(texts) == parses


def test_dimension_mismatch_names_field():
    bad = manifest_text(map={"components": ["x1", "x2"]})
    with pytest.raises(ValidationError) as err:
        parse_manifest(bad)
    assert "map.components" in str(err.value)


def test_malformed_expression_is_a_parse_diagnostic():
    bad = manifest_text(map={"components": ["x1 + * 2"]})
    with pytest.raises(ValidationError) as err:
        parse_manifest(bad)
    assert "column 6" in str(err.value)


@pytest.mark.parametrize("text", [
    "1e+", "2e-", ".",                  # float() of these raised ValueError
    "(" * 400 + "x1" + ")" * 400,       # RecursionError in the parser,
    "+".join(["x1"] * 450),             # in the first jet pass
    "+".join(["x1"] * 1000),            # and in max_var_index
])
def test_bad_expression_text_exits_2_naming_it(tmp_path, capsys, text):
    path = tmp_path / "manifest.json"
    path.write_text(manifest_text(map={"components": [text]}))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: map.components[0]: ")
    assert len(text) < 4 or f"deeper than {jet.MAX_DEPTH} levels" in err


def test_a_150_term_sum_still_runs(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(manifest_text(
        map={"components": ["+".join(["(x1 + i*x2)"] * 150)]}))
    assert main(["check", str(path), "--out", str(tmp_path / "r.json")]) == 0


def test_unknown_check_lists_valid_names():
    bad = manifest_text(checks=["phwc", "bogus"])
    with pytest.raises(ValidationError) as err:
        parse_manifest(bad)
    assert "bogus" in str(err.value) and "nijenhuis" in str(err.value)


def test_seed_mandatory_for_sampling():
    bad = manifest_text(sample={"count": 5, "box": [[-1, 1], [-1, 1]]})
    with pytest.raises(ValidationError) as err:
        parse_manifest(bad)
    assert "seed" in str(err.value)


def test_invalid_json_is_parse_error():
    with pytest.raises(ParseError):
        parse_manifest("{not json")


def test_variable_out_of_chart_rejected():
    bad = manifest_text(map={"components": ["x3"]})
    with pytest.raises(ValidationError) as err:
        parse_manifest(bad)
    assert "x3" in str(err.value)


# --------------------------------------------------------------------------
# running checks
# --------------------------------------------------------------------------

def test_run_checks_example1():
    report = run_checks(parse_manifest(json.dumps(BUILTIN_MANIFESTS["example1"])))
    assert all(rec["pass"] for rec in report["records"])
    by_check = {s["check"]: s for s in report["summaries"]}
    assert by_check["phwc"]["max"] <= 1e-12
    assert by_check["tension"]["max"] <= 1e-12
    # the negated horizontal-conformality check: defect clearly above 0.5
    assert by_check["hwc"]["max"] > 0.5
    ranks = {rec["extra"]["rank"] for rec in report["records"]
             if rec["check"] == "fstructure"}
    assert ranks == {2}


def test_run_checks_example2():
    report = run_checks(parse_manifest(json.dumps(BUILTIN_MANIFESTS["example2"])))
    assert all(rec["pass"] for rec in report["records"])
    by_check = {s["check"]: s for s in report["summaries"]}
    assert by_check["hwc"]["max"] >= 1.0
    for rec in report["records"]:
        if rec["check"] == "fstructure":
            assert rec["extra"]["rank"] == 2
            assert rec["extra"]["dphi_pzero"] <= 1e-10


def test_operation_errors_recorded_not_fatal():
    # a map that is not PHWC: the fstructure gate trips per point but the
    # sweep completes and other checks still report
    raw = parse_manifest(manifest_text(
        map={"components": ["x1"]},
        target={"cdim": 1, "hermitian": "flat", "kaehler": True},
        checks=["phwc", "fstructure"],
    ))
    report = run_checks(raw)
    fails = [r for r in report["records"] if r["check"] == "fstructure"]
    assert fails and all("NotPHWCAtPoint" in r["error"] for r in fails)
    assert all(not r["pass"] for r in fails)
    phwc_recs = [r for r in report["records"] if r["check"] == "phwc"]
    assert len(phwc_recs) == 5


@pytest.mark.parametrize("hermitian", ["flat", [["1 + re(x1)^2"]]])
def test_arithmetic_errors_recorded_not_fatal(tmp_path, hermitian):
    # x1^2000 overflows complex exponentiation on this box; a non-flat
    # Kaehler target also runs the Kaehler gate on the images first
    text = manifest_text(map={"components": ["x1^2000"]},
                         target={"cdim": 1, "hermitian": hermitian,
                                 "kaehler": True},
                         sample={"count": 3, "seed": 1,
                                 "box": [[5, 6], [5, 6]]})
    report = run_checks(parse_manifest(text))
    assert len(report["records"]) == 3 * 2
    assert all(not r["pass"] and r["error"].startswith("OverflowError")
               for r in report["records"])
    path = tmp_path / "overflow.json"
    path.write_text(text)
    assert main(["check", str(path), "--out", str(tmp_path / "r.json")]) == 1


def lone_point_outcome(phi, g, p):
    """(phwc, tension) at p from PointData evaluated there alone, or the
    record error it raises."""
    pd = PointData(phi, g, p, HermitianMetricField.flat(1))
    try:
        return phwc_residual_coord(pd), tension(pd).harmonic_residual
    except ArithmeticError as err:
        return f"{type(err).__name__}: {err}"


@pytest.mark.parametrize("component, metric", [
    ("1/(x1 - {c}) + i*x2", "1"),                         # DivisionNearZero
    ("(x2/(x1 - {c} + 0.00000000001))^30 + i*x2", "1"),   # OverflowError
    ("x1 + i*x2", "1 + 1/(x1 - {c})^2"),                  # in g's pass
])
def test_arithmetic_error_at_one_point_stays_on_its_records(component,
                                                            metric):
    # the sample is evaluated in one pass per map and metric; an error at
    # sample point 3 must neither fail the others nor change what its
    # records say
    box = [[0.5, 1.5], [0.5, 1.5]]
    points = catalog.sample_points(np.random.default_rng(4), 8, box)
    c = repr(float(points[3][0]))
    grid = [[metric.format(c=c), "0"], ["0", "1"]]
    text = component.format(c=c)
    raw = parse_manifest(manifest_text(
        domain={"dim": 2, "metric": grid}, map={"components": [text]},
        checks=["phwc", "tension"],
        sample={"count": 8, "seed": 4, "box": box}))
    phi = SmoothMap(2, 1, [parse_expr(text)])
    g = MetricField(2, [[parse_expr(e) for e in row] for row in grid])
    outcomes = [lone_point_outcome(phi, g, p) for p in points]
    assert [isinstance(o, str) for o in outcomes] == [k == 3 for k in range(8)]
    for rec in run_checks(raw)["records"]:
        want = outcomes[rec["point_index"]]
        if isinstance(want, str):
            assert rec["error"] == want and not rec["pass"]
        else:
            assert rec["value"] == want[("phwc", "tension").index(rec["check"])]


def test_verify_paper_loops_make_one_pass_per_point_set(monkeypatch):
    passes, sweep = [], []
    orig = geometry.eval_jet2

    def counted(module):
        def pass_of(e, p, order=2):
            passes.append((module, len(p) if np.ndim(p) == 2 else 1, order))
            return orig(e, p, order)
        return pass_of

    for module in (geometry, maps):
        monkeypatch.setattr(module, "eval_jet2", counted(module.__name__))

    def sweep_passes(rng):
        start = len(passes)
        out = paper.equivalence(rng)
        sweep.extend(passes[start:])
        del passes[start:]
        return out

    # the bundle runs the sections in SECTIONS, so the wrapper goes there
    monkeypatch.setattr(paper, "SECTIONS", tuple(
        sweep_passes if section is paper.equivalence else section
        for section in paper.SECTIONS))
    verify_paper(seed=42)
    # 20 pulled-back and 20 composed maps at 50 points each: one pass of
    # phi (with the pulled-back pluriharmonic function) and one first-order
    # pass of g per map.  Every target is flat and makes no pass: its
    # matrix is read once from its literals
    assert passes.count(("phwc.maps", 50, 2)) == 2 * 20
    assert passes.count(("phwc.geometry", 50, 1)) == 2 * 20
    # a pass of g or h stops at the gradient; outside the equivalence
    # sweep no pass is of a single point
    assert all(order == 1 for module, _, order in passes
               if module == "phwc.geometry")
    assert all(size > 1 for _, size, _ in passes)
    # the sweep: each of its 200 cases is in exactly one first-order pass
    # of its map and one of its metric; ex1 and ex2 make one pass each
    # over their cases and every other map one at its point; g2, g4 and
    # the random metrics of each dimension 2, 3, 4 one pass each
    assert all(order == 1 for _, _, order in sweep)
    phi = [size for module, size, _ in sweep if module == "phwc.maps"]
    g = [size for module, size, _ in sweep if module == "phwc.geometry"]
    assert sum(phi) == sum(g) == 200
    assert len([size for size in phi if size > 1]) == 2
    assert len(g) == 5


def test_paper_does_not_import_the_command_line():
    # the command line runs the paper's sections, never the other way round
    root = pathlib.Path(__file__).resolve().parent.parent
    path = [str(root / "src")] + [os.environ.get("PYTHONPATH") or ""]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, phwc.paper; print('phwc.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_run_checks_evaluates_phi_and_g_once_per_point(monkeypatch):
    calls, jets = {}, {}
    for cls, name in ((SmoothMap, "jets"), (SmoothMap, "value"),
                      (MetricField, "jets"), (MetricField, "matrix")):
        key = f"{cls.__name__}.{name}"
        calls[key] = []

        def counted(self, p, *order, _orig=getattr(cls, name), _key=key):
            calls[_key].append(np.atleast_2d(p))
            out = jets[_key] = _orig(self, p, *order)
            return out
        monkeypatch.setattr(cls, name, counted)
    calls["christoffel_domain"] = []
    for module in (geometry, maps, fstruct, cli):
        if hasattr(module, "christoffel_domain"):
            monkeypatch.setattr(module, "christoffel_domain",
                                lambda g, p: calls["christoffel_domain"]
                                .append(tuple(p)))
    raw = parse_manifest(json.dumps(BUILTIN_MANIFESTS["example1"]))
    report = run_checks(raw, count=4)
    assert len(report["records"]) == 4 * 7
    assert all(rec["pass"] for rec in report["records"])
    points = [tuple(rec["point"]) for rec in report["records"][::7]]
    # one pass of phi and one of g, each over every sample point once
    for key in ("SmoothMap.jets", "MetricField.jets"):
        (batch,) = calls[key]
        assert [tuple(q) for q in batch] == points
    # phi's pass goes to second order, which tension reads; g's stops at
    # the gradient, all that its matrix, inverse and symbols read
    assert jets["SmoothMap.jets"].hess.shape == (4, 3, 2, 2)
    assert jets["MetricField.jets"].hess is None
    assert calls["SmoothMap.value"] == []
    assert calls["MetricField.matrix"] == []
    assert calls["christoffel_domain"] == []


def test_run_checks_builds_a_failing_f_once_per_point(monkeypatch):
    # F fails the PHWC gate at every point; each check that reads F gets
    # the error of the point's one build
    raw = dict(BUILTIN_MANIFESTS["example1"],
               map={"components": ["x1", "x1 + i*x2", "x1 + i*x2"]},
               checks=["fstructure", "f_holomorphy", "nijenhuis"])
    manifest = parse_manifest(json.dumps(raw))
    build, calls = fstruct.associated_f_structure, []

    def counted(pd):
        calls.append(pd)
        return build(pd)
    monkeypatch.setattr(fstruct, "associated_f_structure", counted)
    report = run_checks(manifest, count=4)
    assert len(calls) == 4
    assert len(report["records"]) == 4 * 3
    assert all(rec["error"].startswith("NotPHWCAtPoint")
               for rec in report["records"])
    # the same bytes as building F afresh for every check
    monkeypatch.setattr(fstruct.CheckPoint, "fp", property(build))
    assert emit_report(run_checks(manifest, count=4)) == emit_report(report)
    assert len(calls) == 4


@pytest.fixture
def h_passes(monkeypatch):
    """Records the chart points (N, n) of each jet pass of a Hermitian
    metric, and each call of the readers that would make a pass of their
    own."""
    jets, bypasses = [], []
    h_jets = HermitianMetricField.jets

    def counted_jets(self, z):
        jets.append(np.atleast_2d(z))
        out = h_jets(self, z)
        # a pass of h stops at the gradient, all that its readers read
        assert out.hess is None
        return out

    def bypass(name, orig):
        def counted(*args):
            bypasses.append(name)
            return orig(*args)
        return counted

    monkeypatch.setattr(HermitianMetricField, "jets", counted_jets)
    monkeypatch.setattr(HermitianMetricField, "matrix", bypass(
        "matrix", HermitianMetricField.matrix))
    for module in (geometry, maps, fstruct, cli):
        for name in ("christoffel_kaehler", "kaehler_residual"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    bypass(name, getattr(module, name)))
    return jets, bypasses


def test_run_checks_evaluates_curved_h_once_per_point(h_passes, monkeypatch):
    # h_{a abar} = 1 + |z^a|^2 comes from the potential
    # sum_a |z^a|^2 + |z^a|^4 / 4: Kaehler, curved, so tension reads Gamma
    raw = parse_manifest(manifest_text(
        domain={"dim": 4, "metric": "euclidean"},
        target={"cdim": 2, "hermitian": [["1 + x1^2 + x2^2", "0"],
                                         ["0", "1 + x3^2 + x4^2"]],
                "kaehler": True},
        map={"components": ["x1 + i*x2", "x3 + i*x4"]},
        checks=["commutator", "hwc", "tension", "pluriharmonic"],
        sample={"count": 4, "seed": 5, "box": [[-1, 1]] * 4}))
    phi_passes = []
    phi_jets = SmoothMap.jets

    def counted_phi_jets(self, p, order=2):
        # tension and the pluriharmonic check read second partials
        assert order == 2
        phi_passes.append(np.atleast_2d(p))
        return phi_jets(self, p, order)

    monkeypatch.setattr(SmoothMap, "jets", counted_phi_jets)
    report = run_checks(raw)
    assert len(report["records"]) == 4 * 4
    assert all("value" in rec for rec in report["records"])
    assert all(rec["pass"] for rec in report["records"]
               if rec["check"] != "hwc")
    jets, bypasses = h_passes
    # the Kaehler gate and every check share one pass of phi over the whole
    # sample and one of h over the images of its points
    for passes in (phi_passes, jets):
        (batch,) = passes
        assert len({tuple(q) for q in batch}) == len(batch) == 4
    assert bypasses == []


def test_pluriharmonic_check_reads_the_curved_target():
    # phi = z + zbar/2 into h = 1 + |w|^2: the only term left is
    # Gamma(w) dphi/dz dphi/dzbar, of modulus 0.5 |w| / (1 + |w|^2)
    raw = json.loads((MANIFESTS / "curved_target.json").read_text())
    raw["checks"] = ["pluriharmonic"]
    report = run_checks(parse_manifest(json.dumps(raw)))
    assert len(report["records"]) == 3
    for rec in report["records"]:
        x1, x2 = rec["point"]
        w = abs(complex(1.5 * x1, 0.5 * x2))
        assert rec["value"] == pytest.approx(0.5 * w / (1 + w ** 2),
                                             rel=1e-14)
        assert not rec["pass"]


def test_pluriharmonic_check_needs_the_kaehler_flag():
    raw = parse_manifest(manifest_text(
        target={"cdim": 1, "hermitian": [["1 + x1^2 + x2^2"]]},
        checks=["pluriharmonic"]))
    for rec in run_checks(raw)["records"]:
        assert not rec["pass"]
        assert rec["error"].startswith("TargetNotKaehler")


def test_theorem_suite_evaluates_curved_h_once_per_point(h_passes):
    h = catalog.random_kaehler_metric(np.random.default_rng(3), 2)
    report = theorem_suite([SuiteSample(
        "linear_c2_curved", catalog.linear_r4_c2(), MetricField.euclidean(4),
        h, [(1.0, 2.0, 0.5, -1.0), (0.2, -0.7, 1.1, 0.4)])])
    assert report.checked == 2
    assert all(r.residuals["kaehler"] <= 1e-10 for r in report.records)
    jets, bypasses = h_passes
    # the Kaehler gate and tension share one pass of h over the images of
    # the checked points
    (batch,) = jets
    assert len({tuple(q) for q in batch}) == len(batch) == 2
    assert bypasses == []


def test_target_not_pd_fails_only_the_checks_that_read_h():
    # h = 1 - re(z)^2 is negative on the image re(z) in [1.5, 2] of this box
    raw = parse_manifest(manifest_text(
        target={"cdim": 1, "hermitian": [["1 - re(x1)^2"]], "kaehler": True},
        checks=["phwc", "isotropy", "tension", "hwc", "commutator",
                "pluriharmonic"],
        sample={"count": 3, "seed": 2, "box": [[1.5, 2], [-1, 1]]}))
    report = run_checks(raw)
    for rec in report["records"]:
        if rec["check"] in ("phwc", "isotropy"):
            assert rec["pass"] and rec["value"] <= 1e-12
        else:
            assert not rec["pass"]
            assert rec["error"].startswith(
                "MetricNotPD: target metric not positive definite")


# example2's map stays PHWC under this metric while its F-field rotates
VARYING_METRIC_R4 = [
    ["1", "0", "0", "0"],
    ["0", "1/(1 + 0.3*sin(x1))", "0", "0"],
    ["0", "0", "1", "0"],
    ["0", "0", "0", "1/(1 + 0.3*sin(x1))"],
]


# each check's residual, called with one CheckPoint alone
RESIDUAL_OF = {
    "phwc": maps.phwc_residual_coord,
    "isotropy": maps.isotropy_residual,
    "commutator": maps.phwc_residual_commutator,
    "hwc": lambda pt: maps.hwc_report(pt).defect,
    "tension": lambda pt: maps.tension(pt).harmonic_residual,
    "pluriharmonic": maps.pluriharmonic_residual,
    "fstructure": lambda pt: pt.fp.algebra_residual(),
    "f_holomorphy": fstruct.f_holomorphy_residual,
    "nijenhuis": fstruct.nijenhuis_residual,
    "parallel": fstruct.parallel_residual,
    "domega12": fstruct.domega_12_residual,
    "met": fstruct.met_residual,
}


def test_every_check_equals_its_residual_on_the_point():
    assert set(RESIDUAL_OF) == set(fstruct.CHECKS)
    box = [[-2, 2]] * 4
    raw = {
        "domain": {"dim": 4, "metric": VARYING_METRIC_R4},
        "target": {"cdim": 2, "hermitian": "flat", "kaehler": True},
        "map": {"components": BUILTIN_MANIFESTS["example2"]["map"]
                ["components"]},
        "checks": list(fstruct.CHECKS),
        "sample": {"count": 3, "seed": 5, "box": box},
    }
    report = run_checks(parse_manifest(json.dumps(raw)))
    assert len(report["records"]) == 3 * len(fstruct.CHECKS)
    phi = SmoothMap(4, 2, [parse_expr(c) for c in raw["map"]["components"]])
    g = MetricField(4, [[parse_expr(e) for e in row]
                        for row in VARYING_METRIC_R4])
    for rec in report["records"]:
        pt = fstruct.CheckPoint(phi, g, np.array(rec["point"]),
                                HermitianMetricField.flat(2))
        assert rec["value"] == RESIDUAL_OF[rec["check"]](pt), rec["check"]
        if rec["check"] == "fstructure":
            assert rec["extra"] == {
                "rank": pt.fp.rank,
                "dphi_pzero": fstruct.dphi_kernel_residual(pt)}


def test_record_count_is_points_times_checks():
    raw = parse_manifest(manifest_text())
    report = run_checks(raw)
    assert len(report["records"]) == 5 * 2


def test_determinism_same_seed():
    raw = parse_manifest(manifest_text())
    a = emit_report(run_checks(raw))
    b = emit_report(run_checks(raw))
    assert a == b


def test_tol_override():
    raw = parse_manifest(manifest_text(checks=["phwc"]))
    report = run_checks(raw, tol_overrides={"phwc": -1.0})
    assert all(not rec["pass"] for rec in report["records"])


def test_forged_kaehler_manifest_is_gated():
    raw = parse_manifest(manifest_text(
        domain={"dim": 4, "metric": "euclidean"},
        target={"cdim": 2, "kaehler": True, "hermitian":
                [["1 + x3", "0"], ["0", "1"]]},
        map={"components": ["i*(x1 + x2) + x3 + x4", "i*(x1 + x2) + x3 + x4"]},
        checks=["phwc"],
        sample={"count": 3, "seed": 1, "box": [[-1, 1]] * 4},
    ))
    with pytest.raises(ValidationError) as err:
        run_checks(raw)
    assert "target.kaehler" in str(err.value)


def test_an_infinite_metric_fails_every_record():
    # g_11 = 1e200*x1*1e200 is inf on the box; its NaN eigenvalues and the
    # g^-1 = diag(0, 1) they let through used to pass all four records
    report = run_checks(parse_manifest(manifest_text(
        domain={"dim": 2, "metric": [["1e200*x1*1e200", "0"], ["0", "1"]]},
        map={"components": ["x1"]}, checks=["phwc", "commutator"],
        sample={"count": 2, "seed": 1, "box": [[1, 2], [0, 1]]})))
    assert len(report["records"]) == 4
    assert all(rec["error"].startswith("MetricNotSPD")
               for rec in report["records"])


def test_a_kaehler_residual_that_is_nan_fails_the_gate():
    # the residual is NaN at 4 of the 6 images, and the other 2 overflow;
    # the suite makes a RuntimeWarning an error, so the gate runs in errstate
    raw = parse_manifest(manifest_text(
        target={"cdim": 1, "kaehler": True, "hermitian":
                [["2 + 0*(x1*1000)^150 + x2*1e200*x2*1e200"]]},
        checks=["phwc"],
        sample={"count": 6, "seed": 3, "box": [[0, 0.2], [0.5, 1]]}))
    with pytest.raises(ValidationError, match="residual is nan"):
        run_checks(raw)


# --------------------------------------------------------------------------
# report emission
# --------------------------------------------------------------------------

def test_empty_report_is_valid_json():
    report = {"schema": 1, "provenance": {"manifest_sha256": "0", "seed": 0,
                                          "tool_version": "0"},
              "records": [], "summaries": []}
    data = emit_report(report)
    parsed = json.loads(data)
    assert parsed["records"] == []


def test_json_roundtrip_byte_identical():
    raw = parse_manifest(manifest_text())
    report = run_checks(raw)
    first = emit_report(report)
    again = emit_report(json.loads(first))
    assert first == again


def test_table_contains_every_record():
    raw = parse_manifest(json.dumps(BUILTIN_MANIFESTS["example1"]))
    report = run_checks(raw)
    table = emit_report(report, "table").decode()
    data_lines = [ln for ln in table.splitlines()
                  if ln.strip().startswith(tuple({r["check"] for r in report["records"]}))]
    assert len(data_lines) >= len(report["records"])


def test_summaries_recomputable():
    raw = parse_manifest(manifest_text())
    report = run_checks(raw)
    assert summarize(report["records"]) == report["summaries"]


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def test_main_check_builtin(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["check", "example1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2

    failing = tmp_path / "failing.json"
    failing.write_text(manifest_text(
        map={"components": ["x1"]}, checks=["phwc"]))
    assert main(["check", str(failing), "--out", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("text, field", [
    ("{not json", "not a JSON report"),
    (b"\xff\xfe{", "not a JSON report"),
    ('{"schema": 1}', "records"),
    ('{"records": [{"check": "phwc", "pass": true}], "summaries": []}',
     "records[0].tol"),
    ('{"records": [{"tol": 1.0, "pass": true}], "summaries": []}',
     "records[0].check"),
    ('{"records": [{"check": "phwc", "tol": 1.0}], "summaries": []}',
     "records[0].pass"),
    ('{"records": []}', "summaries"),
    ('{"records": [], "summaries": [], "provenance": []}', "provenance"),
    ('{"records": [{"check": "phwc", "tol": 1.0, "pass": true, "value": "x"}],'
     ' "summaries": []}', "records[0].value"),
    ('{"records": [{"check": "phwc", "tol": 1.0, "pass": true, "value": 1'
     + "0" * 400 + '}], "summaries": []}', "records[0].value"),
    ('{"records": [{"check": "phwc", "tol": true, "pass": true}],'
     ' "summaries": []}', "records[0].tol"),
    ('{"records": [{"check": "phwc", "tol": 1.0, "pass": true, "point": "x"}],'
     ' "summaries": []}', "records[0].point"),
    ('{"records": [{"check": "phwc", "tol": 1.0, "pass": true,'
     ' "point": [1, "a"]}], "summaries": []}', "records[0].point"),
    ('{"records": [{"check": "phwc", "tol": 1.0, "pass": true, "extra": []}],'
     ' "summaries": []}', "records[0].extra"),
    ('{"records": [], "summaries": [3]}', "summaries[0].check"),
    ('{"records": [], "summaries": [{"check": "phwc", "count": 1,'
     ' "failures": 0}]}', "summaries[0].max"),
    ('{"records": [], "summaries": [{"check": "phwc", "count": 1,'
     ' "failures": 0, "max": "x"}]}', "summaries[0].max"),
    ('{"records": [], "summaries": [{"check": "phwc", "count": "1",'
     ' "failures": 0, "max": null}]}', "summaries[0].count"),
])
def test_main_report_of_a_malformed_file_exits_2(tmp_path, capsys, text,
                                                 field):
    bad = tmp_path / "bad.json"
    if isinstance(text, bytes):
        bad.write_bytes(text)
    else:
        bad.write_text(text)
    assert main(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("command", ["check", "sweep", "flow", "report"])
@pytest.mark.parametrize("kind", ["binary", "directory", "missing"])
def test_unreadable_path_exits_2_and_names_it(tmp_path, capsys, command,
                                              kind):
    path = tmp_path / "manifest.json"
    if kind == "binary":
        path.write_bytes(b'{"domain": "\xff\xfe"}')
    elif kind == "directory":
        path.mkdir()
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("command", [
    ["check", "example1"], ["sweep", "example2", "--points", "2"],
    ["flow", str(MANIFESTS / "flow_demo.json")],
    ["verify-paper", "--seed", "1"], ["report"]])
def test_out_naming_a_directory_exits_2_and_names_it(tmp_path, capsys,
                                                     command):
    if command == ["report"]:
        stored = tmp_path / "rep.json"
        assert main(["check", "example1", "--out", str(stored)]) == 0
        command = ["report", str(stored)]
    out = tmp_path / "out"
    out.mkdir()
    assert main([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_main_report_of_a_stored_non_finite_number_exits_2(tmp_path, capsys):
    for number in ("NaN", "Infinity", "1e400"):
        bad = tmp_path / "bad.json"
        bad.write_text('{"records": [{"check": "phwc", "tol": 1.0, '
                       f'"pass": true, "value": {number}}}], "summaries": []}}')
        assert main(["report", str(bad), "--format", "json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a JSON report" in err


def test_main_report_roundtrip(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["check", "example1", "--out", str(out)]) == 0
    assert main(["report", str(out), "--format", "table",
                 "--out", str(tmp_path / "rep.txt")]) == 0
    text = (tmp_path / "rep.txt").read_text()
    assert "hwc" in text and "pass" in text


def test_flow_manifest(tmp_path):
    raw = parse_manifest(json.dumps({
        "domain": {"dim": 2, "metric": "euclidean"},
        "target": {"cdim": 1, "hermitian": "flat", "kaehler": True},
        "map": {"components": ["x1 + i*x2"]},
        "checks": [],
        "sample": {"count": 0},
        "flow": {"grid": [16, 16], "dt": 0.01, "max_steps": 4000,
                 "stop_tol": 1e-5,
                 "initial": ["0.3*cos(x1) + 0.1*i*sin(x2)"],
                 "snapshot": str(tmp_path / "snap.txt")},
    }))
    report = run_flow_manifest(raw)
    rec = report["records"][0]
    assert rec["pass"]
    assert rec["extra"]["final_energy"] <= rec["extra"]["initial_energy"]
    assert (tmp_path / "snap.txt").exists()


def flow_manifest(hermitian, initial):
    return {
        "domain": {"dim": 2, "metric": "euclidean"},
        "target": {"cdim": 1, "hermitian": hermitian, "kaehler": True},
        "map": {"components": ["x1"]},
        "flow": {"grid": [8, 8], "dt": 0.01, "initial": [initial]},
    }


@pytest.mark.parametrize("hermitian, initial, error", [
    ([["1/re(x1)"]], "sin(x1)", "DivisionNearZero"),
    ([["1 - re(x1)^2"]], "2*sin(x1)", "MetricNotPD"),
    # finite at every node, but 2*u overflows in the Laplacian
    ("flat", "1e308 + 0.1*cos(x1)", "FloatingPointError"),
])
def test_flow_operation_error_is_a_failed_record(tmp_path, hermitian,
                                                 initial, error):
    raw = flow_manifest(hermitian, initial)
    report = run_flow_manifest(parse_manifest(json.dumps(raw)))
    (rec,) = report["records"]
    assert rec["check"] == "flow" and not rec["pass"]
    assert rec["error"].startswith(f"{error}: ")
    assert "value" not in rec
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(raw))
    assert main(["flow", str(path), "--out", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("initial", ["exp(800*sin(x1))", "1/sin(x1)"])
def test_non_finite_flow_initial_is_a_validation_error(tmp_path, initial):
    raw = flow_manifest("flat", initial)
    with pytest.raises(ValidationError) as err:
        run_flow_manifest(parse_manifest(json.dumps(raw)))
    assert err.value.field == "flow.initial"
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(raw))
    assert main(["flow", str(path)]) == 2


def test_unstable_flow_dt_is_a_validation_error(tmp_path):
    raw = json.loads((MANIFESTS / "flow_demo.json").read_text())
    raw["flow"]["dt"] = 0.5
    with pytest.raises(ValidationError) as err:
        parse_manifest(json.dumps(raw))
    assert err.value.field == "flow.dt"
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(raw))
    assert main(["flow", str(path)]) == 2


def out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("args, field", [
    (["--points", "1000000000000"], "--points"),
    ([], "sample.count"),
])
def test_a_sample_too_large_to_allocate_exits_2(monkeypatch, capsys, args,
                                                field):
    monkeypatch.setattr(catalog, "sample_points", out_of_memory)
    assert main(["check", "example1", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err


def test_a_flow_grid_too_large_to_allocate_exits_2(monkeypatch, capsys,
                                                   tmp_path):
    raw = flow_manifest("flat", "sin(x1)")
    raw["flow"].update(grid=[1000000, 1000000], dt=1e-15)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(np, "meshgrid", out_of_memory)
    assert main(["flow", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: flow.grid: ") and "Traceback" not in err


@pytest.mark.parametrize("command, field", [("check", "--points"),
                                            ("flow", "flow.grid")])
def test_a_size_beyond_numpy_exits_2(tmp_path, capsys, command, field):
    # numpy refuses these sizes with a ValueError before allocating
    raw = flow_manifest("flat", "sin(x1)")
    raw["flow"].update(grid=[10**30, 4], dt=1e-70)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    args = ["--points", str(10**30)] if command == "check" else []
    assert main([command, str(path), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err


@pytest.mark.parametrize("field, block, value, args", [
    ("flow.max_steps", "flow", "x", []),
    ("flow.stop_tol", "flow", None, []),
    ("flow.dt", "flow", "x", []),
    ("flow.snapshot", "flow", 1, []),
    ("flow.snapshot", "flow", "<tmp_path>", []),   # a directory
    ("sample.box", "sample", [["a", "b"], [0, 1]], []),
    ("sample.box", "sample", [[0, 1e400], [0, 1]], []),
    ("sample.box", "sample", [[-1.7e308, 1.7e308], [0, 1]], []),
    ("--tol", None, None, ["--tol", "phwc=abc"]),
    ("--tol", None, None, ["--tol", "phwc=nan"]),
    ("--tol", None, None, ["--tol", "phwc=inf"]),
    ("--seed", None, None, ["--seed", "-1"]),
    ("--points", None, None, ["--points", "-3"]),
    ("checks[0].tol", "checks", math.nan, []),
    ("checks[0].tol", "checks", math.inf, []),
    ("checks[0].tol", "checks", True, []),
    ("sample.seed", "sample", True, []),
    ("sample.seed", "sample", -1, []),
    ("sample.count", "sample", True, []),
    ("domain.dim", "domain", True, []),
    ("target.cdim", "target", True, []),
    ("checks[0].rank", "checks", "2", []),
    ("checks[0].rank", "checks", True, []),
    ("checks[0].rank", "checks", -1, []),
    ("checks[0].rank", "checks", 2.0, []),
    ("checks[0].rank", "checks", None, []),
    # a rank on a check other than fstructure is not ignored
    ("checks[0].rank", "checks", {"name": "phwc", "rank": 5}, []),
    # a key no block knows, a misspelt one above all, is refused
    ("flow.max_step", "flow", 3, []),
    ("checks[0].tols", "checks", 1e-3, []),
    ("domain.metrc", "domain", "euclidean", []),
    ("target.kahler", "target", True, []),
    ("map.component", "map", ["x1"], []),
    ("sample.counts", "sample", 5, []),
    ("flwo", "$", {"grid": [8, 8]}, []),
    # a metric of 10**6 x 10**6 trees is never built
    ("domain.dim", "domain", 10**6, []),
    ("target.cdim", "target", 10**6, []),
])
def test_invalid_field_exits_2_and_names_it(tmp_path, capsys, field, block,
                                            value, args):
    if block == "flow":
        raw = flow_manifest("flat", "sin(x1)")
        raw["flow"]["max_steps"] = 5
    else:
        raw = json.loads(manifest_text())
    if block == "checks":
        raw["checks"][0] = value if isinstance(value, dict) else {
            "name": "fstructure", field.split(".")[1]: value}
    elif block == "$":
        raw[field] = value
    elif block is not None:
        key = field.split(".")[1]
        raw[block][key] = str(tmp_path) if value == "<tmp_path>" else value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(raw))
    command = "flow" if block == "flow" else "check"
    assert main([command, str(path), *args]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("command", ["check", "sweep"])
def test_no_points_for_checks_exits_2_naming_points(capsys, command):
    # the rule of sample.count 0 holds for its override too
    assert main([command, "example1", "--points", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: --points: ")


def test_sweep_uses_larger_sample(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["sweep", "example1", "--points", "12",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    points = {rec["point_index"] for rec in report["records"]}
    assert len(points) == 12


# --------------------------------------------------------------------------
# the full verification bundle
# --------------------------------------------------------------------------

def test_verify_paper_deterministic_and_green():
    a = verify_paper(seed=42)
    b = verify_paper(seed=42)
    assert emit_report(a) == emit_report(b)
    assert all(rec["pass"] for rec in a["records"])
    checks = {rec["check"] for rec in a["records"]}
    assert {"pullback_holomorphic_laplacian", "composition_phwc",
            "phwc_equivalence_gap", "theorem_counterexamples",
            "forged_kaehler_control"} <= checks
