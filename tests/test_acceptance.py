"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Tolerances are pinned here and nowhere else; every expected value
is either a regression pin of the built-in examples or computed by an
independent oracle inside the test.
"""

import json

import numpy as np

from phwc import catalog, fstruct
from phwc.cli import emit_report, verify_paper
from phwc.flow import FlowConfig, GridMap, grid_to_smooth_map, run_flow
from phwc.fstruct import (
    CheckPoint,
    SuiteSample,
    associated_f_structure,
    dphi_kernel_residual,
    theorem_suite,
)
from phwc.geometry import (
    HermitianMetricField,
    MetricField,
    MetricPoint,
    laplace_beltrami,
)
from phwc.jet import Const, DivisionNearZero, eval_jet2, im, re
from phwc.maps import (
    PointData,
    SmoothMap,
    compose,
    differential,
    hwc_report,
    isotropy_residual,
    phwc_residual_commutator,
    phwc_residual_coord,
    tension,
)

EX1 = catalog.immersion_r2_c3()
EX2 = catalog.linear_r4_c2()
G2 = MetricField.euclidean(2)
G4 = MetricField.euclidean(4)
H3 = HermitianMetricField.flat(3)
H2 = HermitianMetricField.flat(2)
H1 = HermitianMetricField.flat(1)


def verdict(num, description, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"acceptance criterion {num} failed: {description}"


def orth(a, tol=1e-10):
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if len(s) == 0:
        return u[:, :0]
    return u[:, s > tol * max(1.0, s[0])]


def principal_angle(a, b):
    qa, qb = orth(a), orth(b)
    if qa.shape[1] != qb.shape[1]:
        return np.pi / 2
    if qa.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(qb - qa @ (np.conj(qa.T) @ qb), 2))


def test_criterion_1_immersion_example():
    rng = np.random.default_rng(101)
    points = catalog.sample_points(rng, 100, [[-2, 2]] * 2)
    pds = [PointData(EX1, G2, p, H3) for p in points]
    worst_phwc = max(phwc_residual_coord(pd) for pd in pds)
    worst_tension = max(tension(pd).harmonic_residual for pd in pds)
    min_defect = min(hwc_report(pd).defect for pd in pds)
    verdict(1, "R^2 -> C^3 immersion: PHWC<=1e-12, tension<=1e-12, "
               "HWC defect>0.5 at 100 points",
            worst_phwc <= 1e-12 and worst_tension <= 1e-12
            and min_defect > 0.5)


def test_criterion_2_linear_r4_example():
    rng = np.random.default_rng(102)
    points = catalog.sample_points(rng, 100, [[-2, 2]] * 4)
    pts = [CheckPoint(EX2, G4, p, H2) for p in points]
    worst_phwc = max(phwc_residual_coord(pt) for pt in pts)
    worst_tension = max(tension(pt).harmonic_residual for pt in pts)
    min_defect = min(hwc_report(pt).defect for pt in pts)
    ranks = {pt.fp.rank for pt in pts}
    worst_kernel = max(dphi_kernel_residual(pt) for pt in pts)
    verdict(2, "R^4 -> C^2 linear map: PHWC<=1e-12, tension<=1e-12, "
               "HWC defect>=1, rank 2, |dphi Pzero|<=1e-10 at 100 points",
            worst_phwc <= 1e-12 and worst_tension <= 1e-12
            and min_defect >= 1.0 and ranks == {2} and worst_kernel <= 1e-10)


def _random_triples(rng, count):
    """Mix of exactly-PHWC maps and generic maps with random metrics."""
    for _ in range(count):
        if rng.random() < 0.5:
            idx = int(rng.integers(3))
            if idx == 0:
                phi, g, h = EX1, G2, H3
            elif idx == 1:
                phi, g, h = EX2, G4, H2
            else:
                psi = catalog.random_holomorphic_map(rng, 3, 2)
                phi, g, h = compose(psi, EX1), G2, H2
        else:
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            phi = catalog.random_polynomial_map(rng, m, n)
            g = catalog.random_polynomial_metric(rng, m)
            h = HermitianMetricField.flat(n)
        yield phi, g, h, rng.uniform(-1, 1, phi.domain_dim)


def test_criterion_3_phwc_equivalence():
    rng = np.random.default_rng(103)
    worst_gap = 0.0
    iff_ok = True
    for phi, g, h, p in _random_triples(rng, 200):
        pd = PointData(phi, g, p, h)
        coord = phwc_residual_coord(pd)
        iso = isotropy_residual(pd)
        comm = phwc_residual_commutator(pd)
        worst_gap = max(worst_gap, abs(coord - iso))
        if (coord <= 1e-10) != (comm <= 1e-8):
            iff_ok = False
        if (iso <= 1e-10) != (comm <= 1e-8):
            iff_ok = False
    verdict(3, "coordinate/isotropy residuals agree to 1e-12 and vanish "
               "iff the commutator does (1e-8) over 200 triples",
            worst_gap <= 1e-12 and iff_ok)


def test_criterion_4_composition_suite():
    rng = np.random.default_rng(104)
    worst_phwc = worst_tension = 0.0
    for idx in range(20):
        base, g, nin = (EX1, G2, 3) if idx % 2 == 0 else (EX2, G4, 2)
        psi = catalog.random_holomorphic_map(rng, nin, 2)
        comp = compose(psi, base)
        for p in catalog.sample_points(rng, 50, [[-1, 1]] * base.domain_dim):
            pd = PointData(comp, g, p, H2)
            worst_phwc = max(worst_phwc, phwc_residual_coord(pd))
            worst_tension = max(worst_tension, tension(pd).harmonic_residual)
    # non-holomorphic control: w1 + conj(w1) through the immersion
    from phwc.jet import conj as jconj
    control = compose(SmoothMap(6, 1, [catalog.zvar(0) + jconj(catalog.zvar(0))]),
                      EX1)
    control_min = min(phwc_residual_coord(PointData(control, G2, p))
                      for p in catalog.sample_points(rng, 20, [[-1, 1]] * 2))
    verdict(4, "20 holomorphic composites: PHWC<=1e-10, tension<=1e-9 at 50 "
               "points each; non-holomorphic control PHWC>1e-3",
            worst_phwc <= 1e-10 and worst_tension <= 1e-9
            and control_min > 1e-3)


def test_criterion_5_pullback_suite():
    rng = np.random.default_rng(105)
    worst_lap = worst_hwc = 0.0
    for _ in range(20):
        f = SmoothMap(6, 1, [catalog.holomorphic_polynomial(rng, 3)])
        pulled = compose(f, EX1)
        for p in catalog.sample_points(rng, 50, [[-1, 1]] * 2):
            pd = PointData(pulled, G2, p, H1)
            for part in (re(pulled.components[0]), im(pulled.components[0])):
                worst_lap = max(worst_lap, abs(laplace_beltrami(part, pd)))
            worst_hwc = max(worst_hwc, hwc_report(pd).defect)
    worst_pluri = 0.0
    for _ in range(20):
        f = SmoothMap(6, 1, [re(catalog.holomorphic_polynomial(rng, 3))
                             + Const(rng.uniform(-1, 1))
                             * re(catalog.holomorphic_polynomial(rng, 3))])
        pulled = compose(f, EX1)
        for p in catalog.sample_points(rng, 50, [[-1, 1]] * 2):
            worst_pluri = max(worst_pluri, abs(laplace_beltrami(
                pulled.components[0], MetricPoint(G2, p))))
    verdict(5, "pullbacks through the immersion: |Laplacian|<=1e-9 for 20 "
               "holomorphic and 20 pluriharmonic functions; holomorphic "
               "pullbacks have HWC defect<=1e-9",
            worst_lap <= 1e-9 and worst_pluri <= 1e-9 and worst_hwc <= 1e-9)


def test_criterion_6_f_structure_algebra():
    rng = np.random.default_rng(106)
    worst_algebra = worst_isotropy = worst_angle = 0.0
    cases = [(EX1, G2), (EX2, G4)]
    for idx in range(16):
        base, g = cases[idx % 2]
        psi = catalog.random_holomorphic_map(rng, base.target_cdim, 2)
        cases.append((compose(psi, base), g))
    for phi, g in cases:
        for _ in range(4):
            p = rng.uniform(-1, 1, phi.domain_dim)
            fp = associated_f_structure(PointData(phi, g, p))
            worst_algebra = max(worst_algebra, fp.algebra_residual())
            gm = g.matrix(p)
            w, vecs = np.linalg.eig(fp.F)
            ker_plus = vecs[:, np.abs(w - 1j) < 1e-6]
            ker_minus = vecs[:, np.abs(w + 1j) < 1e-6]
            worst_isotropy = max(worst_isotropy, float(np.max(np.abs(
                ker_plus.T @ gm @ ker_plus))) if ker_plus.size else 0.0)
            v = np.linalg.inv(gm) @ differential(phi, p).grad.T
            # the isotropic span generating F sits in the -i tangent
            # eigenspace (+i on covectors); its conjugate in the +i one
            worst_angle = max(worst_angle, principal_angle(ker_minus, v))
            worst_angle = max(worst_angle,
                              principal_angle(ker_plus, np.conj(v)))
    verdict(6, "f-structure algebra residuals<=1e-10 and eigenspace round "
               "trip (isotropy<=1e-10, principal angles<=1e-8) on the suite",
            worst_algebra <= 1e-10 and worst_isotropy <= 1e-10
            and worst_angle <= 1e-8)


def test_criterion_7_theorem_suites():
    rng = np.random.default_rng(107)
    samples = [
        SuiteSample("immersion_c3", EX1, G2, H3,
                    catalog.sample_points(rng, 5, [[-1, 1]] * 2)),
        SuiteSample("linear_c2", EX2, G4, H2,
                    catalog.sample_points(rng, 5, [[-1, 1]] * 4)),
    ]
    for idx in range(20):
        base, g, nin = (EX1, G2, 3) if idx % 2 == 0 else (EX2, G4, 2)
        psi = catalog.random_holomorphic_map(rng, nin, 2)
        samples.append(SuiteSample(
            f"composite_{idx}", compose(psi, base), g, H2,
            catalog.sample_points(rng, 3, [[-1, 1]] * base.domain_dim)))
    assert (fstruct.SUITE_EPS, fstruct.SUITE_DELTA) == (1e-8, 1e-6)
    honest = theorem_suite(samples)

    forged = catalog.non_kaehler_hermitian_c2()
    forged.kaehler = True
    control = theorem_suite([SuiteSample(
        "forged_flag", EX2, G4, forged,
        catalog.sample_points(rng, 3, [[-1, 1]] * 4))])
    verdict(7, "theorem implications: zero counterexamples (eps=1e-8, "
               "delta=1e-6); forged Kaehler flag control reports >=1",
            honest.counterexamples == 0 and honest.checked >= 50
            and control.counterexamples >= 1)


def test_criterion_8_ad_soundness():
    from test_jet import fd_jet, random_expr

    rng = np.random.default_rng(108)
    ok = True
    checked = 0
    while checked < 100:
        e = random_expr(rng, 3, 3)
        p = rng.uniform(-1.2, 1.2, size=3)
        try:
            j = eval_jet2(e, p)
            grad, hess = fd_jet(e, p)
        except DivisionNearZero:
            continue
        scale_g = max(1.0, float(np.max(np.abs(grad))))
        scale_h = max(1.0, float(np.max(np.abs(hess))))
        if scale_g > 1e3 or scale_h > 1e3:
            continue
        if (np.max(np.abs(j.grad - grad)) / scale_g > 1e-6
                or np.max(np.abs(j.hess - hess)) / scale_h > 1e-6):
            ok = False
        checked += 1
    verdict(8, "jet gradients/Hessians match central differences to 1e-6 "
               "over 100 random expressions", ok)


def test_criterion_9_flow():
    # single-mode decay against the exact heat solution
    u0 = GridMap.from_function((64, 64), lambda x, y: np.exp(1j * x))
    final, trace = run_flow(u0, H1, FlowConfig(dt=1e-3, max_steps=300,
                                               stop_tol=0.0))
    steps = np.array([t[0] for t in trace], dtype=float)
    energies = np.array([t[1] for t in trace])
    slope = np.polyfit(steps * 1e-3, np.log(energies), 1)[0]
    exponent_ok = abs(slope + 2.0) <= 0.1
    monotone_ok = bool(np.all(np.diff(energies) <= 1e-12))

    # converged perturbed flow passes the smooth tension check
    rng = np.random.default_rng(109)
    n = 8
    j1, j2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    x1, x2 = 2 * np.pi * j1 / n, 2 * np.pi * j2 / n
    vals = np.full((n, n), 0.5 + 0.1j)
    for k in [(1, 0), (0, 1), (1, 1)]:
        c = 0.05 * (rng.standard_normal() + 1j * rng.standard_normal())
        vals = vals + c * np.exp(1j * (k[0] * x1 + k[1] * x2))
    stop_tol = 1e-6
    converged, trace2 = run_flow(GridMap(vals[..., None]), H1,
                                 FlowConfig(dt=2e-2, max_steps=20000,
                                            stop_tol=stop_tol))
    smooth = grid_to_smooth_map(converged)
    worst = max(tension(PointData(smooth, G2, rng.uniform(0, 2 * np.pi, 2),
                                  H1)).harmonic_residual for _ in range(20))
    verdict(9, "flow: energy exponent -2 +/- 5%, monotone energy, converged "
               "map harmonic within 10*stop_tol",
            exponent_ok and monotone_ok and trace2[-1][2] < stop_tol
            and worst <= 10 * stop_tol)


def test_criterion_10_determinism():
    a = emit_report(verify_paper(seed=42))
    b = emit_report(verify_paper(seed=42))
    all_green = all(rec["pass"] for rec in json.loads(a)["records"])
    verdict(10, "verify-paper --seed 42 twice produces byte-identical green "
                "JSON reports", a == b and all_green)
