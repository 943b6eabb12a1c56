"""The sections of the verify-paper bundle, one per group of the paper's
claims: pullbacks, composition with holomorphic maps, the equivalent PHWC
conditions and the f-structure harmonicity theorems.

Each section is ``section(rng) -> list[record]``: it draws what it needs
from the bundle's one generator and returns its records, each a residual
with its tolerance and verdict.  SECTIONS lists them in the order they
draw, so the records depend on the seed alone.
"""

from __future__ import annotations

import numpy as np

from . import catalog, jet
from .fstruct import SuiteSample, theorem_suite, verdict
from .geometry import HermitianMetricField, MetricField, share_metric
from .maps import (PointData, SmoothMap, compose, differential, hwc_report,
                   isotropy_residual, phwc_residual_commutator,
                   phwc_residual_coord, share_differential, tension)

# the paper's two examples and their domain metrics, which keep no cache
EX1 = catalog.immersion_r2_c3()
EX2 = catalog.linear_r4_c2()
G2, G4 = MetricField.euclidean(2), MetricField.euclidean(4)


def record(name, value, tol, negate=False, extra=None) -> dict:
    """A bundle record: one residual, its tolerance and its verdict."""
    rec = {"point": None, "check": name, "value": float(value),
           "tol": float(tol), "negate": bool(negate),
           "pass": verdict(value, tol, negate)}
    if extra:
        rec["extra"] = extra
    return rec


def _composite(rng, idx: int):
    """The idx-th holomorphic composite, after ex1 or ex2, and its metric."""
    base, g, nin = (EX1, G2, 3) if idx % 2 == 0 else (EX2, G4, 2)
    return compose(catalog.random_holomorphic_map(rng, nin, 2), base), g


def pullbacks(rng) -> list:
    """Pullbacks of +/-holomorphic and pluriharmonic functions through the
    immersion: harmonic, and the holomorphic ones horizontally conformal."""
    h1 = HermitianMetricField.flat(1)
    worst_lap = worst_hwc = worst_pluri_lap = 0.0
    for _ in range(20):
        f = SmoothMap(6, 1, [catalog.holomorphic_polynomial(rng, 3)])
        pulled = compose(f, EX1)
        fr = SmoothMap(6, 1, [jet.re(catalog.holomorphic_polynomial(rng, 3))
                              + jet.re(catalog.holomorphic_polynomial(rng, 3))
                              * jet.Const(rng.uniform(-1, 1))])
        pulled_r = compose(fr, EX1)
        pd = PointData(pulled, G2,
                       catalog.sample_points(rng, 50, [[-1, 1]] * 2), h1)
        # phi and the pluriharmonic function share one pass of their jets
        both = differential(SmoothMap(2, 2, [*pulled.components,
                                             *pulled_r.components]), pd.p)
        pd.diff, dr = both[:, :1], both[:, 1:]
        lap = pd.laplacian(pd.diff.grad[:, 0], pd.diff.second[:, 0])
        worst_lap = max(worst_lap, np.max(np.abs(lap.real)),
                        np.max(np.abs(lap.imag)))
        worst_hwc = max(worst_hwc, np.max(hwc_report(pd).defect))
        worst_pluri_lap = max(worst_pluri_lap, np.max(np.abs(
            pd.laplacian(dr.grad[:, 0], dr.second[:, 0]).real)))
    return [record("pullback_holomorphic_laplacian", worst_lap, 1e-9),
            record("pullback_holomorphic_hwc", worst_hwc, 1e-9),
            record("pullback_pluriharmonic_laplacian", worst_pluri_lap, 1e-9)]


def composition(rng) -> list:
    """Composition with holomorphic maps preserves PHWC and harmonicity;
    composition with z + conj(z) does not preserve PHWC."""
    worst_phwc = worst_tension = 0.0
    for idx in range(20):
        comp, g = _composite(rng, idx)
        points = catalog.sample_points(rng, 50, [[-1, 1]] * comp.domain_dim)
        pd = PointData(comp, g, points, HermitianMetricField.flat(2))
        worst_phwc = max(worst_phwc, np.max(phwc_residual_coord(pd)))
        worst_tension = max(worst_tension,
                            np.max(tension(pd).harmonic_residual))
    control = compose(SmoothMap(6, 1, [catalog.zvar(0)
                                       + jet.conj(catalog.zvar(0))]), EX1)
    control_val = np.min(phwc_residual_coord(PointData(
        control, G2, catalog.sample_points(rng, 10, [[-1, 1]] * 2))))
    return [record("composition_phwc", worst_phwc, 1e-10),
            record("composition_tension", worst_tension, 1e-9),
            record("composition_nonholomorphic_control", control_val, 1e-3,
                   negate=True)]


def equivalence(rng) -> list:
    """Records of the three PHWC formulations agreeing at 200 random
    (phi, g, h, point) cases.

    Every case is drawn first.  Then each map that several cases share
    (ex1, ex2) makes one first-order pass over their points, every other
    map one at its point; g2, g4 and the random metrics of each dimension
    make one stacked pass each over their cases (share_metric).  The
    residuals are then read case by case."""
    flat = {n: HermitianMetricField.flat(n) for n in (1, 2, 3)}
    cases, by_metric = [], {}
    for _ in range(200):
        if rng.random() < 0.5:
            idx = int(rng.integers(3))
            if idx == 0:
                phi, g, h = EX1, G2, flat[3]
            elif idx == 1:
                phi, g, h = EX2, G4, flat[2]
            else:
                psi = catalog.random_holomorphic_map(rng, 3, 2)
                phi, g, h = compose(psi, EX1), G2, flat[2]
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
    return [record("phwc_equivalence_gap", gap, 1e-12),
            record("phwc_equivalence_iff_violations", iff_violations, 0.0)]


def theorems(rng) -> list:
    """The theorem-implication harness over the examples and holomorphic
    composites, then over a non-Kaehler target flagged Kaehler, whose
    forged flag the harness must report."""
    samples = [
        SuiteSample("immersion_c3", EX1, G2, HermitianMetricField.flat(3),
                    catalog.sample_points(rng, 5, [[-1, 1]] * 2)),
        SuiteSample("linear_c2", EX2, G4, HermitianMetricField.flat(2),
                    catalog.sample_points(rng, 5, [[-1, 1]] * 4)),
    ]
    for idx in range(10):
        comp, g = _composite(rng, idx)
        samples.append(SuiteSample(
            f"composite_{idx}", comp, g, HermitianMetricField.flat(2),
            catalog.sample_points(rng, 3, [[-1, 1]] * comp.domain_dim)))
    suite = theorem_suite(samples)

    forged = catalog.non_kaehler_hermitian_c2()
    forged.kaehler = True
    forged_suite = theorem_suite([SuiteSample(
        "forged_flag", EX2, G4, forged,
        catalog.sample_points(rng, 3, [[-1, 1]] * 4))])
    return [record("theorem_counterexamples", float(suite.counterexamples),
                   0.0, extra={"checked": suite.checked,
                               "skipped": suite.skipped}),
            record("forged_kaehler_control",
                   float(forged_suite.counterexamples), 0.0, negate=True)]


SECTIONS = (pullbacks, composition, equivalence, theorems)
