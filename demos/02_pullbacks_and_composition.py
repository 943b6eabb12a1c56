"""Pseudo harmonic morphisms seen through test functions.

A harmonic PHWC map into a Kaehler chart pulls local +/-holomorphic and
pluriharmonic functions back to harmonic functions, and composing it with a
holomorphic map yields another harmonic PHWC map.  This script samples both
statements with random polynomial test data, then breaks the hypothesis on
purpose to show the residuals react.

Run:  python demos/02_pullbacks_and_composition.py
"""

import numpy as np

from phwc import (
    HermitianMetricField,
    MetricField,
    PointData,
    SmoothMap,
    compose,
    conj,
    hwc_report,
    laplace_beltrami,
    phwc_residual_coord,
    re,
    tension,
)
from phwc.catalog import (
    holomorphic_polynomial,
    immersion_r2_c3,
    random_holomorphic_map,
    sample_points,
    zvar,
)

rng = np.random.default_rng(2)
phi = immersion_r2_c3()
g2 = MetricField.euclidean(2)
h1 = HermitianMetricField.flat(1)

print("== pullbacks of holomorphic test functions")
worst_lap, worst_defect = 0.0, 0.0
for _ in range(10):
    f = SmoothMap(6, 1, [holomorphic_polynomial(rng, 3)])
    pulled = compose(f, phi)
    for p in sample_points(rng, 20, [[-1, 1]] * 2):
        pd = PointData(pulled, g2, p, h1)   # g and its Christoffels once
        worst_lap = max(worst_lap,
                        abs(laplace_beltrami(re(pulled.components[0]), pd)))
        worst_defect = max(worst_defect, hwc_report(pd).defect)
print(f"  max |Laplacian| of re(f o phi): {worst_lap:.2e}")
print(f"  max HWC defect of f o phi:      {worst_defect:.2e}  "
      "(pullbacks are full harmonic morphisms)\n")

print("== composition with holomorphic maps")
from phwc import holomorphy_residual

psi = random_holomorphic_map(rng, 3, 2)
comp = compose(psi, phi)
hk = HermitianMetricField.flat(2)
zs = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
print(f"  holomorphy residual of psi (reported alongside the composite): "
      f"{holomorphy_residual(psi, zs):.2e}")
worst = 0.0
for p in sample_points(rng, 50, [[-1, 1]] * 2):
    pd = PointData(comp, g2, p, hk)
    worst = max(worst, phwc_residual_coord(pd), tension(pd).harmonic_residual)
print(f"  psi o phi stays a pseudo harmonic morphism: worst residual "
      f"{worst:.2e}\n")

print("== and with a non-holomorphic map, for contrast")
bad = compose(SmoothMap(6, 1, [zvar(0) + conj(zvar(0))]), phi)
vals = [phwc_residual_coord(PointData(bad, g2, p))
        for p in sample_points(rng, 5, [[-1, 1]] * 2)]
print(f"  (w1 + conj w1) o phi: PHWC residual {min(vals):.2f} at every "
      "sampled point -- the hypothesis matters")
