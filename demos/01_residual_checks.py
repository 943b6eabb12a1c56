"""Walk through the pointwise residual checks on the two built-in maps.

The first map sends R^2 into C^3 with every component x1 + i x2: it is
harmonic and satisfies the pseudo horizontal weak conformality (PHWC)
condition -- each Gram entry is 1^2 + i^2 = 0 -- yet as an immersion into a
higher-dimensional target it cannot be horizontally weakly conformal.  The
second sends R^4 into C^2 linearly; its Gram entries are i^2 + i^2 + 1 + 1,
again zero, while the induced inner products on the horizontal space rule
out any conformality factor.

Run:  python demos/01_residual_checks.py
"""

import numpy as np

from phwc import (
    HermitianMetricField,
    MetricField,
    PointData,
    hwc_report,
    isotropy_residual,
    phwc_residual_commutator,
    phwc_residual_coord,
    tension,
)
from phwc.catalog import immersion_r2_c3, linear_r4_c2, sample_points

rng = np.random.default_rng(1)

for name, phi, g, h, box in [
    ("immersion R^2 -> C^3", immersion_r2_c3(), MetricField.euclidean(2),
     HermitianMetricField.flat(3), [[-2, 2]] * 2),
    ("linear map R^4 -> C^2", linear_r4_c2(), MetricField.euclidean(4),
     HermitianMetricField.flat(2), [[-2, 2]] * 4),
]:
    print(f"== {name}")
    points = sample_points(rng, 5, box)
    for p in points:
        pd = PointData(phi, g, p, h)   # phi, g and h evaluated once at p
        coord = phwc_residual_coord(pd)
        iso = isotropy_residual(pd)
        comm = phwc_residual_commutator(pd)
        rep = hwc_report(pd)
        tau = tension(pd).harmonic_residual
        print(f"  p={np.array2string(p, precision=2):>28}  "
              f"phwc={coord:.1e} isotropy={iso:.1e} commutator={comm:.1e}  "
              f"hwc defect={rep.defect:.2f} (lambda^2={rep.lambda_sq:.2f})  "
              f"|tau|={tau:.1e}")
    print("  -> PHWC and harmonic at every point, never horizontally "
          "weakly conformal\n")

# A map that fails the condition, for contrast: the identity chart of R^2
# viewed inside C^2 has Gram entry g^ij d phi^1 d phi^1 = 1.
from phwc import SmoothMap, Var

chart = SmoothMap(2, 2, [Var(0), Var(1)])
p = (0.3, 0.7)
pd = PointData(chart, MetricField.euclidean(2), p)
print("== chart map (x1, x2) into C^2")
print(f"  phwc residual at {p}: {phwc_residual_coord(pd):.3f} "
      "(nonzero: the map is not PHWC)")
