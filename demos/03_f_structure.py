"""The f-structure a PHWC map induces on its domain, and what it detects.

Raising the covectors (dphi)*(dz^a) against the metric produces an
isotropic span; the associated skew endomorphism F satisfies F^3 + F = 0,
has eigenvalues +/-i and 0, and intertwines dphi with multiplication by i.
Its pointwise field knows about harmonicity: a parallel field forces the
tension to vanish, and so does an integrable one whose fundamental 2-form
has no mixed-type exterior derivative.

Run:  python demos/03_f_structure.py
"""

import numpy as np

from phwc import (
    CheckPoint,
    MetricField,
    SmoothMap,
    dphi_kernel_residual,
    f_holomorphy_residual,
    fundamental_two_form,
    met_residual,
    nijenhuis_residual,
    parallel_residual,
    var,
)
from phwc.catalog import immersion_r2_c3, linear_r4_c2
from phwc.jet import Const

print("== the immersion R^2 -> C^3")
phi, g = immersion_r2_c3(), MetricField.euclidean(2)
p = (0.4, -0.3)
pt = CheckPoint(phi, g, p)   # phi's jets, g and F built once, shared below
print(f"  rank {pt.fp.rank}, F =\n{pt.fp.F}")
print(f"  algebra residual      {pt.fp.algebra_residual():.2e}")
print(f"  f-holomorphy residual {f_holomorphy_residual(pt):.2e}\n")

print("== the linear map R^4 -> C^2 (nontrivial 0-eigenspace)")
phi4, g4 = linear_r4_c2(), MetricField.euclidean(4)
p4 = (1.0, 0.5, -0.2, 0.8)
pt4 = CheckPoint(phi4, g4, p4)
print(f"  rank {pt4.fp.rank} on R^4: the kernel of F has real dimension "
      f"{4 - pt4.fp.rank}")
print(f"  dphi kills the 0-eigenspace: |dphi Pzero| = "
      f"{dphi_kernel_residual(pt4):.2e}")
# pt4.dF holds F's exact first derivatives, read off the point's own jets
print(f"  parallel residual  {parallel_residual(pt4):.2e}")
print(f"  nijenhuis residual {nijenhuis_residual(pt4):.2e}\n")

print("== a product metric keeps the structure parallel ...")
g_block = MetricField.diagonal([Const(1.0), Const(1.0),
                                Const(1.0) + var(2) ** 2,
                                Const(1.0) + Const(0.5) * var(3) ** 2])
phi_line = SmoothMap(4, 1, [var(0) + Const(1j) * var(1)])
p = (0.4, -0.1, 0.8, 0.3)
pt = CheckPoint(phi_line, g_block, p)
print(f"  parallel residual {parallel_residual(pt):.2e}, "
      f"met residual {met_residual(pt):.2e}")

print("== ... while a cross-term dependence breaks the mixed condition")
g_bad = MetricField.diagonal([Const(1.0), Const(1.0),
                              Const(1.0) + var(2) ** 2 + Const(0.2) * var(0),
                              Const(1.0) + Const(0.5) * var(3) ** 2])
pt_bad = CheckPoint(phi_line, g_bad, p)
print(f"  met residual {met_residual(pt_bad):.2e}\n")

print("== fundamental 2-form under a conformal rescale")
from phwc.jet import exp

g_conf = MetricField.conformal(2, exp(Const(2.0) * var(0)))
tf = fundamental_two_form(CheckPoint(immersion_r2_c3(), g_conf, (0.25, 0.1)))
print(f"  omega_12 = {tf.omega[0, 1]:+.4f} (= -e^(2 x1)); "
      f"max |domega| = {np.max(np.abs(tf.domega)):.2e} "
      "(3-forms vanish on R^2)")
