"""Toolkit for pseudo horizontally weakly conformal maps.

Residual checks for maps from Riemannian domains into Hermitian/Kaehler
charts, the associated f-structure and its integrability conditions, and a
Dirichlet-energy gradient flow that produces numerically harmonic maps.

The layers, bottom up:

- ``jet``: expression trees and second-order forward-mode jets, plus
  ``wirtinger``, the one array view that every complex derivative reads;
- ``geometry``: metric fields; g, g^-1, Gamma and Laplace-Beltrami at a point
  from one jet pass (``MetricPoint``), h, h^-1, Gamma and the Kaehler residual
  from one pass of h (``HermitianPoint``);
- ``maps``: smooth maps, the per-point inputs ``PointData`` (a
  ``MetricPoint`` plus phi's jets and the ``HermitianPoint`` at phi(p)) and
  the pointwise residuals that read them (three equivalent PHWC forms,
  horizontal weak conformality fit, tension, pluriharmonicity), and
  composition with +/-holomorphic maps;
- ``fstruct``: the associated f-structure, its algebra, Nijenhuis and
  parallelism defects, the fundamental 2-form conditions, and the theorem
  implication harness;
- ``flow``: explicit-Euler tension flow on flat torus grids;
- ``cli``: the manifest-driven command line (``phwc check|sweep|flow|
  verify-paper|report``).
"""

from .jet import (
    Const,
    DivisionNearZero,
    Expr,
    Jet2,
    ParseError,
    Var,
    VariableIndexOutOfRange,
    conj,
    cos,
    differentiate,
    eval_jet2,
    exp,
    im,
    parse_expr,
    re,
    sin,
    var,
)
from .geometry import (
    HermitianMetricField,
    HermitianPoint,
    MetricField,
    MetricNotPD,
    MetricNotSPD,
    MetricPoint,
    TargetNotKaehler,
    christoffel_domain,
    christoffel_kaehler,
    kaehler_residual,
    laplace_beltrami,
)
from .maps import (
    DimensionMismatch,
    HWCReport,
    PointData,
    SmoothMap,
    TensionPoint,
    antiholomorphy_residual,
    compose,
    differential,
    holomorphy_residual,
    hwc_report,
    isotropy_residual,
    phwc_residual_commutator,
    phwc_residual_coord,
    pluriharmonic_residual,
    tension,
)
from .fstruct import (
    FStencil,
    FStructurePoint,
    NotPHWCAtPoint,
    RankDeficiencyAmbiguous,
    RankJumpOnStencil,
    SuiteSample,
    SuiteTolerances,
    associated_f_structure,
    constant_f_field,
    domega_12_residual,
    dphi_kernel_residual,
    f_field_of_map,
    f_holomorphy_residual,
    f_stencil,
    fundamental_two_form,
    met_residual,
    nijenhuis_residual,
    parallel_residual,
    theorem_suite,
)
from .flow import (
    FlowConfig,
    GridMap,
    StepSizeUnderflow,
    dirichlet_energy,
    discrete_phwc_residual,
    discrete_tension,
    grid_to_smooth_map,
    run_flow,
    save_snapshot,
    stable_dt_bound,
)

__version__ = "0.1.0"
