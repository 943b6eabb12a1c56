"""Toolkit for pseudo horizontally weakly conformal maps.

Residual checks for maps from Riemannian domains into Hermitian/Kaehler
charts, the associated f-structure and its integrability conditions, and a
Dirichlet-energy gradient flow that produces numerically harmonic maps.

The layers, bottom up:

- ``jet``: expression trees and second-order forward-mode jets at a point
  or, in one pass, at a set of points (first-order passes stop at the
  gradient), one ``Jet2`` per pass whatever the number of roots,
  ``stack``, which makes trees of one shape one tree evaluated at one point
  per tree, plus ``wirtinger``, the one array view that every complex
  derivative reads;
- ``geometry``: metric fields; g, g^-1, Gamma and Laplace-Beltrami from one
  jet pass (``MetricPoint``), h, h^-1, Gamma and the Kaehler residual from
  one pass of h (``HermitianPoint``), at one point or, with a leading point
  axis, at a set of points, each quantity checked, inverted and contracted
  in one numpy call; point k of a set, ``pt[k]``, is made on demand and
  holds its row of what the set has built; a target of literals is checked
  once per field and makes no pass; ``share_metric`` gives points of
  metrics of one shape (or of one metric) their rows of one pass of the
  stacked grids;
- ``maps``: smooth maps, the point inputs ``PointData`` (a ``MetricPoint``
  plus phi's jets, the Gram matrix and the ``HermitianPoint`` at phi(p);
  ``share_differential`` gives lone points of one phi their rows of one
  pass of it), and the residuals that read them (three equivalent PHWC
  forms, horizontal weak conformality fit, tension, pluriharmonicity; each
  also over a point axis), and composition with +/-holomorphic maps;
- ``fstruct``: the associated f-structure, at a point or over a set
  (``fp[k]`` is point k), its algebra, ``CheckPoint`` (a ``PointData`` of
  one point or a set that holds F, ``fp``, and, at one point, F's exact
  first derivatives, ``dF``, read off its own jets) with ``CHECKS``, the
  table of checks that read it; f-holomorphy, the 0-eigenspace kernel
  (both also over a set), Nijenhuis and parallelism defects and the
  fundamental 2-form conditions, each a residual of the ``CheckPoint``;
  and the theorem implication harness, which reads ``CHECKS`` as ``phwc
  check`` does;
- ``flow``: explicit-Euler tension flow on flat torus grids;
- ``paper``: the sections of the verify-paper bundle, one per group of the
  paper's claims;
- ``cli``: the manifest-driven command line (``phwc check|sweep|flow|
  verify-paper|report``), which parses, validates, runs and emits.
"""

from .jet import (
    Const,
    DivisionNearZero,
    Expr,
    HessianNotComputed,
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
    stack,
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
    share_metric,
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
    share_differential,
    tension,
)
from .fstruct import (
    CheckPoint,
    FStructurePoint,
    NotPHWCAtPoint,
    RankDeficiencyAmbiguous,
    RankJumpOnStencil,
    SuiteSample,
    associated_f_structure,
    domega_12_residual,
    dphi_kernel_residual,
    f_holomorphy_residual,
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
