"""The f-structure associated to a PHWC map and its curvature conditions.

At a point where the map satisfies the PHWC condition, the covectors
(dphi)*(dz^a) span an isotropic subspace V of the complexified cotangent
space, which becomes the +i eigenspace of an f-structure acting on 1-forms.
On tangent vectors the same structure has +i eigenspace equal to the
*conjugate* of the raised span of V (the two transfers across the metric
differ by a conjugation on isotropic spaces); that orientation is the one
that makes every PHWC map f-holomorphic, dphi o F = J o dphi.  The module
builds F pointwise, then probes the field of such structures by central
differences: Nijenhuis tensor, parallelism defect, fundamental 2-form and
its exterior derivative, and the mixed-type condition on covariant
derivatives out of the 0-eigenspace.

Derivatives of the field use central differences of the pointwise
construction rather than differentiating the orthonormalisation: rank
pivoting is discontinuous, whereas the projectors themselves are smooth on
constant-rank neighbourhoods.  A rank change across a stencil makes the
derivative meaningless and is reported as such, never averaged away.  The
stencil points of a whole sample are evaluated in one first-order pass of
the map and one of the metric (share_stencils), since F reads first
partials only.  A CheckPoint holds the point data of one sample point with
its F and F's stencil, each built once and read by every check there; the
implication harness and ``phwc check`` both read them through one table of
checks, CHECKS.

Pointwise constructions are pure; the implication harness processes its
samples independently and keeps diagnostics ordered by sample for
deterministic reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (HermitianMetricField, MetricField, MetricPoint,
                       _inverse_checked)
from .jet import VariableIndexOutOfRange
from .maps import (PointData, SmoothMap, hwc_report, isotropy_residual,
                   phwc_residual_commutator, phwc_residual_coord,
                   pluriharmonic_residual, share_pass, tension)

__all__ = [
    "NotPHWCAtPoint",
    "RankDeficiencyAmbiguous",
    "RankJumpOnStencil",
    "FStructurePoint",
    "FStencil",
    "CheckPoint",
    "TwoFormPoint",
    "associated_f_structure",
    "constant_f_field",
    "f_holomorphy_residual",
    "dphi_kernel_residual",
    "f_stencil",
    "share_stencils",
    "CHECKS",
    "STENCIL_CHECKS",
    "verdict",
    "nijenhuis_residual",
    "parallel_residual",
    "fundamental_two_form",
    "domega_12_residual",
    "met_residual",
    "SuiteSample",
    "SuiteRecord",
    "TheoremSuiteReport",
    "theorem_suite",
]

PHWC_GATE = 1e-8         # F is built where the PHWC residual is at most this
RANK_TOL = 1e-8          # pivot norms below RANK_TOL/10 end the isotropic span
H_STEP = 1e-4            # default step of the difference stencil

# the implication harness: hypothesis residuals count as zero below
# SUITE_EPS, a tension above SUITE_DELTA is a harmonicity failure, and a
# Kaehler flag whose closedness residual exceeds KAEHLER_TOL is forged
SUITE_EPS = 1e-8
SUITE_DELTA = 1e-6
KAEHLER_TOL = 1e-8

# Errors that building the f-structure or its stencil raises at a point
# (the skip reasons, a metric check, a failing jet pass); share_stencils
# keeps each on its point.
POINT_ERRORS = (ValueError, ArithmeticError, VariableIndexOutOfRange)


class NotPHWCAtPoint(ValueError):
    """The map fails the PHWC gate at the requested point."""


class RankDeficiencyAmbiguous(ValueError):
    """A pivot norm fell inside [RANK_TOL/10, RANK_TOL]; the rank of the
    isotropic span cannot be decided at this tolerance."""


class RankJumpOnStencil(ValueError):
    """The f-structure rank differs across a difference stencil."""


@dataclass
class FStructurePoint:
    """Associated f-structure at a point.

    F is real with eigenvalues +i, -i, 0; Pplus/Pminus/Pzero are the
    eigenprojectors (g-orthogonal, not Euclidean-orthogonal), and rank is the
    rank of F, twice the complex rank of the isotropic span.
    """

    F: np.ndarray          # (m, m) real
    Pplus: np.ndarray      # (m, m) complex
    Pminus: np.ndarray     # (m, m) complex
    Pzero: np.ndarray      # (m, m) complex (real-valued)
    rank: int
    gm: np.ndarray         # metric matrix at the point
    ginv: np.ndarray       # its checked inverse
    basis_plus: np.ndarray   # (m, k) columns spanning the +i eigenspace
    basis_zero: np.ndarray   # (m, m-rank) real columns spanning ker F

    @property
    def m(self) -> int:
        return self.F.shape[0]

    def algebra_residual(self) -> float:
        """Worst violation of the defining algebra of an f-structure."""
        eye = np.eye(self.m)
        gf = self.gm @ self.F
        checks = [
            self.F @ self.F @ self.F + self.F,
            gf + gf.T,
            self.Pplus + self.Pminus + self.Pzero - eye,
            self.Pplus @ self.Pplus - self.Pplus,
            self.Pminus @ self.Pminus - self.Pminus,
            self.Pzero @ self.Pzero - self.Pzero,
            self.Pplus @ self.Pminus,
            self.Pminus @ self.Pplus,
            self.Pplus @ self.Pzero,
            self.Pzero @ self.Pplus,
            self.F - np.real(1j * (self.Pplus - self.Pminus)),
            self.Pminus - np.conj(self.Pplus),
        ]
        return float(max(np.max(np.abs(c)) for c in checks))

    @classmethod
    def from_matrix(cls, F: np.ndarray, gm: np.ndarray) -> "FStructurePoint":
        """Wrap a hand-built f-structure matrix (F^3 + F = 0 assumed)."""
        F = np.asarray(F, dtype=float)
        m = F.shape[0]
        pplus = -0.5 * (F @ F + 1j * F)
        pminus = np.conj(pplus)
        pzero = np.eye(m) - pplus - pminus
        k = int(round(np.trace(pplus).real))
        basis_plus = _column_space(pplus, k)
        basis_zero = _column_space(np.real(pzero), m - 2 * k).real
        gm = np.asarray(gm, dtype=float)
        return cls(F=F, Pplus=pplus, Pminus=pminus, Pzero=pzero, rank=2 * k,
                   gm=gm, ginv=_inverse_checked(gm, "domain metric"),
                   basis_plus=basis_plus, basis_zero=basis_zero)


def _column_space(a: np.ndarray, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros((a.shape[0], 0), dtype=a.dtype)
    u, s, _ = np.linalg.svd(a)
    return u[:, :k]


def associated_f_structure(pd: PointData) -> FStructurePoint:
    """Build F at p from the isotropic span of the raised differentials.

    The raised vectors v_a = g^{-1} (d phi^a) are orthonormalised by pivoted
    Gram-Schmidt under the Hermitian product <X, Y> = g(X, conj Y); their
    span carries the -i eigenvalue on tangent vectors and its conjugate the
    +i eigenvalue (this is the orientation under which dphi intertwines F
    with multiplication by i on the target).  Points whose PHWC residual
    exceeds PHWC_GATE raise NotPHWCAtPoint.  Pivot norms below RANK_TOL/10
    are dropped; norms inside [RANK_TOL/10, RANK_TOL] raise
    RankDeficiencyAmbiguous rather than silently deciding the rank.
    """
    p = pd.p
    resid = phwc_residual_coord(pd)
    if not resid <= PHWC_GATE:
        raise NotPHWCAtPoint(f"PHWC residual {resid:.3e} exceeds the gate "
                             f"{PHWC_GATE:.1e} at {p}")
    gm = pd.gm
    vectors = [pd.ginv @ row for row in pd.diff.grad]
    m = gm.shape[0]

    def hnorm(x):
        return float(np.sqrt(max(np.real(np.conj(x) @ gm @ x), 0.0)))

    basis: list[np.ndarray] = []
    work = [v.astype(complex) for v in vectors]
    while work:
        norms = [hnorm(w) for w in work]
        imax = int(np.argmax(norms))
        top = norms[imax]
        if top < RANK_TOL / 10:
            break
        if top < RANK_TOL:
            raise RankDeficiencyAmbiguous(
                f"pivot norm {top:.3e} inside [{RANK_TOL / 10:.1e}, "
                f"{RANK_TOL:.1e}] at {p}")
        e = work.pop(imax) / top
        basis.append(e)
        work = [w - (np.conj(e) @ gm @ w) * e for w in work]

    k = len(basis)
    if k:
        emat = np.column_stack(basis)
        pminus = emat @ np.conj(emat).T @ gm
    else:
        emat = np.zeros((m, 0), dtype=complex)
        pminus = np.zeros((m, m), dtype=complex)
    pplus = np.conj(pminus)
    pzero = np.eye(m) - pplus - pminus
    f_mat = 2.0 * np.imag(pminus)          # equals real(i (P+ - P-)) exactly
    basis_zero = _column_space(np.real(pzero), m - 2 * k).real
    return FStructurePoint(F=f_mat, Pplus=pplus, Pminus=pminus, Pzero=pzero,
                           rank=2 * k, gm=gm, ginv=pd.ginv,
                           basis_plus=np.conj(emat),
                           basis_zero=basis_zero)


def constant_f_field(F: np.ndarray, g: MetricField):
    """Field with the same matrix everywhere (metric still evaluated)."""
    return lambda x: FStructurePoint.from_matrix(F, g.matrix(x))


def f_holomorphy_residual(pd: PointData, fp: FStructurePoint) -> float:
    """max | (dphi . F)^a_j - i (dphi)^a_j | on the holomorphic rows.

    Zero means dphi intertwines F with the complex structure of the chart.
    """
    dphi = pd.diff.grad
    return float(np.max(np.abs(dphi @ fp.F - 1j * dphi)))


def dphi_kernel_residual(pd: PointData, fp: FStructurePoint) -> float:
    """max | dphi . Pzero |: the differential must kill the 0-eigenspace."""
    return float(np.max(np.abs(pd.diff.grad @ fp.Pzero)))


@dataclass
class FStencil:
    """The F-field at p and at each p +/- h e_l, all of one rank.

    at is the metric at the center p, plus[l] and minus[l] the structures at
    p + h e_l and p - h e_l; every stencil residual below reads its
    derivatives off this one set of evaluations, and each point's metric off
    its FStructurePoint.gm and .ginv.
    """

    at: MetricPoint
    h_step: float
    center: FStructurePoint
    plus: list
    minus: list

    def derivative(self, quantity):
        """Central differences d_l quantity(fp), stacked along l."""
        return np.array([(quantity(fp) - quantity(fm)) / (2 * self.h_step)
                         for fp, fm in zip(self.plus, self.minus)])


def _around(p: np.ndarray, h_step: float) -> list:
    """p + h e_1, p - h e_1, p + h e_2, ..."""
    return [q for e in h_step * np.eye(len(p)) for q in (p + e, p - e)]


def _stencil(at: MetricPoint, center: FStructurePoint, around: list,
             h_step: float) -> FStencil:
    """The stencil of the structures at at.p and around it (_around order);
    raises RankJumpOnStencil when they are not all of one rank."""
    plus, minus = around[0::2], around[1::2]
    ranks = {fp.rank for fp in plus + minus + [center]}
    if len(ranks) != 1:
        raise RankJumpOnStencil(
            f"f-structure rank takes values {sorted(ranks)} on the stencil "
            f"around {at.p}; derivatives are meaningless there")
    return FStencil(at=at, h_step=h_step, center=center, plus=plus,
                    minus=minus)


class CheckPoint(PointData):
    """The PointData of one sample point with the associated f-structure fp
    and its FStencil of step h_step, each built on first use and then read
    by every check at the point.  share_stencils builds the stencils of a
    whole sample at once; a point alone builds its own.  The stencil's
    center is fp itself."""

    def __init__(self, phi: SmoothMap, g: MetricField, p,
                 h: HermitianMetricField | None = None,
                 h_step: float = H_STEP):
        super().__init__(phi, g, p, h)
        self.h_step = h_step
        self._fp = None          # its FStructurePoint, or the error raised
        self._stencil = None     # its FStencil, or the error building it raised

    @property
    def fp(self) -> FStructurePoint:
        """The associated f-structure, built once; raises what building it
        raised."""
        if self._fp is None:
            try:
                self._fp = associated_f_structure(self)
            except POINT_ERRORS as err:
                self._fp = err
        if isinstance(self._fp, Exception):
            raise self._fp
        return self._fp

    @property
    def stencil(self) -> FStencil:
        """The FStencil of fp; raises what building it raised."""
        if self._stencil is None:
            share_stencils([self])
        if isinstance(self._stencil, Exception):
            raise self._stencil
        return self._stencil


def share_stencils(points: list[CheckPoint]) -> None:
    """Give each of points, check points of one phi and g, its FStencil or,
    where building it raises one of POINT_ERRORS, that error.

    Each point's fp is built first.  The 2m points p +/- h e_l of every
    point whose fp builds are evaluated in one first-order pass of phi and
    one of g (share_pass); each stencil then builds its structures in that
    order and stops at the first that raises, as building it alone does.
    """
    built = []
    for pt in points:
        try:
            pt.fp
        except POINT_ERRORS as err:
            pt._stencil = err
        else:
            built.append(pt)
    around = [[PointData(pt.phi, pt.g, q) for q in _around(pt.p, pt.h_step)]
              for pt in built]
    share_pass([pd for pds in around for pd in pds], order=1)
    for pt, pds in zip(built, around):
        try:
            pt._stencil = _stencil(pt, pt.fp, [associated_f_structure(pd)
                                               for pd in pds], pt.h_step)
        except POINT_ERRORS as err:
            pt._stencil = err


def _hwc(pt: CheckPoint):
    rep = hwc_report(pt)
    return rep.defect, {"lambda_sq": rep.lambda_sq}


def _fstructure(pt: CheckPoint):
    return pt.fp.algebra_residual(), {
        "rank": pt.fp.rank, "dphi_pzero": dphi_kernel_residual(pt, pt.fp)}


# The checks of a CheckPoint, as name: (default tol, point -> (value, extra)).
# Equality residuals default to 1e-10, those read off F's stencil to 1e-6.
# Each residual is looked up by name per call, so a wrapper rebound to that
# name in this module sees every call.
CHECKS = {
    "phwc": (1e-10, lambda pt: (phwc_residual_coord(pt), {})),
    "isotropy": (1e-10, lambda pt: (isotropy_residual(pt), {})),
    "commutator": (1e-10, lambda pt: (phwc_residual_commutator(pt), {})),
    "hwc": (1e-10, _hwc),
    "tension": (1e-10, lambda pt: (tension(pt).harmonic_residual, {})),
    "pluriharmonic": (1e-10, lambda pt: (pluriharmonic_residual(pt), {})),
    "fstructure": (1e-10, _fstructure),
    "f_holomorphy": (1e-10, lambda pt: (f_holomorphy_residual(pt, pt.fp), {})),
    "nijenhuis": (1e-6, lambda pt: (nijenhuis_residual(pt.stencil), {})),
    "parallel": (1e-6, lambda pt: (parallel_residual(pt.stencil), {})),
    "domega12": (1e-6, lambda pt: (domega_12_residual(pt.stencil), {})),
    "met": (1e-6, lambda pt: (met_residual(pt.stencil), {})),
}

# the checks that read F's difference stencil, in the harness's order
STENCIL_CHECKS = ("parallel", "nijenhuis", "met", "domega12")


def verdict(value, tol: float, negate: bool) -> bool:
    """A residual passes at most tol, or, negated, above it."""
    return bool((value > tol) if negate else (value <= tol))


def f_stencil(source, g: MetricField | None = None, p=None, *,
              h_step: float = H_STEP) -> FStencil:
    """Evaluate an F-field once at a center p and at each p +/- h e_l.

    f_stencil(pd, ...) is the stencil of a CheckPoint at pd's point: the
    associated f-structure of pd.phi, raising what building it raises;
    f_stencil(field, g, p, ...) takes any field x -> FStructurePoint.
    Raises RankJumpOnStencil when the rank is not the same at every stencil
    point.
    """
    if isinstance(source, PointData):
        return CheckPoint(source.phi, source.g, source.p, source.h,
                          h_step).stencil
    at = MetricPoint(g, p)
    return _stencil(at, source(at.p),
                    [source(q) for q in _around(at.p, h_step)], h_step)


def nijenhuis_residual(st: FStencil) -> float:
    """max component of the Nijenhuis tensor of the F-field at p.

    N^k_ij = F^l_i d_l F^k_j - F^l_j d_l F^k_i - F^k_l (d_i F^l_j - d_j F^l_i),
    with the field derivatives taken by central differences.
    """
    f_mat = st.center.F
    df = st.derivative(lambda fp: fp.F)  # df[l, k, j] = d_l F^k_j
    term1 = np.einsum("li,lkj->kij", f_mat, df)
    term2 = np.einsum("lj,lki->kij", f_mat, df)
    curl = np.einsum("ilj->lij", df) - np.einsum("jli->lij", df)
    term3 = np.einsum("kl,lij->kij", f_mat, curl)
    return float(np.max(np.abs(term1 - term2 - term3)))


def parallel_residual(st: FStencil) -> float:
    """max component of the covariant derivative of the F-field at p:
    (nabla_i F)^k_j = d_i F^k_j + Gamma^k_il F^l_j - Gamma^l_ij F^k_l."""
    f_mat = st.center.F
    df = st.derivative(lambda fp: fp.F)
    gamma = st.at.gamma
    nabla = (df
             + np.einsum("kil,lj->ikj", gamma, f_mat)
             - np.einsum("lij,kl->ikj", gamma, f_mat))
    return float(np.max(np.abs(nabla)))


@dataclass
class TwoFormPoint:
    """Fundamental 2-form omega_ij = g_ik F^k_j and its exterior derivative
    (domega)_ijk = d_i omega_jk - d_j omega_ik + d_k omega_ij."""

    omega: np.ndarray    # (m, m) real antisymmetric
    domega: np.ndarray   # (m, m, m) real fully antisymmetric


def fundamental_two_form(st: FStencil) -> TwoFormPoint:
    """omega and domega of the stencil's F-field at its center point."""
    omega0 = st.center.gm @ st.center.F
    domega_partials = st.derivative(lambda fp: fp.gm @ fp.F)
    domega = (domega_partials
              - np.einsum("jik->ijk", domega_partials)
              + np.einsum("kij->ijk", domega_partials))
    return TwoFormPoint(omega=omega0, domega=domega)


def domega_12_residual(st: FStencil) -> float:
    """max |domega(u, v, w)| over u, v of one eigenspace type and w of a
    different type, the types taken from the projectors at the center point."""
    center = st.center
    two_form = fundamental_two_form(st)
    bases = {
        "+": center.basis_plus,
        "-": np.conj(center.basis_plus),
        "0": center.basis_zero.astype(complex),
    }
    worst = 0.0
    for t_same, b_same in bases.items():
        if b_same.shape[1] < 2:
            continue
        for t_other, b_other in bases.items():
            if t_other == t_same or b_other.shape[1] == 0:
                continue
            vals = np.einsum("ijk,ia,jb,kc->abc",
                             two_form.domega.astype(complex),
                             b_same, b_same, b_other)
            worst = max(worst, float(np.max(np.abs(vals))))
    return worst


def met_residual(st: FStencil) -> float:
    """Defect of: covariant derivatives of +type covectors along the
    0-eigenspace stay inside the +/- covector types.

    Builds sections theta_b(x) = Q(x) theta_b(p) of the +type covector
    bundle, with Q = g Pplus g^{-1} the covector projector, differentiates
    them on the stencil, and measures the 0-type component of
    nabla_{X_a} theta_b for a real basis X_a of ker F.  Vacuously zero when
    the structure has full rank.
    """
    center = st.center
    if center.rank == center.m:
        return 0.0
    gm, ginv = center.gm, center.ginv
    # +type covectors are the lowerings of the -i tangent eigenspace
    thetas = gm @ np.conj(center.basis_plus)
    dtheta = st.derivative(lambda fp: fp.gm @ fp.Pminus @ fp.ginv @ thetas)

    gamma = st.at.gamma
    qzero = gm @ center.Pzero @ ginv
    worst = 0.0
    for x_vec in center.basis_zero.T:
        for b in range(thetas.shape[1]):
            # (nabla_X theta)_i = X^l d_l theta_i - X^l Gamma^k_{l i} theta_k
            grad_part = np.einsum("l,li->i", x_vec, dtheta[:, :, b])
            conn_part = np.einsum("l,kli,k->i", x_vec, gamma, thetas[:, b])
            zero_component = qzero @ (grad_part - conn_part)
            worst = max(worst, float(np.linalg.norm(zero_component)))
    return worst


# ---------------------------------------------------------------------------
# theorem implication harness
# ---------------------------------------------------------------------------

@dataclass
class SuiteSample:
    """One map with its geometry and evaluation points."""

    name: str
    phi: SmoothMap
    g: MetricField
    h: HermitianMetricField
    points: np.ndarray


@dataclass
class SuiteRecord:
    sample: str
    point: list
    status: str                # "ok" | "skipped" | "counterexample"
    reasons: list
    residuals: dict


@dataclass
class TheoremSuiteReport:
    records: list
    checked: int = 0
    skipped: int = 0
    counterexamples: int = 0

    def counterexample_records(self):
        return [r for r in self.records if r.status == "counterexample"]


def theorem_suite(samples) -> TheoremSuiteReport:
    """Test the two harmonicity implications over a family of PHWC maps.

    For every sample point: (a) a parallel associated f-structure must come
    with vanishing tension; (b) so must an integrable one whose fundamental
    2-form has no (1,2) part and whose +type covectors satisfy the mixed
    covariant-derivative condition.  Hypotheses are measured, not assumed;
    in particular a Kaehler flag that contradicts the measured closedness
    residual of the target metric is itself reported as a counterexample,
    because every conclusion below relies on it.
    """
    records = []
    report = TheoremSuiteReport(records=records)
    for sample in samples:
        pts = [CheckPoint(sample.phi, sample.g, point, sample.h) for point
               in np.atleast_2d(np.asarray(sample.points, dtype=float))]
        share_pass(pts)
        forged = [sample.h.kaehler and pt.target.kaehler > KAEHLER_TOL
                  for pt in pts]
        share_stencils([pt for pt, bad in zip(pts, forged) if not bad])
        for pt, bad in zip(pts, forged):
            rec = SuiteRecord(sample=sample.name, point=list(pt.p),
                              status="ok", reasons=[], residuals={})
            records.append(rec)

            if sample.h.kaehler:
                rec.residuals["kaehler"] = pt.target.kaehler
                if bad:
                    rec.status = "counterexample"
                    rec.reasons.append("kaehler_flag_violation")
                    report.counterexamples += 1
                    continue

            try:
                pt.stencil       # a skip reason is raised before any residual
                resid = {name: CHECKS[name][1](pt)[0]
                         for name in ("phwc", *STENCIL_CHECKS)}
                resid["harmonic"] = CHECKS["tension"][1](pt)[0]
            except (NotPHWCAtPoint, RankDeficiencyAmbiguous,
                    RankJumpOnStencil) as err:
                rec.status = "skipped"
                rec.reasons.append(type(err).__name__)
                report.skipped += 1
                continue

            rec.residuals.update(resid)
            report.checked += 1
            if (resid["parallel"] <= SUITE_EPS
                    and resid["harmonic"] > SUITE_DELTA):
                rec.status = "counterexample"
                rec.reasons.append("parallel_implies_harmonic")
            if (resid["nijenhuis"] <= SUITE_EPS and resid["met"] <= SUITE_EPS
                    and resid["domega12"] <= SUITE_EPS
                    and resid["harmonic"] > SUITE_DELTA):
                rec.status = "counterexample"
                rec.reasons.append("integrable_met_sym_implies_harmonic")
            if rec.status == "counterexample":
                report.counterexamples += 1
    return report
