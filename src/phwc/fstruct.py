"""The f-structure associated to a PHWC map and its curvature conditions.

At a point where the map satisfies the PHWC condition, the covectors
(dphi)*(dz^a) span an isotropic subspace V of the complexified cotangent
space, which becomes the +i eigenspace of an f-structure acting on 1-forms.
On tangent vectors the same structure has +i eigenspace equal to the
*conjugate* of the raised span of V (the two transfers across the metric
differ by a conjugation on isotropic spaces); that orientation is the one
that makes every PHWC map f-holomorphic, dphi o F = J o dphi.  The module
builds F pointwise, then differentiates the field of such structures:
Nijenhuis tensor, parallelism defect, fundamental 2-form and its exterior
derivative, and the mixed-type condition on covariant derivatives out of
the 0-eigenspace.

F depends on dphi and g only, so on a neighbourhood where the rank of the
isotropic span is constant its first derivatives have a closed form
(Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973): the eigenprojector is
V (V^H g V)^-1 V^H g for the raised differentials V that the pivoting at p
keeps, and its derivative follows by the product rule from phi's Hessian
and g's gradient, which the point's own second-order pass of phi and
first-order pass of g already hold.  Rank pivoting is discontinuous, so the
pivots are chosen once, at p; where the rank changes next to p the
derivative is meaningless, and guards report it rather than return a
number.  A CheckPoint holds the point data of one sample point with its F
(fp) and F's first derivatives (dF), each built once and read by every
check there.  Every residual below takes that one point and reads fp, dF,
g's partials dg, the symbols gamma and phi's differential diff off it; the
implication harness and ``phwc check`` both read them through one table of
checks, CHECKS.

Pointwise constructions are pure; the implication harness processes its
samples independently and keeps diagnostics ordered by sample for
deterministic reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (KAEHLER_TOL, GeometryError, HermitianMetricField,
                       MetricField, _inverse_checked)
from .jet import VariableIndexOutOfRange, differentiate, eval_jet2
from .maps import (PointData, SmoothMap, hwc_report, isotropy_residual,
                   phwc_residual_commutator, phwc_residual_coord,
                   pluriharmonic_residual, share_pass, tension)

__all__ = [
    "NotPHWCAtPoint",
    "RankDeficiencyAmbiguous",
    "RankJumpOnStencil",
    "FStructurePoint",
    "CheckPoint",
    "TwoFormPoint",
    "associated_f_structure",
    "f_holomorphy_residual",
    "dphi_kernel_residual",
    "CHECKS",
    "DERIVATIVE_CHECKS",
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

# the implication harness: hypothesis residuals count as zero below
# SUITE_EPS, a tension above SUITE_DELTA is a harmonicity failure, and a
# Kaehler flag is forged as geometry.KAEHLER_TOL says
SUITE_EPS = 1e-8
SUITE_DELTA = 1e-6

# Errors that building the f-structure or its derivatives raises at a point
# (the skip reasons, a metric check, a failing jet pass); a CheckPoint
# keeps each on its point.
POINT_ERRORS = (ValueError, ArithmeticError, VariableIndexOutOfRange)


class NotPHWCAtPoint(ValueError):
    """The map fails the PHWC gate at the requested point."""


class RankDeficiencyAmbiguous(ValueError):
    """A pivot norm fell inside [RANK_TOL/10, RANK_TOL]; the rank of the
    isotropic span cannot be decided at this tolerance."""


class RankJumpOnStencil(ValueError):
    """The f-structure rank changes next to the point, so F has no
    derivative there."""


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
    pivots: tuple = ()       # the differentials whose raised vectors span
                             # the -i eigenspace, in pivot order

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
    pivots = []
    work = [(a, v.astype(complex)) for a, v in enumerate(vectors)]
    while work:
        norms = [hnorm(w) for _, w in work]
        imax = int(np.argmax(norms))
        top = norms[imax]
        if top < RANK_TOL / 10:
            break
        if top < RANK_TOL:
            raise RankDeficiencyAmbiguous(
                f"pivot norm {top:.3e} inside [{RANK_TOL / 10:.1e}, "
                f"{RANK_TOL:.1e}] at {p}")
        a, w = work.pop(imax)
        e = w / top
        pivots.append(a)
        basis.append(e)
        work = [(b, w - (np.conj(e) @ gm @ w) * e) for b, w in work]

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
                           basis_zero=basis_zero, pivots=tuple(pivots))


def f_holomorphy_residual(pt: CheckPoint) -> float:
    """max | (dphi . F)^a_j - i (dphi)^a_j | on the holomorphic rows.

    Zero means dphi intertwines F with the complex structure of the chart.
    """
    dphi = pt.diff.grad
    return float(np.max(np.abs(dphi @ pt.fp.F - 1j * dphi)))


def dphi_kernel_residual(pt: CheckPoint) -> float:
    """max | dphi . Pzero |: the differential must kill the 0-eigenspace."""
    return float(np.max(np.abs(pt.diff.grad @ pt.fp.Pzero)))


def _f_jet(pt: CheckPoint) -> np.ndarray:
    """dF[l, k, j] = d_l F^k_j of pt.fp, from pt's own jets: phi's Hessian
    and g's gradient.

    With V the raised differentials of fp.pivots and M = V^H g V, the
    eigenprojector P- = V M^-1 V^H g holds wherever the rank stays that at
    p, so d P- follows by the product rule, with d(g^-1) = -g^-1 dg g^-1
    and d M^-1 = -M^-1 dM M^-1, and dF = 2 Im d P-.  Guards report a rank
    that changes next to p: a Gram matrix whose derivative exceeds
    PHWC_GATE (F is no field around p) raises NotPHWCAtPoint, and a dropped
    differential v_j that leaves the span at a rate above RANK_TOL raises
    RankJumpOnStencil.  Where v_j and d v_j are both at most RANK_TOL, v_j
    is read to second order, off one second-order pass of the trees
    d phi^j / d x^i, and (I - P-) g^-1 d^2 (dphi^j) above RANK_TOL raises
    RankJumpOnStencil too (z^3 at 0).  A rank change that starts at third
    order (z^4 at 0) passes.
    """
    fp, dg = pt.fp, pt.dg
    gm, ginv = fp.gm, fp.ginv
    dginv = -ginv @ dg @ ginv
    dphi = pt.diff.grad                          # d_i phi^a at [a, i]
    ddphi = np.moveaxis(pt.diff.second, -1, 0)   # d_l d_i phi^a at [l, a, i]
    dgram = ddphi @ ginv @ dphi.T
    dgram = dgram + np.swapaxes(dgram, -1, -2) + dphi @ dginv @ dphi.T
    rate = float(np.max(np.abs(dgram)))
    if not rate <= PHWC_GATE:
        raise NotPHWCAtPoint(
            f"the PHWC residual grows at rate {rate:.3e}, above the gate "
            f"{PHWC_GATE:.1e}, away from {pt.p}; F is no field around it")

    vecs = ginv @ dphi.T                         # v_a = g^-1 dphi^a, columns
    dvecs = dginv @ dphi.T + ginv @ np.swapaxes(ddphi, -1, -2)
    piv = list(fp.pivots)
    v, dv = vecs[:, piv], dvecs[:, :, piv]
    vh, dvh = np.conj(v.T), np.conj(np.swapaxes(dv, -1, -2))
    minv = np.linalg.inv(vh @ gm @ v)
    dminv = -minv @ (dvh @ gm @ v + vh @ dg @ v + vh @ gm @ dv) @ minv
    dpminus = ((dv @ minv @ vh + v @ dminv @ vh + v @ minv @ dvh) @ gm
               + v @ minv @ vh @ dg)

    drop = [a for a in range(len(dphi)) if a not in piv]
    off_span = np.eye(fp.m) - fp.Pminus
    leave = off_span @ dvecs[:, :, drop] - dpminus @ vecs[:, drop]
    rate = float(np.max(np.abs(leave), initial=0.0))
    small = np.maximum(np.max(np.abs(vecs), axis=0),
                       np.max(np.abs(dvecs), axis=(0, 1))) <= RANK_TOL
    flat = [a for a in drop if small[a]]
    if flat:
        trees = [[differentiate(pt.phi.components[a], i)
                  for i in range(fp.m)] for a in flat]
        # d_l d_n d_i phi^a at [a, l, n, i]
        d3phi = np.moveaxis(eval_jet2(trees, pt.p).hess, 1, -1)
        leave = d3phi @ ginv @ off_span.T
        rate = max(rate, float(np.max(np.abs(leave))))
    if not rate <= RANK_TOL:
        raise RankJumpOnStencil(
            f"a dropped differential leaves the isotropic span at rate "
            f"{rate:.3e} at {pt.p}; the f-structure rank changes there")
    return 2.0 * np.imag(dpminus)


def _kept(pt: CheckPoint, name: str, build):
    """pt's quantity name, built as build(pt) on first read and kept; an
    error that building raised is kept instead and raised on every read."""
    value = vars(pt).get(name)
    if value is None:
        try:
            value = build(pt)
        except POINT_ERRORS as err:
            value = err
        vars(pt)[name] = value
    if isinstance(value, Exception):
        raise value
    return value


class CheckPoint(PointData):
    """The PointData of one sample point with the associated f-structure fp
    and its first derivatives dF, each built on first read from the point's
    own jets and then read by every check at the point."""

    @property
    def fp(self) -> FStructurePoint:
        """The associated f-structure; raises what building it raised."""
        return _kept(self, "_fp", associated_f_structure)

    @property
    def dF(self) -> np.ndarray:
        """dF[l, k, j] = d_l F^k_j of fp (see _f_jet); raises what building
        it or fp raised."""
        return _kept(self, "_dF", _f_jet)


def _hwc(pt: CheckPoint):
    rep = hwc_report(pt)
    return rep.defect, {"lambda_sq": rep.lambda_sq}


def _fstructure(pt: CheckPoint):
    return pt.fp.algebra_residual(), {
        "rank": pt.fp.rank, "dphi_pzero": dphi_kernel_residual(pt)}


# The checks of a CheckPoint, as name: (default tol, point -> (value, extra)).
# Equality residuals default to 1e-10, those read off F's derivatives to
# 1e-6.
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
    "f_holomorphy": (1e-10, lambda pt: (f_holomorphy_residual(pt), {})),
    "nijenhuis": (1e-6, lambda pt: (nijenhuis_residual(pt), {})),
    "parallel": (1e-6, lambda pt: (parallel_residual(pt), {})),
    "domega12": (1e-6, lambda pt: (domega_12_residual(pt), {})),
    "met": (1e-6, lambda pt: (met_residual(pt), {})),
}

# the checks that read F's derivatives, in the harness's order
DERIVATIVE_CHECKS = ("parallel", "nijenhuis", "met", "domega12")


def verdict(value, tol: float, negate: bool) -> bool:
    """A residual passes at most tol, or, negated, above it."""
    return bool((value > tol) if negate else (value <= tol))


def nijenhuis_residual(pt: CheckPoint) -> float:
    """max component of the Nijenhuis tensor of the F-field at p.

    N^k_ij = F^l_i d_l F^k_j - F^l_j d_l F^k_i - F^k_l (d_i F^l_j - d_j F^l_i).
    """
    f_mat, df = pt.fp.F, pt.dF     # df[l, k, j] = d_l F^k_j
    term1 = np.einsum("li,lkj->kij", f_mat, df)
    term2 = np.einsum("lj,lki->kij", f_mat, df)
    curl = np.einsum("ilj->lij", df) - np.einsum("jli->lij", df)
    term3 = np.einsum("kl,lij->kij", f_mat, curl)
    return float(np.max(np.abs(term1 - term2 - term3)))


def parallel_residual(pt: CheckPoint) -> float:
    """max component of the covariant derivative of the F-field at p:
    (nabla_i F)^k_j = d_i F^k_j + Gamma^k_il F^l_j - Gamma^l_ij F^k_l."""
    f_mat, df = pt.fp.F, pt.dF
    gamma = pt.gamma
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


def fundamental_two_form(pt: CheckPoint) -> TwoFormPoint:
    """omega and domega of the F-field at p."""
    fp, df = pt.fp, pt.dF
    omega0 = fp.gm @ fp.F
    # d_l omega = dg F + g dF at [l, j, k]
    domega_partials = pt.dg @ fp.F + fp.gm @ df
    domega = (domega_partials
              - np.einsum("jik->ijk", domega_partials)
              + np.einsum("kij->ijk", domega_partials))
    return TwoFormPoint(omega=omega0, domega=domega)


def domega_12_residual(pt: CheckPoint) -> float:
    """max |domega(u, v, w)| over u, v of one eigenspace type and w of a
    different type, the types taken from the projectors at p."""
    two_form = fundamental_two_form(pt)
    fp = pt.fp
    bases = {
        "+": fp.basis_plus,
        "-": np.conj(fp.basis_plus),
        "0": fp.basis_zero.astype(complex),
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


def met_residual(pt: CheckPoint) -> float:
    """Defect of: covariant derivatives of +type covectors along the
    0-eigenspace stay inside the +/- covector types.

    Builds sections theta_b(x) = Q(x) theta_b(p) of the +type covector
    bundle, with Q = g Pplus g^{-1} the covector projector, differentiates
    them at p by the product rule, and measures the 0-type component of
    nabla_{X_a} theta_b for a real basis X_a of ker F.  Vacuously zero when
    the structure has full rank.
    """
    fp, df = pt.fp, pt.dF
    if fp.rank == fp.m:
        return 0.0
    gm, ginv, f_mat = fp.gm, fp.ginv, fp.F
    # +type covectors are the lowerings of the -i tangent eigenspace
    thetas = gm @ np.conj(fp.basis_plus)
    # d(g Pminus g^-1) theta, with Pminus = -(F F - i F)/2
    dpminus = -0.5 * (df @ f_mat + f_mat @ df - 1j * df)
    dginv = -ginv @ pt.dg @ ginv
    dtheta = (pt.dg @ fp.Pminus @ ginv + gm @ dpminus @ ginv
              + gm @ fp.Pminus @ dginv) @ thetas

    gamma = pt.gamma
    qzero = gm @ fp.Pzero @ ginv
    worst = 0.0
    for x_vec in fp.basis_zero.T:
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


@np.errstate(all="ignore")
def theorem_suite(samples) -> TheoremSuiteReport:
    """Test the two harmonicity implications over a family of PHWC maps.

    For every sample point: (a) a parallel associated f-structure must come
    with vanishing tension; (b) so must an integrable one whose fundamental
    2-form has no (1,2) part and whose +type covectors satisfy the mixed
    covariant-derivative condition.  Hypotheses are measured, not assumed;
    in particular a Kaehler flag that contradicts the measured closedness
    residual of the target metric is itself reported as a counterexample,
    because every conclusion below relies on it; a NaN residual fails that
    gate too.  A point where the gate or a residual raises an arithmetic or
    geometry error is skipped with the error's type name as its reason, and
    the other points still run.  numpy's floating-point warnings are off:
    what overflows in numpy is an inf or NaN residual, not a warning.
    """
    records = []
    report = TheoremSuiteReport(records=records)
    for sample in samples:
        pts = [CheckPoint(sample.phi, sample.g, point, sample.h) for point
               in np.atleast_2d(np.asarray(sample.points, dtype=float))]
        share_pass(pts)
        for pt in pts:
            rec = SuiteRecord(sample=sample.name, point=list(pt.p),
                              status="ok", reasons=[], residuals={})
            records.append(rec)
            try:
                if sample.h.kaehler:
                    rec.residuals["kaehler"] = pt.target.kaehler
                    if not pt.target.kaehler <= KAEHLER_TOL:
                        rec.status = "counterexample"
                        rec.reasons.append("kaehler_flag_violation")
                        report.counterexamples += 1
                        continue
                pt.dF            # a skip reason is raised before any residual
                resid = {name: CHECKS[name][1](pt)[0]
                         for name in ("phwc", *DERIVATIVE_CHECKS)}
                resid["harmonic"] = CHECKS["tension"][1](pt)[0]
            except (NotPHWCAtPoint, RankDeficiencyAmbiguous, RankJumpOnStencil,
                    ArithmeticError, GeometryError) as err:
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
