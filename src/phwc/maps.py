"""Smooth maps into Hermitian charts and their residual checks.

A map phi: R^m -> C^n is a vector of expression trees, and its differential
is the one jet.Jet2 of a pass over its components: value (n,), first
partials ``grad`` (n, m) and second partials ``second`` (n, m, m), with a
leading point axis at a set of points.  Every residual below is evaluated
pointwise from second-order jets, or from first-order ones where it reads
no second partials (reading ``second`` of a first-order pass raises
HessianNotComputed).  Every residual of a PointData also takes the
PointData of a set of points and gives one value per point, from one numpy
call per quantity; pd[k] is point k of the set (geometry.MetricPoint).
The pseudo horizontal weak conformality condition comes in three
equivalent forms (coordinate Gram, isotropy through the dual metric,
commutator with the complex structure) that are kept as independent code
paths so they can cross-check each other.

Conventions for the complexified target tangent space: the frame is
(d/dz^1 .. d/dz^n, d/dzbar^1 .. d/dzbar^n); the real metric induced by the
Hermitian components h_{a bbar} extends complex-bilinearly to the block form
[[0, h/2], [h^T/2, 0]], and dually the coefficients h^{AB} of the 1-form
metric are [[0, 2 h^{-T}], [2 h^{-1}, 0]].  With the flat metric on C^1 this
gives h^{1 1bar} = 2, so z -> c z has dilation |c|^2 as it should.

All operations are pure functions of immutable inputs; point sweeps are
embarrassingly parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jet
from .geometry import (
    HermitianMetricField,
    HermitianPoint,
    MetricField,
    MetricPoint,
    TargetNotKaehler,
    _per_point,
    kept,
)
from .jet import Expr, Jet2, as_expr, eval_jet2

__all__ = [
    "DimensionMismatch",
    "SmoothMap",
    "PointData",
    "HWCReport",
    "TensionPoint",
    "differential",
    "phwc_residual_coord",
    "isotropy_residual",
    "phwc_residual_commutator",
    "hwc_report",
    "tension",
    "pluriharmonic_residual",
    "compose",
    "holomorphy_residual",
    "antiholomorphy_residual",
]


class DimensionMismatch(ValueError):
    pass


class SmoothMap:
    """phi: R^m -> C^n given by n expressions in m real variables."""

    def __init__(self, domain_dim: int, target_cdim: int, components):
        if len(components) != target_cdim:
            raise DimensionMismatch(
                f"{target_cdim} components expected, got {len(components)}")
        self.domain_dim = domain_dim
        self.target_cdim = target_cdim
        self.components = [as_expr(c) for c in components]

    def value(self, p) -> np.ndarray:
        """phi at p (m,), or at each row of p (N, m) as (N, n), from a
        first-order pass: values do not depend on the order."""
        return eval_jet2(self.components, p, 1).value

    def jets(self, p, order: int = 2) -> Jet2:
        """The jet of the components at p (m,) or at each row of p (N, m),
        from one pass, to first order when order is 1: value [..., a],
        grad [..., a, i] = d phi^a / d x^i, hess [..., a, i, j]."""
        return eval_jet2(self.components, p, order)


def differential(phi: SmoothMap, p, order: int = 2) -> Jet2:
    """phi's differential at p (m,) or at each row of p (N, m), from one
    pass, to first order when order is 1: SmoothMap.jets."""
    return phi.jets(p, order)


class PointData(MetricPoint):
    """phi, g and (optionally) the target metric h at a point p (m,), or at
    each point of a set p (N, m) with a leading point axis on every
    quantity.

    The MetricPoint of g at p plus one jet pass of phi, the Gram matrix and
    the HermitianPoint of h at phi(p).  Each attribute is kept
    (geometry.kept) and shared by every residual that reads it; one that
    fails keeps its error, which raises in those only.
    """

    def __init__(self, phi: SmoothMap, g: MetricField, p,
                 h: HermitianMetricField | None = None):
        super().__init__(g, p)
        self.phi, self.h = phi, h

    @kept
    def diff(self) -> Jet2:
        return differential(self.phi, self.p)

    @kept
    def gram(self) -> np.ndarray:
        """(2,0) Gram matrix M_ab = g^ij d_i phi^a d_j phi^b."""
        dphi = self.diff.grad
        return dphi @ self.ginv @ np.swapaxes(dphi, -1, -2)

    @kept
    def target(self) -> HermitianPoint:
        return HermitianPoint(self.h, self.diff.value)


def phwc_residual_coord(pd: PointData):
    """max_{a,b} | g^ij d_i phi^a d_j phi^b |; zero exactly on PHWC maps.
    A float at one point, an array over a point axis."""
    return _per_point(np.max(np.abs(pd.gram), axis=(-2, -1)))


def _frobenius(a: np.ndarray):
    """The Frobenius norm of a matrix, or one per matrix of a stack: the
    square root of re.re + im.im, each one matmul dot over the matrix
    flattened in C order, as np.linalg.norm computes it, bit for bit."""
    x = a.reshape(a.shape[:-2] + (1, -1))
    re, im = x.real, x.imag
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return _per_point(np.sqrt(sq[..., 0, 0]))


def isotropy_residual(pd: PointData):
    """Isotropy of V = span{(dphi)*(dz^a)} under the dual metric g*, at the
    point or over its point axis.

    Computes g(v_a, v_b) for the raised vectors v_a = g^{-1} dphi^a, which is
    the same Gram matrix as :func:`phwc_residual_coord` assembled through a
    different contraction path.
    """
    # columns are the raised covectors
    v = pd.ginv @ np.swapaxes(pd.diff.grad, -1, -2)
    gram = np.swapaxes(v, -1, -2) @ pd.gm @ v
    return _per_point(np.max(np.abs(gram), axis=(-2, -1)))


def phwc_residual_commutator(pd: PointData):
    """Frobenius norm of [dphi o (dphi)*, J] on the complexified target, at
    the point or over its point axis.

    The adjoint is taken with respect to g on the domain and the bilinear
    extension of the target metric; J acts as +i / -i on the (1,0) / (0,1)
    parts.
    """
    ginv, dphi = pd.ginv, pd.diff.grad
    d = np.concatenate([dphi, np.conj(dphi)], axis=-2)   # rows d/dz, d/dzbar
    n = pd.h.cdim
    hm = pd.target.hm
    gc = np.zeros(hm.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    gc[..., :n, n:] = 0.5 * hm
    gc[..., n:, :n] = 0.5 * np.swapaxes(hm, -1, -2)
    p_op = d @ ginv @ np.swapaxes(d, -1, -2) @ gc
    jmat = np.diag(np.concatenate([1j * np.ones(n), -1j * np.ones(n)]))
    return _frobenius(p_op @ jmat - jmat @ p_op)


@dataclass
class HWCReport:
    """Least-squares fit of the horizontal weak conformality equation.

    ``lambda_sq`` is the fitted squared dilation (clamped at zero), and
    ``defect`` the Frobenius misfit of g^ij dphi^A dphi^B against
    lambda^2 h^{AB} over all index types A, B.  A vanishing differential
    satisfies the equation by definition and reports (0, 0).
    """

    lambda_sq: float
    defect: float


def hwc_report(pd: PointData) -> HWCReport:
    """The HWCReport at pd's point, or with arrays over its point axis."""
    dphi = pd.diff.grad
    d = np.concatenate([dphi, np.conj(dphi)], axis=-2)  # rows d/dz, d/dzbar
    s = d @ pd.ginv @ np.swapaxes(d, -1, -2)
    # dual-metric coefficients h^{AB} on the frame (dz^a, dzbar^a)
    n = pd.h.cdim
    hinv = pd.target.hinv
    t = np.zeros(s.shape, dtype=complex)
    t[..., :n, n:] = 2.0 * np.swapaxes(hinv, -1, -2)
    t[..., n:, :n] = 2.0 * hinv
    tt = np.real(np.sum(t * np.conj(t), axis=(-2, -1)))
    lam = np.real(np.sum(s * np.conj(t), axis=(-2, -1))) / tt
    lam = np.where(0.0 > lam, 0.0, lam)
    return HWCReport(lambda_sq=_per_point(lam),
                     defect=_frobenius(s - lam[..., None, None] * t))


@dataclass
class TensionPoint:
    """Holomorphic components tau^a of the tension field at a point, or
    with a leading point axis at a set of points."""

    tau: np.ndarray  # (n,) complex

    @property
    def harmonic_residual(self):
        """max_a |tau^a|: a float at one point, an array over a point axis."""
        return _per_point(np.max(np.abs(self.tau), axis=-1, initial=0.0))

    def real_components(self) -> np.ndarray:
        """Real tangent components of tau, interleaved (re, im) per chart dim."""
        out = np.empty(self.tau.shape[:-1] + (2 * self.tau.shape[-1],))
        out[..., 0::2] = self.tau.real
        out[..., 1::2] = self.tau.imag
        return out


def tension(pd: PointData) -> TensionPoint:
    """tau^a = g^ij (d2_ij phi^a - Gamma^k_ij d_k phi^a) + Gamma^a_bc M_bc,
    at pd's point or over its point axis.

    The target symbols are the holomorphic Christoffels of a Kaehler metric;
    M is the (2,0) Gram matrix, so the correction term dies on PHWC maps.
    """
    if not pd.h.kaehler:
        raise TargetNotKaehler("tension requires a Kaehler-flagged target")
    return TensionPoint(pd.laplacian(pd.diff.grad, pd.diff.second)
                        + np.einsum("...abc,...bc->...a", pd.target.gamma,
                                    pd.gram))


def pluriharmonic_residual(pd: PointData):
    """max over components and (a, b) of | d2 phi / dz^a dzbar^b + correction |,
    at the point or over its point axis.

    phi is defined on the real chart of C^k (interleaved coordinates) and p
    is a chart point.  On a Kaehler source the mixed Hessian is already
    tensorial, so g and its symbols do not enter.  Without a target metric
    (pd.h is None) the correction is absent; a Kaehler target contributes
    Gamma^c_de d phi^d/dz^a d phi^e/dzbar^b, read from pd.target.
    """
    k = pd.phi.domain_dim // 2
    hess = jet.wirtinger(np.swapaxes(jet.wirtinger(pd.diff.second), -1, -2))
    resid = hess[..., k:, :k]      # d2 phi^c / dzbar^b dz^a at [c, b, a]
    if pd.h is not None:
        if not pd.h.kaehler:
            raise TargetNotKaehler("target correction requires a Kaehler metric")
        d = jet.wirtinger(pd.diff.grad)
        resid = resid + np.einsum("...cde,...da,...eb->...cba",
                                  pd.target.gamma, d[..., :k], d[..., k:])
    return _per_point(np.max(np.abs(resid), axis=(-3, -2, -1)))


def compose(psi: SmoothMap, phi: SmoothMap) -> SmoothMap:
    """Expression-level substitution psi o phi.

    ``psi`` must live on the real chart of phi's target: its variable 2a is
    re(phi^a) and 2a+1 is im(phi^a).  The composite is a first-class map, so
    every residual can be evaluated on it directly.
    """
    if psi.domain_dim != 2 * phi.target_cdim:
        raise DimensionMismatch(
            f"psi expects {psi.domain_dim} real variables but phi provides "
            f"{2 * phi.target_cdim}")
    mapping: dict[int, Expr] = {}
    for a, comp in enumerate(phi.components):
        mapping[2 * a] = jet.re(comp)
        mapping[2 * a + 1] = jet.im(comp)
    return SmoothMap(phi.domain_dim, psi.target_cdim,
                     [c.substitute(mapping) for c in psi.components])


def holomorphy_residual(psi: SmoothMap, z) -> float:
    """max |d psi^a / dzbar^b| at a chart point; zero iff psi is holomorphic
    to first order there."""
    x = HermitianMetricField.real_coords(z)
    d = jet.wirtinger(differential(psi, x).grad)
    return float(np.max(np.abs(d[:, psi.domain_dim // 2:])))


def antiholomorphy_residual(psi: SmoothMap, z) -> float:
    """max |d psi^a / dz^b| at a chart point."""
    x = HermitianMetricField.real_coords(z)
    d = jet.wirtinger(differential(psi, x).grad)
    return float(np.max(np.abs(d[:, :psi.domain_dim // 2])))
