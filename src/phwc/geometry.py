"""Metric data on the domain and on the target chart.

The domain carries a Riemannian metric given by an m x m grid of real-valued
expressions g_ij(x); the target is a single holomorphic chart of C^n with a
Hermitian component grid h_{a bbar}(z) written in the interleaved real
coordinates (re z^1, im z^1, ..., re z^n, im z^n).  At a point, MetricPoint
holds g, g^-1, Gamma and Laplace-Beltrami from one jet pass of g, and
HermitianPoint holds h, h^-1, its symbols and Kaehler residual from one of h.
Fields are immutable and all operations pure, so sweeps can run concurrently.

Points where positivity fails abort with an error instead of being
regularised: a residual computed through a repaired metric would be
meaningless.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import jet
from .jet import Const, Expr, VariableIndexOutOfRange, as_expr, eval_jet2

__all__ = [
    "GeometryError",
    "MetricNotSPD",
    "MetricNotPD",
    "TargetNotKaehler",
    "SPD_EPS",
    "MetricField",
    "MetricPoint",
    "HermitianMetricField",
    "HermitianPoint",
    "hermitian_points",
    "christoffel_domain",
    "christoffel_kaehler",
    "kaehler_residual",
    "laplace_beltrami",
]

# Smallest admissible eigenvalue for a metric at a queried point.
SPD_EPS = 1e-10

# Errors a jet pass raises at a point.  A pass over a set of points that
# raises one leaves each point to make its own pass on first use, so the
# error lands on the points where it occurs, with the message it has there.
PASS_ERRORS = (ArithmeticError, VariableIndexOutOfRange)


class GeometryError(ValueError):
    pass


class MetricNotSPD(GeometryError):
    """Domain metric is not symmetric positive definite at the point."""


class MetricNotPD(GeometryError):
    """Hermitian metric is not positive definite (or not Hermitian) there."""


class TargetNotKaehler(GeometryError):
    """Operation requires the target metric's Kaehler flag."""


def _inverse_checked(g: np.ndarray, what: str) -> np.ndarray:
    ginv = np.linalg.inv(g)
    if np.max(np.abs(g @ ginv - np.eye(len(g)))) > 1e-12:
        raise GeometryError(f"{what} inverse failed the g*g^-1 = Id check; "
                            "the matrix is too ill-conditioned")
    return ginv


def _real_part(values: np.ndarray, p) -> np.ndarray:
    """The real matrix of g's component values; raises MetricNotSPD naming
    the first entry (row by row) that is not real."""
    bad = np.abs(values.imag) > 1e-12 * np.maximum(1.0, np.abs(values))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise MetricNotSPD(f"g_{i+1}{j+1} is not real at {p}")
    return values.real.copy()


def _check_spd(gm: np.ndarray, p) -> None:
    if np.min(np.linalg.eigvalsh(gm)) <= SPD_EPS:
        raise MetricNotSPD(f"domain metric not SPD at {p}")


def _check_hermitian_pd(hm: np.ndarray, z) -> None:
    """Raise MetricNotPD unless hm is Hermitian (to round-off) and its
    Hermitian part positive definite."""
    scale = max(1.0, np.max(np.abs(hm)))
    if np.max(np.abs(hm - hm.conj().T)) > 1e-10 * scale:
        raise MetricNotPD(f"target metric is not Hermitian at z={z}")
    if np.min(np.linalg.eigvalsh(0.5 * (hm + hm.conj().T))) <= SPD_EPS:
        raise MetricNotPD(f"target metric not positive definite at z={z}")


class MetricField:
    """Riemannian metric g_ij(x) on R^m given by expressions.

    The component grid is symmetrised on construction: entry (i, j) with
    i <= j is authoritative and mirrored to (j, i).
    """

    def __init__(self, dim: int, components):
        self.dim = dim
        grid = [[as_expr(components[i][j]) for j in range(dim)] for i in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                grid[j][i] = grid[i][j]
        self.components = grid

    @classmethod
    def euclidean(cls, dim: int) -> "MetricField":
        return cls(dim, [[Const(1.0 if i == j else 0.0) for j in range(dim)]
                         for i in range(dim)])

    @classmethod
    def diagonal(cls, entries) -> "MetricField":
        dim = len(entries)
        return cls(dim, [[as_expr(entries[i]) if i == j else Const(0.0)
                          for j in range(dim)] for i in range(dim)])

    @classmethod
    def conformal(cls, dim: int, factor) -> "MetricField":
        factor = as_expr(factor)
        return cls(dim, [[factor if i == j else Const(0.0) for j in range(dim)]
                         for i in range(dim)])

    def matrix(self, p) -> np.ndarray:
        """g(p) as a real SPD matrix; raises MetricNotSPD otherwise."""
        return MetricPoint(self, p).gm

    def jets(self, p):
        """Grid of jets of the components at p (m,) or at each row of p
        (N, m), from one pass; the mirrored entries (j, i) share the jet of
        (i, j)."""
        upper = [(i, j) for i in range(self.dim) for j in range(i, self.dim)]
        jets = dict(zip(upper, eval_jet2(
            [self.components[i][j] for i, j in upper], p)))
        return [[jets[min(i, j), max(i, j)] for j in range(self.dim)]
                for i in range(self.dim)]


def _grid_arrays(grid):
    """Values [..., i, j] and gradients [..., i, j, l] of an n x n grid of
    jets."""
    n = len(grid)
    values = np.stack([j.value for row in grid for j in row], -1)
    grads = np.stack([j.grad for row in grid for j in row], -2)
    return (values.reshape(values.shape[:-1] + (n, n)),
            grads.reshape(grads.shape[:-2] + (n, n, grads.shape[-1])))


def _share(objects, evaluate, points) -> None:
    """Give each object its slice, as ``_jets``, of one pass
    ``evaluate(points)`` over all their points; a pass that raises one of
    PASS_ERRORS gives none, and each object evaluates alone on first use."""
    try:
        arrays = evaluate(np.asarray(points))
    except PASS_ERRORS:
        return
    for obj, jets in zip(objects, zip(*arrays)):
        obj._jets = jets


class MetricPoint:
    """g at one point p from one jet pass of its components: the checked
    matrix gm, its checked inverse ginv and the Levi-Civita symbols gamma,
    each computed on first use; one that fails raises in its readers only.
    The pass may be a slice of one over a set of points (see
    maps.share_pass)."""

    def __init__(self, g: MetricField, p):
        self.g, self.p = g, np.asarray(p, dtype=float)

    @cached_property
    def _jets(self):
        return _grid_arrays(self.g.jets(self.p))

    @cached_property
    def gm(self) -> np.ndarray:
        gm = _real_part(self._jets[0], self.p)
        _check_spd(gm, self.p)
        return gm

    @cached_property
    def ginv(self) -> np.ndarray:
        return _inverse_checked(self.gm, "domain metric")

    @cached_property
    def gamma(self) -> np.ndarray:
        """Levi-Civita symbols, indexed [k, i, j]; see christoffel_domain."""
        # d_l g_ij at [l, i, j]
        dg = np.ascontiguousarray(self._jets[1].real.transpose(2, 0, 1))
        sym = (np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg)
               - np.einsum("lij->lij", dg))
        return 0.5 * np.einsum("kl,lij->kij", self.ginv, sym)

    def laplacian(self, grad, hess):
        """Laplace-Beltrami g^ij (hess_ij - Gamma^k_ij grad_k) of the jets
        grad (..., m), hess (..., m, m) of a scalar or of map components."""
        corr = np.einsum("kij,...k->...ij", self.gamma, grad)
        return np.einsum("ij,...ij->...", self.ginv, hess - corr)


class HermitianMetricField:
    """Hermitian metric h_{a bbar}(z) on a chart of C^n.

    Component expressions use the interleaved real coordinates of the chart.
    ``kaehler`` is a *claim*; honest fields can be validated against
    :func:`kaehler_residual` (the command-line driver does so for every
    manifest that sets the flag, and the theorem suite re-validates at each
    sampled point).
    """

    def __init__(self, cdim: int, components, kaehler: bool = False):
        self.cdim = cdim
        self.components = [[as_expr(components[a][b]) for b in range(cdim)]
                           for a in range(cdim)]
        self.kaehler = bool(kaehler)

    @classmethod
    def flat(cls, cdim: int) -> "HermitianMetricField":
        return cls(cdim, [[Const(1.0 if a == b else 0.0) for b in range(cdim)]
                          for a in range(cdim)], kaehler=True)

    @classmethod
    def from_potential(cls, potential: Expr, cdim: int) -> "HermitianMetricField":
        """Metric h_{a bbar} = d^2 K / dz^a dzbar^b of a real potential K.

        The potential is an expression in the interleaved real chart
        variables; its mixed Wirtinger Hessian is built symbolically, so
        the resulting field is exactly Kaehler wherever it is positive
        definite and the flag is set honestly.
        """
        half = Const(0.5)
        ihalf = Const(0.5j)

        def d_z(e: Expr, a: int) -> Expr:
            return half * jet.differentiate(e, 2 * a) \
                - ihalf * jet.differentiate(e, 2 * a + 1)

        def d_zbar(e: Expr, b: int) -> Expr:
            return half * jet.differentiate(e, 2 * b) \
                + ihalf * jet.differentiate(e, 2 * b + 1)

        comps = [[d_zbar(d_z(potential, a), b) for b in range(cdim)]
                 for a in range(cdim)]
        return cls(cdim, comps, kaehler=True)

    @staticmethod
    def real_coords(z) -> np.ndarray:
        """Interleave complex chart points (..., n) into real coordinates
        (..., 2n)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        x = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
        x[..., 0::2] = z.real
        x[..., 1::2] = z.imag
        return x

    def matrix(self, z) -> np.ndarray:
        """h(z) as a Hermitian PD matrix; raises MetricNotPD otherwise."""
        return HermitianPoint(self, z).hm

    @cached_property
    def constant_matrix(self) -> np.ndarray | None:
        """The checked matrix, built once, when every component is a
        literal; None otherwise.  A constant metric has zero symbols."""
        if all(isinstance(e, Const) for row in self.components for e in row):
            return self.matrix(np.zeros(self.cdim, dtype=complex))
        return None

    def jets(self, z):
        """Grid of jets of the components at the chart point z (n,) or at
        each row of z (N, n), from one pass."""
        flat = eval_jet2([e for row in self.components for e in row],
                         self.real_coords(z))
        return [flat[a * self.cdim:(a + 1) * self.cdim]
                for a in range(self.cdim)]


class HermitianPoint:
    """h at z from one jet pass, and from it the checked symmetrised hm,
    checked hinv, dh[b, c, d] = d_{z^b} h_{c dbar}, gamma
    (christoffel_kaehler) and kaehler (kaehler_residual), each on first use;
    one that fails raises in its readers only."""

    def __init__(self, h: HermitianMetricField, z):
        self.h, self.z = h, z

    @cached_property
    def _jets(self):
        return _grid_arrays(self.h.jets(self.z))

    @cached_property
    def hm(self) -> np.ndarray:
        hm = self._jets[0]
        _check_hermitian_pd(hm, self.z)
        return 0.5 * (hm + hm.conj().T)

    @cached_property
    def hinv(self) -> np.ndarray:
        return _inverse_checked(self.hm, "target metric")

    @cached_property
    def dh(self) -> np.ndarray:
        d_z = jet.wirtinger(self._jets[1])[..., :self.h.cdim]     # [c, d, b]
        return np.ascontiguousarray(np.moveaxis(d_z, -1, 0))

    @cached_property
    def gamma(self) -> np.ndarray:
        return np.einsum("bcd,da->abc", self.dh, self.hinv)

    @cached_property
    def kaehler(self) -> float:
        return float(np.max(np.abs(self.dh - np.einsum("abc->bac", self.dh))))


def hermitian_points(h: HermitianMetricField, zs) -> list[HermitianPoint]:
    """HermitianPoint of h at each chart point of zs (N, n), all from one
    jet pass when it succeeds."""
    points = [HermitianPoint(h, z) for z in zs]
    _share(points, lambda z: _grid_arrays(h.jets(z)), zs)
    return points


def christoffel_domain(g: MetricField, p) -> np.ndarray:
    """Levi-Civita symbols Gamma^k_ij = g^kl (d_i g_lj + d_j g_li - d_l g_ij)/2,
    indexed [k, i, j] and symmetric in (i, j)."""
    return MetricPoint(g, p).gamma


def christoffel_kaehler(h: HermitianMetricField, z) -> np.ndarray:
    """Holomorphic symbols Gamma^a_{bc} = h^{a dbar} d_{z^b} h_{c dbar},
    indexed [a, b, c].

    Valid for Kaehler metrics, where they are symmetric in (b, c); the raw
    formula is evaluated in whatever holomorphic coordinates the chart uses.
    """
    return HermitianPoint(h, z).gamma


def kaehler_residual(h: HermitianMetricField, z) -> float:
    """max_{a,b,c} | d_{z^a} h_{b cbar} - d_{z^b} h_{a cbar} |.

    Zero exactly when the associated 2-form is closed, i.e. the metric is
    Kaehler on the chart.
    """
    return HermitianPoint(h, z).kaehler


def laplace_beltrami(f: Expr, at: MetricPoint) -> float:
    """Laplace-Beltrami g^ij (d2_ij f - Gamma^k_ij d_k f) of a real scalar."""
    jf = eval_jet2(f, at.p)
    return float(at.laplacian(jf.grad, jf.hess).real)
