"""Metric data on the domain and on the target chart.

The domain carries a Riemannian metric given by an m x m grid of real-valued
expressions g_ij(x); the target is a single holomorphic chart of C^n with a
Hermitian component grid h_{a bbar}(z) written in the interleaved real
coordinates (re z^1, im z^1, ..., re z^n, im z^n).  Both metric types are
immutable and all operations are pure, so point sweeps can run concurrently
over shared fields.

Points where positivity fails abort with an error instead of being
regularised: a residual computed through a repaired metric would be
meaningless.
"""

from __future__ import annotations

import numpy as np

from . import jet
from .jet import Const, Expr, as_expr, eval_jet2

__all__ = [
    "GeometryError",
    "MetricNotSPD",
    "MetricNotPD",
    "TargetNotKaehler",
    "SourceNotKaehler",
    "SPD_EPS",
    "MetricField",
    "HermitianMetricField",
    "christoffel_domain",
    "christoffel_kaehler",
    "kaehler_residual",
    "laplace_beltrami",
]

# Smallest admissible eigenvalue for a metric at a queried point.
SPD_EPS = 1e-10


class GeometryError(ValueError):
    pass


class MetricNotSPD(GeometryError):
    """Domain metric is not symmetric positive definite at the point."""


class MetricNotPD(GeometryError):
    """Hermitian metric is not positive definite (or not Hermitian) there."""


class TargetNotKaehler(GeometryError):
    """Operation requires the target metric's Kaehler flag."""


class SourceNotKaehler(GeometryError):
    """Operation requires a Kaehler structure on the source chart."""


def _inverse_checked(g: np.ndarray, what: str) -> np.ndarray:
    ginv = np.linalg.inv(g)
    if np.max(np.abs(g @ ginv - np.eye(len(g)))) > 1e-12:
        raise GeometryError(f"{what} inverse failed the g*g^-1 = Id check; "
                            "the matrix is too ill-conditioned")
    return ginv


def _real_component(v: complex, i: int, j: int, p) -> float:
    if abs(v.imag) > 1e-12 * max(1.0, abs(v)):
        raise MetricNotSPD(f"g_{i+1}{j+1} is not real at {p}")
    return v.real


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
        p = np.asarray(p, dtype=float)
        g = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            for j in range(i, self.dim):
                g[i, j] = g[j, i] = _real_component(
                    eval_jet2(self.components[i][j], p).value, i, j, p)
        _check_spd(g, p)
        return g

    def inverse(self, p) -> np.ndarray:
        return _inverse_checked(self.matrix(p), "domain metric")

    def jets(self, p):
        """Grid of jets of the components (for metric derivatives); the
        mirrored entries (j, i) share the jet of (i, j)."""
        p = np.asarray(p, dtype=float)
        grid = [[None] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(i, self.dim):
                grid[i][j] = grid[j][i] = eval_jet2(self.components[i][j], p)
        return grid


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
        """Interleave a complex chart point into real coordinates."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        x = np.empty(2 * len(z))
        x[0::2] = z.real
        x[1::2] = z.imag
        return x

    def matrix(self, z) -> np.ndarray:
        """h(z) as a Hermitian PD matrix; raises MetricNotPD otherwise."""
        x = self.real_coords(z)
        h = np.empty((self.cdim, self.cdim), dtype=complex)
        for a in range(self.cdim):
            for b in range(self.cdim):
                h[a, b] = eval_jet2(self.components[a][b], x).value
        _check_hermitian_pd(h, z)
        return 0.5 * (h + h.conj().T)

    def jets(self, z):
        x = self.real_coords(z)
        return [[eval_jet2(self.components[a][b], x) for b in range(self.cdim)]
                for a in range(self.cdim)]


def _hermitian_jets(h: HermitianMetricField, z):
    """h(z) and dh[b, c, d] = d_{z^b} h_{c dbar} from one jet pass."""
    jets = h.jets(z)
    hm = np.array([[j.value for j in row] for row in jets], dtype=complex)
    dh = np.array([[[jet.dz(j, b) for j in row] for row in jets]
                   for b in range(h.cdim)], dtype=complex)
    return hm, dh


def _inverse_and_christoffel(g: MetricField, p):
    """g(p)^-1 and the Levi-Civita symbols from one jet pass of g, with the
    checks of MetricField.matrix and MetricField.inverse."""
    p = np.asarray(p, dtype=float)
    m = g.dim
    jets = g.jets(p)
    gm = np.empty((m, m))
    dg = np.empty((m, m, m))  # dg[l, i, j] = d_l g_ij
    for i in range(m):
        for j in range(i, m):
            gm[i, j] = gm[j, i] = _real_component(jets[i][j].value, i, j, p)
            dg[:, i, j] = dg[:, j, i] = jets[i][j].grad.real
    _check_spd(gm, p)
    ginv = _inverse_checked(gm, "domain metric")
    sym = (np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg)
           - np.einsum("lij->lij", dg))
    return ginv, 0.5 * np.einsum("kl,lij->kij", ginv, sym)


def christoffel_domain(g: MetricField, p) -> np.ndarray:
    """Levi-Civita symbols Gamma^k_ij = g^kl (d_i g_lj + d_j g_li - d_l g_ij)/2,
    indexed [k, i, j] and symmetric in (i, j)."""
    return _inverse_and_christoffel(g, p)[1]


def christoffel_kaehler(h: HermitianMetricField, z) -> np.ndarray:
    """Holomorphic symbols Gamma^a_{bc} = h^{a dbar} d_{z^b} h_{c dbar},
    indexed [a, b, c].

    Valid for Kaehler metrics, where they are symmetric in (b, c); the raw
    formula is evaluated in whatever holomorphic coordinates the chart uses.
    """
    hm, dh = _hermitian_jets(h, z)
    _check_hermitian_pd(hm, z)
    hinv = _inverse_checked(hm, "target metric")  # hinv[d, a]: h_{c dbar} h^{dbar a}
    return np.einsum("bcd,da->abc", dh, hinv)


def kaehler_residual(h: HermitianMetricField, z) -> float:
    """max_{a,b,c} | d_{z^a} h_{b cbar} - d_{z^b} h_{a cbar} |.

    Zero exactly when the associated 2-form is closed, i.e. the metric is
    Kaehler on the chart.
    """
    _, dh = _hermitian_jets(h, z)
    return float(np.max(np.abs(dh - np.einsum("abc->bac", dh))))


def laplace_beltrami(f: Expr, g: MetricField, p) -> float:
    """Laplace-Beltrami of a real scalar: g^ij (d2_ij f - Gamma^k_ij d_k f)."""
    p = np.asarray(p, dtype=float)
    jf = eval_jet2(f, p)
    ginv, gamma = _inverse_and_christoffel(g, p)
    hess = jf.hess
    corr = np.einsum("kij,k->ij", gamma, jf.grad)
    val = np.einsum("ij,ij->", ginv, hess - corr)
    return float(val.real)
