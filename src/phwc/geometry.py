"""Metric data on the domain and on the target chart.

The domain carries a Riemannian metric given by an m x m grid of real-valued
expressions g_ij(x); the target is a single holomorphic chart of C^n with a
Hermitian component grid h_{a bbar}(z) written in the interleaved real
coordinates (re z^1, im z^1, ..., re z^n, im z^n).  At a point, MetricPoint
holds g, g^-1, Gamma and Laplace-Beltrami from one jet pass of g, and
HermitianPoint holds h, h^-1, its symbols and Kaehler residual from one of h.
Given a set of points (N, m) they hold the same with a leading point axis,
each checked, inverted and contracted in one numpy call; a target whose
components are all literals is checked and inverted once per field.  The
MetricPoints of K fields of one shape, each at its own point, share one
pass of their stacked component grids (share_metric).  The passes of g
and h stop at the gradient, which is all these quantities read.  Each
quantity of a point or a field is kept: built on first read, or the error
of POINT_ERRORS its build raised, which every later read raises again.
Fields are immutable and all operations pure, so sweeps can run concurrently.

Points where positivity fails abort with an error instead of being
regularised: a residual computed through a repaired metric would be
meaningless.
"""

from __future__ import annotations

import numpy as np

from . import jet
from .jet import Const, Expr, VariableIndexOutOfRange, as_expr, eval_jet2

__all__ = [
    "GeometryError",
    "MetricNotSPD",
    "MetricNotPD",
    "TargetNotKaehler",
    "SPD_EPS",
    "KAEHLER_TOL",
    "POINT_ERRORS",
    "kept",
    "MetricField",
    "MetricPoint",
    "HermitianMetricField",
    "HermitianPoint",
    "share_metric",
    "christoffel_domain",
    "christoffel_kaehler",
    "kaehler_residual",
    "laplace_beltrami",
]

# Smallest admissible eigenvalue for a metric at a queried point.
SPD_EPS = 1e-10

# A target flagged Kaehler whose closedness residual (HermitianPoint.kaehler)
# is not at most this carries a forged flag.
KAEHLER_TOL = 1e-10


class GeometryError(ValueError):
    pass


class MetricNotSPD(GeometryError):
    """Domain metric is not symmetric positive definite at the point."""


class MetricNotPD(GeometryError):
    """Hermitian metric is not positive definite (or not Hermitian) there."""


class TargetNotKaehler(GeometryError):
    """Operation requires the target metric's Kaehler flag."""


# Errors of an operation at a point: a failed check (the f-structure's skip
# reasons subclass GeometryError), a singular matrix, an arithmetic error of
# a jet pass (DivisionNearZero, OverflowError, ...) or a variable outside the
# domain.  A report records each on its point; none is fatal.
POINT_ERRORS = (GeometryError, np.linalg.LinAlgError, ArithmeticError,
                VariableIndexOutOfRange)


class kept:
    """A quantity of a point or a field: the method builds it on first read
    and the value is kept in the instance dict under its own name, which
    shadows this non-data descriptor, so plain assignment gives a value
    too.  An error of POINT_ERRORS that the build raises is kept and raised
    again, with a fresh traceback, on every later read; any other error
    propagates and is not kept."""

    def __init__(self, build):
        self.build, self.__doc__ = build, build.__doc__

    def __set_name__(self, owner, name):
        self.name, self.error = name, f"{name} error"

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        state = vars(obj)
        err = state.get(self.error)
        if err is not None:
            raise err.with_traceback(None)
        try:
            value = state[self.name] = self.build(obj)
        except POINT_ERRORS as exc:
            state[self.error] = exc
            raise
        return value


def _per_point(x):
    """x as a float at one point; over a point axis, the array of them."""
    return float(x) if np.ndim(x) == 0 else x


def _at(bad, p):
    """p at one point; over a point axis, the row of p at the first point
    where bad holds."""
    return p if np.ndim(bad) == 0 else np.asarray(p)[np.argmax(bad)]


def _inverse_checked(g: np.ndarray, what: str) -> np.ndarray:
    """g^-1 of g (n, n), or of each matrix of g (..., n, n), each checked
    against g g^-1 = Id."""
    ginv = np.linalg.inv(g)
    err = np.max(np.abs(g @ ginv - np.eye(g.shape[-1])), axis=(-2, -1))
    if not np.all(err <= 1e-12):   # a NaN fails too
        raise GeometryError(f"{what} inverse failed the g*g^-1 = Id check; "
                            "the matrix is too ill-conditioned")
    return ginv


def _real_part(values: np.ndarray, p) -> np.ndarray:
    """The real matrix of g's component values; raises MetricNotSPD naming
    the first entry (row by row, at the first point) that is not real."""
    bad = np.abs(values.imag) > 1e-12 * np.maximum(1.0, np.abs(values))
    if bad.any():
        *k, i, j = np.argwhere(bad)[0]
        raise MetricNotSPD(f"g_{i+1}{j+1} is not real at {p[tuple(k)]}")
    return values.real.copy()


def _check_spd(gm: np.ndarray, p) -> None:
    bad = ~(np.min(np.linalg.eigvalsh(gm), axis=-1) > SPD_EPS)   # or NaN
    if np.any(bad):
        raise MetricNotSPD(f"domain metric not SPD at {_at(bad, p)}")


def _check_hermitian_pd(hm: np.ndarray, z) -> np.ndarray:
    """Raise MetricNotPD, naming the first z where it fails, unless hm (n, n)
    or each matrix of hm (..., n, n) is Hermitian (to round-off) and its
    Hermitian part positive definite; returns the Hermitian part."""
    hmh = np.swapaxes(hm.conj(), -1, -2)
    size = np.max(np.abs(hm), axis=(-2, -1))
    scale = np.where(size > 1.0, size, 1.0)
    bad = np.max(np.abs(hm - hmh), axis=(-2, -1)) > 1e-10 * scale
    if np.any(bad):
        raise MetricNotPD(f"target metric is not Hermitian at z={_at(bad, z)}")
    herm = 0.5 * (hm + hmh)
    bad = ~(np.min(np.linalg.eigvalsh(herm), axis=-1) > SPD_EPS)   # or NaN
    if np.any(bad):
        raise MetricNotPD(
            f"target metric not positive definite at z={_at(bad, z)}")
    return herm


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

    def jets(self, p) -> jet.Jet2:
        """The first-order jet of the component grid at p (m,) or at each
        row of p (N, m), from one pass: value [..., i, j], grad
        [..., i, j, l].  A mirrored entry (j, i) is the root of (i, j), so
        the pass evaluates the upper triangle."""
        return eval_jet2(self.components, p, order=1)


def _row(value, k):
    """Row k of a quantity computed over a set of points."""
    return _per_point(value[k]) if isinstance(value, np.ndarray) else value[k]


def _share_rows(whole, parts, names) -> None:
    """Give each of parts, the lone objects of the points of whole in order,
    its row of each quantity of names that whole computes over the set, and
    of whole's jets once made.  A quantity whose computation raises one of
    POINT_ERRORS at some point gives no rows: each part computes it alone on
    first use, so the error lands on the points where it occurs, with the
    type and message it has there.  whole keeps the error, so the names
    after a failed jet pass raise it again at once."""
    for name in names:
        try:
            getattr(whole, name)
        except POINT_ERRORS:
            pass
    for name in ("_jets", *names):
        if name in vars(whole):
            value = vars(whole)[name]
            for k, part in enumerate(parts):
                vars(part)[name] = _row(value, k)


class MetricPoint:
    """g at a point p (m,), or at each point of a set p (N, m) with a
    leading point axis on every quantity, from one jet pass of its
    components: the checked matrix gm, its checked inverse ginv, its
    partials dg and the Levi-Civita symbols gamma, each kept, with the error
    of one that fails, which raises in its readers only.  A lone point may
    hold rows of a set (see maps.share_pass)."""

    def __init__(self, g: MetricField, p):
        self.g, self.p = g, np.asarray(p, dtype=float)

    @kept
    def _jets(self) -> jet.Jet2:
        return self.g.jets(self.p)

    @kept
    def gm(self) -> np.ndarray:
        gm = _real_part(self._jets.value, self.p)
        _check_spd(gm, self.p)
        return gm

    @kept
    def ginv(self) -> np.ndarray:
        return _inverse_checked(self.gm, "domain metric")

    @kept
    def dg(self) -> np.ndarray:
        """The partials d_l g_ij, indexed [..., l, i, j]."""
        return np.ascontiguousarray(np.moveaxis(self._jets.grad.real, -1, -3))

    @kept
    def gamma(self) -> np.ndarray:
        """Levi-Civita symbols, indexed [..., k, i, j]; see
        christoffel_domain."""
        dg = self.dg
        sym = (np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg)
               - np.einsum("...lij->...lij", dg))
        return 0.5 * np.einsum("...kl,...lij->...kij", self.ginv, sym)

    def laplacian(self, grad, hess):
        """Laplace-Beltrami g^ij (hess_ij - Gamma^k_ij grad_k) of the jets
        grad (..., m), hess (..., m, m) of a scalar or of map components,
        after the point axis of a set of points."""
        at = "z" if self.p.ndim == 2 else ""
        corr = np.einsum(f"{at}kij,{at}...k->{at}...ij", self.gamma, grad)
        return np.einsum(f"{at}ij,{at}...ij->{at}...", self.ginv, hess - corr)


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

    @kept
    def constant_matrix(self) -> np.ndarray | None:
        """The checked matrix, built once, when every component is a
        literal; None otherwise.  A constant metric has zero symbols."""
        if all(isinstance(e, Const) for row in self.components for e in row):
            return _check_hermitian_pd(
                np.array([[e.value for e in row] for row in self.components]),
                np.zeros(self.cdim, dtype=complex))
        return None

    @kept
    def _constant_inverse(self) -> np.ndarray:
        return _inverse_checked(self.constant_matrix, "target metric")

    def jets(self, z) -> jet.Jet2:
        """The first-order jet of the component grid at the chart point z
        (n,) or at each row of z (N, n), from one pass: value [..., a, b],
        grad [..., a, b, l] in the interleaved real coordinates."""
        return eval_jet2(self.components, self.real_coords(z), order=1)


class HermitianPoint:
    """h at a chart point z (n,), or at each point of a set z (N, n) with a
    leading point axis on every quantity, from one jet pass: the checked
    symmetrised hm, checked hinv, dh[..., b, c, d] = d_{z^b} h_{c dbar},
    gamma (christoffel_kaehler) and kaehler (kaehler_residual), each kept
    as MetricPoint's are, with the error of one that fails.  A constant field
    makes no pass: every point reads its one checked matrix and inverse,
    and its symbols and Kaehler residual are zero."""

    def __init__(self, h: HermitianMetricField, z):
        self.h, self.z = h, z

    @kept
    def _jets(self) -> jet.Jet2:
        return self.h.jets(self.z)

    @kept
    def _constant(self) -> bool:
        # a literal matrix that fails its check is checked at each point,
        # so each raises with its own z
        try:
            return self.h.constant_matrix is not None
        except GeometryError:
            return False

    def _each(self, matrix: np.ndarray) -> np.ndarray:
        """A read-only view of matrix at every point."""
        return np.broadcast_to(matrix, np.shape(self.z)[:-1] + matrix.shape)

    @kept
    def hm(self) -> np.ndarray:
        if self._constant:
            return self._each(self.h.constant_matrix)
        return _check_hermitian_pd(self._jets.value, self.z)

    @kept
    def hinv(self) -> np.ndarray:
        if self._constant:
            return self._each(self.h._constant_inverse)
        return _inverse_checked(self.hm, "target metric")

    @kept
    def dh(self) -> np.ndarray:
        if self._constant:
            return self._each(np.zeros((self.h.cdim,) * 3, dtype=complex))
        # d_{z^b} h_{c dbar} at [..., c, d, b]
        d_z = jet.wirtinger(self._jets.grad)[..., :self.h.cdim]
        return np.ascontiguousarray(np.moveaxis(d_z, -1, -3))

    @kept
    def gamma(self) -> np.ndarray:
        return np.einsum("...bcd,...da->...abc", self.dh, self.hinv)

    @kept
    def kaehler(self):
        return _per_point(np.max(np.abs(
            self.dh - np.einsum("...abc->...bac", self.dh)), axis=(-3, -2, -1)))


# The quantities of HermitianPoint that maps.share_pass computes once over
# a set of points.
TARGET_ROWS = ("hm", "hinv", "gamma", "kaehler")


def share_metric(points: list[MetricPoint]) -> None:
    """Give each of points, MetricPoints at one point each, its rows of the
    checked gm and ginv of one MetricPoint over all of them, whose field
    stacks the component grids of their fields (jet.stack), which must be
    of one shape; a field stacked with itself gives its own bits, and a
    mirrored entry stays one node.  Errors stay on their points, as
    _share_rows says."""
    dim = points[0].g.dim
    flat = jet.stack([[e for row in pt.g.components for e in row]
                      for pt in points])
    g = MetricField(dim, [flat[i * dim:(i + 1) * dim] for i in range(dim)])
    _share_rows(MetricPoint(g, np.array([pt.p for pt in points])), points,
                ("gm", "ginv"))


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
    return _per_point(at.laplacian(jf.grad, jf.hess).real)
