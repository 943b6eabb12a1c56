"""Tension-field gradient flow on a flat torus grid.

Maps live on the uniform grid of the torus [0, 2pi)^m with values in a
target chart C^n; derivatives are second-order central stencils with
periodic wrap-around.  The flow is explicit Euler on du/dt = tau(u) with an
energy backtracking safeguard: a step that increases the Dirichlet energy is
retried with half the step size, so accepted steps are always non-increasing
in energy.

The stencils run on the float-pair view of each state (re, im side by side,
shape dims + (2n,)), stacked over the axes, and divide by the grid step as a
float multiply by its reciprocal.  numpy divides a complex value by c + 0j
as (re + im*0) * (1/c) and (im - re*0) * (1/c), so for finite values the
multiply gives the bits of complex stencils with that division.  Only the
sign of an exact zero can differ, and no nonzero value depends on it.  Each
axis is scaled by its own reciprocal as a Python float: the element
operation of a broadcast array of the reciprocals, at less cost per call.

On a constant target metric c on C^1 the energy density is read off the
float pairs as sum_i ((c re) re + (c im) im), over the axes in order.  That
is the arithmetic of the einsum kept for n >= 2, bit for bit: it multiplies
c + 0j by d_i u first, where the zero imaginary part adds only signed
zeros, then by conj(d_i u), whose real part is (c re) re + (c im) im, and
accumulates the axes in order.  For n, m >= 2 neither summing the axes
first nor the components first reproduces the einsum's sums, so those
targets keep it.

The domain is restricted to flat tori; curvature enters only through the
target metric.  Node updates inside a step are plain array arithmetic and
data-parallel; steps are sequential.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .geometry import (POINT_ERRORS, HermitianMetricField, HermitianPoint,
                       TargetNotKaehler)
from .jet import Const, Expr, Var, exp as jexp
from .maps import SmoothMap

__all__ = [
    "StepSizeUnderflow",
    "GridMap",
    "FlowConfig",
    "dirichlet_energy",
    "discrete_tension",
    "run_flow",
    "stable_dt_bound",
    "discrete_phwc_residual",
    "grid_to_smooth_map",
    "node_coordinates",
    "save_snapshot",
]

MAX_HALVINGS = 20
COEF_TOL = 1e-13     # grid_to_smooth_map drops smaller Fourier coefficients


class StepSizeUnderflow(RuntimeError):
    """Backtracking halved the step size MAX_HALVINGS times without finding
    an energy-non-increasing step; the flow has stalled."""


class GridMap:
    """Samples of a map torus^m -> C^n on a uniform periodic grid.

    ``values`` has shape dims + (n,); node (j1, .., jm) sits at the point
    (2 pi j1 / N1, .., 2 pi jm / Nm).  It is a read-only view, so the
    shifts, gradients and target pass a state keeps cannot go stale.  The
    stencil pass runs once, on construction: every state of a flow needs
    its gradients for the energy.
    """

    def __init__(self, values):
        values = np.ascontiguousarray(values, dtype=complex).view()
        values.flags.writeable = False
        if values.ndim < 2 or 0 in values.shape:
            raise ValueError("values must have shape dims + (n,), with no "
                             "empty axis")
        v = values.view(float)
        if not np.isfinite(v).all():
            raise ValueError("grid values must be finite")
        neighbours, half, _ = _stencil(values.shape[:-1])
        # every index is in range, so "wrap", cheaper than "raise", takes
        # the same rows
        shifts = v.reshape(-1, v.shape[-1]).take(neighbours, axis=0,
                                                 mode="wrap")
        grads = shifts[0] - shifts[1]
        for i, scale in half:
            grads[i] *= scale
        shifts.flags.writeable = grads.flags.writeable = False
        self.values, self._shifts, self._grads = values, shifts, grads
        self._target = None

    @property
    def dims(self):
        return self.values.shape[:-1]

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    @property
    def m(self) -> int:
        return self.values.ndim - 1

    @property
    def cell_volume(self) -> float:
        return _cell_volume(self.dims)

    @property
    def gradients(self):
        """Central differences along every axis, stacked: a read-only
        complex array of shape (m,) + dims + (n,)."""
        return self._grads.view(complex)

    def target_point(self, h: HermitianMetricField) -> HermitianPoint:
        """One HermitianPoint of h over all nodes in C order, kept for the
        target it was built for, so energy and tension of a state share its
        pass over the grid."""
        if self._target is None or self._target.h is not h:
            self._target = HermitianPoint(h, self.values.reshape(-1, self.n))
        return self._target

    @classmethod
    def from_function(cls, dims, fn) -> "GridMap":
        """Sample fn(x1, .., xm) -> scalar or vector on the grid."""
        out = np.asarray(fn(*node_coordinates(dims)), dtype=complex)
        if out.shape == tuple(dims):
            out = out[..., np.newaxis]
        return cls(out)


def node_coordinates(dims) -> list[np.ndarray]:
    """The coordinates of the nodes of a GridMap of shape dims, one array
    of shape dims per axis."""
    axes = [np.arange(N) * (2 * np.pi / N) for N in dims]
    return np.meshgrid(*axes, indexing="ij")


@cache
def _spacing(dims) -> tuple:
    return tuple(2 * np.pi / N for N in dims)


@cache
def _cell_volume(dims) -> float:
    return float(np.prod(_spacing(dims)))


@cache
def _stencil(dims) -> tuple:
    """For a grid of shape dims: the C-order index of the periodic
    neighbours of each node along each axis, shape (2, m) + dims, forward
    then back; and 1/(2h) and 1/h^2 as (axis, float) pairs that scale each
    axis of a stack by its own."""
    m = len(dims)
    ids = np.arange(np.prod(dims, dtype=int)).reshape(dims)
    neighbours = np.array([[np.roll(ids, step, i) for i in range(m)]
                           for step in (-1, 1)])
    neighbours.flags.writeable = False
    steps = _spacing(dims)
    return (neighbours, tuple(enumerate(1.0 / (2 * h) for h in steps)),
            tuple(enumerate(1.0 / h**2 for h in steps)))


def _laplacian(u: GridMap):
    _, _, square = _stencil(u.dims)
    terms = u._shifts[0] - 2 * u.values.view(float)
    terms += u._shifts[1]
    for i, scale in square:
        terms[i] *= scale
    lap = terms[0]
    for term in terms[1:]:
        lap += term
    return lap.view(complex)


def _at_nodes(u: GridMap, h: HermitianMetricField, name: str) -> np.ndarray:
    """The quantity name of HermitianPoint (hm or gamma) at every node,
    shape dims + its own, from the state's one HermitianPoint over all
    nodes.  Where that raises, the nodes are taken alone in C order, so the
    error is the one the first failing node raises."""
    try:
        rows = getattr(u.target_point(h), name)
    except POINT_ERRORS:
        rows = np.array([getattr(HermitianPoint(h, z), name)
                         for z in u.values.reshape(-1, u.n)])
    return rows.reshape(u.dims + rows.shape[1:])


def dirichlet_energy(u: GridMap, h: HermitianMetricField) -> float:
    """E = 1/2 sum_nodes sum_i h_{a bbar}(u) d_i u^a conj(d_i u^b) * cellvol."""
    hm = h.constant_matrix
    if hm is not None and u.n == 1:
        # the einsum's density, off the float pairs: see the module notes
        c, g = float(hm[0, 0].real), u._grads
        pairs = g * c
        pairs *= g
        terms = pairs[..., 0] + pairs[..., 1]
        density = terms[0]
        for term in terms[1:]:
            density += term
        return float(0.5 * density.sum() * u.cell_volume)
    grads = u.gradients
    if hm is not None:
        density = np.einsum("ab,i...a,i...b->...", hm, grads, np.conj(grads))
    else:
        hm = _at_nodes(u, h, "hm")
        # stacked matmuls round each node as g[idx] @ hm[idx] @ conj(g[idx])
        density = sum((g[..., None, :] @ hm @ np.conj(g)[..., None])[..., 0, 0]
                      for g in grads)
    return float(0.5 * density.real.sum() * u.cell_volume)


def discrete_tension(u: GridMap, h: HermitianMetricField) -> np.ndarray:
    """Per-node tau^a = Lap u^a + Gamma^a_bc(u) sum_i d_i u^b d_i u^c.

    For a flat target this is exactly the compact second-order Laplacian.
    """
    if not h.kaehler:
        raise TargetNotKaehler("the flow needs a Kaehler-flagged target")
    tau = _laplacian(u)
    if h.constant_matrix is not None:
        return tau  # constant metric, vanishing symbols
    gram = sum(np.einsum("...b,...c->...bc", g, g) for g in u.gradients)
    tau += np.einsum("...abc,...bc->...a", _at_nodes(u, h, "gamma"), gram)
    return tau


def stable_dt_bound(dims) -> float:
    """Flat-target stability bound h_min^2 / (2m) of explicit Euler on the
    torus grid of shape dims; a stable dt lies strictly below it."""
    hmin = min(2 * np.pi / N for N in dims)
    return hmin**2 / (2 * len(dims))


@dataclass
class FlowConfig:
    """Explicit Euler parameters.

    dt must lie below stable_dt_bound of the grid; run_flow enforces it.
    """

    dt: float
    max_steps: int = 2000
    stop_tol: float = 1e-6


def run_flow(u0: GridMap, h: HermitianMetricField,
             cfg: FlowConfig) -> tuple[GridMap, list]:
    """Flow u0 until max|tau| < stop_tol or max_steps.

    Returns the final map and a trace of (step, energy, max|tau|), with the
    initial state recorded as step 0.  Every accepted step satisfies
    E_next <= E + 1e-12; increases trigger step halving (at most
    MAX_HALVINGS times, after which StepSizeUnderflow is raised).  A
    tension that is not finite at some node raises FloatingPointError.
    """
    if cfg.dt <= 0:
        raise ValueError("dt must be positive")
    bound = stable_dt_bound(u0.dims)
    if cfg.dt >= bound:
        raise ValueError(
            f"dt = {cfg.dt:.3e} violates the stability bound {bound:.3e}")

    u = u0            # a state is read-only; each step builds a new one
    dt = cfg.dt
    energy = dirichlet_energy(u, h)
    tau = discrete_tension(u, h)
    max_tau = _max_abs(tau, 0)
    trace = [(0, energy, max_tau)]
    for step in range(1, cfg.max_steps + 1):
        if max_tau < cfg.stop_tol:
            break
        halvings = 0
        while True:
            trial = GridMap(u.values + dt * tau)
            trial_energy = dirichlet_energy(trial, h)
            if trial_energy <= energy + 1e-12:
                break
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise StepSizeUnderflow(
                    f"no energy-non-increasing step after {MAX_HALVINGS} "
                    f"halvings at step {step}")
            dt *= 0.5
        u, energy = trial, trial_energy
        tau = discrete_tension(u, h)
        max_tau = _max_abs(tau, step)
        trace.append((step, energy, max_tau))
    return u, trace


def _max_abs(tau: np.ndarray, step: int) -> float:
    """max|tau| over the nodes; where it is not finite no step can be
    taken, so the flow ends there."""
    max_tau = float(np.abs(tau).max())
    if not np.isfinite(max_tau):
        raise FloatingPointError(f"max|tau| is not finite at step {step}")
    return max_tau


def discrete_phwc_residual(u: GridMap) -> float:
    """max over nodes of |sum_i d_i u^a d_i u^b| for the flat torus metric."""
    gram = sum(np.einsum("...a,...b->...ab", g, g) for g in u.gradients)
    return float(np.max(np.abs(gram)))


def _sum(terms: list) -> Expr:
    """The terms added pairwise: a tree log2(len(terms)) levels high."""
    if len(terms) < 2:
        return terms[0] if terms else Const(0.0)
    half = len(terms) // 2
    return _sum(terms[:half]) + _sum(terms[half:])


def grid_to_smooth_map(u: GridMap) -> SmoothMap:
    """Trigonometric interpolant of the grid values as a first-class map.

    Fourier coefficients below COEF_TOL (relative to the largest) are
    dropped to keep the expression tree small, and the terms are summed
    pairwise to keep it shallow.
    """
    m, n = u.m, u.n
    coeffs = np.fft.fftn(u.values, axes=tuple(range(m)))
    coeffs /= float(np.prod(u.dims))
    freqs = [np.rint(np.fft.fftfreq(N, 1.0 / N)).astype(int) for N in u.dims]
    scale = max(np.max(np.abs(coeffs)), 1e-300)
    components = []
    for a in range(n):
        terms = []
        for idx in np.ndindex(*u.dims):
            c = coeffs[idx + (a,)]
            if abs(c) <= COEF_TOL * scale:
                continue
            ks = [freqs[axis][idx[axis]] for axis in range(m)]
            if all(k == 0 for k in ks):
                terms.append(Const(c))
                continue
            arg: Expr = Const(0.0)
            for axis, k in enumerate(ks):
                if k:
                    arg = arg + Const(float(k)) * Var(axis)
            terms.append(Const(c) * jexp(Const(1j) * arg))
        components.append(_sum(terms))
    return SmoothMap(m, n, components)


def save_snapshot(u: GridMap, path) -> None:
    """Write a text table: one node per row, coordinates then re/im pairs.

    Header lines (prefixed '#') record the grid shape and target dimension;
    rows are in C order over the grid indices.
    """
    coords = node_coordinates(u.dims)
    with open(path, "w") as fh:
        fh.write(f"# torus grid {'x'.join(str(N) for N in u.dims)}, "
                 f"target C^{u.n}\n")
        fh.write("# columns: " + " ".join(f"x{i + 1}" for i in range(u.m))
                 + " " + " ".join(f"re(u{a + 1}) im(u{a + 1})"
                                  for a in range(u.n)) + "\n")
        for idx in np.ndindex(*u.dims):
            row = [f"{coords[i][idx]:.17g}" for i in range(u.m)]
            for a in range(u.n):
                v = u.values[idx + (a,)]
                row.append(f"{v.real:.17g}")
                row.append(f"{v.imag:.17g}")
            fh.write(" ".join(row) + "\n")
