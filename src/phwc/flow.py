"""Tension-field gradient flow on a flat torus grid.

Maps live on the uniform grid of the torus [0, 2pi)^m with values in a
target chart C^n; derivatives are second-order central stencils with
periodic wrap-around.  The flow is explicit Euler on du/dt = tau(u) with an
energy backtracking safeguard: a step that increases the Dirichlet energy is
retried with half the step size, so accepted steps are always non-increasing
in energy.

The domain is restricted to flat tori; curvature enters only through the
target metric.  Node updates inside a step are plain array arithmetic and
data-parallel; steps are sequential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import HermitianMetricField, TargetNotKaehler, hermitian_points
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
    "save_snapshot",
]

MAX_HALVINGS = 20


class StepSizeUnderflow(RuntimeError):
    """Backtracking halved the step size MAX_HALVINGS times without finding
    an energy-non-increasing step; the flow has stalled."""


class GridMap:
    """Samples of a map torus^m -> C^n on a uniform periodic grid.

    ``values`` has shape dims + (n,); node (j1, .., jm) sits at the point
    (2 pi j1 / N1, .., 2 pi jm / Nm).
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=complex)
        if self.values.ndim < 2:
            raise ValueError("values must have shape dims + (n,)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

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
    def spacing(self):
        return tuple(2 * np.pi / N for N in self.dims)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def node_coordinates(self):
        """Coordinate arrays, one per axis, broadcastable to dims."""
        axes = [np.arange(N) * (2 * np.pi / N) for N in self.dims]
        return np.meshgrid(*axes, indexing="ij")

    @classmethod
    def from_function(cls, dims, fn, n: int | None = None) -> "GridMap":
        """Sample fn(x1, .., xm) -> scalar or vector on the grid."""
        axes = [np.arange(N) * (2 * np.pi / N) for N in dims]
        coords = np.meshgrid(*axes, indexing="ij")
        out = np.asarray(fn(*coords), dtype=complex)
        if out.shape == tuple(dims):
            out = out[..., np.newaxis]
        return cls(out)

    def copy(self) -> "GridMap":
        return GridMap(self.values.copy())


def _gradients(u: GridMap):
    """Central differences along each axis; list of arrays dims + (n,)."""
    grads = []
    for i, h in enumerate(u.spacing):
        grads.append((np.roll(u.values, -1, axis=i)
                      - np.roll(u.values, 1, axis=i)) / (2 * h))
    return grads


def _laplacian(u: GridMap):
    lap = np.zeros_like(u.values)
    for i, h in enumerate(u.spacing):
        lap += (np.roll(u.values, -1, axis=i) - 2 * u.values
                + np.roll(u.values, 1, axis=i)) / h**2
    return lap


def _targets(u: GridMap, h: HermitianMetricField):
    """h at every node's value, in C order, from one jet pass; the checks,
    inverse and symbols stay per node."""
    return hermitian_points(h, u.values.reshape(-1, u.n))


def dirichlet_energy(u: GridMap, h: HermitianMetricField) -> float:
    """E = 1/2 sum_nodes sum_i h_{a bbar}(u) d_i u^a conj(d_i u^b) * cellvol."""
    grads = _gradients(u)
    hm = h.constant_matrix
    if hm is not None:
        density = sum(np.einsum("ab,...a,...b->...", hm, g, np.conj(g))
                      for g in grads)
    else:
        density = np.zeros(u.dims, dtype=complex)
        for idx, target in zip(np.ndindex(*u.dims), _targets(u, h)):
            hmat = target.hm
            density[idx] = sum(g[idx] @ hmat @ np.conj(g[idx]) for g in grads)
    return float(0.5 * np.sum(density.real) * u.cell_volume)


def discrete_tension(u: GridMap, h: HermitianMetricField) -> np.ndarray:
    """Per-node tau^a = Lap u^a + Gamma^a_bc(u) sum_i d_i u^b d_i u^c.

    For a flat target this is exactly the compact second-order Laplacian.
    """
    if not h.kaehler:
        raise TargetNotKaehler("the flow needs a Kaehler-flagged target")
    tau = _laplacian(u)
    if h.constant_matrix is not None:
        return tau  # constant metric, vanishing symbols
    grads = _gradients(u)
    gram = sum(np.einsum("...b,...c->...bc", g, g) for g in grads)
    for idx, target in zip(np.ndindex(*u.dims), _targets(u, h)):
        tau[idx] += np.einsum("abc,bc->a", target.gamma, gram[idx])
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
    energy_backtrack: bool = True


def run_flow(u0: GridMap, h: HermitianMetricField,
             cfg: FlowConfig) -> tuple[GridMap, list]:
    """Flow u0 until max|tau| < stop_tol or max_steps.

    Returns the final map and a trace of (step, energy, max|tau|), with the
    initial state recorded as step 0.  Every accepted step satisfies
    E_next <= E + 1e-12; increases trigger step halving (at most
    MAX_HALVINGS times, after which StepSizeUnderflow is raised).
    """
    if cfg.dt <= 0:
        raise ValueError("dt must be positive")
    bound = stable_dt_bound(u0.dims)
    if cfg.dt >= bound:
        raise ValueError(
            f"dt = {cfg.dt:.3e} violates the stability bound {bound:.3e}")

    u = u0.copy()
    dt = cfg.dt
    energy = dirichlet_energy(u, h)
    tau = discrete_tension(u, h)
    max_tau = float(np.max(np.abs(tau)))
    trace = [(0, energy, max_tau)]
    for step in range(1, cfg.max_steps + 1):
        if max_tau < cfg.stop_tol:
            break
        halvings = 0
        while True:
            trial = GridMap(u.values + dt * tau)
            trial_energy = dirichlet_energy(trial, h)
            if not cfg.energy_backtrack or trial_energy <= energy + 1e-12:
                break
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise StepSizeUnderflow(
                    f"no energy-non-increasing step after {MAX_HALVINGS} "
                    f"halvings at step {step}")
            dt *= 0.5
        u, energy = trial, trial_energy
        tau = discrete_tension(u, h)
        max_tau = float(np.max(np.abs(tau)))
        trace.append((step, energy, max_tau))
    return u, trace


def discrete_phwc_residual(u: GridMap) -> float:
    """max over nodes of |sum_i d_i u^a d_i u^b| for the flat torus metric."""
    grads = _gradients(u)
    gram = sum(np.einsum("...a,...b->...ab", g, g) for g in grads)
    return float(np.max(np.abs(gram)))


def grid_to_smooth_map(u: GridMap, coef_tol: float = 1e-13) -> SmoothMap:
    """Trigonometric interpolant of the grid values as a first-class map.

    Fourier coefficients below coef_tol (relative to the largest) are
    dropped to keep the expression tree small.
    """
    m, n = u.m, u.n
    coeffs = np.fft.fftn(u.values, axes=tuple(range(m)))
    coeffs /= float(np.prod(u.dims))
    freqs = [np.rint(np.fft.fftfreq(N, 1.0 / N)).astype(int) for N in u.dims]
    scale = max(np.max(np.abs(coeffs)), 1e-300)
    components = []
    for a in range(n):
        e: Expr = Const(0.0)
        for idx in np.ndindex(*u.dims):
            c = coeffs[idx + (a,)]
            if abs(c) <= coef_tol * scale:
                continue
            ks = [freqs[axis][idx[axis]] for axis in range(m)]
            if all(k == 0 for k in ks):
                e = e + Const(c)
                continue
            arg: Expr = Const(0.0)
            for axis, k in enumerate(ks):
                if k:
                    arg = arg + Const(float(k)) * Var(axis)
            e = e + Const(c) * jexp(Const(1j) * arg)
        components.append(e)
    return SmoothMap(m, n, components)


def save_snapshot(u: GridMap, path) -> None:
    """Write a text table: one node per row, coordinates then re/im pairs.

    Header lines (prefixed '#') record the grid shape and target dimension;
    rows are in C order over the grid indices.
    """
    coords = u.node_coordinates()
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
