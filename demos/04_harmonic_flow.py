"""Finding harmonic maps by tension-field gradient flow on a torus grid.

Explicit Euler on du/dt = tau(u) is the L^2 gradient descent of the
Dirichlet energy; on a flat target it is exactly the discrete heat
equation, so a single Fourier mode decays like e^{-2t} in energy.  The
script runs that experiment, then flows a random perturbation down to a
numerically harmonic map and screens the limit with the smooth residuals.

Run:  python demos/04_harmonic_flow.py
"""

import numpy as np

from phwc import (
    FlowConfig,
    GridMap,
    HermitianMetricField,
    MetricField,
    PointData,
    dirichlet_energy,
    discrete_phwc_residual,
    grid_to_smooth_map,
    run_flow,
    tension,
)

flat = HermitianMetricField.flat(1)

print("== single mode e^{i x1} on a 64 x 64 torus")
u0 = GridMap.from_function((64, 64), lambda x, y: np.exp(1j * x))
print(f"  initial energy {dirichlet_energy(u0, flat):.4f} "
      f"(exact continuum value 2 pi^2 = {2 * np.pi ** 2:.4f})")
final, trace = run_flow(u0, flat, FlowConfig(dt=1e-3, max_steps=300,
                                             stop_tol=0.0))
steps = np.array([t[0] for t in trace], dtype=float)
energies = np.array([t[1] for t in trace])
slope = np.polyfit(steps * 1e-3, np.log(energies), 1)[0]
print(f"  fitted energy exponent {slope:+.4f} (heat flow predicts -2)")
print(f"  energy non-increasing: {bool(np.all(np.diff(energies) <= 1e-12))}\n")

print("== random band-limited data flowed to a harmonic map")
rng = np.random.default_rng(4)
n = 8
j1, j2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
x1, x2 = 2 * np.pi * j1 / n, 2 * np.pi * j2 / n
vals = np.full((n, n), 0.4 + 0.2j)
for k in [(1, 0), (0, 1), (1, 1), (2, 1)]:
    c = 0.05 * (rng.standard_normal() + 1j * rng.standard_normal())
    vals = vals + c * np.exp(1j * (k[0] * x1 + k[1] * x2))
stop_tol = 1e-6
final, trace = run_flow(GridMap(vals[..., None]), flat,
                        FlowConfig(dt=2e-2, max_steps=20000,
                                   stop_tol=stop_tol))
print(f"  converged after {trace[-1][0]} steps, max|tau| = {trace[-1][2]:.2e}")
print(f"  discrete PHWC residual of the limit: "
      f"{discrete_phwc_residual(final):.2e}")
smooth = grid_to_smooth_map(final)
g2 = MetricField.euclidean(2)
worst = max(tension(PointData(smooth, g2, rng.uniform(0, 2 * np.pi, 2), flat))
            .harmonic_residual for _ in range(10))
print(f"  smooth tension of the trigonometric interpolant at random "
      f"points: {worst:.2e} (within 10x stop_tol)")

print("\n== curved line target (the round-sphere chart metric)")
from phwc.jet import Const, Var

fs = HermitianMetricField(1, [[(Const(1.0) + Var(0) ** 2 + Var(1) ** 2) ** -2]],
                          kaehler=True)
u0 = GridMap.from_function((16, 16), lambda x, y: 0.2 * np.exp(1j * x))
final, trace = run_flow(u0, fs, FlowConfig(dt=5e-3, max_steps=80,
                                           stop_tol=0.0))
print(f"  energy {trace[0][1]:.5f} -> {trace[-1][1]:.5f} over "
      f"{trace[-1][0]} steps, monotonically")
