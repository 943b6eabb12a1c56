import hashlib

import numpy as np
import pytest

from phwc import catalog, flow, geometry
from phwc.flow import (
    FlowConfig,
    GridMap,
    dirichlet_energy,
    discrete_phwc_residual,
    discrete_tension,
    grid_to_smooth_map,
    run_flow,
    save_snapshot,
)
from phwc.geometry import (HermitianMetricField, MetricField, TargetNotKaehler,
                           christoffel_kaehler)
from phwc.jet import Const, Var
from phwc.maps import PointData, tension

FLAT1 = HermitianMetricField.flat(1)
FLAT2 = HermitianMetricField.flat(2)


def single_mode(dims, k=(1, 0)):
    def fn(*coords):
        phase = sum(ki * c for ki, c in zip(k, coords))
        return np.exp(1j * phase)
    return GridMap.from_function(dims, fn)


# --------------------------------------------------------------------------
# energy
# --------------------------------------------------------------------------

def test_energy_constant_map_is_zero():
    u = GridMap(np.full((16, 16, 1), 0.7 + 0.1j))
    assert dirichlet_energy(u, FLAT1) == 0.0


def test_energy_single_mode_value():
    # exact integral: (1/2) * (2 pi)^2; central differences land within 0.5%
    u = single_mode((64, 64))
    e = dirichlet_energy(u, FLAT1)
    assert abs(e - 2 * np.pi**2) / (2 * np.pi**2) < 0.005


def test_energy_quadratic_convergence():
    errs = []
    for n in (16, 32, 64):
        e = dirichlet_energy(single_mode((n, n)), FLAT1)
        errs.append(abs(e - 2 * np.pi**2))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


# --------------------------------------------------------------------------
# tension
# --------------------------------------------------------------------------

def test_tension_constant_map():
    u = GridMap(np.full((8, 8, 1), 2.0 - 1j))
    assert np.max(np.abs(discrete_tension(u, FLAT1))) == 0.0


def test_tension_single_mode():
    u = single_mode((64, 64))
    tau = discrete_tension(u, FLAT1)
    h = 2 * np.pi / 64
    assert np.max(np.abs(tau + u.values)) < h**2 / 10


def test_tension_equals_five_point_laplacian_flat():
    rng = np.random.default_rng(31)
    vals = rng.standard_normal((8, 8, 2)) + 1j * rng.standard_normal((8, 8, 2))
    u = GridMap(vals)
    tau = discrete_tension(u, HermitianMetricField.flat(2))
    h = 2 * np.pi / 8
    lap = sum((np.roll(vals, -1, i) - 2 * vals + np.roll(vals, 1, i)) / h**2
              for i in range(2))
    assert np.array_equal(tau, lap)


@pytest.mark.parametrize("dims", [(1,), (2, 3), (5, 1, 4), (32, 32)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stencils_equal_the_roll_formulas(dims, n):
    # the stacked float-pair stencils give, axis by axis, the bits of the
    # complex np.roll formulas, also along axes of one and two nodes
    rng = np.random.default_rng(len(dims) * 10 + n)
    vals = (rng.standard_normal(dims + (n,))
            + 1j * rng.standard_normal(dims + (n,)))
    u = GridMap(vals)
    spacing = [2 * np.pi / N for N in dims]
    grads = [(np.roll(vals, -1, i) - np.roll(vals, 1, i)) / (2 * h)
             for i, h in enumerate(spacing)]
    lap = np.zeros_like(vals)
    for i, h in enumerate(spacing):
        lap += (np.roll(vals, -1, i) - 2 * vals + np.roll(vals, 1, i)) / h**2
    got = u.gradients
    assert got.shape == (len(dims),) + vals.shape
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, grads))
    assert flow._laplacian(u).tobytes() == lap.tobytes()


@pytest.mark.parametrize("N", [1, 2, 5, 8, 32, 64])
def test_complex_division_by_a_step_is_a_float_multiply(N):
    # the stencils scale the float pairs by 1/c in place of numpy's complex
    # division by c; this holds as long as numpy divides by c + 0j as
    # (re + im*0) * (1/c), (im - re*0) * (1/c)
    rng = np.random.default_rng(N)
    z = rng.standard_normal((32, 32, 3)) + 1j * rng.standard_normal((32, 32, 3))
    h = 2 * np.pi / N
    for c in (2 * h, h**2):
        assert (z / c).tobytes() == (z.view(float) * (1.0 / c)).tobytes()


def test_grid_values_are_read_only():
    vals = np.ones((4, 4, 1), dtype=complex)
    u = GridMap(vals)
    with pytest.raises(ValueError):
        u.values[0, 0, 0] = 2.0
    assert vals.flags.writeable  # the caller's array is left as it was


def test_tension_of_constant_target_is_the_laplacian(monkeypatch):
    # a constant metric has zero symbols, also when it is not a multiple of
    # the identity: no per-node metric or symbol is evaluated
    h = HermitianMetricField(2, [[Const(1.0), Const(0.0)],
                                 [Const(0.0), Const(2.0)]], kaehler=True)
    monkeypatch.setattr(flow, "HermitianPoint", None)
    u = GridMap.from_function((8, 8), lambda x, y: np.stack(
        [np.exp(1j * x), np.sin(y) + 0j], axis=-1))
    assert np.array_equal(discrete_tension(u, h), discrete_tension(u, FLAT2))


def test_tension_requires_kaehler():
    h = HermitianMetricField(1, [[Const(1.0) + Var(0) ** 2]], kaehler=False)
    with pytest.raises(TargetNotKaehler):
        discrete_tension(single_mode((8, 8)), h)


def test_curved_kernels_equal_the_per_node_evaluation():
    # one pass of h over all nodes; each node's matrix and symbols must be
    # bit-equal to evaluating h at that node alone
    h = catalog.random_kaehler_metric(np.random.default_rng(12), 2)
    u = GridMap.from_function((16, 16), lambda x, y: np.stack(
        [0.4 * np.exp(1j * x) + 0.1j * np.sin(y),
         0.3 * np.cos(x + y) - 0.2j * np.exp(1j * y)], axis=-1))
    grads = u.gradients
    density = np.zeros(u.dims, dtype=complex)
    tau = flow._laplacian(u)
    gram = sum(np.einsum("...b,...c->...bc", g, g) for g in grads)
    for idx in np.ndindex(*u.dims):
        hmat = h.matrix(u.values[idx])
        density[idx] = sum(g[idx] @ hmat @ np.conj(g[idx]) for g in grads)
        tau[idx] += np.einsum("abc,bc->a", christoffel_kaehler(
            h, u.values[idx]), gram[idx])
    energy = float(0.5 * np.sum(density.real) * u.cell_volume)
    assert dirichlet_energy(u, h) == energy
    assert discrete_tension(u, h).tobytes() == tau.tobytes()


def test_curved_kernels_name_the_first_failing_node():
    # the node set fails first on a later node that is not Hermitian; the
    # kernels raise what the first failing node in C order raises alone
    h = HermitianMetricField(2, [[Const(1.0) - Var(0), Var(2)],
                                 [Const(0.0), Const(1.0)]], kaehler=True)
    vals = np.zeros((3, 4, 2), dtype=complex)
    vals[1, 2, 0] = 2.0   # not positive definite
    vals[2, 1, 1] = 1.0   # not Hermitian
    u = GridMap(vals)
    with pytest.raises(geometry.MetricNotPD) as alone:
        geometry.HermitianPoint(h, vals[1, 2]).hm
    for kernel in (dirichlet_energy, discrete_tension):
        with pytest.raises(geometry.MetricNotPD) as err:
            kernel(u, h)
        assert str(err.value) == str(alone.value)
        assert "positive definite at z=[2.+0.j 0.+0.j]" in str(err.value)


def fs_like_target():
    return HermitianMetricField(
        1, [[(Const(1.0) + Var(0) ** 2 + Var(1) ** 2) ** -2]], kaehler=True)


def test_tension_is_energy_gradient_on_curved_target():
    # first-order energy drop along tau must match the metric pairing
    # -dt * sum h(u) |tau|^2 cellvol; this pins sign and normalization of
    # the curved correction term
    rng = np.random.default_rng(32)
    n = 32
    u = GridMap.from_function((n, n), lambda x, y: 0.3 * np.exp(1j * x)
                              + 0.05 * np.exp(1j * (x + y)))
    h = fs_like_target()
    tau = discrete_tension(u, h)
    e0 = dirichlet_energy(u, h)
    dt = 1e-5
    e1 = dirichlet_energy(GridMap(u.values + dt * tau), h)
    drop = (e1 - e0) / dt
    pair = 0.0
    for idx in np.ndindex(n, n):
        hm = h.matrix(u.values[idx])
        pair += float(np.real(tau[idx] @ hm @ np.conj(tau[idx])))
    pair *= u.cell_volume
    assert drop == pytest.approx(-pair, rel=0.02)


# --------------------------------------------------------------------------
# the flow itself
# --------------------------------------------------------------------------

def test_flow_constant_is_fixed_point():
    u0 = GridMap(np.full((8, 8, 1), 1.0 + 1.0j))
    final, trace = run_flow(u0, FLAT1, FlowConfig(dt=1e-3, max_steps=50))
    assert np.array_equal(final.values, u0.values)
    assert len(trace) == 1 and trace[0][2] == 0.0


@pytest.mark.parametrize("max_steps", [5, 40])
def test_flat_flow_builds_the_target_matrix_once(monkeypatch, max_steps):
    passes, checks = [], []
    h_jets = HermitianMetricField.jets
    checked = geometry._check_hermitian_pd

    def counted_jets(self, z):
        passes.append(tuple(z))
        return h_jets(self, z)

    def counted_check(hm, z):
        checks.append(z)
        return checked(hm, z)

    monkeypatch.setattr(HermitianMetricField, "jets", counted_jets)
    monkeypatch.setattr(geometry, "_check_hermitian_pd", counted_check)
    _, trace = run_flow(single_mode((8, 8)), HermitianMetricField.flat(1),
                        FlowConfig(dt=1e-3, max_steps=max_steps, stop_tol=0.0))
    assert len(trace) == max_steps + 1
    # the matrix is read from the literals and checked once, with no pass
    assert passes == [] and len(checks) == 1


def trace_digest(final, trace):
    return hashlib.sha256(np.array(trace).tobytes()
                          + final.values.tobytes()).hexdigest()


def test_flow_trace_bytes_under_a_constant_metric():
    # a 3-axis grid with an axis of one node, into C^2 under a constant
    # metric that is not diagonal; the digest pins the bits of complex
    # stencils that divide by the grid step
    h = HermitianMetricField(2, [[Const(1.3), Const(0.2 + 0.1j)],
                                 [Const(0.2 - 0.1j), Const(2.0)]],
                             kaehler=True)
    rng = np.random.default_rng(41)
    vals = 0.3 * (rng.standard_normal((5, 1, 4, 2))
                  + 1j * rng.standard_normal((5, 1, 4, 2)))
    final, trace = run_flow(GridMap(vals), h,
                            FlowConfig(dt=0.1, max_steps=60, stop_tol=0.0))
    assert len(trace) == 61
    assert trace_digest(final, trace) == (
        "1f55c830743e0a4a903ebb1802382953278313ff0b5d5ca1d899e54664e07b10")


def test_curved_flow_makes_one_target_pass_per_state(monkeypatch):
    # energy and tension of a state share its one HermitianPoint over the
    # nodes: 41 states, 41 passes; the digest is the same as with one pass
    # for each of them
    built = []
    init = geometry.HermitianPoint.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(geometry.HermitianPoint, "__init__", counted)
    h = catalog.random_kaehler_metric(np.random.default_rng(12), 2)
    u0 = GridMap.from_function((16, 16), lambda x, y: np.stack(
        [0.4 * np.exp(1j * x) + 0.1j * np.sin(y),
         0.3 * np.cos(x + y) - 0.2j * np.exp(1j * y)], axis=-1))
    final, trace = run_flow(u0, h, FlowConfig(dt=5e-3, max_steps=40,
                                              stop_tol=0.0))
    assert len(trace) == 41 and len(built) == 41
    assert trace_digest(final, trace) == (
        "beaa5788e35a5a14915144312131665fd063e8a1f33042baae6854ee4e998b52")


def test_flow_rejects_unstable_dt():
    u0 = single_mode((8, 8))
    h = 2 * np.pi / 8
    with pytest.raises(ValueError):
        run_flow(u0, FLAT1, FlowConfig(dt=h**2))


def test_flow_single_mode_decay_exponent():
    u0 = single_mode((64, 64))
    final, trace = run_flow(u0, FLAT1,
                            FlowConfig(dt=1e-3, max_steps=300, stop_tol=0.0))
    steps = np.array([t[0] for t in trace], dtype=float)
    energies = np.array([t[1] for t in trace])
    slope = np.polyfit(steps * 1e-3, np.log(energies), 1)[0]
    assert abs(slope + 2.0) < 0.1          # exponent -2 within 5%
    # the energy never increases along the way
    assert np.all(np.diff(energies) <= 1e-12)
    # and the mode is decaying toward the zero map
    assert np.max(np.abs(final.values)) < np.max(np.abs(u0.values))


def test_flow_matches_modal_oracle():
    # flat-target flow is the discrete heat equation: evolve each Fourier
    # mode directly (explicit DFT sums, no FFT) and compare after 40 steps
    rng = np.random.default_rng(33)
    n = 8
    vals = (rng.standard_normal((n, n, 1))
            + 1j * rng.standard_normal((n, n, 1))) * 0.1
    u0 = GridMap(vals)
    dt, steps = 5e-3, 40
    final, _ = run_flow(u0, FLAT1, FlowConfig(dt=dt, max_steps=steps,
                                              stop_tol=0.0))

    h = 2 * np.pi / n
    j1, j2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    predicted = np.zeros_like(vals)
    for k1 in range(n):
        for k2 in range(n):
            phase = np.exp(2j * np.pi * (k1 * j1 + k2 * j2) / n)
            amp = np.sum(vals[:, :, 0] * np.conj(phase)) / n**2
            lam = ((2 - 2 * np.cos(2 * np.pi * k1 / n))
                   + (2 - 2 * np.cos(2 * np.pi * k2 / n))) / h**2
            predicted[:, :, 0] += amp * (1 - dt * lam) ** steps * phase
    assert np.max(np.abs(final.values - predicted)) < 1e-10


def test_flow_converges_and_interpolant_is_harmonic():
    # band-limited perturbation of a constant: the flow drives max|tau|
    # below stop_tol and the trigonometric interpolant passes the smooth
    # tension check within 10x of that tolerance
    rng = np.random.default_rng(34)
    n = 8
    j1, j2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    x1, x2 = 2 * np.pi * j1 / n, 2 * np.pi * j2 / n
    vals = np.full((n, n), 0.4 + 0.2j)
    for k in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        c = 0.05 * (rng.standard_normal() + 1j * rng.standard_normal())
        vals = vals + c * np.exp(1j * (k[0] * x1 + k[1] * x2))
    u0 = GridMap(vals[..., np.newaxis])
    stop_tol = 1e-6
    final, trace = run_flow(u0, FLAT1, FlowConfig(dt=2e-2, max_steps=20000,
                                                  stop_tol=stop_tol))
    assert trace[-1][2] < stop_tol
    energies = np.array([t[1] for t in trace])
    assert np.all(np.diff(energies) <= 1e-12)

    smooth = grid_to_smooth_map(final)
    g2 = MetricField.euclidean(2)
    for _ in range(20):
        p = rng.uniform(0, 2 * np.pi, 2)
        t = tension(PointData(smooth, g2, p, FLAT1))
        assert t.harmonic_residual <= 10 * stop_tol
    # the limit of a flat-target flow satisfies the PHWC gram check too
    assert discrete_phwc_residual(final) < 1e-8


def test_flow_curved_target_energy_monotone():
    u0 = GridMap.from_function((16, 16),
                               lambda x, y: 0.2 * np.exp(1j * x))
    final, trace = run_flow(u0, fs_like_target(),
                            FlowConfig(dt=5e-3, max_steps=60, stop_tol=0.0))
    energies = np.array([t[1] for t in trace])
    assert np.all(np.diff(energies) <= 1e-12)
    assert energies[-1] < energies[0]


# --------------------------------------------------------------------------
# interpolation and export
# --------------------------------------------------------------------------

def test_interpolant_reproduces_node_values():
    # 32 x 32 is the flow_demo grid: its 1024 terms, added one by one, made
    # a tree too deep to evaluate
    for n in (6, 32):
        rng = np.random.default_rng(35)
        u = GridMap((rng.standard_normal((n, n, 1))
                     + 1j * rng.standard_normal((n, n, 1))) * 0.3)
        smooth = grid_to_smooth_map(u)
        for idx in [(0, 0), (2, 5), (4, 1), (n - 1, n - 2)]:
            p = (2 * np.pi * idx[0] / n, 2 * np.pi * idx[1] / n)
            assert abs(smooth.value(p)[0] - u.values[idx + (0,)]) < 1e-12


def test_snapshot_roundtrip(tmp_path):
    u = single_mode((4, 4))
    path = tmp_path / "snap.txt"
    save_snapshot(u, path)
    rows = np.loadtxt(path)
    assert rows.shape == (16, 4)
    # row for node (1, 2): coordinates then re/im
    row = rows[1 * 4 + 2]
    assert np.isclose(row[0], 2 * np.pi / 4)
    assert np.isclose(row[1], np.pi)
    val = u.values[1, 2, 0]
    assert np.isclose(row[2], val.real) and np.isclose(row[3], val.imag)
