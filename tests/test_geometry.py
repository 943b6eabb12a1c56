import numpy as np
import pytest

from phwc import catalog
from phwc.geometry import (
    GeometryError,
    HermitianMetricField,
    MetricField,
    MetricNotPD,
    MetricNotSPD,
    MetricPoint,
    POINT_ERRORS,
    christoffel_domain,
    christoffel_kaehler,
    kaehler_residual,
    laplace_beltrami,
    _inverse_checked,
    kept,
)
from phwc.jet import Const, Var, conj, eval_jet2, exp, parse_expr, re
from phwc.maps import PointData, differential, tension


def fd_christoffel(g, p, step=1e-5):
    """Oracle: Christoffels from central differences of the metric values."""
    p = np.asarray(p, dtype=float)
    m = g.dim

    def gmat(q):
        return g.matrix(q)

    dg = np.empty((m, m, m))
    for l in range(m):
        e = np.zeros(m)
        e[l] = step
        dg[l] = (gmat(p + e) - gmat(p - e)) / (2 * step)
    ginv = np.linalg.inv(gmat(p))
    sym = (np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg)
    return 0.5 * np.einsum("kl,lij->kij", ginv, sym)


def random_polynomial_metric(rng, m, amp=0.25):
    """SPD metric I + B(x)^T B(x) with small linear B; fixed test generator."""
    comps = [[Const(1.0 if i == j else 0.0) for j in range(m)] for i in range(m)]
    rows = []
    for _ in range(m):
        row = []
        for _ in range(m):
            c0 = rng.uniform(-amp, amp)
            c = rng.uniform(-amp, amp, size=m)
            e = Const(c0)
            for k in range(m):
                e = e + Const(c[k]) * Var(k)
            row.append(e)
        rows.append(row)
    for i in range(m):
        for j in range(i, m):
            acc = comps[i][j]
            for k in range(m):
                acc = acc + rows[k][i] * rows[k][j]
            comps[i][j] = acc
    return MetricField(m, comps)


def test_euclidean_christoffels_vanish():
    g = MetricField.euclidean(3)
    gamma = christoffel_domain(g, (0.4, -1.0, 2.0))
    assert np.max(np.abs(gamma)) == 0.0


def test_polar_like_metric():
    # g = diag(1, x1^2): Gamma^2_12 = 1/x1
    g = MetricField.diagonal([Const(1.0), Var(0) ** 2])
    gamma = christoffel_domain(g, (2.0, 0.3))
    assert np.isclose(gamma[1, 0, 1], 0.5)
    assert np.isclose(gamma[1, 1, 0], 0.5)
    assert np.allclose(gamma, fd_christoffel(g, (2.0, 0.3)), atol=1e-7)


def test_conformal_metric_hand_values():
    g = MetricField.conformal(2, exp(Const(2.0) * Var(0)))
    gamma = christoffel_domain(g, (0.37, -0.8))
    assert np.isclose(gamma[0, 0, 0], 1.0)
    assert np.isclose(gamma[0, 1, 1], -1.0)
    assert np.isclose(gamma[1, 0, 1], 1.0)


def test_christoffel_fd_oracle_random_suite():
    rng = np.random.default_rng(42)
    for _ in range(100):
        m = int(rng.integers(2, 4))
        g = random_polynomial_metric(rng, m)
        p = rng.uniform(-1, 1, size=m)
        got = christoffel_domain(g, p)
        want = fd_christoffel(g, p)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) / scale < 1e-5


def test_christoffel_symmetry_lower_indices():
    rng = np.random.default_rng(5)
    g = random_polynomial_metric(rng, 3)
    gamma = christoffel_domain(g, (0.2, 0.5, -0.3))
    assert np.allclose(gamma, np.einsum("kij->kji", gamma))


def test_not_spd_raises():
    g = MetricField.diagonal([Var(0), Const(1.0)])
    with pytest.raises(MetricNotSPD):
        christoffel_domain(g, (-1.0, 0.0))


def test_a_metric_that_is_not_finite_fails_its_check():
    # eigvalsh of diag(inf, 1) is [nan, nan], which a `min <= SPD_EPS` test
    # lets through, so the residuals read g^-1 = diag(0, 1)
    big = Const(1e200) * Var(0) * Const(1e200)
    g = MetricField.diagonal([big, Const(1.0)])
    h = HermitianMetricField(1, [[Const(1.0) + big - big]])   # NaN
    with np.errstate(all="ignore"):
        for p in ([1.5, 0.5], [[1e-300, 0.5], [1.5, 0.5]]):
            with pytest.raises(MetricNotSPD, match=r"at \[1.5 0.5\]"):
                MetricPoint(g, p).gm
        for z in ([1.5 + 0.5j], [[0.5j], [1.5 + 0.5j]]):
            with pytest.raises(MetricNotPD, match=r"at z=\[1.5\+0.5j\]"):
                h.matrix(np.array(z))


def test_an_inverse_that_is_nan_fails_its_check():
    with pytest.raises(GeometryError, match=r"g[*]g\^-1 = Id"):
        _inverse_checked(np.array([[np.nan, 0.0], [0.0, 1.0]]), "metric")


def test_inverse_identity_check():
    rng = np.random.default_rng(9)
    g = random_polynomial_metric(rng, 3)
    p = (0.1, -0.4, 0.9)
    at = MetricPoint(g, p)
    assert np.max(np.abs(g.matrix(p) @ at.ginv - np.eye(3))) <= 1e-12


# --------------------------------------------------------------------------
# Hermitian / Kaehler targets
# --------------------------------------------------------------------------

def fubini_study_like():
    # h_11bar = (1 + |z|^2)^(-2) on a chart of C^1
    return HermitianMetricField(
        1, [[(Const(1.0) + Var(0) ** 2 + Var(1) ** 2) ** -2]], kaehler=True)


def test_flat_christoffels_vanish():
    h = HermitianMetricField.flat(2)
    gamma = christoffel_kaehler(h, np.array([0.3 + 0.1j, -1.0 + 0.5j]))
    assert np.max(np.abs(gamma)) == 0.0


def test_fubini_study_christoffel_hand_value():
    h = fubini_study_like()
    gamma = christoffel_kaehler(h, np.array([1.0 + 0.0j]))
    assert np.isclose(gamma[0, 0, 0], -1.0)
    z = 0.3 - 0.7j
    gamma = christoffel_kaehler(h, np.array([z]))
    assert np.isclose(gamma[0, 0, 0], -2 * np.conj(z) / (1 + abs(z) ** 2))


def test_fubini_study_christoffel_vs_finite_differences():
    h = fubini_study_like()
    z0 = 0.4 + 0.2j
    step = 1e-6

    def hval(z):
        return h.matrix(np.array([z]))[0, 0]

    dz_h = ((hval(z0 + step) - hval(z0 - step)) / (2 * step)
            - 1j * (hval(z0 + 1j * step) - hval(z0 - 1j * step)) / (2 * step)) / 2
    want = dz_h / hval(z0)
    got = christoffel_kaehler(h, np.array([z0]))[0, 0, 0]
    assert abs(got - want) < 1e-8


def random_kaehler_metric(rng, n):
    """delta_ab + sum_k c_k dm_a conj(dm_b) for holomorphic monomials m_k.

    Metrics of this shape come from the potential sum |z|^2 + sum c_k |m_k|^2,
    so they are exactly Kaehler and positive definite.
    """
    def zvar(a):
        return Var(2 * a) + Const(1j) * Var(2 * a + 1)

    comps = [[Const(1.0 if a == b else 0.0) for b in range(n)] for a in range(n)]
    for _ in range(3):
        c = rng.uniform(0.05, 0.4)
        powers = rng.integers(0, 3, size=n)
        if np.all(powers == 0):
            powers[rng.integers(n)] = 1
        dmon = []
        for a in range(n):
            if powers[a] == 0:
                dmon.append(Const(0.0))
                continue
            e = Const(float(powers[a]))
            for b in range(n):
                pw = powers[b] - (1 if b == a else 0)
                if pw > 0:
                    e = e * zvar(b) ** int(pw)
            dmon.append(e)
        for a in range(n):
            for b in range(n):
                comps[a][b] = comps[a][b] + Const(c) * dmon[a] * conj(dmon[b])
    return HermitianMetricField(n, comps, kaehler=True)


def test_kaehler_residual_flat_and_potential():
    assert kaehler_residual(HermitianMetricField.flat(3),
                            np.array([1j, 0.5, -2.0 + 1j])) == 0.0
    # potential |z1|^2 + |z1|^2 |z2|^2, expanded by hand
    z1 = Var(0) + Const(1j) * Var(1)
    z2 = Var(2) + Const(1j) * Var(3)
    h = HermitianMetricField(2, [
        [Const(1.0) + z2 * conj(z2), conj(z1) * z2],
        [z1 * conj(z2), z1 * conj(z1)],
    ], kaehler=True)
    for z in [np.array([1.0 + 0.2j, 0.5 - 0.1j]), np.array([0.8j, 1.3])]:
        assert kaehler_residual(h, z) <= 1e-12


def test_metric_from_potential():
    # the potential |z1|^2 + |z1|^2 |z2|^2 reproduces the hand expansion
    z1 = Var(0) + Const(1j) * Var(1)
    z2 = Var(2) + Const(1j) * Var(3)
    modsq = lambda z: re(z * conj(z))
    potential = modsq(z1) + modsq(z1) * modsq(z2)
    h = HermitianMetricField.from_potential(potential, 2)
    hand = HermitianMetricField(2, [
        [Const(1.0) + z2 * conj(z2), conj(z1) * z2],
        [z1 * conj(z2), z1 * conj(z1)],
    ], kaehler=True)
    rng = np.random.default_rng(55)
    for _ in range(5):
        z = rng.uniform(0.3, 1.0, 2) + 1j * rng.uniform(0.3, 1.0, 2)
        assert np.max(np.abs(h.matrix(z) - hand.matrix(z))) < 1e-12
        assert kaehler_residual(h, z) <= 1e-12
        gamma = christoffel_kaehler(h, z)
        assert np.max(np.abs(gamma - np.einsum("abc->acb", gamma))) < 1e-11


def test_kaehler_residual_detects_non_kaehler():
    # h_11bar = 1 + re z2, h_22bar = 1: Hermitian but the form is not closed
    h = HermitianMetricField(2, [
        [Const(1.0) + Var(2), Const(0.0)],
        [Const(0.0), Const(1.0)],
    ])
    assert kaehler_residual(h, np.array([0.0j, 0.0j])) > 0.4


def test_random_kaehler_metrics_have_symmetric_christoffels():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        h = random_kaehler_metric(rng, n)
        z = rng.uniform(-0.7, 0.7, size=n) + 1j * rng.uniform(-0.7, 0.7, size=n)
        assert kaehler_residual(h, z) <= 1e-10
        gamma = christoffel_kaehler(h, z)
        assert np.max(np.abs(gamma - np.einsum("abc->acb", gamma))) < 1e-10


def test_non_hermitian_entries_rejected():
    h = HermitianMetricField(2, [
        [Const(1.0), Const(0.5)],
        [Const(0.0), Const(1.0)],
    ])
    with pytest.raises(MetricNotPD):
        h.matrix(np.array([0.0j, 0.0j]))


# --------------------------------------------------------------------------
# Laplace-Beltrami
# --------------------------------------------------------------------------

def fd_laplacian_flat(f, p, step=1e-4):
    p = np.asarray(p, dtype=float)
    total = 0.0
    f0 = eval_jet2(f, p).value.real
    for i in range(len(p)):
        e = np.zeros(len(p))
        e[i] = step
        total += (eval_jet2(f, p + e).value.real - 2 * f0
                  + eval_jet2(f, p - e).value.real) / step**2
    return total


def test_laplacian_harmonic_polynomial():
    g = MetricField.euclidean(2)
    f = Var(0) ** 2 - Var(1) ** 2
    assert abs(laplace_beltrami(f, MetricPoint(g, (0.7, -0.4)))) < 1e-12


def test_laplacian_x_squared():
    g = MetricField.euclidean(2)
    at = MetricPoint(g, (1.3, 2.0))
    assert np.isclose(laplace_beltrami(Var(0) ** 2, at), 2.0)


def test_laplacian_real_part_of_cube():
    g = MetricField.euclidean(2)
    f = re((Var(0) + Const(1j) * Var(1)) ** 3)
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = rng.uniform(-2, 2, size=2)
        assert abs(laplace_beltrami(f, MetricPoint(g, p))) < 1e-11
        assert abs(fd_laplacian_flat(f, p)) < 1e-5


def test_laplacian_flat_equals_coordinate_laplacian():
    g = MetricField.euclidean(3)
    f = parse_expr("sin(x1)*x2^2 + exp(x3)")
    p = (0.3, 1.1, -0.2)
    want = (-np.sin(0.3) * 1.1**2) + 2 * np.sin(0.3) + np.exp(-0.2)
    assert np.isclose(laplace_beltrami(f, MetricPoint(g, p)), want)


def test_laplacian_respects_metric():
    # On (R^2, e^{2 x1} Id):  Delta f = e^{-2 x1} (coordinate Laplacian); the
    # conformal correction terms cancel in dimension 2.
    g = MetricField.conformal(2, exp(Const(2.0) * Var(0)))
    f = Var(0) ** 2
    p = (0.5, 0.2)
    assert np.isclose(laplace_beltrami(f, MetricPoint(g, p)),
                      np.exp(-1.0) * 2.0)


def divergence_form_laplacian(g, grad, p, step=1e-4):
    """Oracle: |g|^{-1/2} d_i (|g|^{1/2} g^ij d_j f) by central differences
    of g.matrix; grad(q) is the exact (n, m) or (m,) gradient at q."""
    p = np.asarray(p, dtype=float)

    def flux(q):
        gm = g.matrix(q)
        return np.sqrt(np.linalg.det(gm)) * np.linalg.solve(gm, grad(q).T)

    total = 0.0
    for i in range(len(p)):
        e = np.zeros(len(p))
        e[i] = step
        total = total + (flux(p + e)[i] - flux(p - e)[i]) / (2 * step)
    return total / np.sqrt(np.linalg.det(g.matrix(p)))


def test_laplacian_matches_divergence_form():
    rng = np.random.default_rng(17)
    for _ in range(8):
        m = int(rng.integers(2, 5))
        g = catalog.random_polynomial_metric(rng, m)
        phi = catalog.random_polynomial_map(rng, m, 2)
        f = re(phi.components[0])
        p = rng.uniform(-1, 1, m)
        want = divergence_form_laplacian(
            g, lambda q: eval_jet2(f, q).grad.real, p)
        got = laplace_beltrami(f, MetricPoint(g, p))
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
        # into a flat target the tension is the Laplacian of each component
        want = divergence_form_laplacian(
            g, lambda q: differential(phi, q).grad, p)
        got = tension(PointData(phi, g, p, HermitianMetricField.flat(2))).tau
        assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, *np.abs(want))


def test_kept_builds_once_and_keeps_point_errors_only():
    class Point:
        def __init__(self, raises=None):
            self.raises, self.builds = raises, 0

        @kept
        def value(self):
            """The value."""
            self.builds += 1
            if self.raises is not None:
                raise self.raises
            return [self.builds]

    assert Point.value.__doc__ == "The value."
    pt = Point()
    assert pt.value is pt.value and pt.builds == 1
    pt = Point()
    pt.value = "given"           # a plain assignment is the kept value
    assert pt.value == "given" and pt.builds == 0
    for err in (MetricNotSPD("at p"), ZeroDivisionError("0"),
                np.linalg.LinAlgError("singular")):
        assert isinstance(err, POINT_ERRORS)
        pt = Point(err)
        for _ in range(3):
            with pytest.raises(type(err)) as info:
                pt.value
            assert info.value is err
        assert pt.builds == 1
    pt = Point(TypeError("not a point error"))   # propagates, not kept
    for _ in range(3):
        with pytest.raises(TypeError):
            pt.value
    assert pt.builds == 3
