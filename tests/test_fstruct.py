from types import SimpleNamespace

import numpy as np
import pytest

from phwc import catalog
from phwc.fstruct import (
    CheckPoint,
    FStructurePoint,
    NotPHWCAtPoint,
    RankDeficiencyAmbiguous,
    RankJumpOnStencil,
    SuiteSample,
    associated_f_structure,
    domega_12_residual,
    dphi_kernel_residual,
    f_holomorphy_residual,
    fundamental_two_form,
    met_residual,
    nijenhuis_residual,
    parallel_residual,
    theorem_suite,
)
from phwc.geometry import HermitianMetricField, MetricField, MetricPoint
from phwc.jet import Const, Var, cos, exp, parse_expr, sin
from phwc.maps import PointData, SmoothMap, compose, differential

EX1 = catalog.immersion_r2_c3()
EX2 = catalog.linear_r4_c2()
G2 = MetricField.euclidean(2)
G4 = MetricField.euclidean(4)
P2 = (0.3, 0.5)
P4 = (1.0, 2.0, 0.5, -1.0)
# the standard complex structure of R^4 and a second one anticommuting
# with it, the quaternionic pair
J1 = np.array([[0., -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
J2 = np.array([[0., 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])


def orth(a, tol=1e-10):
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if len(s) == 0:
        return u[:, :0]
    return u[:, s > tol * max(1.0, s[0])]


def principal_angle(a, b):
    """Largest principal angle between equal-dimension spans (sine form,
    resolves angles far below what arccos of an inner product could)."""
    qa, qb = orth(a), orth(b)
    assert qa.shape[1] == qb.shape[1]
    if qa.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(qb - qa @ (np.conj(qa.T) @ qb), 2))


def raised_span(phi, g, p):
    return np.linalg.inv(g.matrix(p)) @ differential(phi, p).grad.T


def varying_metric_r4():
    """Non-conformal family keeping the linear R^4 map exactly PHWC.

    With inverse metric diag(1, 1+s, 1, 1+s), s = s(x1), the Gram sum
    -1 - (1+s) + 1 + (1+s) stays zero while the isotropic span direction
    (i, i(1+s), 1, 1+s) genuinely rotates, so the F-field is non-constant.
    """
    s = Const(0.3) * sin(Var(0))
    one = Const(1.0)
    zero = Const(0.0)
    return MetricField(4, [
        [one, zero, zero, zero],
        [zero, one / (one + s), zero, zero],
        [zero, zero, one, zero],
        [zero, zero, zero, one / (one + s)],
    ])


def quaternionic_twist_field():
    """Hand-built almost complex structure cos(x1) J1 + sin(x1) J2 on R^4.

    J1, J2 are the anticommuting quaternionic complex structures, so the
    combination squares to -Id for every x1; it is genuinely non-integrable.
    """
    def field(x):
        c, s = np.cos(x[0]), np.sin(x[0])
        return FStructurePoint.from_matrix(c * J1 + s * J2, np.eye(4))

    return field


def field_at(at, fp, df):
    """A hand-built F-field at the point of at, as the residuals of F's
    derivatives read a CheckPoint: F is fp, its derivatives df, and g's
    partials and symbols are those of at."""
    return SimpleNamespace(fp=fp, dF=df, dg=at.dg, gamma=at.gamma)


def quaternionic_twist_point(p):
    """The twisted field at p under the flat metric, with its analytic
    derivative d_1 F = -sin(x1) J1 + cos(x1) J2."""
    p = np.asarray(p, dtype=float)
    df = np.zeros((4, 4, 4))
    df[0] = -np.sin(p[0]) * J1 + np.cos(p[0]) * J2
    return field_at(MetricPoint(G4, p), quaternionic_twist_field()(p), df)


def constant_point(f_mat, g, p):
    """A hand-built F, the same matrix at every point, under g."""
    at = MetricPoint(g, p)
    return field_at(at, FStructurePoint.from_matrix(f_mat, at.gm),
                    np.zeros((len(f_mat),) * 3))


def central_differences(phi, g, p, quantity, h=1e-5):
    """d_l quantity(F) at p, stacked along l, by central differences of the
    associated f-structure built afresh at p +/- h e_l: the independent
    oracle of the exact first-order jet of F."""
    p = np.asarray(p, dtype=float)
    return np.array([
        (quantity(associated_f_structure(PointData(phi, g, p + e)))
         - quantity(associated_f_structure(PointData(phi, g, p - e))))
        / (2 * h) for e in h * np.eye(len(p))])


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def test_immersion_structure():
    fp = associated_f_structure(PointData(EX1, G2, P2))
    assert fp.rank == 2
    assert np.allclose(fp.F, [[0, -1], [1, 0]])
    assert np.allclose(fp.F @ fp.F, -np.eye(2))
    # the raised span v = (1, i) is the -i eigenspace; its conjugate the +i
    v = np.array([1.0, 1j])
    assert np.allclose(fp.F @ v, -1j * v)
    assert np.allclose(fp.F @ np.conj(v), 1j * np.conj(v))
    assert fp.algebra_residual() < 1e-12


def test_constant_map_structure():
    phi = SmoothMap(3, 2, [Const(1.0 + 2j), Const(0.5)])
    g3 = MetricField.euclidean(3)
    fp = associated_f_structure(PointData(phi, g3, (0.1, 0.2, 0.3)))
    assert fp.rank == 0
    assert np.max(np.abs(fp.F)) == 0.0
    assert np.allclose(fp.Pzero, np.eye(3))


def test_linear_r4_structure():
    fp = associated_f_structure(PointData(EX2, G4, P4))
    assert fp.rank == 2
    assert fp.basis_zero.shape == (4, 2)
    # oracle: the differential itself has complex rank 1
    assert np.linalg.matrix_rank(differential(EX2, P4).grad) == 1
    assert fp.algebra_residual() < 1e-12


def test_gate_rejects_non_phwc_maps():
    phi = SmoothMap(2, 2, [Var(0), Var(1)])
    with pytest.raises(NotPHWCAtPoint):
        associated_f_structure(PointData(phi, G2, (0.5, 0.5)))


def test_ambiguous_rank_is_flagged():
    z = Var(0) + Const(1j) * Var(1)
    phi = SmoothMap(2, 1, [Const(5e-9) * z])
    with pytest.raises(RankDeficiencyAmbiguous):
        associated_f_structure(PointData(phi, G2, (0.3, 0.4)))
    # well below the band the direction is simply dropped
    tiny = SmoothMap(2, 1, [Const(1e-12) * z])
    assert associated_f_structure(PointData(tiny, G2, (0.3, 0.4))).rank == 0


def test_algebra_residuals_across_random_suite():
    rng = np.random.default_rng(21)
    for _ in range(15):
        base, g = (EX1, G2) if rng.random() < 0.5 else (EX2, G4)
        psi = catalog.random_holomorphic_map(rng, base.target_cdim, 2)
        comp = compose(psi, base)
        p = rng.uniform(-1, 1, base.domain_dim)
        fp = associated_f_structure(PointData(comp, g, p))
        assert fp.algebra_residual() <= 1e-10
        assert np.max(np.abs(np.imag(fp.F))) == 0.0


def test_bijection_roundtrip():
    # F determines the isotropic span: the covector action's +i eigenspace,
    # i.e. ker(F + i) on tangent vectors, recovers span{v_a}; ker(F - i) is
    # its conjugate.  Both are g-isotropic.
    rng = np.random.default_rng(22)
    for base, g in [(EX1, G2), (EX2, G4)]:
        for _ in range(5):
            p = rng.uniform(-1, 1, base.domain_dim)
            fp = associated_f_structure(PointData(base, g, p))
            v = raised_span(base, g, p)
            w, vecs = np.linalg.eig(fp.F)
            ker_plus = vecs[:, np.abs(w - 1j) < 1e-8]
            ker_minus = vecs[:, np.abs(w + 1j) < 1e-8]
            gm = g.matrix(p)
            assert np.max(np.abs(ker_plus.T @ gm @ ker_plus)) <= 1e-10
            assert principal_angle(ker_minus, v) <= 1e-8
            assert principal_angle(ker_plus, np.conj(v)) <= 1e-8


# --------------------------------------------------------------------------
# f-holomorphy
# --------------------------------------------------------------------------

def test_f_holomorphy_of_builtin_maps():
    assert f_holomorphy_residual(CheckPoint(EX1, G2, P2)) <= 1e-12
    pt = CheckPoint(EX2, G4, P4)
    assert f_holomorphy_residual(pt) <= 1e-12
    assert dphi_kernel_residual(pt) <= 1e-12


def test_f_holomorphy_of_random_composites():
    rng = np.random.default_rng(23)
    for _ in range(10):
        psi = catalog.random_holomorphic_map(rng, 3, 2)
        comp = compose(psi, EX1)
        p = rng.uniform(-1, 1, 2)
        pt = CheckPoint(comp, G2, p)
        assert f_holomorphy_residual(pt) <= 1e-9
        assert dphi_kernel_residual(pt) <= 1e-9


# --------------------------------------------------------------------------
# Nijenhuis tensor
# --------------------------------------------------------------------------

def test_nijenhuis_constant_fields():
    assert nijenhuis_residual(CheckPoint(EX1, G2, P2)) <= 1e-10
    assert nijenhuis_residual(constant_point(J1, G4, P4)) <= 1e-12


def test_nijenhuis_of_holomorphic_family():
    # (w1^2, w2, w3) o immersion: the span stays (1, i), so the field is
    # constant and integrable away from the branch locus
    psi = SmoothMap(6, 3, [catalog.zvar(0) ** 2, catalog.zvar(1),
                           catalog.zvar(2)])
    comp = compose(psi, EX1)
    assert nijenhuis_residual(CheckPoint(comp, G2, (0.7, 0.2))) <= 1e-6


def bracket_nijenhuis_oracle(field, p, h=1e-5):
    """N(X, Y) for coordinate fields via finite-difference Lie brackets:
    N(di, dj) = [F di, F dj] + F(dj F) ei - F(di F) ej, an independent path
    that never forms the coordinate tensor expression."""
    p = np.asarray(p, dtype=float)
    m = len(p)

    def fmat(x):
        return field(x).F

    def dfield(x, l):
        e = np.zeros(m)
        e[l] = h
        return (fmat(x + e) - fmat(x - e)) / (2 * h)

    worst = 0.0
    f0 = fmat(p)
    df = [dfield(p, l) for l in range(m)]
    for i in range(m):
        for j in range(m):
            u_of = lambda x: fmat(x)[:, i]
            v_of = lambda x: fmat(x)[:, j]
            du = np.array([dfield(p, l)[:, i] for l in range(m)])  # du[l][k]
            dv = np.array([dfield(p, l)[:, j] for l in range(m)])
            u0, v0 = f0[:, i], f0[:, j]
            bracket_uv = np.einsum("l,lk->k", u0, dv) - np.einsum(
                "l,lk->k", v0, du)
            n_ij = bracket_uv + f0 @ (df[j][:, i]) - f0 @ (df[i][:, j])
            worst = max(worst, float(np.max(np.abs(n_ij))))
    return worst


def test_nijenhuis_against_bracket_oracle():
    field = quaternionic_twist_field()
    for p in [np.array([0.3, 0.0, 0.0, 0.0]), np.array([-0.8, 1.0, 0.2, 0.5])]:
        got = nijenhuis_residual(quaternionic_twist_point(p))
        want = bracket_nijenhuis_oracle(field, p)
        assert want > 0.1            # the twisted structure is not integrable
        assert abs(got - want) < 1e-6 * max(1.0, want)


DERIVATIVE_RESIDUALS = [nijenhuis_residual, parallel_residual,
                        domega_12_residual, met_residual]
Z1, Z2 = Var(0) + Const(1j) * Var(1), Var(2) + Const(1j) * Var(3)


@pytest.mark.parametrize("op", DERIVATIVE_RESIDUALS, ids=lambda op: op.__name__)
def test_rank_jump_detected(op):
    # z^2 at 0 leaves rank 0 to first order; z^3 at 0 and (z1, z2^3) at
    # z2 = 0 vanish to first order in the dropped differential and leave
    # to second (rank 2 at the second point, 4 next to it)
    for phi, g, p in [(SmoothMap(2, 1, [Z1 ** 2]), G2, (0.0, 0.0)),
                      (SmoothMap(2, 1, [Z1 ** 3]), G2, (0.0, 0.0)),
                      (SmoothMap(4, 2, [Z1, Z2 ** 3]), G4,
                       (0.3, 0.1, 0.0, 0.0))]:
        with pytest.raises(RankJumpOnStencil):
            op(CheckPoint(phi, g, p))
    # away from the branch point the field is clean; z1^3 stays in the span
    # of z1 to second order, and a constant map has rank 0 everywhere
    for phi, g, p in [(SmoothMap(2, 1, [Z1 ** 2]), G2, (0.6, 0.1)),
                      (SmoothMap(4, 2, [Z1, Z1 ** 3]), G4,
                       (0.0, 0.0, 0.2, 0.1)),
                      (SmoothMap(2, 1, [Const(1.0 + 2j)]), G2, (0.1, 0.2))]:
        assert op(CheckPoint(phi, g, p)) <= 1e-6


# --------------------------------------------------------------------------
# parallelism
# --------------------------------------------------------------------------

def test_parallel_constant_structures():
    assert parallel_residual(CheckPoint(EX1, G2, P2)) <= 1e-10
    assert parallel_residual(CheckPoint(EX2, G4, P4)) <= 1e-10


def test_parallel_block_metric():
    # metric diag(1, 1, a(x3, x4), b(x3, x4)) with the structure acting on
    # the first factor: the mixed Christoffels vanish, so F stays parallel
    g = MetricField.diagonal([Const(1.0), Const(1.0),
                              Const(1.0) + Var(2) ** 2,
                              Const(1.0) + Const(0.5) * Var(3) ** 2])
    phi = SmoothMap(4, 1, [Var(0) + Const(1j) * Var(1)])
    p = (0.4, -0.1, 0.8, 0.3)
    assert parallel_residual(CheckPoint(phi, g, p)) <= 1e-9
    assert nijenhuis_residual(CheckPoint(phi, g, p)) <= 1e-9
    from phwc.geometry import HermitianMetricField
    from phwc.maps import tension
    t = tension(PointData(phi, g, p, HermitianMetricField.flat(1)))
    assert t.harmonic_residual <= 1e-10


def test_parallel_implies_integrable_on_suite():
    rng = np.random.default_rng(24)
    for base, g in [(EX1, G2), (EX2, G4)]:
        for _ in range(5):
            p = rng.uniform(-1, 1, base.domain_dim)
            par = parallel_residual(CheckPoint(base, g, p))
            nij = nijenhuis_residual(CheckPoint(base, g, p))
            assert par <= 1e-8
            assert nij <= 100 * max(par, 1e-10)


def test_parallel_nonzero_for_twisted_field():
    # d F / d x1 has unit-size entries, so the defect is order one
    st = quaternionic_twist_point((0.2, 0.0, 0.0, 0.0))
    assert parallel_residual(st) > 0.5


# --------------------------------------------------------------------------
# fundamental 2-form
# --------------------------------------------------------------------------

def test_two_form_immersion():
    tf = fundamental_two_form(CheckPoint(EX1, G2, P2))
    assert np.allclose(tf.omega, [[0, -1], [1, 0]])
    assert np.max(np.abs(tf.domega)) <= 1e-10
    assert np.allclose(tf.omega, -tf.omega.T)


def test_two_form_conformal_metric():
    # omega_12 = -e^{2 x1} while every 3-form on R^2 vanishes; checks the
    # derivatives of g F against the hand value
    g = MetricField.conformal(2, exp(Const(2.0) * Var(0)))
    p = (0.25, -0.4)
    tf = fundamental_two_form(CheckPoint(EX1, g, p))
    assert np.isclose(tf.omega[0, 1], -np.exp(0.5))
    assert np.max(np.abs(tf.domega)) <= 1e-9


def test_two_form_antisymmetries():
    g = varying_metric_r4()
    tf = fundamental_two_form(CheckPoint(EX2, g, (0.4, -0.2, 0.7, 0.1)))
    assert np.allclose(tf.omega, -tf.omega.T, atol=1e-12)
    d = tf.domega
    assert np.allclose(d, -np.einsum("jik->ijk", d), atol=1e-9)
    assert np.allclose(d, -np.einsum("ikj->ijk", d), atol=1e-9)


def test_domega12_constant_cases():
    assert domega_12_residual(CheckPoint(EX2, G4, P4)) <= 1e-10
    assert domega_12_residual(constant_point(J1, G4, P4)) <= 1e-12


# --------------------------------------------------------------------------
# condition on covariant derivatives out of the 0-eigenspace
# --------------------------------------------------------------------------

def test_met_vacuous_cases():
    # flat, constant frames
    assert met_residual(CheckPoint(EX2, G4, P4)) <= 1e-10
    # rank 4
    assert met_residual(quaternionic_twist_point((0.3, 0.0, 0.0, 0.0))) \
        == 0.0


def met_adapted_oracle(g, p, step=1e-6):
    """Adapted-coordinate criterion for the block examples: derivatives of
    the (0,0) metric block along the complex (1, -i, 0, 0) direction."""
    p = np.asarray(p, dtype=float)

    def block(q):
        return g.matrix(q)[2:, 2:]

    e1, e2 = np.zeros(4), np.zeros(4)
    e1[0] = step
    e2[1] = step
    d1 = (block(p + e1) - block(p - e1)) / (2 * step)
    d2 = (block(p + e2) - block(p - e2)) / (2 * step)
    return float(np.max(np.abs(d1 - 1j * d2)))


@pytest.mark.parametrize("perturb", [False, True])
def test_met_block_metrics(perturb):
    # product metric: 0-block depends only on the 0-directions -> condition
    # holds; a cross dependence on x1 breaks it.  The example is built in
    # adapted coordinates, so the partial-derivative form is an oracle.
    entries = [Const(1.0), Const(1.0),
               Const(1.0) + Const(0.3) * Var(2) ** 2,
               Const(1.0) + Const(0.2) * Var(3) ** 2]
    if perturb:
        entries[2] = entries[2] + Const(0.2) * Var(0)
    g = MetricField.diagonal(entries)
    phi = SmoothMap(4, 1, [Var(0) + Const(1j) * Var(1)])
    p = (0.4, -0.1, 0.8, 0.3)
    got = met_residual(CheckPoint(phi, g, p))
    oracle = met_adapted_oracle(g, p)
    if perturb:
        assert oracle > 1e-3 and got > 1e-3
    else:
        assert oracle <= 1e-8 and got <= 1e-8


def test_met_reads_the_centers_inverse(monkeypatch):
    # the FStructurePoint keeps the checked g^-1 of the PointData it was
    # built from, so met_residual inverts no metric of its own
    g = MetricField.diagonal([Const(1.0), Const(1.0),
                              Const(1.0) + Const(0.2) * Var(0),
                              Const(1.0) + Const(0.2) * Var(3) ** 2])
    phi = SmoothMap(4, 1, [Var(0) + Const(1j) * Var(1)])
    pt = CheckPoint(phi, g, (0.4, -0.1, 0.8, 0.3))
    pt.dF
    inversions = []
    inv = np.linalg.inv

    def counted_inv(a):
        inversions.append(a)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    assert met_residual(pt) > 1e-3
    assert inversions == []


# --------------------------------------------------------------------------
# the exact jet of F against central differences
# --------------------------------------------------------------------------

ONE, ZERO = Const(1.0), Const(0.0)
X = [Var(i) for i in range(6)]


def chart(*pairs):
    return [X[a] + Const(1j) * X[b] for a, b in pairs]


def tilted_metric():
    """[[1+c^2, 0, c, 0], [0, 1, 0, 0], [c, 0, 1, 0], [0, 0, 0, 1]] with
    c = 0.4 sin x3: the Schur complement of the (x1, x2) block is the
    identity, so x1 + i x2 stays PHWC while F tilts with x3."""
    c = Const(0.4) * sin(X[2])
    return MetricField(4, [[ONE + c * c, ZERO, c, ZERO],
                           [ZERO, ONE, ZERO, ZERO],
                           [c, ZERO, ONE, ZERO],
                           [ZERO, ZERO, ZERO, ONE]])


def twisted_metric():
    """[[I4 + C C^T, C], [C^T, I2]] on R^6 with C a 4 x 2 matrix of
    functions of x1..x4: the projection to (x1 + i x2, x3 + i x4) is a
    harmonic PHWC map whose F is neither integrable nor parallel."""
    c = [[Const(0.3) * X[2], ZERO], [ZERO, Const(0.3) * X[0]],
         [Const(0.2) * sin(X[1]), Const(0.1) * X[3]],
         [ZERO, Const(0.2) * cos(X[0])]]

    def entry(i, j):
        if i < 4 and j < 4:
            return (ONE if i == j else ZERO) + c[i][0] * c[j][0] \
                + c[i][1] * c[j][1]
        if i < 4 or j < 4:
            return c[min(i, j)][max(i, j) - 4]
        return ONE if i == j else ZERO

    return MetricField(6, [[entry(i, j) for j in range(6)] for i in range(6)])


# name: (phi, g, the residuals that vanish identically on the family)
FAMILIES = {
    "hermitian_chart": (SmoothMap(4, 2, chart((0, 1), (2, 3))),
                        MetricField.conformal(4, Const(2.0) + X[0] ** 2),
                        ("nijenhuis", "met")),
    "tilted_projection": (SmoothMap(4, 1, chart((0, 1))), tilted_metric(),
                          ("nijenhuis", "domega12")),
    "twisted_submersion": (SmoothMap(6, 2, chart((0, 1), (2, 3))),
                           twisted_metric(), ("met", "domega12")),
    "ex2_varying_metric": (EX2, varying_metric_r4(), ("domega12",)),
}
RESIDUALS = {"nijenhuis": nijenhuis_residual, "parallel": parallel_residual,
             "domega12": domega_12_residual, "met": met_residual}


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_jet_agrees_with_central_differences(family):
    phi, g, zeros = FAMILIES[family]
    rng = np.random.default_rng(31)
    for _ in range(3):
        p = rng.uniform(-1, 1, phi.domain_dim)
        pt = CheckPoint(phi, g, p)
        fd = central_differences(phi, g, p, lambda fp: fp.F)
        assert np.max(np.abs(pt.dF - fd)) <= 1e-8
        d_gf = pt.dg @ pt.fp.F + pt.fp.gm @ pt.dF
        fd_gf = central_differences(phi, g, p, lambda fp: fp.gm @ fp.F)
        assert np.max(np.abs(d_gf - fd_gf)) <= 1e-8
        oracle = field_at(pt, pt.fp, fd)
        for name, residual in RESIDUALS.items():
            assert abs(residual(pt) - residual(oracle)) <= 1e-8, name
            if name in zeros:
                assert residual(pt) <= 1e-14, name
            else:
                assert residual(pt) > 1e-3, name


def test_central_differences_converge_to_the_exact_jet():
    # the oracle's error falls by 4 per halving of the step: second order
    g = varying_metric_r4()
    p = np.array([0.4, -0.2, 0.7, 0.1])
    exact = CheckPoint(EX2, g, p).dF
    err = [np.max(np.abs(central_differences(EX2, g, p, lambda fp: fp.F, h)
                         - exact)) for h in (0.1, 0.05, 0.025)]
    assert err[0] > 1e-5
    assert err[1] <= 0.3 * err[0] and err[2] <= 0.3 * err[1]


# --------------------------------------------------------------------------
# theorem implication harness
# --------------------------------------------------------------------------

def standard_suite(rng):
    from phwc.geometry import HermitianMetricField

    samples = [
        SuiteSample("immersion_c3", EX1, G2, HermitianMetricField.flat(3),
                    catalog.sample_points(rng, 5, [[-1, 1]] * 2)),
        SuiteSample("linear_c2", EX2, G4, HermitianMetricField.flat(2),
                    catalog.sample_points(rng, 5, [[-1, 1]] * 4)),
    ]
    for idx in range(10):
        base, g, nin = (EX1, G2, 3) if idx % 2 == 0 else (EX2, G4, 2)
        psi = catalog.random_holomorphic_map(rng, nin, 2)
        samples.append(SuiteSample(
            f"holomorphic_composite_{idx}", compose(psi, base), g,
            HermitianMetricField.flat(2),
            catalog.sample_points(rng, 3, [[-1, 1]] * base.domain_dim)))
    return samples


def test_theorem_suite_standard():
    rng = np.random.default_rng(25)
    report = theorem_suite(standard_suite(rng))
    assert report.counterexamples == 0
    assert report.checked >= 30
    # hypotheses are genuinely satisfied, not vacuous
    ok = [r for r in report.records if r.status == "ok"]
    assert all(r.residuals["parallel"] <= 1e-8 for r in ok)
    assert all(r.residuals["harmonic"] <= 1e-6 for r in ok)


def test_theorem_suite_skips_a_point_whose_gate_overflows():
    # h overflows at the images of the middle points: at (0.19, 0.6) the
    # power raises OverflowError, which skips the point, named by the
    # error's type; at (0.1, 0.6) numpy overflows to a NaN residual, which
    # fails the Kaehler gate; the points around them are still checked
    h = HermitianMetricField(1, [[parse_expr(
        "2 + 0*(x1*1000)^150 + x2*1e200*x2*1e200")]], kaehler=True)
    phi = SmoothMap(2, 1, [parse_expr("x1 + i*x2")])
    points = [(0.001, 0.0), (0.19, 0.6), (0.1, 0.6), (0.0005, 0.0)]
    report = theorem_suite([SuiteSample("overflowing_h", phi, G2, h,
                                        np.array(points))])
    assert [(r.status, r.reasons) for r in report.records] == [
        ("ok", []), ("skipped", ["OverflowError"]),
        ("counterexample", ["kaehler_flag_violation"]), ("ok", [])]
    assert (report.checked, report.skipped, report.counterexamples) == \
        (2, 1, 1)
    assert report.records[0].residuals["harmonic"] == 0.0


def test_theorem_suite_builds_one_f_per_point(monkeypatch):
    from phwc import fstruct
    from phwc.geometry import HermitianMetricField

    calls = []
    build = fstruct.associated_f_structure

    def counted(*args, **kwargs):
        calls.append(args[0].p)
        return build(*args, **kwargs)

    monkeypatch.setattr(fstruct, "associated_f_structure", counted)
    report = theorem_suite([SuiteSample(
        "linear_c2", EX2, G4, HermitianMetricField.flat(2), [P4])])
    assert report.checked == 1
    assert len(calls) == 1     # the center; its derivatives build no F


def test_theorem_suite_of_a_sample_without_points_is_empty():
    from phwc.geometry import HermitianMetricField

    report = theorem_suite([SuiteSample(
        "none", EX2, G4, HermitianMetricField.flat(2), np.zeros((0, 4)))])
    assert (report.records, report.checked, report.skipped) == ([], 0, 0)


def test_theorem_suite_evaluates_g_once_per_point(monkeypatch):
    from phwc.geometry import HermitianMetricField

    jets, phi_orders, inits, centers = [], [], [], []
    g_jets, phi_jets, pd_init, point_of = MetricField.jets, SmoothMap.jets, \
        PointData.__init__, MetricPoint.__getitem__
    points = [P4, (0.2, -0.7, 1.1, 0.4)]

    def counted_jets(self, p):
        jets.append(np.atleast_2d(p))
        return g_jets(self, p)

    def counted_phi_jets(self, p, order=2):
        phi_orders.append((len(np.atleast_2d(p)), order))
        return phi_jets(self, p, order)

    def counted_init(self, *args, **kwargs):
        pd_init(self, *args, **kwargs)
        inits.append(self.p.shape)

    def counted_rows(self, k):
        row = point_of(self, k)
        centers.append(tuple(row.p))
        return row

    monkeypatch.setattr(MetricField, "jets", counted_jets)
    monkeypatch.setattr(SmoothMap, "jets", counted_phi_jets)
    monkeypatch.setattr(PointData, "__init__", counted_init)
    monkeypatch.setattr(MetricPoint, "__getitem__", counted_rows)
    report = theorem_suite([SuiteSample(
        "linear_c2", EX2, G4, HermitianMetricField.flat(2), points)])
    assert report.checked == 2
    # one jet pass of g and one of phi, to second order, over the sample
    # points: tension and F's derivatives read nothing else
    assert [len(batch) for batch in jets] == [2]
    assert phi_orders == [(2, 2)]
    # kaehler, phwc, tension, F and its derivatives of a point share one
    # row of the one PointData of the sample
    assert inits == [(2, 4)]
    assert sorted(centers) == sorted(tuple(map(float, q)) for q in points)


def test_theorem_suite_skips_non_phwc():
    from phwc.geometry import HermitianMetricField

    rng = np.random.default_rng(26)
    bad = SmoothMap(2, 2, [Var(0), Var(1)])
    # x3 on R^2 fails phi's jet pass, an error phwc check records per point
    beyond = SmoothMap(2, 1, [parse_expr("x1 + i*x3")])
    for phi, points, reason in [
            (bad, catalog.sample_points(rng, 4, [[-1, 1]] * 2),
             "NotPHWCAtPoint"),
            (beyond, [(0.1, 0.2)], "VariableIndexOutOfRange")]:
        report = theorem_suite([SuiteSample(
            "non_phwc", phi, G2, HermitianMetricField.flat(phi.target_cdim),
            points)])
        assert (report.checked, report.skipped, report.counterexamples) == \
            (0, len(points), 0)
        assert all(r.status == "skipped" and r.reasons == [reason]
                   for r in report.records)


def test_theorem_suite_detects_forged_kaehler_flag():
    rng = np.random.default_rng(27)
    h = catalog.non_kaehler_hermitian_c2()
    h.kaehler = True  # forge the claim
    report = theorem_suite([SuiteSample(
        "forged_flag", EX2, G4, h,
        catalog.sample_points(rng, 3, [[-1, 1]] * 4))])
    assert report.counterexamples >= 1
    reasons = {r for rec in report.counterexample_records() for r in rec.reasons}
    assert "kaehler_flag_violation" in reasons


def test_theorem_suite_counts_a_nan_kaehler_residual_as_forged():
    from phwc.geometry import HermitianMetricField

    # x2*1e200*x2*1e200 is inf, and its derivatives give a NaN residual,
    # which a `residual > KAEHLER_TOL` test let through
    h = HermitianMetricField(1, [[Const(2.0) + Var(1) * Const(1e200)
                                  * Var(1) * Const(1e200)]], kaehler=True)
    with np.errstate(all="ignore"):
        report = theorem_suite([SuiteSample(
            "nan_flag", SmoothMap(2, 1, [Var(0) + Const(1j) * Var(1)]),
            MetricField.euclidean(2), h, [[0.1, 0.6]])])
    (rec,) = report.records
    assert rec.reasons == ["kaehler_flag_violation"]
    assert np.isnan(rec.residuals["kaehler"])


def test_a_check_point_builds_f_and_its_derivatives_once(monkeypatch):
    from phwc import fstruct

    calls = []
    build = fstruct.associated_f_structure

    def counted(pd):
        calls.append(pd)
        return build(pd)

    monkeypatch.setattr(fstruct, "associated_f_structure", counted)
    pt = CheckPoint(EX2, G4, P4)
    assert pt.dF is pt.dF and pt.fp is pt.fp and len(calls) == 1
    # an error is kept too: each read raises it, and nothing is rebuilt
    bad = CheckPoint(SmoothMap(2, 2, [Var(0), Var(1)]), G2, P2)
    errors = []
    for read in ("dF", "fp", "dF"):
        with pytest.raises(NotPHWCAtPoint) as err:
            getattr(bad, read)
        errors.append(err.value)
    assert errors[0] is errors[1] is errors[2] and len(calls) == 2


def test_dropped_identical_components_build_a_clean_jet():
    # the three components of ex1 are equal, so two are dropped; they stay
    # in the span to every order, under a varying metric too
    g = MetricField.conformal(2, exp(Const(2.0) * Var(0)))
    for metric in (G2, g):
        pt = CheckPoint(EX1, metric, P2)
        assert pt.fp.pivots == (0,)
        assert nijenhuis_residual(pt) <= 1e-12
    assert np.max(np.abs(CheckPoint(EX1, G2, P2).dF)) == 0.0


def test_a_gram_that_moves_off_zero_is_no_field():
    # phi = z + x1^2 is PHWC exactly where x1 = 0: F is built on the line
    # but has no derivative there, and a point off the line fails the gate
    z = Var(0) + Const(1j) * Var(1)
    phi = SmoothMap(2, 1, [z + Var(0) ** 2])
    on = CheckPoint(phi, G2, (0.0, 0.3))
    assert on.fp.rank == 2
    messages = []
    for p in [(0.0, 0.3), (0.5, 0.2)]:
        for op in DERIVATIVE_RESIDUALS:
            with pytest.raises(NotPHWCAtPoint) as err:
                op(CheckPoint(phi, G2, p))
        messages.append(str(err.value))
    assert "grows at rate" in messages[0] and "exceeds the gate" in messages[1]
