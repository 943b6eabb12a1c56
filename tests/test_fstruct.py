import numpy as np
import pytest

from phwc import catalog
from phwc.fstruct import (
    POINT_ERRORS,
    CheckPoint,
    FStructurePoint,
    NotPHWCAtPoint,
    RankDeficiencyAmbiguous,
    RankJumpOnStencil,
    SuiteSample,
    associated_f_structure,
    constant_f_field,
    domega_12_residual,
    dphi_kernel_residual,
    f_holomorphy_residual,
    f_stencil,
    fundamental_two_form,
    met_residual,
    nijenhuis_residual,
    parallel_residual,
    share_stencils,
    theorem_suite,
)
from phwc.geometry import MetricField
from phwc.jet import Const, DivisionNearZero, Var, exp, sin
from phwc.maps import PointData, SmoothMap, compose, differential

EX1 = catalog.immersion_r2_c3()
EX2 = catalog.linear_r4_c2()
G2 = MetricField.euclidean(2)
G4 = MetricField.euclidean(4)
P2 = (0.3, 0.5)
P4 = (1.0, 2.0, 0.5, -1.0)


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
    j1 = np.array([[0., -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    j2 = np.array([[0., 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])

    def field(x):
        c, s = np.cos(x[0]), np.sin(x[0])
        return FStructurePoint.from_matrix(c * j1 + s * j2, np.eye(4))

    return field


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
    pd1 = PointData(EX1, G2, P2)
    fp1 = associated_f_structure(pd1)
    assert f_holomorphy_residual(pd1, fp1) <= 1e-12
    pd2 = PointData(EX2, G4, P4)
    fp2 = associated_f_structure(pd2)
    assert f_holomorphy_residual(pd2, fp2) <= 1e-12
    assert dphi_kernel_residual(pd2, fp2) <= 1e-12


def test_f_holomorphy_of_random_composites():
    rng = np.random.default_rng(23)
    for _ in range(10):
        psi = catalog.random_holomorphic_map(rng, 3, 2)
        comp = compose(psi, EX1)
        p = rng.uniform(-1, 1, 2)
        pd = PointData(comp, G2, p)
        fp = associated_f_structure(pd)
        assert f_holomorphy_residual(pd, fp) <= 1e-9
        assert dphi_kernel_residual(pd, fp) <= 1e-9


# --------------------------------------------------------------------------
# Nijenhuis tensor
# --------------------------------------------------------------------------

def test_nijenhuis_constant_fields():
    assert nijenhuis_residual(f_stencil(PointData(EX1, G2, P2))) <= 1e-10
    j_std = np.array([[0., -1, 0, 0], [1, 0, 0, 0],
                      [0, 0, 0, -1], [0, 0, 1, 0]])
    field = constant_f_field(j_std, G4)
    assert nijenhuis_residual(f_stencil(field, G4, P4)) <= 1e-12


def test_nijenhuis_of_holomorphic_family():
    # (w1^2, w2, w3) o immersion: the span stays (1, i), so the field is
    # constant and integrable away from the branch locus
    psi = SmoothMap(6, 3, [catalog.zvar(0) ** 2, catalog.zvar(1),
                           catalog.zvar(2)])
    comp = compose(psi, EX1)
    pd = PointData(comp, G2, (0.7, 0.2))
    assert nijenhuis_residual(f_stencil(pd)) <= 1e-6
    assert nijenhuis_residual(f_stencil(pd, h_step=0.5e-4)) <= 1e-6


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
        got = nijenhuis_residual(f_stencil(field, G4, p, h_step=1e-5))
        want = bracket_nijenhuis_oracle(field, p)
        assert want > 0.1            # the twisted structure is not integrable
        assert abs(got - want) < 1e-6 * max(1.0, want)


STENCIL_RESIDUALS = [nijenhuis_residual, parallel_residual,
                     domega_12_residual, met_residual]


@pytest.mark.parametrize("op", STENCIL_RESIDUALS, ids=lambda op: op.__name__)
def test_rank_jump_detected(op):
    phi = SmoothMap(2, 1, [(Var(0) + Const(1j) * Var(1)) ** 2])
    with pytest.raises(RankJumpOnStencil):
        op(f_stencil(PointData(phi, G2, (0.0, 0.0))))
    # away from the branch point the field is clean
    assert op(f_stencil(PointData(phi, G2, (0.6, 0.1)))) <= 1e-6


# --------------------------------------------------------------------------
# parallelism
# --------------------------------------------------------------------------

def test_parallel_constant_structures():
    assert parallel_residual(f_stencil(PointData(EX1, G2, P2))) <= 1e-10
    assert parallel_residual(f_stencil(PointData(EX2, G4, P4))) <= 1e-10


def test_parallel_block_metric():
    # metric diag(1, 1, a(x3, x4), b(x3, x4)) with the structure acting on
    # the first factor: the mixed Christoffels vanish, so F stays parallel
    g = MetricField.diagonal([Const(1.0), Const(1.0),
                              Const(1.0) + Var(2) ** 2,
                              Const(1.0) + Const(0.5) * Var(3) ** 2])
    phi = SmoothMap(4, 1, [Var(0) + Const(1j) * Var(1)])
    p = (0.4, -0.1, 0.8, 0.3)
    assert parallel_residual(f_stencil(PointData(phi, g, p))) <= 1e-9
    assert nijenhuis_residual(f_stencil(PointData(phi, g, p))) <= 1e-9
    from phwc.geometry import HermitianMetricField
    from phwc.maps import tension
    t = tension(PointData(phi, g, p, HermitianMetricField.flat(1)))
    assert t.harmonic_residual <= 1e-10


def test_parallel_implies_integrable_on_suite():
    rng = np.random.default_rng(24)
    for base, g in [(EX1, G2), (EX2, G4)]:
        for _ in range(5):
            p = rng.uniform(-1, 1, base.domain_dim)
            par = parallel_residual(f_stencil(PointData(base, g, p)))
            nij = nijenhuis_residual(f_stencil(PointData(base, g, p)))
            assert par <= 1e-8
            assert nij <= 100 * max(par, 1e-10)


def test_parallel_nonzero_for_twisted_field():
    field = quaternionic_twist_field()
    # d F / d x1 has unit-size entries, so the defect is order one
    assert parallel_residual(f_stencil(field, G4, (0.2, 0.0, 0.0, 0.0))) > 0.5


# --------------------------------------------------------------------------
# fundamental 2-form
# --------------------------------------------------------------------------

def test_two_form_immersion():
    tf = fundamental_two_form(f_stencil(PointData(EX1, G2, P2)))
    assert np.allclose(tf.omega, [[0, -1], [1, 0]])
    assert np.max(np.abs(tf.domega)) <= 1e-10
    assert np.allclose(tf.omega, -tf.omega.T)


def test_two_form_conformal_metric():
    # omega_12 = -e^{2 x1} while every 3-form on R^2 vanishes; checks the
    # differencing stencil against the hand value
    g = MetricField.conformal(2, exp(Const(2.0) * Var(0)))
    p = (0.25, -0.4)
    tf = fundamental_two_form(f_stencil(PointData(EX1, g, p)))
    assert np.isclose(tf.omega[0, 1], -np.exp(0.5))
    assert np.max(np.abs(tf.domega)) <= 1e-9


def test_two_form_antisymmetries():
    g = varying_metric_r4()
    tf = fundamental_two_form(
        f_stencil(PointData(EX2, g, (0.4, -0.2, 0.7, 0.1)), h_step=1e-3))
    assert np.allclose(tf.omega, -tf.omega.T, atol=1e-12)
    d = tf.domega
    assert np.allclose(d, -np.einsum("jik->ijk", d), atol=1e-9)
    assert np.allclose(d, -np.einsum("ikj->ijk", d), atol=1e-9)


def test_domega12_constant_cases():
    assert domega_12_residual(f_stencil(PointData(EX2, G4, P4))) <= 1e-10
    j_std = np.array([[0., -1, 0, 0], [1, 0, 0, 0],
                      [0, 0, 0, -1], [0, 0, 1, 0]])
    field = constant_f_field(j_std, G4)
    assert domega_12_residual(f_stencil(field, G4, P4)) <= 1e-12


# --------------------------------------------------------------------------
# condition on covariant derivatives out of the 0-eigenspace
# --------------------------------------------------------------------------

def test_met_vacuous_cases():
    # flat, constant frames
    assert met_residual(f_stencil(PointData(EX2, G4, P4))) <= 1e-10
    fp_full = quaternionic_twist_field()
    # rank 4
    assert met_residual(f_stencil(fp_full, G4, (0.3, 0.0, 0.0, 0.0))) == 0.0


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
    got = met_residual(f_stencil(PointData(phi, g, p)))
    oracle = met_adapted_oracle(g, p)
    if perturb:
        assert oracle > 1e-3 and got > 1e-3
    else:
        assert oracle <= 1e-8 and got <= 1e-8


def test_met_reads_each_stencil_points_inverse(monkeypatch):
    # every FStructurePoint keeps the checked g^-1 of the PointData it was
    # built from, so met_residual inverts no metric of its own
    g = MetricField.diagonal([Const(1.0), Const(1.0),
                              Const(1.0) + Const(0.2) * Var(0),
                              Const(1.0) + Const(0.2) * Var(3) ** 2])
    phi = SmoothMap(4, 1, [Var(0) + Const(1j) * Var(1)])
    st = f_stencil(PointData(phi, g, (0.4, -0.1, 0.8, 0.3)))
    inversions = []
    inv = np.linalg.inv

    def counted_inv(a):
        inversions.append(a)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    assert met_residual(st) > 1e-3
    assert inversions == []


# --------------------------------------------------------------------------
# stencil consistency
# --------------------------------------------------------------------------

def test_stencil_consistency_under_halving():
    g = varying_metric_r4()
    p = np.array([0.4, -0.2, 0.7, 0.1])
    st = {h: f_stencil(PointData(EX2, g, p), h_step=h)
          for h in (0.1, 0.05, 0.025)}
    r = [nijenhuis_residual(st[h]) for h in (0.1, 0.05, 0.025)]
    d1, d2 = abs(r[1] - r[0]), abs(r[2] - r[1])
    assert d2 <= 0.6 * d1
    # parallel/met values converge rapidly; verify stability directly
    r = [parallel_residual(st[h]) for h in (0.1, 0.05)]
    assert abs(r[1] - r[0]) <= 1e-6 * max(1.0, r[0])
    r = [met_residual(st[h]) for h in (0.1, 0.05)]
    assert abs(r[1] - r[0]) <= 1e-4 * max(1.0, r[0])
    r = [domega_12_residual(st[h]) for h in (0.1, 0.05)]
    assert max(r) <= 1e-8 or abs(r[1] - r[0]) <= 0.6 * abs(r[0])


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


def test_theorem_suite_builds_one_stencil_per_point(monkeypatch):
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
    assert len(calls) == 2 * 4 + 1   # center and p +/- h e_l, once each


def test_theorem_suite_evaluates_g_once_per_point(monkeypatch):
    from phwc.geometry import HermitianMetricField

    jets, phi_orders, centers = [], [], []
    g_jets, phi_jets, pd_init = MetricField.jets, SmoothMap.jets, \
        PointData.__init__
    points = [P4, (0.2, -0.7, 1.1, 0.4)]

    def counted_jets(self, p):
        jets.append(np.atleast_2d(p))
        return g_jets(self, p)

    def counted_phi_jets(self, p, order=2):
        phi_orders.append((len(np.atleast_2d(p)), order))
        return phi_jets(self, p, order)

    def counted_init(self, *args, **kwargs):
        pd_init(self, *args, **kwargs)
        if any(np.array_equal(self.p, q) for q in points):
            centers.append(tuple(self.p))

    monkeypatch.setattr(MetricField, "jets", counted_jets)
    monkeypatch.setattr(SmoothMap, "jets", counted_phi_jets)
    monkeypatch.setattr(PointData, "__init__", counted_init)
    report = theorem_suite([SuiteSample(
        "linear_c2", EX2, G4, HermitianMetricField.flat(2), points)])
    assert report.checked == 2
    # one jet pass of g over the sample points and one over the p +/- h e_l
    # of every center, which together cover every point once
    assert len(jets) == 2
    rows = [tuple(q) for batch in jets for q in batch]
    assert len(rows) == len(set(rows)) == 2 * (2 * 4 + 1)
    # the same for phi: to second order at the centers, which tension
    # reads, and to first order at the stencil points
    assert phi_orders == [(2, 2), (2 * 2 * 4, 1)]
    # kaehler, phwc, tension and the stencil center share one PointData
    assert sorted(centers) == sorted(tuple(map(float, q)) for q in points)


def test_theorem_suite_skips_non_phwc():
    from phwc.geometry import HermitianMetricField

    rng = np.random.default_rng(26)
    bad = SmoothMap(2, 2, [Var(0), Var(1)])
    report = theorem_suite([SuiteSample(
        "chart_map", bad, G2, HermitianMetricField.flat(2),
        catalog.sample_points(rng, 4, [[-1, 1]] * 2))])
    assert report.counterexamples == 0
    assert report.skipped == 4
    assert all(r.status == "skipped" and r.reasons == ["NotPHWCAtPoint"]
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


def assert_stencils_equal(a, b):
    assert a.center.rank == b.center.rank
    for fa, fb in zip([a.center, *a.plus, *a.minus],
                      [b.center, *b.plus, *b.minus]):
        for name in ("F", "Pplus", "gm", "ginv"):
            assert getattr(fa, name).tobytes() == getattr(fb, name).tobytes()


def shared_stencils(phi, centers):
    """The stencil, or the error building it raised, of each center's
    CheckPoint, all built by one share_stencils."""
    pts = [CheckPoint(phi, G2, p) for p in centers]
    share_stencils(pts)
    batch = []
    for pt in pts:
        try:
            batch.append(pt.stencil)
        except POINT_ERRORS as err:
            batch.append(err)
    return batch


def test_a_lone_check_point_builds_its_stencil_around_its_own_f():
    pt = CheckPoint(EX2, G4, P4)
    assert pt.stencil.center is pt.fp and pt.stencil.at is pt
    assert_stencils_equal(pt.stencil, f_stencil(PointData(EX2, G4, P4)))


def test_share_stencils_equal_each_center_alone():
    # phi = 1/(z - w) is holomorphic, so PHWC on flat R^2.  w is the point
    # p + h e_1 of the second center, so that center's stencil fails at a
    # stencil point; the last center is w itself, where phi fails, and the
    # third is the same point as the first
    w = (0.6 + 1e-4, -0.1)
    z = Var(0) + Const(1j) * Var(1)
    phi = SmoothMap(2, 1, [Const(1.0) / (z - Const(complex(*w)))])
    centers = [(0.3, 0.2), (0.6, -0.1), (0.3, 0.2), (-0.4, 0.5), w]
    batch = shared_stencils(phi, centers)
    for p, got in zip(centers, batch):
        try:
            want = f_stencil(PointData(phi, G2, p))
        except DivisionNearZero as err:
            assert type(got) is DivisionNearZero and str(got) == str(err)
        else:
            assert_stencils_equal(got, want)
    assert [type(x).__name__ for x in batch] == [
        "FStencil", "DivisionNearZero", "FStencil", "FStencil",
        "DivisionNearZero"]


def test_share_stencils_keep_each_skip_reason_on_its_center():
    # phi = z + x1^2 is PHWC exactly where x1 = 0: the stencil there fails
    # at p +/- h e_1, and a center off that line fails itself
    z = Var(0) + Const(1j) * Var(1)
    phi = SmoothMap(2, 1, [z + Var(0) ** 2])
    centers = [(0.0, 0.3), (0.5, 0.2), (0.0, -0.4)]
    batch = shared_stencils(phi, centers)
    for p, got in zip(centers, batch):
        with pytest.raises(NotPHWCAtPoint) as err:
            f_stencil(PointData(phi, G2, p))
        assert type(got) is NotPHWCAtPoint and str(got) == str(err.value)
    assert str(batch[0]) != str(batch[1])
