import numpy as np
import pytest

from phwc import catalog, maps
from phwc.geometry import (
    HermitianMetricField,
    MetricField,
    MetricPoint,
    TargetNotKaehler,
    laplace_beltrami,
)
from phwc.jet import Const, Var, conj, eval_jet2, im, re, sin, cos, wirtinger
from phwc.maps import (
    DimensionMismatch,
    PointData,
    SmoothMap,
    antiholomorphy_residual,
    compose,
    differential,
    holomorphy_residual,
    hwc_report,
    isotropy_residual,
    phwc_residual_commutator,
    phwc_residual_coord,
    pluriharmonic_residual,
    tension,
)

EX1 = catalog.immersion_r2_c3()
EX2 = catalog.linear_r4_c2()
G2 = MetricField.euclidean(2)
G4 = MetricField.euclidean(4)
H3 = HermitianMetricField.flat(3)
H2 = HermitianMetricField.flat(2)
H1 = HermitianMetricField.flat(1)


def test_differential_of_builtin_maps():
    d = differential(EX1, (0.3, -0.2))
    assert np.allclose(d.grad, [[1, 1j]] * 3)
    assert np.max(np.abs(d.second)) == 0.0
    d = differential(EX2, (1.0, 2.0, 3.0, 4.0))
    assert np.allclose(d.grad, [[1j, 1j, 1, 1]] * 2)


def test_differential_constant_map():
    phi = SmoothMap(2, 2, [Const(3.0 + 1j), Const(0.0)])
    d = differential(phi, (0.5, 0.5))
    assert np.max(np.abs(d.grad)) == 0.0
    assert np.max(np.abs(d.second)) == 0.0


# --------------------------------------------------------------------------
# the three PHWC residuals
# --------------------------------------------------------------------------

def test_phwc_residual_builtin_maps():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p2, p4 = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 4)
        assert phwc_residual_coord(PointData(EX1, G2, p2)) < 1e-14
        assert phwc_residual_coord(PointData(EX2, G4, p4)) < 1e-14


def test_phwc_residual_identity_chart_map():
    # (x1, x2) as a map into C^2 is as far from PHWC as it gets: the (1,1)
    # Gram entry is g^ij d phi^1 d phi^1 = 1.
    phi = SmoothMap(2, 2, [Var(0), Var(1)])
    pd = PointData(phi, G2, (0.2, 0.7), H2)
    assert np.isclose(phwc_residual_coord(pd), 1.0)
    assert phwc_residual_commutator(pd) > 0


def test_isotropy_equals_coordinate_residual():
    rng = np.random.default_rng(1)
    for _ in range(30):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        phi = catalog.random_polynomial_map(rng, m, n)
        g = catalog.random_polynomial_metric(rng, m)
        p = rng.uniform(-1, 1, m)
        pd = PointData(phi, g, p)
        a = phwc_residual_coord(pd)
        b = isotropy_residual(pd)
        assert abs(a - b) <= 1e-12 * max(1.0, a)


def test_commutator_vanishes_iff_coordinate_does():
    rng = np.random.default_rng(2)
    hits = 0
    for _ in range(40):
        if rng.random() < 0.5:
            phi, g, h, p = EX1, G2, H3, rng.uniform(-1, 1, 2)
        else:
            phi = catalog.random_polynomial_map(rng, 2, 2)
            g, h, p = G2, H2, rng.uniform(-1, 1, 2)
        pd = PointData(phi, g, p, h)
        c = phwc_residual_coord(pd)
        k = phwc_residual_commutator(pd)
        if c < 1e-10:
            assert k < 1e-8
        else:
            assert k > 1e-8
            hits += 1
    assert hits > 5


def test_commutator_for_holomorphic_plane_map():
    phi = SmoothMap(2, 1, [(Var(0) + Const(1j) * Var(1)) ** 3])
    for p in [(0.5, -0.3), (1.0, 2.0)]:
        pd = PointData(phi, G2, p, HermitianMetricField.flat(1))
        assert phwc_residual_commutator(pd) < 1e-12


# --------------------------------------------------------------------------
# horizontal weak conformality
# --------------------------------------------------------------------------

def test_hwc_linear_conformal_map():
    phi = SmoothMap(2, 1, [Const(2.0) * (Var(0) + Const(1j) * Var(1))])
    rep = hwc_report(PointData(phi, G2, (0.3, 0.4), H1))
    assert np.isclose(rep.lambda_sq, 4.0)
    assert rep.defect <= 1e-12


def test_hwc_defect_of_builtin_maps():
    # the immersion into C^3: defect sqrt(48); the linear R^4 map: defect 8
    rep1 = hwc_report(PointData(EX1, G2, (0.1, 0.2), H3))
    assert rep1.defect > 0.5
    assert np.isclose(rep1.defect, np.sqrt(48.0))
    assert np.isclose(rep1.lambda_sq, 1.0)
    rep2 = hwc_report(PointData(EX2, G4, (1.0, -1.0, 0.5, 2.0), H2))
    assert rep2.defect >= 1.0
    assert np.isclose(rep2.defect, 8.0)


def test_hwc_zero_differential_point():
    phi = SmoothMap(2, 1, [(Var(0) ** 2 + Var(1) ** 2) * Const(1.0)])
    rep = hwc_report(PointData(phi, G2, (0.0, 0.0), H1))
    assert rep.lambda_sq == 0.0 and rep.defect <= 1e-15


def test_hwc_implies_phwc_threshold():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = catalog.holomorphic_polynomial(rng, 1, max_degree=3)
        phi = SmoothMap(2, 1, [f])
        p = rng.uniform(-1, 1, 2)
        pd = PointData(phi, G2, p, H1)
        rep = hwc_report(pd)
        if rep.defect <= 1e-10:
            assert phwc_residual_coord(pd) <= 1e-8


def test_hwc_phwc_equivalence_on_line_targets():
    # complex 1-dimensional targets: the two notions coincide
    rng = np.random.default_rng(4)
    seen_fail = seen_pass = False
    for _ in range(40):
        if rng.random() < 0.5:
            phi = SmoothMap(2, 1, [catalog.holomorphic_polynomial(rng, 1)])
        else:
            phi = catalog.random_polynomial_map(rng, 2, 1)
        p = rng.uniform(-1, 1, 2)
        pd = PointData(phi, G2, p, H1)
        coord = phwc_residual_coord(pd)
        defect = hwc_report(pd).defect
        if coord <= 1e-10:
            assert defect <= 1e-8
            seen_pass = True
        if defect <= 1e-8:
            assert coord <= 1e-10
        if coord > 1e-6:
            assert defect > 1e-8
            seen_fail = True
    assert seen_pass and seen_fail


# --------------------------------------------------------------------------
# tension
# --------------------------------------------------------------------------

def test_tension_of_builtin_maps_vanishes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t1 = tension(PointData(EX1, G2, rng.uniform(-2, 2, 2), H3))
        assert t1.harmonic_residual < 1e-13
        t2 = tension(PointData(EX2, G4, rng.uniform(-2, 2, 4), H2))
        assert t2.harmonic_residual < 1e-13


def test_tension_evaluates_phi_once(monkeypatch):
    calls = []
    for name in ("jets", "value"):
        def counted(self, p, *order, _orig=getattr(SmoothMap, name),
                    _name=name):
            calls.append((_name, *order))
            return _orig(self, p, *order)
        monkeypatch.setattr(SmoothMap, name, counted)
    t = tension(PointData(EX1, G2, (0.3, -0.2), H3))
    assert t.harmonic_residual < 1e-13
    # one pass, to second order: tension reads phi's second partials
    assert calls == [("jets", 2)]


def test_value_is_a_first_order_pass(monkeypatch):
    # values do not depend on the order of the pass: the bits of a
    # second-order pass's values, at one point and at a set, and no Hessian
    from phwc import maps

    hessians = []

    def spied(e, p, order=2):
        jets = eval_jet2(e, p, order)
        hessians.append(jets.hess)
        return jets

    monkeypatch.setattr(maps, "eval_jet2", spied)
    rng = np.random.default_rng(36)
    wave = SmoothMap(2, 1, [Const(0.3) * cos(Var(0) + Const(0.4))
                            + Const(0.1j) * sin(Var(1) + Const(2.2))])
    for phi in (EX1, EX2, wave,
                catalog.random_holomorphic_map(rng, 3, 2)):
        for p in (rng.uniform(-2, 2, phi.domain_dim),
                  rng.uniform(-2, 2, (50, phi.domain_dim))):
            full = eval_jet2(phi.components, p).value
            assert phi.value(p).tobytes() == full.tobytes()
    assert len(hessians) == 8 and all(h is None for h in hessians)


def test_tension_coordinate_laplacian():
    # |x|^2 as a map R^2 -> C has tau = 4
    phi = SmoothMap(2, 1, [Var(0) ** 2 + Var(1) ** 2])
    t = tension(PointData(phi, G2, (0.3, 0.8), H1))
    assert np.isclose(t.tau[0], 4.0)
    assert np.isclose(t.harmonic_residual, 4.0)


def fubini_study_like():
    return HermitianMetricField(
        1, [[(Const(1.0) + Var(0) ** 2 + Var(1) ** 2) ** -2]], kaehler=True)


def test_tension_holomorphic_into_curved_target():
    # z^2 into the curved line target: the Gram factor (2z)^2 + (2iz)^2 = 0
    # kills the Christoffel term, so tau = 0 termwise.
    phi = SmoothMap(2, 1, [(Var(0) + Const(1j) * Var(1)) ** 2])
    t = tension(PointData(phi, G2, (1.0, 0.0), fubini_study_like()))
    assert t.harmonic_residual < 1e-13


def test_tension_reparametrized_geodesic():
    # x -> tan(x) sweeps a geodesic of the curved line target at constant
    # speed in arc length; its tension must vanish identically.  This pins
    # the sign and normalization of the target Christoffel contraction.
    phi = SmoothMap(1, 1, [sin(Var(0)) / cos(Var(0))])
    g1 = MetricField.euclidean(1)
    for x in [0.0, 0.4, -0.9, 1.2]:
        t = tension(PointData(phi, g1, (x,), fubini_study_like()))
        assert t.harmonic_residual < 1e-10


def test_tension_requires_kaehler_flag():
    h = catalog.non_kaehler_hermitian_c2()
    with pytest.raises(TargetNotKaehler):
        tension(PointData(EX2, G4, (0.0, 0.0, 0.0, 0.0), h))


def test_tension_real_reconstruction():
    phi = catalog.random_polynomial_map(np.random.default_rng(6), 3, 2)
    g = catalog.random_polynomial_metric(np.random.default_rng(7), 3)
    t = tension(PointData(phi, g, (0.1, 0.2, -0.3), H2))
    v = t.real_components()
    assert v.dtype == float and len(v) == 4


# --------------------------------------------------------------------------
# pluriharmonicity
# --------------------------------------------------------------------------

def pluriharmonic_at(f, z, h=None):
    """pluriharmonic_residual of f at the chart point z, Euclidean source."""
    x = HermitianMetricField.real_coords(z)
    return pluriharmonic_residual(
        PointData(f, MetricField.euclidean(len(x)), x, h))


def test_pluriharmonic_real_part_of_holomorphic():
    f = SmoothMap(4, 1, [re(catalog.zvar(0) ** 3)])
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        assert pluriharmonic_at(f, z) < 1e-13


def test_pluriharmonic_modulus_squared():
    f = SmoothMap(2, 1, [catalog.zvar(0) * conj(catalog.zvar(0))])
    assert np.isclose(pluriharmonic_at(f, np.array([0.3 + 0.4j])), 1.0)


def test_pluriharmonic_product_of_real_parts():
    f = SmoothMap(4, 1, [re(catalog.zvar(0)) * re(catalog.zvar(1))])
    rng = np.random.default_rng(9)
    for _ in range(5):
        z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        assert np.isclose(pluriharmonic_at(f, z), 0.25)


# h = 1 + |w|^2 on C^1 (potential |w|^2 + |w|^4/4): Gamma = conj(w)/(1 + |w|^2)
CURVED_H1 = HermitianMetricField(1, [[Var(0) ** 2 + Var(1) ** 2 + 1.0]],
                                 kaehler=True)


def test_pluriharmonic_curved_target_hand_value():
    # f = z + conj(z)/2 has df/dz = 1, df/dzbar = 1/2 and no Hessian, so
    # only the target term Gamma(f) * 1 * 1/2 remains
    z0 = catalog.zvar(0)
    f = SmoothMap(2, 1, [z0 + Const(0.5) * conj(z0)])
    rng = np.random.default_rng(21)
    for _ in range(5):
        z = np.array([rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)])
        w = abs(z[0] + 0.5 * np.conj(z[0]))
        assert pluriharmonic_at(f, z) == 0.0
        assert pluriharmonic_at(f, z, H1) == 0.0
        assert np.isclose(pluriharmonic_at(f, z, CURVED_H1),
                          0.5 * w / (1 + w ** 2), rtol=1e-14, atol=0)
    # a holomorphic map is pluriharmonic into any Kaehler target
    g = SmoothMap(2, 1, [z0 ** 2 + z0])
    assert pluriharmonic_at(g, np.array([0.4 - 0.3j]), CURVED_H1) < 1e-14


def test_pluriharmonic_requires_kaehler_target():
    forged = HermitianMetricField(1, [[Var(0) ** 2 + 1.0]])
    f = SmoothMap(2, 1, [catalog.zvar(0)])
    with pytest.raises(TargetNotKaehler):
        pluriharmonic_at(f, np.array([0.2 + 0.1j]), forged)


# --------------------------------------------------------------------------
# composition with +/- holomorphic maps
# --------------------------------------------------------------------------

def test_compose_holomorphic_keeps_phwc():
    w1, w2, w3 = catalog.zvar(0), catalog.zvar(1), catalog.zvar(2)
    psi = SmoothMap(6, 2, [w1 + w2 ** 2, w3])
    comp = compose(psi, EX1)
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = rng.uniform(-2, 2, 2)
        assert phwc_residual_coord(PointData(comp, G2, p)) < 1e-12


def test_compose_antiholomorphic_keeps_phwc():
    psi = SmoothMap(6, 3, [conj(catalog.zvar(a)) for a in range(3)])
    comp = compose(psi, EX1)
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.uniform(-2, 2, 2)
        assert phwc_residual_coord(PointData(comp, G2, p)) < 1e-13


def test_compose_non_holomorphic_breaks_phwc():
    psi = SmoothMap(6, 1, [catalog.zvar(0) + conj(catalog.zvar(0))])
    comp = compose(psi, EX1)
    assert phwc_residual_coord(PointData(comp, G2, (0.5, 0.5))) > 1e-3


def test_compose_dimension_check():
    psi = SmoothMap(4, 1, [catalog.zvar(0)])
    with pytest.raises(DimensionMismatch):
        compose(psi, EX1)


def test_holomorphy_residuals():
    psi = SmoothMap(4, 2, [catalog.zvar(0) ** 2, catalog.zvar(1)])
    z = np.array([0.5 + 0.1j, -0.2 + 0.9j])
    assert holomorphy_residual(psi, z) < 1e-14
    assert antiholomorphy_residual(psi, z) > 0.5
    bar = SmoothMap(4, 1, [conj(catalog.zvar(0))])
    assert antiholomorphy_residual(bar, z) < 1e-14
    assert holomorphy_residual(bar, z) == 1.0


# --------------------------------------------------------------------------
# pullback and chain-rule properties
# --------------------------------------------------------------------------

def test_pullback_holomorphic_functions_through_immersion():
    rng = np.random.default_rng(12)
    h1 = HermitianMetricField.flat(1)
    for _ in range(20):
        f = SmoothMap(6, 1, [catalog.holomorphic_polynomial(rng, 3)])
        pulled = compose(f, EX1)
        for _ in range(5):
            pd = PointData(pulled, G2, rng.uniform(-1, 1, 2), h1)
            for part in (re(pulled.components[0]), im(pulled.components[0])):
                assert abs(laplace_beltrami(part, pd)) < 1e-9
            # harmonic-morphism strengthening: the pulled-back function is
            # itself horizontally weakly conformal
            assert hwc_report(pd).defect < 1e-9


def test_pullback_pluriharmonic_functions_through_immersion():
    rng = np.random.default_rng(13)
    for _ in range(20):
        fa = catalog.holomorphic_polynomial(rng, 3)
        fb = catalog.holomorphic_polynomial(rng, 3)
        f = SmoothMap(6, 1, [re(fa) + Const(rng.uniform(-1, 1)) * re(fb)])
        assert pluriharmonic_at(
            f, rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)) < 1e-10
        pulled = compose(f, EX1)
        for _ in range(5):
            at = MetricPoint(G2, rng.uniform(-1, 1, 2))
            assert abs(laplace_beltrami(pulled.components[0], at)) < 1e-9


def test_composition_closure_tension():
    rng = np.random.default_rng(14)
    for base, g, h_in in [(EX1, G2, 3), (EX2, G4, 2)]:
        for _ in range(5):
            psi = catalog.random_holomorphic_map(rng, h_in, 2)
            comp = compose(psi, base)
            hk = HermitianMetricField.flat(2)
            for _ in range(5):
                p = rng.uniform(-1, 1, base.domain_dim)
                pd = PointData(comp, g, p, hk)
                assert phwc_residual_coord(pd) <= 1e-10
                assert tension(pd).harmonic_residual <= 1e-9


def test_chain_rule_identity():
    # Laplacian of f o phi = df(tau(phi)) + trace of Hess f over (dphi, dphi),
    # with flat metrics on both sides.
    rng = np.random.default_rng(15)
    for _ in range(10):
        phi = catalog.random_polynomial_map(rng, 2, 2)
        fz = catalog.holomorphic_polynomial(rng, 2, max_degree=2)
        f = SmoothMap(4, 1, [fz * conj(catalog.zvar(0)) + re(catalog.zvar(1))])
        pulled = compose(f, phi)
        p = rng.uniform(-0.8, 0.8, 2)

        at = MetricPoint(G2, p)
        lhs = (laplace_beltrami(re(pulled.components[0]), at)
               + 1j * laplace_beltrami(im(pulled.components[0]), at))

        tau = tension(PointData(phi, G2, p, H2)).tau
        x = HermitianMetricField.real_coords(phi.value(p))
        jf = eval_jet2(f.components[0], x)

        n = 2
        d = wirtinger(jf.grad)
        df_term = d[:n] @ tau + d[n:] @ np.conj(tau)
        dphi = differential(phi, p).grad
        dphi_full = np.vstack([dphi, np.conj(dphi)])
        hess = wirtinger(wirtinger(jf.hess).T)
        trace_term = np.einsum("AB,Ai,Bi->", hess, dphi_full, dphi_full)
        assert abs(lhs - (df_term + trace_term)) < 1e-9


def test_the_stacked_frobenius_norm_is_each_matrix_norm_bit_for_bit():
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        for decade in range(-5, 6):
            shape = (30, n, n)
            stack = (rng.standard_normal(shape) + 1j * rng.standard_normal(
                shape)) * 10.0 ** decade * rng.uniform(0.5, 2, (30, 1, 1))
            norms = maps._frobenius(stack)
            assert norms.shape == (30,)
            for a, norm in zip(stack, norms):
                assert norm == np.linalg.norm(a)
                one = maps._frobenius(a)
                assert type(one) is float and one == np.linalg.norm(a)
