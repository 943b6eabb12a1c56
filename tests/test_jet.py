import numpy as np
import pytest

from phwc import jet
from phwc.jet import (
    Const,
    DivisionNearZero,
    ParseError,
    Var,
    VariableIndexOutOfRange,
    eval_jet2,
    parse_expr,
)


def fd_jet(e, p, step=1e-4):
    """Central-difference gradient/Hessian oracle, independent of the jets."""
    p = np.asarray(p, dtype=float)
    m = len(p)

    def f(q):
        return eval_jet2(e, q).value

    grad = np.zeros(m, dtype=complex)
    hess = np.zeros((m, m), dtype=complex)
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = step
        grad[i] = (f(p + ei) - f(p - ei)) / (2 * step)
        hess[i, i] = (f(p + ei) - 2 * f(p) + f(p - ei)) / step**2
        for j_ in range(i + 1, m):
            ej = np.zeros(m)
            ej[j_] = step
            hess[i, j_] = (f(p + ei + ej) - f(p + ei - ej)
                           - f(p - ei + ej) + f(p - ei - ej)) / (4 * step**2)
            hess[j_, i] = hess[i, j_]
    return grad, hess


def random_expr(rng, nvars, depth):
    """Random expression avoiding division (divisors are guarded separately)."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Var(int(rng.integers(nvars)))
        return Const(rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2) * (rng.random() < 0.4))
    kind = rng.choice(["add", "sub", "mul", "pow", "sin", "cos", "exp",
                       "conj", "re", "im", "div"])
    a = random_expr(rng, nvars, depth - 1)
    if kind == "add":
        return a + random_expr(rng, nvars, depth - 1)
    if kind == "sub":
        return a - random_expr(rng, nvars, depth - 1)
    if kind == "mul":
        return a * random_expr(rng, nvars, depth - 1)
    if kind == "div":
        # keep the divisor's modulus well away from zero
        return a / (Const(2.5) + jet.sin(Var(int(rng.integers(nvars)))))
    if kind == "pow":
        return a ** int(rng.integers(2, 4))
    return getattr(jet, kind)(a)


def test_product_rule():
    e = Var(0) * Var(1)
    j = eval_jet2(e, (3.0, 5.0))
    assert j.value == 15.0
    assert np.allclose(j.grad, [5.0, 3.0])
    assert j.hess[0, 1] == 1.0 and j.hess[1, 0] == 1.0


def test_linear_complex_map_component():
    # x1 + i x2 has constant gradient (1, i) and vanishing Hessian
    e = Var(0) + Const(1j) * Var(1)
    for p in [(0.0, 0.0), (2.0, -1.5)]:
        j = eval_jet2(e, p)
        assert j.value == p[0] + 1j * p[1]
        assert np.allclose(j.grad, [1.0, 1j])
        assert np.all(j.hess == 0)


def test_against_finite_differences_smoke():
    e = jet.exp(Var(0)) * jet.sin(Var(1))
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = rng.uniform(-1.5, 1.5, size=2)
        j = eval_jet2(e, p)
        g, h = fd_jet(e, p)
        assert np.max(np.abs(j.grad - g)) / max(1.0, np.max(np.abs(g))) < 1e-6
        assert np.max(np.abs(j.hess - h)) / max(1.0, np.max(np.abs(h))) < 1e-6


def test_chain_rule_soundness_random_suite():
    # 100 random expressions and points against the central-difference oracle
    rng = np.random.default_rng(20240811)
    checked = 0
    while checked < 100:
        e = random_expr(rng, 3, 3)
        p = rng.uniform(-1.2, 1.2, size=3)
        try:
            j = eval_jet2(e, p)
            g, h = fd_jet(e, p)
        except DivisionNearZero:
            continue
        scale_g = max(1.0, np.max(np.abs(g)))
        scale_h = max(1.0, np.max(np.abs(h)))
        if scale_g > 1e3 or scale_h > 1e3:
            continue  # steep sample; the FD oracle itself loses accuracy
        assert np.max(np.abs(j.grad - g)) / scale_g < 1e-6
        assert np.max(np.abs(j.hess - h)) / scale_h < 1e-6
        checked += 1


def test_hessian_symmetry_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        e = random_expr(rng, 3, 3)
        p = rng.uniform(-1.0, 1.0, size=3)
        try:
            j = eval_jet2(e, p)
        except DivisionNearZero:
            continue
        assert np.array_equal(j.hess, j.hess.T)


def test_linearity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        e1 = random_expr(rng, 2, 2)
        e2 = random_expr(rng, 2, 2)
        a = rng.uniform(-2, 2)
        p = rng.uniform(-1, 1, size=2)
        try:
            left = eval_jet2(Const(a) * e1 + e2, p)
            j1, j2 = eval_jet2(e1, p), eval_jet2(e2, p)
        except DivisionNearZero:
            continue
        scale = max(1.0, abs(left.value))
        assert abs(left.value - (a * j1.value + j2.value)) <= 1e-14 * scale
        assert np.max(np.abs(left.grad - (a * j1.grad + j2.grad))) <= 1e-14 * max(
            1.0, np.max(np.abs(left.grad)))
        assert np.max(np.abs(left.hess - (a * j1.hess + j2.hess))) <= 1e-14 * max(
            1.0, np.max(np.abs(left.hess)))


def test_real_expression_stays_real():
    e = jet.sin(Var(0)) * Var(1) + jet.exp(Var(0)) ** 2
    j = eval_jet2(e, (0.3, -0.7))
    assert j.value.imag == 0
    assert np.all(j.grad.imag == 0)
    assert np.all(j.hess.imag == 0)


def test_division_guard():
    e = Const(1.0) / Var(0)
    with pytest.raises(DivisionNearZero):
        eval_jet2(e, (1e-13,))
    j = eval_jet2(e, (2.0,))
    assert j.value == 0.5


def test_variable_out_of_range():
    with pytest.raises(VariableIndexOutOfRange):
        eval_jet2(Var(2), (1.0, 2.0))


def test_negative_integer_power():
    e = Var(0) ** -2
    j = eval_jet2(e, (2.0,))
    assert np.isclose(j.value, 0.25)
    assert np.isclose(j.grad[0], -2 * 2.0 ** -3)
    assert np.isclose(j.hess[0, 0], 6 * 2.0 ** -4)


# exact jets of x1^n at x1 = 0: value, gradient, Hessian
ZERO_BASE_POWERS = {
    0: (1.0, 0.0, 0.0),
    1: (0.0, 1.0, 0.0),
    2: (0.0, 0.0, 2.0),
    3: (0.0, 0.0, 0.0),
}


@pytest.mark.parametrize("n", range(-2, 4))
def test_integer_power_at_zero_base(n):
    e = Var(0) ** n
    if n < 0:
        with pytest.raises(DivisionNearZero):
            eval_jet2(e, (0.0,))
        return
    j = eval_jet2(e, (0.0,))
    value, grad, hess = ZERO_BASE_POWERS[n]
    assert j.value == value
    assert j.grad[0] == grad
    assert j.hess[0, 0] == hess


def test_parsed_first_power_at_zero():
    j = eval_jet2(parse_expr("x1^1"), [0.0])
    assert j.value == 0.0 and j.grad[0] == 1.0 and j.hess[0, 0] == 0.0


@pytest.mark.parametrize("n", [0.5, 2.9])
def test_non_integer_power_is_rejected(n):
    # x1 ** 0.5 at 4 used to read 1 (x1^0) and x1 ** 2.9 at 2 read 4 (x1^2)
    with pytest.raises(TypeError, match="integer powers"):
        Var(0) ** n


def test_integral_float_power_is_accepted():
    assert eval_jet2(Var(0) ** 2.0, [3.0]).value == 9.0


# --------------------------------------------------------------------------
# shared subtrees: each node object is evaluated once per call
# --------------------------------------------------------------------------

def children(e):
    """The child nodes of e, read from the slots of its classes."""
    return [getattr(e, name) for cls in type(e).__mro__
            for name in vars(cls).get("__slots__", ())
            if isinstance(getattr(e, name), jet.Expr)]


def tree_nodes(e):
    """Every node occurrence in the tree; a shared node occurs repeatedly."""
    yield e
    for child in children(e):
        yield from tree_nodes(child)


def count_node_evals(monkeypatch):
    """Ids of the nodes whose ``jet`` runs, in call order."""
    calls = []
    pending = [jet.Expr]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "jet" in vars(cls):
            def counted(node, at, _orig=vars(cls)["jet"]):
                calls.append(id(node))
                return _orig(node, at)
            monkeypatch.setattr(cls, "jet", counted)
    return calls


def subtree():
    return (jet.sin(Var(0)) * Var(1) - Const(0.5 - 0.25j) * Var(0) ** 3
            + Var(1))


def every_node_tree(sub):
    """A tree with every node type in which ``sub()`` occurs five times."""
    return (jet.cos(sub()) * sub() ** 2
            + jet.exp(jet.conj(sub()) / (Const(2.5) + jet.cos(Var(0))))
            - jet.re(sub()) * jet.im(sub()) + Const(1j) * Var(1))


def composite_component():
    from phwc import catalog
    from phwc.maps import compose

    rng = np.random.default_rng(5)
    psi = catalog.random_holomorphic_map(rng, 3, 1)
    return compose(psi, catalog.immersion_r2_c3()).components[0]


def test_shared_subtree_equals_rebuilt_tree_exactly():
    s = subtree()
    shared = every_node_tree(lambda: s)
    rebuilt = every_node_tree(subtree)
    nodes = list(tree_nodes(rebuilt))
    assert len({id(n) for n in nodes}) == len(nodes)   # nothing to reuse
    assert len({id(n) for n in tree_nodes(shared)}) < len(nodes)
    assert {type(n) for n in nodes} == {
        jet.Const, jet.Var, jet.Add, jet.Sub, jet.Mul, jet.Div, jet.Pow,
        jet.Sin, jet.Cos, jet.Exp, jet.Conj, jet.Re, jet.Im}
    for p in [(0.3, -0.7), (1.1, 0.4)]:
        a, b = eval_jet2(shared, p), eval_jet2(rebuilt, p)
        assert a.value == b.value
        assert np.array_equal(a.grad, b.grad)
        assert np.array_equal(a.hess, b.hess)


def test_composite_evaluates_each_node_once(monkeypatch):
    comp = composite_component()
    nodes = [id(n) for n in tree_nodes(comp)]
    assert len(set(nodes)) < len(nodes)   # compose shares re/im(phi^a)
    calls = count_node_evals(monkeypatch)
    eval_jet2(comp, (0.3, -0.7))
    assert sorted(calls) == sorted(set(nodes))
    calls.clear()
    eval_jet2(comp, (0.3, -0.7))          # nothing is kept between calls
    assert sorted(calls) == sorted(set(nodes))


def test_division_error_in_shared_denominator_leaves_no_state():
    def tree(den):
        return Var(1) / den() + jet.sin(Var(1) / den()) * den()

    d = Var(0) - Const(1.0)
    shared = tree(lambda: d)
    with pytest.raises(DivisionNearZero):
        eval_jet2(shared, (1.0, 2.0))
    a = eval_jet2(shared, (3.0, 2.0))
    b = eval_jet2(tree(lambda: Var(0) - Const(1.0)), (3.0, 2.0))
    assert a.value == b.value
    assert np.array_equal(a.grad, b.grad)
    assert np.array_equal(a.hess, b.hess)


# --------------------------------------------------------------------------
# grammar
# --------------------------------------------------------------------------

def test_parse_roundtrip_values():
    e = parse_expr("x1^2 + 2*x2 - sin(x1)*i")
    j = eval_jet2(e, (0.5, 3.0))
    assert np.isclose(j.value, 0.25 + 6.0 - np.sin(0.5) * 1j)


def test_parse_wirtinger_primitives():
    e = parse_expr("conj(x1 + i*x2) * (re(x1) + im(i*x2))")
    j = eval_jet2(e, (1.0, 2.0))
    assert np.isclose(j.value, (1 - 2j) * (1 + 2.0))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("x1 + * 2")
    assert err.value.position == 5


def test_parse_rejects_trailing():
    with pytest.raises(ParseError):
        parse_expr("x1 x2")


def test_parse_power_and_precedence():
    e = parse_expr("2*x1^3")
    assert np.isclose(eval_jet2(e, (2.0,)).value, 16.0)
    e = parse_expr("(1+x1)^-1")
    assert np.isclose(eval_jet2(e, (1.0,)).value, 0.5)


def test_parse_scientific_number():
    e = parse_expr("1.5e-2 + x1")
    assert np.isclose(eval_jet2(e, (0.0,)).value, 0.015)


def tree(e):
    """The structure of a tree: node types, Var indices, Pow exponents and
    literal values."""
    if isinstance(e, (Const, Var)):
        return type(e).__name__, getattr(e, "value", getattr(e, "index", 0))
    if isinstance(e, jet.Pow):
        return "Pow", e.n, tree(e.base)
    if isinstance(e, jet._Binary):
        return type(e).__name__, tree(e.left), tree(e.right)
    return type(e).__name__, tree(e.arg)


x1 = Var(0)


@pytest.mark.parametrize("text, built, value", [
    ("-x1", jet.Sub(Const(0.0), x1), -0.5),     # the tree of Expr.__neg__
    ("2*-x1", 2 * -x1, -1.0),
    ("(-1.5)", -Const(1.5), -1.5),
    ("x1 - -2", x1 - -Const(2), 2.5),
    ("--x1", -(-x1), 0.5),
    ("-x1^2", -(x1 ** 2), -0.25),          # -(x1^2), not (-x1)^2
    ("x1^-2", x1 ** -2, 4.0),              # an exponent, not a unary minus
    ("- sin(x1)/2", -jet.sin(x1) / 2, -np.sin(0.5) / 2),
])
def test_unary_minus(text, built, value):
    e = parse_expr(text)
    assert tree(e) == tree(built)
    assert eval_jet2(e, (0.5,)).value == value


@pytest.mark.parametrize("text, message, column", [
    ("1e+", "trailing input 'e'", 2),
    ("2e-", "trailing input 'e'", 2),
    (".", "unexpected character '.'", 1),
    ("x1^- 2", "expected an integer", 5),    # the '-' touches its digits
    ("x0", "variable indices start at x1", 2),
    ("x1.5", "expected a variable index after 'x'", 2),
    ("x1^2.5", "expected an integer", 4),
    ("sin x1", "expected '('", 5),
    ("(x1", "expected ')'", 4),
    ("x1 +", "unexpected end of expression", 5),
])
def test_parse_errors_name_a_column(text, message, column):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert str(err.value) == f"{message} (column {column})"


def test_whitespace_separates_tokens_only():
    assert tree(parse_expr(" x 1 ^ -2 * ( 1.5e-2 )")) == tree(
        x1 ** -2 * Const(0.015))


@pytest.mark.parametrize("text, deep", [
    ("(" * 199 + "x1" + ")" * 199, False),
    ("(" * 200 + "x1" + ")" * 200, True),
    ("sin(" * 199 + "x1" + ")" * 199, False),
    ("-" * 199 + "x1", False),
    ("-" * 200 + "x1", True),
    ("+".join(["x1"] * 200), False),
    ("+".join(["x1"] * 201), True),
    ("*".join(["x1"] * 201), True),
    ("(" * 400 + "x1" + ")" * 400, True),
    ("+".join(["x1"] * 1000), True),
])
def test_depth_limit(text, deep):
    assert jet.MAX_DEPTH == 200
    if deep:
        with pytest.raises(ParseError, match="deeper than 200 levels"):
            parse_expr(text)
    else:
        eval_jet2(parse_expr(text), (0.5,))


# --------------------------------------------------------------------------
# Wirtinger view
# --------------------------------------------------------------------------

def test_wirtinger_derivatives_of_z_and_zbar():
    z = Var(0) + Const(1j) * Var(1)
    j = eval_jet2(z, (0.3, 0.4))
    d_z, d_zbar = jet.wirtinger(j.grad)
    assert np.isclose(d_z, 1.0)
    assert np.isclose(d_zbar, 0.0)
    jc = eval_jet2(jet.conj(z), (0.3, 0.4))
    d_z, d_zbar = jet.wirtinger(jc.grad)
    assert np.isclose(d_z, 0.0)
    assert np.isclose(d_zbar, 1.0)


def test_wirtinger_mixed_hessian_of_modulus_squared():
    # |z|^2 = z zbar has d^2/dz dzbar = 1
    z = Var(0) + Const(1j) * Var(1)
    e = z * jet.conj(z)
    j = eval_jet2(e, (0.7, -0.2))
    hess = jet.wirtinger(np.swapaxes(jet.wirtinger(j.hess), -1, -2))
    assert np.allclose(hess, [[0.0, 1.0], [1.0, 0.0]])


def test_wirtinger_keeps_leading_axes():
    # rows z^2 w and conj(z) w on C^2: each row's frame is (dz, dw, dzbar, dwbar)
    z = Var(0) + Const(1j) * Var(1)
    w = Var(2) + Const(1j) * Var(3)
    x = (0.3, -0.5, 1.2, 0.4)
    zv, wv = complex(0.3, -0.5), complex(1.2, 0.4)
    grads = np.array([eval_jet2(e, x).grad
                      for e in (z ** 2 * w, jet.conj(z) * w)])
    assert np.allclose(jet.wirtinger(grads),
                       [[2 * zv * wv, zv ** 2, 0, 0],
                        [0, np.conj(zv), wv, 0]])
    with pytest.raises(ValueError):
        jet.wirtinger(np.zeros(3))


# --------------------------------------------------------------------------
# symbolic derivatives (used for potential-defined metrics)
# --------------------------------------------------------------------------

def test_symbolic_derivative_matches_jet_gradient():
    rng = np.random.default_rng(17)
    for _ in range(25):
        e = random_expr(rng, 3, 3)
        p = rng.uniform(-1.0, 1.0, size=3)
        try:
            j = eval_jet2(e, p)
            for i in range(3):
                d = eval_jet2(jet.differentiate(e, i), p).value
                assert abs(d - j.grad[i]) <= 1e-12 * max(1.0, abs(d))
        except DivisionNearZero:
            continue


def test_symbolic_derivative_hand_cases():
    e = jet.sin(Var(0)) * Var(1) ** 2
    d0 = eval_jet2(jet.differentiate(e, 0), (0.4, 2.0)).value
    assert np.isclose(d0, np.cos(0.4) * 4.0)
    d1 = eval_jet2(jet.differentiate(e, 1), (0.4, 2.0)).value
    assert np.isclose(d1, np.sin(0.4) * 4.0)
    dconj = jet.differentiate(jet.conj(Var(0) + Const(1j) * Var(1)), 1)
    assert np.isclose(eval_jet2(dconj, (0.0, 0.0)).value, -1j)


# --------------------------------------------------------------------------
# point sets: a pass over N points equals N passes of one point, bit for bit
# --------------------------------------------------------------------------

def assert_bit_equal(a, b):
    for x, y in ((a.value, b.value), (a.grad, b.grad), (a.hess, b.hess)):
        x, y = np.asarray(x), np.asarray(y)
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_batch_is_pointwise(exprs, points):
    batch = eval_jet2(exprs, points)
    assert batch.value.shape == (len(points), len(exprs))
    for k, p in enumerate(points):
        alone = eval_jet2(exprs, p)
        for i in range(len(exprs)):
            assert_bit_equal(batch[k, i], alone[i])


def catalog_families(rng):
    from phwc import catalog
    from phwc.maps import compose

    ex1, ex2 = catalog.immersion_r2_c3(), catalog.linear_r4_c2()
    for idx in range(4):
        base, nin = (ex1, 3) if idx % 2 == 0 else (ex2, 2)
        yield compose(catalog.random_holomorphic_map(rng, nin, 2),
                      base).components, base.domain_dim
    for m in (2, 3, 4):
        yield catalog.random_polynomial_map(rng, m, 3).components, m
        g = catalog.random_polynomial_metric(rng, m)
        yield [e for row in g.components for e in row], m
    for n in (1, 2):
        h = catalog.random_kaehler_metric(rng, n)
        yield [e for row in h.components for e in row], 2 * n
    h = catalog.non_kaehler_hermitian_c2()
    yield [e for row in h.components for e in row], 4


def test_batch_equals_pointwise_on_catalog_families():
    rng = np.random.default_rng(8)
    for exprs, m in catalog_families(rng):
        assert_batch_is_pointwise(exprs, rng.uniform(-1, 1, (20, m)))


def test_batch_equals_pointwise_on_every_node_type():
    s = subtree()
    trees = [every_node_tree(lambda: s), every_node_tree(subtree),
             parse_expr("(x1 + i*x2)^-3 + 1/(x1 - 3) - conj(exp(x2))^4"),
             parse_expr("x1^101 - i*x2^150 + (x1 + i*x2)^-120"),
             parse_expr("exp(i*x1)^130 + sin(x2)^-101")]
    rng = np.random.default_rng(9)
    assert_batch_is_pointwise(trees, rng.uniform(0.2, 1.0, (25, 2)))


def test_constant_roots_get_a_point_axis():
    j = eval_jet2([Const(2.0), jet.conj(Const(1j)) * Const(3.0)],
                  np.zeros((4, 2)))
    assert j.value.T.tolist() == [[2.0] * 4, [-3j] * 4]
    assert j.grad.shape == (4, 2, 2) and j.hess.shape == (4, 2, 2, 2)
    assert not j.grad.any() and not j.hess.any()


def test_a_grid_of_roots_gives_one_jet_with_root_axes():
    xy = Var(0) * Var(1)
    grid = [[Var(0), xy], [xy, jet.sin(Var(1))]]
    points = np.array([[0.3, 0.7], [1.1, -0.4], [-2.0, 0.5]])
    j = eval_jet2(grid, points)
    assert j.value.shape == (3, 2, 2) and j.hess.shape == (3, 2, 2, 2, 2)
    for a in range(2):
        for b in range(2):
            assert_bit_equal(j[:, a, b], eval_jet2(grid[a][b], points))
    assert_bit_equal(j[1], eval_jet2(grid, points[1]))
    with pytest.raises(TypeError):       # one jet, not a list of them
        iter(j)


def test_values_round_as_python_complex_arithmetic():
    # literals, variables, re/im: Python complex; after exp: numpy complex128
    z = Var(0) + Const(1j) * Var(1)
    rng = np.random.default_rng(10)
    for x, y in rng.uniform(-2, 2, (200, 2)):
        zc = complex(x, y)
        cases = [(z * Const(0.3 - 1.7j), zc * (0.3 - 1.7j)),
                 (z ** 5, zc ** 5), (z ** 101, zc ** 101),
                 (Const(1.0) / z, 1.0 / zc), (z ** -3, (1.0 / zc) ** 3),
                 (jet.exp(z) ** 7, np.exp(zc) ** 7),
                 (Const(1.0) / jet.exp(z), 1.0 / np.exp(zc))]
        for e, want in cases:
            got = eval_jet2(e, np.array([[x, y], [y, x]])).value[0]
            assert np.complex128(got).tobytes() == np.complex128(want).tobytes()


def python_power_overflows(x, n):
    try:
        complex(x) ** n
    except OverflowError:
        return True
    return False


@pytest.mark.parametrize("n", [7, 150, 2000])
def test_power_overflows_where_python_complex_does(n):
    # n <= 100 is CPython's square-and-multiply, larger n its polar form
    xs = [0.5, 1.2, 1.5, 3.0, 1e50, -1e60]
    for x in xs:
        if python_power_overflows(x, n):
            with pytest.raises(OverflowError, match="complex exponentiation"):
                eval_jet2(Var(0) ** n, [x])
        else:
            eval_jet2(Var(0) ** n, [x])
    assert any(python_power_overflows(x, n) for x in xs)
    with pytest.raises(OverflowError):
        eval_jet2(Var(0) ** n, np.array(xs)[:, None])


# --------------------------------------------------------------------------
# first-order passes: the same values and gradients, no Hessian
# --------------------------------------------------------------------------

def assert_first_order_is_full_order(exprs, points):
    full, first = eval_jet2(exprs, points), eval_jet2(exprs, points, order=1)
    assert first.hess is None
    assert full.value.tobytes() == first.value.tobytes()
    assert full.grad.tobytes() == first.grad.tobytes()


def test_first_order_pass_equals_full_pass_to_the_gradient():
    rng = np.random.default_rng(21)
    for exprs, m in catalog_families(rng):
        assert_first_order_is_full_order(exprs, rng.uniform(-1, 1, (20, m)))
        assert_first_order_is_full_order(exprs, rng.uniform(-1, 1, m))
    s = subtree()
    assert_first_order_is_full_order(
        [every_node_tree(lambda: s), every_node_tree(subtree),
         parse_expr("(x1 + i*x2)^-3 + 1/(x1 - 3) - conj(exp(x2))^4"),
         parse_expr("x1^101 - i*x2^150 + (x1 + i*x2)^-120"),
         parse_expr("exp(i*x1)^130 + sin(x2)^-101")],
        rng.uniform(0.2, 1.0, (25, 2)))


def test_first_order_pass_raises_what_a_full_pass_raises():
    for e, p in ((parse_expr("1/(x1 - 0.5)"), [0.5, 0.0]),
                 (Var(0) ** 150, [1e50, 0.0])):
        errors = []
        for order in (2, 1):
            with pytest.raises((DivisionNearZero, OverflowError)) as err:
                eval_jet2(e, np.array([[0.1, 0.2], p]), order=order)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]
    with pytest.raises(ValueError):
        eval_jet2(Var(0), [0.0], order=3)


def test_reading_second_partials_of_a_first_order_differential_raises():
    from phwc.maps import SmoothMap, differential

    phi = SmoothMap(2, 1, [Var(0) ** 2 * Var(1)])
    full = differential(phi, (0.3, 0.5))
    first = differential(phi, (0.3, 0.5), 1)
    assert first.grad.tobytes() == full.grad.tobytes()
    for d in (first, differential(phi, np.ones((3, 2)), 1)[1:]):
        with pytest.raises(jet.HessianNotComputed):
            d.second
    assert full.second[0, 0, 1] == 2 * 0.3


# --------------------------------------------------------------------------
# stacked trees: K trees of one shape evaluated in one pass, bit for bit
# --------------------------------------------------------------------------

def with_literals(roots, rng):
    """A copy of the tree given by roots, sharing what it shares, with new
    random literals."""
    memo = {}

    def copy(e):
        if id(e) not in memo:
            if isinstance(e, Const):
                new = Const(complex(*rng.uniform(0.5, 2.0, 2)))
            elif isinstance(e, Var):
                new = Var(e.index)
            elif isinstance(e, jet.Pow):
                new = jet.Pow(copy(e.base), e.n)
            else:
                new = type(e)(*(copy(c) for c in children(e)))
            memo[id(e)] = new
        return memo[id(e)]

    return [copy(r) for r in roots]


def assert_stack_is_lone(trees, points):
    """The stack of trees (lists of roots) at points equals each tree at its
    own point alone, in value, gradient and Hessian, bit for bit."""
    stacked = eval_jet2(jet.stack(trees), points)
    for k, (roots, p) in enumerate(zip(trees, points)):
        alone = eval_jet2(roots, p)
        for i in range(len(roots)):
            assert_bit_equal(stacked[k, i], alone[i])


def test_stack_equals_lone_passes_on_catalog_metrics():
    from phwc import catalog

    rng = np.random.default_rng(22)
    for m in (2, 3, 4):
        fields = [catalog.random_polynomial_metric(rng, m) for _ in range(12)]
        assert_stack_is_lone([[e for row in g.components for e in row]
                              for g in fields], rng.uniform(-1, 1, (12, m)))
    for n in (1, 2):
        base = catalog.random_kaehler_metric(rng, n)
        roots = [e for row in base.components for e in row]
        assert_stack_is_lone([with_literals(roots, rng) for _ in range(8)],
                             rng.uniform(-1, 1, (8, 2 * n)))


def test_stack_equals_lone_passes_on_every_node_type():
    rng = np.random.default_rng(23)
    s = subtree()
    for tree in (every_node_tree(lambda: s), every_node_tree(subtree)):
        trees = [with_literals([tree], rng) for _ in range(10)]
        assert_stack_is_lone(trees, rng.uniform(0.2, 1.0, (10, 2)))
        single = jet.stack([roots[0] for roots in trees])
        assert isinstance(single, jet.Expr)


def test_stack_keeps_the_sharing_of_its_trees():
    rng = np.random.default_rng(24)
    s = subtree()
    trees = [with_literals([every_node_tree(lambda: s)], rng)
             for _ in range(3)]
    stacked = jet.stack(trees)
    assert (len({id(n) for n in tree_nodes(stacked[0])})
            == len({id(n) for n in tree_nodes(trees[0][0])}))


@pytest.mark.parametrize("other", [
    Var(0) - Const(1.0),                   # node type
    Var(1) + Const(1.0),                   # Var index
])
def test_stack_refuses_trees_of_another_shape(other):
    with pytest.raises(ValueError):
        jet.stack([Var(0) + Const(2.0), other])


def test_stack_refuses_other_exponents_sharing_or_root_counts():
    with pytest.raises(ValueError):
        jet.stack([Var(0) ** 2, Var(0) ** 3])
    shared = Var(0) + Const(1.0)
    with pytest.raises(ValueError):
        jet.stack([shared * shared,
                   (Var(0) + Const(1.0)) * (Var(0) + Const(1.0))])
    with pytest.raises(ValueError):   # sharing among the roots of a list
        jet.stack([[shared, shared * Const(2.0)],
                   [Var(0) + Const(1.0),
                    (Var(0) + Const(1.0)) * Const(2.0)]])
    with pytest.raises(ValueError):
        jet.stack([[Var(0)], [Var(0), Var(0)]])
    with pytest.raises(ValueError):   # a stacked tree is not stacked again
        jet.stack([jet.stack([shared, shared]), shared])


def test_a_stacked_tree_needs_one_point_per_tree():
    stacked = jet.stack([Var(0) * Const(2.0), Var(0) * Const(3.0)])
    assert eval_jet2(stacked, [[1.0], [1.0]]).value.tolist() == [2.0, 3.0]
    for points in ([[1.0]], np.ones((3, 1))):
        with pytest.raises(ValueError):
            eval_jet2(stacked, points)


def test_a_division_near_zero_in_one_stacked_tree_raises_for_the_pass():
    poles = (0.1, 0.5, 0.9)
    trees = [Const(1.0) / (Var(0) - Const(c)) for c in poles]
    points = np.array([[0.3], [0.5], [0.3]])
    with pytest.raises(DivisionNearZero):
        eval_jet2(jet.stack(trees), points)
    # what the pass cannot give, each tree gives alone at its own point
    for tree, p, c in zip(trees, points, poles):
        if c == 0.5:
            with pytest.raises(DivisionNearZero):
                eval_jet2(tree, p)
        else:
            assert eval_jet2(tree, p).value == 1.0 / complex(p[0] - c)


def test_expression_nodes_carry_slots_only():
    s = subtree()
    for node in tree_nodes(every_node_tree(lambda: s)):
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.extra = 1
