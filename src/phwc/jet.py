"""Second-order forward-mode automatic differentiation for scalar expressions.

Expressions are immutable trees over real/complex literals, real variables
``x1 .. xm``, arithmetic, integer powers, ``sin``, ``cos``, ``exp`` and the
non-analytic primitives ``conj``, ``re``, ``im``.  Evaluating an expression at
a point of R^m, or at N points in one pass, produces a :class:`Jet2`: the
value together with the exact gradient and Hessian with respect to the real
coordinates.  A pass over N points walks the tree once, with every array
carrying a leading point axis, and gives at each point exactly what
evaluating that point alone gives; a first-order pass stops at the
gradient.  A pass over a list (or grid) of roots gives one Jet2 too, its
root axes after the point axis: :func:`eval_jet2` is the one place that
lays jets out, and every layer above reads that one container.  Trees of
one shape are stacked by :func:`stack` into one tree whose literals hold a
column of values, one per tree, so a pass at K points evaluates K
different trees, each at its own point.  Complex-analytic derivatives
(Wirtinger derivatives) are recovered from arrays of real derivatives by
:func:`wirtinger` at the bottom of the module; real pairs are interleaved,
so the chart coordinate z^a occupies the real variables
(2a, 2a+1) = (re z^a, im z^a).

``conj``, ``re`` and ``im`` are primitive nodes rather than rewrites because
holomorphic and antiholomorphic components must stay distinguishable.

Trees may share subtrees (map composition substitutes one ``re(phi^a)`` node
at every occurrence, and the entries of a metric share their factors).  One
:func:`eval_jet2` call, of one tree or of several, evaluates each node object
once and reuses its jet wherever the node occurs again; nothing is kept
between calls, so evaluation is pure and expression trees can be shared
freely between threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import repeat
from operator import mul

import numpy as np

__all__ = [
    "DivisionNearZero",
    "VariableIndexOutOfRange",
    "HessianNotComputed",
    "ParseError",
    "DIV_EPS",
    "Jet2",
    "Expr",
    "Const",
    "Var",
    "var",
    "const",
    "sin",
    "cos",
    "exp",
    "conj",
    "re",
    "im",
    "eval_jet2",
    "stack",
    "parse_expr",
    "max_var_index",
    "differentiate",
    "wirtinger",
]

# Division guard: operands with modulus below this abort instead of
# propagating garbage.
DIV_EPS = 1e-12


class DivisionNearZero(ArithmeticError):
    """Division by an operand whose modulus is below DIV_EPS."""


class VariableIndexOutOfRange(IndexError):
    """Expression references a variable index >= the point dimension."""


class HessianNotComputed(AttributeError):
    """The second partials of a first-order pass were read."""


class ParseError(ValueError):
    """Expression text does not conform to the grammar."""

    def __init__(self, message, position):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Jet2:
    """Values, gradients and Hessians of one or more scalars at N points of
    R^m.

    value (N, *R), grad (N, *R, m) and hess (N, *R, m, m), complex, where R
    is the shape of the roots evaluated: () for one expression, (K,) for a
    list of K, (n, n) for a grid.  A jet of one point given as an array of
    shape (m,) has no point axis, and a jet of a first-order pass has hess
    None; reading ``second`` then raises HessianNotComputed.  Indexing
    selects over the leading axes of all three arrays at once, so ``j[k]``
    is the jet at point k.  The Hessian is symmetric by construction: every
    rule below only ever adds symmetrised outer products, so
    ``hess[..., i, j] == hess[..., j, i]`` holds exactly.  Jets are never
    mutated: the arrays of a jet may be those of a tree node.
    """

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray | None

    @property
    def second(self) -> np.ndarray:
        """hess; raises HessianNotComputed on a first-order pass."""
        if self.hess is None:
            raise HessianNotComputed(
                "a first-order pass has no second partials")
        return self.hess

    def __getitem__(self, index) -> "Jet2":
        return Jet2(self.value[index], self.grad[index],
                    None if self.hess is None else self.hess[index])

    __iter__ = None     # one jet, not a sequence of its rows

    def conj(self) -> "Jet2":
        # Differentiation variables are real, so conjugation commutes with
        # every partial derivative.
        return Jet2(np.conj(self.value), np.conj(self.grad),
                    None if self.hess is None else np.conj(self.hess))


class _Jet:
    """The jet of one node inside an evaluation.

    ``value`` is (N,), or a scalar on a constant node that is not stacked;
    ``grad`` (N, m) is None on a constant node and ``hess`` (N, m, m) None
    wherever the Hessian vanishes identically (constants and affine nodes)
    and everywhere in a first-order pass.

    Values are what scalar arithmetic at each point gives, bit for bit:
    Python complex numbers, except that ``sin``, ``cos``, ``exp`` and
    ``conj`` give numpy complex128 scalars, as ``np.sin(z)`` does, and so
    does arithmetic on those.  ``py`` says which of the two a value is;
    they multiply alike but divide and take powers differently.  Gradient
    and Hessian terms are numpy broadcasts over the points, which round
    like the scalar-times-array products of scalar code.
    """

    __slots__ = ("value", "grad", "hess", "py")

    def __init__(self, value, grad=None, hess=None, py=True):
        self.value, self.grad, self.hess, self.py = value, grad, hess, py


def _pointwise(op, *values):
    """op on values (scalars or (N,) arrays), point by point in Python
    complex arithmetic; numpy's vectorised complex arithmetic rounds
    products and quotients differently."""
    if all(type(v) is not np.ndarray for v in values):
        return op(*values)
    columns = [v.tolist() if type(v) is np.ndarray else repeat(v)
               for v in values]
    return np.array([op(*args) for args in zip(*columns)], dtype=complex)


def _inverse(v, py: bool):
    """1 / v: CPython's division on Python complex values, numpy's (which
    equals its scalar division) on complex128 ones."""
    return _pointwise(lambda x: 1.0 / x, v) if py else 1.0 / v


def _power(u, n: int, py: bool):
    """u ** n for n >= 0: CPython's power on Python complex values (it
    raises OverflowError), numpy's ufunc (which equals its scalar power)
    on complex128 ones."""
    return _pointwise(lambda x: x ** n, u) if py else np.power(u, n)


def _col(v, k: int):
    """v with k trailing axes, to scale gradients (k = 1) or Hessians (2)."""
    return v.reshape(v.shape + (1,) * k) if type(v) is np.ndarray else v


def _scaled(v, a, k: int):
    return None if a is None else _col(v, k) * a


def _outer(a, b):
    return None if a is None or b is None else a[:, :, None] * b[:, None, :]


def _total(*terms):
    """Left-to-right sum of the terms that are present (None is zero)."""
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


def _minus(a, b):
    return a if b is None else -b if a is None else a - b


def _chain(j: _Jet, f, df, d2f, second: bool) -> _Jet:
    """The jet of f(u) from f(u), f'(u) and f''(u) at the values u of j;
    to first order unless second."""
    if j.grad is None:
        return _Jet(f, py=False)
    if not second:
        return _Jet(f, _col(df, 1) * j.grad, py=False)
    cross = _outer(j.grad, j.grad)
    return _Jet(f, _col(df, 1) * j.grad,
                _total(_col(d2f, 2) * cross, _scaled(df, j.hess, 2)), False)


def _reciprocal(j: _Jet, second: bool) -> _Jet:
    modulus = np.atleast_1d(np.abs(j.value))
    small = modulus < DIV_EPS
    if small.any():
        raise DivisionNearZero("division by operand with modulus "
                               f"{modulus[small][0]:.3e}")
    w = _inverse(j.value, j.py)
    if j.grad is None:
        return _Jet(w, py=j.py)
    ww = _pointwise(mul, -w, w)
    if not second:
        return _Jet(w, _col(ww, 1) * j.grad, py=j.py)
    cube = _pointwise(mul, 2.0, _power(w, 3, j.py))
    return _Jet(w, _col(ww, 1) * j.grad,
                _total(_scaled(ww, j.hess, 2),
                       _col(cube, 2) * _outer(j.grad, j.grad)), j.py)


def _product(a: _Jet, b: _Jet, second: bool) -> _Jet:
    value = _pointwise(mul, a.value, b.value)
    grad = _total(_scaled(a.value, b.grad, 1), _scaled(b.value, a.grad, 1))
    if not second:
        return _Jet(value, grad, py=a.py and b.py)
    cross = _outer(a.grad, b.grad)
    return _Jet(value, grad,
                _total(_scaled(a.value, b.hess, 2), _scaled(b.value, a.hess, 2),
                       cross, None if cross is None else cross.swapaxes(1, 2)),
                a.py and b.py)


def _powi(j: _Jet, n: int, second: bool) -> _Jet:
    if n == 0:
        return _Jet(complex(1.0))
    if n == 1:
        return j  # the general rule below would form u**-1
    if n < 0:
        return _powi(_reciprocal(j, second), -n, second)
    value = _power(j.value, n, j.py)
    if j.grad is None:
        return _Jet(value, py=j.py)
    first = _pointwise(mul, n, _power(j.value, n - 1, j.py))
    if not second:
        return _Jet(value, _col(first, 1) * j.grad, py=j.py)
    d2 = _pointwise(mul, n * (n - 1), _power(j.value, n - 2, j.py))
    return _Jet(value, _col(first, 1) * j.grad,
                _total(_col(d2, 2) * _outer(j.grad, j.grad),
                       _scaled(first, j.hess, 2)), j.py)


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

class Expr:
    """Base class; subclasses implement ``jet(at)``, reading the points as
    ``at.p`` (N, m), the jet of a child node as ``at(child)`` and whether
    the pass goes to second order as ``at.second``.  Nodes are immutable
    and carry slots only."""

    __slots__ = ()

    def jet(self, at: "_Evaluation") -> _Jet:
        raise NotImplementedError

    # operator sugar so maps and metrics read like formulas
    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __pow__(self, n):
        return Pow(self, n)

    def __neg__(self):
        return Sub(Const(0.0), self)

    def substitute(self, mapping: dict[int, "Expr"]) -> "Expr":
        """Replace variables by expressions (used for map composition)."""
        raise NotImplementedError


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, complex)):
        return Const(x)
    raise TypeError(f"cannot interpret {x!r} as an expression")


class Const(Expr):
    """A literal: one complex value, or in a stacked tree (see stack) an
    array of K values, the k-th read at the k-th of K points."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = complex(value)

    def jet(self, at):
        if type(self.value) is np.ndarray and len(self.value) != len(at.p):
            raise ValueError(f"a stacked literal of {len(self.value)} values "
                             f"evaluated at {len(at.p)} points")
        return _Jet(self.value)

    def substitute(self, mapping):
        return self

    def __repr__(self):
        return f"Const({self.value})"


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise VariableIndexOutOfRange(f"negative variable index {index}")
        self.index = index

    def jet(self, at):
        n, m = at.p.shape
        if self.index >= m:
            raise VariableIndexOutOfRange(
                f"variable x{self.index + 1} but the point has dimension {m}")
        grad = np.zeros((n, m), dtype=complex)
        grad[:, self.index] = 1.0
        return _Jet(at.p[:, self.index].astype(complex), grad)

    def substitute(self, mapping):
        return mapping.get(self.index, self)

    def __repr__(self):
        return f"x{self.index + 1}"


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def substitute(self, mapping):
        return type(self)(self.left.substitute(mapping),
                          self.right.substitute(mapping))


class Add(_Binary):
    __slots__ = ()

    def jet(self, at):
        a, b = at(self.left), at(self.right)
        return _Jet(a.value + b.value, _total(a.grad, b.grad),
                    _total(a.hess, b.hess), a.py and b.py)


class Sub(_Binary):
    __slots__ = ()

    def jet(self, at):
        a, b = at(self.left), at(self.right)
        return _Jet(a.value - b.value, _minus(a.grad, b.grad),
                    _minus(a.hess, b.hess), a.py and b.py)


class Mul(_Binary):
    __slots__ = ()

    def jet(self, at):
        return _product(at(self.left), at(self.right), at.second)


class Div(_Binary):
    __slots__ = ()

    def jet(self, at):
        return _product(at(self.left),
                        _reciprocal(at(self.right), at.second), at.second)


class Pow(Expr):
    __slots__ = ("base", "n")

    def __init__(self, base: Expr, n: int):
        if not (isinstance(n, numbers.Integral)
                or isinstance(n, float) and n.is_integer()):
            raise TypeError(f"only integer powers are supported, got {n!r}")
        self.base = base
        self.n = int(n)

    def jet(self, at):
        return _powi(at(self.base), self.n, at.second)

    def substitute(self, mapping):
        return Pow(self.base.substitute(mapping), self.n)


class _Unary(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg

    def jet(self, at):
        return self._rule(at(self.arg), at.second)

    def substitute(self, mapping):
        return type(self)(self.arg.substitute(mapping))


class Sin(_Unary):
    __slots__ = ()

    @staticmethod
    def _rule(j, second):
        s, c = np.sin(j.value), np.cos(j.value)
        return _chain(j, s, c, -s, second)


class Cos(_Unary):
    __slots__ = ()

    @staticmethod
    def _rule(j, second):
        s, c = np.sin(j.value), np.cos(j.value)
        return _chain(j, c, -s, -c, second)


class Exp(_Unary):
    __slots__ = ()

    @staticmethod
    def _rule(j, second):
        e = np.exp(j.value)
        return _chain(j, e, e, e, second)


def _linear(f, py: bool):
    """The rule of a real-linear f: the variables are real, so f commutes
    with every partial derivative and acts on value, grad and hess alike."""
    return staticmethod(lambda j, second: _Jet(
        f(j.value), *(None if a is None else f(a) for a in (j.grad, j.hess)),
        py=py))


def _as_complex(x):
    return x.astype(complex) if type(x) is np.ndarray else complex(x)


class Conj(_Unary):
    __slots__ = ()
    _rule = _linear(np.conj, False)


class Re(_Unary):
    __slots__ = ()
    _rule = _linear(lambda x: _as_complex(x.real), True)


class Im(_Unary):
    __slots__ = ()
    _rule = _linear(lambda x: _as_complex(x.imag), True)


def var(i: int) -> Expr:
    """Variable x_{i+1} (0-based index into the evaluation point)."""
    return Var(i)


def const(c) -> Expr:
    return Const(c)


def sin(e) -> Expr:
    return Sin(as_expr(e))


def cos(e) -> Expr:
    return Cos(as_expr(e))


def exp(e) -> Expr:
    return Exp(as_expr(e))


def conj(e) -> Expr:
    return Conj(as_expr(e))


def re(e) -> Expr:
    return Re(as_expr(e))


def im(e) -> Expr:
    return Im(as_expr(e))


class _Evaluation:
    """One evaluation: the points (N, m), whether it goes to second order,
    and the jet of every node evaluated so far, keyed by node identity.  The
    trees outlive the evaluation, so no id is reused while the memo
    exists."""

    __slots__ = ("p", "second", "memo")

    def __init__(self, p: np.ndarray, second: bool):
        self.p, self.second = p, second
        self.memo: dict[int, _Jet] = {}

    def __call__(self, node: Expr) -> _Jet:
        j = self.memo.get(id(node))
        if j is None:
            j = self.memo[id(node)] = node.jet(self)
        return j

    def result(self, j: _Jet) -> Jet2:
        """The jet of a root, with a constant value and every vanishing
        derivative spelled out as arrays."""
        n, m = self.p.shape
        hess = None
        if self.second:
            hess = np.zeros((n, m, m), complex) if j.hess is None else j.hess
        return Jet2(j.value if type(j.value) is np.ndarray
                    else np.full(n, j.value, complex),
                    np.zeros((n, m), complex) if j.grad is None else j.grad,
                    hess)


def eval_jet2(e, p, order: int = 2) -> Jet2:
    """Value, gradient and Hessian of ``e`` at the real points ``p``.

    ``p`` is one point (m,) or N points (N, m); the jet has no point axis in
    the first case.  ``e`` is an expression, or a list (or a list of lists)
    of expressions that share one memo (a subtree or a root they share is
    evaluated once), and gives one jet whose root axes, after the point
    axis, have the shape of that list.  Every value, gradient and Hessian
    equals, bit for bit, that of the same expression evaluated at its point
    alone; an error at any point raises for the whole call.  With
    ``order=1`` the pass stops at the gradient: values and gradients are the
    same, and no Hessian is formed (``hess`` is None).
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    p = np.asarray(p, dtype=float)
    at = _Evaluation(p.reshape(-1, p.shape[-1]), order == 2)
    roots = np.array(e, dtype=object)
    jets = [at.result(at(root)) for root in roots.flat]
    out = jets[0]
    if roots.ndim:
        lead, m = (len(at.p), *roots.shape), p.shape[-1]
        out = Jet2(np.stack([j.value for j in jets], -1).reshape(lead),
                   np.stack([j.grad for j in jets], -2).reshape(lead + (m,)),
                   np.stack([j.hess for j in jets], -3).reshape(lead + (m, m))
                   if at.second else None)
    return out[0] if p.ndim == 1 else out


def _shape(roots) -> tuple[list, list, list]:
    """The shape of a tree given by its roots: every node once, children
    before parents, as (type, Var index or Pow exponent, child positions);
    the positions of the roots; and the literal values in node order."""
    nodes, literals, seen = [], [], {}

    def visit(node):
        k = seen.get(id(node))
        if k is not None:
            return k
        kind = type(node)
        if kind is Const:
            if type(node.value) is np.ndarray:
                raise ValueError("cannot stack a stacked tree")
            literals.append(node.value)
            key = (kind,)
        elif kind is Var:
            key = (kind, node.index)
        elif kind is Pow:
            key = (kind, node.n, visit(node.base))
        elif issubclass(kind, _Binary):
            key = (kind, visit(node.left), visit(node.right))
        elif issubclass(kind, _Unary):
            key = (kind, visit(node.arg))
        else:
            raise ValueError(f"cannot stack a {kind.__name__} node")
        k = seen[id(node)] = len(nodes)
        nodes.append(key)
        return k

    return nodes, [visit(r) for r in roots], literals


def stack(trees):
    """One tree of the shape of K trees whose literals hold the K trees'
    values: evaluated at K points (K, m), its row k is, bit for bit, tree k
    evaluated at the k-th point alone.

    ``trees`` is K expressions, giving one expression, or K lists of roots,
    giving one list.  The trees must have one shape: the same node types,
    Var indices, Pow exponents and sharing of subtrees (within one tree,
    and among the roots of one list); any difference raises ValueError.
    """
    single = isinstance(trees[0], Expr)
    shapes = [_shape([t] if single else t) for t in trees]
    nodes, roots, _ = shapes[0]
    for k, (other, other_roots, _) in enumerate(shapes):
        if other != nodes or other_roots != roots:
            raise ValueError(f"tree {k} is not of the shape of tree 0")
    columns = iter(np.array([lits for _, _, lits in shapes], dtype=complex).T
                   .copy())
    built = []
    for kind, *rest in nodes:
        if kind is Const:
            built.append(Const.__new__(Const))
            built[-1].value = next(columns)
        elif kind is Var:
            built.append(Var(*rest))
        elif kind is Pow:
            built.append(Pow(built[rest[1]], rest[0]))
        else:
            built.append(kind(*(built[k] for k in rest)))
    out = [built[k] for k in roots]
    return out[0] if single else out


def max_var_index(e: Expr) -> int:
    """Largest variable index referenced by the tree, -1 if none."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, _Binary):
        return max(max_var_index(e.left), max_var_index(e.right))
    if isinstance(e, Pow):
        return max_var_index(e.base)
    if isinstance(e, _Unary):
        return max_var_index(e.arg)
    return -1


def differentiate(e: Expr, i: int) -> Expr:
    """Partial derivative with respect to the real variable x_{i+1}, as a
    new expression tree (no simplification beyond dropping zero branches).

    conj/re/im commute with real-variable differentiation, so the node set
    is closed under this operation.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.index == i else 0.0)
    if isinstance(e, Add):
        return Add(differentiate(e.left, i), differentiate(e.right, i))
    if isinstance(e, Sub):
        return Sub(differentiate(e.left, i), differentiate(e.right, i))
    if isinstance(e, Mul):
        return Add(Mul(differentiate(e.left, i), e.right),
                   Mul(e.left, differentiate(e.right, i)))
    if isinstance(e, Div):
        num = Sub(Mul(differentiate(e.left, i), e.right),
                  Mul(e.left, differentiate(e.right, i)))
        return Div(num, Mul(e.right, e.right))
    if isinstance(e, Pow):
        if e.n == 0:
            return Const(0.0)
        return Mul(Mul(Const(float(e.n)), Pow(e.base, e.n - 1)),
                   differentiate(e.base, i))
    if isinstance(e, Sin):
        return Mul(Cos(e.arg), differentiate(e.arg, i))
    if isinstance(e, Cos):
        return Mul(Const(-1.0), Mul(Sin(e.arg), differentiate(e.arg, i)))
    if isinstance(e, Exp):
        return Mul(e, differentiate(e.arg, i))
    if isinstance(e, (Conj, Re, Im)):
        return type(e)(differentiate(e.arg, i))
    raise TypeError(f"cannot differentiate node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Expression text grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := base ('^' int)?
#   base   := number | 'i' | 'x' int | func '(' expr ')' | '(' expr ')'
#   func   := sin|cos|exp|conj|re|im
# ---------------------------------------------------------------------------

_FUNCS = {"sin": Sin, "cos": Cos, "exp": Exp, "conj": Conj, "re": Re, "im": Im}


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected {ch!r}", self.pos)

    def number(self) -> float:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        if (self.pos < len(self.text) and self.text[self.pos] in "eE"
                and self.pos + 1 < len(self.text)
                and (self.text[self.pos + 1].isdigit()
                     or self.text[self.pos + 1] in "+-")):
            self.pos += 2
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        return float(self.text[start:self.pos])

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.take("-"):
            pass
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ParseError("expected an integer", self.pos)
        return int(self.text[start:self.pos])

    def word(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]


def _parse_expr(s: _Scanner) -> Expr:
    node = _parse_term(s)
    while True:
        if s.take("+"):
            node = Add(node, _parse_term(s))
        elif s.take("-"):
            node = Sub(node, _parse_term(s))
        else:
            return node


def _parse_term(s: _Scanner) -> Expr:
    node = _parse_factor(s)
    while True:
        if s.take("*"):
            node = Mul(node, _parse_factor(s))
        elif s.take("/"):
            node = Div(node, _parse_factor(s))
        else:
            return node


def _parse_factor(s: _Scanner) -> Expr:
    node = _parse_base(s)
    if s.take("^"):
        node = Pow(node, s.integer())
    return node


def _parse_base(s: _Scanner) -> Expr:
    ch = s.peek()
    if ch == "":
        raise ParseError("unexpected end of expression", s.pos)
    if ch.isdigit() or ch == ".":
        return Const(s.number())
    if ch == "(":
        s.expect("(")
        node = _parse_expr(s)
        s.expect(")")
        return node
    if ch.isalpha():
        start = s.pos
        w = s.word()
        if w == "i":
            return Const(1j)
        if w == "x":
            s.skip_ws()
            digits = s.pos
            while s.pos < len(s.text) and s.text[s.pos].isdigit():
                s.pos += 1
            if s.pos == digits:
                raise ParseError("expected a variable index after 'x'", s.pos)
            index = int(s.text[digits:s.pos])
            if index < 1:
                raise ParseError("variable indices start at x1", digits)
            return Var(index - 1)
        if w in _FUNCS:
            s.expect("(")
            node = _parse_expr(s)
            s.expect(")")
            return _FUNCS[w](node)
        raise ParseError(f"unknown name {w!r}", start)
    raise ParseError(f"unexpected character {ch!r}", s.pos)


def parse_expr(text: str) -> Expr:
    """Parse expression text; raises :class:`ParseError` with a column."""
    s = _Scanner(text)
    node = _parse_expr(s)
    s.skip_ws()
    if s.pos != len(s.text):
        raise ParseError(f"trailing input {s.text[s.pos]!r}", s.pos)
    return node


# ---------------------------------------------------------------------------
# Wirtinger view of real derivatives.
# ---------------------------------------------------------------------------

def wirtinger(d) -> np.ndarray:
    """d/dz and d/dzbar parts of real partials in the interleaved chart
    variables.

    ``d[..., 2a]`` and ``d[..., 2a+1]`` are the partials along re z^a and
    im z^a, over any leading axes.  The result keeps the leading axes; its
    last axis is the complexified frame (d/dz^1 .. d/dz^n, d/dzbar^1 ..
    d/dzbar^n), with d/dz = (d/dx - i d/dy)/2 and d/dzbar = (d/dx + i d/dy)/2.
    Applied twice it gives second derivatives: for a Hessian ``hess`` in the
    real variables, ``wirtinger(np.swapaxes(wirtinger(hess), -1, -2))`` is
    d^2/dZ^A dZ^B indexed [..., A, B] in that frame.
    """
    d = np.asarray(d)
    if d.shape[-1] % 2:
        raise ValueError("a complex chart needs an even real dimension")
    dx, dy = d[..., 0::2], d[..., 1::2]
    return np.concatenate([0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)],
                          axis=-1)
