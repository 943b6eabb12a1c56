"""Second-order forward-mode automatic differentiation for scalar expressions.

Expressions are immutable trees over real/complex literals, real variables
``x1 .. xm``, arithmetic, integer powers, ``sin``, ``cos``, ``exp`` and the
non-analytic primitives ``conj``, ``re``, ``im``.  Evaluating an expression at
a point of R^m produces a :class:`Jet2`: the value together with the exact
gradient and Hessian with respect to the real coordinates.  Complex-analytic
derivatives (Wirtinger derivatives) are recovered from arrays of real
derivatives by :func:`wirtinger` at the bottom of the module; real pairs are
interleaved, so the chart coordinate z^a occupies the real variables
(2a, 2a+1) = (re z^a, im z^a).

``conj``, ``re`` and ``im`` are primitive nodes rather than rewrites because
holomorphic and antiholomorphic components must stay distinguishable.

Trees may share subtrees (map composition substitutes one ``re(phi^a)`` node
at every occurrence).  One :func:`eval_jet2` call evaluates each node object
once and reuses its jet wherever the node occurs again; nothing is kept
between calls, so evaluation is pure and expression trees can be shared
freely between threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DivisionNearZero",
    "VariableIndexOutOfRange",
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
    """Value, gradient and Hessian of a scalar at a point of R^m.

    The Hessian is symmetric by construction: every arithmetic rule below
    only ever adds symmetric matrices (symmetrised outer products), so
    ``hess[i, j] == hess[j, i]`` holds exactly, not just to round-off.
    Jets are never mutated: one jet may stand for several tree nodes.
    """

    value: complex
    grad: np.ndarray   # shape (m,), complex
    hess: np.ndarray   # shape (m, m), complex

    @property
    def m(self) -> int:
        return self.grad.shape[0]

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value + other.value, self.grad + other.grad,
                    self.hess + other.hess)

    def __sub__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value - other.value, self.grad - other.grad,
                    self.hess - other.hess)

    def __mul__(self, other: "Jet2") -> "Jet2":
        cross = np.outer(self.grad, other.grad)
        return Jet2(
            self.value * other.value,
            self.value * other.grad + other.value * self.grad,
            self.value * other.hess + other.value * self.hess
            + cross + cross.T,
        )

    def reciprocal(self) -> "Jet2":
        if abs(self.value) < DIV_EPS:
            raise DivisionNearZero(
                f"division by operand with modulus {abs(self.value):.3e}")
        w = 1.0 / self.value
        outer = np.outer(self.grad, self.grad)
        return Jet2(w, -w * w * self.grad,
                    -w * w * self.hess + 2.0 * w ** 3 * outer)

    def __truediv__(self, other: "Jet2") -> "Jet2":
        return self * other.reciprocal()

    def powi(self, n: int) -> "Jet2":
        if n == 0:
            return jet_const(1.0, self.m)
        if n == 1:
            return self  # the general rule below would form u**-1
        if n < 0:
            return self.reciprocal().powi(-n)
        u, g, h = self.value, self.grad, self.hess
        outer = np.outer(g, g)
        return Jet2(u ** n,
                    n * u ** (n - 1) * g,
                    n * (n - 1) * u ** (n - 2) * outer + n * u ** (n - 1) * h)

    def _unary(self, f, df, d2f) -> "Jet2":
        outer = np.outer(self.grad, self.grad)
        return Jet2(f, df * self.grad, d2f * outer + df * self.hess)

    def sin(self) -> "Jet2":
        s, c = np.sin(self.value), np.cos(self.value)
        return self._unary(s, c, -s)

    def cos(self) -> "Jet2":
        s, c = np.sin(self.value), np.cos(self.value)
        return self._unary(c, -s, -c)

    def exp(self) -> "Jet2":
        e = np.exp(self.value)
        return self._unary(e, e, e)

    def conj(self) -> "Jet2":
        # Differentiation variables are real, so conjugation commutes with
        # every partial derivative.
        return Jet2(np.conj(self.value), np.conj(self.grad), np.conj(self.hess))

    def real(self) -> "Jet2":
        return Jet2(complex(self.value.real), self.grad.real.astype(complex),
                    self.hess.real.astype(complex))

    def imag(self) -> "Jet2":
        return Jet2(complex(self.value.imag), self.grad.imag.astype(complex),
                    self.hess.imag.astype(complex))


def jet_const(c, m: int) -> Jet2:
    return Jet2(complex(c), np.zeros(m, dtype=complex),
                np.zeros((m, m), dtype=complex))


def jet_var(i: int, p: np.ndarray) -> Jet2:
    m = len(p)
    if not 0 <= i < m:
        raise VariableIndexOutOfRange(
            f"variable x{i + 1} but the point has dimension {m}")
    g = np.zeros(m, dtype=complex)
    g[i] = 1.0
    return Jet2(complex(p[i]), g, np.zeros((m, m), dtype=complex))


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

class Expr:
    """Base class; subclasses implement ``jet(at)``, reading the point as
    ``at.p`` and the jet of a child node as ``at(child)``."""

    def jet(self, at: "_Evaluation") -> Jet2:
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
    def __init__(self, value):
        self.value = complex(value)

    def jet(self, at):
        return jet_const(self.value, len(at.p))

    def substitute(self, mapping):
        return self

    def __repr__(self):
        return f"Const({self.value})"


class Var(Expr):
    def __init__(self, index: int):
        if index < 0:
            raise VariableIndexOutOfRange(f"negative variable index {index}")
        self.index = index

    def jet(self, at):
        return jet_var(self.index, at.p)

    def substitute(self, mapping):
        return mapping.get(self.index, self)

    def __repr__(self):
        return f"x{self.index + 1}"


class _Binary(Expr):
    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def substitute(self, mapping):
        return type(self)(self.left.substitute(mapping),
                          self.right.substitute(mapping))


class Add(_Binary):
    def jet(self, at):
        return at(self.left) + at(self.right)


class Sub(_Binary):
    def jet(self, at):
        return at(self.left) - at(self.right)


class Mul(_Binary):
    def jet(self, at):
        a, b = at(self.left), at(self.right)
        # a constant factor has zero derivatives: its product-rule terms vanish
        if type(self.left) is Const:
            return Jet2(a.value * b.value, a.value * b.grad, a.value * b.hess)
        if type(self.right) is Const:
            return Jet2(a.value * b.value, b.value * a.grad, b.value * a.hess)
        return a * b


class Div(_Binary):
    def jet(self, at):
        return at(self.left) / at(self.right)


class Pow(Expr):
    def __init__(self, base: Expr, n: int):
        if not (isinstance(n, numbers.Integral)
                or isinstance(n, float) and n.is_integer()):
            raise TypeError(f"only integer powers are supported, got {n!r}")
        self.base = base
        self.n = int(n)

    def jet(self, at):
        return at(self.base).powi(self.n)

    def substitute(self, mapping):
        return Pow(self.base.substitute(mapping), self.n)


class _Unary(Expr):
    _method: str

    def __init__(self, arg: Expr):
        self.arg = arg

    def jet(self, at):
        return getattr(at(self.arg), self._method)()

    def substitute(self, mapping):
        return type(self)(self.arg.substitute(mapping))


class Sin(_Unary):
    _method = "sin"


class Cos(_Unary):
    _method = "cos"


class Exp(_Unary):
    _method = "exp"


class Conj(_Unary):
    _method = "conj"


class Re(_Unary):
    _method = "real"


class Im(_Unary):
    _method = "imag"


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


I = Const(1j)


class _Evaluation:
    """One evaluation: the point and the jet of every node evaluated so far,
    keyed by node identity.  The tree outlives the evaluation, so no id is
    reused while the memo exists."""

    __slots__ = ("p", "memo")

    def __init__(self, p: np.ndarray):
        self.p = p
        self.memo: dict[int, Jet2] = {}

    def __call__(self, node: Expr) -> Jet2:
        j = self.memo.get(id(node))
        if j is None:
            j = self.memo[id(node)] = node.jet(self)
        return j


def eval_jet2(e: Expr, p) -> Jet2:
    """Value, gradient and Hessian of ``e`` at the real point ``p``."""
    return _Evaluation(np.asarray(p, dtype=float))(e)


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
