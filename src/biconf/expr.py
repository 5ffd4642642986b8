"""Small expression language for scalar functions on R^4.

Grammar (EBNF):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := ("-" factor) | power
    power  := atom ("^" factor)?
    atom   := number | ident | ident "(" expr ")" | "(" expr ")"

Binary "-" and "/" associate to the left, "^" to the right and binds
tighter than unary minus (so ``-x1^2`` is ``-(x1^2)``).  Variables are
``x1 .. x4``; ``t`` is accepted as a synonym for ``x1``.  The function
set is ``exp``, ``ln``, ``sqrt``, ``sin``, ``cos``, ``atan``.

Evaluation is done on jets, so every parsed expression carries exact
partials: second-order jets (value, gradient, Hessian) by default, or
first-order jets (value, gradient; no Hessian) for callers that need no
second partials.  A first-order walk does the same value and gradient
arithmetic as a second-order one and skips every Hessian term.  The
``^`` operator accepts any base when the exponent is an integer literal;
otherwise the base must be strictly positive (it is rewritten as
``exp(y*ln x)``).

``eval_jet`` takes one point or an (N, 4) array of points and walks the
AST once for the whole array (Taylor-mode automatic differentiation over
a batch axis), at the order its caller states; ``eval_value`` is the
value of a first-order jet.  Float overflow, division by zero and invalid
operations raise FloatingPointError instead of warning.

``fold`` gives a tree's evaluation form, which fields walk in place of
the parsed tree: each maximal subtree that is a sum of monomials of
degree <= 2 (numbers times at most two variable factors) becomes one
``Quadratic`` node c0 + c.x + x^T Q x, whose jet costs a few array
operations where the tree costs one chain of them per node.  A constant
factor or divisor of a sum multiplies its coefficients.  No product or
power of a sum is expanded, a subtree is folded only when it holds a
variable and a term with ``*``, ``/`` or ``^``, and only when its
coefficients are finite.  Its jets agree with the tree's to a few units
in the last place of the summed monomial magnitudes, not bit for bit,
and raise where the tree's raise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainError",
    "ParseError",
    "Expr",
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "Quadratic",
    "Jet",
    "parse_expr",
    "fold",
    "pretty",
    "eval_value",
    "eval_jet",
]

FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos", "atan")
VARIABLES = {"x1": 1, "x2": 2, "x3": 3, "x4": 4, "t": 1}


class DomainError(ValueError):
    """Evaluation left the real domain (ln of a non-positive value, etc.)."""


class ParseError(ValueError):
    """Syntax or name error while parsing; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1..4


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # one of "+-*/^"
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_OPS = set("+-*/^()")


def _tokenize(text: str):
    """Yield (kind, value, offset) triples; kinds are num/ident/op/end."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise ParseError(f"malformed number {lexeme!r}", i) from None
            if np.isinf(value):
                raise ParseError(f"number {lexeme!r} is outside the float range", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = Bin(value, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = Bin(value, node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Bin("^", node, self.parse_factor())
        return node

    def parse_atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "ident":
            if value in VARIABLES:
                nkind, nvalue, _ = self.peek()
                if nkind == "op" and nvalue == "(":
                    raise ParseError(f"{value!r} is not a function", offset)
                return Var(VARIABLES[value])
            if value in FUNCTIONS:
                nkind, nvalue, noffset = self.peek()
                if not (nkind == "op" and nvalue == "("):
                    raise ParseError(
                        f"function {value!r} requires a parenthesized argument", noffset
                    )
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(value, arg)
            raise ParseError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        shown = value if value else "end of input"
        raise ParseError(f"unexpected {shown!r}", offset)


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an AST.  Raises ParseError with a byte offset."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    kind, value, offset = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", offset)
    return node


# ---------------------------------------------------------------------------
# Pretty printer

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _fmt_num(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _render(node: Expr, min_prec: int) -> str:
    if isinstance(node, Num):
        text, prec = _fmt_num(node.value), _PREC["atom"]
    elif isinstance(node, Var):
        text, prec = f"x{node.index}", _PREC["atom"]
    elif isinstance(node, Call):
        text, prec = f"{node.fn}({_render(node.arg, 0)})", _PREC["atom"]
    elif isinstance(node, Neg):
        text, prec = "-" + _render(node.arg, _PREC["neg"]), _PREC["neg"]
    elif isinstance(node, Bin):
        prec = _PREC[node.op]
        if node.op == "^":
            # right associative; the exponent slot is a factor
            text = _render(node.lhs, prec + 1) + "^" + _render(node.rhs, _PREC["neg"])
        else:
            sep = f" {node.op} " if node.op in "+-" else node.op
            text = _render(node.lhs, prec) + sep + _render(node.rhs, prec + 1)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if prec < min_prec:
        return "(" + text + ")"
    return text


def pretty(node: Expr) -> str:
    """Deterministic text form; ``parse_expr(pretty(e))`` reproduces ``e``."""
    return _render(node, 0)


# ---------------------------------------------------------------------------
# Float errors

# numpy settings under which a float overflow, division by zero or invalid
# operation raises FloatingPointError (an ArithmeticError) instead of warning
FLOAT_ERRORS = {"over": "raise", "divide": "raise", "invalid": "raise"}


def raise_float_errors(fn):
    """Decorator: run ``fn`` under ``np.errstate(**FLOAT_ERRORS)``.  The
    setting is context-local, so it holds for this call only and is safe
    under threads."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(**FLOAT_ERRORS):
            return fn(*args, **kwargs)

    return wrapper


def first_where(x, mask):
    """The first entry of ``x`` (in C order) where ``mask`` holds; the two
    broadcast together."""
    x, mask = np.broadcast_arrays(x, mask)
    return x[mask][0]


# ---------------------------------------------------------------------------
# First- and second-order jets over a batch of points
#
# A batch is an array of points whose last axis holds the 4 coordinates: a
# single point has batch shape (), an (N, 4) array batch shape (N,).  Every
# operation acts on the batch axes elementwise, so row k of a batched result
# is computed by exactly the operations that compute it for point k alone.
# A first-order jet has ``h = None``, and every operation on it skips the
# Hessian terms; the value and gradient terms are the same in both orders.

_ZERO_G = np.zeros(4)
_ZERO_H = np.zeros((4, 4))
_UNIT = np.eye(4)


def _outer(a, b):
    """a_i b_j over the last axis of two batched vectors."""
    return a[..., :, None] * b[..., None, :]


def _symmetrized(cross):
    return cross + np.swapaxes(cross, -1, -2)


@dataclass
class Jet:
    """Value, gradient and Hessian of a scalar on R^4 at each point of a
    batch: ``val`` has the batch shape ((N,) for N points, () for one
    point), ``g`` that shape + (4,) and ``h`` that shape + (4, 4),
    symmetric, or None for a first-order jet.  Both operands of an
    operation have the same order."""

    val: np.ndarray
    g: np.ndarray
    h: np.ndarray | None

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(
            self.val + other.val, self.g + other.g, None if self.h is None else self.h + other.h
        )

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(
            self.val - other.val, self.g - other.g, None if self.h is None else self.h - other.h
        )

    def __neg__(self) -> "Jet":
        return Jet(-self.val, -self.g, None if self.h is None else -self.h)

    def __mul__(self, other: "Jet") -> "Jet":
        a, b = self.val, other.val
        val, g = a * b, a[..., None] * other.g + b[..., None] * self.g
        if self.h is None:
            return Jet(val, g, None)
        return Jet(
            val,
            g,
            a[..., None, None] * other.h
            + b[..., None, None] * self.h
            + _symmetrized(_outer(self.g, other.g)),
        )

    def __truediv__(self, other: "Jet") -> "Jet":
        if np.any(other.val == 0.0):
            raise DomainError("division by zero")
        inv = 1.0 / other.val
        q = self.val * inv
        qg = (self.g - q[..., None] * other.g) * inv[..., None]
        if self.h is None:
            return Jet(q, qg, None)
        qh = (
            self.h - q[..., None, None] * other.h - _symmetrized(_outer(qg, other.g))
        ) * inv[..., None, None]
        return Jet(q, qg, qh)


def _constant(value: float, order: int) -> Jet:
    return Jet(np.float64(value), _ZERO_G, _ZERO_H if order == 2 else None)


def _chain(u: Jet, f0, f1, f2) -> Jet:
    """Jet of f(u) given f and f' at u.val and a function returning f''
    there, which only a second-order ``u`` calls."""
    if u.h is None:
        return Jet(f0, f1[..., None] * u.g, None)
    f2 = f2()
    return Jet(
        f0,
        f1[..., None] * u.g,
        f1[..., None, None] * u.h + f2[..., None, None] * _outer(u.g, u.g),
    )


def _jet_call(fn: str, u: Jet) -> Jet:
    v = u.val
    if fn == "exp":
        e = np.exp(v)
        return _chain(u, e, e, lambda: e)
    if fn == "ln":
        if np.any(v <= 0.0):
            raise DomainError(f"ln of non-positive value {first_where(v, v <= 0.0)}")
        return _chain(u, np.log(v), 1.0 / v, lambda: -1.0 / (v * v))
    if fn == "sqrt":
        if np.any(v <= 0.0):
            raise DomainError(f"sqrt derivative undefined at {first_where(v, v <= 0.0)}")
        r = np.sqrt(v)
        return _chain(u, r, 0.5 / r, lambda: -0.25 / (v * r))
    if fn == "sin":
        return _chain(u, np.sin(v), np.cos(v), lambda: -np.sin(v))
    if fn == "cos":
        return _chain(u, np.cos(v), -np.sin(v), lambda: -np.cos(v))
    if fn == "atan":
        d = 1.0 + v * v
        return _chain(u, np.arctan(v), 1.0 / d, lambda: -2.0 * v / (d * d))
    raise ValueError(f"unknown function {fn!r}")


def _int_exponent(node: Expr):
    """Integer value of a literal exponent node, else None."""
    if isinstance(node, Num) and float(node.value).is_integer():
        return int(node.value)
    if isinstance(node, Neg):
        inner = _int_exponent(node.arg)
        if inner is not None:
            return -inner
    return None


def _jet_pow(base: Jet, exponent: Expr, x, order: int) -> Jet:
    """base^exponent: any base for an integer literal exponent (powers by
    ``np.power``, since a numpy scalar's ``**`` rounds differently from
    the array loop), else a positive base, as exp(exponent * ln base)."""
    n = _int_exponent(exponent)
    v = base.val
    if n is None:
        if np.any(v <= 0.0):
            raise DomainError(
                f"non-integer power requires a positive base, got base {first_where(v, v <= 0.0)}"
            )
        return _jet_call("exp", _jet(exponent, x, order) * _jet_call("ln", base))
    if n == 0:
        return _constant(1.0, order)
    if n == 1:  # the base itself: no f'' = 0 times g g^T, which may overflow
        return base
    if n < 0 and np.any(v == 0.0):
        raise DomainError(f"zero raised to negative power {n}")
    return _chain(
        base,
        np.power(v, n),
        n * np.power(v, n - 1),
        lambda: n * (n - 1) * np.power(v, n - 2) if n * (n - 1) != 0 else np.zeros_like(v),
    )


def _jet(node: Expr, x, order: int) -> Jet:
    if isinstance(node, Quadratic):
        return _jet_quadratic(node, x, order)
    if isinstance(node, Num):
        return _constant(node.value, order)
    if isinstance(node, Var):
        return Jet(x[..., node.index - 1], _UNIT[node.index - 1], _ZERO_H if order == 2 else None)
    if isinstance(node, Neg):
        return -_jet(node.arg, x, order)
    if isinstance(node, Call):
        return _jet_call(node.fn, _jet(node.arg, x, order))
    if isinstance(node, Bin):
        if node.op == "^":
            return _jet_pow(_jet(node.lhs, x, order), node.rhs, x, order)
        a = _jet(node.lhs, x, order)
        b = _jet(node.rhs, x, order)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation form: monomial sums folded into coefficient nodes
#
# ``fold`` rewrites a tree once, bottom up.  A subtree's *form* is its
# polynomial, kept only while it is a sum of monomials:
#
# * a monomial is a number or a variable, or built from monomials by
#   unary minus, ``*`` (at most two variable factors in all), ``/`` by a
#   nonzero constant monomial, and ``^`` 1 or 2 (``^`` 0 of a constant);
# * a sum is built from monomials and sums by ``+``, ``-`` and unary
#   minus, which negates every coefficient exactly;
# * a constant factor (``k*s``, ``s*k``) or a constant divisor (``s/k``,
#   taken as the tree takes it: times ``1/k``) multiplies every
#   coefficient of a sum, which stays a sum.
#
# No product or power of a sum is ever expanded, so ``(x1 - c)^2`` stays a
# tree: expanded about the origin it would cancel catastrophically far
# from it.  A form with a non-finite coefficient is no form, so overflow
# in the coefficients stays where the tree raises it.  A maximal subtree
# with a form is folded into one ``Quadratic`` node only where that saves
# work: when it has a variable and a term built with ``*``, ``/`` or
# ``^``.  So bare sums (``x1 + 1.27``), scaled bare sums (``2*(x1 + 1)``)
# and constants stay trees.


@dataclass
class _Form:
    """Coefficients of a monomial sum by monomial (a sorted tuple of 0-based
    variable indices, at most two), whether it was built with ``+``/``-``
    (else it is one monomial) and whether a term was built with ``*``,
    ``/`` or ``^``."""

    terms: dict
    summed: bool = False
    ops: bool = False

    @property
    def constant(self):
        """The value of a constant monomial, else None."""
        return None if self.summed else self.terms.get(())

    def scaled(self, k: float) -> "_Form | None":
        """This form with every coefficient times ``k``, or None; a
        monomial so scaled counts as built with ``*`` or ``/``."""
        terms = {key: coef * k for key, coef in self.terms.items()}
        return _finite(_Form(terms, self.summed, self.ops or not self.summed))


def _finite(form: _Form) -> _Form | None:
    """``form``, or None when one of its coefficients, doubled (as the
    Hessian's diagonal holds a coefficient), is not finite."""
    return form if all(math.isfinite(2.0 * c) for c in form.terms.values()) else None


def _combine(op: str, a: _Form | None, b: _Form | None, exponent: Expr):
    """The form of ``a op b`` from the forms of its operands (``exponent``,
    the right operand of ``^``), or None."""
    if a is None:
        return None
    if op == "^":
        n = _int_exponent(exponent)
        if a.summed or n not in (0, 1, 2):
            return None
        ((key, coef),) = a.terms.items()
        if n == 0:
            return _Form({(): 1.0}, ops=True) if key == () else None
        if n == 1:
            return _Form(a.terms, ops=True)
        if len(key) == 2:
            return None
        return _finite(_Form({key + key: coef * coef}, ops=True))
    if b is None:
        return None
    if op in "+-":
        sign = 1.0 if op == "+" else -1.0
        terms = dict(a.terms)
        for key, coef in b.terms.items():
            terms[key] = terms.get(key, 0.0) + sign * coef
        return _finite(_Form(terms, True, a.ops or b.ops))
    if op == "*":
        if not a.summed and not b.summed:
            ((ka, ca),), ((kb, cb),) = a.terms.items(), b.terms.items()
            if len(ka) + len(kb) > 2:
                return None
            return _finite(_Form({tuple(sorted(ka + kb)): ca * cb}, ops=True))
        if a.constant is not None:
            a, b = b, a
        k = b.constant
        return None if k is None else a.scaled(k)
    if op == "/":
        k = b.constant
        return None if k is None or k == 0.0 else a.scaled(1.0 / k)
    return None


@dataclass(frozen=True)
class Quadratic(Expr):
    """A folded monomial sum ``c0 + c.x + x^T Q x``.  ``terms`` holds its
    coefficients as sorted (monomial, coefficient) pairs, a monomial being
    a sorted tuple of 0-based variable indices.  Its jet is val, g = c +
    (Q + Q^T) x and the constant Hessian Q + Q^T."""

    terms: tuple
    const: float = field(init=False, compare=False, repr=False)
    linear: np.ndarray = field(init=False, compare=False, repr=False)
    hessian: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        linear, hessian = np.zeros(4), np.zeros((4, 4))
        for key, coef in self.terms:
            if len(key) == 1:
                linear[key] += coef
            elif len(key) == 2:
                hessian[key] += coef
                hessian[key[::-1]] += coef
        linear.flags.writeable = hessian.flags.writeable = False
        object.__setattr__(self, "const", dict(self.terms).get((), 0.0))
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "hessian", hessian)


def _folded(form: _Form | None, node: Expr) -> Expr:
    """``node``, or its Quadratic when it has a form whose fold saves work."""
    if form is None or not form.ops or all(key == () for key in form.terms):
        return node
    return Quadratic(tuple(sorted(form.terms.items())))


def _fold(node: Expr) -> tuple[_Form | None, Expr]:
    """(form of ``node`` or None, ``node`` with every maximal foldable
    subtree below it folded).  A node with a form is returned as it is:
    a term with ``*``, ``/`` or ``^`` and a variable below it gives it
    both, so no subtree below it folds unless it does."""
    if isinstance(node, Num):
        return _finite(_Form({(): node.value})), node
    if isinstance(node, Var):
        return _Form({(node.index - 1,): 1.0}), node
    if isinstance(node, Neg):
        form, arg = _fold(node.arg)
        if form is None:
            return None, Neg(arg)
        terms = {key: -coef for key, coef in form.terms.items()}
        return _Form(terms, form.summed, form.ops), node
    if isinstance(node, Call):
        form, arg = _fold(node.arg)
        return None, Call(node.fn, _folded(form, arg))
    if isinstance(node, Bin):
        (a, lhs), (b, rhs) = _fold(node.lhs), _fold(node.rhs)
        form = _combine(node.op, a, b, node.rhs)
        if form is not None:
            return form, node
        return None, Bin(node.op, _folded(a, lhs), _folded(b, rhs))
    raise TypeError(f"not an expression node: {node!r}")


def fold(node: Expr) -> Expr:
    """The evaluation form of ``node``: every maximal subtree that is a
    monomial sum of degree <= 2, and whose fold saves work, replaced by
    one ``Quadratic`` node.  Its jets agree with the tree's to rounding;
    ``parse_expr`` and ``pretty`` never see it."""
    return _folded(*_fold(node))


def _sum4(a):
    """Sum over the last axis (of length 4), elementwise in a fixed order."""
    return a[..., 0] + a[..., 1] + a[..., 2] + a[..., 3]


def _jet_quadratic(node: Quadratic, x, order: int) -> Jet:
    """Jet of a folded monomial sum, by elementwise ufuncs only: float
    errors raise, and each row of a batch is computed as it would be
    alone."""
    sx = _sum4(x[..., None, :] * node.hessian)  # (Q + Q^T) x
    val = node.const + _sum4(x * (node.linear + 0.5 * sx))
    return Jet(val, node.linear + sx, node.hessian if order == 2 else None)


def filled(a, shape: tuple):
    """A new array of ``shape`` holding ``a`` broadcast (a numpy scalar
    when the shape is ()); None for None, the Hessian of a first-order
    jet."""
    if a is None:
        return None
    return np.array(np.broadcast_to(a, shape))[()]


@raise_float_errors
def eval_jet(node: Expr, points, order: int) -> Jet:
    """Jet of ``node`` at a point (4 coordinates) or at each row of an
    (N, 4) array, from one walk of the AST: with the Hessian for
    ``order`` 2, without it (``h`` None) for ``order`` 1."""
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, got {order!r}")
    x = np.asarray(points, dtype=float)
    jet = _jet(node, x, order)
    batch = x.shape[:-1]
    return Jet(
        filled(jet.val, batch), filled(jet.g, batch + (4,)), filled(jet.h, batch + (4, 4))
    )


def eval_value(node: Expr, points):
    """Value of ``node`` at a point or at each row of an (N, 4) array: the
    value of its first-order jet."""
    return eval_jet(node, points, 1).val
