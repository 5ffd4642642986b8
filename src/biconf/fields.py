"""Scalar fields on R^4 with queryable first and second partial derivatives.

Three backings are provided:

* ``ExpressionField`` -- parsed expression, exact derivatives via jets;
* ``CallableField``   -- black-box function, centered finite differences
  (steps FD_FIRST_STEP for first, FD_SECOND_STEP for second partials);
* ``ProfileField``    -- function of t = x1 alone with one caller-supplied
  profile closure (used for ODE-generated profiles).

Fields are immutable after construction and safe to evaluate from any
thread.  Positive means finite and > 0 (``require_positive``): a field
constructed with ``positive=True`` raises ``PositivityError`` whenever an
evaluation returns anything else, NaN and inf included, and the log
derivatives require it of every field.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .expr import DomainError, Expr, Jet, eval_jet, eval_value, parse_expr

__all__ = [
    "PositivityError",
    "require_positive",
    "Point",
    "as_point",
    "ScalarField",
    "ExpressionField",
    "CallableField",
    "ProfileField",
    "constant_field",
]

Point = Sequence[float]

FD_FIRST_STEP = 1e-4
FD_SECOND_STEP = 1e-3


class PositivityError(DomainError):
    """A field required to be positive evaluated to a non-positive or
    non-finite value."""


def require_positive(value: float, p: Point | None = None) -> float:
    """Return ``value`` if it is finite and > 0, else raise PositivityError
    (naming the point ``p`` when given).  NaN fails the comparison."""
    if 0.0 < value < math.inf:
        return value
    where = "" if p is None else f" at {tuple(map(float, p))}"
    raise PositivityError(f"field must be finite and positive, got {value}{where}")


def _evaluate(fn: Callable, p: np.ndarray):
    """``fn(p)``, with an overflow or a division by zero raised as
    DomainError: the one boundary between float arithmetic inside a
    field and the numerical failures callers handle."""
    try:
        return fn(p)
    except ArithmeticError as exc:
        raise DomainError(f"field evaluation failed at {tuple(map(float, p))}: {exc}") from None


def as_point(p: Point) -> np.ndarray:
    """Validate and convert a point of R^4 to a float array."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"point must have 4 coordinates, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"point coordinates must be finite, got {arr}")
    return arr


class ScalarField:
    """Base class: value plus exact-or-FD first and second partials."""

    def __init__(self, positive: bool = False):
        self.positive = positive

    # subclasses implement these two
    def _raw_value(self, p: np.ndarray) -> float:
        raise NotImplementedError

    def _raw_jet(self, p: np.ndarray) -> Jet:
        raise NotImplementedError

    def __call__(self, p: Point) -> float:
        arr = as_point(p)
        value = _evaluate(self._raw_value, arr)
        if self.positive:
            require_positive(value, arr)
        return value

    def jet(self, p: Point) -> Jet:
        jet = _evaluate(self._raw_jet, as_point(p))
        if self.positive:
            require_positive(jet.val, p)
        return jet

    def partial(self, p: Point, i: int) -> float:
        """First partial with respect to x_i, i in 1..4."""
        if i not in (1, 2, 3, 4):
            raise ValueError(f"partial index must be in 1..4, got {i}")
        return float(self.jet(p).g[i - 1])

    def partial2(self, p: Point, i: int, j: int) -> float:
        """Second partial with respect to x_i and x_j, indices in 1..4."""
        if i not in (1, 2, 3, 4) or j not in (1, 2, 3, 4):
            raise ValueError(f"partial indices must be in 1..4, got {i}, {j}")
        return float(self.jet(p).h[i - 1, j - 1])

    def grad_ln(self, p: Point) -> np.ndarray:
        """Gradient of ln(f): component a is (d_a f)/f.  Requires f > 0."""
        jet = self.jet(p)
        return jet.g / require_positive(jet.val, p)

    def log_jet(self, p: Point):
        """(f, grad ln f, Hessian of ln f) at p; requires f > 0."""
        jet = self.jet(p)
        value = require_positive(jet.val, p)
        lg = jet.g / value
        lh = jet.h / value - np.outer(lg, lg)
        return value, lg, lh


class ExpressionField(ScalarField):
    """Field backed by a parsed expression; derivatives are exact."""

    def __init__(self, source: str | Expr, positive: bool = False):
        super().__init__(positive)
        self.ast = parse_expr(source) if isinstance(source, str) else source

    def _raw_value(self, p: np.ndarray) -> float:
        return eval_value(self.ast, p)

    def _raw_jet(self, p: np.ndarray) -> Jet:
        return eval_jet(self.ast, p)

    def __repr__(self):
        from .expr import pretty

        return f"ExpressionField({pretty(self.ast)!r})"


class CallableField(ScalarField):
    """Black-box field; derivatives by centered finite differences.

    The steps are FD_FIRST_STEP for first partials and FD_SECOND_STEP
    for second partials.  The FD Hessian is symmetric bitwise (each
    mixed entry is computed once and mirrored).
    """

    def __init__(self, func: Callable[[np.ndarray], float], positive: bool = False):
        super().__init__(positive)
        self.func = func

    def _raw_value(self, p: np.ndarray) -> float:
        return float(self.func(p))

    def _raw_jet(self, p: np.ndarray) -> Jet:
        f = self.func
        h1, h2 = FD_FIRST_STEP, FD_SECOND_STEP
        e1, e2 = np.eye(4) * h1, np.eye(4) * h2
        value = float(f(p))
        g = np.array([(f(p + e) - f(p - e)) / (2.0 * h1) for e in e1])
        h = np.zeros((4, 4))
        for a, ea in enumerate(e2):
            h[a, a] = (f(p + ea) - 2.0 * value + f(p - ea)) / (h2 * h2)
            for b in range(a + 1, 4):
                eb = e2[b]
                h[a, b] = h[b, a] = (
                    f(p + ea + eb) - f(p + ea - eb) - f(p - ea + eb) + f(p - ea - eb)
                ) / (4.0 * h2 * h2)
        return Jet(value, g, h)


class ProfileField(ScalarField):
    """Field depending on t = x1 only, given by one profile closure

        profile(t) -> (f, f', f'', (ln f)', (ln f)'').

    The log-derivatives are taken from the closure rather than from
    f''/f - (f'/f)^2, which cancels catastrophically for profiles whose
    log-derivatives are many orders smaller than the quotient terms.
    ``domain`` restricts t to the open interval (lo, hi); use ``None``
    for an unbounded side.
    """

    def __init__(
        self,
        profile: Callable[[float], tuple[float, float, float, float, float]],
        domain: tuple[float | None, float | None] = (None, None),
        positive: bool = False,
    ):
        super().__init__(positive)
        self.profile = profile
        self.domain = domain

    def _at(self, p) -> tuple[float, float, float, float, float]:
        t = p[0]
        lo, hi = self.domain
        if lo is not None and t <= lo:
            raise DomainError(f"profile defined for t > {lo}, got t = {t}")
        if hi is not None and t >= hi:
            raise DomainError(f"profile defined for t < {hi}, got t = {t}")
        return self.profile(t)

    def _raw_value(self, p: np.ndarray) -> float:
        return float(self._at(p)[0])

    def _raw_jet(self, p: np.ndarray) -> Jet:
        f, d1, d2, _, _ = self._at(p)
        return Jet(float(f), *_t_only(d1, d2))

    def log_jet(self, p):
        q = as_point(p)
        f, _, _, l1, l2 = _evaluate(self._at, q)
        return (require_positive(float(f), q), *_t_only(l1, l2))


def _t_only(d1: float, d2: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of a function of t = x1 alone."""
    g = np.zeros(4)
    g[0] = d1
    h = np.zeros((4, 4))
    h[0, 0] = d2
    return g, h


def constant_field(value: float, positive: bool = False) -> ScalarField:
    """Field identically equal to ``value``."""
    from .expr import Num

    return ExpressionField(Num(float(value)), positive=positive)
