"""Scalar fields on R^4 with queryable first and second partial derivatives.

Two backings are provided:

* ``ExpressionField`` -- parsed expression, exact derivatives via jets of
  its evaluation form (``expr.fold``: monomial sums as coefficient nodes);
* ``ProfileField``    -- function of t = x1 alone with one caller-supplied
  profile closure (used for ODE-generated profiles).

A backing supplies one evaluator, the jet of a batch of points: value,
gradient and Hessian (``jet(p, 2)``), or value and gradient alone
(``jet(p, 1)``).  Every caller states the order, and one that reads no
Hessian takes order 1; a field's value is the value of its first-order
jet, which a second-order jet repeats bit for bit.

Fields are immutable after construction and safe to evaluate from any
thread.  Positive means finite and > 0 (``require_positive``).  It is not
a property of a field: the log derivatives require it of every field, and
so does every evaluation of a ``DeformationPair``, raising
``PositivityError`` on anything else, NaN and inf included.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .expr import (
    FLOAT_ERRORS,
    DomainError,
    Expr,
    Jet,
    eval_jet,
    filled,
    first_where,
    fold,
    parse_expr,
)

__all__ = [
    "PositivityError",
    "require_positive",
    "Point",
    "as_point",
    "ScalarField",
    "ExpressionField",
    "ProfileField",
]

Point = Sequence[float]


class PositivityError(DomainError):
    """A field required to be positive evaluated to a non-positive or
    non-finite value."""


def _point_where(p, mask) -> tuple:
    """The first point of the batch ``p`` where ``mask`` holds."""
    return tuple(map(float, np.reshape(p, (-1, 4))[np.flatnonzero(mask)[0]]))


def require_positive(value, p: Point | None = None):
    """Return ``value`` if every entry is finite and > 0, else raise
    PositivityError naming the first entry that is not (and its point of
    the batch ``p``, when given).  NaN fails the comparison."""
    v = np.asarray(value)
    bad = ~((v > 0.0) & (v < math.inf))
    if not np.any(bad):
        return value
    where = "" if p is None else f" at {_point_where(p, bad)}"
    raise PositivityError(f"field must be finite and positive, got {first_where(v, bad)}{where}")


def as_point(p) -> np.ndarray:
    """Validate and convert a point of R^4, or an array of points whose
    last axis holds their 4 coordinates (an (N, 4) batch), to floats."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 4:
        raise ValueError(f"point must have 4 coordinates, got shape {arr.shape}")
    finite = np.all(np.isfinite(arr), axis=-1)
    if not np.all(finite):
        raise ValueError(f"point coordinates must be finite, got {_point_where(arr, ~finite)}")
    return arr


def _evaluation(method):
    """Decorator of the evaluating methods of a field: the point (or batch)
    is validated, numpy float errors raise, and any ArithmeticError is
    raised as DomainError naming the point.  This is the one boundary
    between float arithmetic inside a field and the numerical failures
    callers handle."""

    @functools.wraps(method)
    def evaluate(self, p, *args, **kwargs):
        p = as_point(p)
        try:
            with np.errstate(**FLOAT_ERRORS):
                return method(self, p, *args, **kwargs)
        except ArithmeticError as exc:
            where = _point_where(p, True) if p.size == 4 else f"one of {p.size // 4} points"
            raise DomainError(
                f"field evaluation at {where} left the finite float range: "
                f"{type(exc).__name__}: {exc}"
            ) from None

    return evaluate


class ScalarField:
    """Base class: value plus first and second partials, from one jet.

    Every evaluation takes one point (4 coordinates) or an (N, 4) array
    of points; results carry the batch axis (N,) in front, and none for
    one point."""

    # subclasses implement this on a validated batch of points, for
    # order 2 (with the Hessian) or 1 (``h`` None)
    def _raw_jet(self, p: np.ndarray, order: int) -> Jet:
        raise NotImplementedError

    def __call__(self, p):
        return self.jet(p, 1).val

    @_evaluation
    def jet(self, p, order: int) -> Jet:
        """The jet of order 2 (value, gradient, Hessian) or 1 (value and
        gradient, ``h`` None) at p; both have the same value."""
        return self._raw_jet(p, order)

    @_evaluation
    def log_jet(self, p):
        """(f, grad ln f, Hessian of ln f); requires f > 0."""
        jet = self.jet(p, 2)
        value = require_positive(jet.val, p)
        lg = jet.g / value[..., None]
        lh = jet.h / value[..., None, None] - lg[..., :, None] * lg[..., None, :]
        return value, lg, lh


class ExpressionField(ScalarField):
    """Field backed by a parsed expression; derivatives are exact.  ``ast``
    is the parsed tree, for printing; ``form`` is its evaluation form
    (``expr.fold``), and a batch of points costs one walk of it."""

    def __init__(self, source: str | Expr):
        self.ast = parse_expr(source) if isinstance(source, str) else source
        self.form = fold(self.ast)

    def _raw_jet(self, p: np.ndarray, order: int) -> Jet:
        return eval_jet(self.form, p, order)

    def __repr__(self):
        from .expr import pretty

        return f"ExpressionField({pretty(self.ast)!r})"


class ProfileField(ScalarField):
    """Field depending on t = x1 only, given by one profile closure

        profile(t) -> (f, f', f'', (ln f)', (ln f)'')

    that takes the t values of a batch at once (a 0-d array for a single
    point) and returns each entry as an array of their shape or a scalar.
    The log-derivatives are taken from the closure rather than from
    f''/f - (f'/f)^2, which cancels catastrophically for profiles whose
    log-derivatives are many orders smaller than the quotient terms.
    """

    def __init__(self, profile: Callable[[np.ndarray], tuple]):
        self.profile = profile

    def _at(self, p: np.ndarray) -> list:
        t = p[..., 0]
        return [filled(c, t.shape) for c in self.profile(t)]

    def _raw_jet(self, p: np.ndarray, order: int) -> Jet:
        f, d1, d2, _, _ = self._at(p)
        return Jet(f, *_t_only(d1, d2 if order == 2 else None))

    @_evaluation
    def log_jet(self, p):
        f, _, _, l1, l2 = self._at(p)
        return (require_positive(f, p), *_t_only(l1, l2))


def _t_only(d1, d2) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradient and Hessian of a function of t = x1 alone; no Hessian
    (None) when d2 is None."""
    g = np.zeros(np.shape(d1) + (4,))
    g[..., 0] = d1
    if d2 is None:
        return g, None
    h = np.zeros(np.shape(d2) + (4, 4))
    h[..., 0, 0] = d2
    return g, h

