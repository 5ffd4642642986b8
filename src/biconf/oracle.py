"""Brute-force curvature engine for metrics on coordinate patches of R^4.

Everything here goes through the standard Levi-Civita pipeline

    Gamma^a_bc = 1/2 g^{ad} (d_b g_dc + d_c g_db - d_d g_bc)
    Ric_bc     = d_a Gamma^a_bc - d_c Gamma^a_ba
                 + Gamma^a_ad Gamma^d_bc - Gamma^a_cd Gamma^d_ba
    Lap f      = g^{ab} (d_a d_b f - Gamma^c_ab d_c f)

with metric derivatives taken from an analytic provider when the metric
carries one, and centered finite differences otherwise.  The derivatives
of Gamma needed by the Ricci tensor are always finite differences, so
this module is an independent check on any closed-form curvature.

One check (``_factor``: shape, finiteness, symmetry) and one LDL^T
factor (``_ldl``) per metric stack give the positive-definiteness check
(every pivot d_i > 0), the singularity rule and the inverse X^T D^-1 X
with X = L^-1 (``_inverse``).  The factor is written out over the 4x4
components, each an array over the batch, so it loops over indices,
never over points, calls no LAPACK routine and reads only the lower
triangle of a metric known to be symmetric.  The singularity rule is
relative to the metric's own scale: det = prod(d_i) must be at least
1e-10 times the product of the row magnitudes r_i, evaluated as
prod(d_i / r_i) >= 1e-10, so a well-conditioned metric whose
determinant overflows or underflows still inverts.

A ``MetricField`` is built from batch callables, and every function
takes a point or an (N, 4) array of points (a batch, which may be empty)
at once, through one Levi-Civita pass (``_levi_civita``): one read of
g, its factor and dg, then ``_inverse``, giving (g, g^-1, Gamma).
``_stencil`` stacks each point with its 8 shifts p +- h e_k and
``_split`` turns values there into the centre and centered differences,
for metric partials without a provider and for dGamma alike; the Ricci
contraction ``_contract`` takes (Gamma, dGamma) alone, so ``ricci_fd``
reads the metric once, on the 9 N stencil points.

Gamma is two batched matrix products per point: X = dg @ ``_X_MAP``,
with dg flattened to 64 entries and ``_X_MAP`` a constant 64x64 matrix
of +-1/2 and 0 giving X[d, b, c] = (d_b g_dc + d_c g_db - d_d g_bc) / 2
(the 1/2 is folded in, which is exact), then Gamma = g^-1 @ X with X as
4x16.  The Ricci contraction multiplies the trace vector Gamma^a_ad by
Gamma as 4x16 for Gamma^a_ad Gamma^d_bc, and Gamma[d, b, a] as
[b, (d, a)] by Gamma[a, c, d] as [(d, a), c] for Gamma^a_cd Gamma^d_ba;
the two dGamma traces are einsums over views.  Every 0 of the map
multiplies too, so one non-finite partial makes all 64 Gamma^a_bc of
its point NaN or infinite, and ``ricci_fd`` then fails its asymmetry
check with OracleError.

Float overflow, division by zero and invalid operations raise
FloatingPointError.  The products run under ``np.errstate(all="ignore")``
and the Laplacian's ``np.einsum`` ignores ``np.errstate``, so each is
checked instead: finite operands that give a non-finite result raise
FloatingPointError naming the quantity (Christoffel symbols, Ricci
contraction, Laplace-Beltrami operator).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .expr import first_where, raise_float_errors
from .fields import ScalarField, as_point

__all__ = [
    "SingularMetricError",
    "InvalidMetricError",
    "OracleError",
    "MetricField",
    "invert4",
    "christoffel",
    "ricci_fd",
    "laplace_beltrami_fd",
    "einstein_residual_fd",
]

SINGULARITY_THRESHOLD = 1e-10
DEFAULT_METRIC_STEP = 1e-4
DEFAULT_GAMMA_STEP = 1e-3
MAX_RICCI_ASYMMETRY = 1e-4


class SingularMetricError(ValueError):
    """Metric inversion failed (|det| below the singularity threshold)."""


class InvalidMetricError(ValueError):
    """Metric value is not symmetric positive definite at a queried point."""


class OracleError(RuntimeError):
    """FD result is inconsistent (e.g. excessive Ricci asymmetry)."""


def _ldl(m: np.ndarray) -> tuple[np.ndarray, list]:
    """LDL^T factor of each symmetric 4x4 matrix of a stack, read from its
    lower triangle: (d, low), the pivots d of shape (4,) + batch and the
    multipliers low[i][j] = L_ij (j < i) as arrays over the batch.

    Elementwise over the batch, with no pivoting and no square root, under
    ``np.errstate(all="ignore")``: a matrix is positive definite when every
    pivot is positive, and a zero pivot makes the multipliers and pivots
    after it NaN or infinite instead of raising.
    """
    a = np.moveaxis(m, (-2, -1), (0, 1))
    d, low = [], []
    with np.errstate(all="ignore"):
        for i in range(4):
            u, row = [], []  # u[j] = L_ij d[j]
            for j in range(i):
                v = a[i, j]
                for k in range(j):
                    v = v - u[k] * low[j][k]
                u.append(v)
                row.append(v / d[j])
            v = a[i, i]
            for k in range(i):
                v = v - u[k] * row[k]
            d.append(v)
            low.append(row)
    return np.stack(d), low


def _factor(m: np.ndarray, batch: tuple, non_finite: Exception) -> tuple[np.ndarray, list]:
    """``_ldl(m)`` once m is checked: the shape batch + (4, 4) and each
    matrix symmetric to 1e-12 max(1, max|m|), else InvalidMetricError; a
    non-finite entry raises the caller's ``non_finite``.  The module's one
    finiteness and symmetry check of a metric, and its one ``_ldl`` call."""
    if m.shape != batch + (4, 4):
        raise InvalidMetricError(f"metric must have shape {batch + (4, 4)}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise non_finite
    asymmetry = np.abs(m - np.swapaxes(m, -1, -2))
    if np.max(asymmetry, initial=0.0) > 1e-12:  # else within every matrix's tolerance
        scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
        if np.any(np.max(asymmetry, axis=(-2, -1)) > 1e-12 * scale):
            raise InvalidMetricError("metric is not symmetric to 1e-12 max(1, max|g_ab|)")
    return _ldl(m)


def _inverse(m: np.ndarray, d: np.ndarray, low: list) -> np.ndarray:
    """X^T D^-1 X with X = L^-1 from the ``_factor`` (d, low) of m, once m
    passes ``invert4``'s singularity rule, else SingularMetricError.  A
    diagonal matrix gets 1/d exactly, and +0.0 off the diagonal."""
    a = np.abs(np.moveaxis(m, (-2, -1), (0, 1)))
    rows = np.maximum(np.maximum(a[:, 0], a[:, 1]), np.maximum(a[:, 2], a[:, 3]))
    with np.errstate(all="ignore"):
        bad = ~(np.prod(d / rows, axis=0) >= SINGULARITY_THRESHOLD)
        if np.any(bad):
            raise SingularMetricError(
                f"metric determinant {first_where(np.prod(d, axis=0), bad):.3e} below"
                f" threshold (scale {first_where(np.prod(rows, axis=0), bad):.3e})"
            )
    x = []  # x[i][j] = X_ij for j < i; X_ii = 1
    for i in range(4):
        row = []
        for j in range(i):
            v = low[i][j]
            for k in range(j + 1, i):
                v = v + low[i][k] * x[k][j]
            row.append(0.0 - v)  # not -v: a zero entry stays +0.0, as in numpy's inverse
        x.append(row)
    e = [1.0 / di for di in d]
    y = [[x[k][b] * e[k] for b in range(k)] + [e[k]] for k in range(4)]  # y[k][b] = X_kb / d_k
    inv = np.empty(d.shape[1:] + (4, 4))
    for a in range(4):
        for b in range(a + 1):
            v = y[a][b]
            for k in range(a + 1, 4):
                v = v + x[k][a] * y[k][b]
            inv[..., a, b] = inv[..., b, a] = v
    return inv


@raise_float_errors
def invert4(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite 4x4 matrix, or of each
    matrix of an (N, 4, 4) stack, from its LDL^T factor.

    The factor reads the lower triangle, so a matrix m that is not
    symmetric to 1e-12 max(1, max|m|), or that has a negative pivot (is
    not positive definite), or a stack not of shape (..., 4, 4), raises
    InvalidMetricError.  A non-finite entry anywhere in the stack raises
    SingularMetricError before any factor is taken, and so does a matrix
    singular at its own scale: the rule is det >= 1e-10 * scale, with det
    the product of the pivots and scale the product of the row magnitudes
    r_i, evaluated as prod(d_i / r_i) >= 1e-10 so that neither product can
    overflow or underflow.  A well-conditioned metric with tiny or huge
    entries (a strongly collapsed or stretched direction) still inverts,
    and a zero pivot, with the NaN pivots after it, fails the rule.
    """
    m = np.asarray(m, dtype=float)
    d, low = _factor(m, m.shape[:-2], SingularMetricError("metric to invert has a non-finite entry"))
    if np.any(d < 0.0):
        raise InvalidMetricError("metric is not positive definite")
    return _inverse(m, d, low)


def _check_metric_value(g: np.ndarray, batch: tuple) -> tuple[np.ndarray, np.ndarray, list]:
    """(g, d, low), g and its ``_factor``, if g is a finite, symmetric, positive
    definite 4x4 metric at each point of the batch; else InvalidMetricError."""
    d, low = _factor(g, batch, InvalidMetricError("metric has a non-finite entry"))
    if not np.all(d > 0.0):
        raise InvalidMetricError("metric is not positive definite")
    return g, d, low


# p + h e_k and p - h e_k for k = 0..3, in the order +e_0, -e_0, +e_1, ...
_SHIFTS = np.stack([np.eye(4), -np.eye(4)], axis=1).reshape(8, 4)


def _stencil(p: np.ndarray, h: float) -> np.ndarray:
    """Each point of the batch p, then its 8 points p +- h e_k, along a new
    leading axis: shape (9,) + p.shape."""
    return np.concatenate([p[None], p + (h * _SHIFTS).reshape((8,) + (1,) * (p.ndim - 1) + (4,))])


def _split(values: np.ndarray, h: float, batch_ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """(f(p), d_k f(p)) from f on the ``_stencil`` of p, the differences
    (f(p + h e_k) - f(p - h e_k)) / 2h with k after the batch axes."""
    pairs = values[1:].reshape((4, 2) + values.shape[1:])
    diff = np.subtract(pairs[:, 0], pairs[:, 1])
    np.divide(diff, 2.0 * h, out=diff)
    return values[0], np.moveaxis(diff, 0, batch_ndim)


class MetricField:
    """Map point -> symmetric 4x4 metric components g_ab.

    ``value`` and ``partials`` (optional) are batch callables on points
    of shape batch + (4,).  ``value`` gives g of shape batch + (4, 4);
    ``partials`` gives the pair (g, dg) from one evaluation, with dg of
    shape batch + (4, 4, 4) and dg[..., c, a, b] = d_c g_ab.  Without
    partials, metric derivatives are centered differences of the value
    with step DEFAULT_METRIC_STEP.  Every query takes a point or an
    (N, 4) array of points, including an empty (0, 4) batch, and every
    metric value it returns is checked (finite, symmetric, positive
    definite); a g or dg of another shape raises InvalidMetricError.
    """

    def __init__(
        self,
        value: Callable[[np.ndarray], np.ndarray],
        partials: Optional[Callable[[np.ndarray], tuple]] = None,
    ):
        self.value_fn = value
        self.partials_fn = partials

    @raise_float_errors
    def value(self, p) -> np.ndarray:
        p = as_point(p)
        return _check_metric_value(np.asarray(self.value_fn(p), dtype=float), p.shape[:-1])[0]

    @raise_float_errors
    def partials(self, p) -> tuple[np.ndarray, np.ndarray]:
        """(g, dg) at p: the checked metric value and its partials."""
        g, _, _, dg = self._read(p)
        return g, dg

    def _read(self, p) -> tuple[np.ndarray, np.ndarray, list, np.ndarray]:
        """(g, d, low, dg) at p: the checked g, its ``_factor`` (d, low) and dg."""
        p = as_point(p)
        if self.partials_fn is None:
            h = DEFAULT_METRIC_STEP
            g, dg = _split(self.value(_stencil(p, h)), h, p.ndim - 1)
        else:
            g, dg = self.partials_fn(p)
        g, d, low = _check_metric_value(np.asarray(g, dtype=float), p.shape[:-1])
        dg = np.asarray(dg, dtype=float)
        shape = p.shape[:-1] + (4, 4, 4)
        if dg.shape != shape:
            raise InvalidMetricError(f"dg must have shape {shape}, got shape {dg.shape}")
        return g, d, low, dg

    def without_partials(self) -> "MetricField":
        """Copy of this metric that forgets its analytic derivative provider."""
        return MetricField(self.value_fn)


def _checked(name: str, result: np.ndarray, *operands: np.ndarray) -> np.ndarray:
    """``result`` unless it is non-finite where every operand is finite: a
    product run under ``np.errstate(all="ignore")`` (or an ``np.einsum``,
    which ignores it) then overflowed, and FloatingPointError names the
    quantity ``name``."""
    if not np.all(np.isfinite(result)) and all(np.all(np.isfinite(x)) for x in operands):
        raise FloatingPointError(f"overflow encountered in {name}")
    return result


def _x_map() -> np.ndarray:
    """The 64x64 matrix taking the partials dg[c, a, b] = d_c g_ab, flattened,
    to X[d, b, c] = (d_b g_dc + d_c g_db - d_d g_bc) / 2, flattened."""
    m = np.zeros((4, 4, 4, 4, 4, 4))  # [k, a, b] of dg by [d, b, c] of X
    for d, b, c in np.ndindex(4, 4, 4):
        m[b, d, c, d, b, c] += 0.5
        m[c, d, b, d, b, c] += 0.5
        m[d, b, c, d, b, c] -= 0.5
    return m.reshape(64, 64)


_X_MAP = _x_map()


@raise_float_errors
def _levi_civita(g: MetricField, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, g^-1, Gamma) at a point or at each point of a batch, with
    Gamma[..., a, b, c] = Gamma^a_bc, from one read of the metric."""
    gmat, d, low, dg = g._read(p)  # dg[..., c, a, b] = d_c g_ab
    ginv = _inverse(gmat, d, low)
    batch = gmat.shape[:-2]
    finite = np.all(np.isfinite(dg))  # g^-1 is: _inverse raises otherwise
    with np.errstate(all="ignore"):
        x = dg.reshape(batch + (64,)) @ _X_MAP  # X[..., d, b, c] / 2
        del dg
        gamma = ginv @ x.reshape(batch + (4, 16))
        del x
    if finite and not np.all(np.isfinite(gamma)):
        raise FloatingPointError("overflow encountered in Christoffel symbols")
    return gmat, ginv, gamma.reshape(batch + (4, 4, 4))


def christoffel(g: MetricField, p) -> np.ndarray:
    """Christoffel symbols Gamma[..., a, b, c] = Gamma^a_bc at a point or
    at each point of a batch."""
    return _levi_civita(g, p)[2]


def _contract(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Unsymmetrized Ricci tensor from Gamma and dGamma[..., k, a, b, c] = d_k Gamma^a_bc."""
    batch = gamma.shape[:-3]
    with np.errstate(all="ignore"):
        ric = np.einsum("...aabc->...bc", dgamma) - np.einsum("...caba->...bc", dgamma)
        # Gamma^a_ad Gamma^d_bc: the trace vector Gamma^a_ad times Gamma as 4x16
        trace = np.einsum("...aad->...d", gamma)[..., None, :]
        ric += (trace @ gamma.reshape(batch + (4, 16))).reshape(batch + (4, 4))
        # Gamma^a_cd Gamma^d_ba: Gamma[d, b, a] as [b, (d, a)] times Gamma[a, c, d] as [(d, a), c]
        left = np.swapaxes(gamma, -3, -2).reshape(batch + (4, 16))
        right = np.moveaxis(gamma, -3, -1).reshape(batch + (4, 16))
        ric -= left @ np.swapaxes(right, -1, -2)
    return _checked("Ricci contraction", ric, gamma, dgamma)


@raise_float_errors
def _metric_and_ricci(g: MetricField, p, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(g, symmetrized Ricci) at p from one Levi-Civita pass over its step-h
    stencil.  Raises OracleError when the raw Ricci is asymmetric beyond
    MAX_RICCI_ASYMMETRY: an invalid metric or a step too large for it."""
    p = as_point(p)
    gmat, _, gammas = _levi_civita(g, _stencil(p, h))
    ric = _contract(*_split(gammas, h, p.ndim - 1))
    asymmetry = np.max(np.abs(ric - np.swapaxes(ric, -1, -2)), axis=(-2, -1))
    bad = ~(asymmetry <= MAX_RICCI_ASYMMETRY)
    if np.any(bad):
        raise OracleError(
            f"FD Ricci asymmetry {first_where(asymmetry, bad):.3e} exceeds "
            f"{MAX_RICCI_ASYMMETRY:.1e}; metric is invalid or the step is too large"
        )
    return gmat[0], 0.5 * (ric + np.swapaxes(ric, -1, -2))


def ricci_fd(g: MetricField, p, h: float = DEFAULT_GAMMA_STEP) -> np.ndarray:
    """Symmetrized FD Ricci tensor (coordinate components) at a point or
    at each point of a batch; raises OracleError on excess asymmetry."""
    return _metric_and_ricci(g, p, h)[1]


@raise_float_errors
def laplace_beltrami_fd(g: MetricField, f: ScalarField, p):
    """Laplace-Beltrami operator of f: g^{ab}(f_ab - Gamma^c_ab f_c)."""
    _, ginv, gamma = _levi_civita(g, p)
    jet = f.jet(p, 2)
    name = "Laplace-Beltrami operator"
    hess = jet.h - _checked(name, np.einsum("...cab,...c->...ab", gamma, jet.g), gamma, jet.g)
    return _checked(name, np.einsum("...ab,...ab->...", ginv, hess), ginv, hess)


@raise_float_errors
def einstein_residual_fd(g: MetricField, a_const: float, p, h: float = DEFAULT_GAMMA_STEP):
    """Max-norm of Ric_fd - A g, at a point or at each point of a batch."""
    gmat, ric = _metric_and_ricci(g, p, h)
    return np.max(np.abs(ric - a_const * gmat), axis=(-2, -1))
