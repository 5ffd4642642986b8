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

Inversion, determinant and the positive-definiteness check (Cholesky)
are numpy's.  The singularity check compares |det| against the product
of row magnitudes at 1e-10, so it is relative to the metric's own scale.

A ``MetricField`` is built from batch callables, and every function
takes a point or an (N, 4) array of points (a batch) and works on the
whole batch at once, through one Levi-Civita pass (``_levi_civita``):
the module's only ``partials`` and ``invert4`` calls, giving (g, g^-1,
Gamma).  ``_stencil`` stacks each point with its 8 shifts p +- h e_k and
``_split`` turns values there into the centre and centered differences,
for metric partials without a provider and for dGamma alike; the Ricci
contraction ``_contract`` takes (Gamma, dGamma) alone, so ``ricci_fd``
reads the metric once, on the 9 N stencil points.  Float overflow,
division by zero and invalid operations raise FloatingPointError.
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


@raise_float_errors
def invert4(m: np.ndarray) -> np.ndarray:
    """Inverse of a 4x4 matrix, or of each matrix of an (N, 4, 4) stack;
    raises SingularMetricError.

    The singularity check is scale-relative: |det| is compared against
    the product of row magnitudes, so a well-conditioned metric with
    small entries (a strongly collapsed direction) still inverts.  A
    non-finite entry anywhere in the stack fails before any determinant
    is taken.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise SingularMetricError("metric to invert has a non-finite entry")
    det = np.linalg.det(m)
    scale = np.prod(np.max(np.abs(m), axis=-1), axis=-1)
    bad = ~((scale > 0.0) & (SINGULARITY_THRESHOLD * scale <= np.abs(det)))
    if np.any(bad):
        raise SingularMetricError(
            f"metric determinant {first_where(det, bad):.3e} below threshold"
            f" (scale {first_where(scale, bad):.3e})"
        )
    return np.linalg.inv(m)


def _check_metric_value(g: np.ndarray, batch: tuple) -> np.ndarray:
    """``g`` if it is a finite, symmetric, positive definite 4x4 metric at
    each point of the batch; else InvalidMetricError."""
    if g.shape != batch + (4, 4):
        raise InvalidMetricError(f"metric must be 4x4, got shape {g.shape[len(batch):]}")
    if not np.all(np.isfinite(g)):
        raise InvalidMetricError("metric has a non-finite entry")
    if np.max(np.abs(g - np.swapaxes(g, -1, -2))) > 1e-12:
        raise InvalidMetricError("metric is not symmetric to 1e-12")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise InvalidMetricError("metric is not positive definite") from None
    return g


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
    return values[0], np.moveaxis((pairs[:, 0] - pairs[:, 1]) / (2.0 * h), 0, batch_ndim)


class MetricField:
    """Map point -> symmetric 4x4 metric components g_ab.

    ``value`` and ``partials`` (optional) are batch callables on points
    of shape batch + (4,).  ``value`` gives g of shape batch + (4, 4);
    ``partials`` gives the pair (g, dg) from one evaluation, with dg of
    shape batch + (4, 4, 4) and dg[..., c, a, b] = d_c g_ab.  Without
    partials, metric derivatives are centered differences of the value
    with step DEFAULT_METRIC_STEP.  Every query takes a point or an
    (N, 4) array of points, and every metric value it returns is checked
    (finite, symmetric, positive definite).
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
        return _check_metric_value(np.asarray(self.value_fn(p), dtype=float), p.shape[:-1])

    @raise_float_errors
    def partials(self, p) -> tuple[np.ndarray, np.ndarray]:
        """(g, dg) at p: the checked metric value and its partials."""
        p = as_point(p)
        if self.partials_fn is None:
            h = DEFAULT_METRIC_STEP
            return _split(self.value(_stencil(p, h)), h, p.ndim - 1)
        g, dg = self.partials_fn(p)
        g = _check_metric_value(np.asarray(g, dtype=float), p.shape[:-1])
        return g, np.asarray(dg, dtype=float)

    def without_partials(self) -> "MetricField":
        """Copy of this metric that forgets its analytic derivative provider."""
        return MetricField(self.value_fn)


@raise_float_errors
def _levi_civita(g: MetricField, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, g^-1, Gamma) at a point or at each point of a batch, with
    Gamma[..., a, b, c] = Gamma^a_bc, from one ``partials`` call."""
    gmat, dg = g.partials(p)  # dg[..., c, a, b] = d_c g_ab
    ginv = invert4(gmat)
    # X[d, b, c] = d_b g_dc + d_c g_db - d_d g_bc
    x = np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg
    return gmat, ginv, 0.5 * np.einsum("...ad,...dbc->...abc", ginv, x)


def christoffel(g: MetricField, p) -> np.ndarray:
    """Christoffel symbols Gamma[..., a, b, c] = Gamma^a_bc at a point or
    at each point of a batch."""
    return _levi_civita(g, p)[2]


def _contract(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Unsymmetrized Ricci tensor from Gamma and dGamma[..., k, a, b, c] = d_k Gamma^a_bc."""
    return (
        np.einsum("...aabc->...bc", dgamma)
        - np.einsum("...caba->...bc", dgamma)
        + np.einsum("...aad,...dbc->...bc", gamma, gamma)
        - np.einsum("...acd,...dba->...bc", gamma, gamma)
    )


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
    hess = jet.h - np.einsum("...cab,...c->...ab", gamma, jet.g)
    return np.einsum("...ab,...ab->...", ginv, hess)


@raise_float_errors
def einstein_residual_fd(g: MetricField, a_const: float, p, h: float = DEFAULT_GAMMA_STEP):
    """Max-norm of Ric_fd - A g, at a point or at each point of a batch."""
    gmat, ric = _metric_and_ricci(g, p, h)
    return np.max(np.abs(ric - a_const * gmat), axis=(-2, -1))
