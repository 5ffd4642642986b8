"""Brute-force curvature engine for metrics on coordinate patches of R^4.

Everything here goes through the standard Levi-Civita pipeline

    Gamma^a_bc = 1/2 g^{ad} (d_b g_dc + d_c g_db - d_d g_bc)
    Ric_bc     = d_a Gamma^a_bc - d_c Gamma^a_ba
                 + Gamma^a_ad Gamma^d_bc - Gamma^a_cd Gamma^d_ba
    Scal       = g^{bc} Ric_bc
    Lap f      = g^{ab} (d_a d_b f - Gamma^c_ab d_c f)

with metric derivatives taken from an analytic provider when the metric
carries one, and centered finite differences otherwise.  The derivatives
of Gamma needed by the Ricci tensor are always finite differences, so
this module is an independent check on any closed-form curvature.

Inversion, determinant and the positive-definiteness check (Cholesky)
are numpy's.  The singularity check compares |det| against the product
of row magnitudes at 1e-10, so it is relative to the metric's own scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fields import ScalarField, as_point

__all__ = [
    "SingularMetricError",
    "InvalidMetricError",
    "OracleError",
    "MetricField",
    "euclidean_metric",
    "invert4",
    "christoffel",
    "ricci_fd",
    "scalar_fd",
    "laplace_beltrami_fd",
    "einstein_residual_fd",
    "riemann_fd",
    "CurvatureReport",
    "curvature_report",
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


def invert4(m: np.ndarray) -> np.ndarray:
    """Inverse of a 4x4 matrix; raises SingularMetricError.

    The singularity check is scale-relative: |det| is compared against
    the product of row magnitudes, so a well-conditioned metric with
    small entries (a strongly collapsed direction) still inverts.  A
    non-finite determinant fails the check.
    """
    det = float(np.linalg.det(m))
    scale = float(np.prod(np.max(np.abs(m), axis=1)))
    if not (scale > 0.0 and SINGULARITY_THRESHOLD * scale <= abs(det) < math.inf):
        raise SingularMetricError(
            f"metric determinant {det:.3e} below threshold (scale {scale:.3e})"
        )
    return np.linalg.inv(m)


def _check_metric_value(g: np.ndarray) -> None:
    if g.shape != (4, 4):
        raise InvalidMetricError(f"metric must be 4x4, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise InvalidMetricError("metric has a non-finite entry")
    if np.max(np.abs(g - g.T)) > 1e-12:
        raise InvalidMetricError("metric is not symmetric to 1e-12")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise InvalidMetricError("metric is not positive definite") from None


def _centered(f: Callable[[np.ndarray], np.ndarray], p: np.ndarray, h: float) -> np.ndarray:
    """d[k] = (f(p + h e_k) - f(p - h e_k)) / 2h, stacked over k = 0..3."""
    return np.stack([(f(p + e) - f(p - e)) / (2.0 * h) for e in h * np.eye(4)])


class MetricField:
    """Map point -> symmetric 4x4 metric components g_ab.

    ``partials`` (optional) returns the (4, 4, 4) array dg with
    dg[c, a, b] = d_c g_ab; when absent, metric derivatives are centered
    differences with step DEFAULT_METRIC_STEP.
    """

    def __init__(
        self,
        value: Callable[[np.ndarray], np.ndarray],
        partials: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        self.value_fn = value
        self.partials_fn = partials

    def value(self, p) -> np.ndarray:
        g = np.asarray(self.value_fn(as_point(p)), dtype=float)
        _check_metric_value(g)
        return g

    def partials(self, p) -> np.ndarray:
        p = as_point(p)
        if self.partials_fn is not None:
            return np.asarray(self.partials_fn(p), dtype=float)
        return _centered(self.value, p, DEFAULT_METRIC_STEP)

    def without_partials(self) -> "MetricField":
        """Copy of this metric that forgets its analytic derivative provider."""
        return MetricField(self.value_fn)


def euclidean_metric() -> MetricField:
    return MetricField(lambda p: np.eye(4), lambda p: np.zeros((4, 4, 4)))


def christoffel(g: MetricField, p) -> np.ndarray:
    """Christoffel symbols Gamma[a, b, c] = Gamma^a_bc at p."""
    gmat = g.value(p)
    ginv = invert4(gmat)
    dg = g.partials(p)  # dg[c, a, b] = d_c g_ab
    # X[d, b, c] = d_b g_dc + d_c g_db - d_d g_bc
    x = np.einsum("bdc->dbc", dg) + np.einsum("cdb->dbc", dg) - dg
    return 0.5 * np.einsum("ad,dbc->abc", ginv, x)


def _gamma_derivatives(g: MetricField, p, h: float) -> np.ndarray:
    """dGamma[k, a, b, c] = d_k Gamma^a_bc by centered differences."""
    return _centered(lambda q: christoffel(g, q), as_point(p), h)


def _raw_ricci(g: MetricField, p, h: float):
    """(unsymmetrized Ricci, Gamma) from the contraction formula."""
    gamma = christoffel(g, p)
    dgamma = _gamma_derivatives(g, p, h)
    ric = (
        np.einsum("aabc->bc", dgamma)
        - np.einsum("caba->bc", dgamma)
        + np.einsum("aad,dbc->bc", gamma, gamma)
        - np.einsum("acd,dba->bc", gamma, gamma)
    )
    return ric, gamma


def ricci_fd(g: MetricField, p, h: float = DEFAULT_GAMMA_STEP) -> np.ndarray:
    """Symmetrized FD Ricci tensor (coordinate components) at p.

    Raises OracleError when the raw result is asymmetric beyond
    MAX_RICCI_ASYMMETRY, which indicates an invalid metric or a step too
    large for it.
    """
    ric, _ = _raw_ricci(g, p, h)
    asymmetry = float(np.max(np.abs(ric - ric.T)))
    if not asymmetry <= MAX_RICCI_ASYMMETRY:
        raise OracleError(
            f"FD Ricci asymmetry {asymmetry:.3e} exceeds {MAX_RICCI_ASYMMETRY:.1e}; "
            "metric is invalid or the step is too large"
        )
    return 0.5 * (ric + ric.T)


def scalar_fd(g: MetricField, p, h: float = DEFAULT_GAMMA_STEP) -> float:
    """FD scalar curvature g^{ab} Ric_ab at p."""
    return float(np.einsum("ab,ab->", invert4(g.value(p)), ricci_fd(g, p, h)))


def laplace_beltrami_fd(g: MetricField, f: ScalarField, p) -> float:
    """Laplace-Beltrami operator of f at p: g^{ab}(f_ab - Gamma^c_ab f_c)."""
    ginv = invert4(g.value(p))
    jet = f.jet(p)
    gamma = christoffel(g, p)
    hess = jet.h - np.einsum("cab,c->ab", gamma, jet.g)
    return float(np.einsum("ab,ab->", ginv, hess))


def einstein_residual_fd(g: MetricField, a_const: float, p, h: float = DEFAULT_GAMMA_STEP) -> float:
    """Max-norm of Ric_fd(p) - A g(p)."""
    return float(np.max(np.abs(ricci_fd(g, p, h) - a_const * g.value(p))))


def riemann_fd(g: MetricField, p, h: float = DEFAULT_GAMMA_STEP) -> np.ndarray:
    """Full FD Riemann tensor R[a, b, c, d] = R^a_{bcd}.  Debug helper;
    the rest of the library only ever needs the Ricci contraction."""
    gamma = christoffel(g, p)
    dgamma = _gamma_derivatives(g, p, h)
    return (
        np.einsum("cadb->abcd", dgamma)
        - np.einsum("dacb->abcd", dgamma)
        + np.einsum("ace,edb->abcd", gamma, gamma)
        - np.einsum("ade,ecb->abcd", gamma, gamma)
    )


@dataclass(frozen=True)
class CurvatureReport:
    """FD curvature summary at a single point."""

    point: np.ndarray
    gamma: np.ndarray  # (4, 4, 4), Gamma^a_bc
    ricci: np.ndarray  # (4, 4), symmetrized
    asymmetry: float  # max |Ric - Ric^T| before symmetrization
    scalar: float
    h: float


def curvature_report(g: MetricField, p, h: float = DEFAULT_GAMMA_STEP) -> CurvatureReport:
    p = as_point(p)
    ric, gamma = _raw_ricci(g, p, h)
    asymmetry = float(np.max(np.abs(ric - ric.T)))
    ric_sym = 0.5 * (ric + ric.T)
    scal = float(np.einsum("ab,ab->", invert4(g.value(p)), ric_sym))
    return CurvatureReport(p, gamma, ric_sym, asymmetry, scal, h)
