"""Biconformal deformation of flat R^4 over the projection to the first
two coordinates, and its closed-form Ricci curvature.

The deformed metric is

    g = (dx1^2 + dx2^2) / sigma^2 + (dx3^2 + dx4^2) / rho^2

for positive scalar fields sigma, rho.  The adapted orthonormal frame is
e_i = sigma d_i (i = 1, 2, horizontal) and e_r = rho d_r (r = 3, 4,
vertical).  ``ricci_frame`` produces the frame components Ric(e_a, e_b)
from one evaluation of both fields, and ``frame_to_coords`` owns the
sigma^2 / sigma*rho / rho^2 factors back to coordinate components; the
Einstein residuals in ``biconf.families`` are the same frame matrix,
rescaled.

Throughout, s_a / s_ab denote first / second partials of ln(sigma) and
r_a / r_ab those of ln(rho), all with respect to the flat coordinates.

Every function here takes a point or an (N, 4) array of points,
evaluating each field once per batch; float overflow, division by zero
and invalid operations raise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import raise_float_errors
from .fields import ExpressionField, ScalarField, require_positive
from .oracle import MetricField

__all__ = [
    "DeformationPair",
    "FrameRicci",
    "metric_of",
    "ricci_frame",
    "frame_to_coords",
    "deformed_laplacian",
    "conformal_ricci_coords",
]


@dataclass(frozen=True)
class DeformationPair:
    """The (sigma, rho) pair defining the deformed metric.

    The metric is a biconformal deformation only where sigma and rho are
    finite and > 0, so every evaluation of the pair (``log_data`` and
    ``metric_of``) requires it, whatever fields back the pair, and raises
    PositivityError naming the first point where it fails.  Callers own
    any other domain restriction (e.g. the unit bidisc for the hyperbolic
    product example).
    """

    sigma: ScalarField
    rho: ScalarField

    @classmethod
    def from_exprs(cls, sigma_text: str, rho_text: str) -> "DeformationPair":
        return cls(ExpressionField(sigma_text), ExpressionField(rho_text))

    def log_data(self, p):
        """(sigma, rho, grad ln sigma, Hess ln sigma, grad ln rho, Hess ln rho)
        at a point or at each point of an (N, 4) array."""
        sv, sg, sh = self.sigma.log_jet(p)
        rv, rg, rh = self.rho.log_jet(p)
        return sv, rv, sg, sh, rg, rh


@dataclass(frozen=True)
class FrameRicci:
    """Ricci components in the adapted orthonormal frame, as a 4x4 matrix,
    with the values of sigma and rho at the point they were built at (for
    a batch of N points: an (N, 4, 4) matrix and N values each).

    Rows/columns 0,1 are horizontal (e_1, e_2) and 2,3 vertical
    (e_3, e_4); symmetry holds by construction.
    """

    matrix: np.ndarray
    sigma: float
    rho: float

    @classmethod
    @raise_float_errors
    def from_log_data(cls, sv, rv, sg, sh, rg, rh) -> "FrameRicci":
        """The frame Ricci matrix from sigma, rho and the gradients and Hessians
        of their logs (``DeformationPair.log_data``).  With kv = rho^2/sigma^2:

            HH  Ric(e_i, e_j) = sigma^2 { delta_ij [ s_11 + s_22 + kv (s_33 + s_44)
                                                     - 2 kv (s_3^2 + s_4^2) ]
                                          + 2 r_ij - 2 r_i r_j
                                          + 2 (s_i r_j + r_i s_j) - 2 delta_ij s.r_H }
            HV  Ric(e_j, e_s) = sigma*rho { s_js + r_js + 2 s_s r_j }

        where s.r_H = s_1 r_1 + s_2 r_2.  VV is HH with (sigma, x1, x2) and (rho, x3, x4)
        exchanged.  For a batch of points every component is an array over the batch.
        """
        # component-major, so sg[a] and sh[a][b] are arrays over the batch
        sg, rg = np.moveaxis(sg, -1, 0), np.moveaxis(rg, -1, 0)
        sh, rh = np.moveaxis(sh, (-2, -1), (0, 1)), np.moveaxis(rh, (-2, -1), (0, 1))
        s2, r2 = sv * sv, rv * rv
        h11, h22, h12 = _block(s2, r2 / s2, sg, sh, rg, rh, (0, 1), (2, 3))
        v33, v44, v34 = _block(r2, s2 / r2, rg, rh, sg, sh, (2, 3), (0, 1))
        (h13, h14), (h23, h24) = (
            [sv * rv * (sh[j][s] + rh[j][s] + 2.0 * sg[s] * rg[j]) for s in (2, 3)] for j in (0, 1)
        )
        m = [[h11, h12, h13, h14], [h12, h22, h23, h24], [h13, h23, v33, v34], [h14, h24, v34, v44]]
        return cls(np.moveaxis(np.array(m), (0, 1), (-2, -1)), sv, rv)

    @property
    def hh(self) -> np.ndarray:
        return self.matrix[..., :2, :2]

    @property
    def hv(self) -> np.ndarray:
        return self.matrix[..., :2, 2:]

    @property
    def vv(self) -> np.ndarray:
        return self.matrix[..., 2:, 2:]


def _block(scale, k, ug, uh, vg, vh, own, other):
    """(Ric_aa, Ric_bb, Ric_ab) of the plane own = (a, b) by the HH formula, with
    u, v = sigma, rho for HH (rho, sigma for VV), scale = u^2 and k = v^2/u^2."""
    (a, b), (c, d) = own, other
    trace = uh[a][a] + uh[b][b] + k * (uh[c][c] + uh[d][d]) - 2.0 * k * (ug[c] * ug[c] + ug[d] * ug[d])
    diag = [
        scale * (trace - 2.0 * vg[i] * vg[i] + 2.0 * vh[i][i] + 2.0 * ug[i] * vg[i] - 2.0 * ug[j] * vg[j])
        for i, j in ((a, b), (b, a))
    ]
    off = 2.0 * scale * (vh[a][b] - vg[a] * vg[b] + ug[a] * vg[b] + vg[a] * ug[b])
    return diag[0], diag[1], off


def metric_of(d: DeformationPair) -> MetricField:
    """The deformed metric diag(1/sigma^2, 1/sigma^2, 1/rho^2, 1/rho^2)
    as a MetricField whose value and analytic partial derivatives come
    from one first-order jet of each field (g and dg need no second
    partials), evaluated a batch of points at a time; sigma and rho must
    be positive there, as in ``log_data``."""

    def _diag(a, b):
        g = np.zeros(np.shape(a) + (4, 4))
        g[..., 0, 0] = g[..., 1, 1] = a
        g[..., 2, 2] = g[..., 3, 3] = b
        return g

    def partials(p):
        sjet = d.sigma.jet(p, order=1)
        require_positive(sjet.val, p)
        rjet = d.rho.jet(p, order=1)
        require_positive(rjet.val, p)
        g = _diag(1.0 / np.square(sjet.val), 1.0 / np.square(rjet.val))
        ds = -2.0 * sjet.g / np.power(sjet.val, 3)[..., None]  # d_c (sigma^-2)
        dr = -2.0 * rjet.g / np.power(rjet.val, 3)[..., None]
        return g, _diag(ds, dr)

    return MetricField(lambda p: partials(p)[0], partials)


@raise_float_errors
def ricci_frame(d: DeformationPair, p) -> FrameRicci:
    """Frame Ricci components Ric(e_a, e_b) at p, from one ``log_data`` call."""
    return FrameRicci.from_log_data(*d.log_data(p))


@raise_float_errors
def frame_to_coords(fr: FrameRicci) -> np.ndarray:
    """Convert frame components to coordinate components.

    The basis change is d_i = e_i/sigma, d_r = e_r/rho, so the HH block
    divides by sigma^2, HV by sigma*rho and VV by rho^2; sigma and rho
    are the values ``fr`` was built from.
    """
    w = np.stack([1.0 / fr.sigma, 1.0 / fr.sigma, 1.0 / fr.rho, 1.0 / fr.rho], axis=-1)
    return fr.matrix * (w[..., :, None] * w[..., None, :])


@raise_float_errors
def deformed_laplacian(d: DeformationPair, f: ScalarField, p) -> float:
    """Laplacian of f in the deformed metric, flat-base closed form:

        Lap f = sigma^2 Lap0 f + (rho^2 - sigma^2) LapV0 f
                - 2 sigma^2 df(Hgrad0 ln rho) - 2 rho^2 df(Vgrad0 ln sigma)

    where Lap0 is the flat Laplacian and LapV0 f = f_33 + f_44.
    """
    sv, rv, sg, _, rg, _ = d.log_data(p)
    jet = f.jet(p, 2)
    sg, rg, fg = (np.moveaxis(a, -1, 0) for a in (sg, rg, jet.g))  # component-major
    fh = np.moveaxis(jet.h, (-2, -1), (0, 1))
    lap0 = fh[0, 0] + fh[1, 1] + fh[2, 2] + fh[3, 3]
    lap_v = fh[2, 2] + fh[3, 3]
    s2, r2 = sv * sv, rv * rv
    return (
        s2 * lap0
        + (r2 - s2) * lap_v
        - 2.0 * s2 * (fg[0] * rg[0] + fg[1] * rg[1])
        - 2.0 * r2 * (fg[2] * sg[2] + fg[3] * sg[3])
    )


@raise_float_errors
def conformal_ricci_coords(sigma: ScalarField, p) -> np.ndarray:
    """Coordinate Ricci of the conformal metric g = g0/sigma^2 (the
    sigma = rho case), from the classical conformal-change formula:

        Ric_ab = 2 [ (ln s)_ab + (ln s)_a (ln s)_b ]
                 + delta_ab ( Lap0 ln s - 2 |grad0 ln s|^2 )
    """
    _, sg, sh = sigma.log_jet(p)
    trace = np.trace(sh, axis1=-2, axis2=-1)
    norm2 = np.sum(sg * sg, axis=-1)
    outer = sg[..., :, None] * sg[..., None, :]
    return 2.0 * (sh + outer) + np.eye(4) * (trace - 2.0 * norm2)[..., None, None]
