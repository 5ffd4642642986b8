"""Einstein systems for the deformed metric and their solution families.

Three layers:

* the ten-equation pointwise system for Ric = A g in terms of sigma and
  rho (``einstein_residuals``), plus its warped-product reduction
  (``warped_residuals``) and single-parameter reduction
  (``single_param_residuals``);

* warped-product profiles alpha(t) governed by the first-order system
  (alpha, gamma, delta)' = (gamma, delta, 2 gamma delta/alpha
  + delta^2/gamma - 2 Ctilde gamma^2) with conserved quantity
  A = C alpha^2 + (B alpha^2/gamma)(delta/alpha - 3 gamma^2/alpha^2);

* single-parameter profiles rho(t) governed by
  rho' = alpha (rho^3 - beta^3), with sigma reconstructed as
  sigma = b rho |rho'|^(-1/2) and Einstein constant
  A = -3 b^2 e for rho' > 0 (+3 b^2 e for rho' < 0), e = -alpha beta^3.

Both systems are integrated by one fixed-step driver that takes a
straight-line classical RK4 step per system: on a bare float rho, and on
an (alpha, gamma, delta) tuple.  Each does the float operations of the
generic list-based RK4 (the reference in the tests) in the same order,
so trajectories are bit-identical to it.
Blow-up of rho is detected at |rho| > max(1e3, 10 max(|beta|, |rho0|)),
so the cap never lies below beta or rho0, and the escape time is
refined by bisection on the last step down to 1e-6 in t.  The exact
rho is monotone: it moves away from beta for alpha > 0, and towards it
without crossing it for alpha < 0, where no member blows up.  A step
that moves rho against rho' at its start or across beta, and for
alpha < 0 a step rejected for overflow or the cap, raises DomainError
(a step too large).  Warped states stop at |component| > 1e6 or when
gamma crosses zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .deform import DeformationPair, FrameRicci, ricci_frame
from .expr import DomainError, first_where, raise_float_errors
from .fields import ExpressionField, ProfileField, ScalarField, require_positive

__all__ = [
    "REACHED_T_MAX",
    "BLOW_UP",
    "SINGULAR_GAMMA",
    "FamilyParams",
    "WarpedState",
    "Trajectory",
    "EndDiagnostics",
    "einstein_residuals",
    "warped_residuals",
    "integrate_warped",
    "rho_rhs",
    "integrate_rho",
    "check_step_count",
    "implicit_time",
    "einstein_constant",
    "family_fields",
    "ricci_flat_fields",
    "single_param_residuals",
    "end_diagnostics",
]

REACHED_T_MAX = "reached-t-max"
BLOW_UP = "blow-up"
SINGULAR_GAMMA = "singular-gamma"
_STEP_TOO_LARGE = "step-too-large"  # integrate_rho raises it as DomainError

MAX_STEPS = 10**6  # RK4 steps or profile samples per run; 50x the largest canned example
RHO_BLOW_UP_CAP = 1e3
WARPED_COMPONENT_CAP = 1e6
GAMMA_SINGULAR_TOL = 1e-8
BLOW_UP_TIME_TOL = 1e-6
VERTICAL_CURVATURE_TOL = 1e-6  # spread of beta's curvature in warped_residuals
SMALL_T_WINDOW = 0.1  # end_diagnostics fits small-t slopes over 0 < t <= this
LARGE_T_FRACTION = 0.1  # ... and needs 10 samples in this last fraction of t


# ---------------------------------------------------------------------------
# Parameter and state types


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (alpha, beta, b) of the single-parameter family; alpha
    is nonzero and b > 0, since sigma = b rho |rho'|^(-1/2) must be
    positive (a b < 0 gives the metric of |b| with a negative sigma).

    Derived constants: ``c`` = 3 alpha / 2 (exponent coefficient in the
    sigma reconstruction) and ``e`` = -alpha beta^3 (the slope of rho at
    rho = 0); the Einstein constant is +-3 b^2 e depending on the sign
    of rho'.
    """

    alpha: float
    beta: float
    b: float = 1.0

    def __post_init__(self):
        if self.alpha == 0.0:
            raise ValueError("alpha must be nonzero")
        if not self.b > 0.0:
            raise ValueError("b must be positive")

    @property
    def c(self) -> float:
        return 1.5 * self.alpha

    @property
    def e(self) -> float:
        return -self.alpha * self.beta**3


@dataclass(frozen=True)
class WarpedState:
    """State (alpha, gamma, delta) = (alpha, alpha', alpha'') of the
    warped profile, with constants B != 0 and C (Ctilde = C/B).

    sigma^2 = B alpha^2 / gamma must be positive, so B and gamma carry
    the same sign.
    """

    alpha: float
    gamma: float
    delta: float
    B: float = 1.0
    C: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.gamma == 0.0:
            raise ValueError("gamma must be nonzero")
        if self.B == 0.0:
            raise ValueError("B must be nonzero")
        if self.B / self.gamma <= 0.0:
            raise ValueError(
                "B and gamma must have the same sign (sigma^2 = B alpha^2/gamma > 0)"
            )

    @property
    def ctilde(self) -> float:
        return self.C / self.B


@dataclass(frozen=True)
class Trajectory:
    """Ordered samples of an integrated profile.

    ``columns`` maps column name to a sample array; rho trajectories
    carry (rho, rho_prime, sigma) and warped trajectories
    (alpha, gamma, delta, sigma, A_integral).  ``termination`` is one of
    REACHED_T_MAX, BLOW_UP, SINGULAR_GAMMA.
    """

    t: np.ndarray
    columns: dict = field(default_factory=dict)
    termination: str = REACHED_T_MAX
    blow_up_time: float | None = None

    def __getitem__(self, name: str) -> np.ndarray:
        if name == "t":
            return self.t
        return self.columns[name]

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class EndDiagnostics:
    """Fitted asymptotics of a single-parameter family trajectory."""

    rho_slope: float
    sigma_slope: float
    rho_limit: float
    inv_sigma_limit: float
    small_end: str  # "hyperbolic-type" or "undetermined"
    large_end: str  # "r2-end", "blow-up" or "undetermined"
    blow_up_time: float | None = None


# ---------------------------------------------------------------------------
# Pointwise Einstein residual systems
#
# Sign convention: every residual is (curvature side) - (A side), so the
# flat pair sigma = rho = 1 with A = 1 reports -1 on the four diagonal
# slots.  Component order:
#   [ (1,1), (2,2), (1,2), (1,3), (1,4), (2,3), (2,4), (3,3), (4,4), (3,4) ]


@raise_float_errors
def einstein_residuals(d: DeformationPair, a_const: float, p) -> np.ndarray:
    """Residuals of the ten pointwise Einstein equations at p (shape (10,)),
    or at each point of an (N, 4) array (shape (N, 10)): the frame Ricci
    matrix minus A times the identity, slot by slot.

    Diagonal slots carry the sigma^2 / rho^2 prefactors of the equations
    (Ric(e_a, e_a) - A); off-diagonal slots are the bare brackets (the
    frame Ricci components divided by 2 sigma^2, sigma rho and 2 rho^2
    respectively), which vanish together with them.
    """
    return _residual_slots(ricci_frame(d, p), a_const)


def _residual_slots(fr: FrameRicci, a: float) -> np.ndarray:
    """The ten residual slots of ``einstein_residuals`` from a frame matrix."""
    (m11, m12, m13, m14), (_, m22, m23, m24), (_, _, m33, m34), (_, _, _, m44) = (
        np.moveaxis(fr.matrix, (-2, -1), (0, 1))
    )
    hh, hv, vv = 2.0 * np.square(fr.sigma), fr.sigma * fr.rho, 2.0 * np.square(fr.rho)
    return np.stack([
        m11 - a, m22 - a, m12 / hh,
        m13 / hv, m14 / hv, m23 / hv, m24 / hv,
        m33 - a, m44 - a, m34 / vv,
    ], axis=-1)


# offsets of the 4 points around p at which beta's curvature must agree with p's
_CURVATURE_PROBES = np.array(
    [[0.0, 0.0, off * (axis == 2), off * (axis == 3)] for off in (0.05, -0.05) for axis in (2, 3)]
)


@raise_float_errors
def warped_residuals(
    sigma: ScalarField, alpha: ScalarField, beta: ScalarField, a_const: float, p
) -> np.ndarray:
    """Residuals of the four warped-product Einstein equations at p, or at
    each point of an (N, 4) array: slots (1,1), (2,2), (1,2) and (3,3) of
    ``einstein_residuals`` for rho = alpha beta.

    The metric is (dx1^2+dx2^2)/sigma^2 + (dx3^2+dx4^2)/(alpha^2 beta^2)
    with sigma, alpha functions of (x1, x2) and beta of (x3, x4); beta
    must give the vertical surface constant Gaussian curvature
    beta^2 (d33 + d44) ln beta, which is checked to VERTICAL_CURVATURE_TOL
    at p and its four shifts by 0.05 in x3 and x4.  beta is evaluated once,
    on those five points, and its log data at p come from the same call.
    """
    p = np.asarray(p, dtype=float)
    probes = p + _CURVATURE_PROBES.reshape((4,) + (1,) * (p.ndim - 1) + (4,))
    bv, bg, bh = beta.log_jet(np.concatenate([p[None], probes]))
    ks = bv * bv * (bh[..., 2, 2] + bh[..., 3, 3])
    spread = np.max(ks, axis=0) - np.min(ks, axis=0)
    if np.any(spread > VERTICAL_CURVATURE_TOL):
        raise DomainError(
            "beta does not have constant vertical curvature: spread "
            f"{first_where(spread, spread > VERTICAL_CURVATURE_TOL):.3e}"
        )

    sv, sg, sh = sigma.log_jet(p)
    av, ag, ah = alpha.log_jet(p)
    # ln rho = ln alpha + ln beta, so the log data add
    fr = FrameRicci.from_log_data(sv, av * bv[0], sg, sh, ag + bg[0], ah + bh[0])
    return _residual_slots(fr, a_const)[..., [0, 1, 2, 7]]


def single_param_residuals(
    sigma: ScalarField, rho: ScalarField, a_const: float, t
) -> np.ndarray:
    """Residuals of the three scalar equations obtained by substituting
    sigma = sigma(t), rho = rho(t) into the ten-equation system, i.e.
    slots (1,1), (2,2) and (3,3) of ``einstein_residuals`` at (t, 0, 0, 0);
    shape (3,) for one t, (N, 3) for an array of N values of t:

        (1)  A = sigma^2 { (ln s)'' + 2 (ln s)'(ln r)' - 2 (ln r)'^2 + 2 (ln r)'' }
        (2)  A = sigma^2 { (ln s)'' - 2 (ln s)'(ln r)' }
        (3)  A = sigma^2 { (ln r)'' - 2 (ln r)'^2 }
    """
    t = np.asarray(t, dtype=float)
    p = np.zeros(t.shape + (4,))
    p[..., 0] = t
    return einstein_residuals(DeformationPair(sigma, rho), a_const, p)[..., [0, 1, 7]]


# ---------------------------------------------------------------------------
# RK4 and the warped first-order system


def check_step_count(t0: float, t1: float, dt: float) -> None:
    """Raise ValueError unless steps of dt > 0 cross [t0, t1], with
    t1 >= t0, in at most MAX_STEPS steps, each of which moves t (dt above
    the float resolution of t).  This is the one check of an RK4 span and
    step."""
    if not dt > 0.0:  # also NaN
        raise ValueError(f"dt must be positive, got {dt:g}")
    if t1 < t0:
        raise ValueError(f"the t span [{t0:g}, {t1:g}] ends before it starts")
    steps = (t1 - t0) / dt
    if not steps <= MAX_STEPS:
        raise ValueError(
            f"a t span of {t1 - t0:g} at dt = {dt:g} takes {steps:.3g} steps, "
            f"more than {MAX_STEPS}"
        )
    if dt <= math.ulp(max(abs(t0), abs(t1))):
        raise ValueError(f"dt = {dt:g} is below the float resolution of t on [{t0:g}, {t1:g}]")


def _integrate(step, y0, t_max: float, dt: float, stop, t_tol=None):
    """Fixed-step integration from y0 at t = 0 towards t_max.

    ``step(y, dt)`` is one RK4 step of the system; ``stop(y, trial)``
    returns a termination name for a trial state from y that must not be
    accepted, else None.  A step that raises ArithmeticError (a float
    overflow or division by zero) is rejected as BLOW_UP.  With ``t_tol`` set, a
    rejected step is halved repeatedly down to ``t_tol``, keeping every
    accepted sub-step, which brackets the escape time in
    [t_last, t_last + t_tol].

    Returns (times, states, termination, escape time or None).
    """
    check_step_count(0.0, t_max, dt)
    t, y = 0.0, y0
    ts, ys = [t], [y]
    end = t_max - min(1e-12, 0.5 * dt)  # slack for the rounding of t += h
    while t < end:
        h = min(dt, t_max - t)
        try:
            trial = step(y, h)
            termination = stop(y, trial)
        except ArithmeticError:
            termination = BLOW_UP
        if termination is not None:
            if t_tol is None:
                return ts, ys, termination, None
            while h > t_tol:
                h *= 0.5
                try:
                    trial = step(y, h)
                except ArithmeticError:
                    continue
                if stop(y, trial) is None:
                    t += h
                    y = trial
                    ts.append(t)
                    ys.append(y)
            return ts, ys, termination, t + h
        t += h
        y = trial
        ts.append(t)
        ys.append(y)
    return ts, ys, REACHED_T_MAX, None


def _delta_prime(a, g, d, ctilde: float):
    """delta' = 2 gamma delta/alpha + delta^2/gamma - 2 Ctilde gamma^2."""
    return 2.0 * g * d / a + d * d / g - 2.0 * ctilde * g * g


def _warped_step(ctilde: float):
    """The classical RK4 step ``(alpha, gamma, delta), dt -> next state``
    of the warped system.  Stage j has slopes (g_j, d_j, f_j): alpha' and
    gamma' are the stage's own gamma and delta."""

    def step(y, dt):
        a, g, d = y
        h = 0.5 * dt
        f1 = _delta_prime(a, g, d, ctilde)
        a2, g2, d2 = a + h * g, g + h * d, d + h * f1
        f2 = _delta_prime(a2, g2, d2, ctilde)
        a3, g3, d3 = a + h * g2, g + h * d2, d + h * f2
        f3 = _delta_prime(a3, g3, d3, ctilde)
        a4, g4, d4 = a + dt * g3, g + dt * d3, d + dt * f3
        f4 = _delta_prime(a4, g4, d4, ctilde)
        w = dt / 6.0
        return (
            a + w * (g + 2.0 * g2 + 2.0 * g3 + g4),
            g + w * (d + 2.0 * d2 + 2.0 * d3 + d4),
            d + w * (f1 + 2.0 * f2 + 2.0 * f3 + f4),
        )

    return step


def _integral(B, C, alpha, gamma, delta):
    """A = C alpha^2 + (B alpha^2/gamma)(delta/alpha - 3 gamma^2/alpha^2),
    elementwise for arrays."""
    return C * alpha**2 + (B * alpha**2 / gamma) * (delta / alpha - 3.0 * gamma**2 / alpha**2)


def integrate_warped(s0: WarpedState, dt: float, t_max: float) -> Trajectory:
    """RK4 trajectory of the warped system from state s0 at t = 0 to t_max
    (the system is autonomous, so any other start is a shift of t).

    Halts with SINGULAR_GAMMA when |gamma| drops below GAMMA_SINGULAR_TOL
    (or gamma changes sign), with BLOW_UP when any component exceeds
    WARPED_COMPONENT_CAP in magnitude or turns non-finite.
    """
    sign0 = math.copysign(1.0, s0.gamma)

    def stop(_, trial):
        a, g, d = trial
        cap = WARPED_COMPONENT_CAP
        if not (abs(a) <= cap and abs(g) <= cap and abs(d) <= cap):  # also NaN
            return BLOW_UP
        if sign0 * g < GAMMA_SINGULAR_TOL:  # |gamma| below the tolerance or sign flipped
            return SINGULAR_GAMMA
        return None

    ts, ys, termination, _ = _integrate(
        _warped_step(s0.ctilde), (s0.alpha, s0.gamma, s0.delta), t_max, dt, stop
    )
    alpha, gamma, delta = np.array(ys).T
    return Trajectory(
        t=np.array(ts),
        columns={
            "alpha": alpha,
            "gamma": gamma,
            "delta": delta,
            "sigma": np.sqrt(s0.B * alpha**2 / gamma),
            "A_integral": _integral(s0.B, s0.C, alpha, gamma, delta),
        },
        termination=termination,
    )


# ---------------------------------------------------------------------------
# The single-parameter family rho' = alpha (rho^3 - beta^3)


def rho_rhs(fp: FamilyParams, rho: float) -> float:
    """Right-hand side alpha (rho^3 - beta^3) of the profile equation;
    equal to (2c/3) rho^3 + e with c = 3 alpha/2, e = -alpha beta^3.
    Elementwise for an array of rho values."""
    return fp.alpha * (rho**3 - fp.beta**3)


def integrate_rho(fp: FamilyParams, rho0: float, dt: float, t_max: float) -> Trajectory:
    """RK4 trajectory of rho' = alpha (rho^3 - beta^3) from rho(0) = rho0.

    rho blows up when |rho| exceeds the cap max(RHO_BLOW_UP_CAP,
    10 max(|beta|, |rho0|)).  Its escape time is then bracketed by
    repeated step halving from the last in-range state down to
    BLOW_UP_TIME_TOL; the accepted sub-steps are appended to the
    trajectory, so samples stay consistent with the equation all the way
    to the cap.

    The exact solution moves monotonically away from beta for alpha > 0
    and towards it, never crossing it, for alpha < 0, where no member
    blows up.  So a step within the cap must move rho along the sign of
    rho' at its start and must not cross beta: for alpha < 0 it lands
    between rho and beta, both included, and for alpha > 0 on rho or
    beyond it, away from beta.  A step that does not, and for alpha < 0
    a step rejected for a float overflow or the cap, raises DomainError
    (a step too large for the equation) naming its t, rho and dt.
    """
    cap = max(RHO_BLOW_UP_CAP, 10.0 * max(abs(fp.beta), abs(rho0)))

    def step(r, dt):
        h = 0.5 * dt
        k1 = rho_rhs(fp, r)
        k2 = rho_rhs(fp, r + h * k1)
        k3 = rho_rhs(fp, r + h * k2)
        k4 = rho_rhs(fp, r + dt * k3)
        return r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    towards = fp.alpha < 0.0  # rho' points towards beta

    def stop(r, trial):
        if not abs(trial) <= cap:  # also NaN
            return BLOW_UP
        if towards:  # between r and beta, both included
            return None if min(r, fp.beta) <= trial <= max(r, fp.beta) else _STEP_TOO_LARGE
        away = trial <= r if r < fp.beta else trial >= r if r > fp.beta else trial == r
        return None if away else _STEP_TOO_LARGE

    ts, rhos, termination, blow_up_time = _integrate(
        step, float(rho0), t_max, dt, stop, None if towards else BLOW_UP_TIME_TOL
    )
    if termination == _STEP_TOO_LARGE or (termination == BLOW_UP and towards):
        if termination == BLOW_UP:
            what = f"overflows or leaves |rho| <= {cap:g}"
        else:
            what = "moves rho against rho' or across beta"
        raise DomainError(
            f"the RK4 step from t = {ts[-1]:g}, rho = {rhos[-1]:g} {what}, which no solution"
            f" does for alpha = {fp.alpha:g}, beta = {fp.beta:g}; reduce --dt (now {dt:g})"
        )
    rho_arr = np.array(rhos)
    prime = rho_rhs(fp, rho_arr)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.where(
            prime != 0.0, fp.b * rho_arr * np.abs(prime) ** -0.5, np.nan
        )
    return Trajectory(
        t=np.array(ts),
        columns={"rho": rho_arr, "rho_prime": prime, "sigma": sigma},
        termination=termination,
        blow_up_time=blow_up_time,
    )


def implicit_time(rho: float) -> float:
    """Time at which the alpha = 1, beta = -1 trajectory from rho(0) = 0
    reaches the value ``rho``:

        t = (1/3) ln( (rho+1)/|rho^2 - rho + 1|^(1/2) )
            + (sqrt3/3) arctan( (2/sqrt3)(rho - 1/2) ) + pi sqrt3/18.

    Tends to 2 sqrt3 pi / 9 as rho -> infinity.
    """
    if rho < 0.0:
        raise ValueError(f"implicit_time requires rho >= 0, got {rho}")
    s3 = math.sqrt(3.0)
    quad = abs(rho * rho - rho + 1.0)
    return (
        math.log((rho + 1.0) / math.sqrt(quad)) / 3.0
        + (s3 / 3.0) * math.atan((2.0 / s3) * (rho - 0.5))
        + math.pi * s3 / 18.0
    )


def einstein_constant(fp: FamilyParams, rho_prime_sign: int) -> float:
    """Einstein constant of the family: -3 b^2 e when rho' > 0 and
    +3 b^2 e when rho' < 0 (so 3 b^2 alpha beta^3 on the rho' > 0 branch)."""
    if rho_prime_sign not in (1, -1):
        raise ValueError(f"rho_prime_sign must be +1 or -1, got {rho_prime_sign}")
    return -3.0 * rho_prime_sign * fp.b**2 * fp.e


# ---------------------------------------------------------------------------
# Assembling metric fields from trajectories


def _hermite(ts, y, dy):
    """The cubic Hermite interpolant ``at(t)`` of the values y with slopes
    dy at the times ts, for a time or an array of times."""
    if len(ts) < 2:
        raise DomainError("trajectory must have at least two samples")
    t0, t1 = float(ts[0]), float(ts[-1])

    def at(t):
        outside = (t < t0) | (t > t1)
        if np.any(outside):
            raise DomainError(f"t = {first_where(t, outside)} outside trajectory range [{t0}, {t1}]")
        k = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
        h = ts[k + 1] - ts[k]
        u = (t - ts[k]) / h
        h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
        h10 = u * (1.0 - u) ** 2
        h01 = u * u * (3.0 - 2.0 * u)
        h11 = u * u * (u - 1.0)
        return h00 * y[k] + h10 * h * dy[k] + h01 * y[k + 1] + h11 * h * dy[k + 1]

    return at


def family_fields(fp: FamilyParams, traj: Trajectory) -> tuple[ScalarField, ScalarField]:
    """(sigma, rho) profile fields backed by a rho trajectory.

    Only rho is interpolated (cubic Hermite, in positions); its
    derivatives, and sigma's, run analytically through the profile
    equation, never by differencing the interpolant:

        rho'   = alpha (rho^3 - beta^3)          rho''  = 3 alpha rho^2 rho'
        sigma  = b rho |rho'|^(-1/2)
        sigma' = b |rho'|^(-1/2) (rho' - c rho^3)
        sigma''= sigma c rho (c rho^3 - 2 rho')

    with c = 3 alpha / 2; the last two use (ln sigma)' = rho'/rho - c rho^2
    and (ln sigma)'' = -(rho'/rho)^2, which hold along any solution.
    """
    prime = traj["rho_prime"]
    if np.any(prime == 0.0):
        raise DomainError("trajectory touches an equilibrium (rho' = 0)")
    rho_at = _hermite(traj.t, traj["rho"], prime)
    alpha, c, b = fp.alpha, fp.c, fp.b
    sgn = math.copysign(1.0, prime[0])

    # Each closure interpolates rho once for a whole array of t (the
    # interpolant raises outside the trajectory range).  The
    # log-derivatives are exact: near the collapsed end rho' -> 0 the
    # quotient form f''/f - (f'/f)^2 cancels catastrophically, while
    # (ln sigma)'' = -(rho'/rho)^2 stays accurate.
    def state(t):
        r = require_positive(rho_at(t))
        return r, rho_rhs(fp, r)

    def rho_profile(t):
        r, f = state(t)
        return r, f, 3.0 * alpha * r * r * f, f / r, 3.0 * alpha * r * f - (f / r) ** 2

    def sigma_profile(t):
        r, f = state(t)
        root = np.sqrt(sgn * f)
        sv = b * r / root
        return (
            sv,
            b * (f - c * r**3) / root,
            sv * c * r * (c * r**3 - 2.0 * f),
            f / r - c * r * r,
            -((f / r) ** 2),
        )

    return ProfileField(sigma_profile), ProfileField(rho_profile)


def ricci_flat_fields(a: float = 1.0) -> tuple[ScalarField, ScalarField]:
    """Closed-form Ricci-flat profile on t > 0: sigma = a t^(1/4),
    rho = t^(-1/2) (the e = 0 member of the family)."""
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a}")
    return ExpressionField(f"{a!r}*t^0.25"), ExpressionField("t^-0.5")


# ---------------------------------------------------------------------------
# End diagnostics


def _fit_slope_through_origin(t: np.ndarray, y: np.ndarray) -> float:
    return float(np.dot(t, y) / np.dot(t, t))


def end_diagnostics(fp: FamilyParams, traj: Trajectory) -> EndDiagnostics:
    """Fitted small-t slopes of rho and sigma, large-t limits of rho and
    1/sigma, and an end classification.

    Small-t slopes are least-squares fits through the origin over
    samples with 0 < t <= SMALL_T_WINDOW (the family starts at
    rho(0) = 0, where rho ~ e t and sigma ~ b sqrt(e) t).  The large-t
    limits, and the rho' and 1/sigma of the r2-end test, are read at the
    last sample alone.  Requires at least 10 samples with t <=
    SMALL_T_WINDOW and, unless the run blew up, at least 10 in the last
    LARGE_T_FRACTION of the time span.
    """
    t = traj.t
    rho = traj["rho"]
    sigma = traj["sigma"]

    small = (t > 0.0) & (t <= SMALL_T_WINDOW)
    if int(np.sum(small)) < 10:
        raise ValueError(
            f"trajectory too short to fit: {int(np.sum(small))} samples with t <= {SMALL_T_WINDOW}"
        )
    rho_slope = _fit_slope_through_origin(t[small], rho[small])
    sigma_slope = _fit_slope_through_origin(t[small], sigma[small])
    small_end = "hyperbolic-type" if rho_slope > 0.0 and sigma_slope > 0.0 else "undetermined"

    blow_up = traj.termination == BLOW_UP
    if blow_up:
        large_end = BLOW_UP
    else:
        large = t >= (1.0 - LARGE_T_FRACTION) * t[-1]
        if int(np.sum(large)) < 10:
            raise ValueError(
                f"trajectory too short to fit: {int(np.sum(large))} samples in the large-t regime"
            )
        settled = abs(traj["rho_prime"][-1]) < 1e-2 and abs(1.0 / sigma[-1]) < 1e-2
        large_end = "r2-end" if settled else "undetermined"
    return EndDiagnostics(
        rho_slope=rho_slope,
        sigma_slope=sigma_slope,
        rho_limit=float(rho[-1]),
        inv_sigma_limit=float(1.0 / sigma[-1]),
        small_end=small_end,
        large_end=large_end,
        blow_up_time=traj.blow_up_time if blow_up else None,
    )
