"""The RK4 step kernels against the list-based driver they replace.

``_reference_*`` below is the generic RK4 driver on lists of floats, with
its own copies of the right-hand sides, stop predicates and trajectory
columns.  The library's straight-line kernels must reproduce it bit for
bit: every time, every column, the termination and the blow-up time.
The rho stop predicate carries the rules of ``integrate_rho``: the cap
max(RHO_BLOW_UP_CAP, 10 max(|beta|, |rho0|)), and DomainError for a step
it would accept that moves rho against rho' or across beta, or, for
alpha < 0, for a step it rejects.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biconf import (
    BLOW_UP,
    REACHED_T_MAX,
    SINGULAR_GAMMA,
    DomainError,
    FamilyParams,
    WarpedState,
    integrate_rho,
    integrate_warped,
    rho_rhs,
)
from biconf.families import (
    BLOW_UP_TIME_TOL,
    GAMMA_SINGULAR_TOL,
    RHO_BLOW_UP_CAP,
    WARPED_COMPONENT_CAP,
)


def _reference_step(rhs, y: list, dt: float) -> list:
    try:
        k1 = rhs(y)
        k2 = rhs([a + 0.5 * dt * b for a, b in zip(y, k1)])
        k3 = rhs([a + 0.5 * dt * b for a, b in zip(y, k2)])
        k4 = rhs([a + dt * b for a, b in zip(y, k3)])
    except ArithmeticError:
        return [math.nan] * len(y)
    return [
        a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ]


def _reference_integrate(rhs, y0: list, t0, t1, dt, stop, t_tol=None):
    t, y = t0, y0
    ts, ys = [t], [y]
    while t < t1 - 1e-12:
        step = min(dt, t1 - t)
        trial = _reference_step(rhs, y, step)
        termination = stop(y, trial)
        if termination is not None:
            if t_tol is None:
                return ts, ys, termination, None
            while step > t_tol:
                step *= 0.5
                trial = _reference_step(rhs, y, step)
                if stop(y, trial) is None:
                    t += step
                    y = trial
                    ts.append(t)
                    ys.append(y)
            return ts, ys, termination, t + step
        t += step
        y = trial
        ts.append(t)
        ys.append(y)
    return ts, ys, REACHED_T_MAX, None


def _rule_1(fp, r: float, new: float) -> tuple[bool, bool]:
    """The two halves of rule 1 a step from ``r`` to ``new`` may break:
    (it moves rho against rho' at r, it crosses beta)."""
    slope = fp.alpha * (r**3 - fp.beta**3)
    against = (new > r and not slope > 0.0) or (new < r and not slope < 0.0)
    return against, r < fp.beta < new or r > fp.beta > new


def _rho_rhs(fp):
    return lambda y: [fp.alpha * (y[0] ** 3 - fp.beta**3)]


def _reference_rho(fp, rho0, dt, t_max):
    cap = max(RHO_BLOW_UP_CAP, 10.0 * max(abs(fp.beta), abs(rho0)))

    def stop(y, trial):
        r, new = y[0], trial[0]
        if not (math.isfinite(new) and abs(new) <= cap):
            if fp.alpha < 0.0:
                raise DomainError("no member blows up for alpha < 0")
            return BLOW_UP
        against, across = _rule_1(fp, r, new)
        if against:
            raise DomainError("the step moves rho against rho'")
        if across:
            raise DomainError("the step crosses beta")
        return None

    ts, ys, termination, blow_up_time = _reference_integrate(
        _rho_rhs(fp), [float(rho0)], 0.0, t_max, dt, stop,
        BLOW_UP_TIME_TOL,
    )
    rho = np.array([y[0] for y in ys])
    prime = fp.alpha * (rho**3 - fp.beta**3)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.where(prime != 0.0, fp.b * rho * np.abs(prime) ** -0.5, np.nan)
    return np.array(ts), {"rho": rho, "rho_prime": prime, "sigma": sigma}, termination, blow_up_time


def _reference_warped(s0, dt, t_max):
    sign0 = math.copysign(1.0, s0.gamma)
    ctilde = s0.ctilde

    def rhs(y):
        a, g, d = y
        return [g, d, 2.0 * g * d / a + d * d / g - 2.0 * ctilde * g * g]

    def stop(_, y):
        if not all(map(math.isfinite, y)) or max(map(abs, y)) > WARPED_COMPONENT_CAP:
            return BLOW_UP
        if abs(y[1]) < GAMMA_SINGULAR_TOL or math.copysign(1.0, y[1]) != sign0:
            return SINGULAR_GAMMA
        return None

    ts, ys, termination, _ = _reference_integrate(
        rhs, [s0.alpha, s0.gamma, s0.delta], 0.0, t_max, dt, stop
    )
    alpha, gamma, delta = np.array(ys).T
    B, C = s0.B, s0.C
    columns = {
        "alpha": alpha,
        "gamma": gamma,
        "delta": delta,
        "sigma": np.sqrt(B * alpha**2 / gamma),
        "A_integral": C * alpha**2 + (B * alpha**2 / gamma) * (delta / alpha - 3.0 * gamma**2 / alpha**2),
    }
    return np.array(ts), columns, termination, None


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_bit_identical(traj, reference):
    t, columns, termination, blow_up_time = reference
    assert _same_bits(traj.t, t)
    assert traj.columns.keys() == columns.keys()
    for name, column in columns.items():
        assert _same_bits(traj[name], column), name
    assert traj.termination == termination
    if blow_up_time is None:
        assert traj.blow_up_time is None
    else:
        assert np.float64(traj.blow_up_time).tobytes() == np.float64(blow_up_time).tobytes()


def _outcome(integrate, *args):
    """What ``integrate(*args)`` returns, or the type of what it raises.
    Column overflow in the warped run's A_integral is left to inf quietly."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return integrate(*args)
    except (ArithmeticError, DomainError) as exc:
        return type(exc)


def check_rho(*args):
    _check(integrate_rho, _reference_rho, *args)


def check_warped(*args):
    _check(integrate_warped, _reference_warped, *args)


def _check(integrate, reference, *args):
    traj, expected = _outcome(integrate, *args), _outcome(reference, *args)
    if isinstance(expected, type):  # both raise the same error
        assert traj is expected
    else:
        assert_bit_identical(traj, expected)


def _nonzero(lo, hi):
    return st.floats(lo, hi).filter(lambda x: x != 0.0)


def _mostly(common, rare):
    """``common`` nine draws in ten, else ``rare``."""
    return st.integers(0, 9).flatmap(lambda i: rare if i == 0 else common)


HUGE = st.sampled_from([1e6, -1e6, 1e100, -1e100, 1e200, -1e200, 1e300, -1e300])
STEPS = st.floats(1e-3, 0.2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    alpha=_mostly(_nonzero(-5.0, 5.0), HUGE),
    beta=_mostly(st.floats(-2.0, 2.0), HUGE),
    rho0=_mostly(st.floats(-1.5, 1.5), st.sampled_from([1.0, -1.0, 1.0000000000000002])),
    dt=STEPS,
    t_max=st.floats(0.0, 3.0),
)
def test_rho_kernel_matches_the_list_driver(alpha, beta, rho0, dt, t_max):
    check_rho(FamilyParams(alpha, beta), rho0, dt, t_max)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    alpha0=st.floats(0.01, 5.0),
    gamma0=_nonzero(-2.0, 2.0),
    delta0=_mostly(st.floats(-3.0, 3.0), HUGE),
    b_scale=st.floats(0.1, 5.0),
    c_const=st.floats(-5.0, 5.0),
    dt=STEPS,
    t_max=st.floats(1e-3, 3.0),
)
def test_warped_kernel_matches_the_list_driver(alpha0, gamma0, delta0, b_scale, c_const, dt, t_max):
    # B carries gamma's sign, so both signs of B and gamma and of Ctilde = C/B occur
    s0 = WarpedState(alpha0, gamma0, delta0, B=math.copysign(b_scale, gamma0), C=c_const)
    check_warped(s0, dt, t_max)


@pytest.mark.parametrize(
    "alpha, beta, rho0, dt, halves",
    [
        (-1.0, 2.0, 2.5, 0.25, (False, True)),  # from above beta to below it
        (-2.0, -1.0, -1.2, 0.5, (False, True)),  # from below beta to above it
        (-2.0, -0.5, 2.4, 0.25, (True, False)),  # up, away from beta above it
        (-1.0, 1.0, 0.0, 2.0, (True, False)),  # down, away from beta below it
        (1.0, 1.0, 1.0, 2.0, (False, False)),  # alpha > 0 at the equilibrium rho = beta
        (2.0, 1.0, 0.999, 0.5, (False, False)),  # alpha > 0 from just below beta
        (0.5, -0.5, -0.4, 1.0, (False, False)),  # alpha > 0 from just above beta
    ],
)
def test_first_step_breaking_one_half_of_rule_1(alpha, beta, rho0, dt, halves):
    """One step, so a step that breaks one half of rule 1 must raise on its
    own, not at a later step that breaks the other half.  For alpha > 0
    every RK4 stage has the sign of rho' at the start, so no step breaks
    either half, and large steps from either side of beta are accepted."""
    fp = FamilyParams(alpha, beta)
    first = _reference_step(_rho_rhs(fp), [rho0], dt)[0]
    assert abs(first) <= RHO_BLOW_UP_CAP and _rule_1(fp, rho0, first) == halves
    if any(halves):
        with pytest.raises(DomainError, match="against rho' or across beta"):
            integrate_rho(fp, rho0, dt, dt)
    check_rho(fp, rho0, dt, dt)


def test_blow_up_bisection_matches_the_list_driver():
    fp = FamilyParams(1.0, -1.0)  # family ii: rho escapes at t0 = 2 sqrt3 pi / 9
    traj = integrate_rho(fp, 0.0, 1e-4, 2.0)
    assert traj.termination == BLOW_UP and traj.blow_up_time is not None
    check_rho(fp, 0.0, 1e-4, 2.0)
    check_rho(fp, 0.0, 0.07, 2.0)


def test_singular_gamma_matches_the_list_driver():
    s0 = WarpedState(1.0, 0.05, -3.0, C=0.0)
    assert integrate_warped(s0, 1e-3, 10.0).termination == SINGULAR_GAMMA
    check_warped(s0, 1e-3, 10.0)


def test_overflow_inside_a_rho_step_is_a_blow_up():
    fp = FamilyParams(1e300, 1.0)
    # the second stage cubes rho = 0.05 * -1e300
    with pytest.raises(OverflowError):
        rho_rhs(fp, 0.0 + 0.05 * rho_rhs(fp, 0.0))
    traj = integrate_rho(fp, 0.0, 0.1, 1.0)
    assert traj.termination == BLOW_UP and len(traj) == 1
    check_rho(fp, 0.0, 0.1, 1.0)


def test_division_by_zero_inside_a_warped_step_is_a_blow_up():
    # the second stage has alpha = 1 + 0.5 * 1.0 * -2 = 0
    s0 = WarpedState(1.0, -2.0, 0.0, B=-1.0)
    traj = integrate_warped(s0, 1.0, 3.0)
    assert traj.termination == BLOW_UP and len(traj) == 1
    check_warped(s0, 1.0, 3.0)

