"""Einstein systems, solution families, integrators and diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biconf import (
    BLOW_UP,
    REACHED_T_MAX,
    SINGULAR_GAMMA,
    DeformationPair,
    DomainError,
    ExpressionField,
    FamilyParams,
    WarpedState,
    einstein_constant,
    einstein_residual_fd,
    einstein_residuals,
    end_diagnostics,
    family_fields,
    implicit_time,
    integrate_rho,
    integrate_warped,
    metric_of,
    rho_rhs,
    ricci_fd,
    ricci_flat_fields,
    single_param_residuals,
    warped_residuals,
)
from biconf.families import _delta_prime, check_step_count
from helpers import hyperbolic_pair, random_point, sphere_pair

ORIGIN = (0.0, 0.0, 0.0, 0.0)
T0_BLOWUP = 2.0 * math.sqrt(3.0) * math.pi / 9.0

FAMILY_I = FamilyParams(alpha=-1.0, beta=1.0, b=1.0)
FAMILY_II = FamilyParams(alpha=1.0, beta=-1.0, b=1.0)


# ---------------------------------------------------------------------------
# Parameters and pointwise systems


def test_family_params_derived_constants():
    assert FAMILY_I.c == 1.5 * FAMILY_I.alpha
    assert FAMILY_I.e == 1.0  # -alpha beta^3 = -(-1)(1)
    assert FAMILY_II.e == 1.0
    fp = FamilyParams(alpha=2.0, beta=-0.5, b=3.0)
    assert fp.c == 3.0
    assert fp.e == -2.0 * (-0.5) ** 3
    with pytest.raises(ValueError):
        FamilyParams(alpha=0.0, beta=1.0)
    for b in (0.0, -1.0, math.nan):  # sigma = b rho |rho'|^(-1/2) must be positive
        with pytest.raises(ValueError, match="b must be positive"):
            FamilyParams(alpha=1.0, beta=1.0, b=b)


def test_rho_rhs():
    assert rho_rhs(FAMILY_I, 0.0) == 1.0  # initial slope e
    assert rho_rhs(FAMILY_I, 1.0) == 0.0  # fixed point at beta
    assert rho_rhs(FamilyParams(1.0, -1.0), 1.0) == 2.0
    # rhs equals (2c/3) rho^3 + e exactly for binary-friendly parameters
    for fp in (FAMILY_I, FAMILY_II, FamilyParams(2.0, -1.0), FamilyParams(-0.5, 2.0)):
        for rho in (-1.5, 0.0, 0.25, 1.0, 3.0):
            assert rho_rhs(fp, rho) == (2.0 * fp.c / 3.0) * rho**3 + fp.e


def test_einstein_constant():
    assert einstein_constant(FAMILY_I, 1) == -3.0  # 3 b^2 alpha beta^3
    assert einstein_constant(FamilyParams(1.0, 0.0), 1) == 0.0  # Ricci-flat
    assert einstein_constant(FamilyParams(-1.0, 1.0, b=2.0), 1) == -12.0  # b^2 scaling
    assert einstein_constant(FAMILY_I, -1) == 3.0
    with pytest.raises(ValueError):
        einstein_constant(FAMILY_I, 0)


def test_einstein_residuals_product_examples():
    rng = np.random.default_rng(21)
    ds = sphere_pair()
    dh = hyperbolic_pair()
    for _ in range(5):
        p = random_point(rng, 0.4)
        assert np.max(np.abs(einstein_residuals(ds, 1.0, p))) < 1e-10
        assert np.max(np.abs(einstein_residuals(dh, -1.0, p))) < 1e-10
    assert np.max(np.abs(einstein_residuals(dh, -1.0, ORIGIN))) < 1e-10


def test_einstein_residuals_flat_pattern():
    d = DeformationPair.from_exprs("1", "1")
    res = einstein_residuals(d, 1.0, ORIGIN)
    expected = np.array([-1.0, -1.0, 0, 0, 0, 0, 0, -1.0, -1.0, 0])
    assert np.array_equal(res, expected)


def test_warped_residuals_product_reduction():
    sigma = ExpressionField("(1 + x1^2 + x2^2)/2")
    alpha = ExpressionField("1")
    beta = ExpressionField("(1 + x3^2 + x4^2)/2")
    rng = np.random.default_rng(22)
    for _ in range(5):
        p = random_point(rng, 0.3)
        res = warped_residuals(sigma, alpha, beta, 1.0, p)
        assert np.max(np.abs(res)) < 1e-10


def test_warped_residuals_hyperbolic_member():
    # alpha(t) = t, sigma^2 = B t^2 with B = 1, flat beta (C = 0), A = -3
    sigma = ExpressionField("t")
    alpha = ExpressionField("t")
    beta = ExpressionField("1")
    for t in np.linspace(0.5, 2.0, 7):
        res = warped_residuals(sigma, alpha, beta, -3.0, (float(t), 0.3, 0.1, -0.2))
        assert np.max(np.abs(res)) < 1e-8
    # cross-check through the FD oracle on the assembled metric
    d = DeformationPair(sigma, ExpressionField("t"))
    assert einstein_residual_fd(metric_of(d), -3.0, (1.0, 0, 0, 0)) < 1e-5


def test_warped_residuals_vertical_curvature_mismatch():
    # alpha = 1: the fourth residual collapses to A = C alpha^2, so a
    # hyperbolic vertical factor (C = -1) reports |A - C| when A != -1
    sigma = ExpressionField("(1 - x1^2 - x2^2)/2")
    alpha = ExpressionField("1")
    beta = ExpressionField("(1 - x3^2 - x4^2)/2")
    res = warped_residuals(sigma, alpha, beta, -1.0, ORIGIN)
    assert np.max(np.abs(res)) < 1e-12
    res_bad = warped_residuals(sigma, alpha, beta, -0.25, ORIGIN)
    assert abs(res_bad[3] - (-1.0 - -0.25)) < 1e-12


def _random_plane_expr(rng) -> str:
    """A smooth positive, nonconstant field of (x1, x2) on [-0.4, 0.4]^2."""
    c = [float(v) for v in rng.uniform(-0.3, 0.3, size=5)]
    return f"exp({c[0]!r}*x1 + {c[1]!r}*x2 + {c[2]!r}*x1*x2 + {c[3]!r}*x1^2) + {abs(c[4])!r}"


def test_warped_residuals_are_four_slots_of_the_ten():
    """warped_residuals(sigma, alpha, beta) is slots (1,1), (2,2), (1,2)
    and (3,3) of the ten residuals of the pair (sigma, alpha beta), on
    random triples whose beta has constant vertical curvature C."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        sigma_text, alpha_text = _random_plane_expr(rng), _random_plane_expr(rng)
        curvature = float(rng.uniform(-1.0, 1.0))
        beta_text = f"1 + {curvature!r}*(x3^2 + x4^2)/4"
        sigma, alpha, beta = (
            ExpressionField(text) for text in (sigma_text, alpha_text, beta_text)
        )
        rho = ExpressionField(f"({alpha_text})*({beta_text})")
        a_const = float(rng.uniform(-2.0, 2.0))
        points = rng.uniform(-0.4, 0.4, size=(50, 4))
        slots = einstein_residuals(DeformationPair(sigma, rho), a_const, points)[:, [0, 1, 2, 7]]
        assert np.max(np.abs(warped_residuals(sigma, alpha, beta, a_const, points) - slots)) < 1e-12


def test_warped_residuals_evaluate_beta_once_per_point():
    """beta's curvature probes and its log data at p come from one jet of
    beta on each point and its four shifts."""
    shapes = []

    class CountedField(ExpressionField):
        def jet(self, p, order):
            shapes.append(np.shape(p))
            return super().jet(p, order)

    sigma, alpha = ExpressionField("(1 + x1^2 + x2^2)/2"), ExpressionField("1")
    beta = CountedField("1 + 0.5*(x3^2 + x4^2)/4")
    points = np.random.default_rng(5).uniform(-0.3, 0.3, size=(7, 4))
    warped_residuals(sigma, alpha, beta, 1.0, points)
    assert shapes == [(5, 7, 4)]


def test_warped_residuals_rejects_nonconstant_curvature():
    sigma = ExpressionField("1")
    alpha = ExpressionField("1")
    beta = ExpressionField("exp(x3^2)")
    with pytest.raises(DomainError):
        warped_residuals(sigma, alpha, beta, 0.0, ORIGIN)


# ---------------------------------------------------------------------------
# Warped first-order system


def test_warped_state_validation():
    with pytest.raises(ValueError):
        WarpedState(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        WarpedState(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        WarpedState(1.0, -1.0, 0.0, B=1.0)  # sigma^2 = B a^2/gamma < 0
    s = WarpedState(1.0, -2.0, 0.5, B=-1.0, C=0.5)
    assert s.ctilde == -0.5
    assert integrate_warped(s, 1e-3, 1e-3)["sigma"][0] == math.sqrt(0.5)


def test_warped_rhs_examples():
    def rhs(s):
        return [s.gamma, s.delta, _delta_prime(s.alpha, s.gamma, s.delta, s.ctilde)]

    assert np.allclose(rhs(WarpedState(1, 1, 0, C=0.0)), [1, 0, 0])
    assert np.allclose(rhs(WarpedState(1, 1, 1, C=0.0)), [1, 1, 3])
    assert np.allclose(rhs(WarpedState(2, 1, 0, C=1.0)), [1, 0, -2])


def test_warped_integral_examples():
    def warped_integral(s):
        return integrate_warped(s, 1e-3, 1e-3)["A_integral"][0]

    # alpha(t) = t states: A = -3B for every t
    for t in (0.5, 1.0, 3.0):
        assert warped_integral(WarpedState(t, 1.0, 0.0, B=1.0, C=0.0)) == -3.0
        assert warped_integral(WarpedState(t, 1.0, 0.0, B=2.0, C=0.0)) == -6.0
    assert warped_integral(WarpedState(1, 1, 0, B=1.0, C=1.0)) == -2.0


def test_integrate_warped_linear_solution():
    # from (1, 1, 0) with Ctilde = 0 the profile is alpha(t) = 1 + t
    traj = integrate_warped(WarpedState(1.0, 1.0, 0.0, C=0.0), 1e-3, 1.0)
    assert traj.termination == REACHED_T_MAX
    assert np.max(np.abs(traj["alpha"] - (1.0 + traj.t))) < 1e-10
    assert np.max(np.abs(traj["A_integral"] + 3.0)) < 1e-10


def test_integrate_warped_conservation_and_order():
    """A stays within 1e-6 per unit time at dt=1e-3; halving the step
    twice improves the drift by ~16x each time (fourth order)."""

    def drift(dt):
        st = WarpedState(1.0, 0.5, 0.2, B=1.0, C=1.0)
        tr = integrate_warped(st, dt, 1.0)
        assert tr.termination == REACHED_T_MAX
        a = tr["A_integral"]
        return float(np.max(np.abs(a - a[0])))

    assert drift(1e-3) < 1e-6
    d0, d1, d2 = drift(0.05), drift(0.025), drift(0.0125)
    print("warped drift:", d0, d1, d2, "ratios:", d0 / d1, d1 / d2)
    assert 10.0 < d0 / d1 < 26.0
    assert 10.0 < d1 / d2 < 26.0


def test_integrate_warped_singular_gamma():
    traj = integrate_warped(WarpedState(1.0, 0.05, -3.0, C=0.0), 1e-3, 10.0)
    assert traj.termination == SINGULAR_GAMMA
    assert abs(traj["gamma"][-1]) > 0.0  # last stored sample is still valid


def test_integrate_warped_blow_up_cap():
    # Ctilde < 0 drives delta' up through -2*Ctilde*gamma^2
    traj = integrate_warped(WarpedState(1.0, 1.0, 5.0, C=-40.0), 1e-3, 10.0)
    assert traj.termination == BLOW_UP
    assert np.all(np.abs(traj["delta"]) <= 1e6)


# ---------------------------------------------------------------------------
# The single-parameter profile equation


def test_integrators_bound_the_step_count():
    with pytest.raises(ValueError, match="steps"):
        integrate_rho(FAMILY_I, 0.0, 1e-9, 10.0)
    with pytest.raises(ValueError, match="steps"):
        integrate_warped(WarpedState(1.0, 1.0, 0.0), 1e-9, 10.0)
    # a step below the float resolution of t would never advance it; with
    # t0 = 0 only a span that starts far from 0 (the Ricci-flat --t-min) has one
    with pytest.raises(ValueError, match="resolution"):
        check_step_count(1e20, 1e20 + 1e5, 1.0)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
def test_check_step_count_requires_a_positive_step(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        check_step_count(0.0, 1.0, dt)


def test_a_zero_span_is_one_sample():
    rho = integrate_rho(FAMILY_I, 0.5, 1e-3, 0.0)
    warped = integrate_warped(WarpedState(1.0, 1.0, 0.0), 1e-3, 0.0)
    for traj in (rho, warped):
        assert list(traj.t) == [0.0] and traj.termination == REACHED_T_MAX
    assert rho["rho"][0] == 0.5 and warped["alpha"][0] == 1.0


def test_integrate_rho_family_i_monotone_bounded():
    traj = integrate_rho(FAMILY_I, 0.0, 1e-3, 10.0)
    assert traj.termination == REACHED_T_MAX
    rho = traj["rho"]
    assert np.all(np.diff(rho) > 0.0)  # strictly increasing
    assert np.all(rho < 1.0)  # bounded by beta
    assert rho[-1] > 1.0 - 1e-6  # approaches beta


def test_integrate_rho_equilibrium():
    traj = integrate_rho(FAMILY_I, 1.0, 1e-2, 1.0)
    assert np.all(traj["rho"] == 1.0)
    assert np.all(traj["rho_prime"] == 0.0)
    assert np.all(np.isnan(traj["sigma"]))


def test_integrate_rho_blow_up_time():
    traj = integrate_rho(FAMILY_II, 0.0, 1e-4, 2.0)
    assert traj.termination == BLOW_UP
    assert abs(traj.blow_up_time - T0_BLOWUP) < 1e-4
    # t is strictly increasing through the refinement samples too
    assert np.all(np.diff(traj.t) > 0.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    log_alpha=st.floats(-6.0, 1.0),
    log_beta=st.floats(-3.0, 4.0),
    rho0_frac=st.floats(0.0, 2.0),
    log_dt=st.floats(-3.0, 0.0),
    t_max=st.floats(0.0, 5.0),
)
def test_integrate_rho_never_blows_up_or_crosses_beta_for_negative_alpha(
    log_alpha, log_beta, rho0_frac, log_dt, t_max
):
    """For alpha < 0 < beta the exact solution is monotone and stays on
    the side of beta it starts on, so a run either raises DomainError (a
    step too large) or reaches t-max with rho doing the same."""
    beta = 10.0**log_beta
    fp = FamilyParams(-(10.0**log_alpha), beta)
    try:
        traj = integrate_rho(fp, rho0_frac * beta, 10.0**log_dt, t_max)
    except DomainError as exc:
        assert "--dt" in str(exc)
        return
    rho = traj["rho"]
    assert traj.termination == REACHED_T_MAX
    assert np.all(np.diff(rho) >= 0.0) or np.all(np.diff(rho) <= 0.0)
    assert np.all(rho <= beta) or np.all(rho >= beta)


def test_integrate_rho_blow_up_cap_scales_with_beta_and_rho0():
    # 1e3 lies below beta = 2000, which rho approaches but never exceeds
    traj = integrate_rho(FamilyParams(-1e-6, 2000.0), 0.0, 1e-3, 10.0)
    assert traj.termination == REACHED_T_MAX
    assert 1999.0 < traj["rho"][-1] <= 2000.0
    # from rho0 = 500 the cap is 5000: family ii still blows up, and its
    # samples run past the old cap of 1e3
    traj = integrate_rho(FAMILY_II, 500.0, 1e-7, 1e-5)
    assert traj.termination == BLOW_UP
    assert 1e3 < traj["rho"][-1] <= 5000.0


def test_trajectory_samples_satisfy_equation():
    traj = integrate_rho(FAMILY_II, 0.0, 1e-3, 2.0)
    rhs = np.array([rho_rhs(FAMILY_II, r) for r in traj["rho"]])
    assert np.max(np.abs(traj["rho_prime"] - rhs)) < 1e-8


def test_implicit_time_values():
    assert abs(implicit_time(0.0)) < 1e-15
    assert abs(implicit_time(1e12) - T0_BLOWUP) < 1e-10
    expected_at_one = math.log(2.0) / 3.0 + math.sqrt(3.0) * math.pi / 9.0
    assert abs(implicit_time(1.0) - expected_at_one) < 1e-14
    with pytest.raises(ValueError):
        implicit_time(-0.1)


def test_implicit_time_matches_trajectory():
    traj = integrate_rho(FAMILY_II, 0.0, 1e-4, 2.0)
    rho = traj["rho"]
    mask = rho <= 50.0
    errs = np.abs([implicit_time(r) - t for t, r in zip(traj.t[mask], rho[mask])])
    print("implicit-time max error (rho <= 50):", errs.max())
    assert errs.max() < 1e-5
    # the trajectory reaches rho = 1 at the tabulated implicit time
    t_at_one = float(np.interp(1.0, rho, traj.t))
    assert abs(t_at_one - implicit_time(1.0)) < 1e-5


# ---------------------------------------------------------------------------
# Profiles, metrics to the oracle


def test_single_param_residuals_family():
    traj = integrate_rho(FAMILY_I, 0.0, 1e-3, 10.2)
    sigma, rho = family_fields(FAMILY_I, traj)
    worst = 0.0
    for t in np.linspace(0.1, 10.0, 34):
        res = single_param_residuals(sigma, rho, -3.0, float(t))
        worst = max(worst, float(np.max(np.abs(res))))
    print("family (i) projected residual worst:", worst)
    assert worst < 1e-8


def test_single_param_residuals_hyperbolic():
    sigma = rho = ExpressionField("t")
    for t in (0.5, 1.0, 2.0):
        res = single_param_residuals(sigma, rho, -3.0, t)
        assert np.max(np.abs(res)) < 1e-10
    d = DeformationPair(sigma, rho)
    assert einstein_residual_fd(metric_of(d), -3.0, (1.0, 0, 0, 0)) < 1e-5


def test_single_param_residuals_flat():
    one = ExpressionField("1")
    assert np.array_equal(single_param_residuals(one, one, 0.0, 0.7), np.zeros(3))


def test_equation_pair_equivalence():
    """r1 - r2 = 2 sigma^2 * ((ln rho)'' - (ln rho)'^2 + 2 (ln s)'(ln r)')
    as an algebraic identity, checked on arbitrary smooth profiles."""
    rng = np.random.default_rng(31)
    profiles = [
        ("exp(0.3*t + 0.1*t^2)", "exp(-0.2*t + 0.05*t^2)"),
        ("1 + 0.5*t^2", "2 + sin(t)"),
        ("exp(sin(t))", "1.5 + 0.1*t^3"),
    ]
    for sig_text, rho_text in profiles:
        sigma = ExpressionField(sig_text)
        rho = ExpressionField(rho_text)
        for _ in range(5):
            t = float(rng.uniform(0.2, 1.5))
            a_const = float(rng.uniform(-2, 2))
            r = single_param_residuals(sigma, rho, a_const, t)
            p = (t, 0.0, 0.0, 0.0)
            sv, sg, _ = sigma.log_jet(p)
            _, rg, rh = rho.log_jet(p)
            b_expr = -rg[0] ** 2 + rh[0, 0] + 2.0 * sg[0] * rg[0]
            assert abs(r[0] - r[1] - 2.0 * sv**2 * b_expr) < 1e-12


def test_family_fields_match_trajectory_samples():
    traj = integrate_rho(FAMILY_I, 0.0, 1e-3, 5.0)
    sigma, rho = family_fields(FAMILY_I, traj)
    for k in (100, 1000, 2500, 4999):
        t = float(traj.t[k])
        assert abs(rho((t, 0, 0, 0)) - traj["rho"][k]) < 1e-13
        # sigma grows exponentially along the trajectory; compare relatively
        assert abs(sigma((t, 0, 0, 0)) - traj["sigma"][k]) < 1e-10 * traj["sigma"][k]


def test_family_fields_interpolation_between_samples():
    # Hermite positions + equation-chain derivatives stay consistent with
    # a much finer integration
    coarse = integrate_rho(FAMILY_I, 0.0, 1e-2, 2.0)
    fine = integrate_rho(FAMILY_I, 0.0, 1e-4, 2.0)
    sigma_c, rho_c = family_fields(FAMILY_I, coarse)
    for t in (0.505, 1.0033, 1.7777):
        r_fine = float(np.interp(t, fine.t, fine["rho"]))
        assert abs(rho_c((t, 0, 0, 0)) - r_fine) < 1e-7


def test_family_metric_fd_residual():
    traj = integrate_rho(FAMILY_I, 0.0, 1e-3, 5.5)
    metric = metric_of(DeformationPair(*family_fields(FAMILY_I, traj)))
    worst = 0.0
    for t in np.linspace(0.5, 5.0, 10):
        worst = max(worst, einstein_residual_fd(metric, -3.0, (float(t), 0, 0, 0)))
    print("family (i) FD residual worst:", worst)
    assert worst < 1e-4


def test_family_metric_rejects_equilibrium():
    traj = integrate_rho(FAMILY_I, 1.0, 1e-2, 1.0)
    with pytest.raises(DomainError):
        family_fields(FAMILY_I, traj)


def test_family_fields_out_of_range():
    traj = integrate_rho(FAMILY_I, 0.0, 1e-2, 2.0)
    sigma, rho = family_fields(FAMILY_I, traj)
    with pytest.raises(DomainError):
        rho((2.5, 0, 0, 0))


def test_ricci_flat_profile():
    sigma, rho = ricci_flat_fields(1.0)
    assert rho((4.0, 0, 0, 0)) == 0.5
    metric = metric_of(DeformationPair(sigma, rho))
    worst = 0.0
    for t in np.linspace(0.5, 2.0, 7):
        worst = max(worst, float(np.max(np.abs(ricci_fd(metric, (float(t), 0, 0, 0), h=3e-4)))))
    print("ricci-flat FD worst:", worst)
    assert worst < 1e-5
    with pytest.raises(ValueError):
        ricci_flat_fields(0.0)


def test_residual_consistency_three_routes():
    """Ten-equation residuals, projected residuals and the FD oracle all
    vanish on a family (i) trajectory at shared sample points."""
    traj = integrate_rho(FAMILY_I, 0.0, 1e-3, 5.5)
    sigma, rho = family_fields(FAMILY_I, traj)
    d = DeformationPair(sigma, rho)
    metric = metric_of(d)
    for t in (0.5, 1.0, 2.0, 3.5, 5.0):
        p = (t, 0.0, 0.0, 0.0)
        assert np.max(np.abs(einstein_residuals(d, -3.0, p))) < 1e-8
        assert np.max(np.abs(single_param_residuals(sigma, rho, -3.0, t))) < 1e-8
        assert einstein_residual_fd(metric, -3.0, p) < 1e-4


def test_end_diagnostics_family_i():
    traj = integrate_rho(FAMILY_I, 0.0, 1e-3, 10.0)
    diag = end_diagnostics(FAMILY_I, traj)
    # rho ~ e t and sigma ~ b sqrt(e) t near 0, with e = 1, b = 1
    assert abs(diag.rho_slope - 1.0) < 1e-3
    assert abs(diag.sigma_slope - 1.0) < 1e-3
    assert abs(diag.rho_limit - 1.0) < 1e-6
    assert abs(diag.inv_sigma_limit) < 1e-4
    assert diag.small_end == "hyperbolic-type"
    assert diag.large_end == "r2-end"
    assert diag.blow_up_time is None


def test_end_diagnostics_family_ii():
    traj = integrate_rho(FAMILY_II, 0.0, 1e-3, 2.0)
    diag = end_diagnostics(FAMILY_II, traj)
    assert diag.large_end == BLOW_UP
    assert abs(diag.blow_up_time - T0_BLOWUP) < 1e-4
    assert diag.small_end == "hyperbolic-type"


def test_end_diagnostics_too_short():
    traj = integrate_rho(FAMILY_I, 0.0, 0.05, 1.0)  # 2 samples below t = 0.1
    with pytest.raises(ValueError):
        end_diagnostics(FAMILY_I, traj)
