"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s` to see
the per-criterion report.
"""

import math
import time

import numpy as np

from biconf import (
    BLOW_UP,
    DeformationPair,
    ExpressionField,
    FamilyParams,
    WarpedState,
    conformal_ricci_coords,
    deformed_laplacian,
    einstein_residual_fd,
    einstein_residuals,
    end_diagnostics,
    family_fields,
    frame_to_coords,
    implicit_time,
    integrate_rho,
    integrate_warped,
    laplace_beltrami_fd,
    metric_of,
    ricci_fd,
    ricci_flat_fields,
    ricci_frame,
    single_param_residuals,
)
from helpers import hyperbolic_pair, random_pair, random_point, sphere_pair

T0_BLOWUP = 2.0 * math.sqrt(3.0) * math.pi / 9.0


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """The n^4 grid on [lo, hi]^4 as an (n^4, 4) array, x1 slowest."""
    axis = np.linspace(lo, hi, n)
    return np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 4)


def _einstein_product_check(num, d, a_const, label):
    start = time.perf_counter()
    points = _grid(-0.4, 0.4, 5)
    worst_closed = float(np.max(np.abs(einstein_residuals(d, a_const, points))))
    g = metric_of(d)
    worst_fd = float(np.max(einstein_residual_fd(g, a_const, points)))
    elapsed = time.perf_counter() - start
    ok = worst_closed < 1e-10 and worst_fd < 1e-4 and elapsed < 10.0
    _report(
        num,
        f"{label} Einstein check (A = {a_const:g}) on a 5^4 grid in [-0.4, 0.4]^4",
        ok,
        f"closed {worst_closed:.2e} < 1e-10, FD {worst_fd:.2e} < 1e-4, {elapsed:.1f}s < 10s",
    )


def test_criterion_1_sphere_product():
    _einstein_product_check(1, sphere_pair(), 1.0, "S2 x S2")


def test_criterion_2_hyperbolic_product():
    _einstein_product_check(2, hyperbolic_pair(), -1.0, "H2 x H2")


def test_criterion_3_oracle_equivalence():
    """30 random positive pairs, 10 points each, closed vs FD Ricci.

    The metric is value-only here (no analytic derivative provider), so
    the oracle route is finite differences end to end.
    """
    rng = np.random.default_rng(1234)
    failures = 0
    worst = 0.0
    for _ in range(30):
        d = random_pair(rng)
        g = metric_of(d).without_partials()
        points = np.array([random_point(rng, 0.4) for _ in range(10)])
        closed = frame_to_coords(ricci_frame(d, points))
        fd = ricci_fd(g, points)
        diff = np.max(np.abs(closed - fd), axis=(1, 2))
        worst = max(worst, float(np.max(diff)))
        failures += int(np.sum(diff >= 1e-4))
    _report(
        3,
        "oracle equivalence on 30 random pairs x 10 points",
        failures == 0,
        f"worst {worst:.2e} < 1e-4, failures {failures}",
    )


def test_criterion_4_blow_up_time():
    fp = FamilyParams(alpha=1.0, beta=-1.0, b=1.0)  # rho' = rho^3 + 1
    traj = integrate_rho(fp, 0.0, dt=1e-4, t_max=2.0)
    time_err = abs(traj.blow_up_time - T0_BLOWUP) if traj.blow_up_time else float("inf")
    implicit_err = max(
        abs(implicit_time(r) - t) for t, r in zip(traj.t, traj["rho"])
    )
    ok = traj.termination == BLOW_UP and time_err < 1e-4 and implicit_err < 1e-5
    _report(
        4,
        "blow-up of rho' = rho^3 + 1 brackets t0 = 2 sqrt(3) pi / 9",
        ok,
        f"|t0 err| {time_err:.2e} < 1e-4, |implicit - t| {implicit_err:.2e} < 1e-5",
    )


def test_criterion_5_family_i():
    fp = FamilyParams(alpha=-1.0, beta=1.0, b=1.0)
    traj = integrate_rho(fp, 0.0, dt=1e-3, t_max=10.2)
    sigma, rho = family_fields(fp, traj)

    worst_proj = max(
        float(np.max(np.abs(single_param_residuals(sigma, rho, -3.0, float(t)))))
        for t in np.linspace(0.1, 10.0, 34)
    )
    metric = metric_of(DeformationPair(sigma, rho))
    worst_fd = max(
        einstein_residual_fd(metric, -3.0, (float(t), 0, 0, 0))
        for t in np.linspace(0.5, 5.0, 10)
    )
    diag = end_diagnostics(fp, traj)
    slopes_ok = abs(diag.rho_slope - 1.0) < 1e-3 and abs(diag.sigma_slope - 1.0) < 1e-3
    limits_ok = abs(diag.rho_limit - 1.0) < 1e-6 and abs(diag.inv_sigma_limit) < 1e-4
    ok = worst_proj < 1e-8 and worst_fd < 1e-4 and slopes_ok and limits_ok
    _report(
        5,
        "family (i) alpha=-1, beta=1, b=1 is Einstein with A = -3",
        ok,
        f"projected {worst_proj:.2e} < 1e-8 on [0.1, 10], FD {worst_fd:.2e} < 1e-4, "
        f"slopes ({diag.rho_slope:.5f}, {diag.sigma_slope:.5f}) ~ 1, "
        f"rho -> {diag.rho_limit:.8f}, 1/sigma -> {diag.inv_sigma_limit:.2e}",
    )


def test_criterion_6_ricci_flat_profile():
    sigma, rho = ricci_flat_fields(1.0)
    metric = metric_of(DeformationPair(sigma, rho))
    # h = 3e-4 keeps the second-order truncation of the Gamma derivatives
    # below the 1e-5 requirement near the collapsing t = 0.5 edge
    worst = max(
        float(np.max(np.abs(ricci_fd(metric, (float(t), 0, 0, 0), h=3e-4))))
        for t in np.linspace(0.5, 2.0, 7)
    )
    _report(
        6,
        "Ricci-flat profile sigma = t^(1/4), rho = t^(-1/2) on [0.5, 2]",
        worst < 1e-5,
        f"FD max |Ric| {worst:.2e} < 1e-5",
    )


def test_criterion_7_warped_conservation():
    def drift(dt):
        st = WarpedState(1.0, 0.5, 0.2, B=1.0, C=1.0)
        tr = integrate_warped(st, dt, 1.0)
        a = tr["A_integral"]
        return float(np.max(np.abs(a - a[0])))

    fine = drift(1e-3)
    d0, d1, d2 = drift(0.05), drift(0.025), drift(0.0125)
    r1, r2 = d0 / d1, d1 / d2
    hyper = integrate_warped(WarpedState(1.0, 1.0, 0.0, C=0.0), 1e-3, 1.0)
    hyper_err = float(np.max(np.abs(hyper["alpha"] - (1.0 + hyper.t))))
    drift_hyper = float(np.max(np.abs(hyper["A_integral"] + 3.0)))
    ok = (
        fine < 1e-6
        and 10.0 < r1 < 26.0
        and 10.0 < r2 < 26.0
        and hyper_err < 1e-10
        and drift_hyper < 1e-10
    )
    _report(
        7,
        "warped integral conserved; two step halvings improve ~16x each; "
        "linear member exact",
        ok,
        f"drift {fine:.2e} < 1e-6 at dt=1e-3, ratios {r1:.1f}, {r2:.1f} ~ 16, "
        f"alpha(t)=1+t err {hyper_err:.2e} < 1e-10",
    )


def test_criterion_8_laplacian_law():
    rng = np.random.default_rng(88)
    function_pool = [
        ExpressionField("x1*x4 + sin(x2) + 0.5*x3^2"),
        ExpressionField("cos(x1 - x3) + x2^2*x4"),
        ExpressionField("exp(0.2*x1 + 0.1*x3) - x2*x4"),
    ]
    worst = 0.0
    for k in range(20):
        d = random_pair(rng)
        f = function_pool[k % len(function_pool)]
        p = random_point(rng, 0.4)
        closed = deformed_laplacian(d, f, p)
        fd = laplace_beltrami_fd(metric_of(d).without_partials(), f, p)
        worst = max(worst, abs(closed - fd))

    sigma = ExpressionField("exp(0.25*x1 - 0.1*x2^2 + 0.15*x3*x4)")
    dconf = DeformationPair(sigma, sigma)
    worst_conf = 0.0
    for k in range(20):
        f = function_pool[k % len(function_pool)]
        p = random_point(rng, 0.4)
        jet = f.jet(p, 2)
        sv, sg, _ = sigma.log_jet(p)
        remark = sv**2 * (float(np.trace(jet.h)) - 2.0 * float(np.dot(jet.g, sg)))
        worst_conf = max(worst_conf, abs(deformed_laplacian(dconf, f, p) - remark))
    ok = worst < 1e-4 and worst_conf < 1e-8
    _report(
        8,
        "deformed Laplacian matches the FD operator and its conformal reduction",
        ok,
        f"FD agreement {worst:.2e} < 1e-4 on 20 triples, conformal {worst_conf:.2e} < 1e-8",
    )


def test_criterion_9_family_i_profile_behavior():
    fp = FamilyParams(alpha=-1.0, beta=1.0, b=1.0)
    traj = integrate_rho(fp, 0.0, dt=1e-3, t_max=10.0)
    rho = traj["rho"]
    monotone = bool(np.all(np.diff(rho) > 0.0))
    bounded = bool(np.all(rho < 1.0))
    reaches = bool(rho[-1] > 1.0 - 1e-6)
    _report(
        9,
        "family (i) trajectory is strictly monotone, bounded by beta, and "
        "reaches beta - 1e-6 by t = 10",
        monotone and bounded and reaches,
        f"monotone {monotone}, bounded {bounded}, rho(10) = {rho[-1]:.12f}",
    )
