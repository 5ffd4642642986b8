"""Scalar field evaluation, derivatives and positivity behavior."""

import math

import numpy as np
import pytest

from biconf import (
    DeformationPair,
    DomainError,
    ExpressionField,
    PositivityError,
    ProfileField,
    ScalarField,
    as_point,
    metric_of,
)
from helpers import fd_partial

ORIGIN = (0.0, 0.0, 0.0, 0.0)


def test_eval_sphere_factor_at_origin():
    f = ExpressionField("(1 + x1^2 + x2^2)/2")
    assert f(ORIGIN) == 0.5


def test_eval_constant():
    f = ExpressionField("1")
    assert f((0.3, -2.0, 7.0, 0.0)) == 1.0


def test_eval_half_space_profile():
    rho = ExpressionField("t^-0.5")
    assert rho((4.0, 0, 0, 0)) == 0.5
    with pytest.raises(DomainError):
        rho((-1.0, 0, 0, 0))
    with pytest.raises(DomainError):
        rho(ORIGIN)


def test_partial_polynomial():
    f = ExpressionField("(1 + x1^2 + x2^2)/2")
    assert f.jet((1.0, 0, 0, 0), 2).g[0] == 1.0


def test_second_partial_of_log_factor():
    # d33 of ln((1 + x3^2 + x4^2)/2) at the origin is 2 by hand
    # differentiation; confirm against a centered difference with h=1e-4.
    f = ExpressionField("ln((1 + x3^2 + x4^2)/2)")
    exact = f.jet(ORIGIN, 2).h[2, 2]
    assert abs(exact - 2.0) < 1e-14
    h = 1e-4
    fd = (f((0, 0, h, 0)) - 2.0 * f(ORIGIN) + f((0, 0, -h, 0))) / h**2
    assert abs(exact - fd) < 1e-6


def test_mixed_partials_symmetric():
    rng = np.random.default_rng(3)
    f = ExpressionField("x1^2*x2 + x2*x3^3 - x4*x1 + x1*x2*x3*x4")
    for _ in range(10):
        p = rng.uniform(-1, 1, size=4)
        h = f.jet(p, 2).h
        assert h[0, 1] == h[1, 0]
        assert h[2, 3] == h[3, 2]


def test_grad_ln():
    const = ExpressionField("3")
    assert np.allclose(const.log_jet(ORIGIN)[1], 0.0)

    f = ExpressionField("(1 + x1^2 + x2^2)/2")
    p = (1.0, 0.0, 0.0, 0.0)
    g = f.log_jet(p)[1]
    assert np.allclose(g, [1.0, 0.0, 0.0, 0.0])
    # FD oracle on ln f
    lnf = lambda q: math.log(f(q))
    for i in range(4):
        assert abs(g[i] - fd_partial(lnf, p, i)) < 1e-6

    expf = ExpressionField("exp(x3)")
    assert np.allclose(expf.log_jet((0.4, 1.0, -2.0, 0.7))[1], [0, 0, 1, 0])


def test_grad_ln_requires_positive():
    f = ExpressionField("x1")
    with pytest.raises(DomainError):
        f.log_jet((-1.0, 0, 0, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_positivity_rejects_nan_and_inf(bad):
    """Positive means finite and > 0: NaN and inf fail every check, the
    deformed metric's as well as the log derivatives'."""
    f = ProfileField(lambda t: (bad, 0.0, 0.0, 0.0, 0.0))
    d = DeformationPair(f, ExpressionField("1"))
    with pytest.raises(PositivityError):
        metric_of(d).value(ORIGIN)
    with pytest.raises(PositivityError):
        metric_of(d).partials(ORIGIN)
    with pytest.raises(PositivityError):
        d.log_data(ORIGIN)
    # the log derivatives require positivity of any field: the profile's own
    # log_jet, and the generic one that takes logs of the jet
    with pytest.raises(PositivityError):
        f.log_jet(ORIGIN)
    with pytest.raises(PositivityError):
        ScalarField.log_jet(f, ORIGIN)


def test_profile_field():
    prof = ProfileField(lambda t: (t * t, 2.0 * t, 2.0, 2.0 / t, -2.0 / (t * t)))
    p = (1.5, 9.0, 9.0, 9.0)  # other coordinates are ignored
    assert prof(p) == 2.25
    jet = prof.jet(p, 2)
    assert jet.g[0] == 3.0 and np.count_nonzero(jet.g) == 1
    assert jet.h[0, 0] == 2.0 and np.count_nonzero(jet.h) == 1
    first = prof.jet(p, order=1)
    assert first.val == jet.val and np.array_equal(first.g, jet.g) and first.h is None
    with pytest.raises(DomainError):
        prof((0.0, 0, 0, 0))


def test_profile_log_derivative_override():
    prof = ProfileField(
        lambda t: (
            math.exp(2.0 * t),
            2.0 * math.exp(2.0 * t),
            4.0 * math.exp(2.0 * t),
            2.0,
            0.0,
        )
    )
    v, lg, lh = prof.log_jet((0.7, 0, 0, 0))
    assert math.isclose(v, math.exp(1.4))
    assert lg[0] == 2.0 and lh[0, 0] == 0.0


def test_log_jet_matches_direct_computation():
    f = ExpressionField("exp(0.3*x1 + 0.1*x2^2)")
    p = (0.2, -0.4, 0.0, 0.0)
    v, lg, lh = f.log_jet(p)
    jet = f.jet(p, 2)
    assert math.isclose(v, jet.val)
    assert np.allclose(lg, jet.g / jet.val, atol=1e-14)
    assert np.allclose(lh, jet.h / jet.val - np.outer(lg, lg), atol=1e-14)


def test_point_validation():
    with pytest.raises(ValueError):
        as_point((1.0, 2.0))
    with pytest.raises(ValueError):
        as_point((1.0, 2.0, float("nan"), 0.0))
    with pytest.raises(ValueError):
        as_point((1.0, 2.0, float("inf"), 0.0))


def test_exact_derivatives_match_fd_on_random_points():
    """Module invariant: exact vs centered FD within 1e-6 relative."""
    rng = np.random.default_rng(12)
    fields = [
        ExpressionField("exp(0.2*x1 + 0.3*x2 - 0.1*x3^2 + 0.05*x4^2)"),
        ExpressionField("sin(x1 + x2) * cos(x3 - 0.5*x4) + 2"),
        ExpressionField("(2 + x1^2 + 0.5*x2^2 + 0.3*x3^2)/2"),
    ]
    checks = 0
    for f in fields:
        func = lambda q: f(q)
        while checks < 100 * (fields.index(f) + 1) / len(fields):
            p = rng.uniform(-1.0, 1.0, size=4)
            jet = f.jet(p, 2)
            for i in range(4):
                approx = fd_partial(func, p, i)
                assert abs(jet.g[i] - approx) / max(1.0, abs(approx)) < 1e-6
            checks += 1


@pytest.mark.parametrize("evaluate", ["value", "jet"])
def test_overflow_is_a_domain_error(evaluate):
    # (p) is the value of the jet that .jet(p, 2) returns to the closed forms and the oracle
    f = ExpressionField("exp(1000*x1)")
    p = (1.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="range"):
        f(p) if evaluate == "value" else f.jet(p, 2)


@pytest.mark.parametrize("evaluate", ["value", "jet", "log_jet"])
def test_profile_overflow_is_a_domain_error(evaluate):
    prof = ProfileField(lambda t: (math.exp(1000.0 * t), 0.0, 0.0, 0.0, 0.0))
    evaluate_at = {"value": prof, "jet": lambda p: prof.jet(p, 2), "log_jet": prof.log_jet}[evaluate]
    with pytest.raises(DomainError, match="range"):
        evaluate_at((1.0, 0.0, 0.0, 0.0))
