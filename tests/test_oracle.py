"""Finite-difference curvature engine tests.

The oracle is the arbiter for every closed form in the library, so it
gets its own independent checks here: flat space, product metrics with
known constants, the conformally flat hyperbolic metric, and an
inversion cross-check against numpy.
"""

import math
import warnings
from collections import Counter
from itertools import product

import numpy as np
import pytest

from biconf import (
    DeformationPair,
    ExpressionField,
    InvalidMetricError,
    MetricField,
    OracleError,
    SingularMetricError,
    christoffel,
    conformal_ricci_coords,
    einstein_residual_fd,
    laplace_beltrami_fd,
    metric_of,
    ricci_fd,
)
import biconf.fields
from biconf import oracle
from biconf.oracle import invert4
from helpers import hyperbolic_pair, random_point, sphere_pair

ORIGIN = (0.0, 0.0, 0.0, 0.0)


def constant_metric(m, partials=None):
    """The metric with the constant value m (and partials) at every point
    of a batch."""

    def at_every_point(x):
        return lambda p: np.broadcast_to(x, p.shape[:-1] + np.shape(x))

    value = at_every_point(m)
    if partials is None:
        return MetricField(value)
    return MetricField(value, lambda p: (value(p), at_every_point(partials)(p)))


def flat_metric():
    return constant_metric(np.eye(4), np.zeros((4, 4, 4)))


def scalar_curvature(g, p):
    """FD scalar curvature g^{ab} Ric_ab."""
    return np.einsum("...ab,...ab->...", invert4(g.value(p)), ricci_fd(g, p))


def test_invert4_against_numpy():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = rng.normal(size=(4, 4))
        m = a @ a.T + 0.5 * np.eye(4)  # SPD
        inv = invert4(m)
        assert np.max(np.abs(inv - np.linalg.inv(m))) < 1e-10


def test_invert4_singular():
    m = np.eye(4)
    m[2, 2] = 0.0
    with pytest.raises(SingularMetricError):
        invert4(m)


def test_invert4_accepts_collapsed_but_regular_metric():
    # tiny but well-conditioned relative to its own scale
    m = np.diag([1e-8, 1e-8, 1.0, 1.0])
    inv = invert4(m)
    assert np.allclose(inv @ m, np.eye(4), atol=1e-12)


def test_invert4_rejects_nan():
    with pytest.raises(SingularMetricError):
        invert4(np.full((4, 4), np.nan))


def test_invert4_rejects_nan_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMetricError):
            invert4(np.full((4, 4), np.nan))
        with pytest.raises(SingularMetricError):
            invert4(np.stack([np.eye(4), np.full((4, 4), np.nan)]))


def test_metric_validation():
    bad_sym = constant_metric(np.eye(4) + np.array([[0, 1e-6, 0, 0]] + [[0] * 4] * 3))
    with pytest.raises(InvalidMetricError):
        bad_sym.value(ORIGIN)
    bad_pd = constant_metric(np.diag([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(InvalidMetricError):
        bad_pd.value(ORIGIN)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metric_validation_rejects_non_finite_entries(bad):
    everywhere = constant_metric(np.full((4, 4), bad))
    with pytest.raises(InvalidMetricError):
        everywhere.value(ORIGIN)
    one_entry = np.eye(4)
    one_entry[3, 3] = bad
    with pytest.raises(InvalidMetricError):
        constant_metric(one_entry).value(ORIGIN)


def test_metric_validation_rejects_indefinite_with_positive_leading_entry():
    # symmetric, g[0, 0] > 0 and every diagonal entry > 0, eigenvalues 3 and -1
    g = np.eye(4)
    g[0, 1] = g[1, 0] = 2.0
    with pytest.raises(InvalidMetricError):
        constant_metric(g).value(ORIGIN)


def test_ricci_fd_rejects_nan_partials():
    g = constant_metric(np.eye(4), np.full((4, 4, 4), np.nan))
    assert np.isnan(christoffel(g, ORIGIN)).all()
    with pytest.raises(OracleError):
        ricci_fd(g, ORIGIN)


def test_christoffel_flat():
    gamma = christoffel(flat_metric(), ORIGIN)
    assert np.max(np.abs(gamma)) == 0.0


def test_christoffel_sphere_product_vanishes_at_origin():
    # sigma, rho are even about 0, so all first metric derivatives vanish
    g = metric_of(sphere_pair())
    gamma = christoffel(g, ORIGIN)
    assert np.max(np.abs(gamma)) < 1e-12


def test_christoffel_conformally_flat_hyperbolic():
    # g = delta/x1^2: Gamma^1_11 = -1/x1 by hand; FD metric derivatives
    g = MetricField(lambda p: np.eye(4) / p[..., 0, None, None] ** 2)
    gamma = christoffel(g, (1.0, 0.0, 0.0, 0.0))
    assert abs(gamma[0, 0, 0] + 1.0) < 1e-7
    # lower-index symmetry
    assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) < 1e-10


def test_ricci_flat_space():
    assert np.max(np.abs(ricci_fd(flat_metric(), ORIGIN))) == 0.0


def test_ricci_sphere_product_at_origin():
    g = metric_of(sphere_pair())
    ric = ricci_fd(g, ORIGIN)
    assert np.max(np.abs(ric - np.diag([4.0, 4.0, 4.0, 4.0]))) < 1e-5


def test_ricci_hyperbolic_product_at_origin():
    g = metric_of(hyperbolic_pair())
    ric = ricci_fd(g, ORIGIN)
    assert np.max(np.abs(ric + np.diag([4.0, 4.0, 4.0, 4.0]))) < 1e-5


def test_scalar_curvature():
    assert scalar_curvature(flat_metric(), ORIGIN) == 0.0
    rng = np.random.default_rng(2)
    gs = metric_of(sphere_pair())
    gh = metric_of(hyperbolic_pair())
    for _ in range(3):
        p = random_point(rng, 0.3)
        assert abs(scalar_curvature(gs, p) - 4.0) < 1e-4
        assert abs(scalar_curvature(gh, p) + 4.0) < 1e-4


def test_laplace_beltrami():
    f = ExpressionField("x1^2")
    assert abs(laplace_beltrami_fd(flat_metric(), f, ORIGIN) - 2.0) < 1e-12

    # constants sigma=1, rho=2 scale the vertical inverse metric by 4
    d = DeformationPair.from_exprs("1", "2")
    f34 = ExpressionField("x3^2")
    assert abs(laplace_beltrami_fd(metric_of(d), f34, ORIGIN) - 8.0) < 1e-12

    # odd symmetry of f = x1 and vanishing Gamma at the origin
    g = metric_of(sphere_pair())
    assert abs(laplace_beltrami_fd(g, ExpressionField("x1"), ORIGIN)) < 1e-12


def test_einstein_residual():
    assert einstein_residual_fd(flat_metric(), 0.0, ORIGIN) == 0.0
    g = metric_of(sphere_pair())
    rng = np.random.default_rng(3)
    p = random_point(rng, 0.3)
    assert einstein_residual_fd(g, 1.0, p) < 1e-4
    # with A = 0 the residual is |Ric| itself: 4 at the origin
    assert abs(einstein_residual_fd(g, 0.0, ORIGIN) - 4.0) < 1e-5


def test_ricci_symmetry_noise_floor():
    """FD Ricci of a C^2 metric is symmetric within 1e-6 at default steps."""
    rng = np.random.default_rng(4)
    d = DeformationPair.from_exprs(
        "exp(0.2*x1 - 0.1*x2 + 0.15*x3*x4)", "exp(0.1*x1*x2 + 0.2*x3 - 0.1*x4)"
    )
    g = metric_of(d)
    for _ in range(5):
        p = random_point(rng, 0.4)
        h = oracle.DEFAULT_GAMMA_STEP
        gammas = christoffel(g, oracle._stencil(p, h))
        raw = oracle._contract(*oracle._split(gammas, h, 0))
        assert np.max(np.abs(raw - raw.T)) < 1e-6
        ric = ricci_fd(g, p)
        assert np.array_equal(ric, ric.T)


def test_asymmetry_guard_catches_underresolved_metric():
    # wavelength comparable to the Gamma step: FD derivatives of Gamma
    # become inconsistent and the raw Ricci loses its symmetry
    def value(p):
        m = np.broadcast_to(np.eye(4), p.shape[:-1] + (4, 4)).copy()
        m[..., 0, 1] = m[..., 1, 0] = 0.2 * np.sin(4100.0 * p[..., 0])
        m[..., 1, 2] = m[..., 2, 1] = 0.2 * np.cos(2900.0 * p[..., 1] + 1.0)
        m[..., 0, 3] = m[..., 3, 0] = 0.15 * np.sin(3500.0 * p[..., 2] + 0.3)
        return m

    g = MetricField(value)
    with pytest.raises(OracleError):
        ricci_fd(g, (0.01, 0.02, 0.005, 0.0))


def test_second_order_convergence():
    """Halving the Gamma step reduces the error by about 4x.

    The perturbation of the flat metric must have non-constant curvature
    so the FD truncation term dominates; an affine ln(sigma) would make
    the Christoffel symbols polynomial and central differences exact.
    """
    sigma = ExpressionField("exp(0.2*sin(x1 + 0.5*x2) + 0.15*cos(x3 - x4) + 0.1*sin(x2*x3))")
    d = DeformationPair(sigma, sigma)
    g = metric_of(d)
    p = (0.1, -0.2, 0.05, 0.15)
    exact = conformal_ricci_coords(sigma, p)
    errors = []
    for h in (0.08, 0.04, 0.02):
        errors.append(float(np.max(np.abs(ricci_fd(g, p, h=h) - exact))))
    print("convergence errors:", errors)
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    assert 2.5 < r1 < 6.0, errors
    assert 2.5 < r2 < 6.0, errors


def test_conformal_sanity():
    """Oracle Ricci vs the conformal-change closed form, sigma = rho."""
    rng = np.random.default_rng(6)
    sigma = ExpressionField("exp(0.2*x1 - 0.3*x2 + 0.1*x3^2 - 0.2*x4)")
    g = metric_of(DeformationPair(sigma, sigma))
    worst = 0.0
    for _ in range(20):
        p = random_point(rng, 0.4)
        diff = np.max(np.abs(ricci_fd(g, p) - conformal_ricci_coords(sigma, p)))
        worst = max(worst, float(diff))
    print("conformal sanity worst:", worst)
    assert worst < 1e-5




def test_each_oracle_entry_point_reads_and_inverts_the_metric_once(monkeypatch):
    """One Levi-Civita pass per call: the Ricci entry points read the
    metric on the 9 N points of their stencil and take g at p from its
    centre, the Laplacian reads it at p, and each inverts it once; the
    same on 1 point as on 81.  Counts are keyed by (name, points), and
    the metric's jet walks by ("eval_jet", order, points): the metric
    and its partials need first-order jets, the Laplacian's f a
    second-order one."""
    calls = Counter()

    def counting(name, fn, batch_of):
        def wrapper(*args):
            calls[name, math.prod(batch_of(args))] += 1
            return fn(*args)

        return wrapper

    def points(args):
        return np.shape(args[1])[:-1]

    for name in ("value", "partials"):
        monkeypatch.setattr(MetricField, name, counting(name, getattr(MetricField, name), points))
    monkeypatch.setattr(oracle, "invert4", counting("invert4", invert4, lambda a: a[0].shape[:-2]))
    original = biconf.fields.eval_jet

    def eval_jet(node, p, order):
        calls["eval_jet", order, math.prod(np.shape(p)[:-1])] += 1
        return original(node, p, order)

    monkeypatch.setattr(biconf.fields, "eval_jet", eval_jet)

    g = metric_of(sphere_pair())
    f = ExpressionField("x1*x3 + x2^2")
    grid = np.array(list(product((-0.3, 0.0, 0.3), repeat=4)))
    for p, n in ((np.array([0.1, -0.2, 0.05, 0.15]), 1), (grid, 81)):
        ricci = {("partials", 9 * n): 1, ("invert4", 9 * n): 1, ("eval_jet", 1, 9 * n): 2}
        expected = [
            (lambda: ricci_fd(g, p), ricci),
            (lambda: einstein_residual_fd(g, 1.0, p), ricci),
            (lambda: christoffel(g, p),
             {("partials", n): 1, ("invert4", n): 1, ("eval_jet", 1, n): 2}),
            (lambda: laplace_beltrami_fd(g, f, p),
             {("partials", n): 1, ("invert4", n): 1, ("eval_jet", 1, n): 2,
              ("eval_jet", 2, n): 1}),
            (lambda: laplace_beltrami_fd(g.without_partials(), f, p),
             {("partials", n): 1, ("value", 9 * n): 1, ("invert4", n): 1,
              ("eval_jet", 1, 9 * n): 2, ("eval_jet", 2, n): 1}),
        ]
        for evaluate, counts in expected:
            calls.clear()
            evaluate()
            assert calls == counts
