"""Closed-form Ricci blocks and Laplacian vs the FD oracle.

The FD oracle is authoritative: any disagreement beyond tolerance on the
random corpus fails the suite.
"""

import dataclasses

import numpy as np
import pytest

from biconf import (
    DeformationPair,
    ExpressionField,
    PositivityError,
    ProfileField,
    conformal_ricci_coords,
    deformed_laplacian,
    einstein_residual_fd,
    einstein_residuals,
    frame_to_coords,
    laplace_beltrami_fd,
    metric_of,
    ricci_fd,
    ricci_frame,
)
from biconf.expr import Expr, Var
from helpers import hyperbolic_pair, random_pair, random_point, sphere_pair

ORIGIN = (0.0, 0.0, 0.0, 0.0)
UNIT_PAIR = DeformationPair.from_exprs("1", "1")


def test_metric_of_identity():
    g = metric_of(UNIT_PAIR)
    value, partials = g.partials(ORIGIN)
    assert np.array_equal(g.value(ORIGIN), np.eye(4)) and np.array_equal(value, np.eye(4))
    assert np.max(np.abs(partials)) == 0.0


def test_metric_of_sphere_pair_at_origin():
    g = metric_of(sphere_pair())
    assert np.allclose(g.value(ORIGIN), np.diag([4.0, 4.0, 4.0, 4.0]))


def test_metric_of_constants():
    g = metric_of(DeformationPair.from_exprs("1", "2"))
    assert np.allclose(g.value(ORIGIN), np.diag([1.0, 1.0, 0.25, 0.25]))


def test_metric_positivity_guard():
    d = DeformationPair.from_exprs("x1", "1")
    with pytest.raises(PositivityError):
        metric_of(d).value((-1.0, 0, 0, 0))


# x1 as an expression and as a profile of t = x1 (its log derivatives are
# never reached where it is not positive)
X1_FIELDS = [ExpressionField("x1"), ProfileField(lambda t: (t, 1.0, 0.0, 1.0, 0.0))]


@pytest.mark.parametrize("x1", [-1.0, -0.5, 0.0])
@pytest.mark.parametrize("side", ["sigma", "rho"])
@pytest.mark.parametrize("field", X1_FIELDS, ids=["expression", "profile"])
def test_both_paths_reject_a_non_positive_field_alike(field, side, x1):
    """Positivity belongs to the pair, whatever fields back it: the oracle's
    metric rejects sigma or rho <= 0 as the closed form does, with the same
    message naming the point."""
    one = ExpressionField("1")
    d = DeformationPair(field, one) if side == "sigma" else DeformationPair(one, field)
    p = (x1, 0.0, 0.0, 0.0)
    with pytest.raises(PositivityError) as closed:
        ricci_frame(d, p)
    message = str(closed.value)
    assert message.endswith(f" at {p}")
    g = metric_of(d)
    oracle_calls = [
        g.value,
        g.partials,
        lambda q: ricci_fd(g, q),
        lambda q: einstein_residual_fd(g, 1.0, q),
    ]
    for call in oracle_calls:
        with pytest.raises(PositivityError) as exc:
            call(p)
        assert str(exc.value) == message


def test_horizontal_block():
    assert np.max(np.abs(ricci_frame(UNIT_PAIR, ORIGIN).hh)) == 0.0
    assert np.allclose(ricci_frame(sphere_pair(), ORIGIN).hh, np.eye(2), atol=1e-14)

    # H^2 x R^2: horizontal Gaussian curvature -1, flat vertical factor
    d = DeformationPair.from_exprs("(1 - x1^2 - x2^2)/2", "1")
    hh = ricci_frame(d, ORIGIN).hh
    assert np.allclose(hh, -np.eye(2), atol=1e-14)
    assert np.max(np.abs(ricci_frame(d, ORIGIN).vv)) < 1e-14
    # confirm the product computation against the oracle
    fd = ricci_fd(metric_of(d), ORIGIN)
    closed = frame_to_coords(ricci_frame(d, ORIGIN))
    assert np.max(np.abs(closed - fd)) < 1e-5


def test_vertical_block():
    assert np.max(np.abs(ricci_frame(UNIT_PAIR, ORIGIN).vv)) == 0.0
    assert np.allclose(ricci_frame(sphere_pair(), ORIGIN).vv, np.eye(2), atol=1e-14)

    # R^2 x H^2
    d = DeformationPair.from_exprs("1", "(1 - x3^2 - x4^2)/2")
    vv = ricci_frame(d, ORIGIN).vv
    assert np.allclose(vv, -np.eye(2), atol=1e-14)
    fd = ricci_fd(metric_of(d), ORIGIN)
    closed = frame_to_coords(ricci_frame(d, ORIGIN))
    assert np.max(np.abs(closed - fd)) < 1e-5


def test_mixed_block_vanishes_for_separated_pairs():
    """sigma(x1,x2), rho(x3,x4) kills every term exactly (not just small)."""
    pairs = [
        sphere_pair(),
        hyperbolic_pair(),
        DeformationPair.from_exprs("exp(x1 - 0.5*x2^2)", "exp(0.3*x3*x4)"),
    ]
    rng = np.random.default_rng(8)
    for d in pairs:
        for _ in range(3):
            hv = ricci_frame(d, random_point(rng, 0.3)).hv
            assert np.max(np.abs(hv)) == 0.0


def test_mixed_block_cross_dependencies():
    # sigma = exp(x3), rho = exp(x1): entry (j=1, s=3) is 2 at the origin,
    # everything else vanishes; confirmed against the FD oracle below.
    d = DeformationPair.from_exprs("exp(x3)", "exp(x1)")
    hv = ricci_frame(d, ORIGIN).hv
    assert np.allclose(hv, [[2.0, 0.0], [0.0, 0.0]])
    closed = frame_to_coords(ricci_frame(d, ORIGIN))
    fd = ricci_fd(metric_of(d), ORIGIN)
    assert np.max(np.abs(closed - fd)) < 1e-5

    # sigma = rho = exp(x1*x4... use x1*x3): mixed second derivative of
    # ln(sigma*rho) is 2, log-gradients vanish at the origin.
    d2 = DeformationPair.from_exprs("exp(x1*x3)", "exp(x1*x3)")
    hv2 = ricci_frame(d2, ORIGIN).hv
    assert np.allclose(hv2, [[2.0, 0.0], [0.0, 0.0]])
    p = (0.12, -0.07, 0.2, 0.977)
    closed2 = frame_to_coords(ricci_frame(d2, p))
    fd2 = ricci_fd(metric_of(d2), p)
    assert np.max(np.abs(closed2 - fd2)) < 1e-4


def test_frame_ricci_einstein_examples():
    rng = np.random.default_rng(9)
    assert np.max(np.abs(ricci_frame(UNIT_PAIR, ORIGIN).matrix)) == 0.0
    ds = sphere_pair()
    dh = hyperbolic_pair()
    for _ in range(5):
        p = random_point(rng, 0.5)
        assert np.max(np.abs(ricci_frame(ds, p).matrix - np.eye(4))) < 1e-10
        q = random_point(rng, 0.4)  # stays inside the unit bidisc
        assert np.max(np.abs(ricci_frame(dh, q).matrix + np.eye(4))) < 1e-10


def test_frame_ricci_blocks_accessors():
    fr = ricci_frame(sphere_pair(), ORIGIN)
    assert fr.hh.shape == (2, 2) and fr.hv.shape == (2, 2) and fr.vv.shape == (2, 2)
    assert np.array_equal(fr.matrix, fr.matrix.T)


def _swap_planes(node: Expr) -> Expr:
    """``node`` with x1, x2 renamed x3, x4 and x3, x4 renamed x1, x2."""
    if isinstance(node, Var):
        return Var((node.index + 1) % 4 + 1)  # 1 -> 3, 2 -> 4, 3 -> 1, 4 -> 2
    return dataclasses.replace(
        node,
        **{
            f.name: _swap_planes(getattr(node, f.name))
            for f in dataclasses.fields(node)
            if isinstance(getattr(node, f.name), Expr)
        },
    )


def test_frame_ricci_swaps_blocks_with_the_planes():
    """Exchanging (sigma, x1, x2) with (rho, x3, x4) is an isometry of the
    deformed metric that maps e_1, e_2 to e_3, e_4, so it permutes the
    frame matrix's blocks: HH and VV trade places, HV is transposed."""
    rng = np.random.default_rng(31)
    perm = [2, 3, 0, 1]
    for _ in range(20):
        d = random_pair(rng)
        swapped = DeformationPair(
            ExpressionField(_swap_planes(d.rho.ast)),
            ExpressionField(_swap_planes(d.sigma.ast)),
        )
        points = rng.uniform(-0.4, 0.4, size=(50, 4))
        m = ricci_frame(d, points).matrix
        m_swapped = ricci_frame(swapped, points[:, perm]).matrix
        expected = m[:, perm][:, :, perm]
        assert np.all(np.abs(m_swapped - expected) <= 1e-13 * np.maximum(1.0, np.abs(expected)))


def test_frame_to_coords():
    d = sphere_pair()
    fr = ricci_frame(d, ORIGIN)
    assert np.allclose(frame_to_coords(fr), np.diag([4.0, 4.0, 4.0, 4.0]))

    dx = DeformationPair.from_exprs("exp(x3)", "exp(x1)")
    coords = frame_to_coords(ricci_frame(dx, ORIGIN))
    assert abs(coords[0, 2] - 2.0) < 1e-14  # sigma(0) = rho(0) = 1


class CountingField(ExpressionField):
    """Expression field that counts its value and jet evaluations."""

    def __init__(self, source):
        super().__init__(source)
        self.values = self.jets = 0

    def __call__(self, p):
        self.values += 1
        return super().__call__(p)

    def _raw_jet(self, p, order):
        self.jets += 1
        return super()._raw_jet(p, order)


def test_closed_forms_evaluate_each_field_once_per_point():
    """Coordinate Ricci and the ten residuals cost one jet of each field
    per point and no value evaluations."""
    sigma = CountingField("exp(0.2*x1 - 0.1*x3*x4 + 0.05*x2^2)")
    rho = CountingField("(1.2 + 0.3*x1^2 + 0.2*x4^2)/2")
    d = DeformationPair(sigma, rho)
    rng = np.random.default_rng(17)
    closed_forms = (
        lambda p: frame_to_coords(ricci_frame(d, p)),
        lambda p: einstein_residuals(d, 0.5, p),
    )
    for closed_form in closed_forms:
        for _ in range(3):
            sigma.values = sigma.jets = rho.values = rho.jets = 0
            closed_form(random_point(rng, 0.4))
            assert (sigma.jets, rho.jets) == (1, 1)
            assert (sigma.values, rho.values) == (0, 0)


def test_oracle_agreement_random_corpus():
    """30 random positive pairs, 10 points each: closed form vs FD < 1e-4."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(30):
        d = random_pair(rng)
        g = metric_of(d)
        points = np.array([random_point(rng, 0.4) for _ in range(10)])
        closed = frame_to_coords(ricci_frame(d, points))
        fd = ricci_fd(g, points)
        worst = max(worst, float(np.max(np.abs(closed - fd))))
    print("oracle agreement worst:", worst)
    assert worst < 1e-4


def test_conformal_reduction():
    """sigma = rho: frame Ricci equals the conformal-change formula, both
    closed forms, so the agreement is near machine precision."""
    rng = np.random.default_rng(10)
    sigma = ExpressionField("exp(0.3*x1 - 0.2*x2 + 0.1*x3*x4 - 0.05*x2^2)")
    d = DeformationPair(sigma, sigma)
    for _ in range(10):
        p = random_point(rng, 0.5)
        closed = frame_to_coords(ricci_frame(d, p))
        remark = conformal_ricci_coords(sigma, p)
        assert np.max(np.abs(closed - remark)) < 1e-8


def test_deformed_laplacian_examples():
    f1 = ExpressionField("x1^2")
    assert deformed_laplacian(UNIT_PAIR, f1, ORIGIN) == 2.0

    d12 = DeformationPair.from_exprs("1", "2")
    f34 = ExpressionField("x3^2")
    value = deformed_laplacian(d12, f34, ORIGIN)
    assert value == 8.0
    assert abs(value - laplace_beltrami_fd(metric_of(d12), f34, ORIGIN)) < 1e-12


def test_deformed_laplacian_conformal_reduction():
    """sigma = rho: matches sigma^2 Lap0 f - 2 sigma^2 df(grad0 ln sigma)."""
    rng = np.random.default_rng(14)
    sigma = ExpressionField("exp(0.2*x1 + 0.1*x2^2 - 0.15*x3)")
    d = DeformationPair(sigma, sigma)
    f = ExpressionField("sin(x1 + 0.3*x2) + x3^2*x4")
    for _ in range(20):
        p = random_point(rng, 0.5)
        jet = f.jet(p, 2)
        sv, sg, _ = sigma.log_jet(p)
        expected = sv**2 * (float(np.trace(jet.h)) - 2.0 * float(np.dot(jet.g, sg)))
        assert abs(deformed_laplacian(d, f, p) - expected) < 1e-12


def test_deformed_laplacian_matches_oracle_on_corpus():
    # strip the analytic metric partials so the oracle route genuinely
    # finite-differences the metric
    rng = np.random.default_rng(15)
    f = ExpressionField("x1*x4 + sin(x2) + 0.5*x3^2")
    worst = 0.0
    for _ in range(10):
        d = random_pair(rng)
        p = random_point(rng, 0.4)
        closed = deformed_laplacian(d, f, p)
        fd = laplace_beltrami_fd(metric_of(d).without_partials(), f, p)
        worst = max(worst, abs(closed - fd))
    print("laplacian agreement worst:", worst)
    assert worst < 1e-4
