"""The batch axis: every layer evaluated on an (N, 4) point array gives,
row by row, the bits it gives for each point alone (as a 1-D point and as
a batch of one), and a batch fails exactly when one of its points does."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biconf import (
    DeformationPair,
    DomainError,
    ExpressionField,
    InvalidMetricError,
    OracleError,
    SingularMetricError,
    christoffel,
    conformal_ricci_coords,
    deformed_laplacian,
    einstein_residual_fd,
    einstein_residuals,
    frame_to_coords,
    laplace_beltrami_fd,
    metric_of,
    ricci_fd,
    ricci_frame,
    single_param_residuals,
    warped_residuals,
)
from biconf.oracle import invert4
from biconf.expr import eval_jet, eval_value, fold, parse_expr
from test_expr import ROUND_TRIP_CORPUS

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)

CORPUS = st.sampled_from(ROUND_TRIP_CORPUS)
FAILURES = (DomainError, ArithmeticError, SingularMetricError, InvalidMetricError, OracleError)


def _points(most: int):
    """Arrays of 1 to ``most`` points drawn uniformly from the box
    [-0.95, 0.95]^4.  Uniform draws, unlike hypothesis' own floats, are
    rarely round numbers, on which every rounding path agrees."""
    return st.builds(
        lambda n, seed: np.random.default_rng(seed).uniform(-0.95, 0.95, size=(n, 4)),
        st.integers(1, most),
        st.integers(0, 2**32 - 1),
    )


def _outcome(evaluate, p):
    try:
        return evaluate(p)
    except FAILURES as exc:
        return exc


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def _leaves(result) -> list:
    """The arrays of a result: a Jet, a tuple of arrays, or an array."""
    if hasattr(result, "g"):
        return [result.val, result.g, result.h]
    if isinstance(result, tuple):
        return list(result)
    return [result]


def _assert_rows_match_single_points(evaluate, points):
    """Row k of ``evaluate(points)`` has the bits of ``evaluate`` at point
    k alone and of row 0 of ``evaluate`` at the batch of one; the batch
    fails when, and only when, some point fails."""
    batch = _outcome(evaluate, points)
    singles = [_outcome(evaluate, p) for p in points]
    if any(isinstance(s, Exception) for s in singles):
        assert isinstance(batch, Exception)
        return
    assert not isinstance(batch, Exception), batch
    for k, single in enumerate(singles):
        ones = _leaves(evaluate(points[k:k + 1]))
        for row, alone, one in zip(_leaves(batch), _leaves(single), ones):
            assert np.shape(row[k]) == np.shape(alone) == np.shape(one[0])
            assert _bits(row[k]) == _bits(alone) == _bits(one[0])


@SETTINGS
@given(text=CORPUS, points=_points(64))
def test_expression_rows_are_single_point_evaluations(text, points):
    ast = parse_expr(text)
    for form in (ast, fold(ast)):
        _assert_rows_match_single_points(lambda p: eval_jet(form, p, 2), points)
        _assert_rows_match_single_points(lambda p: eval_value(form, p), points)


def _pair(sigma_text, rho_text) -> DeformationPair:
    """Positive fields built from two corpus expressions."""
    return DeformationPair.from_exprs(f"exp({sigma_text})", f"exp({rho_text})")


@SETTINGS
@given(sigma=CORPUS, rho=CORPUS, points=_points(8))
def test_closed_form_rows_are_single_point_evaluations(sigma, rho, points):
    d = _pair(sigma, rho)
    _assert_rows_match_single_points(d.log_data, points)
    _assert_rows_match_single_points(lambda p: ricci_frame(d, p).matrix, points)
    _assert_rows_match_single_points(lambda p: frame_to_coords(ricci_frame(d, p)), points)
    _assert_rows_match_single_points(lambda p: einstein_residuals(d, 0.7, p), points)
    _assert_rows_match_single_points(lambda p: deformed_laplacian(d, d.rho, p), points)
    _assert_rows_match_single_points(lambda p: conformal_ricci_coords(d.sigma, p), points)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(sigma=CORPUS, rho=CORPUS, points=_points(4))
def test_fd_ricci_rows_agree_with_single_points(sigma, rho, points):
    g = metric_of(_pair(sigma, rho))
    batch = _outcome(lambda p: ricci_fd(g, p), points)
    singles = [_outcome(lambda p: ricci_fd(g, p), p) for p in points]
    if any(isinstance(s, Exception) for s in singles):
        assert isinstance(batch, Exception)
        return
    for row, single in zip(batch, singles):
        assert np.max(np.abs(row - single)) <= 1e-12 * max(1.0, np.max(np.abs(single)))


def test_an_empty_batch_gives_empty_rows():
    """Every batch entry point, closed form and oracle alike, on a (0, 4)
    array of points (and ``invert4`` on a (0, 4, 4) stack, and
    ``single_param_residuals`` on an empty array of t) returns arrays with
    a leading axis of 0 and the trailing shapes of one point."""
    d = _pair("0.1*x1 - 0.2*x3", "0.3*x2*x4")
    g = metric_of(d)
    flat = ExpressionField("1")  # constant vertical curvature 0
    entry_points = [
        lambda p: d.sigma.jet(p, 2),
        d.log_data,
        lambda p: ricci_frame(d, p).matrix,
        lambda p: frame_to_coords(ricci_frame(d, p)),
        lambda p: einstein_residuals(d, 0.7, p),
        lambda p: deformed_laplacian(d, d.rho, p),
        lambda p: conformal_ricci_coords(d.sigma, p),
        lambda p: warped_residuals(d.sigma, d.rho, flat, 0.7, p),
        lambda p: single_param_residuals(d.sigma, d.rho, 0.7, p[..., 0]),
        g.value,
        g.partials,
        lambda p: invert4(g.value(p)),
        lambda p: christoffel(g, p),
        lambda p: ricci_fd(g, p),
        lambda p: einstein_residual_fd(g, 0.7, p),
        lambda p: laplace_beltrami_fd(g, d.rho, p),
        lambda p: laplace_beltrami_fd(g.without_partials(), d.rho, p),
    ]
    point = np.array([0.1, -0.2, 0.05, 0.15])
    for evaluate in entry_points:
        empty, one = _leaves(evaluate(np.empty((0, 4)))), _leaves(evaluate(point))
        assert [np.shape(x) for x in empty] == [(0,) + np.shape(x) for x in one]
