"""Finite-difference curvature engine tests.

The oracle is the arbiter for every closed form in the library, so it
gets its own independent checks here: flat space, product metrics with
known constants, the conformally flat hyperbolic metric, and an
inversion cross-check against numpy.
"""

import math
import tracemalloc
import warnings
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from biconf.cli import NUMERICAL_ERRORS
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


def test_invert4_rejects_an_asymmetric_matrix():
    m = np.eye(4)
    m[3, 0] = 1e-11
    with pytest.raises(InvalidMetricError, match="not symmetric"):
        invert4(m)
    with pytest.raises(InvalidMetricError, match="not symmetric"):
        invert4(np.stack([np.eye(4), m]))


def test_the_metric_read_checks_the_shapes_of_g_and_dg():
    """g must have shape batch + (4, 4) and a provider's dg batch + (4, 4, 4),
    else InvalidMetricError, one of the CLI's numerical errors, naming the
    shape expected: a component-major dg of the right size is not read as
    one of the right shape, nor is one point's dg broadcast."""
    points = np.random.default_rng(3).uniform(-0.3, 0.3, size=(3, 4))
    g = metric_of(sphere_pair())
    gmat, dg = g.partials(points)
    for bad in (np.moveaxis(dg, -3, 0), dg[0]):
        provider = MetricField(g.value_fn, lambda p, bad=bad: (gmat, bad))
        for query in (provider.partials, lambda p: christoffel(provider, p)):
            with pytest.raises(InvalidMetricError, match=r"shape \(3, 4, 4, 4\), got shape"):
                query(points)
    with pytest.raises(InvalidMetricError, match=r"shape \(3, 4, 4\), got shape \(4, 4\)"):
        MetricField(lambda p: np.eye(4)).value(points)
    with pytest.raises(InvalidMetricError, match=r"shape \(4, 4\), got shape \(3, 3\)"):
        invert4(np.eye(3))
    assert issubclass(InvalidMetricError, NUMERICAL_ERRORS)


def rotated_metric(scale):
    """Q diag(1, 2, 3, 4) Q^T * scale from float matmuls, symmetric only to
    rounding."""
    q = np.linalg.qr(np.random.default_rng(7).normal(size=(4, 4)))[0]
    return (q * [1.0, 2.0, 3.0, 4.0]) @ q.T * scale


def test_the_symmetry_tolerance_is_relative_to_the_metric_scale():
    """Rounding-level asymmetry at scale 1e6 (beyond an absolute 1e-12) is
    accepted by invert4 and MetricField.value; an asymmetry of 1e-6 times
    the largest entry is not."""
    m = rotated_metric(1e6)
    assert 1e-12 < np.max(np.abs(m - m.T)) < 1e-9
    assert np.allclose(invert4(m) @ m, np.eye(4), atol=1e-12)
    assert np.array_equal(constant_metric(m).value(ORIGIN), m)
    assert invert4(np.stack([np.eye(4), m])).shape == (2, 4, 4)
    skew = m.copy()
    skew[3, 0] += 1e-6 * np.max(np.abs(m))
    with pytest.raises(InvalidMetricError, match="not symmetric"):
        invert4(skew)
    with pytest.raises(InvalidMetricError, match="not symmetric"):
        constant_metric(skew).value(ORIGIN)
    # the tolerance is each matrix's own: scale 1e6 next to it lends nothing
    small = np.eye(4)
    small[3, 0] = 1e-11
    with pytest.raises(InvalidMetricError, match="not symmetric"):
        invert4(np.stack([m, small]))


@pytest.mark.parametrize(
    "m",
    [
        np.diag([1.0, -1.0, 1.0, 1.0]),
        np.diag([1.0, 1.0, 1.0, -1e-300]),
        # every diagonal entry > 0, eigenvalues 3 and -1
        np.array([[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
    ],
)
def test_invert4_rejects_a_negative_pivot(m):
    with pytest.raises(InvalidMetricError, match="not positive definite"):
        invert4(m)
    with pytest.raises(InvalidMetricError, match="not positive definite"):
        invert4(np.stack([np.eye(4), m]))


@pytest.mark.parametrize(
    "diagonal",
    [[1e-200] * 4, [1e160] * 4, [1e-200, 1e-200, 1.0, 1.0], [1e200, 1e200, 1e-200, 1e-200]],
)
def test_invert4_accepts_a_well_conditioned_metric_at_an_extreme_scale(diagonal):
    """The rule is evaluated as prod(d_i / r_i), so a determinant or row
    scale that underflows to 0 or overflows to inf rejects nothing."""
    diagonal = np.array(diagonal)
    assert np.array_equal(invert4(np.diag(diagonal)), np.diag(1.0 / diagonal))


def numpy_pipeline(m):
    """The metric check and inverse as numpy's LAPACK calls took them:
    finite, symmetric to 1e-12 max(1, max|m|), a Cholesky factor, then
    |det| >= 1e-10 * scale, then the inverse."""
    with np.errstate(all="ignore"):
        if not np.all(np.isfinite(m)):
            raise InvalidMetricError
        asymmetry = np.max(np.abs(m - np.swapaxes(m, -1, -2)), axis=(-2, -1))
        if np.any(asymmetry > 1e-12 * np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))):
            raise InvalidMetricError
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise InvalidMetricError from None
        det = np.linalg.det(m)
        scale = np.prod(np.max(np.abs(m), axis=-1), axis=-1)
        if np.any(~((scale > 0.0) & (oracle.SINGULARITY_THRESHOLD * scale <= np.abs(det)))):
            raise SingularMetricError
        return np.linalg.inv(m)


def ldl_pipeline(m):
    """What the oracle does with a metric value: check it, then invert it."""
    return invert4(oracle._check_metric_value(m, m.shape[:-2])[0])


KINDS = ("spd", "diagonal", "near-singular", "indefinite", "asymmetric", "non-finite")


@st.composite
def metric_stacks(draw):
    """A stack of 4x4 matrices with batch shape () or (N,), one of them of
    a drawn kind and the others SPD or diagonal: Q diag(lambda) Q^T with
    |lambda| spread over 10^-3..10^3, one eigenvalue 10^-17..10^-6 of the
    largest (near-singular) or negative (indefinite), all times
    10^-60..10^60; or a diagonal of positive entries; or an SPD matrix
    with one entry off by more than 1e-12 (asymmetric) or made NaN or
    +-inf (non-finite)."""
    batch = draw(st.sampled_from([(), (1,), (3,), (6,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = math.prod(batch)
    kinds = draw(st.lists(st.sampled_from(KINDS[:2]), min_size=n, max_size=n))
    kinds[draw(st.integers(0, n - 1))] = draw(st.sampled_from(KINDS))
    mats = []
    for kind in kinds:
        lam = 10.0 ** rng.uniform(-3, 3, size=4)
        if kind == "near-singular":
            lam[0] = lam.max() * 10.0 ** rng.uniform(-17, -6)
        elif kind == "indefinite":
            lam[0] = -lam[0]
        q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        m = (q * lam) @ q.T
        m = 0.5 * (m + m.T) * 10.0 ** draw(st.integers(-60, 60))
        if kind == "diagonal":
            m = np.diag(lam * 10.0 ** draw(st.integers(-60, 60)))
        elif kind == "asymmetric":
            m[2, 1] += max(1e-11, 1e-6 * abs(m[2, 1]))
        elif kind == "non-finite":
            m[draw(st.integers(0, 3)), draw(st.integers(0, 3))] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
        mats.append(m)
    return np.array(mats).reshape(batch + (4, 4))


def comparable(m):
    """Whether the LDL^T and LAPACK paths must agree on ``m``: numpy's det
    and scale are normal floats, the smallest eigenvalue is at least
    1e-12 |m| from 0, and |det| / scale is not within the two paths'
    rounding (64 eps cond(m), relative) of the threshold."""
    with np.errstate(all="ignore"):
        det = np.abs(np.linalg.det(m))
        scale = np.prod(np.max(np.abs(m), axis=-1), axis=-1)
        lam = np.abs(np.linalg.eigvalsh(m))
        cond = lam.max(-1) / lam.min(-1)
        margin = np.abs(np.log(det / scale / oracle.SINGULARITY_THRESHOLD))
    tiny = np.finfo(float).tiny
    normal = [(x >= tiny) & (x <= np.finfo(float).max) for x in (det, scale)]
    return bool(np.all(normal[0] & normal[1] & (lam.min(-1) >= 1e-12 * lam.max(-1))
                       & (margin > 64 * np.finfo(float).eps * cond)))


def outcome(pipeline, m):
    try:
        return pipeline(m)
    except (InvalidMetricError, SingularMetricError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(metric_stacks())
def test_ldl_pipeline_decides_and_inverts_as_numpy(m):
    """Check-then-invert4 against the LAPACK path: the same accept or
    reject decision and error class wherever the two must agree (any
    stack with a non-finite or asymmetric matrix, else one whose every
    matrix is ``comparable``); an accepted inverse within
    1e-13 cond(m) of numpy's, relative to its largest entry, so 1e-13 on
    a well-conditioned matrix; and bit for bit, with +0.0 off the
    diagonal, on a diagonal matrix."""
    got, want = outcome(ldl_pipeline, m), outcome(numpy_pipeline, m)
    flat = m.reshape(-1, 4, 4)
    decided = not np.all(np.isfinite(flat)) or np.any(flat != np.swapaxes(flat, -1, -2))
    if decided or comparable(flat):
        assert isinstance(got, np.ndarray) == isinstance(want, np.ndarray)
        if not isinstance(got, np.ndarray):
            assert got is want
    if isinstance(got, np.ndarray):
        ref = np.linalg.inv(m).reshape(-1, 4, 4)
        for gi, ri, mi in zip(got.reshape(-1, 4, 4), ref, flat):
            if np.count_nonzero(mi - np.diag(np.diag(mi))) == 0:
                assert np.array_equal(gi, ri) and not np.signbit(gi).any()
            lam = np.abs(np.linalg.eigvalsh(mi))
            assert np.max(np.abs(gi - ri)) <= 1e-13 * lam.max() / lam.min() * np.max(np.abs(ri))


def raised(evaluate):
    """``evaluate()``, or the metric error it raised."""
    try:
        return evaluate()
    except (InvalidMetricError, SingularMetricError) as exc:
        return exc


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(metric_stacks())
def test_the_levi_civita_pass_decides_as_value_then_invert4(m):
    """A Levi-Civita pass checks and factors a constant metric once, and
    decides as ``MetricField.value`` then ``invert4`` do: the same error
    class and message where they raise, else their g^-1 bit for bit."""
    batch = m.shape[:-2]
    g = MetricField(lambda p: m, lambda p: (m, np.zeros(batch + (4, 4, 4))))
    p = np.zeros(batch + (4,))
    got = raised(lambda: oracle._levi_civita(g, p)[1])
    want = raised(lambda: invert4(g.value(p)))
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


def christoffel_reference(ginv, dg):
    """Gamma^a_bc = 1/2 g^ad (d_b g_dc + d_c g_db - d_d g_bc) as einsums."""
    x = np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg
    return 0.5 * np.einsum("...ad,...dbc->...abc", ginv, x)


def contract_reference(gamma, dgamma):
    """d_a Gamma^a_bc - d_c Gamma^a_ba + Gamma^a_ad Gamma^d_bc - Gamma^a_cd Gamma^d_ba as einsums."""
    return (
        np.einsum("...aabc->...bc", dgamma)
        - np.einsum("...caba->...bc", dgamma)
        + np.einsum("...aad,...dbc->...bc", gamma, gamma)
        - np.einsum("...acd,...dba->...bc", gamma, gamma)
    )


def assert_rounding_close(got, want, bound):
    """|got - want| <= 16 eps times ``bound``, the reference's sum of |terms|."""
    assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * bound)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(), (1,), (2,), (5,), (9,)]), st.integers(0, 2**32 - 1))
def test_christoffel_and_contraction_products_match_their_einsums(batch, seed):
    """The batched matrix products of ``christoffel`` and ``_contract``
    against the einsum formulas: within rounding of the sum of the
    absolute terms, on non-diagonal SPD metrics Q diag(lambda) Q^T
    (lambda in 10^-2..10^2) with random partials symmetric in (a, b), and
    on random Gamma and dGamma without any symmetry; and each row of a
    batch bit for bit as that point alone."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=batch + (4, 4)))[0]
    m = (q * 10.0 ** rng.uniform(-2, 2, size=batch + (1, 4))) @ np.swapaxes(q, -1, -2)
    m = 0.5 * (m + np.swapaxes(m, -1, -2))
    dg = rng.normal(size=batch + (4, 4, 4)) * 10.0 ** rng.uniform(-3, 3, size=batch + (4, 1, 1))
    dg = dg + np.swapaxes(dg, -1, -2)
    p = np.zeros(batch + (4,))
    gamma = christoffel(MetricField(lambda p: m, lambda p: (m, dg)), p)
    ginv = invert4(m)
    x_abs = np.abs(dg)
    x_abs = np.einsum("...bdc->...dbc", x_abs) + np.einsum("...cdb->...dbc", x_abs) + x_abs
    assert_rounding_close(gamma, christoffel_reference(ginv, dg),
                          0.5 * np.einsum("...ad,...dbc->...abc", np.abs(ginv), x_abs))

    gam = rng.normal(size=batch + (4, 4, 4))
    dgam = rng.normal(size=batch + (4, 4, 4, 4))
    ric = oracle._contract(gam, dgam)
    bound = (contract_reference(np.abs(gam), np.abs(dgam))
             + 2 * np.einsum("...acd,...dba->...bc", np.abs(gam), np.abs(gam)))
    assert_rounding_close(ric, contract_reference(gam, dgam), bound)

    for k in np.ndindex(batch):
        point = MetricField(lambda p, k=k: m[k], lambda p, k=k: (m[k], dg[k]))
        assert np.array_equal(christoffel(point, ORIGIN), gamma[k])
        assert np.array_equal(oracle._contract(gam[k], dgam[k]), ric[k])


def test_christoffel_raises_on_overflow():
    # g^-1 is 1e10 I and d_0 g_00 = 1e300: Gamma^0_00 = 5e309 overflows
    # inside the einsum, which ignores np.errstate
    partials = np.zeros((4, 4, 4))
    partials[0, 0, 0] = 1e300
    g = constant_metric(1e-10 * np.eye(4), partials)
    with pytest.raises(FloatingPointError, match="overflow encountered in Christoffel symbols"):
        christoffel(g, ORIGIN)


def huge_connection():
    """Flat g with d_0 g_11 = 2e154: Gamma^1_01 = Gamma^1_10 = 1e154 and
    Gamma^0_11 = -1e154, finite, but Gamma^a_1d Gamma^d_1a sums two terms
    of -1e308 to -inf."""
    partials = np.zeros((4, 4, 4))
    partials[0, 1, 1] = 2e154
    return constant_metric(np.eye(4), partials)


@pytest.mark.parametrize(
    "evaluate",
    [lambda g, p: ricci_fd(g, p), lambda g, p: einstein_residual_fd(g, 1.0, p)],
    ids=["ricci_fd", "einstein_residual_fd"],
)
def test_ricci_raises_on_overflow(evaluate):
    g = huge_connection()
    assert np.all(np.isfinite(christoffel(g, ORIGIN)))
    for p in (ORIGIN, np.zeros((3, 4))):
        with pytest.raises(FloatingPointError, match="overflow encountered in Ricci contraction"):
            evaluate(g, p)


def partials_bad_at_x1_above_half(bad):
    """Flat g whose partial d_1 g_22 is ``bad`` where x1 > 0.5, else 0."""

    def partials(p):
        dg = np.zeros(p.shape[:-1] + (4, 4, 4))
        dg[..., 1, 2, 2] = np.where(p[..., 0] > 0.5, bad, 0.0)
        return np.broadcast_to(np.eye(4), p.shape[:-1] + (4, 4)), dg

    return MetricField(lambda p: partials(p)[0], partials)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize(
    "evaluate",
    [lambda g, p: ricci_fd(g, p), lambda g, p: einstein_residual_fd(g, 1.0, p)],
    ids=["ricci_fd", "einstein_residual_fd"],
)
def test_one_non_finite_partial_is_a_numerical_error(bad, evaluate):
    """One inf or NaN component of dg, at a single point, at every point
    of a batch or at one point of it, raises an error the CLI reports
    as a numerical failure."""
    one = (1.0, 0.0, 0.0, 0.0)
    for p in (one, np.array([one] * 3), np.array([ORIGIN, one, ORIGIN])):
        with pytest.raises(NUMERICAL_ERRORS):
            evaluate(partials_bad_at_x1_above_half(bad), p)


def test_ricci_fd_keeps_under_three_stencil_arrays():
    """The tracemalloc peak of a warm ``ricci_fd`` on 81 points stays below
    three float arrays of the stencil's 9 * 81 points by 64 components."""
    g = metric_of(sphere_pair())
    grid = np.array(list(product((-0.3, 0.0, 0.3), repeat=4)))
    ricci_fd(g, grid)
    tracemalloc.start()
    try:
        ricci_fd(g, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 9 * 81 * 64 * 8


@pytest.mark.parametrize("f", ["1e300*x1", "1e300*x2"])
def test_laplace_beltrami_raises_on_overflow(f):
    # Gamma^c_ab f_c = 1e154 * 1e300
    with pytest.raises(FloatingPointError, match="overflow encountered in Laplace-Beltrami"):
        laplace_beltrami_fd(huge_connection(), ExpressionField(f), ORIGIN)


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
    """One Levi-Civita pass per call, which factors the metric once: the
    Ricci entry points read it on the 9 N points of their stencil and
    take g at p from its centre, the Laplacian reads it at p; the same on
    1 point as on 81.  ``_ldl`` calls are listed in order by their
    points, and the metric's jet walks are counted by (order, points):
    the metric and its partials need first-order jets, the Laplacian's f
    a second-order one.  Without a provider the pass checks the value on
    the 9 N points and then factors the N centres."""
    factors, jets = [], Counter()
    original_ldl, original_jet = oracle._ldl, biconf.fields.eval_jet

    def ldl(m):
        factors.append(math.prod(m.shape[:-2]))
        return original_ldl(m)

    def eval_jet(node, p, order):
        jets[order, math.prod(np.shape(p)[:-1])] += 1
        return original_jet(node, p, order)

    monkeypatch.setattr(oracle, "_ldl", ldl)
    monkeypatch.setattr(biconf.fields, "eval_jet", eval_jet)

    g = metric_of(sphere_pair())
    f = ExpressionField("x1*x3 + x2^2")
    grid = np.array(list(product((-0.3, 0.0, 0.3), repeat=4)))
    for p, n in ((np.array([0.1, -0.2, 0.05, 0.15]), 1), (grid, 81)):
        expected = [
            (lambda: ricci_fd(g, p), [9 * n], {(1, 9 * n): 2}),
            (lambda: einstein_residual_fd(g, 1.0, p), [9 * n], {(1, 9 * n): 2}),
            (lambda: christoffel(g, p), [n], {(1, n): 2}),
            (lambda: laplace_beltrami_fd(g, f, p), [n], {(1, n): 2, (2, n): 1}),
            (lambda: laplace_beltrami_fd(g.without_partials(), f, p),
             [9 * n, n], {(1, 9 * n): 2, (2, n): 1}),
        ]
        for evaluate, ldl_points, jet_counts in expected:
            factors.clear()
            jets.clear()
            evaluate()
            assert factors == ldl_points
            assert jets == jet_counts
