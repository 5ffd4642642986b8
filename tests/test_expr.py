"""Parser, pretty-printer and jet-evaluation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biconf import DeformationPair, ExpressionField, einstein_residuals
from biconf.expr import (
    FUNCTIONS,
    Bin,
    Call,
    DomainError,
    Neg,
    Num,
    ParseError,
    Quadratic,
    Var,
    eval_jet,
    eval_value,
    fold,
    parse_expr,
    pretty,
)
from helpers import fd_partial, fd_partial2

ORIGIN = (0.0, 0.0, 0.0, 0.0)


def test_parse_literal():
    assert parse_expr("1") == Num(1.0)
    assert parse_expr("2.5e-1") == Num(0.25)


def test_parse_sphere_factor():
    ast = parse_expr("(1 + x1^2 + x2^2)/2")
    assert isinstance(ast, Bin) and ast.op == "/"
    assert eval_value(ast, ORIGIN) == 0.5
    assert eval_value(ast, (1.0, 2.0, 9.0, 9.0)) == 3.0


def test_parse_exp_product():
    ast = parse_expr("exp(x1)*x3")
    assert eval_value(ast, (0.0, 0.0, 1.0, 0.0)) == 1.0


def test_t_is_alias_for_x1():
    assert parse_expr("t") == Var(1)
    assert eval_value(parse_expr("t^-0.5"), (4.0, 0, 0, 0)) == 0.5


def test_precedence_power_over_unary_minus():
    # -x1^2 parses as -(x1^2)
    assert eval_value(parse_expr("-x1^2"), (2.0, 0, 0, 0)) == -4.0
    assert eval_value(parse_expr("(-x1)^2"), (2.0, 0, 0, 0)) == 4.0


def test_power_right_associative():
    # 2^(3^2) = 512, not (2^3)^2 = 64; the nested exponent goes through
    # the exp/ln path, so compare with a relative tolerance
    assert math.isclose(eval_value(parse_expr("2^3^2"), ORIGIN), 512.0, rel_tol=1e-12)
    assert eval_value(parse_expr("x1^-1"), (2.0, 0, 0, 0)) == 0.5


def test_left_associativity():
    assert eval_value(parse_expr("10 - 3 - 2"), ORIGIN) == 5.0
    assert eval_value(parse_expr("12/3/2"), ORIGIN) == 2.0


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("x1 + @")
    assert err.value.offset == 5
    with pytest.raises(ParseError):
        parse_expr("")
    with pytest.raises(ParseError) as err:
        parse_expr("x1 + ")
    assert "end of input" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_expr("(x1")
    assert "expected ')'" in str(err.value)
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse_expr("1.2.3")
    assert "malformed number" in str(err.value)
    assert err.value.offset == 0


def test_number_outside_the_float_range():
    with pytest.raises(ParseError) as err:
        parse_expr("2*1e999")
    assert "outside the float range" in str(err.value)
    assert err.value.offset == 2


def test_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse_expr("foo + 1")
    assert "unknown identifier" in str(err.value)
    assert err.value.offset == 0


def test_function_arity_errors():
    with pytest.raises(ParseError) as err:
        parse_expr("exp + 1")
    assert "requires a parenthesized argument" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_expr("x1(2)")
    assert "is not a function" in str(err.value)
    with pytest.raises(ParseError):
        parse_expr("exp(x1, x2)")  # comma is not part of the grammar


def test_trailing_input():
    with pytest.raises(ParseError) as err:
        parse_expr("1 2")
    assert "trailing" in str(err.value)


ROUND_TRIP_CORPUS = [
    "1",
    "0.5",
    "2.5e-3",
    "x1",
    "x4",
    "t",
    "-x1",
    "--x2",
    "x1 + x2",
    "x1 - x2 - x3",
    "x1 - (x2 - x3)",
    "x1*x2*x3",
    "x1*(x2*x3)",
    "x1/x2/x3",
    "x1/(x2/x3)",
    "x1 + x2*x3",
    "(x1 + x2)*x3",
    "x1^2",
    "x1^-2",
    "x1^0.25",
    "-x1^2",
    "(-x1)^2",
    "x1^x2^x3",
    "(x1^x2)^x3",
    "2^x1",
    "exp(x1)",
    "ln(x1 + 2)",
    "sqrt(1 + x1^2)",
    "sin(x1*x2)",
    "cos(-x3)",
    "atan(x4/2)",
    "exp(x1)*x3",
    "(1 + x1^2 + x2^2)/2",
    "(1 - x1^2 - x2^2)/2",
    "(1 + x3^2 + x4^2)/2",
    "1/(1 + x1^2)",
    "exp(-x1^2 - x2^2)",
    "x1*x3 + x2*x4",
    "exp(x1*x3)",
    "sin(x1) + cos(x2) + atan(x3) + sqrt(x4 + 2)",
    "2*x1^3 - 3*x2^2 + 4*x3 - 5",
    "x1^2*x2^2",
    "(x1 + x2)/(x3 + 2)",
    "-(x1 + x2)",
    "-(x1*x2)",
    "1 - -x1",
    "x1 - -2",
    "ln(exp(x1))",
    "sqrt(x1^2 + 1)/(2 + sin(x2))",
    "atan(atan(x1))",
    "0.1*x1 + 0.01*x2^2",
]


def test_round_trip_corpus_is_fixed_point():
    assert len(ROUND_TRIP_CORPUS) >= 50
    for text in ROUND_TRIP_CORPUS:
        ast = parse_expr(text)
        printed = pretty(ast)
        reparsed = parse_expr(printed)
        assert reparsed == ast, f"{text!r} -> {printed!r} reparses differently"
        assert pretty(reparsed) == printed, f"{text!r}: printer not a fixed point"


# trees the parser can produce: literals are finite and >= 0 (a sign is a Neg)
EXPRESSIONS = st.recursive(
    st.builds(Num, st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    | st.builds(Var, st.integers(1, 4)),
    lambda sub: st.builds(Neg, sub)
    | st.builds(Bin, st.sampled_from("+-*/^"), sub, sub)
    | st.builds(Call, st.sampled_from(FUNCTIONS), sub),
    max_leaves=12,
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(EXPRESSIONS)
def test_pretty_round_trips_random_trees(expr):
    assert parse_expr(pretty(expr)) == expr


# coordinates that reach the domain errors and the float range of the jets
COORDINATES = st.sampled_from([-3.0, -0.5, 0.0, 0.25, 1.0, 2.0, 1e-160, 1e160])
POINTS = st.lists(st.tuples(*[COORDINATES] * 4), min_size=1, max_size=4)


def _walk(expr, points, order):
    try:
        return eval_jet(expr, points, order)
    except (DomainError, ArithmeticError) as exc:
        return exc


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(EXPRESSIONS, POINTS, st.booleans())
def test_first_order_jets_are_second_order_jets_without_the_hessian(expr, points, single):
    """On the random trees above, at one point or a batch: the first-order
    walk's value and gradient are the second-order walk's, bit for bit,
    and it has no Hessian; where it raises, the second-order walk raises
    too (the Hessian terms alone may overflow)."""
    points = np.array(points[0] if single else points)
    first, second = _walk(expr, points, 1), _walk(expr, points, 2)
    if isinstance(first, Exception):
        assert isinstance(second, Exception)
        return
    assert first.h is None
    if not isinstance(second, Exception):
        assert first.val.tobytes() == second.val.tobytes()
        assert first.g.tobytes() == second.g.tobytes()
        assert first.g.shape == second.g.shape == points.shape


def test_jet_order_is_1_or_2():
    with pytest.raises(ValueError, match="order"):
        eval_jet(parse_expr("x1"), ORIGIN, 3)


def test_jet_matches_finite_differences():
    """Exact first/second partials vs centered differences on smooth fields."""
    rng = np.random.default_rng(42)
    exprs = [
        "exp(0.3*x1 - 0.2*x2^2 + 0.1*x3*x4)",
        "sin(x1*x2) + cos(x3 - x4)",
        "(1 + x1^2 + x2^2)/2",
        "sqrt(4 + x1 + x2^2)",
        "atan(x1 + 0.5*x2) * (2 + x3)",
        "ln(3 + x1*x4)",
    ]
    for text in exprs:
        ast = parse_expr(text)
        func = lambda q: eval_value(ast, q)
        for _ in range(100 // len(exprs) + 1):
            p = rng.uniform(-1.0, 1.0, size=4)
            jet = eval_jet(ast, p, 2)
            for i in range(4):
                approx = fd_partial(func, p, i)
                scale = max(1.0, abs(approx))
                assert abs(jet.g[i] - approx) / scale < 1e-6, (text, p, i)
            for i in range(4):
                for j in range(i, 4):
                    approx = fd_partial2(func, p, i, j)
                    scale = max(1.0, abs(approx))
                    assert abs(jet.h[i, j] - approx) / scale < 1e-4, (text, p, i, j)


def test_hessian_symmetric_bitwise():
    rng = np.random.default_rng(7)
    ast = parse_expr("x1^3*x2 - x2^2*x3 + x3*x4^2 + x1*x2*x3*x4")
    for _ in range(20):
        p = rng.uniform(-2.0, 2.0, size=4)
        h = eval_jet(ast, p, 2).h
        assert np.array_equal(h, h.T)


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_value(parse_expr("ln(x1)"), (0.0, 0, 0, 0))
    with pytest.raises(DomainError):
        eval_value(parse_expr("ln(x1)"), (-1.0, 0, 0, 0))
    with pytest.raises(DomainError):
        eval_value(parse_expr("sqrt(x1)"), (-1.0, 0, 0, 0))
    with pytest.raises(DomainError):
        eval_value(parse_expr("1/x1"), ORIGIN)
    with pytest.raises(DomainError):
        eval_value(parse_expr("x1^0.5"), (-1.0, 0, 0, 0))
    with pytest.raises(DomainError):
        eval_value(parse_expr("x1^-2"), ORIGIN)
    # integer exponents accept negative bases
    assert eval_value(parse_expr("x1^3"), (-2.0, 0, 0, 0)) == -8.0
    assert eval_value(parse_expr("x1^(-2)"), (-2.0, 0, 0, 0)) == 0.25


def test_jet_of_power_at_zero_base():
    jet = eval_jet(parse_expr("x1^2"), ORIGIN, 2)
    assert jet.val == 0.0 and jet.g[0] == 0.0 and jet.h[0, 0] == 2.0
    jet = eval_jet(parse_expr("x1^1"), ORIGIN, 2)
    assert jet.g[0] == 1.0 and jet.h[0, 0] == 0.0
    # x^0 is 1 with zero derivatives, at a zero base too
    for x1 in (0.0, 2.0, -3.0):
        jet = eval_jet(parse_expr("x1^0"), (x1, 0, 0, 0), 2)
        assert jet.val == 1.0 and not np.any(jet.g) and not np.any(jet.h)


def test_a_first_power_is_its_base():
    """x^1 has the base's Hessian, with no 0 * g g^T term to overflow."""
    base = parse_expr("1e200*x1")
    for p in (ORIGIN, (2.0, 0, 0, 0)):
        power, jet = eval_jet(Bin("^", base, Num(1.0)), p, 2), eval_jet(base, p, 2)
        assert power.val == jet.val and np.array_equal(power.g, jet.g)
        assert np.array_equal(power.h, jet.h)


def test_pretty_prints_known_forms():
    assert pretty(parse_expr("x1+x2 * x3")) == "x1 + x2*x3"
    assert pretty(parse_expr("t^2")) == "x1^2"
    assert pretty(Neg(Bin("*", Var(1), Var(2)))) == "-(x1*x2)"
    assert pretty(Call("exp", Num(1.0))) == "exp(1)"


def test_eval_jet_value_consistency():
    rng = np.random.default_rng(11)
    for text in ROUND_TRIP_CORPUS:
        ast = parse_expr(text)
        p = rng.uniform(0.1, 0.9, size=4)  # positive box avoids domain errors
        try:
            v = eval_value(ast, p)
        except DomainError:
            continue
        assert math.isclose(eval_jet(ast, p, 2).val, v, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# The evaluation form: monomial sums folded into coefficient nodes

LITERALS = st.builds(Num, st.floats(min_value=0.0, max_value=1e3))

# polynomial trees with literals up to 1e3: products and integer powers of
# anything, division by a literal (0 included); their folds leave products
# and powers of sums as trees around folded sums
POLYNOMIALS = st.recursive(
    LITERALS | st.builds(Var, st.integers(1, 4)),
    lambda sub: st.builds(Neg, sub)
    | st.builds(Bin, st.sampled_from("+-**"), sub, sub)
    | st.builds(Bin, st.just("/"), sub, LITERALS | st.builds(Neg, LITERALS))
    | st.builds(Bin, st.just("^"), sub, st.builds(Num, st.sampled_from([2.0, 0.0, 1.0, 3.0]))),
    max_leaves=12,
)

BOX_POINTS = st.lists(
    st.tuples(*[st.floats(min_value=-10.0, max_value=10.0)] * 4), min_size=1, max_size=6
)


def _magnitudes(expr):
    """The tree with every literal and operation made non-negative: its jet
    at |x| sums the magnitudes of the monomials of the tree's expanded
    polynomial (and of its partials), the scale of the rounding of any
    order of evaluating it."""
    if isinstance(expr, Num):
        return Num(abs(expr.value))
    if isinstance(expr, Var):
        return expr
    if isinstance(expr, Neg):
        return _magnitudes(expr.arg)
    op = "+" if expr.op == "-" else expr.op
    rhs = expr.rhs if op == "^" else _magnitudes(expr.rhs)
    return Bin(op, _magnitudes(expr.lhs), rhs)


# the folded walk rounds differently from the tree walk, by a few units in
# the last place of the summed magnitudes
ULPS = 4


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(POLYNOMIALS, BOX_POINTS, st.sampled_from([1, 2]))
def test_folded_jets_are_tree_jets_to_rounding(expr, points, order):
    """On random polynomial trees at batches of points in [-10, 10]^4: the
    folded walk raises where the tree walk raises, with the same error
    class, and otherwise gives its value, gradient and Hessian within a
    few ulps of the summed monomial magnitudes.  That bound is the
    rounding of normal floats: it holds where no walk underflows."""
    points = np.array(points)
    tree, folded = _walk(expr, points, order), _walk(fold(expr), points, order)
    assert type(tree) is type(folded)
    if isinstance(tree, Exception):
        return
    try:
        with np.errstate(under="raise"):
            eval_jet(expr, points, order), eval_jet(fold(expr), points, order)
            bound = eval_jet(_magnitudes(expr), np.abs(points), order)
    except ArithmeticError:  # an underflow, or magnitudes that overflow
        return
    for name in ("val", "g", "h"):
        a, b, m = getattr(tree, name), getattr(folded, name), getattr(bound, name)
        if a is None:
            assert b is None
            continue
        assert np.all(np.abs(a - b) <= ULPS * np.finfo(float).eps * m), name


@pytest.mark.parametrize(
    "text",
    ["(x1 - 0.5)^2", "(x1 - x2)^2", "x1*(x2 + 1)", "x1 + 1.27", "2*(x1 + 1)", "x1/0", "2*3",
     "x1^0", "sin(x1)", "(x1 + 1)^-0.5"],
)
def test_trees_that_stay_trees(text):
    """No product or power of a sum is expanded; bare sums, scaled bare
    sums and constants save nothing folded; division by zero stays where
    the tree raises it."""
    ast = parse_expr(text)
    assert fold(ast) == ast


@pytest.mark.parametrize(
    "text, form",
    [
        ("(1 + x1^2 + x2^2)/2", Quadratic((((), 0.5), ((0, 0), 0.5), ((1, 1), 0.5)))),
        ("exp(0.5 - 2*x1*x3)", Call("exp", Quadratic((((), 0.5), ((0, 2), -2.0))))),
        ("-(x1*x2 + x3)*3", Quadratic((((0, 1), -3.0), ((2,), -3.0)))),
        ("x4/4 + x1^2 - x1^2", Quadratic((((0, 0), 0.0), ((3,), 0.25)))),
        ("(x1 - 1)^2 + x2*x3", Bin("+", parse_expr("(x1 - 1)^2"), Quadratic((((1, 2), 1.0),)))),
        ("2*(x1*x2 + x3) + x4", Quadratic((((0, 1), 2.0), ((2,), 2.0), ((3,), 1.0)))),
    ],
)
def test_maximal_monomial_sums_fold(text, form):
    assert fold(parse_expr(text)) == form


def test_folding_keeps_a_shifted_product_exact():
    """S^2 x S^2 shifted to 10^4 stays a tree, whose residual is rounding
    of its O(1) terms; expanded about the origin, it would cancel to
    about 1e-8."""
    shifted = "(1 + (x{} - 10000)^2 + (x{} - 10000)^2)/2"
    pair = DeformationPair.from_exprs(shifted.format(1, 2), shifted.format(3, 4))
    axis = np.linspace(9999.6, 10000.4, 3)
    points = np.stack(np.meshgrid(axis, axis, axis, axis), axis=-1).reshape(-1, 4)
    assert np.max(np.abs(einstein_residuals(pair, 1.0, points))) <= 1e-15
    assert pair.sigma.form == pair.sigma.ast


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "text, p, folded",
    [
        ("x1^2", (1e200, 0.0, 0.0, 0.0), True),  # the value overflows
        ("1e300*x1*x2", (1e10, 1e10, 0.0, 0.0), True),  # so does (Q + Q^T) x, first
        ("x1/0", (1.0, 0.0, 0.0, 0.0), False),
    ],
)
def test_folded_fields_raise_where_trees_raise(text, p, folded, order):
    field = ExpressionField(text)
    assert isinstance(field.form, Quadratic) == folded
    with pytest.raises((DomainError, ArithmeticError)):
        eval_jet(field.ast, p, order)
    with pytest.raises(DomainError):
        field.jet(p, order)
