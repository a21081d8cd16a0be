import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svoc.expr
from svoc.expr import (
    Add,
    ExpressionError,
    Num,
    NonSmoothWarning,
    differentiate,
    parse_expression,
    separate,
)


def ev(text, **env):
    return parse_expression(text).evaluate(**env)


def test_literals_and_arithmetic():
    assert ev("3") == 3.0
    assert ev("2 + 3*4") == 14.0
    assert ev("(2 + 3)*4") == 20.0
    assert ev("7/2") == 3.5
    assert ev("2^3^2") == 512.0  # right associative
    assert ev("-2^2") == -4.0    # unary minus binds looser than power
    assert ev("2**3") == 8.0
    assert ev("1.5e-2") == 0.015


def test_variables_and_functions():
    assert ev("t*y*u", t=2.0, y=3.0, u=4.0) == 24.0
    assert ev("sqrt(t)", t=9.0) == 3.0
    assert ev("exp(0) + cos(0)") == 2.0
    assert math.isclose(ev("log(t)", t=math.e), 1.0)
    assert ev("abs(-3)") == 3.0


def test_evaluate_broadcasts_over_arrays():
    t = np.linspace(0.0, 1.0, 5)
    out = ev("1 + t*sqrt(t)", t=t)
    assert np.allclose(out, 1.0 + t**1.5)


def test_missing_binding_is_reported():
    with pytest.raises(ExpressionError, match="no value supplied for variable 'y'"):
        ev("y + 1")


@pytest.mark.parametrize("source, position", [
    ("2 +", 3),
    ("2 + * 3", 4),
    ("sqrt(2", 6),
    ("foo(2)", 0),
    ("2 @ 3", 2),
    ("sqrt(1, 2)", 0),
    ("w", 0),
    ("sqrt", 0),
    ("1 2", 2),
])
def test_parse_errors_carry_positions(source, position):
    with pytest.raises(ExpressionError) as err:
        parse_expression(source)
    assert err.value.position == position
    assert f"position {position}" in str(err.value)


def test_empty_expression_rejected():
    with pytest.raises(ExpressionError, match="empty"):
        parse_expression("   ")


def test_free_vars():
    assert parse_expression("t*y*u").free_vars() == {"t", "y", "u"}
    assert parse_expression("3.5").free_vars() == frozenset()
    assert parse_expression("sqrt(s) + s").free_vars() == {"s"}


def walked_vars(e):
    """free_vars by a full walk of the subtree, the reference."""
    if isinstance(e, svoc.expr.Var):
        return frozenset((e.name,))
    children = [getattr(e, f) for f in ("child", "left", "right", "base", "exponent", "arg")
                if hasattr(e, f)]
    return frozenset().union(*map(walked_vars, children))


@pytest.mark.parametrize("source", ["t*y*u", "3.5", "sqrt(s) + s", "-(t^y)/exp(u - s)",
                                    "log(y)*cos(2*t) - 1", "(s + 1)^2^t"])
def test_free_vars_match_a_full_walk(source):
    e = parse_expression(source)
    for node in (e, differentiate(e, "y"), differentiate(e, "u")):
        assert node.free_vars() == walked_vars(node)


def test_differentiating_a_sum_asks_each_node_for_its_variables_a_bounded_number_of_times(
        monkeypatch):
    # d/dy of an n-term sum asked each Add for its variables again at every
    # level above it: n^2 / 2 calls, 4x per doubling of n
    counts = {}
    free_vars = Add.free_vars

    def counted(self):
        counts[n] = counts.get(n, 0) + 1
        return free_vars(self)

    for n in (100, 200):
        e = parse_expression(" + ".join(["t*y"] * n))
        with monkeypatch.context() as patch:
            patch.setattr(Add, "free_vars", counted)
            d = differentiate(e, "y")
        assert str(d) == " + ".join(["t"] * n)
    assert counts[200] <= 2.1 * counts[100]  # measured 397 / 197


@pytest.mark.parametrize("source, var, point, expected", [
    ("y^2", "y", {"y": 3.0}, 6.0),
    ("t*y*u", "u", {"t": 2.0, "y": 5.0, "u": 0.0}, 10.0),
    ("y*u", "y", {"y": 1.0, "u": 7.0}, 7.0),
    ("exp(2*y)", "y", {"y": 0.5}, 2.0 * math.e),
    ("sqrt(y)", "y", {"y": 4.0}, 0.25),
    ("log(y)", "y", {"y": 5.0}, 0.2),
    ("sin(y)", "y", {"y": 0.0}, 1.0),
    ("cos(y)", "y", {"y": math.pi / 2}, -1.0),
    ("y/u", "u", {"y": 6.0, "u": 2.0}, -1.5),
    ("u^3", "u", {"u": 2.0}, 12.0),
    ("y^y", "y", {"y": 2.0}, 4.0 * (math.log(2.0) + 1.0)),
    ("2^u", "u", {"u": 3.0}, 8.0 * math.log(2.0)),
])
def test_differentiate_rules(source, var, point, expected):
    d = differentiate(parse_expression(source), var)
    assert math.isclose(d.evaluate(**point), expected, rel_tol=1e-12)


def test_second_derivatives_fold_constants():
    d2 = differentiate(differentiate(parse_expression("y^2"), "y"), "y")
    assert d2.evaluate() == 2.0
    assert str(d2) == "2"
    zero = differentiate(parse_expression("t*u"), "y")
    assert str(zero) == "0"


@pytest.mark.parametrize("source, var, want", [
    ("sin(1e308^2)*y + s", "y", "sin(1e+308^2)"),
    ("exp(1e308^2)*u - 1e308^2*s", "u", "exp(1e+308^2)"),
    ("(1e308^2)^y", "u", "0"),
    ("abs(u)*log(1e308^2) + y", "y", "1"),
])
def test_derivative_of_a_subtree_without_the_variable_is_zero(source, var, want):
    # 2*1e308 overflows, so the chain rule on 1e308^2 alone gives inf*0 = nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = differentiate(parse_expression(source), var)
    assert str(d) == want
    assert var not in d.free_vars()


def test_differentiate_only_accepts_state_and_control():
    e = parse_expression("t*y")
    with pytest.raises(ExpressionError, match="y or u"):
        differentiate(e, "t")
    with pytest.raises(ExpressionError):
        differentiate(e, "x")


def test_abs_derivative_warns_and_uses_sign():
    with pytest.warns(NonSmoothWarning, match="abs"):
        d = differentiate(parse_expression("abs(u)"), "u")
    assert d.evaluate(u=3.0) == 1.0
    assert d.evaluate(u=-3.0) == -1.0


def test_smooth_derivatives_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        differentiate(parse_expression("y^2 + u*cos(t)"), "u")


grammar_leaves = st.sampled_from(["t", "s", "y", "u", "1", "2", "0.5", "3.25"])


@st.composite
def expression_strings(draw, depth=3):
    if depth == 0:
        return draw(grammar_leaves)
    kind = draw(st.integers(0, 6))
    if kind <= 1:
        return draw(grammar_leaves)
    a = draw(expression_strings(depth=depth - 1))
    b = draw(expression_strings(depth=depth - 1))
    if kind == 2:
        return f"({a} + {b})"
    if kind == 3:
        return f"({a} - {b})"
    if kind == 4:
        return f"({a}*{b})"
    if kind == 5:
        return f"({a}/({b} + 4))"
    return f"{draw(st.sampled_from(['sin', 'cos', 'exp']))}({a})"


@given(expression_strings())
@settings(deadline=None, max_examples=80)
def test_str_round_trips_through_parser(source):
    tree = parse_expression(source)
    again = parse_expression(str(tree))
    env = {"t": 0.7, "s": 0.3, "y": 1.2, "u": -0.8}
    assert math.isclose(tree.evaluate(**env), again.evaluate(**env),
                        rel_tol=1e-12, abs_tol=1e-12)


@given(expression_strings(), st.sampled_from(["y", "u"]))
@settings(deadline=None, max_examples=60)
def test_derivative_str_round_trips(source, var):
    d = differentiate(parse_expression(source), var)
    again = parse_expression(str(d))
    env = {"t": 0.7, "s": 0.3, "y": 1.2, "u": -0.8}
    assert math.isclose(d.evaluate(**env), again.evaluate(**env),
                        rel_tol=1e-12, abs_tol=1e-12)


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(deadline=None, max_examples=60)
def test_derivative_matches_finite_differences(y, u):
    e = parse_expression("y^2*u + exp(0.3*y) - u^3")
    d = differentiate(e, "y")
    step = 1e-6
    fd = (e.evaluate(y=y + step, u=u) - e.evaluate(y=y - step, u=u)) / (2 * step)
    assert math.isclose(d.evaluate(y=y, u=u), fd, rel_tol=1e-6, abs_tol=1e-6)


# --- separation of the outer time --------------------------------------------

SEPARABLE_F = ["t*y*u", "sin(t)*y + cos(t)*u^2", "2.5*y", "y/t", "-1.8*u^2", "0.5*y + 1.2*u",
               "0.5*sin(t)*s*sin(y) + (1 + t)*u^2 + y*u^2/(1 + t)", "t^2*exp(y) - y*u/(1 + t)"]


def _partials(source):
    f = parse_expression(source)
    f_y, f_u = differentiate(f, "y"), differentiate(f, "u")
    return [f, f_y, f_u, differentiate(f_y, "y"), differentiate(f_y, "u"),
            differentiate(f_u, "u")]


def _assert_split_reproduces(e, rng, tol=1e-14):
    terms = separate(e)
    assert terms is not None
    for a, b in terms:
        assert a.free_vars() <= {"t"} and "t" not in b.free_vars()
    env = {v: rng.uniform(0.1, 2.0, 64) for v in ("t", "s", "y", "u")}
    want = np.broadcast_to(e.evaluate(**env), (64,))
    parts = [np.broadcast_to(a.evaluate(t=env["t"]) * b.evaluate(**env), (64,)) for a, b in terms]
    scale = np.maximum(np.abs(want), np.sum(np.abs(parts), axis=0))
    finite = np.isfinite(scale)  # random trees may overflow, e.g. exp(exp(exp(2)))
    assert np.all(np.abs(np.sum(parts, axis=0) - want)[finite] <= tol * scale[finite])


@pytest.mark.parametrize("source", SEPARABLE_F)
def test_separable_kernel_and_its_partials_split(source):
    rng = np.random.default_rng(3)
    for e in _partials(source):
        _assert_split_reproduces(e, rng)


def test_split_shapes():
    t_free = parse_expression("0.5*y + 1.2*u")
    assert separate(t_free) == ((Num(1.0), t_free),)
    (a, b), = separate(parse_expression("t*y*u"))
    assert (str(a), str(b)) == ("t", "y*u")
    assert [str(a) for a, _ in separate(parse_expression("sin(t)*y + cos(t)*u^2"))] == \
        ["sin(t)", "cos(t)"]
    (a, b), = separate(parse_expression("t*y + t*u"))  # equal outer factors merge
    assert (str(a), str(b)) == ("t", "y + u")


@pytest.mark.parametrize("source", ["sin(t*s)*y", "exp(t*y)", "y/(t + s)", "(t*y)^2",
                                    "t^y", "sin(t)*y + cos(t*u)"])
def test_non_separable_expressions_give_none(source):
    assert separate(parse_expression(source)) is None


@given(expression_strings())
@settings(deadline=None, max_examples=80)
def test_any_split_reproduces_the_expression(source):
    e = parse_expression(source)
    if separate(e) is not None:
        with np.errstate(all="ignore"):
            _assert_split_reproduces(e, np.random.default_rng(5), tol=1e-12)
