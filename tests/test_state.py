import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svoc import state
from svoc.errors import StateBlowupError
from svoc.oracle import linear_analytic_solution
from svoc.problem import builtin_problem
from svoc.quadrature import make_grid
from svoc.state import Trajectory, evaluate_cost, solve_state, solve_y1, solve_y2

BENCH = builtin_problem("paper_example")


def solve_constant(problem, value, n, **kw):
    grid = make_grid(problem.T, n)
    u = Trajectory.constant(value, grid)
    return grid, u, solve_state(problem, u, **kw)


# --- trajectory container ----------------------------------------------------

def test_trajectory_validation():
    g = make_grid(1.0, 4)
    with pytest.raises(ValueError, match="placement"):
        Trajectory(g, "edges", np.zeros(5))
    with pytest.raises(ValueError, match="needs 5 values"):
        Trajectory(g, "nodes", np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        Trajectory(g, "nodes", np.array([0.0, 1.0, np.nan, 0.0, 0.0]))


def test_trajectory_times_and_midpoints():
    g = make_grid(1.0, 4)
    y = Trajectory.from_expression("t", g)
    assert np.array_equal(y.times, g.nodes)
    assert np.allclose(y.midpoint_values(), g.midpoints)
    m = Trajectory.constant(2.0, g, "midpoints")
    assert m.values.shape == (4,)
    assert np.array_equal(m.midpoint_values(), m.values)
    assert np.array_equal(m.times, g.midpoints)


def test_solver_demands_matching_node_control():
    grid = make_grid(1.0, 8)
    with pytest.raises(ValueError, match="nodes"):
        solve_state(BENCH, Trajectory.constant(0.0, grid, "midpoints"))


# --- marching accuracy --------------------------------------------------------

def test_benchmark_zero_control_is_exact():
    # with u = 0 the integral term vanishes and y is the free term itself
    grid, _, y = solve_constant(BENCH, 0.0, 64)
    assert np.max(np.abs(y.values - (1.0 + grid.nodes**1.5))) <= 1e-12


def test_benchmark_constant_half_control_is_exact():
    # u = -1/2: row sums telescope to 2 sqrt(t), cancelling the t^(3/2) term
    _, _, y = solve_constant(BENCH, -0.5, 64)
    assert np.max(np.abs(y.values - 1.0)) <= 1e-12


def test_linear_problem_matches_series_solution():
    problem = builtin_problem("abel_linear", {"lam": 1.0})
    grid, _, y = solve_constant(problem, 0.0, 512)
    ref = linear_analytic_solution(1.0, 0.5, grid.nodes)
    rel = np.max(np.abs(y.values - ref)) / np.max(np.abs(ref))
    assert rel <= 3e-2  # measured 2.30e-2 at n = 512


def test_blowup_raises_with_location():
    problem = builtin_problem("abel_linear", {"lam": 80.0})
    grid = make_grid(1.0, 64)
    with pytest.raises(StateBlowupError) as err:
        solve_state(problem, Trajectory.constant(0.0, grid))
    assert 0 < err.value.index <= 64
    assert abs(err.value.value) > 1e12
    assert "node index" in str(err.value)


@given(st.floats(-3.0, 3.0))
@settings(deadline=None, max_examples=25)
def test_linear_state_scales_with_free_term(scale):
    # for f = lam*y the map eta -> y is linear, so scaling eta scales y
    from svoc.problem import ProblemSpec
    from svoc.expr import parse_expression
    grid = make_grid(1.0, 32)
    u = Trajectory.constant(0.0, grid)
    base = solve_state(builtin_problem("abel_linear", {"lam": 0.7}), u)
    scaled = ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression(f"{scale!r}"),
                         f=parse_expression("0.7*y"), g=parse_expression("0"))
    y = solve_state(scaled, u)
    assert np.max(np.abs(y.values - scale * base.values)) <= 1e-12 * (1.0 + abs(scale))


# --- cost ----------------------------------------------------------------------

def test_cost_of_benchmark_controls():
    grid, u0, y0 = solve_constant(BENCH, 0.0, 256)
    cost0 = evaluate_cost(BENCH, y0, u0)
    assert cost0.running == pytest.approx(0.0, abs=1e-15)
    assert cost0.instants[0] == pytest.approx(2.0, abs=1e-12)
    assert cost0.total == pytest.approx(2.0, abs=1e-12)

    _, uh, yh = solve_constant(BENCH, -0.5, 256)
    cost_h = evaluate_cost(BENCH, yh, uh)
    assert cost_h.running == pytest.approx(-0.5, abs=1e-12)
    assert cost_h.instants[0] == pytest.approx(1.0, abs=1e-12)
    assert cost_h.total == pytest.approx(0.5, abs=1e-12)


def test_off_node_instant_cost_interpolates():
    from svoc.problem import InstantCost, ProblemSpec
    from svoc.expr import parse_expression
    problem = ProblemSpec(
        alpha=0.5, T=1.0, eta=parse_expression("t"),
        f=parse_expression("0"), g=parse_expression("0"),
        instant_costs=(InstantCost(0.3751, parse_expression("y^2")),),
    )
    grid = make_grid(1.0, 4)  # nodes at multiples of 0.25
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u)
    cost = evaluate_cost(problem, y, u)
    assert cost.instants[0] == pytest.approx(0.3751**2, abs=1e-12)


# --- first and second responses -------------------------------------------------

def test_first_response_is_linear_in_the_variation():
    problem = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    grid = make_grid(1.0, 64)
    u = Trajectory.constant(1.0, grid)
    y = solve_state(problem, u)
    v1 = Trajectory.from_expression("t", grid)
    v2 = Trajectory.from_expression("cos(3*t)", grid)
    combo = Trajectory(grid, "nodes", 2.0 * v1.values - 0.5 * v2.values)
    z1 = solve_y1(problem, (y, u), v1).values
    z2 = solve_y1(problem, (y, u), v2).values
    zc = solve_y1(problem, (y, u), combo).values
    assert np.max(np.abs(zc - 2.0 * z1 + 0.5 * z2)) <= 1e-12


def test_first_response_closed_form_on_benchmark():
    # u* = 0 makes f_y vanish; the response integral evaluates to
    # 2 t^(3/2) + Beta(5/2, 1/2) t^3 with Beta(5/2, 1/2) = 3 pi / 8
    grid = make_grid(1.0, 2048)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(BENCH, u)
    v = Trajectory.constant(1.0, grid)
    y1 = solve_y1(BENCH, (y, u), v)
    t = grid.nodes
    exact = 2.0 * t**1.5 + (3.0 * math.pi / 8.0) * t**3
    rel = np.max(np.abs(y1.values - exact)) / np.max(np.abs(exact))
    assert rel <= 1e-3  # measured 1.83e-4


def test_first_response_vanishes_when_kernel_ignores_control():
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 64)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u)
    v = Trajectory.from_expression("1 + t", grid)
    assert np.max(np.abs(solve_y1(problem, (y, u), v).values)) == 0.0


def test_second_response_closed_form():
    # f = c u^2 at u* = 0: Y2 marches 2c with weight rows, giving 2c t^(1/2)/(1/2)
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 128)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u)
    v = Trajectory.constant(1.0, grid)
    y1 = solve_y1(problem, (y, u), v)
    y2 = solve_y2(problem, (y, u), v, y1)
    assert np.max(np.abs(y2.values - 4.0 * np.sqrt(grid.nodes))) <= 1e-12


def test_second_response_vanishes_for_linear_dynamics(monkeypatch):
    # f_yy = f_yu = f_uu = 0: every source vanishes, so Y2 takes no march
    problem = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    grid = make_grid(1.0, 64)
    u = Trajectory.constant(1.0, grid)
    y = solve_state(problem, u)
    v = Trajectory.from_expression("sin(t)", grid)
    y1 = solve_y1(problem, (y, u), v)
    monkeypatch.setattr(state, "_march_linear", None)
    y2 = solve_y2(problem, (y, u), v, y1)
    assert np.max(np.abs(y2.values)) == 0.0
