import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svoc.adjoint import adjoint_residual, snap_instants, solve_adjoint
from svoc.errors import AdjointStepError
from svoc.expr import parse_expression
from svoc.optimality import hamiltonian_fields
from svoc.problem import InstantCost, ProblemSpec, builtin_problem
from svoc.quadrature import make_grid, midpoint_weights, trapezoid
from svoc.state import Trajectory, evaluate_on, solve_state, solve_y1


def pair_for(problem, grid, control_value=0.0):
    u = Trajectory.constant(control_value, grid)
    return solve_state(problem, u, grid), u


def test_quadratic_state_cost_has_constant_costate():
    # f = c u^2 at u* = 0 leaves y* = 1, so the equation collapses to
    # psi = -g_y = -2 y* = -2 at every midpoint
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 128)
    pair = pair_for(problem, grid)
    adj = solve_adjoint(problem, pair, grid)
    assert np.max(np.abs(adj.psi.values + 2.0)) == 0.0
    assert adjoint_residual(problem, pair, adj, grid) <= 1e-3  # measured 0.0


@given(st.floats(-3.0, 3.0))
@settings(deadline=None, max_examples=20)
def test_costate_ignores_the_kernel_coefficient_at_rest(c):
    # the kernel enters through f_y = 0 whenever u* = 0, any c
    problem = builtin_problem("sing_quad", {"c": c})
    grid = make_grid(1.0, 32)
    adj = solve_adjoint(problem, pair_for(problem, grid), grid)
    assert np.max(np.abs(adj.psi.values + 2.0)) == 0.0


def test_costate_vanishes_without_state_coupling():
    problem = ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("1"),
                          f=parse_expression("u"), g=parse_expression("u^2"))
    grid = make_grid(1.0, 64)
    adj = solve_adjoint(problem, pair_for(problem, grid, 0.7), grid)
    assert np.max(np.abs(adj.psi.values)) == 0.0


def test_benchmark_costate_at_rest_control():
    # g_y = u* = 0 and the terminal instant feeds t y* u* = 0, so psi = 0
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 128)
    pair = pair_for(problem, grid)
    adj = solve_adjoint(problem, pair, grid)
    assert np.max(np.abs(adj.psi.values)) == 0.0
    assert adj.instant_terms.shape == (1, grid.n)
    assert not adj.instant_terms.any()


def test_instant_time_snaps_to_nearest_node():
    problem = ProblemSpec(
        alpha=0.5, T=1.0, eta=parse_expression("1"),
        f=parse_expression("0.4*y + 0.2*u"), g=parse_expression("y^2"),
        instant_costs=(InstantCost(0.4301, parse_expression("y^2")),),
    )
    grid = make_grid(1.0, 128)
    snap, = snap_instants(problem, grid)
    assert snap.node_index == 55
    assert snap.snapped_time == pytest.approx(0.4296875)
    assert snap.distance <= grid.h / 2
    assert snap.distance == pytest.approx(4.125e-4, rel=1e-6)

    pair = pair_for(problem, grid, 0.5)
    adj = solve_adjoint(problem, pair, grid)
    # the instant term is live strictly before its snapped time
    live = adj.instant_terms[0] != 0.0
    assert live.sum() == 55
    assert adjoint_residual(problem, pair, adj, grid) <= 1e-8  # measured 3.6e-15


def test_directional_derivative_duality():
    # dJ along v computed through the first response must match the
    # costate route -int H_u v: two independent discretizations
    problem = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    grid = make_grid(1.0, 1024)
    u = Trajectory.constant(1.0, grid)
    y = solve_state(problem, u, grid)
    v = Trajectory.from_expression("cos(2*t)", grid)
    y1 = solve_y1(problem, (y, u), v, grid)
    b = problem.bundle
    env = {"t": grid.nodes, "y": y.values, "u": u.values}
    state_route = trapezoid(
        evaluate_on(b.g_y, env, grid.nodes.shape) * y1.values
        + evaluate_on(b.g_u, env, grid.nodes.shape) * v.values,
        grid.h,
    )
    adj = solve_adjoint(problem, (y, u), grid)
    fields = hamiltonian_fields(problem, (y, u), adj, grid)
    costate_route = -grid.h * float(np.dot(fields.h_u.values, v.midpoint_values()))
    assert costate_route == pytest.approx(state_route, rel=2e-2)  # measured 4.7e-4


def test_degenerate_backward_step_is_reported():
    grid = make_grid(1.0, 4)
    K = 1.0 / float(midpoint_weights(0.5, grid)[0])
    problem = ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("1"),
                          f=parse_expression(f"{K!r}*y"), g=parse_expression("y"))
    pair = (Trajectory.constant(1.0, grid), Trajectory.constant(0.0, grid))
    with pytest.raises(AdjointStepError, match="backward step 3"):
        solve_adjoint(problem, pair, grid)


def test_pair_grid_mismatch_rejected():
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 16)
    other = make_grid(1.0, 8)
    pair = pair_for(problem, other)
    with pytest.raises(ValueError, match="different grid"):
        solve_adjoint(problem, pair, grid)
