import math

import numpy as np
import pytest

from svoc.errors import SeriesError
from svoc.expr import parse_expression
from svoc.oracle import (
    convergence_study,
    fd_expansion_check,
    linear_analytic_solution,
    mittag_leffler,
    project_control,
    variational_fd_check,
)
from svoc.problem import ProblemSpec, builtin_problem
from svoc.quadrature import make_grid
from svoc.state import Trajectory, solve_state


# --- series evaluator ---------------------------------------------------------

def test_mittag_leffler_reference_values():
    assert mittag_leffler(1.0, 1.0) == pytest.approx(math.e, rel=1e-13)
    assert mittag_leffler(0.5, 0.0) == 1.0
    # E_{1/2}(z) = exp(z^2) erfc(-z)
    assert mittag_leffler(0.5, 1.0) == pytest.approx(math.e * math.erfc(-1.0), rel=1e-12)
    assert mittag_leffler(0.5, -1.0) == pytest.approx(math.e * math.erfc(1.0), rel=1e-10)


def test_mittag_leffler_guards():
    with pytest.raises(ValueError, match="positive"):
        mittag_leffler(0.0, 1.0)
    with pytest.raises(ValueError, match="50"):
        mittag_leffler(0.5, 51.0)


def test_mittag_leffler_series_budget():
    # small alpha needs terms beyond the budget before Gamma(m alpha) takes over
    with pytest.raises(SeriesError):
        mittag_leffler(0.01, 50.0)


def test_linear_solution_degenerate_case():
    t = np.linspace(0.0, 1.0, 9)
    assert np.array_equal(linear_analytic_solution(0.0, 0.5, t), np.ones(9))


# --- convergence table --------------------------------------------------------

def test_convergence_zero_coefficient_is_exact():
    report = convergence_study(0.0, 0.5, [8, 16, 32])
    assert all(row.error == 0.0 for row in report.rows)


def test_convergence_errors_decrease():
    report = convergence_study(1.0, 0.5, [64, 128, 256])
    errors = [row.error for row in report.rows]
    assert errors[0] > errors[1] > errors[2]
    assert math.isnan(report.rows[0].order)
    for row in report.rows[1:]:
        assert 0.7 <= row.order <= 1.2  # measured 0.92 / 0.97


# --- cost expansion -----------------------------------------------------------

def test_expansion_is_exact_for_linear_cost():
    problem = ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("1"),
                          f=parse_expression("0.3*y + 0.7*u"),
                          g=parse_expression("0.9*u"))
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(1.0, grid)
    v = Trajectory.from_expression("sin(2*t)", grid)
    report = fd_expansion_check(problem, (solve_state(problem, u, grid), u), v)
    assert report.qf == 0.0
    for row in report.rows:
        assert abs(row.residual) <= 1e-8  # measured ~2e-16
    assert all(math.isnan(r) for r in report.ratios)


def test_expansion_measures_the_quadratic_term():
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 2048)
    u = Trajectory.constant(0.0, grid)
    v = Trajectory.constant(1.0, grid)
    report = fd_expansion_check(problem, (solve_state(problem, u, grid), u), v)
    assert report.hu_pairing == 0.0
    assert report.qf == pytest.approx(-16.0 / 3.0, abs=1e-2)  # measured off 5.2e-6
    for row in report.rows:
        # dJ ~ -(delta^2/2) QF > 0 for c = 1
        assert row.delta_j == pytest.approx(-0.5 * row.delta**2 * report.qf, rel=1e-3)
    for ratio in report.ratios:
        assert ratio <= 0.3  # measured 0.051, 0.0062


def test_expansion_with_zero_variation_is_identically_zero():
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 128)
    u = Trajectory.constant(0.0, grid)
    v = Trajectory.constant(0.0, grid)
    report = fd_expansion_check(problem, (solve_state(problem, u, grid), u), v)
    assert report.hu_pairing == 0.0 and report.qf == 0.0
    assert all(row.delta_j == 0.0 and row.residual == 0.0 for row in report.rows)
    assert all(math.isnan(r) for r in report.ratios)


def test_delta_sweep_validation():
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 32)
    u = Trajectory.constant(0.0, grid)
    v = Trajectory.constant(1.0, grid)
    with pytest.raises(ValueError, match="positive"):
        fd_expansion_check(problem, (solve_state(problem, u, grid), u), v, deltas=())
    with pytest.raises(ValueError, match="positive"):
        fd_expansion_check(problem, (solve_state(problem, u, grid), u), v, deltas=(0.1, -0.05))
    with pytest.raises(ValueError, match="decreasing"):
        fd_expansion_check(problem, (solve_state(problem, u, grid), u), v, deltas=(0.05, 0.1))


def test_first_order_pairing_direct():
    # |dJ/delta + int H_u v| must halve with delta once delta dominates the
    # O(h) discretization bias; (0.08, 0.04, 0.02) stays on that side at N=2048
    problem = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    grid = make_grid(1.0, 2048)
    u = Trajectory.constant(1.0, grid)
    v = Trajectory.from_expression("cos(2*t)", grid)

    from svoc.adjoint import solve_adjoint
    from svoc.optimality import hamiltonian_fields
    from svoc.state import evaluate_cost

    y = solve_state(problem, u, grid)
    base = evaluate_cost(problem, y, u, grid).total
    adj = solve_adjoint(problem, (y, u), grid)
    fields = hamiltonian_fields(problem, (y, u), adj, grid)
    pairing = grid.h * float(np.dot(fields.h_u.values, v.midpoint_values()))

    q = []
    for delta in (0.08, 0.04, 0.02):
        u_pert = Trajectory(grid, "nodes", u.values + delta * v.values)
        y_pert = solve_state(problem, u_pert, grid)
        dj = evaluate_cost(problem, y_pert, u_pert, grid).total - base
        q.append(abs(dj / delta + pairing))
    for a, b in zip(q, q[1:]):
        assert 1.5 <= a / b <= 2.5  # measured 2.03 / 2.06


# --- variational responses ------------------------------------------------------

def test_variational_check_flags_exact_linear_responses():
    problem = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(1.0, grid)
    y = solve_state(problem, u, grid)
    v = Trajectory.from_expression("sin(3*t)", grid)
    report = variational_fd_check(problem, (y, u), v)
    assert report.exact1 and report.exact2
    assert all(math.isnan(r) for r in report.ratio1 + report.ratio2)


def test_variational_check_first_order_ratio_is_two():
    # y(u + delta v) - y(u) = c delta^2 W v^2 exactly, so e1 halves with delta
    # and the second-order correction absorbs the error completely
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u, grid)
    v = Trajectory.constant(1.0, grid)
    report = variational_fd_check(problem, (y, u), v)
    assert not report.exact1
    assert report.exact2
    for r in report.ratio1:
        assert r == pytest.approx(2.0, rel=1e-9)


def test_variational_check_measures_orders_on_curved_dynamics():
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 512)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u, grid)
    v = Trajectory.constant(1.0, grid)
    report = variational_fd_check(problem, (y, u), v)
    for r in report.ratio1:
        assert 1.5 <= r <= 2.5
    for r in report.ratio2:
        assert 3.0 <= r <= 5.0


# --- stability and projection ------------------------------------------------------

def test_free_term_perturbations_stay_bounded():
    # discrete stability: a free-term perturbation moves the solution by at
    # most a constant factor, uniformly in the grid resolution
    constants = []
    for n in (64, 128, 256, 512):
        grid = make_grid(1.0, n)
        u = Trajectory.constant(0.0, grid)
        base = ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("1"),
                           f=parse_expression("1*y"), g=parse_expression("0"))
        bumped = ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("1 + 0.001"),
                             f=parse_expression("1*y"), g=parse_expression("0"))
        diff = solve_state(bumped, u, grid).values - solve_state(base, u, grid).values
        constants.append(float(np.max(np.abs(diff))) / 0.001)
    assert all(30.0 <= c <= 50.0 for c in constants)  # measured 38.2 .. 44.9
    assert max(constants) / min(constants) <= 1.3


def test_project_control_applies_declared_box():
    problem = builtin_problem("paper_example")
    values = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(project_control(problem, values),
                          [-1.0, -0.5, 0.0, 0.5, 1.0])
    unbounded = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    assert np.array_equal(project_control(unbounded, values), values)
