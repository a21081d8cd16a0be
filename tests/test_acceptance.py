"""End-to-end acceptance gate.

One test per headline requirement; each prints a PASS line with the numbers
it measured so a verbose run doubles as a report.  Tolerances here are fixed
contract values, not tuning knobs.
"""

import math
import time

import numpy as np
import pytest

from svoc.adjoint import solve_adjoint
from svoc.oracle import (
    fd_expansion_check,
    linear_analytic_solution,
    project_control,
    variational_fd_check,
)
from svoc.optimality import (
    _quadratic_matrix,
    assemble_m_kernel,
    hamiltonian_fields,
    second_order_test,
)
from svoc.problem import BUILTIN_SIGNATURES, builtin_problem
from svoc.quadrature import make_grid
from svoc.resolvent import apply_kernel_nodes, build_q_kernel, build_resolvent, represent_solution
from svoc.state import Trajectory, evaluate_cost, solve_state, solve_y1


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_benchmark_reproduction():
    start = time.perf_counter()
    problem = builtin_problem("paper_example")
    grid = make_grid(problem.T, 256)

    u0 = Trajectory.constant(0.0, grid)
    y0 = solve_state(problem, u0)
    err0 = float(np.max(np.abs(y0.values - (1.0 + grid.nodes**1.5))))
    j0 = evaluate_cost(problem, y0, u0).total

    uh = Trajectory.constant(-0.5, grid)
    yh = solve_state(problem, uh)
    errh = float(np.max(np.abs(yh.values - 1.0)))
    jh = evaluate_cost(problem, yh, uh).total

    elapsed = time.perf_counter() - start
    assert err0 <= 1e-12 and abs(j0 - 2.0) <= 1e-12
    assert errh <= 1e-12 and abs(jh - 0.5) <= 1e-12
    assert elapsed < 1.0
    report("benchmark reproduction",
           f"state errors {err0:.2e} / {errh:.2e}, J = {j0:.15g} / {jh:.15g}, "
           f"{elapsed:.2f}s")


def test_criterion_2_analytic_convergence():
    start = time.perf_counter()
    errors = []
    for n in (256, 512, 1024, 2048, 4096):
        problem = builtin_problem("abel_linear", {"lam": 1.0})
        grid = make_grid(1.0, n)
        y = solve_state(problem, Trajectory.constant(0.0, grid))
        ref = linear_analytic_solution(1.0, 0.5, grid.nodes)
        errors.append(float(np.max(np.abs(y.values - ref)) / np.max(np.abs(ref))))
    elapsed = time.perf_counter() - start
    assert errors[-1] <= 1e-2
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert elapsed < 10.0
    report("analytic convergence",
           "rel errors " + " > ".join(f"{e:.2e}" for e in errors) + f", {elapsed:.1f}s")


def test_criterion_3_representation_equivalence():
    # linear representation route vs direct march
    grid = make_grid(1.0, 1024)
    problem = builtin_problem("abel_linear", {"lam": 0.5})
    y = solve_state(problem, Trajectory.constant(0.0, grid))
    phi = build_resolvent(lambda t, s: 0.5, 0.5, grid)
    rep = represent_solution(phi, Trajectory.from_expression("1", grid))
    rel_state = float(np.max(np.abs(rep.values - y.values)) / np.max(np.abs(y.values)))
    assert rel_state <= 1e-2

    # response-kernel route vs marched first response
    lq = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    u = Trajectory.constant(1.0, grid)
    y_star = solve_state(lq, u)
    v = Trajectory.from_expression("cos(2*t)", grid)
    direct = solve_y1(lq, (y_star, u), v)
    q = build_q_kernel(lq, (y_star, u))
    routed = apply_kernel_nodes(q, v)
    rel_y1 = float(np.max(np.abs(routed.values - direct.values))
                   / np.max(np.abs(direct.values)))
    assert rel_y1 <= 2e-2
    report("representation equivalence",
           f"state route rel {rel_state:.2e} (<= 1e-2), "
           f"first-response route rel {rel_y1:.2e} (<= 2e-2), N=1024")


def in_window(ratios, lo, hi):
    return all(lo <= r <= hi for r in ratios)


def test_criterion_4_variational_consistency():
    grid = make_grid(1.0, 2048)
    summary = []
    cases = [
        ("lq", builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0}), 1.0),
        ("sing_quad", builtin_problem("sing_quad", {"c": 1.0}), 0.0),
    ]
    for name, problem, u_val in cases:
        u = Trajectory.constant(u_val, grid)
        v = Trajectory.constant(1.0, grid)
        rep = variational_fd_check(problem, u, v)
        # each order must either sit in its halving window or be flagged as
        # exact at the roundoff floor (these two problems make the first- or
        # second-order identity exact, so ratios of pure noise do not apply)
        ok1 = rep.exact1 or in_window(rep.ratio1, 1.5, 2.5)
        ok2 = rep.exact2 or in_window(rep.ratio2, 3.0, 5.0)
        assert ok1, f"{name}: e1 ratios {rep.ratio1}, max e1 {max(rep.e1):.2e}"
        assert ok2, f"{name}: e2 ratios {rep.ratio2}, max e2 {max(rep.e2):.2e}"
        summary.append(
            f"{name} e1 {'exact' if rep.exact1 else rep.ratio1} "
            f"e2 {'exact' if rep.exact2 else rep.ratio2}"
        )

    # curved dynamics exercise both windows away from the exact regime
    curved = builtin_problem("paper_example")
    u = Trajectory.constant(0.0, grid)
    rep = variational_fd_check(curved, u, Trajectory.constant(1.0, grid))
    assert not rep.exact1 and not rep.exact2
    assert in_window(rep.ratio1, 1.5, 2.5)
    assert in_window(rep.ratio2, 3.0, 5.0)
    summary.append(
        "curved e1 " + "/".join(f"{r:.3f}" for r in rep.ratio1)
        + " e2 " + "/".join(f"{r:.3f}" for r in rep.ratio2)
    )
    report("variational consistency", "; ".join(summary) + ", N=2048")


def test_criterion_5_expansion_identity():
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 2048)
    u = Trajectory.constant(0.0, grid)
    v = Trajectory.constant(1.0, grid)
    rep = fd_expansion_check(problem, u, v)
    assert abs(rep.qf - (-16.0 / 3.0)) <= 1e-2
    assert all(r <= 0.3 for r in rep.ratios)
    report("expansion identity",
           f"QF = {rep.qf:.6f} (-16/3 +- 1e-2), residual ratios "
           + ", ".join(f"{r:.3f}" for r in rep.ratios) + " <= 0.3")


def test_criterion_6_second_order_verdicts():
    start = time.perf_counter()
    grid = make_grid(1.0, 1024)
    u = Trajectory.constant(0.0, grid)

    holds = builtin_problem("sing_quad", {"c": 1.0})
    y = solve_state(holds, u)
    fields_holds = hamiltonian_fields(holds, (y, u), solve_adjoint(holds, (y, u)))
    rep_holds = second_order_test(holds, (y, u), fields_holds)
    norm_k = float(np.linalg.norm(rep_holds.matrix, 2))
    assert rep_holds.verdict == "holds"
    assert rep_holds.lambda_max <= 1e-8 * norm_k

    violated = builtin_problem("sing_quad", {"c": -1.0})
    y2 = solve_state(violated, u)
    fields_viol = hamiltonian_fields(violated, (y2, u), solve_adjoint(violated, (y2, u)))
    rep_viol = second_order_test(violated, (y2, u), fields_viol)
    assert rep_viol.verdict == "violated"

    # independent confirmation: push along the returned direction
    delta = 1e-2
    mid = rep_viol.violating_direction.values
    nodes = np.concatenate([[mid[0]], 0.5 * (mid[:-1] + mid[1:]), [mid[-1]]])
    u_new = project_control(violated, u.values + delta * nodes)
    y_new = solve_state(violated, Trajectory(grid, "nodes", u_new))
    j_star = evaluate_cost(violated, y2, u).total
    j_new = evaluate_cost(violated, y_new, Trajectory(grid, "nodes", u_new)).total
    assert j_new < j_star

    # the dense kernel-assembly path must fit the same budget at reduced N
    small = make_grid(1.0, 256)
    lq = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    u_lq = Trajectory.constant(1.0, small)
    y_lq = solve_state(lq, u_lq)
    adj = solve_adjoint(lq, (y_lq, u_lq))
    fields = hamiltonian_fields(lq, (y_lq, u_lq), adj)
    q = build_q_kernel(lq, (y_lq, u_lq))
    m = assemble_m_kernel(lq, (y_lq, u_lq), fields, q)
    K = _quadratic_matrix(fields, m)
    assert np.all(np.isfinite(K))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("second-order verdicts",
           f"holds lambda_max {rep_holds.lambda_max:+.3e} <= 1e-8 |K| {1e-8 * norm_k:.1e}; "
           f"violated lambda_max {rep_viol.lambda_max:+.3e}, "
           f"J drop {j_star - j_new:.3e} at delta=1e-2; {elapsed:.1f}s")


def test_criterion_7_symbolic_derivative_suite():
    rng = np.random.default_rng(2024)
    step = 1e-5
    worst = 0.0
    instances = {
        "paper_example": {},
        "abel_linear": {"lam": 0.8},
        "sing_quad": {"c": 1.3},
        "lq": {"a": 0.5, "b": 1.0, "r": 2.0},
    }
    for name in BUILTIN_SIGNATURES:
        problem = builtin_problem(name, instances[name])
        bundle = problem.bundle
        pairs = [
            (problem.f, bundle.f_y, "y"), (problem.f, bundle.f_u, "u"),
            (bundle.f_y, bundle.f_yy, "y"), (bundle.f_y, bundle.f_yu, "u"),
            (bundle.f_u, bundle.f_uu, "u"),
            (problem.g, bundle.g_y, "y"), (problem.g, bundle.g_u, "u"),
            (bundle.g_y, bundle.g_yy, "y"), (bundle.g_y, bundle.g_yu, "u"),
            (bundle.g_u, bundle.g_uu, "u"),
        ]
        for ic, inst in zip(problem.instant_costs, bundle.instants):
            pairs += [(ic.h, inst.h_y, "y"), (inst.h_y, inst.h_yy, "y")]
        for _ in range(100):
            s = rng.uniform(0.05, 0.9)
            env = {
                "t": s + rng.uniform(0.05, 0.1),
                "s": s,
                "y": rng.uniform(-2.0, 2.0),
                "u": rng.uniform(-1.0, 1.0),
            }
            for base, derivative, var in pairs:
                bumped = dict(env)
                bumped[var] = env[var] + step
                dipped = dict(env)
                dipped[var] = env[var] - step
                fd = (float(base.evaluate(**bumped)) - float(base.evaluate(**dipped))) / (2 * step)
                sym = float(derivative.evaluate(**env))
                rel = abs(sym - fd) / (1.0 + abs(fd))
                worst = max(worst, rel)
                assert rel <= 1e-6
    report("symbolic derivative suite",
           f"100 points x all bundle entries x {len(BUILTIN_SIGNATURES)} problems, "
           f"worst rel {worst:.2e} <= 1e-6")
