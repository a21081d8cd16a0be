"""Second-order test on the control-quadratic problem, both kernel signs.

u = 0 is singular for either sign of c (H_u = -2 psi c u and g_u = 0).  The
quadratic form is sign-definite with value -(16/3) c on v = 1 at alpha = 1/2,
T = 1, so c = +1 satisfies the second-order condition while c = -1 violates
it; the eigenvector of the violated form is an improving direction, which the
finite-difference expansion confirms by a negative measured cost change.
"""

import argparse

import numpy as np

from svoc import (
    Trajectory,
    builtin_problem,
    evaluate_cost,
    fd_expansion_check,
    hamiltonian_fields,
    make_grid,
    second_order_test,
    solve_adjoint,
    solve_state,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=512)
    args = ap.parse_args()

    for c in (1.0, -1.0):
        problem = builtin_problem("sing_quad", {"c": c})
        grid = make_grid(problem.T, args.n)
        u = Trajectory.constant(0.0, grid)
        y = solve_state(problem, u)
        fields = hamiltonian_fields(problem, (y, u), solve_adjoint(problem, (y, u)))
        report = second_order_test(problem, (y, u), fields)
        print(f"c = {c:+g}: verdict {report.verdict}, "
              f"lambda_max = {report.lambda_max:+.6e} (tol {report.tol:.2e})")

        if report.verdict != "violated":
            continue
        # push along the violating direction and watch the cost drop
        vec = report.violating_direction.values
        v = Trajectory(grid, "nodes", np.concatenate([[vec[0]], 0.5 * (vec[:-1] + vec[1:]), [vec[-1]]]))
        base = evaluate_cost(problem, y, u).total
        for delta in (0.1, 0.05, 0.025):
            u_pert = Trajectory(grid, "nodes", u.values + delta * v.values)
            y_pert = solve_state(problem, u_pert)
            dj = evaluate_cost(problem, y_pert, u_pert).total - base
            print(f"    delta = {delta:5.3f}: J(u + delta v) - J(u) = {dj:+.6e}")
        expansion = fd_expansion_check(problem, u, v)
        print(f"    expansion residual ratios: "
              f"{', '.join(f'{r:.3f}' for r in expansion.ratios)}")


if __name__ == "__main__":
    main()
