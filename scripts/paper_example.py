"""Run the bilinear benchmark problem under its two known controls.

Both controls admit closed-form states (u=0 gives y = 1 + t^(3/2), u=-1/2
gives y = 1), so the marching error here is pure roundoff.  The first-order
check then shows u=0 is far from singular while the cost still drops from
2 to 1/2 when switching to the constant control -1/2.
"""

import argparse

import numpy as np

from svoc import (
    Trajectory,
    builtin_problem,
    detect_singular,
    evaluate_cost,
    hamiltonian_fields,
    make_grid,
    solve_adjoint,
    solve_state,
)


def run(n: int) -> None:
    problem = builtin_problem("paper_example")
    grid = make_grid(problem.T, n)
    t = grid.nodes

    for label, value, exact in [("u = 0", 0.0, 1.0 + t**1.5), ("u = -1/2", -0.5, np.ones_like(t))]:
        u = Trajectory.constant(value, grid)
        y = solve_state(problem, u)
        cost = evaluate_cost(problem, y, u)
        err = np.max(np.abs(y.values - exact))
        psi = solve_adjoint(problem, (y, u))
        fields = hamiltonian_fields(problem, (y, u), psi)
        verdict = detect_singular(fields)
        print(f"{label:10s}  J = {cost.total:+.12f}  state error = {err:.3e}  "
              f"sup|H_u| = {verdict.sup_hu:.4g} -> "
              f"{'singular' if verdict.singular else 'not singular'}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=256)
    run(ap.parse_args().n)
