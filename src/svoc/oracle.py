"""Independent brute-force checks of everything the library asserts.

Nothing here reuses the model shortcuts it validates: cost differences come
only from forward solves, analytic solutions come from series summation, and
ratio tables measure Taylor orders directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adjoint import solve_adjoint
from .errors import SeriesError
from .optimality import assemble_m_kernel, hamiltonian_fields, quadratic_form
from .problem import ProblemSpec, builtin_problem
from .quadrature import make_grid
from .resolvent import build_q_kernel
from .state import Trajectory, evaluate_cost, solve_state, solve_y1, solve_y2

DEFAULT_DELTAS = (1e-2, 5e-3, 2.5e-3)
EXACT_FLOOR = 1e-10  # below this the identity holds exactly and ratios are noise


def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) = sum_n z^n / Gamma(n alpha + 1) by direct Kahan summation.

    Terms are formed in log space to dodge intermediate overflow; the sum
    stops once terms are decreasing and negligible relative to the total.
    """
    if alpha <= 0.0:
        raise ValueError(f"exponent must be positive, got {alpha}")
    z = float(z)
    if abs(z) > 50.0:
        raise ValueError(f"|z| <= 50 required, got {z}")
    if z == 0.0:
        return 1.0
    log_az = math.log(abs(z))
    total = 0.0
    comp = 0.0
    prev_mag = math.inf
    for n in range(10_000):
        log_mag = n * log_az - math.lgamma(n * alpha + 1.0)
        if log_mag > 709.0:
            raise SeriesError(f"series term overflow at n={n} for alpha={alpha}, z={z}")
        mag = math.exp(log_mag)
        term = -mag if (z < 0.0 and n % 2 == 1) else mag
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if mag < prev_mag and mag < 1e-16 * abs(total):
            return total
        prev_mag = mag
    raise SeriesError(f"no convergence in 10000 terms for alpha={alpha}, z={z}")


def linear_analytic_solution(lam: float, alpha: float, t: np.ndarray) -> np.ndarray:
    """Solution of y = 1 + lam * int_0^t y(s) (t-s)^(alpha-1) ds."""
    z = lam * math.gamma(alpha)
    return np.array([mittag_leffler(alpha, z * ti**alpha) for ti in np.asarray(t, float)])


@dataclass(frozen=True)
class ExpansionRow:
    delta: float
    delta_j: float
    model1: float
    model2: float
    residual: float


@dataclass(frozen=True)
class ExpansionReport:
    rows: tuple[ExpansionRow, ...]
    ratios: tuple[float, ...]  # residual(delta/2) / residual(delta), NaN when exact
    hu_pairing: float          # int H_u v dt
    qf: float


def _check_deltas(deltas) -> tuple[float, ...]:
    deltas = tuple(float(d) for d in deltas)
    if not deltas or any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    if list(deltas) != sorted(deltas, reverse=True):
        raise ValueError("deltas must be decreasing")
    return deltas


def fd_expansion_check(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                       v: Trajectory, deltas=DEFAULT_DELTAS) -> ExpansionReport:
    """Measure J(u* + delta v) - J(u*) along the reference pair (y*, u*) against
    the first- and second-order models on the pair's grid; the cost difference
    is computed only through forward solves."""
    deltas = _check_deltas(deltas)
    y_star, u_star = pair
    grid = y_star.grid
    base = evaluate_cost(problem, y_star, u_star, grid).total

    adj = solve_adjoint(problem, pair, grid)
    fields = hamiltonian_fields(problem, pair, adj, grid)
    v_mid = Trajectory(grid, "midpoints", v.midpoint_values())
    hu_pairing = grid.h * float(np.dot(fields.h_u.values, v_mid.values))
    q = build_q_kernel(problem, pair, grid)
    m = assemble_m_kernel(problem, pair, fields, q, grid)
    qf = quadratic_form(fields, m, q, v_mid, grid)

    rows = []
    for delta in deltas:
        u_pert = Trajectory(grid, "nodes", u_star.values + delta * v.values)
        y_pert = solve_state(problem, u_pert, grid)
        dj = evaluate_cost(problem, y_pert, u_pert, grid).total - base
        model1 = -delta * hu_pairing
        model2 = model1 - 0.5 * delta**2 * qf
        rows.append(ExpansionRow(delta, dj, model1, model2, dj - model2))
    ratios = []
    for a, b in zip(rows, rows[1:]):
        if abs(a.residual) <= EXACT_FLOOR * (1.0 + abs(a.delta_j)):
            ratios.append(float("nan"))
        else:
            ratios.append(b.residual / a.residual)
    return ExpansionReport(tuple(rows), tuple(ratios), hu_pairing, qf)


@dataclass(frozen=True)
class VariationalReport:
    deltas: tuple[float, ...]
    e1: tuple[float, ...]      # sup |(y^d - y*)/d - Y1|
    e2: tuple[float, ...]      # sup |(y^d - y*)/d - Y1 - (d/2) Y2|
    ratio1: tuple[float, ...]  # e1(d) / e1(d/2), ~2 at first order
    ratio2: tuple[float, ...]  # e2(d) / e2(d/2), ~4 at second order
    exact1: bool               # errors at the roundoff floor: identity exact
    exact2: bool


def variational_fd_check(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                         v: Trajectory, deltas=DEFAULT_DELTAS) -> VariationalReport:
    """Taylor-order measurement of the first- and second-order responses on the
    pair's grid."""
    deltas = _check_deltas(deltas)
    y_star, u_star = pair
    grid = y_star.grid
    y1 = solve_y1(problem, pair, v, grid)
    y2 = solve_y2(problem, pair, v, y1, grid)
    scale = 1.0 + float(np.max(np.abs(y_star.values)))
    e1, e2 = [], []
    for delta in deltas:
        u_pert = Trajectory(grid, "nodes", u_star.values + delta * v.values)
        y_pert = solve_state(problem, u_pert, grid)
        diff = (y_pert.values - y_star.values) / delta
        e1.append(float(np.max(np.abs(diff - y1.values))))
        e2.append(float(np.max(np.abs(diff - y1.values - 0.5 * delta * y2.values))))

    def ratio_table(errors):
        out = []
        for a, b in zip(errors, errors[1:]):
            out.append(float("nan") if a <= EXACT_FLOOR * scale else a / b)
        return tuple(out)

    return VariationalReport(
        deltas, tuple(e1), tuple(e2), ratio_table(e1), ratio_table(e2),
        exact1=max(e1) <= EXACT_FLOOR * scale,
        exact2=max(e2) <= EXACT_FLOOR * scale,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    error: float  # relative sup error against the series solution
    order: float  # log2(e(N)/e(2N)), NaN on the first row


@dataclass(frozen=True)
class ConvergenceReport:
    lam: float
    alpha: float
    rows: tuple[ConvergenceRow, ...]


def convergence_study(lam: float, alpha: float, ns, T: float = 1.0) -> ConvergenceReport:
    """Sup-error table for the linear problem against its series solution."""
    rows = []
    prev_err = None
    for n in ns:
        n = int(n)
        problem = builtin_problem("abel_linear", {"lam": lam, "alpha": alpha, "T": T})
        grid = make_grid(T, n)
        control = Trajectory.constant(0.0, grid)
        y = solve_state(problem, control, grid)
        ref = linear_analytic_solution(lam, alpha, grid.nodes)
        err = float(np.max(np.abs(y.values - ref)) / np.max(np.abs(ref)))
        order = float("nan") if prev_err is None else math.log2(prev_err / err) if err > 0 else float("inf")
        rows.append(ConvergenceRow(n, err, order))
        prev_err = err
    return ConvergenceReport(lam, alpha, tuple(rows))


def project_control(problem: ProblemSpec, values: np.ndarray) -> np.ndarray:
    """Clip a control into the admissible box, if the problem declares one."""
    if problem.control_bounds is None:
        return values
    lo, hi = problem.control_bounds
    return np.clip(values, lo, hi)
