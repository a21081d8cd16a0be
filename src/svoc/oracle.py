"""Independent brute-force checks of everything the library asserts.

Nothing here reuses the model shortcuts it validates: cost differences come
only from forward solves, analytic solutions come from series summation, and
ratio tables measure Taylor orders directly.  Both expansion checks take the
control u* and read one sweep, `state._march_sweep`: the reference state y*,
the forward solves at u* + delta v and the first-order response Y1.  It
decides whether these share the one forward solver's operator I - A and then
marches them as its columns, which factors each leaf once for all of them;
otherwise it marches y* alone and the checks march the rest one by one.  The
check stays independent: each column takes the products its own march takes,
from the same leaf inverses each march would form for itself, so each state
is the forward solve bit for bit.  The second-order model is
`quadratic_form`, the one implementation of QF[v], fed Y1: Y1 is the product
of the response kernel Q with v, so no Q is built."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adjoint import solve_adjoint
from .errors import SeriesError
from .optimality import _instant_curvature, hamiltonian_fields, quadratic_form
from .problem import ProblemSpec, builtin_problem
from .quadrature import make_grid
from .state import Trajectory, _march_sweep, evaluate_cost, solve_state, solve_y1, solve_y2

DEFAULT_DELTAS = (1e-2, 5e-3, 2.5e-3)
EXACT_FLOOR = 1e-10  # below this the identity holds exactly and ratios are noise


def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) = sum_n z^n / Gamma(n alpha + 1) by direct Kahan summation.

    Terms are formed in log space to dodge intermediate overflow; the sum
    stops once terms are decreasing and negligible relative to the total, and
    fails at the first term that overflows or takes the total past the
    largest float, or when it stops with a term over 100 times its total: an
    alternating series (z < 0) that cancelled.
    """
    return float(_mittag_leffler_series(alpha, np.array([float(z)]))[0])


def _mittag_leffler_series(alpha: float, z: np.ndarray) -> np.ndarray:
    """mittag_leffler at every entry of z, raising the first failing entry's error."""
    out, errors = _mittag_leffler_entries(alpha, z)
    if errors:
        raise errors[min(errors)]
    return out


def _mittag_leffler_entries(alpha: float, z: np.ndarray) -> tuple[np.ndarray, dict]:
    """mittag_leffler at every entry of z, from that entry alone, and each failing
    entry's error by index: one Kahan sum over z, lgamma(n alpha + 1) once per n."""
    if alpha <= 0.0:
        raise ValueError(f"exponent must be positive, got {alpha}")
    out = np.ones(z.shape)
    errors = {int(i): ValueError(f"|z| <= 50 required, got {float(z[i])}")
              for i in np.flatnonzero(np.abs(z) > 50.0)}
    live = np.flatnonzero((z != 0.0) & ~(np.abs(z) > 50.0))
    log_az, neg = np.log(np.abs(z[live])), z[live] < 0.0
    total, comp, prev_mag = np.zeros(live.size), np.zeros(live.size), np.full(live.size, np.inf)
    peak = np.zeros(live.size)  # largest |term| so far
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats, no warnings
        for n in range(10_000):
            if not live.size:
                break
            log_mag = n * log_az - math.lgamma(n * alpha + 1.0)
            mag = np.exp(log_mag)
            term = np.where(neg, -mag, mag) if n % 2 == 1 else mag
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            np.maximum(peak, mag, out=peak)
            over = log_mag > 709.0
            sum_over = ~over & ~np.isfinite(total)
            done = over | sum_over | ((mag < prev_mag) & (mag < 1e-16 * np.abs(total)))
            for i in live[over]:
                errors[int(i)] = SeriesError(
                    f"series term overflow at n={n} for alpha={alpha}, z={float(z[i])}")
            for i in live[sum_over]:
                errors[int(i)] = SeriesError(
                    f"series sum overflow at n={n} for alpha={alpha}, z={float(z[i])}")
            if done.any():
                # past 100 |sum| the terms' rounding, n log|z| ulps each, can pass 1e-12
                cancelled = done & (peak > 100.0 * np.abs(total))
                for i, big, sum_ in zip(live[cancelled], peak[cancelled], total[cancelled]):
                    errors.setdefault(int(i), SeriesError(  # an overflow stays named as one
                        f"series cancelled: its largest term {big:.3g} exceeds 100 times its "
                        f"sum {sum_:.3g} for alpha={alpha}, z={float(z[i])}"))
                out[live[done]] = total[done]
                keep = ~done
                live, log_az, neg = live[keep], log_az[keep], neg[keep]
                total, comp, mag, peak = total[keep], comp[keep], mag[keep], peak[keep]
            prev_mag = mag
    for i in live:
        errors[int(i)] = SeriesError(
            f"no convergence in 10000 terms for alpha={alpha}, z={float(z[i])}")
    return out, errors


def linear_analytic_solution(lam: float, alpha: float, t: np.ndarray) -> np.ndarray:
    """Solution E_alpha(lam Gamma(alpha) t^alpha) of
    y = 1 + lam * int_0^t y(s) (t-s)^(alpha-1) ds."""
    return _mittag_leffler_series(alpha, lam * math.gamma(alpha) * np.asarray(t, float) ** alpha)


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
    variational: VariationalReport  # the check whose states gave delta_j


def fd_expansion_check(problem: ProblemSpec, control: Trajectory,
                       v: Trajectory) -> ExpansionReport:
    """Measure J(u* + delta v) - J(u*) along the control u* against the
    first- and second-order models on its grid; the cost difference is
    computed only through forward solves, at each delta of DEFAULT_DELTAS.

    The second-order model is `quadratic_form` fed the sweep's Y1, the
    paper's inner integral int_0^t Q(t,s) v(s) ds, so Q is never built.  The
    states, Y1 and y* are one march when they share an operator; otherwise
    y*, the base cost, the costate and fields, the states and Y1 are marched
    in that order, so a failure is the first of those."""
    grid = control.grid
    y_star, marched = _march_sweep(problem, control, v, DEFAULT_DELTAS)
    pair = (y_star, control)
    base = evaluate_cost(problem, y_star, control).total
    fields = hamiltonian_fields(problem, pair, solve_adjoint(problem, pair))
    # a Trajectory, so that an average which overflows raises here
    vm = Trajectory(grid, "midpoints", v.midpoint_values())
    hu_pairing = grid.h * float(np.dot(fields.h_u.values, vm.values))

    variational = _variational_report(problem, pair, v, marched)
    y1 = variational.y1
    nodes, weights = _instant_curvature(problem, y_star)
    qf = quadratic_form(fields, vm, y1.midpoint_values(), weights, y1.values[nodes])
    rows = []
    for delta, y_pert in zip(DEFAULT_DELTAS, variational.states):
        u_pert = Trajectory(grid, "nodes", control.values + delta * v.values)
        dj = evaluate_cost(problem, y_pert, u_pert).total - base
        model1 = -delta * hu_pairing
        model2 = model1 - 0.5 * delta**2 * qf
        rows.append(ExpansionRow(delta, dj, model1, model2, dj - model2))
    ratios = tuple(float("nan") if abs(a.residual) <= EXACT_FLOOR * (1.0 + abs(a.delta_j))
                   else b.residual / a.residual for a, b in zip(rows, rows[1:]))
    return ExpansionReport(tuple(rows), ratios, hu_pairing, qf, variational)


@dataclass(frozen=True)
class VariationalReport:
    deltas: tuple[float, ...]
    e1: tuple[float, ...]      # sup |(y^d - y*)/d - Y1|
    e2: tuple[float, ...]      # sup |(y^d - y*)/d - Y1 - (d/2) Y2|
    ratio1: tuple[float, ...]  # e1(d) / e1(d/2), ~2 at first order
    ratio2: tuple[float, ...]  # e2(d) / e2(d/2), ~4 at second order
    exact1: bool               # errors at the roundoff floor: identity exact
    exact2: bool
    y_star: Trajectory              # y(u*)
    states: tuple[Trajectory, ...]  # y(u* + d v), one per delta
    y1: Trajectory                  # first-order response to v along (y*, u*)


def variational_fd_check(problem: ProblemSpec, control: Trajectory,
                         v: Trajectory) -> VariationalReport:
    """Taylor-order measurement of the first- and second-order responses
    along the control u* on its grid; y*, the states y(u* + delta v), delta
    in DEFAULT_DELTAS, and Y1 are marched first and returned."""
    y_star, marched = _march_sweep(problem, control, v, DEFAULT_DELTAS)
    return _variational_report(problem, (y_star, control), v, marched)


def _variational_report(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                        v: Trajectory, marched) -> VariationalReport:
    """The report from the states and Y1 that `_march_sweep` marched, or,
    when marched is None, from the states marched one by one in the order
    of DEFAULT_DELTAS and then Y1."""
    y_star, control = pair
    grid = y_star.grid
    if marched is None:
        controls = (control.values + d * v.values for d in DEFAULT_DELTAS)
        states = tuple(solve_state(problem, Trajectory(grid, "nodes", u)) for u in controls)
        y1 = solve_y1(problem, pair, v)
    else:
        states, y1 = marched
    y2 = solve_y2(problem, pair, v, y1)
    scale = 1.0 + float(np.max(np.abs(y_star.values)))
    e1, e2 = [], []
    for delta, y_pert in zip(DEFAULT_DELTAS, states):
        diff = (y_pert.values - y_star.values) / delta
        e1.append(float(np.max(np.abs(diff - y1.values))))
        e2.append(float(np.max(np.abs(diff - y1.values - 0.5 * delta * y2.values))))

    def ratio_table(errors):
        return tuple(float("nan") if a <= EXACT_FLOOR * scale else a / b
                     for a, b in zip(errors, errors[1:]))

    return VariationalReport(
        DEFAULT_DELTAS, tuple(e1), tuple(e2), ratio_table(e1), ratio_table(e2),
        exact1=max(e1) <= EXACT_FLOOR * scale, exact2=max(e2) <= EXACT_FLOOR * scale,
        y_star=y_star, states=states, y1=y1)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    error: float  # relative sup error against the series solution
    order: float  # log2(e_prev/e) / log2(N/N_prev), NaN on the first row; IEEE at a zero e


@dataclass(frozen=True)
class ConvergenceReport:
    lam: float
    alpha: float
    rows: tuple[ConvergenceRow, ...]


def convergence_study(lam: float, alpha: float, ns) -> ConvergenceReport:
    """Sup-error table for the linear problem on [0, 1] against its series solution, summed
    once on all grids' nodes; after its march a grid raises its first failing node's error."""
    ns = [int(n) for n in ns]
    if any(n <= prev for prev, n in zip(ns, ns[1:])):
        raise ValueError(f"grid sizes must be strictly increasing, got {ns}")
    if not ns:
        return ConvergenceReport(lam, alpha, ())
    problem = builtin_problem("abel_linear", {"lam": lam, "alpha": alpha, "T": 1.0})
    grids = [make_grid(1.0, n) for n in ns]
    nodes = np.unique(np.concatenate([grid.nodes for grid in grids]))
    series, errors = _mittag_leffler_entries(alpha, lam * math.gamma(alpha) * nodes**alpha)
    rows, prev_n, prev_err = [], None, None
    for n, grid in zip(ns, grids):
        y = solve_state(problem, Trajectory.constant(0.0, grid))
        at = np.searchsorted(nodes, grid.nodes)
        failed = at[np.isin(at, list(errors))]
        if failed.size:
            raise errors[int(failed[0])]
        ref = series[at]
        err = float(np.max(np.abs(y.values - ref)) / np.max(np.abs(ref)))
        if prev_err is None or prev_err == err == 0.0:
            order = math.nan  # as 0/0; one zero error gives inf when it is e, -inf when e_prev
        else:
            order = (math.log2(prev_err / err) / math.log2(n / prev_n) if prev_err and err
                     else math.copysign(math.inf, prev_err - err))
        rows.append(ConvergenceRow(n, err, order))
        prev_n, prev_err = n, err
    return ConvergenceReport(lam, alpha, tuple(rows))


def project_control(problem: ProblemSpec, values: np.ndarray) -> np.ndarray:
    """Clip a control into the admissible box, if the problem declares one."""
    if problem.control_bounds is None:
        return values
    lo, hi = problem.control_bounds
    return np.clip(values, lo, hi)
