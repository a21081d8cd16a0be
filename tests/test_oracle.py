import dataclasses
import json
import math
import re

import mpmath
import numpy as np
import pytest

from svoc import oracle
from svoc.adjoint import snap_instants, solve_adjoint
from svoc.cli import run_command
from svoc.errors import SeriesError, StateBlowupError
from svoc.expr import parse_expression
from svoc import state
from svoc.oracle import (
    DEFAULT_DELTAS,
    convergence_study,
    fd_expansion_check,
    linear_analytic_solution,
    mittag_leffler,
    project_control,
    variational_fd_check,
)
from svoc.optimality import assemble_m_kernel, hamiltonian_fields, quadratic_form
from svoc.problem import BUILTIN_SIGNATURES, ProblemSpec, builtin_problem, load_problem_file
from svoc.quadrature import make_grid
from svoc.resolvent import build_q_kernel
from svoc.state import Trajectory, evaluate_cost, solve_state, solve_y1


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


def scalar_mittag_leffler(alpha, z):
    """The one-node Kahan sum the array series replaced, kept as its reference."""
    if z == 0.0:
        return 1.0
    log_az = math.log(abs(z))
    total = comp = 0.0
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
        if not math.isfinite(total):
            raise SeriesError(f"series sum overflow at n={n} for alpha={alpha}, z={z}")
        if mag < prev_mag and mag < 1e-16 * abs(total):
            return total
        prev_mag = mag
    raise SeriesError(f"no convergence in 10000 terms for alpha={alpha}, z={z}")


def test_mittag_leffler_stops_at_the_term_whose_sum_overflows():
    # no single term passes e^709, but their total does
    with pytest.raises(SeriesError, match=r"^series sum overflow at n=\d+ ") as got:
        mittag_leffler(0.3, 7.2)
    with pytest.raises(SeriesError, match=re.escape(str(got.value))):
        scalar_mittag_leffler(0.3, 7.2)
    with pytest.raises(SeriesError, match="series sum overflow"):
        linear_analytic_solution(3.0, 0.3, make_grid(1.0, 512).nodes)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("lam", [-1.1, 0.8, 3.0])
def test_linear_solution_matches_the_scalar_series(lam, alpha):
    # the `converge --ns 512,1024,2048,4096` ladder; every 16th node and the
    # last against the scalar sum.  Each term carries a few ulps, so the two
    # sums differ by a few ulps of sum |term| = E_alpha(|z|), not of |E_alpha(z)|.
    # At lam = -1.1, alpha = 0.3 the alternating series cancels to noise from
    # some node on, and the array sum refuses it there.
    for n in (512, 1024, 2048, 4096):
        t = make_grid(1.0, n).nodes
        z_all = lam * math.gamma(alpha) * t**alpha
        z = z_all[list(range(0, n, 16)) + [n]]
        if (lam, alpha) == (-1.1, 0.3):
            with pytest.raises(SeriesError, match="series cancelled") as got:
                linear_analytic_solution(lam, alpha, t)
            assert any(str(got.value).endswith(f"z={float(x)}") for x in z_all)
            continue
        try:
            want = [scalar_mittag_leffler(alpha, float(x)) for x in z]
        except SeriesError:  # lam = 3, alpha = 0.3: the sum overflows from some node on
            with pytest.raises(SeriesError) as got:
                linear_analytic_solution(lam, alpha, t)
            # the error names the first failing node, as the node-by-node loop did
            i = next(i for i, x in enumerate(z_all) if str(got.value).endswith(f"z={float(x)}"))
            with pytest.raises(SeriesError, match=re.escape(str(got.value))):
                scalar_mittag_leffler(alpha, float(z_all[i]))
            scalar_mittag_leffler(alpha, float(z_all[i - 1]))
            continue
        got = linear_analytic_solution(lam, alpha, t)[list(range(0, n, 16)) + [n]]
        scale = [scalar_mittag_leffler(alpha, abs(float(x))) for x in z]
        assert np.all(np.abs(got - want) <= 2e-14 * np.array(scale))


def mpmath_mittag_leffler(alpha, z, digits=60):
    """sum_n z^n / Gamma(alpha n + 1) with `digits` digits, up to the first
    term past the largest that is below 10^-digits of the sum."""
    if z == 0.0:
        return 1.0
    with mpmath.workdps(digits):
        z, a, eps = mpmath.mpf(z), mpmath.mpf(alpha), mpmath.mpf(10) ** -digits
        total, prev, n = mpmath.mpf(0), mpmath.inf, 0
        while True:
            term = z**n / mpmath.gamma(a * n + 1)
            total += term
            if abs(term) < prev and abs(term) < eps * abs(total):
                return float(total)
            prev, n = abs(term), n + 1


@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
def test_mittag_leffler_is_right_or_refused(alpha):
    # an alternating series whose largest term swamps its sum is refused;
    # every value it gives is right
    z = np.concatenate((np.linspace(-50.0, 0.0, 201), -np.geomspace(1e-6, 1.0, 25)))
    values, errors = oracle._mittag_leffler_entries(alpha, z)
    assert all(isinstance(error, SeriesError) for error in errors.values())
    assert any("series cancelled" in str(error) for error in errors.values())
    for i in sorted(set(range(z.size)) - set(errors)):
        want = mpmath_mittag_leffler(alpha, float(z[i]))
        assert abs(values[i] - want) <= 1e-12 * abs(want), (z[i], values[i], want)


@pytest.mark.parametrize("lam,alpha,ns", [(-1.0, 0.3, "64,128,256,512"),
                                          (-6.0, 0.5, "256,512,1024")])
def test_converge_refuses_a_cancelled_reference(tmp_path, capsys, lam, alpha, ns):
    argv = ["converge", "--lambda", str(lam), "--alpha", str(alpha), "--ns", ns,
            "--out", str(tmp_path)]
    assert run_command(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "series cancelled" in lines[0]
    assert not (tmp_path / "converge.csv").exists()


def test_linear_solution_degenerate_case():
    t = np.linspace(0.0, 1.0, 9)
    assert np.array_equal(linear_analytic_solution(0.0, 0.5, t), np.ones(9))


# --- convergence table --------------------------------------------------------

def test_convergence_zero_coefficient_is_exact():
    # every error is 0, so no order is measured: 0/0 is NaN, not inf
    report = convergence_study(0.0, 0.5, [8, 16, 32])
    assert all(row.error == 0.0 for row in report.rows)
    assert all(math.isnan(row.order) for row in report.rows)


def test_convergence_order_at_one_zero_error_is_infinite(monkeypatch):
    # the march on the middle grid alone is replaced by the series itself:
    # an error that drops to 0 has order inf, one that rises from 0 has -inf
    def march(problem, control, grid):
        if grid.n == 16:
            return solve_state(problem, control, grid)
        return Trajectory(grid, "nodes", linear_analytic_solution(1.0, 0.5, grid.nodes))

    monkeypatch.setattr(oracle, "solve_state", march)
    report = convergence_study(1.0, 0.5, [8, 16, 32])
    assert [row.error == 0.0 for row in report.rows] == [True, False, True]
    assert [row.order for row in report.rows][1:] == [-math.inf, math.inf]


def test_convergence_errors_decrease():
    report = convergence_study(1.0, 0.5, [64, 128, 256])
    errors = [row.error for row in report.rows]
    assert errors[0] > errors[1] > errors[2]
    assert math.isnan(report.rows[0].order)
    for row in report.rows[1:]:
        assert 0.7 <= row.order <= 1.2  # measured 0.92 / 0.97


def grid_by_grid_study(lam, alpha, ns):
    """The errors of convergence_study with the series run on each grid in
    turn, after that grid's march: the loop the one shared series replaced."""
    errors = []
    for n in ns:
        problem = builtin_problem("abel_linear", {"lam": lam, "alpha": alpha, "T": 1.0})
        grid = make_grid(1.0, n)
        y = solve_state(problem, Trajectory.constant(0.0, grid), grid)
        ref = linear_analytic_solution(lam, alpha, grid.nodes)
        errors.append(float(np.max(np.abs(y.values - ref)) / np.max(np.abs(ref))))
    return errors


@pytest.mark.parametrize("lam, alpha", [(0.8, 0.5), (-1.1, 0.3), (1.0, 0.8)])
def test_convergence_errors_match_the_grid_by_grid_series(lam, alpha):
    ns = [512, 1024, 2048, 4096]
    if lam < 0:  # the series cancels from some node on: both refuse there
        with pytest.raises(SeriesError, match="series cancelled") as want:
            grid_by_grid_study(lam, alpha, ns)
        with pytest.raises(SeriesError, match=re.escape(str(want.value))):
            convergence_study(lam, alpha, ns)
        return
    report = convergence_study(lam, alpha, ns)
    assert [row.error for row in report.rows] == grid_by_grid_study(lam, alpha, ns)


# each series failure sits on the first grid, whose nodes hold the largest |z|
@pytest.mark.parametrize("lam, alpha, ns, error", [
    (1.0, 0.2, [4, 8, 16], SeriesError),           # the series sum overflows
    (-1.1, 0.2, [16, 64, 256], SeriesError),       # a term overflows; march 2 would blow up
    (-5.0, 0.3, [4, 8, 16], SeriesError),          # a term overflows; march 3 would blow up
    (20.0, 0.2, [4, 8, 16], ValueError),           # |z| > 50; march 2 would blow up
    (-20.0, 0.5, [16, 64, 256], StateBlowupError),  # march 1 blows up; the series would fail
    (1.0, 0.3, [16, 64, 256], StateBlowupError),   # march 3 blows up; the series holds
])
def test_convergence_failures_match_the_grid_by_grid_series(lam, alpha, ns, error):
    with pytest.raises(error) as want:
        grid_by_grid_study(lam, alpha, ns)
    with pytest.raises(error) as got:
        convergence_study(lam, alpha, ns)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


# --- cost expansion -----------------------------------------------------------

def test_expansion_is_exact_for_linear_cost():
    problem = ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("1"),
                          f=parse_expression("0.3*y + 0.7*u"),
                          g=parse_expression("0.9*u"))
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(1.0, grid)
    v = Trajectory.from_expression("sin(2*t)", grid)
    report = fd_expansion_check(problem, u, v)
    assert report.qf == 0.0
    for row in report.rows:
        assert abs(row.residual) <= 1e-8  # measured ~2e-16
    assert all(math.isnan(r) for r in report.ratios)


def test_expansion_measures_the_quadratic_term():
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 2048)
    u = Trajectory.constant(0.0, grid)
    v = Trajectory.constant(1.0, grid)
    report = fd_expansion_check(problem, u, v)
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
    report = fd_expansion_check(problem, u, v)
    assert report.hu_pairing == 0.0 and report.qf == 0.0
    assert all(row.delta_j == 0.0 and row.residual == 0.0 for row in report.rows)
    assert all(math.isnan(r) for r in report.ratios)


def lq_qf_gap(n):
    """|QF + central second difference of J at delta = 1e-2| on lq."""
    problem = builtin_problem("lq", {"a": 0.7, "b": -1.2, "r": 1.3})
    grid = make_grid(1.0, n)
    u = Trajectory.constant(0.4, grid)
    v = Trajectory.from_expression("cos(3*t)", grid)

    def cost(delta):
        control = Trajectory(grid, "nodes", u.values + delta * v.values)
        return evaluate_cost(problem, solve_state(problem, control, grid), control, grid).total

    delta = 1e-2
    second = (cost(delta) - 2.0 * cost(0.0) + cost(-delta)) / delta**2
    return abs(fd_expansion_check(problem, u, v).qf + second)


def test_quadratic_form_matches_the_discrete_second_variation():
    # QF reads the sweep's Y1, the discrete response the cost sees, so it
    # meets -d^2 J at O(h^2); the form read through Q missed it by 0.159 at
    # N = 384 and 0.040 at N = 1536
    coarse, fine = lq_qf_gap(384), lq_qf_gap(1536)
    assert coarse < 2e-4  # measured 1.19e-4
    assert fine <= coarse / 10.0  # measured 7.95e-6


def q_and_y1_forms(name, params, control, n):
    """QF[cos 3t] through Q, as `check --order 2` forms it, and through the
    sweep's Y1, as `verify` does, along the same pair."""
    problem = builtin_problem(name, params)
    grid = make_grid(1.0, n)
    u = Trajectory.from_expression(control, grid)
    v = Trajectory.from_expression("cos(3*t)", grid)
    report = fd_expansion_check(problem, u, v)
    pair = (report.variational.y_star, u)
    fields = hamiltonian_fields(problem, pair, solve_adjoint(problem, pair, grid), grid)
    m = assemble_m_kernel(problem, pair, fields, build_q_kernel(problem, pair, grid), grid)
    v_mid = Trajectory(grid, "midpoints", v.midpoint_values())
    return (quadratic_form(fields, v_mid, m.qm @ v_mid.values, m.weights, m.rows @ v_mid.values),
            report.qf)


@pytest.mark.parametrize("name, params, control", [
    ("lq", {"a": 0.7, "b": -1.2, "r": 1.3}, "0.4"),
    ("paper_example", {}, "0.3 + 0.2*sin(2*t)"),
])
def test_the_forms_through_q_and_through_y1_converge_together(name, params, control):
    # QM v and Y1 are two discretizations of the same response, so the two
    # forms meet at first order in h: measured 0.159 -> 0.040 on lq and
    # 0.139 -> 0.035 on paper_example, 3.98x each
    coarse, fine = (abs(q - y1) for q, y1 in (q_and_y1_forms(name, params, control, n)
                                               for n in (384, 1536)))
    assert fine * 3.5 <= coarse


CURVED_FILE = {"alpha": 0.5, "T": 1.0, "eta": "1",
               "f": "(1 + t)*y + u/(2 + t) + 0.3*y*u", "g": "y^2 + 0.5*y*u",
               "instant_costs": [{"t": 0.25, "h": "y^3"}, {"t": 0.7301, "h": "sin(y)"}]}


def curved_file(tmp_path):
    """A problem file whose form has every term: an H_yy tail, an H_yu cross
    term and two instants with curvature, one between nodes."""
    path = tmp_path / "curved.json"
    path.write_text(json.dumps(CURVED_FILE))
    return path


def test_verify_form_is_quadratic_form_fed_y1(tmp_path):
    problem = load_problem_file(curved_file(tmp_path))
    grid = make_grid(1.0, 64)
    u = Trajectory.constant(0.4, grid)
    v = Trajectory.from_expression("cos(3*t)", grid)
    report = fd_expansion_check(problem, u, v)
    y_star, y1 = report.variational.y_star, report.variational.y1
    pair = (y_star, u)
    fields = hamiltonian_fields(problem, pair, solve_adjoint(problem, pair, grid), grid)
    assert np.any(fields.h_yy.values) and np.any(fields.h_yu.values)
    nodes = [s.node_index for s in snap_instants(problem, grid)]
    weights = np.array([-ic.h_yy.evaluate(y=y_star.values[k])
                        for k, ic in zip(nodes, problem.bundle.instants)])
    assert len(weights) == 2 and np.all(weights != 0.0)
    v_mid = Trajectory(grid, "midpoints", v.midpoint_values())
    want = quadratic_form(fields, v_mid, y1.midpoint_values(), weights, y1.values[nodes])
    assert report.qf == want


class Counted:
    """An expression that records each evaluation."""

    def __init__(self, expression, calls):
        self.expression, self.calls = expression, calls

    def evaluate(self, **env):
        self.calls.append(env)
        return self.expression.evaluate(**env)


def test_each_instants_h_yy_is_evaluated_once_per_expansion_check(tmp_path, monkeypatch):
    problem = load_problem_file(curved_file(tmp_path))
    calls = []
    instants = tuple(dataclasses.replace(ic, h_yy=Counted(ic.h_yy, calls))
                     for ic in problem.bundle.instants)
    monkeypatch.setitem(problem.__dict__, "bundle",
                        dataclasses.replace(problem.bundle, instants=instants))
    grid = make_grid(1.0, 64)
    fd_expansion_check(problem, Trajectory.constant(0.4, grid),
                       Trajectory.from_expression("cos(3*t)", grid))
    assert len(calls) == len(instants) == 2


def test_verify_forms_qf_with_one_quadratic_form_call(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return quadratic_form(*args)

    monkeypatch.setattr(oracle, "quadratic_form", counted)
    assert run_command(["verify", "--problem", str(curved_file(tmp_path)), "--control", "0.4",
                        "--direction", "cos(3*t)", "--n", "64", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_quadratic_form_on_a_zero_response_is_the_curvature_term_alone():
    # Q = 0 on sing_quad at u = 0, so Y1 = 0 and QF is h sum H_uu v^2, the
    # same bits as the form read through Q
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    v = Trajectory.from_expression("cos(3*t)", grid)
    report = fd_expansion_check(problem, u, v)
    assert not np.any(report.variational.y1.values)
    pair = (report.variational.y_star, u)
    fields = hamiltonian_fields(problem, pair, solve_adjoint(problem, pair, grid), grid)
    m = assemble_m_kernel(problem, pair, fields, build_q_kernel(problem, pair, grid), grid)
    assert m.qm is None and not len(m.rows)
    v_mid = Trajectory(grid, "midpoints", v.midpoint_values())
    assert report.qf == quadratic_form(fields, v_mid, np.zeros(grid.n), m.weights, np.zeros(0))


def test_first_order_pairing_direct():
    # |dJ/delta + int H_u v| must halve with delta once delta dominates the
    # O(h) discretization bias; (0.08, 0.04, 0.02) stays on that side at N=2048
    problem = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    grid = make_grid(1.0, 2048)
    u = Trajectory.constant(1.0, grid)
    v = Trajectory.from_expression("cos(2*t)", grid)

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
    v = Trajectory.from_expression("sin(3*t)", grid)
    report = variational_fd_check(problem, u, v)
    assert report.exact1 and report.exact2
    assert all(math.isnan(r) for r in report.ratio1 + report.ratio2)


def test_variational_check_first_order_ratio_is_two():
    # y(u + delta v) - y(u) = c delta^2 W v^2 exactly, so e1 halves with delta
    # and the second-order correction absorbs the error completely
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    v = Trajectory.constant(1.0, grid)
    report = variational_fd_check(problem, u, v)
    assert not report.exact1
    assert report.exact2
    for r in report.ratio1:
        assert r == pytest.approx(2.0, rel=1e-9)


def test_variational_check_measures_orders_on_curved_dynamics():
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 512)
    u = Trajectory.constant(0.0, grid)
    v = Trajectory.constant(1.0, grid)
    report = variational_fd_check(problem, u, v)
    for r in report.ratio1:
        assert 1.5 <= r <= 2.5
    for r in report.ratio2:
        assert 3.0 <= r <= 5.0


@pytest.mark.parametrize("name, params, control, columns", [
    ("lq", {"a": 0.5, "b": -1.2, "r": 1.0}, 0.4, [5]),
    ("sing_quad", {"c": 1.0}, 0.2, [5]),
    ("paper_example", {}, 0.3, []),  # the slope is u, so every state has its own operator
    # the splits of f_y and f_u name other outer factors than f's split does:
    # 0.3*(1 + t)/(1 + t)^2 for 1/(1 + t), and (2 + t)/(2 + t)^2 for 1/(2 + t)
    ("0.3*y/(1 + t) + u", {}, 0.4, [5]),
    ("(1 + t)*y + u/(2 + t)", {}, 0.4, [5]),
    # b_u = y^0 reads y, whose samples the march itself would give
    ("0.3*y + u*y^0", {}, 0.4, []),
])
def test_sweep_shares_one_march_when_the_operators_agree(monkeypatch, name, params, control,
                                                          columns):
    # y*, the perturbed states and Y1 are the columns of one march when they
    # sample the same operator, and each equals its own march bit for bit
    if name in BUILTIN_SIGNATURES:
        problem = builtin_problem(name, params)
    else:
        problem = ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("1"),
                              f=parse_expression(name), g=parse_expression("y^2"))
    grid = make_grid(1.0, 700)
    u = Trajectory.constant(control, grid)
    pair = (solve_state(problem, u, grid), u)
    v = Trajectory.from_expression("cos(3*t)", grid)
    march, seen = state.linear_march, []

    def counted(w, a, b, g, d, guard):
        seen.append(len(d) if np.ndim(d) == 2 else 1)
        return march(w, a, b, g, d, guard)

    monkeypatch.setattr(state, "linear_march", counted)
    swept = state._march_sweep(problem, u, v, DEFAULT_DELTAS, grid)
    assert [c for c in seen if c > 1] == columns
    if not columns:
        assert swept is None
        return
    y_star, states, y1 = swept
    assert np.array_equal(y_star.values.view(np.int64), pair[0].values.view(np.int64))
    for delta, y in zip(DEFAULT_DELTAS, states):
        alone = solve_state(problem, Trajectory(grid, "nodes", u.values + delta * v.values), grid)
        assert y.values.tobytes() == alone.values.tobytes()
    assert y1.values.tobytes() == solve_y1(problem, pair, v, grid).values.tobytes()


@pytest.mark.parametrize("name, params, control", [
    ("lq", {"a": 0.5, "b": 1.0, "r": 1.0}, 1.0),
    ("paper_example", {}, 0.3),
])
def test_expansion_check_returns_the_variational_check_it_read(name, params, control):
    # fd_expansion_check marches no state of its own: its cost differences come
    # from the states of the variational check it returns, which matches a
    # standalone check bit for bit on every field verify.json writes
    problem = builtin_problem(name, params)
    grid = make_grid(1.0, 128)
    u = Trajectory.constant(control, grid)
    pair = (solve_state(problem, u, grid), u)
    v = Trajectory.from_expression("cos(3*t)", grid)
    inner = fd_expansion_check(problem, u, v).variational
    alone = variational_fd_check(problem, u, v)
    for key in ("deltas", "e1", "e2", "ratio1", "ratio2", "exact1", "exact2"):
        assert np.asarray(getattr(inner, key), float).tobytes() == \
            np.asarray(getattr(alone, key), float).tobytes(), key
    assert len(inner.states) == len(inner.deltas)
    for delta, state in zip(inner.deltas, inner.states):
        u_pert = Trajectory(grid, "nodes", u.values + delta * v.values)
        assert state.values.tobytes() == solve_state(problem, u_pert, grid).values.tobytes()
    assert inner.y_star.values.tobytes() == pair[0].values.tobytes()
    assert inner.y1.values.tobytes() == solve_y1(problem, pair, v, grid).values.tobytes()


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
