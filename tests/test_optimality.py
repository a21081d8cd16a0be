import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import svoc.optimality
from svoc.adjoint import adjoint_residual, snap_instants, solve_adjoint
from svoc.errors import KernelAsymmetryError, NumericsError
from svoc.expr import parse_expression
from svoc.optimality import (
    CROSS_TERM_CONVENTION,
    _quadratic_matrix,
    _symmetrized,
    assemble_m_kernel,
    default_tolerance,
    detect_singular,
    hamiltonian_fields,
    quadratic_form,
    second_order_test,
)
from svoc.oracle import fd_expansion_check
from svoc.problem import InstantCost, ProblemSpec, builtin_problem
from svoc.quadrature import make_grid, midpoint_weights
from svoc.resolvent import build_q_kernel, midpoint_apply_matrix
from svoc.state import Trajectory, evaluate_cost, evaluate_on, solve_state


def fields_for(problem, grid, control_value=0.0):
    u = Trajectory.constant(control_value, grid)
    y = solve_state(problem, u, grid)
    adj = solve_adjoint(problem, (y, u), grid)
    return (y, u), hamiltonian_fields(problem, (y, u), adj, grid)


def q_route_form(fields, m, v):
    """QF[v] with Q's response to v: QM v on midpoints (zero when M holds no
    QM) and the node rows of Q times v at the instants with curvature."""
    qv = np.zeros(m.grid.n) if m.qm is None else m.qm @ v.values
    return quadratic_form(fields, v, qv, m.weights, m.rows @ v.values)


# --- Hamiltonian fields -------------------------------------------------------

def test_benchmark_fields_at_rest_control():
    # psi = 0 kills the integral part; what is left is -g_u minus the
    # instant row, both in closed form
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 256)
    (y, u), fields = fields_for(problem, grid)
    tau = grid.midpoints
    ym = y.midpoint_values()
    expect_hu = -ym - ym / np.sqrt(1.0 - tau)
    assert np.max(np.abs(fields.h_u.values - expect_hu)) <= 1e-12
    verdict = detect_singular(fields)
    assert not verdict.singular
    assert verdict.sup_hu == pytest.approx(-expect_hu[-1])
    assert verdict.argmax_time == pytest.approx(tau[-1])


def test_quadratic_problem_fields_closed_form():
    # psi = -2 and f_uu = 2c give H_uu = -8 c sqrt(1 - tau); H_u vanishes
    # identically so the rest control is singular
    for c in (1.0, -2.5):
        problem = builtin_problem("sing_quad", {"c": c})
        grid = make_grid(1.0, 128)
        _, fields = fields_for(problem, grid)
        tau = grid.midpoints
        assert np.max(np.abs(fields.h_u.values)) == 0.0
        expect = -8.0 * c * np.sqrt(1.0 - tau)
        assert np.max(np.abs(fields.h_uu.values - expect)) <= 1e-12
        verdict = detect_singular(fields)
        assert verdict.singular
        assert verdict.sup_hu == 0.0


def test_default_tolerance_tracks_curvature():
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 128)
    _, fields = fields_for(problem, grid)
    scale = float(np.max(np.abs(fields.h_uu.values)))
    assert default_tolerance(fields) == pytest.approx(1e-6 * (1.0 + scale))


def test_detection_with_explicit_gradient():
    # b = 0 hides the control from the dynamics; H_u = -g_u = -2ru* exactly
    problem = builtin_problem("lq", {"a": 0.5, "b": 0.0, "r": 1.0})
    grid = make_grid(1.0, 64)
    _, fields = fields_for(problem, grid, control_value=1.0)
    verdict = detect_singular(fields)
    assert not verdict.singular
    assert verdict.sup_hu == pytest.approx(2.0, abs=1e-14)
    assert detect_singular(fields, tol=3.0).singular  # loose tolerance flips it


FIELD_PARTIALS = {"h_u": "_u", "h_uu": "_uu", "h_yy": "_yy", "h_yu": "_yu",
                  "costate_rhs": "_y"}


def dense_fields(problem, pair, psi_vals, grid):
    """Each field by the dense n x n formula: psi @ (W * F) with the tail
    weights W[j, k] = mu[j - k] on j >= k.  "costate_rhs" is the same integral
    with f_y and g_y, the right-hand side of the costate equation."""
    y_star, u_star = pair
    n = grid.n
    tau = grid.midpoints
    ym = y_star.midpoint_values()
    um = u_star.midpoint_values()
    b = problem.bundle
    mu = midpoint_weights(problem.alpha, grid)
    snaps = snap_instants(problem, grid)
    d = np.subtract.outer(np.arange(n), np.arange(n))
    W = np.where(d >= 0, mu[d.clip(min=0)], 0.0)
    upper = d >= 0

    def field(f_part, g_part):
        env = {"t": tau[:, None], "s": tau[None, :], "y": ym[None, :], "u": um[None, :]}
        with np.errstate(all="ignore"):
            F = np.broadcast_to(np.asarray(f_part.evaluate(**env), dtype=float), (n, n))
        F = np.where(upper, F, 0.0)
        vals = psi_vals @ (W * F)
        vals = vals - evaluate_on(g_part, {"t": tau, "y": ym, "u": um}, tau.shape)
        for snap, ic in zip(snaps, b.instants):
            hy = float(ic.h_y.evaluate(y=y_star.values[snap.node_index]))
            live = tau < snap.snapped_time
            if hy != 0.0:
                env = {"t": snap.snapped_time, "s": tau[live], "y": ym[live], "u": um[live]}
                vals[live] -= (evaluate_on(f_part, env, tau[live].shape) * hy
                               * (snap.snapped_time - tau[live]) ** (problem.alpha - 1.0))
        return vals

    return {name: field(getattr(b, "f" + sfx), getattr(b, "g" + sfx))
            for name, sfx in FIELD_PARTIALS.items()}


def off_node_instants():
    # instant times between nodes; every partial of f but f_yu = 2u reads t
    return ProblemSpec(
        alpha=0.4, T=1.0, eta=parse_expression("1"),
        f=parse_expression("0.5*sin(t)*s*sin(y) + (1 + t)*u^2 + y*u^2"),
        g=parse_expression("y^2 + t*u^2"),
        instant_costs=(InstantCost(0.4301, parse_expression("y^2")),
                       InstantCost(0.77, parse_expression("sin(y)"))),
    )


REFERENCE_CASES = {
    "lq": (lambda: builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0}), "0.3"),
    "sing_quad": (lambda: builtin_problem("sing_quad", {"c": 1.0}), "0.5"),
    "paper_example": (lambda: builtin_problem("paper_example"), "0.3 + 0.2*sin(2*t)"),
    "off_node_instants": (off_node_instants, "0.2 - 0.1*cos(3*t)"),
}


@pytest.mark.parametrize("n", [2, 3, 17, 64])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_fields_and_residual_match_dense_reference(case, n):
    make_problem, control = REFERENCE_CASES[case]
    problem = make_problem()
    grid = make_grid(problem.T, n)
    u = Trajectory.from_expression(control, grid)
    pair = (solve_state(problem, u, grid), u)
    psi = solve_adjoint(problem, pair, grid)

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    fields = hamiltonian_fields(problem, pair, psi, grid)
    want = dense_fields(problem, pair, psi.values, grid)
    for name in ("h_u", "h_uu", "h_yy", "h_yu"):
        assert_close(getattr(fields, name).values, want[name])

    # off the solution, so the residual is O(1) rather than roundoff
    tau = grid.midpoints
    off = Trajectory(grid, "midpoints", psi.values + 0.1 * np.cos(3.0 * tau))
    rhs = dense_fields(problem, pair, off.values, grid)["costate_rhs"]
    assert_close(np.array(adjoint_residual(problem, pair, off, grid)),
                 np.max(np.abs(rhs - off.values)))


def test_fields_hold_no_dense_table():
    problem = builtin_problem("paper_example")  # f_u, f_y and f read t
    n = 1024
    grid = make_grid(1.0, n)
    u = Trajectory.constant(0.5, grid)
    pair = (solve_state(problem, u, grid), u)
    adj = solve_adjoint(problem, pair, grid)
    tracemalloc.start()
    try:
        hamiltonian_fields(problem, pair, adj, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (n + 1) ** 2 * 8


# --- aggregated curvature kernel ------------------------------------------------

def test_curvature_kernel_zero_when_response_kernel_is_zero():
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 64)
    pair, fields = fields_for(problem, grid)
    q = build_q_kernel(problem, pair, grid)
    assert q.is_zero
    m = assemble_m_kernel(problem, pair, fields, q, grid)
    assert m.qm is None and m.tail is None and not len(m.rows)


def test_curvature_kernel_zero_without_state_curvature():
    problem = ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("1"),
                          f=parse_expression("0.3*y + 0.7*u"),
                          g=parse_expression("0.9*u"))
    grid = make_grid(1.0, 64)
    pair, fields = fields_for(problem, grid, control_value=1.0)
    q = build_q_kernel(problem, pair, grid)
    assert not q.is_zero
    m = assemble_m_kernel(problem, pair, fields, q, grid)
    assert m.qm is None and m.tail is None and not len(m.rows)  # no factor reads QM: no GEMM


def test_curvature_kernel_against_series_quadrature():
    # constant-coefficient dynamics admit a series response kernel; the
    # aggregate -2 int Q(t,a) Q(t,b) dt is then computable to high precision
    problem = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 0.0})
    grid = make_grid(1.0, 64)
    pair, fields = fields_for(problem, grid, control_value=1.0)
    q = build_q_kernel(problem, pair, grid)
    m = assemble_m_kernel(problem, pair, fields, q, grid)
    assert not len(m.rows)  # the tail factor alone: lq has no instants
    L = midpoint_apply_matrix(q, grid)
    assert np.array_equal(m.qm, L)
    M = L.T @ (L * m.tail[:, None]) / grid.h**2
    K = _quadratic_matrix(fields, m, grid)
    assert np.max(np.abs(K - K.T)) == 0.0

    mpmath.mp.dps = 20
    gam = mpmath.gamma(0.5)

    def q_series(t, s):
        return mpmath.fsum(
            0.5 ** (k - 1) * gam**k * (t - s) ** (0.5 * k - 1.0) / mpmath.gamma(0.5 * k)
            for k in range(1, 40)
        )

    tau = grid.midpoints
    for ia, ib in [(5, 20), (10, 40), (30, 50)]:
        exact = -2.0 * float(mpmath.quad(
            lambda t: q_series(t, tau[ia]) * q_series(t, tau[ib]),
            [max(tau[ia], tau[ib]), 1.0],
        ))
        rel = abs(M[ia, ib] - exact) / abs(exact)
        assert rel <= 5e-2  # measured 3.1e-3 .. 5.0e-3


# --- quadratic form ---------------------------------------------------------------

def test_quadratic_form_closed_value():
    # QF[v=1] = int -8c sqrt(1-t) dt * ... = -(16/3) c at alpha = 1/2, T = 1
    grid = make_grid(1.0, 1024)
    for c, sign in ((1.0, -1.0), (-1.0, 1.0)):
        problem = builtin_problem("sing_quad", {"c": c})
        pair, fields = fields_for(problem, grid)
        q = build_q_kernel(problem, pair, grid)
        m = assemble_m_kernel(problem, pair, fields, q, grid)
        v = Trajectory.constant(1.0, grid, "midpoints")
        qf = q_route_form(fields, m, v)
        assert qf == pytest.approx(sign * 16.0 / 3.0, abs=1e-2)  # measured off 1.5e-5
        zero = q_route_form(fields, m, Trajectory.constant(0.0, grid, "midpoints"))
        assert zero == 0.0


def test_quadratic_form_requires_midpoint_variation():
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 32)
    _, fields = fields_for(problem, grid)
    r, none = np.zeros(grid.n), np.zeros(0)
    with pytest.raises(ValueError, match="midpoints"):
        quadratic_form(fields, Trajectory.constant(1.0, grid), r, none, none)
    with pytest.raises(ValueError, match="midpoints"):
        quadratic_form(fields, Trajectory.constant(1.0, make_grid(1.0, 16), "midpoints"),
                       r, none, none)


def quadratic_setups():
    yield builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0}), 1.0
    # explicit state-control cross curvature exercises the C + C^T block
    yield ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("1"),
                      f=parse_expression("y + u"),
                      g=parse_expression("y^2 + 0.5*y*u")), 0.5
    # instant curvature on a non-zero Q exercises the instant rows of M,
    # one instant on a node and one between nodes
    yield ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("1"),
                      f=parse_expression("0.5*y + u"), g=parse_expression("u^2"),
                      instant_costs=(InstantCost(0.5, parse_expression("y^2")),
                                     InstantCost(0.7301, parse_expression("sin(y)")))), 0.5


def product_setups():
    """(name, problem, control, path) for Q's product with a variation."""
    yield "lq", builtin_problem("lq", {"a": 0.7, "b": -1.2, "r": 1.3}), 0.4, "table"
    yield "paper_example", builtin_problem("paper_example"), 0.3, "table"
    yield "sing_quad", builtin_problem("sing_quad", {"c": 1.0}), 0.2, "zero R"
    for name, (problem, value) in zip(("cross", "instants"), list(quadratic_setups())[1:]):
        yield name, problem, value, "table"
    # an f_u that reads s, and so varies along the grid
    yield "varying-g", ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("1"),
                                   f=parse_expression("0.5*y + (1 + s^2)*u^2"),
                                   g=parse_expression("y^2")), 0.3, "table"


def response_product(q, v, grid):
    """(QM v)_k by rows of R's table, not by QM's corner means: with the
    diagonal extension, the regular part of row k is
    h/4 sum_{i <= k} (R[k, i] + R[k + 1, i]) (v_i + v_{i-1}), v_{-1} = 0, as
    the corner averages of cells i - 1 and i share their column-i corners."""
    n, h = grid.n, grid.h
    tau = grid.midpoints
    mu = midpoint_weights(q.alpha, grid)
    c = np.broadcast_to(q.c_fn(tau[:, None], tau[None, :]), (n, n))
    out = np.array([c[k, : k + 1] @ (mu[k::-1] * v[: k + 1]) for k in range(n)])
    w = v.copy()
    w[1:] += v[:-1]
    R = q.regular
    x = R[:n, :n] @ w + R[1:, :n] @ w
    x[:-1] -= R.diagonal()[1:n] * w[1:]  # the gemv on row k + 1 reaches R[k + 1, k + 1]
    return out + 0.25 * h * x


@pytest.mark.parametrize("n", [2, 3, 33, 384])
@pytest.mark.parametrize("setup", [s[0] for s in product_setups()])
def test_response_product_matches_the_response_matrix(setup, n):
    [(problem, value, path)] = [s[1:] for s in product_setups() if s[0] == setup]
    grid = make_grid(1.0, n)
    u = Trajectory.constant(value, grid)
    q = build_q_kernel(problem, (solve_state(problem, u, grid), u), grid)
    assert q.regular.any() == (path == "table")
    v = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    want = response_product(q, v, grid)
    got = midpoint_apply_matrix(q, grid) @ v
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_matrix_and_functional_forms_agree():
    rng = np.random.default_rng(7)
    for problem, value in quadratic_setups():
        grid = make_grid(1.0, 128)
        pair, fields = fields_for(problem, grid, control_value=value)
        q = build_q_kernel(problem, pair, grid)
        m = assemble_m_kernel(problem, pair, fields, q, grid)
        K = _quadratic_matrix(fields, m, grid)
        for _ in range(20):
            vv = rng.uniform(-1.0, 1.0, grid.n)
            v = Trajectory(grid, "midpoints", vv)
            functional = q_route_form(fields, m, v)
            assert abs(float(vv @ K @ vv) - functional) <= 1e-10 * (1.0 + abs(functional))


def test_quadratic_form_scales_quadratically():
    problem = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    grid = make_grid(1.0, 128)
    pair, fields = fields_for(problem, grid, control_value=1.0)
    q = build_q_kernel(problem, pair, grid)
    m = assemble_m_kernel(problem, pair, fields, q, grid)
    v = Trajectory.from_expression("sin(3*t)", grid, "midpoints")
    v3 = Trajectory(grid, "midpoints", 3.0 * v.values)
    qf = q_route_form(fields, m, v)
    assert q_route_form(fields, m, v3) == pytest.approx(9.0 * qf, abs=1e-10 * (1 + abs(qf)))


# --- second-order verdicts ---------------------------------------------------------

def test_negative_curvature_holds():
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u, grid)
    fields = hamiltonian_fields(problem, (y, u), solve_adjoint(problem, (y, u), grid), grid)
    report = second_order_test(problem, (y, u), fields, grid)
    assert report.verdict == "holds"
    assert report.violating_direction is None
    assert report.matrix is not None
    # K is diagonal here (Q = 0): lambda_max is its largest entry,
    # -8 h sqrt(1 - tau) maximized at the last midpoint
    diag_max = float(np.max(np.diag(report.matrix)))
    assert report.lambda_max == pytest.approx(diag_max, abs=1e-14)
    assert report.lambda_max == pytest.approx(-8.0 * grid.h * math.sqrt(0.5 * grid.h), rel=1e-10)
    assert report.convention == CROSS_TERM_CONVENTION


def test_positive_curvature_violated_with_improving_direction():
    problem = builtin_problem("sing_quad", {"c": -1.0})
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u, grid)
    fields = hamiltonian_fields(problem, (y, u), solve_adjoint(problem, (y, u), grid), grid)
    report = second_order_test(problem, (y, u), fields, grid)
    assert report.verdict == "violated"
    assert report.lambda_max == pytest.approx(8.0 * grid.h * math.sqrt(1.0 - 0.5 * grid.h), rel=1e-10)

    vec = report.violating_direction
    assert vec.placement == "midpoints"
    peak = int(np.argmax(np.abs(vec.values)))
    assert vec.values[peak] == 1.0  # sup-norm one, positive at the peak
    assert peak == 0  # curvature 8 sqrt(1 - tau) is largest at the first midpoint

    # the direction must actually lower the cost
    nodes = np.concatenate([[vec.values[0]],
                            0.5 * (vec.values[:-1] + vec.values[1:]),
                            [vec.values[-1]]])
    base = evaluate_cost(problem, y, u, grid).total
    for delta in (0.1, 0.05):
        u_pert = Trajectory(grid, "nodes", u.values + delta * nodes)
        y_pert = solve_state(problem, u_pert, grid)
        assert evaluate_cost(problem, y_pert, u_pert, grid).total < base


def test_zero_form_still_holds():
    problem = ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("1"),
                          f=parse_expression("0.3*y"), g=parse_expression("y"))
    grid = make_grid(1.0, 64)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u, grid)
    fields = hamiltonian_fields(problem, (y, u), solve_adjoint(problem, (y, u), grid), grid)
    report = second_order_test(problem, (y, u), fields, grid)
    assert report.verdict == "holds"
    assert report.lambda_max == 0.0
    assert not report.matrix.any()


def test_nonsingular_control_is_inconclusive():
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 64)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u, grid)
    fields = hamiltonian_fields(problem, (y, u), solve_adjoint(problem, (y, u), grid), grid)
    report = second_order_test(problem, (y, u), fields, grid)
    assert report.verdict == "inconclusive"
    assert math.isnan(report.lambda_max)
    assert report.matrix is None
    assert report.violating_direction is None
    assert report.sup_hu > 1.0


EIGH, EIGVALSH = np.linalg.eigh, np.linalg.eigvalsh


def counted_eigensolvers(monkeypatch, eigvalsh=None):
    """Count calls of np.linalg.eigh and eigvalsh; eigvalsh may be replaced."""
    calls = {"eigh": 0, "eigvalsh": 0}

    def eigh(K):
        calls["eigh"] += 1
        return EIGH(K)

    def counted_eigvalsh(K):
        calls["eigvalsh"] += 1
        return (eigvalsh or EIGVALSH)(K)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    return calls


def sing_quad_report(c, n=256, tol=None):
    problem = builtin_problem("sing_quad", {"c": c})
    grid = make_grid(1.0, n)
    pair, fields = fields_for(problem, grid)
    return second_order_test(problem, pair, fields, grid, tol)


def test_holds_within_the_gershgorin_bound_takes_eigenvalues_alone(monkeypatch):
    # Q = 0, so K = diag(h H_uu): lambda_max is its largest entry, read with
    # no eigensolver and no symmetrizing pass
    def refuse(*args):
        raise AssertionError("diagonal K symmetrized")

    monkeypatch.setattr(svoc.optimality, "_symmetrized", refuse)
    calls = counted_eigensolvers(monkeypatch)
    report = sing_quad_report(1.0)
    assert report.verdict == "holds"
    assert calls == {"eigh": 0, "eigvalsh": 0}
    assert report.lambda_max == float(EIGH(report.matrix)[0][-1])  # K is diagonal: exact


def test_violation_takes_one_eigh_and_keeps_its_direction(monkeypatch):
    calls = counted_eigensolvers(monkeypatch)
    report = sing_quad_report(-1.0)
    assert report.verdict == "violated"
    assert calls == {"eigh": 1, "eigvalsh": 0}
    values, vectors = EIGH(report.matrix)
    vec = vectors[:, -1]
    assert report.lambda_max == float(values[-1])
    assert np.array_equal(report.violating_direction.values,
                          vec / vec[int(np.argmax(np.abs(vec)))])


def test_non_diagonal_form_below_the_bound_matches_eigh(monkeypatch):
    # paper_example at u = 0.3: K is dense, and tol = 1e9 lies far above its
    # Gershgorin bound; eigvalsh and eigh differ only at roundoff
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 256)
    pair, fields = fields_for(problem, grid, control_value=0.3)
    calls = counted_eigensolvers(monkeypatch)
    report = second_order_test(problem, pair, fields, grid, tol=1e9)
    assert report.verdict == "holds"
    assert calls == {"eigh": 0, "eigvalsh": 1}
    assert np.count_nonzero(report.matrix - np.diag(np.diagonal(report.matrix))) > 0
    reference = float(EIGH(report.matrix)[0][-1])
    assert abs(report.lambda_max - reference) <= 1e-12 * float(np.max(np.abs(report.matrix)))


def test_form_above_the_bound_takes_eigh_even_when_it_holds(monkeypatch):
    # y* = 0 and psi = 0 at u = 0, so the control is singular; the instant
    # curvature adds -2 q q^T to K = -2h I: lambda_max = -2h <= tol, while
    # the Gershgorin bound lies above tol
    problem = ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("0"),
                          f=parse_expression("0.5*y + u"), g=parse_expression("u^2"),
                          instant_costs=(InstantCost(0.5, parse_expression("y^2")),))
    grid = make_grid(1.0, 64)
    pair, fields = fields_for(problem, grid)
    calls = counted_eigensolvers(monkeypatch)
    report = second_order_test(problem, pair, fields, grid)
    assert svoc.optimality._gershgorin_bound(report.matrix) > report.tol
    assert report.verdict == "holds"
    assert calls == {"eigh": 1, "eigvalsh": 0}
    assert report.lambda_max == float(EIGH(report.matrix)[0][-1])
    assert report.lambda_max == pytest.approx(-2.0 * grid.h, rel=1e-12)


def test_eigenvalue_above_tol_falls_back_to_eigh(monkeypatch):
    # an eigvalsh that lands above tol (in practice only within roundoff of
    # it) hands the verdict to eigh; a dense K, as a diagonal one takes no
    # eigvalsh
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 256)
    pair, fields = fields_for(problem, grid, control_value=0.3)
    calls = counted_eigensolvers(monkeypatch, eigvalsh=lambda K: np.array([2e9]))
    report = second_order_test(problem, pair, fields, grid, tol=1e9)
    assert calls == {"eigh": 1, "eigvalsh": 1}
    assert report.verdict == "holds"
    assert report.lambda_max == float(EIGH(report.matrix)[0][-1]) < 1e9


def test_tiny_off_diagonal_entries_are_not_diagonal(monkeypatch):
    # entries of 1e-300 vanish in a rounded row sum, but not in the test
    # that sends K to eigvalsh
    K = sing_quad_report(1.0).matrix.copy()
    K[0, 1] = K[1, 0] = 1e-300
    K[5, 2] = K[2, 5] = -1e-300
    assert np.all(np.abs(K).sum(axis=1) - np.abs(np.diagonal(K)) == 0.0)
    assert not svoc.optimality._is_diagonal(K)
    monkeypatch.setattr(svoc.optimality, "_quadratic_matrix", lambda fields, m, grid: K)
    calls = counted_eigensolvers(monkeypatch)
    report = sing_quad_report(1.0)
    assert calls == {"eigh": 0, "eigvalsh": 1}
    assert report.verdict == "holds"
    assert report.lambda_max == float(EIGVALSH(K)[-1])


def test_symmetrizing_takes_one_temporary():
    n = 512
    rng = np.random.default_rng(3)
    A = rng.standard_normal((n, n))
    A += A.T
    A[1, 2] += 1e-15  # asymmetric at roundoff, inside the tolerance
    tracemalloc.start()
    try:
        S = _symmetrized(A, "quadratic form")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(S, 0.5 * (A + A.T))
    assert peak < 1.1 * A.nbytes


def test_quadratic_matrix_holds_three_tables_on_a_tail_term():
    # lq has H_yy = -2 and no cross term: K starts as QM's weighted product
    # and takes h H_uu on its diagonal in place, with the bits of
    # diag(h H_uu) + QM^T diag(tail) QM
    n = 512
    grid = make_grid(1.0, n)
    problem = builtin_problem("lq", {"a": 0.7, "b": -1.2, "r": 1.3})
    pair, fields = fields_for(problem, grid, control_value=0.4)
    m = assemble_m_kernel(problem, pair, fields, build_q_kernel(problem, pair, grid), grid)
    tracemalloc.start()
    try:
        K = _quadratic_matrix(fields, m, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured 2.03 with m's QM formed before the trace; with diag(h H_uu)
    # beside the product, 3.00
    assert peak < 2.5 * K.nbytes
    qm = m.qm
    assert np.array_equal(K, _symmetrized(np.diag(grid.h * fields.h_uu.values)
                                          + qm.T @ (qm * m.tail[:, None]), "quadratic form"))


def test_asymmetric_kernel_is_a_numerical_failure():
    with pytest.raises(KernelAsymmetryError, match="quadratic form asymmetry"):
        _symmetrized(np.triu(np.ones((16, 16))), "quadratic form")
    nan = np.eye(16)
    nan[3, 5] = nan[5, 3] = np.nan
    with pytest.raises(KernelAsymmetryError, match="asymmetry nan"):
        _symmetrized(nan, "quadratic form")  # fails closed
    assert issubclass(KernelAsymmetryError, NumericsError)


def test_response_matrix_is_built_once_per_pair(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return midpoint_apply_matrix(*args)

    monkeypatch.setattr(svoc.optimality, "midpoint_apply_matrix", counted)
    problem, value = list(quadratic_setups())[1]  # cross curvature: M and C both read Q
    grid = make_grid(1.0, 32)
    pair, fields = fields_for(problem, grid, control_value=value)
    assert second_order_test(problem, pair, fields, grid, tol=1e9).verdict != "inconclusive"
    assert len(calls) == 1
    calls.clear()
    fd_expansion_check(problem, pair[1], Trajectory.from_expression("cos(2*t)", grid))
    assert len(calls) == 0  # QF applies Q to v; only K tabulates QM


def test_curvature_kernel_grid_mismatch_rejected():
    problem = builtin_problem("sing_quad", {"c": 1.0})
    grid = make_grid(1.0, 32)
    pair, fields = fields_for(problem, grid)
    q = build_q_kernel(problem, pair, grid)
    with pytest.raises(ValueError, match="grid"):
        assemble_m_kernel(problem, pair, fields, q, make_grid(1.0, 16))
