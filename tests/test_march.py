"""The divide-and-conquer marches against the row-by-row formulas they replace.

Every rectangle march (state, first and second responses, costate) and every
tail quadrature (Hamiltonian fields, costate residual) is compared with the
direct O(N^2) row loop kept below, on grids on both sides of the 128-row leaf
and of the block sizes above it, for t-free, single-term, multi-term and
non-separable kernels.
"""

import numpy as np
import pytest

from svoc.adjoint import (AdjointTrajectory, _instant_rows, adjoint_residual, snap_instants,
                          solve_adjoint)
from svoc.errors import AdjointStepError, StateBlowupError
from svoc.expr import parse_expression, separate
from svoc.optimality import hamiltonian_fields
from svoc.problem import InstantCost, ProblemSpec, builtin_problem
from svoc.quadrature import causal_march, make_grid, midpoint_weights, singular_weights
from svoc.state import BLOWUP_LIMIT, Trajectory, evaluate_on, solve_state, solve_y1, solve_y2

GRIDS = [2, 3, 127, 128, 129, 257, 1000]
TOL = 1e-13


# --- the row-loop reference -----------------------------------------------------

def ref_guard(k, value):
    if not np.isfinite(value) or abs(value) > BLOWUP_LIMIT:
        raise StateBlowupError(k, value)


def ref_state(problem, u, grid):
    t = grid.nodes
    w = singular_weights(problem.alpha, grid)
    eta = evaluate_on(problem.eta, {"t": t}, t.shape)
    y = np.zeros(grid.n + 1)
    y[0] = eta[0]
    for k in range(1, grid.n + 1):
        env = {"t": t[k], "s": t[:k], "y": y[:k], "u": u[:k]}
        y[k] = eta[k] + w.row(k) @ evaluate_on(problem.f, env, (k,))
        ref_guard(k, y[k])
    return y


def ref_response(problem, pair, grid, exprs, source):
    t = grid.nodes
    w = singular_weights(problem.alpha, grid)
    y, u = pair[0].values, pair[1].values
    z = np.zeros(grid.n + 1)
    for k in range(1, grid.n + 1):
        env = {"t": t[k], "s": t[:k], "y": y[:k], "u": u[:k]}
        coeff, *samples = (evaluate_on(e, env, (k,)) for e in (problem.bundle.f_y, *exprs))
        z[k] = w.row(k) @ (coeff * z[:k] + source(slice(0, k), *samples))
        ref_guard(k, z[k])
    return z


def ref_y1(problem, pair, v, grid):
    return ref_response(problem, pair, grid, (problem.bundle.f_u,),
                        lambda sl, fu: fu * v[sl])


def ref_y2(problem, pair, v, z1, grid):
    b = problem.bundle

    def source(sl, fyy, fyu, fuu):
        return fyy * z1[sl] ** 2 + 2.0 * fyu * z1[sl] * v[sl] + fuu * v[sl] ** 2

    return ref_response(problem, pair, grid, (b.f_yy, b.f_yu, b.f_uu), source)


def midpoint_data(problem, pair, grid):
    y_star, u_star = pair
    return (grid.midpoints, y_star.midpoint_values(), u_star.midpoint_values(),
            midpoint_weights(problem.alpha, grid).mu)


def ref_row(expression, tau, ym, um, k):
    env = {"t": tau[k:], "s": tau[k], "y": ym[k], "u": um[k]}
    return evaluate_on(expression, env, (len(tau) - k,))


def ref_adjoint(problem, pair, grid):
    n = grid.n
    tau, ym, um, mu = midpoint_data(problem, pair, grid)
    b = problem.bundle
    inst = _instant_rows(problem, grid, b.f_y, pair[0].values, ym, um,
                         snap_instants(problem, grid))
    gy = evaluate_on(b.g_y, {"t": tau, "y": ym, "u": um}, tau.shape)
    psi = np.zeros(n)
    for k in range(n - 1, -1, -1):
        fy = ref_row(b.f_y, tau, ym, um, k)
        rhs = mu[1 : n - k] @ (fy[1:] * psi[k + 1 :]) - gy[k] - inst[:, k].sum()
        denom = 1.0 - mu[0] * fy[0]
        if abs(denom) < 1e-12:
            raise AdjointStepError(k, denom)
        psi[k] = rhs / denom
        if not np.isfinite(psi[k]):
            raise AdjointStepError(k, denom)
    return psi


def ref_tail_field(problem, pair, grid, f_part, g_part, phi):
    n = grid.n
    tau, ym, um, mu = midpoint_data(problem, pair, grid)
    with np.errstate(all="ignore"):
        tail = np.array([mu[: n - k] @ (ref_row(f_part, tau, ym, um, k) * phi[k:])
                         for k in range(n)])
    inst = _instant_rows(problem, grid, f_part, pair[0].values, ym, um,
                         snap_instants(problem, grid))
    return tail - evaluate_on(g_part, {"t": tau, "y": ym, "u": um}, tau.shape) - inst.sum(axis=0)


# --- kernels --------------------------------------------------------------------

def custom(alpha, eta, f, g, instants=()):
    return ProblemSpec(alpha=alpha, T=1.0, eta=parse_expression(eta), f=parse_expression(f),
                       g=parse_expression(g),
                       instant_costs=tuple(InstantCost(t, parse_expression(h))
                                           for t, h in instants))


KERNELS = {
    # f ignores t: one term (1, f)
    "t_free": (lambda: custom(0.5, "1 + t", "0.5*y + u - 0.3*y^2*u", "y^2 + u^2",
                              [(0.43, "y^2")]), "0.3 + 0.2*sin(2*t)"),
    "single_term": (lambda: builtin_problem("paper_example"), "0.3 + 0.2*sin(2*t)"),
    "multi_term": (lambda: custom(0.4, "1", "0.5*sin(t)*s*sin(y) + (1 + t)*u^2 + y*u^2/(1 + t)",
                                  "y^2 + t*u^2", [(0.4301, "y^2"), (0.77, "sin(y)")]),
                   "0.2 - 0.1*cos(3*t)"),
    "non_separable": (lambda: custom(0.6, "1", "sin(t*s)*y*u + 0.5*exp(-t*s)*y", "y^2 + t*u^2",
                                     [(0.5, "y")]), "0.4 + 0.1*t"),
}


def test_kernels_take_the_intended_path():
    for name, (make, _) in KERNELS.items():
        b = make().bundle
        parts = (b.f, b.f_y, b.f_u, b.f_yy, b.f_yu, b.f_uu)
        separated = [separate(e) is not None for e in parts]
        assert all(separated) if name != "non_separable" else not any(separated[:3])
    assert len(separate(KERNELS["multi_term"][0]().f)) == 3
    assert len(separate(KERNELS["single_term"][0]().f)) == 1


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= TOL * np.max(np.abs(want))


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_marches_match_the_row_loop(kernel, n):
    make, control = KERNELS[kernel]
    problem = make()
    grid = make_grid(problem.T, n)
    u = Trajectory.from_expression(control, grid)
    y = solve_state(problem, u, grid)
    assert_close(y.values, ref_state(problem, u.values, grid))

    pair = (y, u)
    v = Trajectory.from_expression("cos(3*t)", grid)
    y1 = solve_y1(problem, pair, v, grid)
    assert_close(y1.values, ref_y1(problem, pair, v.values, grid))
    y2 = solve_y2(problem, pair, v, y1, grid)
    assert_close(y2.values, ref_y2(problem, pair, v.values, y1.values, grid))

    adj = solve_adjoint(problem, pair, grid)
    assert_close(adj.psi.values, ref_adjoint(problem, pair, grid))

    b = problem.bundle
    fields = hamiltonian_fields(problem, pair, adj, grid)
    for name in ("", "_u", "_uu", "_yy", "_yu"):
        want = ref_tail_field(problem, pair, grid, getattr(b, "f" + name),
                              getattr(b, "g" + name), adj.psi.values)
        assert_close(getattr(fields, "h" + name).values, want)

    # off the solution, so the residual is O(1) rather than roundoff
    psi = adj.psi.values + 0.1 * np.cos(3.0 * grid.midpoints)
    off = AdjointTrajectory(Trajectory(grid, "midpoints", psi), adj.instant_terms, adj.snaps)
    want = np.max(np.abs(ref_tail_field(problem, pair, grid, b.f_y, b.g_y, psi) - psi))
    assert_close(np.array(adjoint_residual(problem, pair, off, grid)), want)


# --- failures at the same row ---------------------------------------------------

@pytest.mark.parametrize("f", ["{c}*y^2", "{c}*(1 + t)*y^2*(1 + u)",
                               "{c}*(sin(t) + 1)*y^2 + {c}*t*y*u"])
@pytest.mark.parametrize("c", [0.3, 0.4])
def test_blowup_is_reported_at_the_row_loop_index(f, c):
    # blows up between rows 144 and 639 of 1000, past the first leaf
    problem = custom(0.5, "1", f.format(c=c), "y")
    grid = make_grid(1.0, 1000)
    u = Trajectory.constant(0.5, grid)
    with pytest.raises(StateBlowupError) as want:
        ref_state(problem, u.values, grid)
    with pytest.raises(StateBlowupError) as got:
        solve_state(problem, u, grid)
    assert 128 < got.value.index == want.value.index


@pytest.mark.parametrize("crossing", [0.1265, 0.1275, 0.2535, 0.6])
def test_non_finite_sample_is_reported_at_the_row_loop_index(crossing):
    # the state crosses zero near `crossing`; sqrt(y) is nan from then on.
    # 0.1265 and 0.2535 put the first nan sample on the last row of a leaf
    # (rows 127 and 255), so it reaches the next row through an FFT
    problem = custom(0.5, f"{crossing!r} - t", "0.01*t*sqrt(y)", "y")
    grid = make_grid(1.0, 1000)
    u = Trajectory.constant(0.0, grid)
    with np.errstate(all="ignore"):
        with pytest.raises(StateBlowupError) as want:
            ref_state(problem, u.values, grid)
        with pytest.raises(StateBlowupError) as got:
            solve_state(problem, u, grid)
    assert got.value.index == want.value.index


@pytest.mark.parametrize("f", ["{K}*y*u", "{K}*(1 + t - s)*y*u"])
def test_degenerate_backward_step_is_reported_at_the_row_loop_index(f):
    # 1 - mu_0 f_y vanishes where u = 1, i.e. below t = 0.5
    grid = make_grid(1.0, 1000)
    K = 1.0 / float(midpoint_weights(0.5, grid).mu[0])
    problem = custom(0.5, "1", f.format(K=K), "y^2")
    u = Trajectory(grid, "nodes", np.where(grid.nodes <= 0.5, 1.0, 0.0))
    pair = (Trajectory.constant(1.0, grid), u)
    with pytest.raises(AdjointStepError) as want:
        ref_adjoint(problem, pair, grid)
    with pytest.raises(AdjointStepError) as got:
        solve_adjoint(problem, pair, grid)
    assert got.value.index == want.value.index
    assert grid.n - 1 - got.value.index > 128  # rows marched before the failure


def test_causal_march_matches_direct_sums():
    rng = np.random.default_rng(7)
    for n in (1, 2, 128, 129, 256, 257, 700):
        w = rng.standard_normal(n)
        x = rng.standard_normal((n, 2))
        seen = np.zeros((n, 2))

        def step(k, c):
            seen[k] = c
            return x[k]

        causal_march(w, 2, step)
        want = np.array([w[k:0:-1] @ x[:k] for k in range(n)]).reshape(n, 2)
        assert np.max(np.abs(seen - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
