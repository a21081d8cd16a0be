"""The divide-and-conquer marches against the row-by-row formulas they replace.

Every rectangle march (state, first and second responses, costate) and every
tail quadrature (Hamiltonian fields, costate residual) is compared with the
direct O(N^2) row loop kept below, on grids on both sides of the 64- and
128-row leaves and of the block sizes above them, for t-free, single-term,
multi-term, affine-in-y and non-separable kernels.  Failures must name the
row the row loop names.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import svoc.adjoint
import svoc.quadrature
from svoc import state
from svoc.adjoint import (_tail_field, _tail_sums, adjoint_residual, snap_instants,
                          solve_adjoint)
from svoc.errors import AdjointStepError, NumericsError, StateBlowupError
from svoc.expr import parse_expression
from svoc.optimality import hamiltonian_fields
from svoc.problem import InstantCost, ProblemSpec, builtin_problem
from svoc.quadrature import (DIRECT, LEAF_CHUNK, LINEAR_LEAF, causal_march, linear_march,
                             make_grid, midpoint_weights, singular_weights)
from svoc.state import BLOWUP_LIMIT, Trajectory, evaluate_on, solve_state, solve_y1, solve_y2

GRIDS = [2, 3, 127, 128, 129, 257, 1000]
TOL = 1e-13
SPAN = LEAF_CHUNK * LINEAR_LEAF  # rows whose leaves a linear march inverts as one batch


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
        y[k] = eta[k] + w[k:0:-1] @ evaluate_on(problem.f, env, (k,))
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
        z[k] = w[k:0:-1] @ (coeff * z[:k] + source(slice(0, k), *samples))
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
            midpoint_weights(problem.alpha, grid))


def ref_row(expression, tau, ym, um, k):
    env = {"t": tau[k:], "s": tau[k], "y": ym[k], "u": um[k]}
    return evaluate_on(expression, env, (len(tau) - k,))


def ref_instant_rows(problem, grid, f_part, y_nodes, ym, um):
    """Rows 1[tau_k < t_i] f_part(t_i, tau_k, y*_k, u*_k) (t_i - tau_k)^(alpha-1) h_y^i,
    one part at a time: h_y^i, the live midpoints and the singular factor per part."""
    tau = grid.midpoints
    rows = np.zeros((len(problem.instant_costs), grid.n))
    for i, snap in enumerate(snap_instants(problem, grid)):
        hy = float(problem.bundle.instants[i].h_y.evaluate(y=y_nodes[snap.node_index]))
        live = tau < snap.snapped_time
        if hy == 0.0 or not live.any():
            continue
        env = {"t": snap.snapped_time, "s": tau[live], "y": ym[live], "u": um[live]}
        vals = evaluate_on(f_part, env, tau[live].shape)
        rows[i, live] = vals * (snap.snapped_time - tau[live]) ** (problem.alpha - 1.0) * hy
    return rows


def ref_adjoint(problem, pair, grid):
    n = grid.n
    tau, ym, um, mu = midpoint_data(problem, pair, grid)
    b = problem.bundle
    inst = ref_instant_rows(problem, grid, b.f_y, pair[0].values, ym, um)
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
    inst = ref_instant_rows(problem, grid, f_part, pair[0].values, ym, um)
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
    # f does not separate though f_y does: every march and field takes the row loop
    "mixed": (lambda: custom(0.5, "1", "0.3*y + sin(t*s)*u^2", "y^2 + u^2", [(0.5, "y")]),
              "0.3 + 0.2*sin(2*t)"),
    # affine in y, with outer factors singular at t = 0, which no row reads
    "singular_outer": (lambda: custom(0.5, "1", "0.3*y*u/sqrt(t) + s*u/t", "y^2 + u^2",
                                      [(0.5, "y")]), "0.5 - t"),
    # affine in y with four terms: the state march is linear too
    "affine_multi_term": (lambda: custom(0.5, "1 - t", "0.5*(1 + t)*y*u + 0.3*sin(t)*s*y"
                                         " + t^2*u^2 + 0.2*y/(1 + t)", "y^2 + u^2",
                                         [(0.61, "y^2")]), "0.3*cos(2*t)"),
}

# the `march` workload's problem file: paper_example's kernel
MARCH_PROBLEM = (0.5, "1 + t*sqrt(t)", "t*y*u", "y*u", [(1.0, "y")])


class Taken(Exception):
    """Raised by a patched march to name the path solve_state took."""


def state_path(problem):
    """'linear', 'stepped' or 'row loop': the march solve_state takes."""
    def taken(label):
        def march(*args):
            raise Taken(label)
        return march

    grid = make_grid(problem.T, 4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(state, "linear_march", taken("linear"))
        mp.setattr(state, "causal_march", taken("stepped"))
        try:
            state.solve_state(problem, Trajectory.constant(0.1, grid))
        except Taken as path:
            return path.args[0]
    return "row loop"


def test_kernels_take_the_intended_path():
    for name, (make, _) in KERNELS.items():
        assert (make().terms is None) == (name in ("non_separable", "mixed")), name
    assert len(KERNELS["multi_term"][0]().terms) == 3
    assert len(KERNELS["single_term"][0]().terms) == 1
    assert len(KERNELS["affine_multi_term"][0]().terms) == 4

    linear = [builtin_problem("paper_example"), builtin_problem("lq", {"a": 0.5, "b": 1, "r": 1}),
              builtin_problem("sing_quad", {"c": -1}), builtin_problem("abel_linear", {"lam": 0.8}),
              custom(*MARCH_PROBLEM), KERNELS["affine_multi_term"][0](),
              KERNELS["singular_outer"][0]()]
    assert [state_path(p) for p in linear] == ["linear"] * len(linear)
    stepped = [KERNELS["t_free"][0](), KERNELS["multi_term"][0](), custom(0.5, "1", "0.3*y^2", "y")]
    assert [state_path(p) for p in stepped] == ["stepped"] * len(stepped)
    assert state_path(KERNELS["non_separable"][0]()) == "row loop"
    assert state_path(KERNELS["mixed"][0]()) == "row loop"


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= TOL * np.max(np.abs(want))


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_marches_match_the_row_loop(kernel, n):
    make, control = KERNELS[kernel]
    problem = make()
    grid = make_grid(problem.T, n)
    u = Trajectory.from_expression(control, grid)
    y = solve_state(problem, u)
    assert_close(y.values, ref_state(problem, u.values, grid))

    pair = (y, u)
    v = Trajectory.from_expression("cos(3*t)", grid)
    y1 = solve_y1(problem, pair, v)
    assert_close(y1.values, ref_y1(problem, pair, v.values, grid))
    y2 = solve_y2(problem, pair, v, y1)
    assert_close(y2.values, ref_y2(problem, pair, v.values, y1.values, grid))

    psi = solve_adjoint(problem, pair)
    assert_close(psi.values, ref_adjoint(problem, pair, grid))

    b = problem.bundle
    fields = hamiltonian_fields(problem, pair, psi)
    for name in ("_u", "_uu", "_yy", "_yu"):
        want = ref_tail_field(problem, pair, grid, getattr(b, "f" + name),
                              getattr(b, "g" + name), psi.values)
        assert_close(getattr(fields, "h" + name).values, want)

    # off the solution, so the residual is O(1) rather than roundoff
    psi = psi.values + 0.1 * np.cos(3.0 * grid.midpoints)
    off = Trajectory(grid, "midpoints", psi)
    want = np.max(np.abs(ref_tail_field(problem, pair, grid, b.f_y, b.g_y, psi) - psi))
    assert_close(np.array(adjoint_residual(problem, pair, off)), want)


# --- failures at the same row ---------------------------------------------------

@pytest.mark.parametrize("f", ["(s - 0.375)/(s - 0.625)*y",  # separates
                               "(2 + sin(t*s))*(s - 0.375)/(s - 0.625)*y"])  # the row loop
def test_tail_field_names_the_first_non_finite_term_not_the_first_overflowing_sum(f):
    # with phi = 1.5e308, row 0's terms of f_y are finite but their sum
    # overflows; the pole in s on midpoint 2 gives the first term that is not finite
    grid = make_grid(1.0, 4)
    pair = (Trajectory.constant(1.0, grid), Trajectory.constant(0.0, grid))
    problem = custom(0.5, "1", f, "0")
    [(field, first_bad)] = _tail_field(problem, pair, grid, ("_y",), np.full(grid.n, 1.5e308))
    assert not np.isfinite(field[0])
    assert first_bad == 2


# --- every Hamiltonian partial from one pass over the pair ------------------------

HAMILTONIAN_PARTS = ("_u", "_uu", "_yy", "_yu")


def one_part_tail_field(problem, pair, grid, part, phi):
    """The field of one part with its own samples and its own correlation, and
    where it fails: each Hamiltonian partial alone, as `_tail_field` took it
    before the parts shared one pass."""
    n = grid.n
    tau, ym, um, mu = midpoint_data(problem, pair, grid)
    f_part, g_part = getattr(problem.bundle, "f" + part), getattr(problem.bundle, "g" + part)
    with np.errstate(all="ignore"):
        if problem.terms is not None:
            a, (b,) = state._term_samples(problem, tau, {"s": tau, "y": ym, "u": um}, (part,))
            x = a * phi
            bad = ~(np.isfinite(x).all(axis=0) & np.isfinite(b).all(axis=0))
            tail = np.sum(b * _tail_sums(x, mu), axis=0)
        else:
            tail, bad = np.empty(n), np.zeros(n, dtype=bool)
            for k in range(n):
                terms = ref_row(f_part, tau, ym, um, k) * phi[k:]
                tail[k] = mu[: n - k] @ terms
                bad[k] = not np.isfinite(tail[k]) and not np.isfinite(terms).all()
    inst = ref_instant_rows(problem, grid, f_part, pair[0].values, ym, um)
    g = evaluate_on(g_part, {"t": tau, "y": ym, "u": um}, tau.shape)
    field = tail - g - inst.sum(axis=0)
    bad |= ~(np.isfinite(g) & np.isfinite(inst).all(axis=0))
    if not bad.any():
        bad = ~np.isfinite(field)
    return field, (int(np.argmax(bad)) if bad.any() else None)


def one_part_free_terms(problem, grid, y_nodes, ym, um, parts):
    """`adjoint._free_terms` with each part's own instant rows."""
    tau = grid.midpoints
    b = problem.bundle
    return [(evaluate_on(getattr(b, "g" + part), {"t": tau, "y": ym, "u": um}, tau.shape),
             ref_instant_rows(problem, grid, getattr(b, "f" + part), y_nodes, ym, um))
            for part in parts]


def bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def count_tail_sums(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _tail_sums(*args)

    monkeypatch.setattr(svoc.adjoint, "_tail_sums", counted)
    return calls


ONE_PASS = {
    "paper_example": (lambda: builtin_problem("paper_example"), "0.3 + 0.2*sin(2*t)"),
    "lq": (lambda: builtin_problem("lq", {"a": 0.7, "b": -1.2, "r": 1.3}), "0.4"),
    "sing_quad_c=1": (lambda: builtin_problem("sing_quad", {"c": 1}), "0"),
    "sing_quad_c=-1": (lambda: builtin_problem("sing_quad", {"c": -1}), "0"),
    "three_terms_two_instants": (lambda: custom(0.5, "1", "sin(t)*y + cos(t)*u^2 + t*y*u",
                                                "y^2 + u^2", [(0.5, "y^2"), (1.0, "y")]),
                                 "0.3 + 0.2*sin(2*t)"),
    "non_separable": KERNELS["non_separable"],
}


@pytest.mark.parametrize("n", [3, 200])
@pytest.mark.parametrize("case", sorted(ONE_PASS))
def test_hamiltonian_fields_take_one_correlation_and_each_partials_own_bits(case, n,
                                                                             monkeypatch):
    make, control = ONE_PASS[case]
    problem = make()
    grid = make_grid(problem.T, n)
    u = Trajectory.from_expression(control, grid)
    pair = (solve_state(problem, u), u)
    psi = solve_adjoint(problem, pair)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svoc.adjoint, "_free_terms", one_part_free_terms)
        want = solve_adjoint(problem, pair)
    assert np.array_equal(bits(psi.values), bits(want.values))
    calls = count_tail_sums(monkeypatch)
    fields = hamiltonian_fields(problem, pair, psi)
    assert len(calls) == (problem.terms is not None)  # the row loop correlates nothing
    for part in HAMILTONIAN_PARTS:
        want, first_bad = one_part_tail_field(problem, pair, grid, part, psi.values)
        assert first_bad is None
        assert np.array_equal(bits(getattr(fields, "h" + part).values), bits(want)), part
    [(field, first_bad)] = _tail_field(problem, pair, grid, ("_y",), psi.values)
    want = one_part_tail_field(problem, pair, grid, "_y", psi.values)
    assert np.array_equal(bits(field), bits(want[0])) and first_bad == want[1] is None


class Counted:
    """An expression that records each evaluation."""

    def __init__(self, expression, calls):
        self.expression, self.calls = expression, calls

    def evaluate(self, **env):
        self.calls.append(env)
        return self.expression.evaluate(**env)


@pytest.mark.parametrize("case", ["three_terms_two_instants", "non_separable"])
def test_each_instants_h_y_is_evaluated_once_per_call(case, monkeypatch):
    make, control = ONE_PASS[case]
    problem = make()
    grid = make_grid(problem.T, 64)
    u = Trajectory.from_expression(control, grid)
    pair = (solve_state(problem, u), u)
    calls = []
    instants = tuple(dataclasses.replace(ic, h_y=Counted(ic.h_y, calls))
                     for ic in problem.bundle.instants)
    monkeypatch.setitem(problem.__dict__, "bundle",
                        dataclasses.replace(problem.bundle, instants=instants))
    psi = solve_adjoint(problem, pair)
    assert len(calls) == len(instants)
    hamiltonian_fields(problem, pair, psi)
    assert len(calls) == 2 * len(instants)
    adjoint_residual(problem, pair, psi)
    assert len(calls) == 3 * len(instants)


def test_a_pole_of_a_term_reaches_only_the_partials_that_read_it(monkeypatch):
    # y*u/(t - 0.625) has a pole on midpoint 2 and b_uu = b_yy = 0, so H_u and
    # H_yu fail there while H_yy (from 0.3*y^2 alone) and H_uu stay finite
    problem = custom(0.5, "1", "0.3*y^2 + y*u/(t - 0.625)", "y^2 + u^2", [(0.5, "y")])
    grid = make_grid(1.0, 4)
    pair = (Trajectory.constant(1.0, grid), Trajectory.constant(0.2, grid))
    psi = Trajectory(grid, "midpoints", np.cos(grid.midpoints))
    calls = count_tail_sums(monkeypatch)
    got = _tail_field(problem, pair, grid, HAMILTONIAN_PARTS, psi.values)
    assert len(calls) == 1
    for part, (field, first_bad) in zip(HAMILTONIAN_PARTS, got):
        want, want_bad = one_part_tail_field(problem, pair, grid, part, psi.values)
        assert first_bad == want_bad, part
        assert np.array_equal(bits(field), bits(want)), part
    assert [first_bad for _, first_bad in got] == [2, None, None, 2]
    with pytest.raises(NumericsError, match=r"field H_u is not finite at midpoint 2 \(t = 0.625\)"):
        hamiltonian_fields(problem, pair, psi)
    assert len(calls) == 2


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
        solve_state(problem, u)
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
            solve_state(problem, u)
    assert got.value.index == want.value.index


def assert_backward_failure_at_the_row_loop_index(f, gap):
    # 1 - mu_0 f_y is gap where u = 1, i.e. below t = 0.5
    grid = make_grid(1.0, 1000)
    K = (1.0 - gap) / float(midpoint_weights(0.5, grid)[0])
    problem = custom(0.5, "1", f.format(K=K), "y^2")
    u = Trajectory(grid, "nodes", np.where(grid.nodes <= 0.5, 1.0, 0.0))
    pair = (Trajectory.constant(1.0, grid), u)
    with pytest.raises(AdjointStepError) as want:
        ref_adjoint(problem, pair, grid)
    with pytest.raises(AdjointStepError) as got:
        solve_adjoint(problem, pair)
    assert got.value.index == want.value.index
    assert grid.n - 1 - got.value.index > 128  # rows marched before the failure


@pytest.mark.parametrize("f", ["{K}*y*u", "{K}*(1 + t - s)*y*u"])
def test_degenerate_backward_step_is_reported_at_the_row_loop_index(f):
    assert_backward_failure_at_the_row_loop_index(f, 0.0)


@pytest.mark.parametrize("f", ["{K}*y*u", "{K}*(1 + t - s)*y*u"])
def test_small_backward_coefficient_is_reported_at_the_row_loop_index(f):
    # the costate stays finite, so only the coefficient test stops the march
    assert_backward_failure_at_the_row_loop_index(f, 1e-13)


@pytest.mark.parametrize("f, c", [("{c}*y", 6), ("{c}*y", 15), ("{c}*t*y*u", 15),
                                  ("{c}*t*y*u", 20), ("{c}*(1 + t)*y*u + sin(t)*s*u^2", 6),
                                  ("{c}*(1 + t)*y*u + sin(t)*s*u^2", 15)])
def test_linear_blowup_is_reported_at_the_row_loop_index(f, c):
    # affine in y, so the state march is solved a leaf at a time; blows up
    # between rows 66 and 765 of 1000
    problem = custom(0.5, "1", f.format(c=c), "y")
    grid = make_grid(1.0, 1000)
    u = Trajectory.constant(0.5, grid)
    with pytest.raises(StateBlowupError) as want:
        ref_state(problem, u.values, grid)
    with pytest.raises(StateBlowupError) as got:
        solve_state(problem, u)
    assert LINEAR_LEAF < got.value.index == want.value.index


@pytest.mark.parametrize("crossing", [0.0625, 0.1265, 0.2545, 0.6])
def test_non_finite_linear_factor_is_reported_at_the_row_loop_index(crossing):
    # sqrt(crossing - s) is nan from row int(1000 crossing) + 1 on; 0.0625, 0.1265
    # and 0.2545 put the first nan sample on the last row of a leaf (rows 63,
    # 127 and 255): that leaf's rows stay finite, and the nan reaches the next
    # leaf through an FFT
    problem = custom(0.5, "1 + t", f"y*sqrt({crossing!r} - s)", "y")
    grid = make_grid(1.0, 1000)
    u = Trajectory.constant(0.0, grid)
    with np.errstate(all="ignore"):
        with pytest.raises(StateBlowupError) as want:
            ref_state(problem, u.values, grid)
        with pytest.raises(StateBlowupError) as got:
            solve_state(problem, u)
    assert got.value.index == want.value.index == int(1000 * crossing) + 2


@pytest.mark.parametrize("f, c", [("{c}*y", 4), ("{c}*t*y*u", 12),
                                  ("{c}*(1 + t)*y*u + sin(t)*s*u^2", 6)])
def test_linear_blowup_past_the_first_chunk_is_reported_at_the_row_loop_index(f, c):
    # blows up at rows 566, 885 and 581 of 1000, in the second chunk of leaves
    problem = custom(0.5, "1", f.format(c=c), "y")
    grid = make_grid(1.0, 1000)
    u = Trajectory.constant(0.5, grid)
    with pytest.raises(StateBlowupError) as want:
        ref_state(problem, u.values, grid)
    with pytest.raises(StateBlowupError) as got:
        solve_state(problem, u)
    assert SPAN < got.value.index == want.value.index


@pytest.mark.parametrize("crossing", [0.5105, 0.5745, 0.7005])
def test_non_finite_factor_past_the_first_chunk_is_reported_at_the_row_loop_index(crossing):
    # the first nan sample sits on row 511, the last row of the first chunk,
    # on row 575, the last row of the second chunk's first leaf, and on row 701
    problem = custom(0.5, "1 + t", f"y*sqrt({crossing!r} - s)", "y")
    grid = make_grid(1.0, 1000)
    u = Trajectory.constant(0.0, grid)
    with np.errstate(all="ignore"):
        with pytest.raises(StateBlowupError) as want:
            ref_state(problem, u.values, grid)
        with pytest.raises(StateBlowupError) as got:
            solve_state(problem, u)
    assert SPAN <= got.value.index == want.value.index == int(1000 * crossing) + 2


@pytest.mark.parametrize("order, f", [(1, "3.2*y*u + u"), (1, "3.4*y*u + u"),
                                      (2, "2.2*y*u + u + 40*y^2"), (2, "2.4*y*u + u + 40*y^2")])
def test_response_blowup_is_reported_at_the_row_loop_index(order, f):
    # f_y is the y*u coefficient along the pair; Y1, or Y2 from its 80 Y1^2
    # source while Y1 stays in range, leaves the trusted range past the first leaf
    problem = custom(0.5, "1", f, "y")
    grid = make_grid(1.0, 1000)
    pair = (Trajectory.constant(0.0, grid), Trajectory.constant(1.0, grid))
    v = Trajectory.constant(1.0, grid)
    ref, solve = (ref_y1, solve_y1) if order == 1 else (ref_y2, solve_y2)
    extra = () if order == 1 else (ref_y1(problem, pair, v.values, grid),)
    with pytest.raises(StateBlowupError) as want:
        ref(problem, pair, v.values, *extra, grid)
    extra = () if order == 1 else (Trajectory(grid, "nodes", extra[0]),)
    with pytest.raises(StateBlowupError) as got:
        solve(problem, pair, v, *extra)
    assert LINEAR_LEAF < got.value.index == want.value.index


def forward_substitution(w, a, b, g, d, s):
    n = len(w)
    x = np.zeros(n)
    for k in range(n):
        c = (b[:, :k] * x[:k] + g[:, :k]) @ w[k:0:-1]
        x[k] = s[k] * (d[k] + a[:, k] @ c)
    return x


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129, 700,
                               SPAN - 1, SPAN, SPAN + 1, 2 * SPAN, 2 * SPAN + 1])
def test_linear_march_matches_forward_substitution(n, m):
    rng = np.random.default_rng(10 * n + m)
    w = rng.uniform(-1.0, 1.0, n) / max(n, 1) ** 0.5
    a, b, g = (rng.standard_normal((m, n)) for _ in range(3))
    d, s = rng.standard_normal(n), rng.uniform(0.5, 1.5, n)
    got = linear_march(w, s * a, b, g, s * d, lambda lo, x: None)
    want = forward_substitution(w, a, b, g, d, s)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129, 700,
                               SPAN - 1, SPAN, SPAN + 1, 2 * SPAN, 2 * SPAN + 1])
def test_linear_march_columns_equal_their_own_marches(n, m):
    # four columns of g and d share a, b, s and w; each takes the products
    # it takes alone, so it equals its own march bit for bit
    rng = np.random.default_rng(10 * n + m)
    w = rng.uniform(-1.0, 1.0, n) / max(n, 1) ** 0.5
    a, b = rng.standard_normal((2, m, n))
    g, d, s = rng.standard_normal((4, m, n)), rng.standard_normal((4, n)), rng.uniform(0.5, 1.5, n)
    got = linear_march(w, s * a, b, g, s * d, lambda lo, x: None)
    assert got.shape == (4, n)
    for col in range(4):
        alone = linear_march(w, s * a, b, g[col], s * d[col], lambda lo, x: None)
        assert got[col].tobytes() == alone.tobytes()


@pytest.mark.parametrize("rows, named", [((SPAN + 70, SPAN + 65), 1), ((SPAN + 70, SPAN - 10), 2)])
def test_linear_march_names_the_first_bad_leaf_then_the_first_bad_column(rows, named):
    # column 1 turns non-finite at rows[0], column 2 at rows[1]: the march
    # guards a leaf's columns in order, so it names column 1's row when both
    # rows share a leaf and column 2's when that sits in an earlier leaf
    n, m = 2 * SPAN, 2
    rng = np.random.default_rng(rows[1])
    w = rng.uniform(-1.0, 1.0, n) / n**0.5
    a, b = rng.standard_normal((2, m, n))
    g, d = rng.standard_normal((3, m, n)), rng.standard_normal((3, n))
    d[1, rows[0]] = d[2, rows[1]] = np.nan

    def guard(lo, x):
        bad = ~np.isfinite(x)
        if bad.any():
            i = int(np.argmax(bad))
            raise StateBlowupError(lo + i, x[i])

    with np.errstate(invalid="ignore"):
        with pytest.raises(StateBlowupError) as got:
            linear_march(w, a, b, g, d, guard)
    assert got.value.index == rows[named - 1]


@pytest.mark.parametrize("where", ["a", "b", "g", "d", "s"])
@pytest.mark.parametrize("row", [SPAN - 1, SPAN, SPAN + 1, 2 * SPAN + 70])
def test_linear_march_names_the_first_non_finite_row(where, row):
    # a nan coefficient on one row; the row loop's first non-finite x is
    # that row, or the next one for b and g, which only later rows read
    n, m = 3 * SPAN, 2
    rng = np.random.default_rng(row)
    w = rng.uniform(-1.0, 1.0, n) / n**0.5
    coeff = {"a": rng.standard_normal((m, n)), "b": rng.standard_normal((m, n)),
             "g": rng.standard_normal((m, n)), "d": rng.standard_normal(n),
             "s": rng.uniform(0.5, 1.5, n)}
    coeff[where][..., row] = np.nan
    with np.errstate(invalid="ignore"):
        want = int(np.argmax(~np.isfinite(forward_substitution(w, *coeff.values()))))
    assert want == row + (where in "bg")

    def guard(lo, x):
        bad = ~np.isfinite(x)
        if bad.any():
            i = int(np.argmax(bad))
            raise StateBlowupError(lo + i, x[i])

    a, b, g, d, s = coeff.values()
    with pytest.raises(StateBlowupError) as got:
        linear_march(w, s * a, b, g, s * d, guard)
    assert got.value.index == want


def test_linear_march_memory_stays_linear():
    # the t*y*u state at N = 16384; the one-leaf-at-a-time solve peaked at 1.55 MB
    grid = make_grid(1.0, 16384)
    t = grid.nodes
    w = singular_weights(0.5, grid)
    args = (w, t[None, :], (0.3 + 0.2 * np.sin(2.0 * t))[None, :], 0.0, 1.0 + t * np.sqrt(t),
            state._guard_rows)
    linear_march(*args)
    tracemalloc.start()
    try:
        linear_march(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.55e6


@pytest.mark.parametrize("path,f", [("linear", "t*y*u"), ("stepped", "0.5*sin(y)*(1 + t) + u")])
def test_each_march_builds_its_own_tables_once(path, f, monkeypatch):
    # the leaf, dense Toeplitz and FFT tables of w: once per march, dropped
    # with it, and a second march over the same grid takes the same products
    problem = ProblemSpec(0.5, 1.0, parse_expression("1"), parse_expression(f),
                          parse_expression("y^2"))
    assert state_path(problem) == path
    calls = []
    toeplitz = svoc.quadrature._toeplitz
    monkeypatch.setattr(svoc.quadrature, "_toeplitz",
                        lambda *args: calls.append(args[1:]) or toeplitz(*args))
    grid = make_grid(1.0, 1100)
    u = Trajectory.from_expression("0.3 + 0.2*sin(2*t)", grid)
    first = solve_state(problem, u)
    built = len(calls)
    assert built and len(set(calls)) == built
    assert ((0, LINEAR_LEAF) in calls) == (path == "linear")
    again = solve_state(problem, u)
    assert calls[built:] == calls[:built] and again.values.tobytes() == first.values.tobytes()


@pytest.mark.parametrize("n", [1, 2, 63, 1536, 4097])
def test_tail_sums_match_the_direct_correlation(n):
    rng = np.random.default_rng(n)
    x, mu = rng.standard_normal((3, n)), rng.uniform(0.0, 1.0, n)
    want = np.array([np.correlate(row, mu, "full")[n - 1 :] for row in x])
    assert np.max(np.abs(_tail_sums(x, mu) - want)) <= 1e-13 * np.max(np.abs(want))


def test_causal_march_matches_direct_sums():
    # past 4 DIRECT rows the halves reach later rows by dense products, FFTs
    # and, where the end cuts a block short, direct sums
    rng = np.random.default_rng(7)
    for n in (1, 2, 128, 129, 256, 257, 700, 4 * DIRECT + 1, 8 * DIRECT + 77, 2000):
        w = rng.standard_normal(n)
        x = rng.standard_normal((n, 2))
        seen = np.zeros((n, 2))

        def step(k, c):
            seen[k] = c
            return x[k]

        causal_march(w, 2, step)
        want = np.array([w[k:0:-1] @ x[:k] for k in range(n)]).reshape(n, 2)
        assert np.max(np.abs(seen - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
