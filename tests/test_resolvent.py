import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svoc.errors import KernelAssemblyError
from svoc.expr import parse_expression
from svoc.problem import ProblemSpec, builtin_problem
from svoc.quadrature import make_grid
from svoc.resolvent import (
    _BLOCK,
    apply_kernel_nodes,
    build_q_kernel,
    build_resolvent,
    midpoint_apply_matrix,
    node_apply_row,
    represent_solution,
    resolvent_residual,
)
from svoc.state import Trajectory, solve_state, solve_y1


def kernel_sup(phi, grid):
    """Max sampled |Phi| over the strict lower triangle."""
    k, j = np.tril_indices(grid.n + 1, k=-1)
    dt = (k - j) * grid.h
    vals = phi.sing_coeff[k, j] * dt ** (phi.alpha - 1.0) + phi.regular[k, j]
    return float(np.max(np.abs(vals)))


def test_zero_kernel_short_circuits():
    grid = make_grid(1.0, 32)
    phi = build_resolvent(lambda t, s: 0.0, 0.5, grid)
    assert phi.is_zero
    assert not phi.regular.any() and not phi.sing_coeff.any()
    eta = Trajectory.from_expression("1 + t^2", grid)
    rep = represent_solution(phi, eta, grid)
    assert np.array_equal(rep.values, eta.values)


def test_zero_free_term_maps_to_zero():
    grid = make_grid(1.0, 32)
    phi = build_resolvent(lambda t, s: 0.5, 0.5, grid)
    rep = represent_solution(phi, Trajectory.constant(0.0, grid), grid)
    assert np.max(np.abs(rep.values)) == 0.0


def test_kernel_value_decomposition_and_guards():
    grid = make_grid(1.0, 16)
    phi = build_resolvent(lambda t, s: 0.5, 0.5, grid)
    k, j = 10, 3
    dt = (k - j) * grid.h
    expect = phi.sing_coeff[k, j] * dt**-0.5 + phi.regular[k, j]
    assert phi.value(k, j) == pytest.approx(expect, rel=1e-15)
    with pytest.raises(IndexError):
        phi.value(3, 3)


def test_neumann_series_oracle():
    # constant kernel lam: the regular part sums the m >= 2 Neumann terms,
    # R(t, s) = sum_m (lam Gamma(alpha))^m (t-s)^(m alpha - 1) / Gamma(m alpha)
    lam, alpha = 1.0, 0.5
    grid = make_grid(1.0, 256)
    phi = build_resolvent(lambda t, s: lam, alpha, grid)
    series = sum(
        (lam * math.gamma(alpha)) ** m / math.gamma(m * alpha)
        for m in range(2, 40)
    )
    assert phi.regular[grid.n, 0] == pytest.approx(series, rel=5e-3)  # measured 2.4e-3


@given(st.floats(-1.0, 1.0))
@settings(deadline=None, max_examples=15)
def test_constant_kernel_resolvent_is_toeplitz(lam):
    grid = make_grid(1.0, 24)
    phi = build_resolvent(lambda t, s: lam, 0.5, grid)
    R = phi.regular
    scale = 1.0 + float(np.max(np.abs(R)))
    for k in range(1, grid.n + 1):
        for j in range(k):
            assert abs(R[k, j] - R[k - j, 0]) <= 1e-12 * scale


def test_representation_matches_direct_march():
    problem = builtin_problem("abel_linear", {"lam": 0.5})
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u, grid)
    phi = build_resolvent(lambda t, s: 0.5, 0.5, grid)
    rep = represent_solution(phi, Trajectory.from_expression("1", grid), grid)
    rel = np.max(np.abs(rep.values - y.values)) / np.max(np.abs(y.values))
    assert rel <= 1e-2  # measured 4.88e-3


def test_resolvent_identity_residual():
    # substituting Phi back into its defining equation at N=1024 must leave a
    # defect below 1e-3 relative to the kernel's sampled magnitude
    grid = make_grid(1.0, 1024)
    A = lambda t, s: 0.5
    phi = build_resolvent(A, 0.5, grid)
    residual = resolvent_residual(phi, A, grid)
    assert residual <= 1e-3 * (1.0 + kernel_sup(phi, grid))  # measured 7.97e-4


def test_assembly_failure_names_the_cell():
    # the first row whose quadrature reaches an infinite sample is 9
    # (t - s > 0.5 first holds for a half-cell sample at k - j = 9)
    bad = lambda t, s: np.where(t - s > 0.5, np.inf, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(KernelAssemblyError, match="non-finite") as exc:
            build_resolvent(bad, 0.5, make_grid(1.0, 16))
    assert (exc.value.row, exc.value.col) == (9, 0)


# --- reference: the same quadrature, one row at a time ---------------------------

class RowReference:
    """The resolvent and Q quadrature evaluated row by row with explicit
    half-cell masks: a slow, independent statement of the weights."""

    def __init__(self, alpha, grid):
        n, h = grid.n, grid.h
        self.n, self.grid = n, grid
        i = np.arange(n + 1, dtype=float)
        pa, ph = (i * h) ** alpha, ((i[:-1] + 0.5) * h) ** alpha
        self.q1 = ((i[:-1] + 0.25) * h) ** (alpha - 1.0)
        self.q3 = ((i[:-1] + 0.75) * h) ** (alpha - 1.0)
        self.wr1 = np.r_[0.0, (pa[1:] - ph) / alpha]
        self.wr2 = np.r_[0.0, (ph - pa[:-1]) / alpha]
        d = np.subtract.outer(np.arange(n), np.arange(n)).clip(min=0)
        self.wl1, self.wl2 = ((ph - pa[:-1]) / alpha)[d], ((pa[1:] - ph) / alpha)[d]
        self.q1d, self.q3d = self.q1[d], self.q3[d]

    def samples(self, fn):
        n, h, t = self.n, self.grid.h, self.grid.nodes
        cells = t[:-1]
        below = np.tril(np.ones((n, n), dtype=bool))
        rows = np.arange(n + 1)[:, None] > np.arange(n)[None, :]
        grab = lambda tt, ss, keep: np.where(keep, np.broadcast_to(fn(tt, ss), keep.shape), 0.0)
        return (grab(cells[:, None] + 0.25 * h, t[None, :-1], below),
                grab(cells[:, None] + 0.75 * h, t[None, :-1], below),
                grab(t[:, None], cells[None, :] + 0.25 * h, rows),
                grab(t[:, None], cells[None, :] + 0.75 * h, rows))

    def product_row(self, k, left1, left2, right1, right2):
        j, c = np.arange(k)[:, None], np.arange(k)[None, :]
        s = slice(0, k)
        half1 = np.where(2 * j - c < k, left1[s, s] * self.wl1[s, s] * self.q3[k - 1 - j],
                         left1[s, s] * self.q1d[s, s] * self.wr1[k - j])
        half2 = np.where(2 * j - c < k - 1, left2[s, s] * self.wl2[s, s] * self.q1[k - 1 - j],
                         left2[s, s] * self.q3d[s, s] * self.wr2[k - j])
        return right1[k, s] @ half1 + right2[k, s] @ half2

    def regular_row(self, k, R, right1, right2, last_row_known):
        V = R[: k + 1, :k].copy()
        idx = np.arange(k)
        V[idx, idx] = R[idx + 1, idx]
        V[k] = R[k, :k] if last_row_known else R[k - 1, :k]
        inside = np.tril(np.ones((k, k), dtype=bool))
        r1 = np.where(inside, 0.75 * V[:-1] + 0.25 * V[1:], 0.0)
        r2 = np.where(inside, 0.25 * V[:-1] + 0.75 * V[1:], 0.0)
        return (right1[k, :k] * self.wr1[k:0:-1]) @ r1 + (right2[k, :k] * self.wr2[k:0:-1]) @ r2

    @staticmethod
    def extend_diagonal(R):
        n = R.shape[0] - 1
        R[np.arange(n), np.arange(n)] = R[np.arange(1, n + 1), np.arange(n)]
        R[n, n] = R[n, n - 1]

    def resolvent(self, fn):
        smp = self.samples(fn)
        R = np.zeros((self.n + 1, self.n + 1))
        for known in (False, True):
            for k in range(1, self.n + 1):
                R[k, :k] = self.product_row(k, *smp) + self.regular_row(k, R, *smp[2:], known)
            self.extend_diagonal(R)
        return R

    def residual(self, fn, R):
        smp = self.samples(fn)
        return max(float(np.max(np.abs(self.product_row(k, *smp)
                                        + self.regular_row(k, R, *smp[2:], True) - R[k, :k])))
                   for k in range(1, self.n + 1))

    def q_regular(self, a_fn, c_fn, Rp):
        g1, g2, _, _ = self.samples(c_fn)
        _, _, a1, a2 = self.samples(a_fn)
        out = np.zeros((self.n + 1, self.n + 1))
        for k in range(1, self.n + 1):
            rp1 = 0.75 * Rp[k, :k] + 0.25 * Rp[k, 1 : k + 1]
            rp2 = 0.25 * Rp[k, :k] + 0.75 * Rp[k, 1 : k + 1]
            out[k, :k] = (self.product_row(k, g1, g2, a1, a2)
                          + rp1 @ (g1 * self.wl1)[:k, :k] + rp2 @ (g2 * self.wl2)[:k, :k])
        self.extend_diagonal(out)
        return out


def _max_rel(a, b):
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8])
@pytest.mark.parametrize("n", [2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5])
def test_blocked_assembly_matches_row_reference(alpha, n):
    # partial and empty blocks included; only the summation order differs
    grid = make_grid(1.0, n)
    ref = RowReference(alpha, grid)
    kernel = lambda t, s: 0.3 + 0.5 * np.sin(2 * t) * np.cos(s) + 0.2 * t * s
    phi = build_resolvent(kernel, alpha, grid)
    R = ref.resolvent(kernel)
    assert _max_rel(phi.regular, R) <= 1e-12
    res, res_ref = resolvent_residual(phi, kernel, grid), ref.residual(kernel, R)
    assert abs(res - res_ref) <= 1e-12 * res_ref

    problem = ProblemSpec(alpha, 1.0, parse_expression("1 + t"),
                          parse_expression("(0.4 + 0.3*t*s)*y*cos(u) + sin(t - s)*u"),
                          parse_expression("y^2"))
    u = Trajectory.from_expression("0.5 + sin(3*t)", grid)
    y = solve_state(problem, u, grid)
    q = build_q_kernel(problem, (y, u), grid)
    pair_fn = lambda e: lambda t, s: e.evaluate(
        t=t, s=s, y=np.interp(s, grid.nodes, y.values), u=np.interp(s, grid.nodes, u.values))
    a_fn, c_fn = pair_fn(problem.bundle.f_y), pair_fn(problem.bundle.f_u)
    assert _max_rel(q.regular, ref.q_regular(a_fn, c_fn, ref.resolvent(a_fn))) <= 1e-12


# --- response kernel ---------------------------------------------------------

def test_response_kernel_zero_fast_paths():
    grid = make_grid(1.0, 32)
    u = Trajectory.constant(0.0, grid)

    lin = builtin_problem("abel_linear", {"lam": 1.0})  # f_u = 0
    q = build_q_kernel(lin, (solve_state(lin, u, grid), u), grid)
    assert q.is_zero

    quad = builtin_problem("sing_quad", {"c": 1.0})  # f_u = 2cu = 0 at u* = 0
    q = build_q_kernel(quad, (solve_state(quad, u, grid), u), grid)
    assert q.is_zero
    assert not midpoint_apply_matrix(q, grid).any()
    assert not node_apply_row(q, grid.n, grid).any()


def test_zero_response_kernel_is_decided_from_node_values(monkeypatch):
    # f_u = 2cu ignores t, so every lattice sample would be a node value
    def refuse(*args):
        raise AssertionError("f_u sampled on a lattice")

    monkeypatch.setattr("svoc.resolvent._node_samples", refuse)
    grid = make_grid(1.0, 32)
    u = Trajectory.constant(0.0, grid)
    quad = builtin_problem("sing_quad", {"c": 1.0})
    q = build_q_kernel(quad, (solve_state(quad, u, grid), u), grid)
    assert q.is_zero
    assert q.sing_coeff.shape == q.regular.shape == (grid.n + 1, grid.n + 1)
    assert not q.sing_coeff.any() and not q.regular.any()


def test_response_kernel_closed_form_when_state_factor_drops():
    # bilinear benchmark at u* = 0: f_y = t u* = 0, so the resolvent vanishes
    # and Q(t, s) = t y*(s) (t-s)^(alpha-1) exactly
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u, grid)
    q = build_q_kernel(problem, (y, u), grid)
    assert not q.is_zero
    assert not q.regular.any()
    tri = np.tril(np.ones((grid.n + 1, grid.n + 1), dtype=bool))
    expect = np.outer(grid.nodes, y.values)
    assert np.max(np.abs(np.where(tri, q.sing_coeff - expect, 0.0))) <= 1e-12


def test_response_kernel_reproduces_first_response_exactly_when_resolvent_vanishes():
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u, grid)
    v = Trajectory.from_expression("1 - 0.5*t", grid)
    direct = solve_y1(problem, (y, u), v, grid)
    q = build_q_kernel(problem, (y, u), grid)
    routed = apply_kernel_nodes(q, v, grid)
    assert np.max(np.abs(routed.values - direct.values)) <= 1e-12  # measured 6.7e-16


def test_response_kernel_route_agrees_on_coupled_dynamics():
    problem = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(1.0, grid)
    y = solve_state(problem, u, grid)
    v = Trajectory.from_expression("cos(2*t)", grid)
    direct = solve_y1(problem, (y, u), v, grid)
    q = build_q_kernel(problem, (y, u), grid)
    routed = apply_kernel_nodes(q, v, grid)
    rel = np.max(np.abs(routed.values - direct.values)) / np.max(np.abs(direct.values))
    assert rel <= 1e-2  # measured 5.7e-3


def test_midpoint_apply_matrix_closed_form():
    # rows approximate int_0^tau Q(tau, s) ds = 2 tau^(3/2) + (3 pi / 8) tau^3
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u, grid)
    q = build_q_kernel(problem, (y, u), grid)
    qm = midpoint_apply_matrix(q, grid)
    assert np.array_equal(qm, np.tril(qm))
    tau = grid.midpoints
    closed = 2.0 * tau**1.5 + (3.0 * math.pi / 8.0) * tau**3
    rel = np.max(np.abs(qm @ np.ones(grid.n) - closed)) / np.max(np.abs(closed))
    assert rel <= 1e-4  # measured 1.59e-5


def test_node_apply_row_closed_form():
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u, grid)
    q = build_q_kernel(problem, (y, u), grid)
    assert not node_apply_row(q, 0, grid).any()
    with pytest.raises(IndexError):
        node_apply_row(q, grid.n + 1, grid)
    for i in (100, 256):
        total = node_apply_row(q, i, grid).sum()
        exact = 2.0 * grid.nodes[i] ** 1.5 + (3.0 * math.pi / 8.0) * grid.nodes[i] ** 3
        assert total == pytest.approx(exact, rel=5e-4)  # measured 6.2e-5
