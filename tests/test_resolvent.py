import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svoc.resolvent
from svoc.errors import KernelAssemblyError
from svoc.expr import parse_expression
from svoc.problem import ProblemSpec, builtin_problem
from svoc.quadrature import make_grid
from svoc.resolvent import (
    _BLOCK,
    _HalfCellTables,
    _lagged,
    _node_samples,
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
    vals = _node_samples(phi.c_fn, grid)[k, j] * dt ** (phi.alpha - 1.0) + phi.regular[k, j]
    return float(np.max(np.abs(vals)))


def test_zero_kernel_short_circuits():
    grid = make_grid(1.0, 32)
    phi = build_resolvent(lambda t, s: 0.0, 0.5, grid)
    assert phi.is_zero
    assert phi.regular is None
    assert resolvent_residual(phi, lambda t, s: 0.0) == 0.0
    eta = Trajectory.from_expression("1 + t^2", grid)
    rep = represent_solution(phi, eta)
    assert np.array_equal(rep.values, eta.values)


def test_zero_free_term_maps_to_zero():
    grid = make_grid(1.0, 32)
    phi = build_resolvent(lambda t, s: 0.5, 0.5, grid)
    rep = represent_solution(phi, Trajectory.constant(0.0, grid))
    assert np.max(np.abs(rep.values)) == 0.0


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


def array_constant(a):
    """The constant kernel a as an array-returning function, which
    `build_resolvent` solves as it solves the scalar a."""
    return lambda t, s: np.full(np.broadcast(t, s).shape, float(a))


@given(st.floats(-1.0, 1.0))
@settings(deadline=None, max_examples=15)
def test_constant_kernel_resolvent_is_toeplitz(lam):
    # the general assembly of a constant kernel, also across several row
    # blocks: the invariant Q's column march for a constant f_y rests on
    for n in (24, 2 * _BLOCK + 5):
        grid = make_grid(1.0, n)
        phi = build_resolvent(array_constant(lam), 0.5, grid)
        if lam == 0.0:
            assert phi.is_zero and phi.regular is None
            continue
        R = phi.regular
        scale = 1.0 + float(np.max(np.abs(R)))
        k, j = np.tril_indices(n + 1, -1)
        assert np.all(np.abs(R[k, j] - R[k - j, 0]) <= 1e-12 * scale)


def test_representation_matches_direct_march():
    problem = builtin_problem("abel_linear", {"lam": 0.5})
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u)
    phi = build_resolvent(lambda t, s: 0.5, 0.5, grid)
    rep = represent_solution(phi, Trajectory.from_expression("1", grid))
    rel = np.max(np.abs(rep.values - y.values)) / np.max(np.abs(y.values))
    assert rel <= 1e-2  # measured 4.88e-3


def test_resolvent_identity_residual():
    # substituting Phi back into its defining equation at N=1024 must leave a
    # defect below 1e-3 relative to the kernel's sampled magnitude
    grid = make_grid(1.0, 1024)
    A = lambda t, s: 0.5
    phi = build_resolvent(A, 0.5, grid)
    residual = resolvent_residual(phi, A)
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
    """The quadrature of the second-kind equation with right kernel B and left
    kernel L, evaluated row by row with explicit half-cell masks: a slow,
    independent statement of the weights.  B = L = A gives the resolvent of A,
    B = f_y and L = f_u gives Q."""

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

    def samples(self, right_fn, left_fn):
        """Left samples of L and right samples of B."""
        n, h, t = self.n, self.grid.h, self.grid.nodes
        cells = t[:-1]
        below = np.tril(np.ones((n, n), dtype=bool))
        rows = np.arange(n + 1)[:, None] > np.arange(n)[None, :]
        grab = lambda fn, tt, ss, keep: np.where(keep, np.broadcast_to(fn(tt, ss), keep.shape),
                                                 0.0)
        return (grab(left_fn, cells[:, None] + 0.25 * h, t[None, :-1], below),
                grab(left_fn, cells[:, None] + 0.75 * h, t[None, :-1], below),
                grab(right_fn, t[:, None], cells[None, :] + 0.25 * h, rows),
                grab(right_fn, t[:, None], cells[None, :] + 0.75 * h, rows))

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

    def resolvent(self, right_fn, left_fn):
        smp = self.samples(right_fn, left_fn)
        R = np.zeros((self.n + 1, self.n + 1))
        for known in (False, True):
            for k in range(1, self.n + 1):
                R[k, :k] = self.product_row(k, *smp) + self.regular_row(k, R, *smp[2:], known)
            self.extend_diagonal(R)
        return R

    def residual(self, fn, R):
        smp = self.samples(fn, fn)
        return max(float(np.max(np.abs(self.product_row(k, *smp)
                                        + self.regular_row(k, R, *smp[2:], True) - R[k, :k])))
                   for k in range(1, self.n + 1))

    def first_failure(self, right_fn, left_fn):
        """The cell the first pass of the march stops at, or None."""
        smp = self.samples(right_fn, left_fn)
        R = np.zeros((self.n + 1, self.n + 1))
        for k in range(1, self.n + 1):
            row = self.product_row(k, *smp) + self.regular_row(k, R, *smp[2:], False)
            if not np.isfinite(row).all():
                return k, int(np.argmax(~np.isfinite(row)))
            R[k, :k] = row
        return None


def pair_coefficients(problem, y, u, grid):
    """f_y and f_u along the pair, (y, u) interpolated in s."""
    pair_fn = lambda e: lambda t, s: e.evaluate(
        t=t, s=s, y=np.interp(s, grid.nodes, y.values), u=np.interp(s, grid.nodes, u.values))
    return pair_fn(problem.bundle.f_y), pair_fn(problem.bundle.f_u)


def _max_rel(a, b):
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8])
@pytest.mark.parametrize("n", [2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5,
                               5 * _BLOCK + 3])
def test_blocked_assembly_matches_row_reference(alpha, n):
    # partial and empty blocks included, and at 5 B + 3 several column blocks
    # far from the diagonal per row block; only the summation order differs
    grid = make_grid(1.0, n)
    ref = RowReference(alpha, grid)
    kernel = lambda t, s: 0.3 + 0.5 * np.sin(2 * t) * np.cos(s) + 0.2 * t * s
    phi = build_resolvent(kernel, alpha, grid)
    R = ref.resolvent(kernel, kernel)
    assert _max_rel(phi.regular, R) <= 1e-12
    res, res_ref = resolvent_residual(phi, kernel), ref.residual(kernel, R)
    assert abs(res - res_ref) <= 1e-12 * res_ref

    problem = ProblemSpec(alpha, 1.0, parse_expression("1 + t"),
                          parse_expression("(0.4 + 0.3*t*s)*y*cos(u) + sin(t - s)*u"),
                          parse_expression("y^2"))
    u = Trajectory.from_expression("0.5 + sin(3*t)", grid)
    y = solve_state(problem, u)
    q = build_q_kernel(problem, (y, u))
    a_fn, c_fn = pair_coefficients(problem, y, u, grid)
    assert _max_rel(q.regular, ref.resolvent(a_fn, c_fn)) <= 1e-12


# Non-finite samples on a grid of five row blocks (B = 32).  A left sample
# L(t_j + f h, t_c) is first used by row j + 1, a right sample B(t_k, t_j + f h)
# only by row k, at every column.  Cell j = 100 is an own cell of row block
# 96..127, where columns c < 64 are far and the column block 64..95 is next to
# the diagonal; cell 95 of row 96 lies in the band of that block; cell 60 of
# row 100 lies in the band of the far column block 0..31.
FAIL_N = 4 * _BLOCK + 3
SAMPLE_FAILURES = [
    pytest.param("left", 100, 10, 0.25, np.inf, (101, 10), id="left-far-own"),
    pytest.param("left", 100, 70, 0.75, np.inf, (101, 70), id="left-near-own"),
    pytest.param("left", 95, 70, 0.75, np.nan, (96, 70), id="left-band"),
    pytest.param("right", 100, 98, 0.75, np.nan, (100, 0), id="right-far-own"),
    pytest.param("right", 100, 60, 0.25, -np.inf, (100, 0), id="right-band"),
]


def _sample_point(grid, side, first, second, frac):
    """(t, s) of a left sample (cell `first`, column `second`) or of a right
    sample (row `first`, cell `second`)."""
    nodes, h = grid.nodes, grid.h
    if side == "left":
        return nodes[first] + frac * h, nodes[second]
    return nodes[first], nodes[second] + frac * h


def _assembly_failure(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(KernelAssemblyError, match="non-finite") as exc:
            build()
    return exc.value.row, exc.value.col


@pytest.mark.parametrize("side,first,second,frac,value,cell", SAMPLE_FAILURES)
def test_resolvent_failure_names_the_reference_cell(side, first, second, frac, value, cell):
    grid = make_grid(1.0, FAIL_N)
    t0, s0 = _sample_point(grid, side, first, second, frac)

    def kernel(t, s):
        hit = (np.abs(t - t0) < grid.h / 8) & (np.abs(s - s0) < grid.h / 8)
        return np.where(hit, value, 0.3 + 0.5 * np.sin(2 * t) * np.cos(s) + 0.2 * t * s)

    with np.errstate(all="ignore"):
        assert RowReference(0.5, grid).first_failure(kernel, kernel) == cell
    assert _assembly_failure(lambda: build_resolvent(kernel, 0.5, grid)) == cell


@pytest.mark.parametrize("first,second,frac,cell", [
    pytest.param(100, 10, 0.75, (101, 10), id="far-own"),
    pytest.param(100, 70, 0.25, (101, 70), id="near-own"),
    pytest.param(95, 70, 0.25, (96, 70), id="band"),
])
def test_response_kernel_failure_names_the_reference_cell(first, second, frac, cell):
    # f_u = 1/((t - a)^2 + (s - b)^2) + ... is infinite at one left sample only
    grid = make_grid(1.0, FAIL_N)
    a, b = map(float, _sample_point(grid, "left", first, second, frac))
    problem = ProblemSpec(0.5, 1.0, parse_expression("1 + t"),
                          parse_expression("(0.4 + 0.3*t*s)*y*cos(u)"
                                           f" + u/((t - {a!r})^2 + (s - {b!r})^2)"),
                          parse_expression("y^2"))
    y = Trajectory.from_expression("1 + 0.5*t", grid)
    u = Trajectory.from_expression("0.5 + sin(3*t)", grid)
    a_fn, c_fn = pair_coefficients(problem, y, u, grid)
    with np.errstate(all="ignore"):
        assert RowReference(0.5, grid).first_failure(a_fn, c_fn) == cell
    assert _assembly_failure(lambda: build_q_kernel(problem, (y, u))) == cell


# --- response kernel ---------------------------------------------------------

def test_response_kernel_zero_fast_paths():
    grid = make_grid(1.0, 32)
    u = Trajectory.constant(0.0, grid)

    lin = builtin_problem("abel_linear", {"lam": 1.0})  # f_u = 0
    q = build_q_kernel(lin, (solve_state(lin, u), u))
    assert q.is_zero

    quad = builtin_problem("sing_quad", {"c": 1.0})  # f_u = 2cu = 0 at u* = 0
    q = build_q_kernel(quad, (solve_state(quad, u), u))
    assert q.is_zero
    assert not midpoint_apply_matrix(q).any()
    assert not node_apply_row(q, grid.n).any()


def test_zero_response_kernel_is_decided_from_node_values(monkeypatch):
    # f_u = 2cu ignores t, so every lattice sample would be a node value
    def refuse(*args):
        raise AssertionError("f_u sampled on a lattice")

    monkeypatch.setattr("svoc.resolvent._node_samples", refuse)
    grid = make_grid(1.0, 32)
    u = Trajectory.constant(0.0, grid)
    quad = builtin_problem("sing_quad", {"c": 1.0})
    q = build_q_kernel(quad, (solve_state(quad, u), u))
    assert q.is_zero
    assert q.regular is None


def test_zero_response_kernel_holds_no_table():
    # f_u = 2cu vanishes at u* = 0
    n = 1024
    grid = make_grid(1.0, n)
    u = Trajectory.constant(0.0, grid)
    quad = builtin_problem("sing_quad", {"c": 1.0})
    pair = (solve_state(quad, u), u)
    tracemalloc.start()
    try:
        q = build_q_kernel(quad, pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q.is_zero and q.regular is None
    assert peak < (n + 1) ** 2 * 8


def test_response_kernel_closed_form_when_state_factor_drops():
    # bilinear benchmark at u* = 0: f_y = t u* = 0, so the resolvent vanishes
    # and Q(t, s) = t y*(s) (t-s)^(alpha-1) exactly
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u)
    q = build_q_kernel(problem, (y, u))
    assert not q.is_zero
    assert not q.regular.any()
    tri = np.tril(np.ones((grid.n + 1, grid.n + 1), dtype=bool))
    expect = np.outer(grid.nodes, y.values)
    assert np.max(np.abs(np.where(tri, _node_samples(q.c_fn, grid) - expect, 0.0))) <= 1e-12


def test_response_kernel_reproduces_first_response_exactly_when_resolvent_vanishes():
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u)
    v = Trajectory.from_expression("1 - 0.5*t", grid)
    direct = solve_y1(problem, (y, u), v)
    q = build_q_kernel(problem, (y, u))
    routed = apply_kernel_nodes(q, v)
    assert np.max(np.abs(routed.values - direct.values)) <= 1e-12  # measured 6.7e-16


def test_response_kernel_route_agrees_on_coupled_dynamics():
    problem = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(1.0, grid)
    y = solve_state(problem, u)
    v = Trajectory.from_expression("cos(2*t)", grid)
    direct = solve_y1(problem, (y, u), v)
    q = build_q_kernel(problem, (y, u))
    routed = apply_kernel_nodes(q, v)
    rel = np.max(np.abs(routed.values - direct.values)) / np.max(np.abs(direct.values))
    assert rel <= 1e-2  # measured 5.7e-3


def test_midpoint_apply_matrix_closed_form():
    # rows approximate int_0^tau Q(tau, s) ds = 2 tau^(3/2) + (3 pi / 8) tau^3
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u)
    q = build_q_kernel(problem, (y, u))
    qm = midpoint_apply_matrix(q)
    assert np.array_equal(qm, np.tril(qm))
    tau = grid.midpoints
    closed = 2.0 * tau**1.5 + (3.0 * math.pi / 8.0) * tau**3
    rel = np.max(np.abs(qm @ np.ones(grid.n) - closed)) / np.max(np.abs(closed))
    assert rel <= 1e-4  # measured 1.59e-5


@pytest.mark.parametrize("n", [2, 3, 33, 200])
def test_midpoint_apply_matrix_matches_the_gather(n, monkeypatch):
    # the Toeplitz view of mu gives the matrix the n x n index gather gave
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, n)
    u = Trajectory.constant(0.3, grid)
    q = build_q_kernel(problem, (solve_state(problem, u), u))
    got = midpoint_apply_matrix(q)
    d = np.subtract.outer(np.arange(n), np.arange(n)).clip(min=0)
    monkeypatch.setattr(svoc.resolvent, "_lagged", lambda v, rows, cols: v[d])
    assert np.array_equal(got, midpoint_apply_matrix(q))


def test_node_apply_row_closed_form():
    problem = builtin_problem("paper_example")
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(0.0, grid)
    y = solve_state(problem, u)
    q = build_q_kernel(problem, (y, u))
    assert not node_apply_row(q, 0).any()
    with pytest.raises(IndexError):
        node_apply_row(q, grid.n + 1)
    for i in (100, 256):
        total = node_apply_row(q, i).sum()
        exact = 2.0 * grid.nodes[i] ** 1.5 + (3.0 * math.pi / 8.0) * grid.nodes[i] ** 3
        assert total == pytest.approx(exact, rel=5e-4)  # measured 6.2e-5


# --- constant kernels --------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5])
def test_weight_tables_match_the_gathers(n):
    # the strided views give the tables the index gathers gave, bit for bit
    grid = make_grid(1.0, n)
    tb = _HalfCellTables(0.5, grid)
    rng = np.random.default_rng(n)
    left1, left2 = rng.standard_normal((2, n, n))
    right1, right2 = rng.standard_normal((2, n + 1, n))
    d = np.subtract.outer(np.arange(n), np.arange(n)).clip(min=0)
    expect = (left1 * tb.wl1[d], left1 * tb.q1[d], left2 * tb.wl2[d], left2 * tb.q3[d])
    for got, want in zip(tb.column_factors(left1, left2), expect):
        assert np.array_equal(got, want)
    for k0 in range(0, n + 1, _BLOCK):
        k1 = min(k0 + _BLOCK, n + 1)
        e = np.subtract.outer(np.arange(k0, k1), np.arange(k1 - 1))
        near, far = (e - 1).clip(min=0), e.clip(min=0)
        a1, a2 = right1[k0:k1, : k1 - 1], right2[k0:k1, : k1 - 1]
        expect = (a1 * tb.q3[near], a1 * tb.wr1[far], a2 * tb.q1[near], a2 * tb.wr2[far])
        for got, want in zip(tb.row_factors(right1, right2, k0, k1), expect):
            assert np.array_equal(got, want)
    e = np.subtract.outer(np.arange(n + 1), np.arange(n)).clip(min=0)
    x1, x2 = right1 * tb.wr1[e], right2 * tb.wr2[e]
    y1, w = tb.smooth_weights(right1, right2)
    assert np.array_equal(y1, 0.75 * x1 + 0.25 * x2)
    assert np.array_equal(w[:, 0], y1[:, 0])
    assert np.array_equal(w[:, n], 0.25 * x1[:, -1] + 0.75 * x2[:, -1])
    assert np.array_equal(w[:, 1:n], 0.25 * x1[:, :-1] + 0.75 * x2[:, :-1] + y1[:, 1:])


@pytest.mark.parametrize("a", [-1.0, 0.5, 2.0])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8])
@pytest.mark.parametrize("n", [2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5, 384])
def test_constant_kernel_path_matches_general_path(n, alpha, a):
    # the resolvent has one path, so a scalar and an array constant agree bit
    # for bit
    grid = make_grid(1.0, n)
    scalar = build_resolvent(lambda t, s: a, alpha, grid)
    general = build_resolvent(array_constant(a), alpha, grid)
    assert np.array_equal(_node_samples(scalar.c_fn, grid), _node_samples(general.c_fn, grid))
    assert np.array_equal(scalar.regular, general.regular)


def test_path_selection(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("general product table")

    monkeypatch.setattr(svoc.resolvent, "_product_table", refuse)
    grid = make_grid(1.0, 48)
    u = Trajectory.from_expression("0.5 + 0.3*t", grid)
    y = Trajectory.from_expression("1 + 0.5*t", grid)
    for A in (lambda t, s: 0.5, array_constant(0.5)):
        with pytest.raises(AssertionError, match="general"):
            build_resolvent(A, 0.5, grid)

    # every non-zero Q, lq's constant f_y and f_u too, takes the one solver
    problems = [builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0}),  # f_y = a, f_u = b
                builtin_problem("paper_example"),  # f_y = t u, f_u = t y
                ProblemSpec(0.5, 1.0, parse_expression("1"), parse_expression("0.5*y + t*u"),
                            parse_expression("y^2"))]
    for problem in problems:
        with pytest.raises(AssertionError, match="general"):
            build_q_kernel(problem, (y, u))


def test_response_kernel_is_marched_from_its_own_equation(monkeypatch):
    # one product table per Q, a constant f_y's too, and never a resolvent
    tables = []
    product_table = svoc.resolvent._product_table

    def counted(*args):
        tables.append(args)
        return product_table(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("resolvent built for Q")

    monkeypatch.setattr(svoc.resolvent, "_product_table", counted)
    monkeypatch.setattr(svoc.resolvent, "build_resolvent", refuse)
    grid = make_grid(1.0, 2 * _BLOCK + 5)
    u = Trajectory.from_expression("0.5 + 0.3*t", grid)
    y = Trajectory.from_expression("1 + 0.5*t", grid)
    q = build_q_kernel(builtin_problem("paper_example"), (y, u))
    assert len(tables) == 1 and q.regular.any()
    lq = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    q = build_q_kernel(lq, (y, u))
    assert len(tables) == 2 and q.regular.any()


# errors of the earlier two-stage assembly (the resolvent of f_y, then a
# second product table for Phi o f_u) at N = 256: the direct march may not
# be worse by more than 1 %
@pytest.mark.parametrize("alpha,before", [(0.25, 0.1254711), (0.5, 1.357696e-2),
                                          (0.8, 1.442633e-3)])
def test_response_kernel_route_accuracy(alpha, before):
    # criterion 3 a second way: Q applied to v against the march of Y1
    problem = ProblemSpec(alpha, 1.0, parse_expression("1 + t"),
                          parse_expression("(0.4 + 0.3*t*s)*y*cos(u) + sin(t - s)*u"),
                          parse_expression("y^2"))
    grid = make_grid(1.0, 256)
    u = Trajectory.from_expression("0.5 + sin(3*t)", grid)
    y = solve_state(problem, u)
    v = Trajectory.from_expression("cos(2*t)", grid)
    direct = solve_y1(problem, (y, u), v)
    routed = apply_kernel_nodes(build_q_kernel(problem, (y, u)), v)
    rel = np.max(np.abs(routed.values - direct.values)) / np.max(np.abs(direct.values))
    assert rel <= 1.01 * before  # measured 8.85e-2, 1.350e-2, 1.4438e-3


def test_constant_resolvent_takes_the_general_solver(monkeypatch):
    # one product table and two marches over it, as for any other kernel
    calls = []
    for name in ("_product_table", "_march"):
        real = getattr(svoc.resolvent, name)
        monkeypatch.setattr(svoc.resolvent, name, lambda *args, name=name, real=real, **kw:
                            calls.append(name) or real(*args, **kw))
    grid = make_grid(1.0, 48)
    reference = build_resolvent(array_constant(0.5), 0.5, grid).regular
    assert np.array_equal(build_resolvent(lambda t, s: 0.5, 0.5, grid).regular, reference)
    assert calls == 2 * ["_product_table", "_march", "_march"]


@pytest.mark.parametrize("literal", ["1e308*10", "-1e308*10", "(1e308*10 - 1e308*10)", "1e150"],
                         ids=["inf", "-inf", "nan", "1e+150"])
def test_constant_kernel_failure_names_the_general_cell(literal):
    # a constant f_y that overflows in its literal or in the march: Q names
    # the first cell a row-by-row quadrature meets
    grid = make_grid(1.0, 2 * _BLOCK + 5)
    y = Trajectory.from_expression("1 + 0.5*t", grid)
    u = Trajectory.from_expression("0.5 + sin(3*t)", grid)
    problems = [ProblemSpec(0.5, 1.0, parse_expression("1"),
                            parse_expression(f"{literal}*y + {f_u}"), parse_expression("y^2"))
                for f_u in ("1.3*u", "(1 + s^2)*u")]
    cell = (3, 0) if literal == "1e150" else (1, 0)
    assert [_assembly_failure(lambda: build_q_kernel(problem, (y, u)))
            for problem in problems] == [cell, cell]


@pytest.mark.parametrize("f,cell", [
    pytest.param("0.5*y + u/(s - 0.5)", (5, 4), id="non-finite-g"),
    pytest.param("0.5*y + 1e306*exp(8*s)*u", (9, 8), id="overflow"),
    pytest.param("2*y + 1e307*u", (3, 0), id="overflow-at-lag-3"),
    pytest.param("0.5*y + u/(s - 1)", None, id="unread-last-node"),
])
def test_convolution_kernel_failure_names_the_table_cell(f, cell):
    # f_y constant and f_u free of t: a pole of f_u is named at its first
    # column, and an overflow at the first cell where the march's first pass
    # meets it
    problem = ProblemSpec(0.5, 1.0, parse_expression("1"), parse_expression(f),
                          parse_expression("y^2"))
    grid = make_grid(1.0, 8 if "/" in f else 16)
    u = Trajectory.from_expression("1", grid)
    y = Trajectory.from_expression("1 + 0.5*t", grid)
    if cell is None:
        assert np.isfinite(build_q_kernel(problem, (y, u)).regular).all()
    else:
        assert _assembly_failure(lambda: build_q_kernel(problem, (y, u))) == cell
