"""Resolvent and response kernels for linear weakly singular Volterra operators.

For a kernel A(t,s)(t-s)^(alpha-1) the resolvent is stored in split form

    Phi(t,s) = A(t,s) (t-s)^(alpha-1) + R(t,s),

with R bounded off the diagonal and obtained by marching the fixed-point
relation column by column.  The doubly singular cell integrals

    int A(t,tau)(t-tau)^(alpha-1) [A(tau,s)(tau-s)^(alpha-1)] dtau

are split at each cell midpoint: on each half the factor whose pole is nearer
is integrated in closed form while the other factor and the smooth data are
sampled at the half's midpoint.

Cost: O(N^3) flops and O(N^2) memory.  The doubly singular part does not
depend on R, so it is assembled up front as one table of blocked matrix
products (BLAS); only the march over R is sequential, one gemv per row, so
the Python-level work is O(N) rows plus O((N/B)^2) blocks of size B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import KernelAssemblyError
from .problem import ProblemSpec
from .quadrature import Grid, midpoint_weights, singular_weights
from .state import Trajectory

KernelFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _sample(fn: KernelFn, t, s, shape: tuple, keep: np.ndarray) -> np.ndarray:
    """Evaluate a two-time coefficient on a lattice, zeroing entries outside
    the validity mask (kernels need only be defined for s <= t)."""
    with np.errstate(all="ignore"):
        raw = np.broadcast_to(np.asarray(fn(t, s), dtype=float), shape)
    return np.where(keep, raw, 0.0)


@dataclass(frozen=True, eq=False)
class RegularizedKernel:
    """Singular-plus-regular storage of a two-time kernel.

    sing_coeff[k, j] samples the coefficient of (t-s)^(alpha-1) at node pairs
    (t_k, t_j); regular[k, j] samples the bounded remainder on the closed lower
    triangle, with the diagonal filled by constant extension from below so that
    interpolation near the diagonal never reads garbage.  c_fn evaluates the
    singular coefficient off the node lattice.
    """

    alpha: float
    grid: Grid
    sing_coeff: np.ndarray
    regular: np.ndarray
    c_fn: Optional[KernelFn] = None
    is_zero: bool = False

    def value(self, k: int, j: int) -> float:
        """Pointwise kernel value at (t_k, t_j), j < k."""
        if not 0 <= j < k <= self.grid.n:
            raise IndexError(f"need 0 <= j < k <= n, got j={j}, k={k}")
        dt = (k - j) * self.grid.h
        return float(self.sing_coeff[k, j] * dt ** (self.alpha - 1.0) + self.regular[k, j])


_BLOCK = 32  # rows and columns per block of the doubly singular tables


class _HalfCellTables:
    """Per-grid weights for the midpoint-split product quadrature.

    With d = cells from the left pole and e = cells to the right pole, the
    left half of cell j integrates the left factor exactly iff d < e and the
    right half iff d < e - 1: the nearer pole wins each half.  For row k,
    column c and cell j that reads 2j < k + c on the left half and
    2j < k + c - 1 on the right half, and each choice is a weight in k - j
    times a weight in j - c.
    """

    def __init__(self, alpha: float, grid: Grid):
        n, h = grid.n, grid.h
        self.grid = grid
        i = np.arange(n + 1, dtype=float)
        pa = (i * h) ** alpha                      # (i h)^alpha
        ph = ((i[:-1] + 0.5) * h) ** alpha         # ((i + 1/2) h)^alpha
        self.q1 = ((i[:-1] + 0.25) * h) ** (alpha - 1.0)
        self.q3 = ((i[:-1] + 0.75) * h) ** (alpha - 1.0)
        self.wl1 = (ph - pa[:-1]) / alpha          # exact left factor, left half
        self.wl2 = (pa[1:] - ph) / alpha           # exact left factor, right half
        self.wr1 = np.zeros(n + 1)                 # exact right factor, by e = k - j
        self.wr2 = np.zeros(n + 1)
        self.wr1[1:] = (pa[1:] - ph) / alpha
        self.wr2[1:] = (ph - pa[:-1]) / alpha

    def column_factors(self, left1: np.ndarray, left2: np.ndarray):
        """(cell, column) factors of the left kernel per half: with the exact
        left weight (bl) and with the sampled left singular factor (br)."""
        n = self.grid.n
        d = np.subtract.outer(np.arange(n), np.arange(n)).clip(min=0)
        return (left1 * self.wl1[d], left1 * self.q1[d],
                left2 * self.wl2[d], left2 * self.q3[d])

    def row_factors(self, right1: np.ndarray, right2: np.ndarray, k0: int, k1: int):
        """(row, cell) factors of the right kernel per half for rows k0..k1-1
        and cells j < k1 - 1: with the sampled right singular factor (xl,
        paired with bl) and with the exact right weight (xr, paired with br)."""
        e = np.subtract.outer(np.arange(k0, k1), np.arange(k1 - 1))  # k - j
        near, far = (e - 1).clip(min=0), e.clip(min=0)
        a1, a2 = right1[k0:k1, : k1 - 1], right2[k0:k1, : k1 - 1]
        return a1 * self.q3[near], a1 * self.wr1[far], a2 * self.q1[near], a2 * self.wr2[far]

    def smooth_weights(self, right1: np.ndarray, right2: np.ndarray):
        """Weights (y1, w) of the regular part in `_regular_row`: the right
        kernel times the exact right weight, spread over the two endpoints
        each half-cell midpoint interpolates from."""
        n = self.grid.n
        e = np.subtract.outer(np.arange(n + 1), np.arange(n)).clip(min=0)
        x1, x2 = right1 * self.wr1[e], right2 * self.wr2[e]
        y1 = 0.75 * x1 + 0.25 * x2
        w = np.zeros((n + 1, n + 1))
        w[:, 1:] = 0.25 * x1 + 0.75 * x2
        w[:, :n] += y1
        return y1, w


def _product_table(tb: _HalfCellTables, right: tuple, left: tuple,
                   bounded: Optional[np.ndarray] = None) -> np.ndarray:
    """Doubly singular product quadrature for every row k and column c < k,

        P[k, c] ~ int_{t_c}^{t_k} B(t_k,tau)(t_k-tau)^(alpha-1) L(tau,t_c)(tau-t_c)^(alpha-1) dtau,

    with B sampled in `right` and L in `left`; entries with c >= k are zero.
    `bounded`, the regular part Rp of a resolvent, adds the same integral with
    Rp(t_k, tau) in place of the first factor: only the left pole is singular
    there, so both halves integrate the left factor exactly.

    Each (row block, column block) takes, per half, one matrix product over
    the cells where that half's mask is true for the whole block and one
    where it is false, and elementwise sums over the band where it changes
    and over the block's own cells j >= k0, where j < k is checked per row.  No product reaches a cell
    j >= k, so a non-finite sample first shows in each row at the column where
    a row-by-row quadrature would first meet it.
    """
    n = tb.grid.n
    bl1, br1, bl2, br2 = tb.column_factors(*left)
    out = np.zeros((n + 1, n + 1))
    with np.errstate(invalid="ignore", over="ignore"):
        for k0 in range(0, n + 1, _BLOCK):
            k1 = min(k0 + _BLOCK, n + 1)
            kk = np.arange(k0, k1)
            xl1, xr1, xl2, xr2 = tb.row_factors(*right, k0, k1)
            halves = ((xl1, xr1, bl1, br1, 0), (xl2, xr2, bl2, br2, 1))
            if bounded is not None:
                rb = bounded[k0:k1, :k1]
                rp1 = 0.75 * rb[:, :-1] + 0.25 * rb[:, 1:]
                rp2 = 0.25 * rb[:, :-1] + 0.75 * rb[:, 1:]
            own = np.arange(k0, k1 - 1)[:, None]  # the block's own cells
            for c0 in range(0, k1 - 1, _BLOCK):
                c1 = min(c0 + _BLOCK, k1 - 1)
                cols = slice(c0, c1)
                split = (kk[:, None] + np.arange(c0, c1))[:, None, :]  # k + c
                acc = np.zeros((k1 - k0, c1 - c0))
                for xl, xr, bl, br, shift in halves:
                    # 2j < k + c - shift for the whole block iff j < lo, for none iff j >= hi
                    lo = min(max((k0 + c0 - shift + 1) // 2, c0), k0)
                    hi = min(max((k1 + c1 - shift - 1) // 2, lo), k0)
                    acc += xl[:, c0:lo] @ bl[c0:lo, cols]
                    acc += xr[:, hi:k0] @ br[hi:k0, cols]
                    if hi > lo:
                        band = slice(lo, hi)
                        left_exact = 2 * np.arange(lo, hi)[:, None] < split - shift
                        acc += np.where(left_exact, xl[:, band, None] * bl[None, band, cols],
                                        xr[:, band, None] * br[None, band, cols]).sum(axis=1)
                if k1 - 1 > k0:
                    j = slice(k0, k1 - 1)
                    cell = (np.where(2 * own < split,
                                     xl1[:, j, None] * bl1[None, j, cols],
                                     xr1[:, j, None] * br1[None, j, cols])
                            + np.where(2 * own < split - 1,
                                       xl2[:, j, None] * bl2[None, j, cols],
                                       xr2[:, j, None] * br2[None, j, cols]))
                    if bounded is not None:
                        cell += (rp1[:, j, None] * bl1[None, j, cols]
                                 + rp2[:, j, None] * bl2[None, j, cols])
                    acc += np.where(own < kk[:, None, None], cell, 0.0).sum(axis=1)
                if bounded is not None:
                    acc += rp1[:, c0:k0] @ bl1[c0:k0, cols] + rp2[:, c0:k0] @ bl2[c0:k0, cols]
                if c1 > k0:
                    acc[kk[:, None] <= np.arange(c0, c1)] = 0.0
                out[k0:k1, c0:c1] = acc
    return out


def _regular_row(R: np.ndarray, y1: np.ndarray, w: np.ndarray, k: int,
                 last_row_known: bool) -> np.ndarray:
    """Row-k quadrature of A(t_k,tau)(t_k-tau)^(alpha-1) against the regular
    part R, interpolated to half-cell midpoints with constant extension at the
    edges (a column's not-yet-known entries read as zero).

    R must be zero above its diagonal.  The interpolated table reads R with
    the sub-diagonal in place of the diagonal and, unless row k is known, row
    k - 1 in place of row k; the gemv on the stored R is corrected for both
    in O(k), and for cell c - 1, which lies left of column c.
    """
    wk = w[k, : k + 1]
    row = wk @ R[: k + 1, :k]
    row += y1[k, :k] * R.diagonal(-1)[:k] - wk[:k] * R.diagonal()[:k]
    if not last_row_known:
        row += wk[k] * (R[k - 1, :k] - R[k, :k])
    return row


def _node_samples(fn: KernelFn, grid: Grid) -> np.ndarray:
    """Samples at node pairs (t_k, t_c) on the closed lower triangle."""
    n = grid.n
    t = grid.nodes
    lower = np.arange(n + 1)[:, None] >= np.arange(n + 1)[None, :]
    return _sample(fn, t[:, None], t[None, :], (n + 1, n + 1), lower)


def _left_samples(fn: KernelFn, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Smooth kernel samples at the half-cell midpoints in the first time
    argument: (cell, column) arrays for the left factor of a product."""
    n, h = grid.n, grid.h
    t = grid.nodes
    cells = t[:-1]
    tri = np.tril(np.ones((n, n), dtype=bool))
    return (_sample(fn, cells[:, None] + 0.25 * h, t[None, :-1], (n, n), tri),
            _sample(fn, cells[:, None] + 0.75 * h, t[None, :-1], (n, n), tri))


def _right_samples(fn: KernelFn, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Smooth kernel samples at the half-cell midpoints in the second time
    argument: (row, cell) arrays for the right factor of a product."""
    n, h = grid.n, grid.h
    t = grid.nodes
    cells = t[:-1]
    rows = np.arange(n + 1)[:, None] > np.arange(n)[None, :]
    return (_sample(fn, t[:, None], cells[None, :] + 0.25 * h, (n + 1, n), rows),
            _sample(fn, t[:, None], cells[None, :] + 0.75 * h, (n + 1, n), rows))


def _extend_diagonal(R: np.ndarray) -> None:
    n = R.shape[0] - 1
    idx = np.arange(n)
    R[idx, idx] = R[idx + 1, idx]
    R[n, n] = R[n, n - 1]


def _march(R: np.ndarray, P: np.ndarray, y1: np.ndarray, w: np.ndarray,
           last_row_known: bool) -> None:
    """Fill R row by row from the doubly singular table P; the first
    non-finite entry is reported by its cell."""
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, R.shape[0]):
            row = P[k, :k] + _regular_row(R, y1, w, k, last_row_known)
            bad = ~np.isfinite(row)
            if bad.any():
                raise KernelAssemblyError(k, int(np.argmax(bad)))
            R[k, :k] = row
    _extend_diagonal(R)


def build_resolvent(A: KernelFn, alpha: float, grid: Grid, *,
                    right: Optional[tuple] = None) -> RegularizedKernel:
    """Resolvent of the operator with kernel A(t,s)(t-s)^(alpha-1).

    A must accept broadcasting array arguments (t, s) and be finite on the
    closed triangle s <= t; values outside it are never used.  `right` takes
    `_right_samples(A, grid)` when the caller holds them already.
    """
    n = grid.n
    c = _node_samples(A, grid)
    left = _left_samples(A, grid)
    if not (c.any() or left[0].any() or left[1].any()):
        return RegularizedKernel(alpha, grid, c, np.zeros_like(c), c_fn=A, is_zero=True)

    if right is None:
        right = _right_samples(A, grid)
    tb = _HalfCellTables(alpha, grid)
    P = _product_table(tb, right, left)  # R-independent doubly singular part
    y1, w = tb.smooth_weights(*right)
    R = np.zeros((n + 1, n + 1))
    _march(R, P, y1, w, last_row_known=False)
    # one Gauss-Seidel sweep over the completed table replaces the in-march
    # zero/extension entries near the diagonal, where the first pass is
    # roughest; the update is contractive along the causal ordering
    _march(R, P, y1, w, last_row_known=True)
    return RegularizedKernel(alpha, grid, c, R, c_fn=A)


def resolvent_residual(phi: RegularizedKernel, A: KernelFn, grid: Grid) -> float:
    """Max defect of the stored regular part under one re-application of the
    fixed-point quadrature using the completed table (diagonal extensions in
    place of the in-march zeros); measures the dropped edge terms."""
    tb = _HalfCellTables(phi.alpha, grid)
    right = _right_samples(A, grid)
    P = _product_table(tb, right, _left_samples(A, grid))
    y1, w = tb.smooth_weights(*right)
    R = phi.regular
    worst = 0.0
    for k in range(1, grid.n + 1):
        row = P[k, :k] + _regular_row(R, y1, w, k, last_row_known=True)
        worst = max(worst, float(np.max(np.abs(row - R[k, :k]))))
    return worst


def _apply_nodes(kernel: RegularizedKernel, values: np.ndarray) -> np.ndarray:
    """(Kv)_k = int_0^{t_k} kernel(t_k, s) v(s) ds with node samples of v:
    product rectangles on the singular part, trapezoid on the regular part."""
    grid = kernel.grid
    n, h = grid.n, grid.h
    if kernel.is_zero:
        return np.zeros(n + 1)
    w = singular_weights(kernel.alpha, grid).dense()
    trap = np.tril(np.full((n + 1, n + 1), h))
    idx = np.arange(n + 1)
    trap[:, 0] = 0.5 * h
    trap[idx, idx] = 0.5 * h
    trap[0, 0] = 0.0
    return (kernel.sing_coeff * w) @ values + (kernel.regular * trap) @ values


def represent_solution(phi: RegularizedKernel, eta: Trajectory, grid: Grid) -> Trajectory:
    """Solution of the linear equation as free term plus resolvent action."""
    if phi.grid != grid or eta.grid != grid:
        raise ValueError("kernel, free term, and grid must match")
    if eta.placement != "nodes":
        raise ValueError("free term must be sampled on nodes")
    return Trajectory(grid, "nodes", eta.values + _apply_nodes(phi, eta.values))


def apply_kernel_nodes(kernel: RegularizedKernel, v: Trajectory, grid: Grid) -> Trajectory:
    """Kernel action on a node trajectory; for Q this is the response integral."""
    if kernel.grid != grid or v.grid != grid:
        raise ValueError("kernel, trajectory, and grid must match")
    if v.placement != "nodes":
        raise ValueError("input must be sampled on nodes")
    return Trajectory(grid, "nodes", _apply_nodes(kernel, v.values))


def _pair_fn(expression, y_star: np.ndarray, u_star: np.ndarray, grid: Grid) -> KernelFn:
    """Evaluate a two-time coefficient along a reference pair, interpolating
    (y*, u*) linearly in the second time argument."""
    nodes = grid.nodes

    def fn(t, s):
        s = np.asarray(s, dtype=float)
        env = {
            "t": np.asarray(t, dtype=float),
            "s": s,
            "y": np.interp(s, nodes, y_star),
            "u": np.interp(s, nodes, u_star),
        }
        return np.asarray(expression.evaluate(**env), dtype=float)

    return fn


def build_q_kernel(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                   grid: Grid) -> RegularizedKernel:
    """Kernel Q with Y1(t) = int_0^t Q(t,s) v(s) ds for every variation v.

    Q(t,s) = f_u(t,s,y*(s),u*(s)) (t-s)^(alpha-1)
             + int_s^t Phi(t,tau) f_u(tau,s,y*(s),u*(s)) (tau-s)^(alpha-1) dtau,

    Phi being the resolvent of f_y along the pair.
    """
    y_star, u_star = pair
    alpha = problem.alpha
    n = grid.n
    b = problem.bundle
    c_fn = _pair_fn(b.f_u, y_star.values, u_star.values, grid)
    a_fn = _pair_fn(b.f_y, y_star.values, u_star.values, grid)

    if "t" not in b.f_u.free_vars() and not _sample(c_fn, 0.0, grid.nodes, (n + 1,), True).any():
        c = np.zeros((n + 1, n + 1))  # f_u ignores t: its lattice samples are node values
        return RegularizedKernel(alpha, grid, c, np.zeros_like(c), c_fn=c_fn, is_zero=True)
    c = _node_samples(c_fn, grid)
    left = _left_samples(c_fn, grid)
    if not (c.any() or left[0].any() or left[1].any()):
        return RegularizedKernel(alpha, grid, c, np.zeros_like(c), c_fn=c_fn, is_zero=True)

    right = _right_samples(a_fn, grid)
    phi = build_resolvent(a_fn, alpha, grid, right=right)
    if phi.is_zero:
        return RegularizedKernel(alpha, grid, c, np.zeros((n + 1, n + 1)), c_fn=c_fn)
    R = _product_table(_HalfCellTables(alpha, grid), right, left, bounded=phi.regular)
    bad = ~np.isfinite(R)
    if bad.any():
        raise KernelAssemblyError(*divmod(int(np.argmax(bad)), n + 1))
    _extend_diagonal(R)
    return RegularizedKernel(alpha, grid, c, R, c_fn=c_fn)


def midpoint_apply_matrix(kernel: RegularizedKernel, grid: Grid) -> np.ndarray:
    """Matrix QM with (QM v)_k ~ int_0^{tau_k} kernel(tau_k, s) v(s) ds for v
    sampled on midpoints: the singular coefficient is integrated exactly per
    cell, the regular part gets plain cell weights (half on the partial
    diagonal cell)."""
    n, h = grid.n, grid.h
    if kernel.grid != grid:
        raise ValueError("kernel grid mismatch")
    if kernel.is_zero:
        return np.zeros((n, n))
    if kernel.c_fn is None:
        raise ValueError("kernel lacks an off-lattice coefficient evaluator")
    tau = grid.midpoints
    tri = np.tril(np.ones((n, n), dtype=bool))
    cmid = _sample(kernel.c_fn, tau[:, None], tau[None, :], (n, n), tri)
    mu = midpoint_weights(kernel.alpha, grid).mu
    d = np.subtract.outer(np.arange(n), np.arange(n)).clip(min=0)
    R = kernel.regular
    rmid = 0.25 * (R[:n, :n] + R[1:, :n] + R[:n, 1:] + R[1:, 1:])
    idx = np.arange(n)
    rmid[idx, idx] = R[idx + 1, idx]
    wgt = np.tril(np.full((n, n), h))
    wgt[idx, idx] = 0.5 * h
    return np.where(tri, cmid * mu[d] + rmid * wgt, 0.0)


def node_apply_row(kernel: RegularizedKernel, node_index: int, grid: Grid) -> np.ndarray:
    """Weights w with sum_a w[a] v(tau_a) ~ int_0^{t_i} kernel(t_i, s) v(s) ds."""
    n = grid.n
    if not 0 <= node_index <= n:
        raise IndexError(f"node index {node_index} outside 0..{n}")
    out = np.zeros(n)
    i = node_index
    if kernel.is_zero or i == 0:
        return out
    if kernel.c_fn is None:
        raise ValueError("kernel lacks an off-lattice coefficient evaluator")
    tau = grid.midpoints[:i]
    w = singular_weights(kernel.alpha, grid)
    with np.errstate(all="ignore"):
        csamp = np.broadcast_to(
            np.asarray(kernel.c_fn(grid.nodes[i], tau), dtype=float), (i,))
    rsamp = 0.5 * (kernel.regular[i, :i] + kernel.regular[i, 1 : i + 1])
    out[:i] = csamp * w.row(i) + rsamp * grid.h
    return out
