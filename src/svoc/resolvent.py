"""Resolvent and response kernels for linear weakly singular Volterra operators.

Both kernels solve a second-kind equation with a right kernel B and a left
kernel L,

    K(t,s) = L(t,s)(t-s)^(alpha-1) + int_s^t B(t,tau)(t-tau)^(alpha-1) K(tau,s) dtau,

and are stored in split form K = L(t,s)(t-s)^(alpha-1) + R(t,s), L as its
function and R, bounded off the diagonal, as node samples obtained by marching

    R(t,s) = int B(t,tau)(t-tau)^(alpha-1) [L(tau,s)(tau-s)^(alpha-1) + R(tau,s)] dtau.

B = L = A gives the resolvent Phi of the kernel A(t,s)(t-s)^(alpha-1); B = f_y
and L = f_u along a reference pair give the response kernel Q, marched from
its own equation (the variational equation) with no resolvent built.  The
doubly singular cell integrals

    int B(t,tau)(t-tau)^(alpha-1) [L(tau,s)(tau-s)^(alpha-1)] dtau

are split at each cell midpoint: on each half the factor whose pole is nearer
is integrated in closed form while the other factor and the smooth data are
sampled at the half's midpoint.

Cost: O(N^2) memory and O(N^3) flops.  Every resolvent and every Q, constant
kernels included, take one solver: the doubly singular part does not depend
on R, so it is assembled up front as one table, in square blocks of `_BLOCK`
rows and columns, mostly of matrix products (BLAS).  Elementwise work is left
only where the half-cell choice switches: in a band of about `_BLOCK` cells
per block, and in the row block's own cells within the two column blocks next
to the diagonal; both are masked into one batched product per block.  The own
cells of the column blocks further left take one choice throughout and are
added a row at a time, one gemv per half, so that no product reaches a cell
j >= k and a non-finite sample is reported at the cell where a row-by-row
quadrature first meets it.  The two marches over R are sequential, one gemv
per row, so the Python-level work is O(N) rows plus O((N/_BLOCK)^2) blocks,
and Q costs what the resolvent costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import KernelAssemblyError
from .problem import ProblemSpec
from .quadrature import Grid, _toeplitz, midpoint_weights, singular_weights
from .state import Trajectory, _require_nodes, _require_pair

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

    c_fn evaluates the coefficient of (t-s)^(alpha-1) at any (t, s), and each
    route samples it where it reads it.  The bounded remainder R is held as
    `regular`, its samples R[k, j] at node pairs (t_k, t_j) on the closed
    lower triangle, with the diagonal filled by constant extension from below,
    R[k, k] = R[k + 1, k] and R[n, n] = R[n, n - 1], so that interpolation
    near the diagonal never reads garbage.  A zero R is a zero table; the
    zero kernel holds none.
    """

    alpha: float
    grid: Grid
    c_fn: KernelFn
    regular: Optional[np.ndarray] = None

    @property
    def is_zero(self) -> bool:
        return self.regular is None


_BLOCK = 32  # rows and columns per block of the doubly singular tables


def _lagged(v: np.ndarray, rows: int, cols: int, offset: int = 0) -> np.ndarray:
    """Read-only Toeplitz view T[r, j] = v[max(r - j + offset, 0)] of shape
    (rows, cols); needs rows - 1 + offset < len(v)."""
    u = v[np.maximum(np.arange(rows - 1 + offset, offset - cols, -1), 0)]
    return sliding_window_view(u, cols)[::-1]


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
        # (row k, cell j) views: the sampled right singular factor at the
        # half's midpoint, q[k - 1 - j], and the exact right weight, wr[k - j]
        self.near1, self.near3 = _lagged(self.q1, n + 1, n, -1), _lagged(self.q3, n + 1, n, -1)
        self.far1, self.far2 = _lagged(self.wr1, n + 1, n), _lagged(self.wr2, n + 1, n)

    def column_factors(self, left1: np.ndarray, left2: np.ndarray):
        """(cell, column) factors of the left kernel per half: with the exact
        left weight (bl) and with the sampled left singular factor (br)."""
        n = self.grid.n
        return (left1 * _lagged(self.wl1, n, n), left1 * _lagged(self.q1, n, n),
                left2 * _lagged(self.wl2, n, n), left2 * _lagged(self.q3, n, n))

    def row_factors(self, right1: np.ndarray, right2: np.ndarray, k0: int, k1: int):
        """(row, cell) factors of the right kernel per half for rows k0..k1-1
        and cells j < k1 - 1: with the sampled right singular factor (xl,
        paired with bl) and with the exact right weight (xr, paired with br)."""
        rows, cells = slice(k0, k1), slice(0, k1 - 1)
        a1, a2 = right1[rows, cells], right2[rows, cells]
        return (a1 * self.near3[rows, cells], a1 * self.far1[rows, cells],
                a2 * self.near1[rows, cells], a2 * self.far2[rows, cells])

    def smooth_weights(self, right1: np.ndarray, right2: np.ndarray):
        """Weights (y1, w) of the regular part in `_regular_row`: the right
        kernel times the exact right weight, spread over the two endpoints
        each half-cell midpoint interpolates from."""
        rows, n = right1.shape
        x1 = right1 * self.far1
        x2 = right2 * self.far2
        y1 = 0.75 * x1 + 0.25 * x2
        w = np.zeros((rows, n + 1))
        w[:, 1:] = 0.25 * x1 + 0.75 * x2
        w[:, :n] += y1
        return y1, w


def _band_mask(rows: int, cols: int, width: int, split0: int, own0: int) -> np.ndarray:
    """Which factor each band cell takes, for rows k0 + r, cells lo + i and
    columns c0 + q, with split0 = k0 + c0 - 2 lo and own0 = k0 - lo: the
    (row, cell, column) mask of the factors [bl1, br1, bl2, br2] stacked
    along the cell axis.  A cell j >= k takes neither."""
    r = np.arange(rows)[:, None, None]
    i = np.arange(width)[:, None]
    q = np.arange(cols)
    inside = i < r + own0
    left1 = 2 * i < r + q + split0
    left2 = 2 * i < r + q + split0 - 1
    return np.concatenate((left1 & inside, inside & ~left1, left2 & inside, inside & ~left2),
                          axis=1)


def _product_table(tb: _HalfCellTables, right: tuple, left: tuple) -> np.ndarray:
    """Doubly singular product quadrature for every row k and column c < k,

        P[k, c] ~ int_{t_c}^{t_k} B(t_k,tau)(t_k-tau)^(alpha-1) L(tau,t_c)(tau-t_c)^(alpha-1) dtau,

    with B sampled in `right` and L in `left`; entries with c >= k are zero.

    Each (row block, column block) takes, per half, one matrix product over
    the cells j < k0 below the row block where both halves' choices are
    left-exact for the whole block and one where both are right-exact.
    Elementwise work is left only where the choice switches: the band between
    those ranges and, in the two column blocks next to the diagonal, the
    block's own cells j >= k0.  Both halves of that go through one batched
    product whose left-kernel factor has the choice, and j < k, masked in.
    In the column blocks further left every own cell is right-exact on both
    halves; those cells are added one row at a time, a gemv per half over all
    those columns.  So no product reaches a cell j >= k, and a non-finite
    sample first shows in each row at the column where a row-by-row
    quadrature would first meet it.
    """
    n = tb.grid.n
    out = np.zeros((n + 1, n + 1))
    masks = {}  # (mask, masked factor) by block geometry; full far blocks share one
    with np.errstate(invalid="ignore", over="ignore"):
        bl1, br1, bl2, br2 = tb.column_factors(*left)
        for k0 in range(0, n + 1, _BLOCK):
            k1 = min(k0 + _BLOCK, n + 1)
            kk = np.arange(k0, k1)[:, None]
            xl1, xr1, xl2, xr2 = tb.row_factors(*right, k0, k1)
            cfar = max(k0 - _BLOCK, 0)  # 2j >= k + c for own cells j >= k0 of columns c < cfar
            for c0 in range(0, k1 - 1, _BLOCK):
                c1 = min(c0 + _BLOCK, k1 - 1)
                cols = slice(c0, c1)
                # on both halves, 2j < k + c - shift for the whole block iff
                # j < lo, and for none iff j >= hi
                lo = min(max((k0 + c0) // 2, c0), k0)
                hi = min(max((k1 + c1 - 1) // 2, lo), k0)
                top = hi
                if c0 >= cfar:  # the band runs on through the own cells
                    hi, top = k0, k1 - 1
                acc = (xl1[:, c0:lo] @ bl1[c0:lo, cols] + xl2[:, c0:lo] @ bl2[c0:lo, cols]
                       + xr1[:, hi:k0] @ br1[hi:k0, cols] + xr2[:, hi:k0] @ br2[hi:k0, cols])
                if top > lo:
                    j = slice(lo, top)
                    # own0 past the band's width leaves every cell j < k
                    key = (k1 - k0, c1 - c0, top - lo, k0 + c0 - 2 * lo, min(k0 - lo, top - lo))
                    if key not in masks:
                        mask = _band_mask(*key)
                        masks[key] = mask, np.zeros(mask.shape)
                    mask, factor = masks[key]  # masked-out entries stay zero
                    np.copyto(factor, np.concatenate((bl1[j, cols], br1[j, cols],
                                                      bl2[j, cols], br2[j, cols])), where=mask)
                    x = np.concatenate((xl1[:, j], xr1[:, j], xl2[:, j], xr2[:, j]), axis=1)
                    acc += np.matmul(x[:, None], factor)[:, 0]
                if c1 > k0:
                    acc[kk <= np.arange(c0, c1)] = 0.0
                out[k0:k1, c0:c1] = acc
            for k in range(k0 + 1, k1):  # own cells k0 <= j < k, one row at a time
                r, j = k - k0, slice(k0, k)
                out[k, :cfar] += xr1[r, j] @ br1[j, :cfar] + xr2[r, j] @ br2[j, :cfar]
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


def _solve(tb: _HalfCellTables, right: tuple, left: tuple) -> np.ndarray:
    """Regular part R of the second-kind equation with right kernel B,
    sampled in `right`, and left kernel L, sampled in `left`:

        R(t,s) = int_s^t B(t,tau)(t-tau)^(alpha-1) [L(tau,s)(tau-s)^(alpha-1) + R(tau,s)] dtau.

    B = L = A gives the resolvent of A; B = f_y and L = f_u give Q.  The
    doubly singular part does not depend on R, so it is one product table,
    and R is marched over it twice: one Gauss-Seidel sweep over the completed
    table replaces the in-march zero/extension entries near the diagonal,
    where the first pass is roughest; the update is contractive along the
    causal ordering.  B enters only through `right`.
    """
    n = tb.grid.n
    P = _product_table(tb, right, left)
    y1, w = tb.smooth_weights(*right)
    R = np.zeros((n + 1, n + 1))
    _march(R, P, y1, w, last_row_known=False)
    _march(R, P, y1, w, last_row_known=True)
    return R


def _build(alpha: float, grid: Grid, right_fn: KernelFn, left_fn: KernelFn) -> RegularizedKernel:
    """The kernel with right kernel B = right_fn and left kernel L = left_fn: no
    table when L's samples all vanish, a zero table when B's do, `_solve`
    otherwise."""
    left = _left_samples(left_fn, grid)
    if not (_node_samples(left_fn, grid).any() or left[0].any() or left[1].any()):
        return RegularizedKernel(alpha, grid, left_fn, None)
    right = _right_samples(right_fn, grid)
    if not (right[0].any() or right[1].any()):
        return RegularizedKernel(alpha, grid, left_fn, np.zeros((grid.n + 1, grid.n + 1)))
    R = _solve(_HalfCellTables(alpha, grid), right, left)
    return RegularizedKernel(alpha, grid, left_fn, R)


def build_resolvent(A: KernelFn, alpha: float, grid: Grid) -> RegularizedKernel:
    """Resolvent of the operator with kernel A(t,s)(t-s)^(alpha-1).

    A must accept broadcasting array arguments (t, s) and be finite on the
    closed triangle s <= t; values outside it are never used.  Every A, a
    constant one too, is solved by `_solve` with B = L = A, O(N^3).
    """
    return _build(alpha, grid, A, A)


def resolvent_residual(phi: RegularizedKernel, A: KernelFn) -> float:
    """Max defect of the stored regular part under one re-application of the
    fixed-point quadrature using the completed table (diagonal extensions in
    place of the in-march zeros); measures the dropped edge terms."""
    if phi.is_zero:
        return 0.0
    grid = phi.grid
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
    """(Kv)_k = int_0^{t_k} kernel(t_k, s) v(s) ds with node samples of v and
    of c_fn: product rectangles on the singular part, trapezoid on the regular."""
    grid = kernel.grid
    n, h = grid.n, grid.h
    if kernel.is_zero:
        return np.zeros(n + 1)
    w = _toeplitz(singular_weights(kernel.alpha, grid), 0, n + 1)
    trap = np.tril(np.full((n + 1, n + 1), h))
    trap[:, 0] = 0.5 * h
    np.fill_diagonal(trap, 0.5 * h)
    trap[0, 0] = 0.0
    return (_node_samples(kernel.c_fn, grid) * w) @ values + (kernel.regular * trap) @ values


def represent_solution(phi: RegularizedKernel, eta: Trajectory) -> Trajectory:
    """Solution of the linear equation as free term plus resolvent action."""
    _require_nodes("free term", eta, phi.grid)
    return Trajectory(phi.grid, "nodes", eta.values + _apply_nodes(phi, eta.values))


def apply_kernel_nodes(kernel: RegularizedKernel, v: Trajectory) -> Trajectory:
    """Kernel action on a node trajectory; for Q this is the response integral."""
    _require_nodes("input", v, kernel.grid)
    return Trajectory(kernel.grid, "nodes", _apply_nodes(kernel, v.values))


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


def build_q_kernel(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory]) -> RegularizedKernel:
    """Kernel Q with Y1(t) = int_0^t Q(t,s) v(s) ds for every variation v.

    Q solves the variational equation

        Q(t,s) = f_u(t,s) (t-s)^(alpha-1) + int_s^t f_y(t,tau) (t-tau)^(alpha-1) Q(tau,s) dtau,

    f_y and f_u read y* and u* at their second time argument.  Its regular
    part is marched from this equation by `_solve`, with f_y as the right
    kernel and f_u as the left one; no resolvent is built.  Every non-zero
    Q, a constant f_y too, takes that one solver, O(N^3).  Q is the zero
    kernel when f_u's samples all vanish (read at the nodes alone when f_u
    ignores t), and its regular part is zero when f_y's do.  A non-finite
    entry raises KernelAssemblyError at the first such cell in row order.
    """
    grid = _require_pair(problem, pair)
    y_star, u_star = pair
    b = problem.bundle
    c_fn = _pair_fn(b.f_u, y_star.values, u_star.values, grid)
    # if f_u ignores t, its lattice samples are its node values
    if "t" not in b.f_u.free_vars():
        if not _sample(c_fn, 0.0, grid.nodes, (grid.n + 1,), True).any():
            return RegularizedKernel(problem.alpha, grid, c_fn)
    return _build(problem.alpha, grid, _pair_fn(b.f_y, y_star.values, u_star.values, grid), c_fn)


def midpoint_apply_matrix(kernel: RegularizedKernel) -> np.ndarray:
    """Matrix QM with (QM v)_k ~ int_0^{tau_k} kernel(tau_k, s) v(s) ds for v
    sampled on midpoints: the singular coefficient is integrated exactly per
    cell, the regular part gets plain cell weights (half on the partial
    diagonal cell).  A coefficient that ignores t is sampled once per
    column."""
    grid = kernel.grid
    n, h, tau = grid.n, grid.h, grid.midpoints
    if kernel.is_zero:
        return np.zeros((n, n))
    tri = np.tri(n, dtype=bool)
    with np.errstate(all="ignore"):
        # one row of samples, or one value, when the coefficient ignores t
        c = np.asarray(kernel.c_fn(tau[:, None], tau[None, :]), dtype=float)
    qm = np.zeros((n, n))
    np.multiply(c, _lagged(midpoint_weights(kernel.alpha, grid), n, n), out=qm, where=tri)
    # the mean of the cell's four corners times the cell weight h
    R = kernel.regular
    rmid = R[:n, :n] + R[1:, :n]
    rmid += R[:n, 1:]
    rmid += R[1:, 1:]
    rmid *= 0.25
    rmid *= h
    np.fill_diagonal(rmid, R[1:, :n].diagonal() * (0.5 * h))
    return np.add(qm, rmid, out=qm, where=tri)


def node_apply_row(kernel: RegularizedKernel, node_index: int) -> np.ndarray:
    """Weights w with sum_a w[a] v(tau_a) ~ int_0^{t_i} kernel(t_i, s) v(s) ds."""
    grid, i = kernel.grid, node_index
    if not 0 <= i <= grid.n:
        raise IndexError(f"node index {i} outside 0..{grid.n}")
    out = np.zeros(grid.n)
    if kernel.is_zero or i == 0:
        return out
    tau = grid.midpoints[:i]
    with np.errstate(all="ignore"):
        csamp = np.broadcast_to(
            np.asarray(kernel.c_fn(grid.nodes[i], tau), dtype=float), (i,))
    row = kernel.regular[i, : i + 1]
    rsamp = 0.5 * (row[:i] + row[1:])
    out[:i] = csamp * singular_weights(kernel.alpha, grid)[i:0:-1] + rsamp * grid.h
    return out
