"""Uniform grids and product quadrature for weakly singular kernels.

All integrals carry a factor (t - s)^(alpha - 1) with 0 < alpha < 1, so the
kernel factor is integrated exactly over each cell and only the smooth factor
is sampled.  Weights depend on k - j alone, hence one array per grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import NumericsError


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [0, T] with n cells."""

    T: float
    n: int

    @property
    def h(self) -> float:
        return self.T / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        """t_k = k h for k = 0..n (length n + 1)."""
        return np.linspace(0.0, self.T, self.n + 1)

    @cached_property
    def midpoints(self) -> np.ndarray:
        """tau_k = (k + 1/2) h for k = 0..n-1 (length n)."""
        return (np.arange(self.n) + 0.5) * self.h


def make_grid(T: float, n: int) -> Grid:
    if not T > 0.0:
        raise ValueError(f"horizon must be positive, got {T}")
    if n < 2:
        raise ValueError(f"need at least 2 cells, got {n}")
    return Grid(float(T), int(n))


def singular_weights(alpha: float, grid: Grid) -> np.ndarray:
    """Rectangle-rule weights omega for int_0^{t_k} phi(s) (t_k - s)^(alpha-1) ds.

    phi is sampled at the left endpoint of each cell; the singular factor is
    integrated exactly, giving weight omega[k - j] on phi(t_j):

        omega[d] = h^alpha (d^alpha - (d-1)^alpha) / alpha,   d >= 1,

    and omega[0] = 0.  Row k, the weights on phi(t_0), ..., phi(t_{k-1}), is
    omega[k:0:-1]; row sums telescope to t_k^alpha / alpha exactly.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    d = np.arange(grid.n + 1, dtype=float)
    omega = np.zeros(grid.n + 1)
    omega[1:] = grid.h**alpha * (d[1:] ** alpha - d[:-1] ** alpha) / alpha
    return omega


def midpoint_weights(alpha: float, grid: Grid) -> np.ndarray:
    """Midpoint-rule weights mu for singular integrals anchored at a midpoint.

    One table serves both orientations.  With mu[0] = (h/2)^alpha / alpha and
    mu[d] = h^alpha ((d + 1/2)^alpha - (d - 1/2)^alpha) / alpha:

      * tail: int_{tau_k}^{T} phi(tau) (tau - tau_k)^(alpha-1) dtau
        gets weight mu[j - k] on phi(tau_j), j = k..n-1; the first half cell
        [tau_k, t_{k+1}] is sampled at tau_k itself.
      * head: int_0^{tau_k} phi(s) (tau_k - s)^(alpha-1) ds gets weight
        mu[k - j] on phi(tau_j), j = 0..k.

    Row sums telescope to (T - tau_k)^alpha / alpha and tau_k^alpha / alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    h = grid.h
    d = np.arange(grid.n, dtype=float)
    mu = np.empty(grid.n)
    mu[0] = (0.5 * h) ** alpha / alpha
    mu[1:] = h**alpha * ((d[1:] + 0.5) ** alpha - (d[1:] - 0.5) ** alpha) / alpha
    return mu


LEAF = 128  # rows a stepped march runs one by one between convolutions
LINEAR_LEAF = 64  # rows a linear march solves as one triangular system
LEAF_CHUNK = 8  # leaves of a linear march whose systems are inverted as one batch
DIRECT = 128  # longest half that reaches the next rows by a dense product, not an FFT


def _toeplitz(w: np.ndarray, first: int, size: int) -> np.ndarray:
    """The (size, size) table of w[first + r - c], zero where the lag
    first + r - c is below 1 or past len(w) - 1."""
    lags = np.arange(first - size + 1, first + size)
    inside = (lags >= 1) & (lags < len(w))
    column = np.zeros(len(lags))
    column[inside] = w[lags[inside]]
    # row r is column[size - 1 + r - c] for c = 0..size-1
    return sliding_window_view(column[::-1], size)[::-1].copy()


def _leaf_schedule(w: np.ndarray, m: int, leaf: int):
    """Yield (lo, hi, acc, p) for the leaves [lo, hi) of len(w) rows in order.

    Before the next leaf is requested the caller fills p[lo:hi] (m values a
    row); acc[k] then holds the part of sum_{j<k} w[k - j] p[j] from rows
    before row k's own leaf.  Divide and conquer (Hairer, Lubich & Schlichte,
    SIAM J. Sci. Stat. Comput. 6 (1985)): once the rows so far fill the first
    half of an aligned block of 2^i leaves, that half adds its part to the
    block's second half.  A half of at most DIRECT rows does so by one dense
    product with its Toeplitz table of w, a longer one by one FFT
    convolution, unless the end of the rows leaves at most DIRECT rows of
    the second half: those take direct sums.  O(m N log^2 N) time, O(m N)
    memory; w[0] is never read.
    """
    from numpy.fft import irfft, rfft

    n = len(w)
    p = np.zeros((n, m))
    acc = np.zeros((n, m))
    tables = {}
    for lo in range(0, n, leaf):
        hi = min(lo + leaf, n)
        yield lo, hi, acc, p
        if hi == n:
            return
        half = leaf  # rows hi - half .. hi - 1 are the first half of the block
        while hi % (2 * half) == 0:
            half *= 2
        size, end = 2 * half, min(hi + half, n)
        block = p[hi - half : hi]
        if half <= DIRECT:
            # rows hi + r read w[half + r - c] from row hi - half + c
            if size not in tables:
                tables[size] = _toeplitz(w, half, half)
            acc[hi:end] += tables[size][: end - hi] @ block
        elif end - hi <= DIRECT:
            # a block the end cuts short: direct sums for its few rows
            for i in range(m):
                acc[hi:end, i] += np.convolve(w[1 : half + end - hi], block[:, i], "valid")
        else:
            # rows hi..end-1 read w[1 : size] only, so a length-size
            # cyclic convolution wraps nothing onto them
            if size not in tables:
                tables[size] = rfft(w[:size], size)[:, None]
            spectrum = rfft(block, size, axis=0)
            spectrum *= tables[size]
            acc[hi:end] += irfft(spectrum, size, axis=0)[half : half + end - hi]


def causal_march(w: np.ndarray, m: int, step) -> None:
    """Run step(k, c) for k = 0, ..., len(w) - 1 in order, where

        c = sum_{j<k} w[k - j] p[j]   (m values),

    and p[j] holds the m samples step(j, ...) returned.  Rows run one by one
    within leaves of LEAF rows, and finished leaves reach later rows through
    the products of `_leaf_schedule`.  This serves marches that are
    nonlinear in their unknown: the state when some inner factor of f is not
    affine in y.  `linear_march` solves the linear ones a leaf at a time: the
    costate, the responses Y1 and Y2 always, and the state when f is affine
    in y.  Either way a failure names the row a row loop names.
    """
    for lo, hi, acc, p in _leaf_schedule(w, m, LEAF):
        for k in range(lo, hi):
            p[k] = step(k, acc[k] + w[k - lo : 0 : -1] @ p[lo:k])


def _invert_unit_lower(a: np.ndarray) -> None:
    """Overwrite each a[c], a strictly lower L of size 2^i, with (I - L)^-1.

    Block recursion from the diagonal out: once the diagonal s-blocks hold
    their inverses A^-1 and B^-1, the lower-left block L21 of each diagonal
    2s-block becomes B^-1 L21 A^-1.  One batched product per level.
    """
    c, n, _ = a.shape
    a.reshape(c, -1)[:, :: n + 1] = 1.0
    sc, sr, se = a.strides
    s = 2  # the 1-blocks are their own inverses, so L21 stands for s = 1
    while s < n:
        # the diagonal 2s-blocks of every a[c], as a (c, n / 2s, 2s, 2s) view
        blocks = as_strided(a, (c, n // (2 * s), 2 * s, 2 * s), (sc, 2 * s * (sr + se), sr, se))
        np.matmul(blocks[..., s:, s:] @ blocks[..., s:, :s], blocks[..., :s, :s],
                  out=blocks[..., s:, :s])
        s *= 2


def linear_march(w: np.ndarray, a: np.ndarray, b: np.ndarray, g, d, s, guard) -> np.ndarray:
    """Solve, for k = 0, ..., len(w) - 1,

        x_k = s_k (d_k + sum_i a[i, k] sum_{j<k} w[k - j] (b[i, j] x_j + g[i, j])),

    with a, b of shape (m, len(w)); g, d and s broadcast to their shapes.
    Each leaf of LINEAR_LEAF rows is one lower-triangular system
    (I - diag(s) sum_i diag(a_i) T diag(b_i)) x = rhs, T the Toeplitz table of
    w.  Its matrix does not depend on x, so the matrices of LEAF_CHUNK
    consecutive leaves are inverted as one batch and applied at once to the
    x-free part of rhs, s d + diag(s) sum_i diag(a_i) T g_i.  Inside the
    march a leaf then costs one matrix-vector product with the part of rhs
    that earlier leaves give through `_leaf_schedule`.  a[:, 0] and w[0] are
    never read.

    guard(lo, values) raises at the first unusable entry of values, which
    belong to rows lo, lo + 1, ...  When it raises on a solved leaf, the leaf
    is marched again row by row, so the error names the row a row loop names
    (an inverse mixes the rows of its leaf once one of them is not finite,
    but never the rows of two leaves).
    """
    n, m = len(w), len(a)
    size, span = LINEAR_LEAF, LINEAR_LEAF * LEAF_CHUNK
    toeplitz = _toeplitz(w, 0, size)
    s, d, g = np.broadcast_to(s, (n,)), np.broadcast_to(d, (n,)), np.broadcast_to(g, b.shape)
    x = np.zeros(n)
    # one chunk of span rows as LEAF_CHUNK leaves, zero past row n - 1:
    # s a, b and g (m values a row) and s d
    sa, bt, gt = (np.zeros((LEAF_CHUNK, size, m)) for _ in range(3))
    sd = np.zeros((LEAF_CHUNK, size))
    with np.errstate(all="ignore"):
        for lo, hi, acc, p in _leaf_schedule(w, m, size):
            c, r = lo % span // size, hi - lo
            if c == 0:
                rows = slice(lo, min(lo + span, n))
                for buf, values in ((sa, s[rows, None] * a[:, rows].T), (bt, b[:, rows].T),
                                    (gt, g[:, rows].T), (sd, s[rows] * d[rows])):
                    flat = buf.reshape(span, -1)
                    flat[: len(values)] = values.reshape(len(values), -1)
                    flat[len(values) :] = 0.0
                if lo == 0:
                    sa[0, 0] = 0.0
                inv = sa @ bt.transpose(0, 2, 1)
                inv *= toeplitz
                _invert_unit_lower(inv)
                known = sd + np.sum(sa * (toeplitz @ gt), axis=2)
                base = (inv @ known[..., None])[..., 0]
            xl = x[lo:hi]
            xl[:] = base[c, :r] + inv[c, :r, :r] @ np.sum(sa[c, :r] * acc[lo:hi], axis=1)
            try:
                guard(lo, xl)
            except NumericsError:
                for j in range(r):
                    xl[j] = sd[c, j] + sa[c, j] @ (acc[lo + j] + w[j:0:-1] @ p[lo : lo + j])
                    guard(lo + j, xl[j : j + 1])
                    p[lo + j] = bt[c, j] * xl[j] + gt[c, j]
            p[lo:hi] = bt[c, :r] * xl[:, None] + gt[c, :r]
            if c == LEAF_CHUNK - 1:
                # free the inverses while the schedule's longest convolutions
                # run: those of halves of LEAF_CHUNK leaves or more, at chunk ends
                inv = base = None
    return x


def trapezoid(values: np.ndarray, h: float) -> float:
    """Composite trapezoid rule over uniformly spaced samples."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need a 1-d array with at least two samples")
    return float(h * (0.5 * (values[0] + values[-1]) + values[1:-1].sum()))
