"""Backward costate solve on the midpoint grid.

The costate satisfies

    psi(t) = int_t^T f_y(s, t, y*(t), u*(t)) psi(s) (s - t)^(alpha-1) ds
             - g_y(t, y*(t), u*(t))
             - sum_i 1[t < t_i] f_y(t_i, t, y*(t), u*(t)) (t_i - t)^(alpha-1) h_y^i(y*(t_i)),

with the convention that the first argument of f (and its partials) is always
the later time, so every evaluation stays inside the kernel's domain.  psi
lives on midpoints: instant times sit on nodes, so the (t_i - t)^(alpha-1)
factor is never evaluated at its pole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdjointStepError
from .expr import separate
from .problem import ProblemSpec
from .quadrature import Grid, linear_march, midpoint_weights
from .state import Trajectory, _outer_samples, evaluate_on


@dataclass(frozen=True)
class InstantSnap:
    """An instant-cost time aligned with the grid."""

    time: float
    node_index: int
    snapped_time: float
    distance: float


def snap_instants(problem: ProblemSpec, grid: Grid) -> tuple[InstantSnap, ...]:
    out = []
    for ic in problem.instant_costs:
        idx = int(round(ic.time / grid.h))
        idx = min(max(idx, 0), grid.n)
        snapped = idx * grid.h
        out.append(InstantSnap(ic.time, idx, snapped, abs(ic.time - snapped)))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class AdjointTrajectory:
    """Costate on midpoints plus the singular instant-term samples that fed it."""

    psi: Trajectory
    instant_terms: np.ndarray  # shape (num instants, num midpoints)
    snaps: tuple[InstantSnap, ...]

    @property
    def values(self) -> np.ndarray:
        return self.psi.values


def _instant_rows(problem: ProblemSpec, grid: Grid, expression,
                  y_nodes: np.ndarray, ym: np.ndarray, um: np.ndarray,
                  snaps: tuple[InstantSnap, ...]) -> np.ndarray:
    """Rows 1[tau_k < t_i] expr(t_i, tau_k, y*_k, u*_k) (t_i - tau_k)^(alpha-1) h_y^i."""
    tau = grid.midpoints
    rows = np.zeros((len(snaps), grid.n))
    for i, snap in enumerate(snaps):
        hy = float(problem.bundle.instants[i].h_y.evaluate(y=y_nodes[snap.node_index]))
        live = tau < snap.snapped_time
        if hy == 0.0 or not live.any():
            continue
        env = {"t": snap.snapped_time, "s": tau[live], "y": ym[live], "u": um[live]}
        vals = evaluate_on(expression, env, tau[live].shape)
        rows[i, live] = vals * (snap.snapped_time - tau[live]) ** (problem.alpha - 1.0) * hy
    return rows


def _tail_row(expression, tau: np.ndarray, ym: np.ndarray, um: np.ndarray,
              k: int) -> np.ndarray:
    """expression(tau_j, tau_k, y*_k, u*_k) for j = k..n-1."""
    env = {"t": tau[k:], "s": tau[k], "y": ym[k], "u": um[k]}
    return evaluate_on(expression, env, (len(tau) - k,))


def _factors(split, tau: np.ndarray, ym: np.ndarray, um: np.ndarray):
    """(a, b) of a split along the pair: a_i(tau_j) and b_i(tau_k, y*_k, u*_k),
    one row per term."""
    env = {"s": tau, "y": ym, "u": um}
    return (_outer_samples([a for a, _ in split], tau),
            np.array([evaluate_on(b, env, tau.shape) for _, b in split]))


def _tail_sums(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """sum_{j>=k} mu[j-k] x[i, j] for every row i of x and every k, by one
    FFT correlation per row; of length at least 2n - 1, so that the
    wrapped-around lags j - k < 0 only meet the zero padding of mu."""
    from numpy.fft import irfft, rfft

    n = x.shape[-1]
    size = 1 << (2 * n - 1).bit_length()
    spectrum, kernel = rfft(x, size), rfft(mu, size)
    spectrum *= np.conjugate(kernel, out=kernel)
    return irfft(spectrum, size)[..., :n]


def _tail_field(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory], grid: Grid,
                f_part, g_part, phi: np.ndarray) -> tuple[np.ndarray, int | None]:
    """sum_{j>=k} mu[j-k] f_part(tau_j, tau_k, y*_k, u*_k) phi_j - g_part(tau_k, ...)
    minus f_part's instant rows, per midpoint k: the costate right-hand side for
    (f_y, g_y), H and its partials for f, g and their partials.  One FFT
    correlation per term when f_part separates, else O(N^2) row by row; O(N)
    memory either way.

    Also returns where a non-finite field fails, None when it is finite: the
    first midpoint with a sampled term that is not finite (a separable factor,
    a_i phi at the later time or b_i at the earlier one, a row of the row loop,
    g_part or an instant row), else the field's first bad midpoint (only sums
    overflowed).  A tail sum carries a bad term to every midpoint before it, and
    an FFT correlation to every midpoint.  As mu > 0, a bad term makes its
    row's sum bad, so the row loop tests a row's terms only then."""
    y_star, u_star = pair
    n, tau = grid.n, grid.midpoints
    ym, um = y_star.midpoint_values(), u_star.midpoint_values()
    mu = midpoint_weights(problem.alpha, grid)
    split = separate(f_part)
    with np.errstate(all="ignore"):
        if split is not None:
            a, b = _factors(split, tau, ym, um)
            x = a * phi
            bad = ~(np.isfinite(x).all(axis=0) & np.isfinite(b).all(axis=0))
            tail = np.sum(b * _tail_sums(x, mu), axis=0)
        else:
            tail, bad = np.empty(n), np.zeros(n, dtype=bool)
            for k in range(n):
                terms = _tail_row(f_part, tau, ym, um, k) * phi[k:]
                tail[k] = mu[: n - k] @ terms
                bad[k] = not np.isfinite(tail[k]) and not np.isfinite(terms).all()
    snaps = snap_instants(problem, grid)
    inst = _instant_rows(problem, grid, f_part, y_star.values, ym, um, snaps)
    g = evaluate_on(g_part, {"t": tau, "y": ym, "u": um}, tau.shape)
    field = tail - g - inst.sum(axis=0)
    bad |= ~(np.isfinite(g) & np.isfinite(inst).all(axis=0))
    if not bad.any():
        bad = ~np.isfinite(field)
    return field, (int(np.argmax(bad)) if bad.any() else None)


def solve_adjoint(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                  grid: Grid) -> AdjointTrajectory:
    """March the costate backward from the horizon.

    The diagonal half cell couples psi_k to itself linearly; the step fails if
    its coefficient degenerates.  When f_y separates the march runs on the
    reversed index, where its tail sums are causal sums, and `linear_march`
    solves a leaf of rows at a time.
    """
    y_star, u_star = pair
    if y_star.grid != grid or u_star.grid != grid:
        raise ValueError("pair lives on a different grid")
    n = grid.n
    tau = grid.midpoints
    ym = y_star.midpoint_values()
    um = u_star.midpoint_values()
    b = problem.bundle
    mu = midpoint_weights(problem.alpha, grid)
    snaps = snap_instants(problem, grid)
    inst = _instant_rows(problem, grid, b.f_y, y_star.values, ym, um, snaps)
    known = evaluate_on(b.g_y, {"t": tau, "y": ym, "u": um}, tau.shape) + inst.sum(axis=0)
    denom = 1.0 - mu[0] * evaluate_on(b.f_y, {"t": tau, "s": tau, "y": ym, "u": um}, tau.shape)
    split = separate(b.f_y)
    if split is not None:
        # on the reversed index r = n - 1 - k: psi_k = (tail - known_k) / denom_k
        a, coeff = _factors(split, tau, ym, um)
        rev = slice(None, None, -1)

        def guard(lo, x):
            k = n - 1 - lo - np.arange(len(x))
            bad = (np.abs(denom[k]) < 1e-12) | ~np.isfinite(x)
            if bad.any():
                i = int(np.argmax(bad))
                raise AdjointStepError(k[i], denom[k[i]])

        with np.errstate(divide="ignore"):
            psi = linear_march(mu, coeff[:, rev], a[:, rev], 0.0, -known[rev],
                               1.0 / denom[rev], guard)[rev]
    else:
        psi = np.zeros(n)
        for k in range(n - 1, -1, -1):
            fy = _tail_row(b.f_y, tau, ym, um, k)
            tail = mu[1 : n - k] @ (fy[1:] * psi[k + 1 :])
            if abs(denom[k]) < 1e-12:
                raise AdjointStepError(k, denom[k])
            psi[k] = (tail - known[k]) / denom[k]
            if not np.isfinite(psi[k]):
                raise AdjointStepError(k, denom[k])
    return AdjointTrajectory(Trajectory(grid, "midpoints", psi), inst, snaps)


def adjoint_residual(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                     adj: AdjointTrajectory, grid: Grid) -> float:
    """Max absolute defect of psi under one re-application of the equation."""
    b, psi = problem.bundle, adj.psi.values
    return float(np.max(np.abs(_tail_field(problem, pair, grid, b.f_y, b.g_y, psi)[0] - psi)))
