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
from .problem import ProblemSpec
from .quadrature import Grid, midpoint_weights
from .state import Trajectory, evaluate_on


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


def _tail_sampler(expression, tau: np.ndarray, ym: np.ndarray, um: np.ndarray):
    """(column, row) for the tail coefficient e(tau_j, tau_k, y*_k, u*_k), j >= k.

    row(k) samples row k on tau[k:].  If e ignores t it is evaluated once,
    into column; otherwise column is None and each row evaluates e.
    """
    n = len(tau)
    if "t" not in expression.free_vars():
        column = evaluate_on(expression, {"s": tau, "y": ym, "u": um}, tau.shape)
        return column, lambda k: np.broadcast_to(column[k], (n - k,))
    return None, lambda k: evaluate_on(
        expression, {"t": tau[k:], "s": tau[k], "y": ym[k], "u": um[k]}, (n - k,))


def _tail_field(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory], grid: Grid,
                f_part, g_part, phi: np.ndarray) -> np.ndarray:
    """sum_{j>=k} mu[j-k] f_part(tau_j, tau_k, y*_k, u*_k) phi_j - g_part(tau_k, ...)
    minus f_part's instant rows, per midpoint k: the costate right-hand side for
    (f_y, g_y), H and its partials for f, g and their partials.  O(N^2) time and
    O(N) memory, or O(N) evaluations and one correlation if f_part ignores t."""
    y_star, u_star = pair
    n, tau = grid.n, grid.midpoints
    ym, um = y_star.midpoint_values(), u_star.midpoint_values()
    mu = midpoint_weights(problem.alpha, grid).mu
    with np.errstate(all="ignore"):
        column, row = _tail_sampler(f_part, tau, ym, um)
        if column is not None:
            tail = column * np.correlate(phi, mu, "full")[n - 1 :]
        else:
            tail = np.array([mu[: n - k] @ (row(k) * phi[k:]) for k in range(n)])
    snaps = snap_instants(problem, grid)
    inst = _instant_rows(problem, grid, f_part, y_star.values, ym, um, snaps)
    return tail - evaluate_on(g_part, {"t": tau, "y": ym, "u": um}, tau.shape) - inst.sum(axis=0)


def solve_adjoint(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                  grid: Grid) -> AdjointTrajectory:
    """March the costate backward from the horizon.

    The diagonal half cell couples psi_k to itself linearly; the step fails if
    its coefficient degenerates.
    """
    y_star, u_star = pair
    if y_star.grid != grid or u_star.grid != grid:
        raise ValueError("pair lives on a different grid")
    n = grid.n
    tau = grid.midpoints
    ym = y_star.midpoint_values()
    um = u_star.midpoint_values()
    b = problem.bundle
    mu = midpoint_weights(problem.alpha, grid).mu
    snaps = snap_instants(problem, grid)
    inst = _instant_rows(problem, grid, b.f_y, y_star.values, ym, um, snaps)
    gy = evaluate_on(b.g_y, {"t": tau, "y": ym, "u": um}, tau.shape)

    _, row = _tail_sampler(b.f_y, tau, ym, um)
    psi = np.zeros(n)
    for k in range(n - 1, -1, -1):
        fy = row(k)
        rhs = mu[1 : n - k] @ (fy[1:] * psi[k + 1 :]) - gy[k] - inst[:, k].sum()
        denom = 1.0 - mu[0] * fy[0]
        if abs(denom) < 1e-12:
            raise AdjointStepError(k, denom)
        psi[k] = rhs / denom
        if not np.isfinite(psi[k]):
            raise AdjointStepError(k, denom)
    return AdjointTrajectory(Trajectory(grid, "midpoints", psi), inst, snaps)


def adjoint_residual(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                     adj: AdjointTrajectory, grid: Grid) -> float:
    """Max absolute defect of psi under one re-application of the equation."""
    b, psi = problem.bundle, adj.psi.values
    return float(np.max(np.abs(_tail_field(problem, pair, grid, b.f_y, b.g_y, psi) - psi)))
