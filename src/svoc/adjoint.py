"""Backward costate solve on the midpoint grid.

The costate satisfies

    psi(t) = int_t^T f_y(s, t, y*(t), u*(t)) psi(s) (s - t)^(alpha-1) ds
             - g_y(t, y*(t), u*(t))
             - sum_i 1[t < t_i] f_y(t_i, t, y*(t), u*(t)) (t_i - t)^(alpha-1) h_y^i(y*(t_i)),

with the convention that the first argument of f (and its partials) is always
the later time, so every evaluation stays inside the kernel's domain.
`solve_adjoint` returns psi as a plain midpoint `Trajectory`: instant times
sit on nodes, so the (t_i - t)^(alpha-1) factor is never evaluated at its
pole.  The Hamiltonian partials are the same sum with f_y, g_y swapped for
other partials; one call evaluates each instant's h_y^i once for all the
partials it reads.  When f separates the march and every tail sum run on the
terms of `ProblemSpec.terms`, else row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdjointStepError
from .problem import ProblemSpec
from .quadrature import Grid, linear_march, midpoint_weights
from .state import _ZERO, Trajectory, _require_grid, _require_pair, _term_samples, evaluate_on


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


def _free_terms(problem: ProblemSpec, grid: Grid, y_nodes: np.ndarray, ym: np.ndarray,
                um: np.ndarray, parts: tuple[str, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per part, g_part(tau_k, y*_k, u*_k) and the instant rows
    1[tau_k < t_i] f_part(t_i, tau_k, y*_k, u*_k) (t_i - tau_k)^(alpha-1) h_y^i;
    h_y^i, the live midpoints and the singular factor are formed once per instant."""
    tau = grid.midpoints
    b = problem.bundle
    out = [(evaluate_on(getattr(b, "g" + part), {"t": tau, "y": ym, "u": um}, tau.shape),
            np.zeros((len(b.instants), grid.n))) for part in parts]
    for i, snap in enumerate(snap_instants(problem, grid)):
        hy = float(b.instants[i].h_y.evaluate(y=y_nodes[snap.node_index]))
        live = tau < snap.snapped_time
        if hy == 0.0 or not live.any():
            continue
        env = {"t": snap.snapped_time, "s": tau[live], "y": ym[live], "u": um[live]}
        factor = (snap.snapped_time - tau[live]) ** (problem.alpha - 1.0)
        for part, (_, rows) in zip(parts, out):
            vals = evaluate_on(getattr(b, "f" + part), env, tau[live].shape)
            rows[i, live] = vals * factor * hy
    return out


def _tail_row(expression, tau: np.ndarray, ym: np.ndarray, um: np.ndarray,
              k: int) -> np.ndarray:
    """expression(tau_j, tau_k, y*_k, u*_k) for j = k..n-1."""
    env = {"t": tau[k:], "s": tau[k], "y": ym[k], "u": um[k]}
    return evaluate_on(expression, env, (len(tau) - k,))


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
                parts: tuple[str, ...], phi: np.ndarray) -> list[tuple[np.ndarray, int | None]]:
    """Per part in parts, sum_{j>=k} mu[j-k] f_part(tau_j, tau_k, y*_k, u*_k) phi_j -
    g_part(tau_k, ...) minus f_part's instant rows, per midpoint k (H's partials, or for
    "_y" the costate right-hand side), from one pass over the pair.  When f separates
    each a_i phi of the rows of `_term_samples` (the terms some part reads) is
    FFT-correlated once, and a part sums b_i,part times those sums over its rows with
    b_i,part not identically zero (no 0 * inf); else one O(N^2) row loop takes every
    part.

    With each field comes where it fails, None when it is finite: the first midpoint
    with a sampled term of its part that is not finite (a_i phi, b_i,part, a row of the
    row loop, g_part or an instant row), else the field's first bad midpoint (only sums
    overflowed), as a tail sum carries a bad term to every midpoint before it and a
    correlation to every midpoint.  As mu > 0 a bad term makes its row's sum bad, so the
    row loop tests a row's terms only then."""
    y_star, u_star = pair
    n, tau = grid.n, grid.midpoints
    ym, um = y_star.midpoint_values(), u_star.midpoint_values()
    mu = midpoint_weights(problem.alpha, grid)
    f_parts = [getattr(problem.bundle, "f" + part) for part in parts]
    tails, bads = np.empty((len(parts), n)), np.zeros((len(parts), n), dtype=bool)
    with np.errstate(all="ignore"):
        if problem.terms is not None:
            reads = np.array([[getattr(term, "b" + part) != _ZERO for term in problem.terms]
                              for part in parts])
            a, tables = _term_samples(problem, tau, {"s": tau, "y": ym, "u": um}, parts)
            x = a * phi
            sums = _tail_sums(x, mu)
            for i, (keep, b) in enumerate(zip(reads[:, reads.any(axis=0)], tables)):
                tails[i] = np.sum(b[keep] * sums[keep], axis=0)
                bads[i] = ~(np.isfinite(x[keep]).all(axis=0) & np.isfinite(b[keep]).all(axis=0))
        else:
            for k in range(n):
                for i, f_part in enumerate(f_parts):
                    terms = _tail_row(f_part, tau, ym, um, k) * phi[k:]
                    tails[i, k] = mu[: n - k] @ terms
                    bads[i, k] = not np.isfinite(tails[i, k]) and not np.isfinite(terms).all()
    out, free = [], _free_terms(problem, grid, y_star.values, ym, um, parts)
    for tail, bad, (g, inst) in zip(tails, bads, free):
        field = tail - g - inst.sum(axis=0)
        bad |= ~(np.isfinite(g) & np.isfinite(inst).all(axis=0))
        if not bad.any():
            bad = ~np.isfinite(field)
        out.append((field, int(np.argmax(bad)) if bad.any() else None))
    return out


def solve_adjoint(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory]) -> Trajectory:
    """March the costate backward from the horizon on the pair's grid.

    The diagonal half cell couples psi_k to itself linearly; the step fails if
    its coefficient degenerates.  When f separates the march runs on the
    reversed index, where its tail sums are causal sums, and `linear_march`
    solves a leaf of rows at a time.
    """
    grid = _require_pair(problem, pair)
    y_star, u_star = pair
    n, tau = grid.n, grid.midpoints
    ym, um = y_star.midpoint_values(), u_star.midpoint_values()
    b = problem.bundle
    mu = midpoint_weights(problem.alpha, grid)
    [(g, inst)] = _free_terms(problem, grid, y_star.values, ym, um, ("_y",))
    known = g + inst.sum(axis=0)
    denom = 1.0 - mu[0] * evaluate_on(b.f_y, {"t": tau, "s": tau, "y": ym, "u": um}, tau.shape)
    if problem.terms is not None:
        # on the reversed index r = n - 1 - k: psi_k = (tail - known_k) / denom_k
        a, (coeff,) = _term_samples(problem, tau, {"s": tau, "y": ym, "u": um}, ("_y",))
        rev = slice(None, None, -1)

        def guard(lo, x):
            k = n - 1 - lo - np.arange(len(x))
            bad = (np.abs(denom[k]) < 1e-12) | ~np.isfinite(x)
            if bad.any():
                i = int(np.argmax(bad))
                raise AdjointStepError(k[i], denom[k[i]])

        with np.errstate(all="ignore"):
            # the row scale 1 / denom_k multiplies each row's factors and free term
            scale = 1.0 / denom[rev]
            coeff, known = scale * coeff[:, rev], scale * -known[rev]
            psi = linear_march(mu, coeff, a[:, rev], 0.0, known, guard)[rev]
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
    return Trajectory(grid, "midpoints", psi)


def adjoint_residual(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                     psi: Trajectory) -> float:
    """Max absolute defect of psi under one re-application of the equation."""
    grid = _require_pair(problem, pair)
    _require_grid("costate", psi, grid)
    [(field, _)] = _tail_field(problem, pair, grid, ("_y",), psi.values)
    return float(np.max(np.abs(field - psi.values)))
