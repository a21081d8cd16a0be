"""Forward state solves, cost evaluation, and the variational marches.

The state equation is

    y(t) = eta(t) + int_0^t f(t, s, y(s), u(s)) (t - s)^(alpha-1) ds,

discretized by product rectangles with left-endpoint sampling, which makes the
march explicit.  The first- and second-order variational solutions along a
reference pair use the same weight table.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, StateBlowupError
from .expr import NonSmoothWarning, Num, ScalarExpr, differentiate, parse_expression, separate
from .problem import ProblemSpec
from .quadrature import Grid, causal_march, linear_march, singular_weights, trapezoid

BLOWUP_LIMIT = 1e12

_PLACEMENTS = ("nodes", "midpoints")
_ZERO = Num(0.0)


def evaluate_on(expression: ScalarExpr, env: dict, shape: tuple) -> np.ndarray:
    """Evaluate an expression over array-valued bindings, broadcasting constants."""
    out = np.asarray(expression.evaluate(**env), dtype=float)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Samples of a scalar function of time on a uniform grid."""

    grid: Grid
    placement: str
    values: np.ndarray

    def __post_init__(self):
        if self.placement not in _PLACEMENTS:
            raise ValueError(f"placement must be one of {_PLACEMENTS}, got {self.placement!r}")
        vals = np.asarray(self.values, dtype=float)
        expected = self.grid.n + 1 if self.placement == "nodes" else self.grid.n
        if vals.shape != (expected,):
            raise ValueError(
                f"{self.placement} trajectory needs {expected} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("trajectory values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def times(self) -> np.ndarray:
        return self.grid.nodes if self.placement == "nodes" else self.grid.midpoints

    @classmethod
    def from_expression(cls, expression: ScalarExpr | str, grid: Grid,
                        placement: str = "nodes") -> "Trajectory":
        if isinstance(expression, str):
            expression = parse_expression(expression)
        times = grid.nodes if placement == "nodes" else grid.midpoints
        return cls(grid, placement, evaluate_on(expression, {"t": times}, times.shape))

    @classmethod
    def constant(cls, value: float, grid: Grid, placement: str = "nodes") -> "Trajectory":
        size = grid.n + 1 if placement == "nodes" else grid.n
        return cls(grid, placement, np.full(size, float(value)))

    def midpoint_values(self) -> np.ndarray:
        """Values at cell midpoints; node data is averaged pairwise."""
        if self.placement == "midpoints":
            return self.values
        return 0.5 * (self.values[:-1] + self.values[1:])


@dataclass(frozen=True)
class CostBreakdown:
    running: float
    instants: tuple[float, ...]
    total: float


def _require_nodes(name: str, trajectory: Trajectory, grid: Grid) -> None:
    if trajectory.grid != grid:
        raise ValueError(f"{name} lives on a different grid")
    if trajectory.placement != "nodes":
        raise ValueError(f"{name} must be sampled on nodes")


def _guard(k: int, value: float) -> None:
    if not abs(value) <= BLOWUP_LIMIT:  # also catches nan
        raise StateBlowupError(k, value)


def _guard_rows(lo: int, values: np.ndarray) -> None:
    """_guard on the first bad one of values, which belong to rows lo, lo + 1, ..."""
    bad = ~(np.abs(values) <= BLOWUP_LIMIT)
    if bad.any():
        i = int(np.argmax(bad))
        _guard(lo + i, values[i])


def _outer_samples(factors, times: np.ndarray) -> np.ndarray:
    """Outer-time factors a_i of a split on `times`, one row each; a factor may
    be singular at t = 0, which no forward march row reads."""
    with np.errstate(all="ignore"):
        return np.array([evaluate_on(a, {"t": times}, times.shape) for a in factors])


def _slopes(split) -> list[ScalarExpr] | None:
    """d b_i / dy for the inner factors b_i of a split when none of them reads
    y, that is when every b_i is affine in y; else None."""
    with warnings.catch_warnings():
        # d abs(u)/dy is exactly zero; the warning about abs is for the bundle
        warnings.simplefilter("ignore", NonSmoothWarning)
        slopes = [differentiate(b, "y") for _, b in split]
    return None if any("y" in e.free_vars() for e in slopes) else slopes


def solve_state(problem: ProblemSpec, control: Trajectory, grid: Grid) -> Trajectory:
    """March the state equation forward; the rectangle scheme makes it explicit."""
    _require_nodes("control", control, grid)
    t = grid.nodes
    u = control.values
    eta = evaluate_on(problem.eta, {"t": t}, t.shape)
    y = np.zeros(grid.n + 1)
    y[0] = eta[0]
    _guard(0, y[0])

    f = problem.f
    w = singular_weights(problem.alpha, grid)
    split = separate(f)
    if split is None:
        for k in range(1, grid.n + 1):
            env = {"t": t[k], "s": t[:k], "y": y[:k], "u": u[:k]}
            y[k] = eta[k] + w[k:0:-1] @ evaluate_on(f, env, (k,))
            _guard(k, y[k])
        return Trajectory(grid, "nodes", y)
    # f = sum_i a_i(t) b_i(s, y, u)
    outer = _outer_samples([a for a, _ in split], t)
    slopes = _slopes(split)
    if slopes is not None:
        # every b_i = B_i(s, u) y + G_i(s, u): one triangular solve per leaf
        env = {"s": t, "u": u}
        with np.errstate(all="ignore"):
            B = np.array([evaluate_on(e, env, t.shape) for e in slopes])
            G = np.array([evaluate_on(b, {**env, "y": 0.0}, t.shape) for _, b in split])
        y = linear_march(w, outer, B, G, eta, 1.0, _guard_rows)
    else:
        # one new sample of each b_i per row
        inner = [b for _, b in split]

        def step(k, c):
            if k:
                y[k] = eta[k] + outer[:, k] @ c
                _guard(k, y[k])
            return [b.evaluate(s=t[k], y=y[k], u=u[k]) for b in inner]

        causal_march(w, len(inner), step)
    return Trajectory(grid, "nodes", y)


def evaluate_cost(problem: ProblemSpec, y: Trajectory, u: Trajectory, grid: Grid) -> CostBreakdown:
    """Trapezoid running cost plus instant costs at linearly interpolated states."""
    _require_nodes("state", y, grid)
    _require_nodes("control", u, grid)
    t = grid.nodes
    with np.errstate(all="ignore"):
        g = evaluate_on(problem.g, {"t": t, "y": y.values, "u": u.values}, t.shape)
        running = trapezoid(g, grid.h)
        instants = []
        for ic in problem.instant_costs:
            yi = float(np.interp(ic.time, t, y.values))
            instants.append(float(ic.h.evaluate(y=yi)))
    total = running + sum(instants)
    if not np.isfinite(total):
        raise NumericsError(f"cost is not finite (running {running:g}, instants {instants})")
    return CostBreakdown(running, tuple(instants), total)


def _march_response(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                    grid: Grid, exprs: tuple[ScalarExpr, ...], source) -> Trajectory:
    """March z_k = sum_{j<k} w[k-j] (f_y z_j + source_j) along the pair, z_0 = 0.

    source(sl, *samples) builds the source on the node slice sl from samples of
    exprs there and must be linear in the samples.  When every expression
    separates, each distinct outer factor a(t) gets its own coefficient and
    source from the inner factors paired with it, the samples are taken once
    and `linear_march` solves a leaf of rows at a time; otherwise the samples
    are taken per row.
    """
    y_star, u_star = pair
    _require_nodes("reference state", y_star, grid)
    _require_nodes("reference control", u_star, grid)
    t = grid.nodes
    w = singular_weights(problem.alpha, grid)
    exprs = (problem.bundle.f_y, *exprs)
    splits = [separate(e) for e in exprs]
    if all(split is not None for split in splits):
        splits = [dict(split) for split in splits]
        outer = list(dict.fromkeys(a for split in splits for a in split))
        env = {"s": t, "y": y_star.values, "u": u_star.values}
        coeff, src = [], []
        for a in outer:
            c, *samples = (evaluate_on(split.get(a, _ZERO), env, t.shape) for split in splits)
            coeff.append(c)
            src.append(source(slice(None), *samples))
        z = linear_march(w, _outer_samples(outer, t), np.array(coeff), np.array(src),
                         0.0, 1.0, _guard_rows)
    else:
        z = np.zeros(grid.n + 1)
        for k in range(1, grid.n + 1):
            env = {"t": t[k], "s": t[:k], "y": y_star.values[:k], "u": u_star.values[:k]}
            coeff, *samples = (evaluate_on(e, env, (k,)) for e in exprs)
            z[k] = w[k:0:-1] @ (coeff * z[:k] + source(slice(0, k), *samples))
            _guard(k, z[k])
    return Trajectory(grid, "nodes", z)


def solve_y1(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
             v: Trajectory, grid: Grid) -> Trajectory:
    """First-order response of the state to a control variation v."""
    _require_nodes("variation", v, grid)
    vv = v.values
    return _march_response(problem, pair, grid, (problem.bundle.f_u,),
                           lambda sl, fu: fu * vv[sl])


def solve_y2(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
             v: Trajectory, y1: Trajectory, grid: Grid) -> Trajectory:
    """Second-order response; sources quadratic in (Y1, v) under the same weights."""
    _require_nodes("variation", v, grid)
    _require_nodes("first-order response", y1, grid)
    b = problem.bundle
    vv, z1 = v.values, y1.values

    def source(sl, fyy, fyu, fuu):
        return fyy * z1[sl] ** 2 + 2.0 * fyu * z1[sl] * vv[sl] + fuu * vv[sl] ** 2

    return _march_response(problem, pair, grid, (b.f_yy, b.f_yu, b.f_uu), source)
