"""Forward state solves, cost evaluation, and the variational marches.

The state equation is

    y(t) = eta(t) + int_0^t f(t, s, y(s), u(s)) (t - s)^(alpha-1) ds,

discretized by product rectangles with left-endpoint sampling, which makes the
march explicit.  The first- and second-order variational solutions along a
reference pair use the same weight table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NewtonError, NumericsError, StateBlowupError
from .expr import ScalarExpr, parse_expression
from .problem import ProblemSpec
from .quadrature import Grid, singular_weights, trapezoid, trapezoid_weights

BLOWUP_LIMIT = 1e12

_PLACEMENTS = ("nodes", "midpoints")


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
    if not np.isfinite(value) or abs(value) > BLOWUP_LIMIT:
        raise StateBlowupError(k, value)


def solve_state(problem: ProblemSpec, control: Trajectory, grid: Grid,
                scheme: str = "rectangle") -> Trajectory:
    """March the state equation forward; explicit under the rectangle scheme.

    scheme="trapezoid" interpolates the smooth factor linearly per cell, which
    couples y_k to itself; the scalar nonlinearity is resolved by Newton.
    """
    _require_nodes("control", control, grid)
    if scheme not in ("rectangle", "trapezoid"):
        raise ValueError(f"unknown scheme {scheme!r}")
    t = grid.nodes
    u = control.values
    eta = evaluate_on(problem.eta, {"t": t}, t.shape)
    y = np.zeros(grid.n + 1)
    y[0] = eta[0]
    _guard(0, y[0])

    f = problem.f
    if scheme == "rectangle":
        w = singular_weights(problem.alpha, grid)
        if "t" not in f.free_vars():
            # kernel independent of the outer time: one new sample per row
            fv = np.zeros(grid.n + 1)
            for k in range(1, grid.n + 1):
                fv[k - 1] = f.evaluate(s=t[k - 1], y=y[k - 1], u=u[k - 1])
                y[k] = eta[k] + w.row(k) @ fv[:k]
                _guard(k, y[k])
        else:
            for k in range(1, grid.n + 1):
                env = {"t": t[k], "s": t[:k], "y": y[:k], "u": u[:k]}
                y[k] = eta[k] + w.row(k) @ evaluate_on(f, env, (k,))
                _guard(k, y[k])
        return Trajectory(grid, "nodes", y)

    w = trapezoid_weights(problem.alpha, grid)
    f_y = problem.bundle.f_y
    diag = w.diagonal
    for k in range(1, grid.n + 1):
        row = w.row(k)
        env = {"t": t[k], "s": t[:k], "y": y[:k], "u": u[:k]}
        known = eta[k] + row[:k] @ evaluate_on(f, env, (k,))
        z = y[k - 1]
        for _ in range(50):
            point = {"t": t[k], "s": t[k], "y": z, "u": u[k]}
            resid = z - known - diag * float(f.evaluate(**point))
            slope = 1.0 - diag * float(f_y.evaluate(**point))
            if abs(slope) < 1e-12:
                raise NewtonError(f"degenerate Newton slope at node {k}")
            z -= resid / slope
            if abs(resid) <= 1e-12 * (1.0 + abs(z)):
                break
        else:
            raise NewtonError(f"no convergence in 50 Newton steps at node {k}")
        y[k] = z
        _guard(k, y[k])
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
    exprs there; samples are taken once when no expression reads the outer
    time t, and per row otherwise.
    """
    y_star, u_star = pair
    _require_nodes("reference state", y_star, grid)
    _require_nodes("reference control", u_star, grid)
    t = grid.nodes
    w = singular_weights(problem.alpha, grid)
    exprs = (problem.bundle.f_y, *exprs)
    z = np.zeros(grid.n + 1)
    if all("t" not in e.free_vars() for e in exprs):
        env = {"s": t, "y": y_star.values, "u": u_star.values}
        coeff, *samples = (evaluate_on(e, env, t.shape) for e in exprs)
        src = source(slice(None), *samples)
        for k in range(1, grid.n + 1):
            z[k] = w.row(k) @ (coeff[:k] * z[:k] + src[:k])
            _guard(k, z[k])
    else:
        for k in range(1, grid.n + 1):
            env = {"t": t[k], "s": t[:k], "y": y_star.values[:k], "u": u_star.values[:k]}
            coeff, *samples = (evaluate_on(e, env, (k,)) for e in exprs)
            z[k] = w.row(k) @ (coeff * z[:k] + source(slice(0, k), *samples))
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
