"""Forward state solves, cost evaluation, and the variational marches.

The state equation is

    y(t) = eta(t) + int_0^t f(t, s, y(s), u(s)) (t - s)^(alpha-1) ds,

discretized by product rectangles with left-endpoint sampling, which makes the
march explicit.  The first- and second-order variational solutions along a
reference pair use the same weight table.  When f separates every march reads
the terms of `ProblemSpec.terms`, else each takes the O(N^2) row loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, StateBlowupError
from .expr import Num, ScalarExpr, parse_expression
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


def _require_grid(name: str, x, grid: Grid) -> None:  # x: a trajectory or a kernel
    if x.grid != grid:
        raise ValueError(f"{name} lives on a different grid")


def _require_nodes(name: str, trajectory: Trajectory, grid: Grid) -> None:
    _require_grid(name, trajectory, grid)
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


def _term_samples(problem: ProblemSpec, times: np.ndarray, env: dict, parts: tuple[str, ...]):
    """(a, tables) for the terms a_i(t) b_i of `problem.terms` that have some
    partial "b" + part, part in parts, not identically zero: a_i on times, one
    row a term, and for each part its partials under env, one row a term.
    A term left out costs no sample, so a pole of its a_i cannot meet a zero
    partial as 0 * inf; with every term left out the tables have no rows."""
    terms = [term for term in problem.terms
             if any(getattr(term, "b" + part) != _ZERO for part in parts)]
    shape = (len(terms), len(times))
    with np.errstate(all="ignore"):
        tables = [np.array([evaluate_on(getattr(term, "b" + part), env, times.shape)
                            for term in terms]).reshape(shape) for part in parts]
    return _outer_samples([term.a for term in terms], times).reshape(shape), tables


def solve_state(problem: ProblemSpec, control: Trajectory) -> Trajectory:
    """March the state equation forward; the rectangle scheme makes it explicit."""
    grid = control.grid
    _require_nodes("control", control, grid)
    t = grid.nodes
    u = control.values
    eta = evaluate_on(problem.eta, {"t": t}, t.shape)
    _guard(0, eta[0])
    w = singular_weights(problem.alpha, grid)
    terms = problem.terms
    if terms is not None and not any("y" in term.b_y.free_vars() for term in terms):
        # every b_i = B_i(s, u) y + G_i(s, u), B_i = b_y: one triangular solve per leaf
        a, (slopes, free) = _term_samples(problem, t, {"s": t, "y": 0.0, "u": u}, ("_y", ""))
        return Trajectory(grid, "nodes", linear_march(w, a, slopes, free, eta, _guard_rows))
    y = np.zeros(grid.n + 1)
    y[0] = eta[0]
    if terms is None:
        f = problem.f
        for k in range(1, grid.n + 1):
            env = {"t": t[k], "s": t[:k], "y": y[:k], "u": u[:k]}
            y[k] = eta[k] + w[k:0:-1] @ evaluate_on(f, env, (k,))
            _guard(k, y[k])
        return Trajectory(grid, "nodes", y)
    # f = sum_i a_i(t) b_i(s, y, u): one new sample of each b_i per row
    outer = _outer_samples([term.a for term in terms], t)
    inner = [term.b for term in terms]

    def step(k, c):
        if k:
            y[k] = eta[k] + outer[:, k] @ c
            _guard(k, y[k])
        return [b.evaluate(s=t[k], y=y[k], u=u[k]) for b in inner]

    causal_march(w, len(inner), step)
    return Trajectory(grid, "nodes", y)


def evaluate_cost(problem: ProblemSpec, y: Trajectory, u: Trajectory) -> CostBreakdown:
    """Trapezoid running cost plus instant costs at linearly interpolated states."""
    grid = y.grid
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


def _require_pair(pair: tuple[Trajectory, Trajectory]) -> Grid:
    """The grid of the reference state, after checking the pair on its nodes."""
    grid = pair[0].grid
    _require_nodes("reference state", pair[0], grid)
    _require_nodes("reference control", pair[1], grid)
    return grid


def _march_response(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                    grid: Grid, parts: tuple[str, ...], source) -> Trajectory:
    """March z_k = sum_{j<k} w[k-j] (f_y z_j + source_j) along the pair, z_0 = 0.

    source(sl, *samples) builds the source on the node slice sl from samples
    there of the partials of f named by parts ("_u" for f_u, ...) and must be
    linear in the samples.  When f separates, `linear_march` solves a leaf of
    rows at a time, each term's b_y as coefficient and its partials in parts
    as samples; otherwise the bundle's partials are sampled per row.
    """
    w = singular_weights(problem.alpha, grid)
    t = grid.nodes
    if problem.terms is not None:
        env = {"s": t, "y": pair[0].values, "u": pair[1].values}
        a, (coeff, *samples) = _term_samples(problem, t, env, ("_y", *parts))
        return Trajectory(grid, "nodes", linear_march(w, a, coeff, source(slice(None), *samples),
                                                      0.0, _guard_rows))
    y_star, u_star = pair
    exprs = [getattr(problem.bundle, "f" + part) for part in ("_y", *parts)]
    z = np.zeros(grid.n + 1)
    for k in range(1, grid.n + 1):
        env = {"t": t[k], "s": t[:k], "y": y_star.values[:k], "u": u_star.values[:k]}
        coeff, *samples = (evaluate_on(e, env, (k,)) for e in exprs)
        z[k] = w[k:0:-1] @ (coeff * z[:k] + source(slice(0, k), *samples))
        _guard(k, z[k])
    return Trajectory(grid, "nodes", z)


def solve_y1(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
             v: Trajectory) -> Trajectory:
    """First-order response of the state to a control variation v."""
    grid = _require_pair(pair)
    _require_nodes("variation", v, grid)
    vv = v.values
    return _march_response(problem, pair, grid, ("_u",), lambda sl, fu: fu * vv[sl])


def solve_y2(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
             v: Trajectory, y1: Trajectory) -> Trajectory:
    """Second-order response; sources quadratic in (Y1, v) under the same weights.

    When f_yy, f_yu and f_uu are all identically zero (f linear in (y, u))
    every source vanishes, so Y2 solves a homogeneous equation and is zero
    without a march.
    """
    grid = _require_pair(pair)
    _require_nodes("variation", v, grid)
    _require_nodes("first-order response", y1, grid)
    b = problem.bundle
    if all(e == _ZERO for e in (b.f_yy, b.f_yu, b.f_uu)):
        return Trajectory(grid, "nodes", np.zeros(grid.n + 1))
    vv, z1 = v.values, y1.values

    def source(sl, fyy, fyu, fuu):
        return fyy * z1[sl] ** 2 + 2.0 * fyu * z1[sl] * vv[sl] + fuu * vv[sl] ** 2

    return _march_response(problem, pair, grid, ("_yy", "_yu", "_uu"), source)


def _shared_columns(problem: ProblemSpec, control: Trajectory, v: Trajectory,
                    deltas: tuple[float, ...]):
    """Operands (a, b, g, d) of one `linear_march` whose columns are the
    state at the control u*, the states at u* + d v for d in deltas, and
    then Y1 along (y*, u*), or None.

    They share one operator when f separates, no slope b_y reads y or u, no
    b_u reads y, and every term has a b_y or b_u not identically zero: then
    every march keeps every term and samples the same outer factors and
    slopes, and Y1's f_u samples need no y*, which the march itself gives.
    Each column's free part comes from the sampler call of its own march,
    the first at u* itself, so each equals that march bit for bit.  None
    also when an input is off the grid's nodes or a control is not finite."""
    terms, grid = problem.terms, control.grid
    if (terms is None
            or any(term.b_y.free_vars() & {"y", "u"} or "y" in term.b_u.free_vars()
                   or term.b_y == term.b_u == _ZERO for term in terms)
            or not all(x.grid == grid and x.placement == "nodes" for x in (control, v))):
        return None
    u_star = control.values
    controls = [u_star, *(u_star + d * v.values for d in deltas)]
    if not np.all(np.isfinite(controls)):
        return None
    t = grid.nodes
    a, (b, fu) = _term_samples(problem, t, {"s": t, "y": 0.0, "u": u_star}, ("_y", "_u"))
    # G of each state march, sampled as solve_state samples it
    g = [_term_samples(problem, t, {"s": t, "y": 0.0, "u": u}, ("_y", ""))[1][1]
         for u in controls]
    d = np.zeros((len(g) + 1, grid.n + 1))
    d[:-1] = evaluate_on(problem.eta, {"t": t}, t.shape)
    return a, b, np.array([*g, fu * v.values]), d


def _march_sweep(problem: ProblemSpec, control: Trajectory, v: Trajectory,
                 deltas: tuple[float, ...]):
    """(y*, the states y(u* + d v) for d in deltas, Y1 along (y*, u*)) as
    the columns of one `linear_march`, which inverts each leaf once for all
    of them, each column equal to its own march bit for bit; or None when
    `_shared_columns` finds no one operator or that march fails.  The caller
    then marches them one by one, so a failure is the one those marches
    raise.
    """
    shared = _shared_columns(problem, control, v, deltas)
    if shared is None:
        return None
    try:
        x = linear_march(singular_weights(problem.alpha, control.grid), *shared, _guard_rows)
    except NumericsError:
        return None  # the caller's marches raise it again, in their order
    y_star, *states, y1 = (Trajectory(control.grid, "nodes", row) for row in x)
    return y_star, tuple(states), y1
