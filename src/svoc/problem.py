"""Problem declarations: container, validation, builtins, file round-trip.

A problem instance bundles the singularity exponent alpha, the horizon T, the
free term eta(t), the kernel integrand f(t, s, y, u), the running cost
g(t, y, u) and finitely many instant costs h_i(y) charged at times t_i.
First and second partial derivatives with respect to (y, u) are produced
symbolically once and reused everywhere: those of f and g in `bundle`, and
f's split sum_i a_i(t) b_i(s, y, u) with those of every b_i in `terms`.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

from .expr import (ExpressionError, NonSmoothWarning, ScalarExpr, differentiate,
                   parse_expression, separate)

# variables each declared expression may reference
_PERMITTED = {
    "eta": frozenset({"t"}),
    "f": frozenset({"t", "s", "y", "u"}),
    "g": frozenset({"t", "y", "u"}),
    "h": frozenset({"y"}),
}


class ProblemValidationError(ValueError):
    """A problem declaration violates the data contract."""


@dataclass(frozen=True)
class InstantCost:
    time: float
    h: ScalarExpr


@dataclass(frozen=True)
class InstantDerivs:
    h_y: ScalarExpr
    h_yy: ScalarExpr


@dataclass(frozen=True)
class DerivativeBundle:
    """All symbolic partials needed by the adjoint and second-order machinery;
    f, g and each h themselves live on ProblemSpec."""

    f_y: ScalarExpr
    f_u: ScalarExpr
    f_yy: ScalarExpr
    f_yu: ScalarExpr
    f_uu: ScalarExpr
    g_y: ScalarExpr
    g_u: ScalarExpr
    g_yy: ScalarExpr
    g_yu: ScalarExpr
    g_uu: ScalarExpr
    instants: tuple[InstantDerivs, ...]


@dataclass(frozen=True)
class Term:
    """A term a(t) b(s, y, u) of f's split with b's partials: sum_i a_i b_i_y = f_y, ..."""

    a: ScalarExpr
    b: ScalarExpr
    b_y: ScalarExpr
    b_u: ScalarExpr
    b_yy: ScalarExpr
    b_yu: ScalarExpr
    b_uu: ScalarExpr


def _check_vars(name: str, expression: ScalarExpr, allowed: frozenset[str]) -> None:
    extra = expression.free_vars() - allowed
    if extra:
        raise ProblemValidationError(
            f"{name} may only reference {sorted(allowed)}, found {sorted(extra)}"
        )


@dataclass(frozen=True)
class ProblemSpec:
    """Validated problem data; immutable after construction."""

    alpha: float
    T: float
    eta: ScalarExpr
    f: ScalarExpr
    g: ScalarExpr
    instant_costs: tuple[InstantCost, ...] = ()
    control_bounds: tuple[float, float] | None = None
    name: str = "custom"
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ProblemValidationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.T < math.inf:
            raise ProblemValidationError(f"horizon must be positive and finite, got {self.T}")
        _check_vars("eta", self.eta, _PERMITTED["eta"])
        _check_vars("f", self.f, _PERMITTED["f"])
        _check_vars("g", self.g, _PERMITTED["g"])
        times = [ic.time for ic in self.instant_costs]
        if times != sorted(times):
            raise ProblemValidationError("instant cost times must be sorted")
        for ic in self.instant_costs:
            if not (0.0 <= ic.time <= self.T):
                raise ProblemValidationError(
                    f"instant cost time {ic.time} outside [0, {self.T}]"
                )
            _check_vars("instant cost", ic.h, _PERMITTED["h"])
        if self.control_bounds is not None:
            lo, hi = self.control_bounds
            if not lo < hi:
                raise ProblemValidationError(f"control bounds must satisfy lo < hi, got {lo}, {hi}")

    @cached_property
    def bundle(self) -> DerivativeBundle:
        f_y = differentiate(self.f, "y")
        f_u = differentiate(self.f, "u")
        g_y = differentiate(self.g, "y")
        g_u = differentiate(self.g, "u")
        h_ys = [differentiate(ic.h, "y") for ic in self.instant_costs]
        instants = tuple(InstantDerivs(h_y, differentiate(h_y, "y")) for h_y in h_ys)
        return DerivativeBundle(
            f_y=f_y,
            f_u=f_u,
            f_yy=differentiate(f_y, "y"),
            f_yu=differentiate(f_y, "u"),
            f_uu=differentiate(f_u, "u"),
            g_y=g_y,
            g_u=g_u,
            g_yy=differentiate(g_y, "y"),
            g_yu=differentiate(g_y, "u"),
            g_uu=differentiate(g_u, "u"),
            instants=instants,
        )

    @cached_property
    def terms(self) -> tuple[Term, ...] | None:
        """f's split sum_i a_i(t) b_i(s, y, u), each b_i with its partials; None
        when f does not separate in t.  The abs warning is left to the bundle,
        so a state solve, which reads only this table, gives none."""
        split = separate(self.f)
        if split is None:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonSmoothWarning)
            terms = []
            for a, b in split:
                b_y, b_u = differentiate(b, "y"), differentiate(b, "u")
                terms.append(Term(a, b, b_y, b_u, differentiate(b_y, "y"),
                                  differentiate(b_y, "u"), differentiate(b_u, "u")))
        return tuple(terms)


# --- builtin registry -------------------------------------------------------

# name -> (required params, optional params with defaults, short description,
#          declaration: parameter values -> the problem-file object it names)
BUILTIN_SIGNATURES: dict[str, tuple[tuple[str, ...], dict[str, float], str,
                                    Callable[[dict[str, float]], dict]]] = {
    "paper_example": (
        (),
        {},
        "bilinear kernel t*y*u with free term 1 + t*sqrt(t), running cost y*u, "
        "terminal instant cost y at t=1",
        lambda p: {"alpha": 0.5, "T": 1.0, "eta": "1 + t*sqrt(t)", "f": "t*y*u", "g": "y*u",
                   "instant_costs": [{"t": 1.0, "h": "y"}], "control_bounds": [-1.0, 1.0]},
    ),
    "abel_linear": (
        ("lam",),
        {"alpha": 0.5, "T": 1.0},
        "linear kernel lam*y with unit free term; closed-form solution for checks",
        lambda p: {"alpha": p["alpha"], "T": p["T"], "eta": "1", "f": f"{p['lam']!r}*y",
                   "g": "0"},
    ),
    "sing_quad": (
        ("c",),
        {"alpha": 0.5, "T": 1.0},
        "control-quadratic kernel c*u^2 with running cost y^2; u=0 is singular",
        lambda p: {"alpha": p["alpha"], "T": p["T"], "eta": "1", "f": f"{p['c']!r}*u^2",
                   "g": "y^2"},
    ),
    "lq": (
        ("a", "b", "r"),
        {"alpha": 0.5, "T": 1.0},
        "linear kernel a*y + b*u with quadratic running cost y^2 + r*u^2",
        lambda p: {"alpha": p["alpha"], "T": p["T"], "eta": "1",
                   "f": f"{p['a']!r}*y + {p['b']!r}*u", "g": f"y^2 + {p['r']!r}*u^2"},
    ),
}


def builtin_problem(name: str, params: dict[str, float] | None = None) -> ProblemSpec:
    """Instantiate one of the registered problems: its declaration at the
    given parameter values, built as a problem file is.

    Raises ProblemValidationError for unknown names, missing parameters,
    parameters the problem does not take, or a non-finite coefficient.
    """
    if name not in BUILTIN_SIGNATURES:
        known = ", ".join(sorted(BUILTIN_SIGNATURES))
        raise ProblemValidationError(f"unknown builtin problem '{name}' (known: {known})")
    required, optional, _, declaration = BUILTIN_SIGNATURES[name]
    given = dict(params or {})
    for key in required:
        if key not in given:
            raise ProblemValidationError(f"problem '{name}' is missing parameter '{key}'")
    unknown = set(given) - set(required) - set(optional)
    if unknown:
        raise ProblemValidationError(
            f"problem '{name}' does not take parameter(s) {sorted(unknown)}"
        )
    record = tuple(sorted((k, float(v)) for k, v in {**optional, **given}.items()))
    for key, value in record:
        if key not in ("alpha", "T") and not math.isfinite(value):  # written into f or g
            raise ProblemValidationError(f"parameter '{key}' must be finite, got {value}")
    return _declared_problem(declaration(dict(record)), name, name, record)


# --- file format -------------------------------------------------------------

_REQUIRED_KEYS = {"alpha", "T", "eta", "f", "g"}
_OPTIONAL_KEYS = {"instant_costs", "control_bounds"}


def problem_to_dict(problem: ProblemSpec) -> dict:
    """JSON-compatible encoding; inverse of ``load_problem_file``."""
    data: dict = {
        "alpha": problem.alpha,
        "T": problem.T,
        "eta": str(problem.eta),
        "f": str(problem.f),
        "g": str(problem.g),
        "instant_costs": [{"t": ic.time, "h": str(ic.h)} for ic in problem.instant_costs],
    }
    if problem.control_bounds is not None:
        data["control_bounds"] = list(problem.control_bounds)
    return data


def load_problem_file(path: str | Path) -> ProblemSpec:
    """Load and validate a problem declaration from a JSON file."""
    path = Path(path)
    raw = path.read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProblemValidationError(f"{path}: not valid JSON ({exc})") from exc
    return _declared_problem(data, path, path.stem)


def _declared_problem(data, path, name: str,
                      params: tuple[tuple[str, float], ...] = ()) -> ProblemSpec:
    """The ProblemSpec a problem-file object declares, after its key, type and
    expression checks; their messages start with path."""
    if not isinstance(data, dict):
        raise ProblemValidationError(f"{path}: top level must be an object")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise ProblemValidationError(f"{path}: missing key(s) {sorted(missing)}")
    unknown = set(data) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ProblemValidationError(f"{path}: unknown key(s) {sorted(unknown)}")

    def expr_of(key: str, source) -> ScalarExpr:
        if not isinstance(source, str):
            raise ProblemValidationError(f"{path}: '{key}' must be an expression string")
        try:
            return parse_expression(source)
        except ExpressionError as exc:
            raise ProblemValidationError(f"{path}: bad expression for '{key}': {exc}") from exc

    def number(key: str, source) -> float:
        try:
            if type(source) in (int, float):  # a JSON number, not a bool or a string
                return float(source)
        except OverflowError:  # an integer literal past float range
            pass
        raise ProblemValidationError(f"{path}: '{key}' must be a number")

    entries = data.get("instant_costs", [])
    if not isinstance(entries, list):
        raise ProblemValidationError(f"{path}: instant_costs must be a list")
    instants = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"t", "h"}:
            raise ProblemValidationError(
                f"{path}: instant_costs[{i}] must be an object with keys 't' and 'h'"
            )
        instants.append(InstantCost(number(f"instant_costs[{i}].t", entry["t"]),
                                    expr_of(f"instant_costs[{i}].h", entry["h"])))
    bounds = data.get("control_bounds")
    if bounds is not None:
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise ProblemValidationError(f"{path}: control_bounds must be a [lo, hi] pair")
        bounds = (number("control_bounds[0]", bounds[0]), number("control_bounds[1]", bounds[1]))
    return ProblemSpec(
        alpha=number("alpha", data["alpha"]),
        T=number("T", data["T"]),
        eta=expr_of("eta", data["eta"]),
        f=expr_of("f", data["f"]),
        g=expr_of("g", data["g"]),
        instant_costs=tuple(instants),
        control_bounds=bounds,
        name=name,
        params=params,
    )
