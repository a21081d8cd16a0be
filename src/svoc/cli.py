"""Command-line front end.

Exit codes: 0 success, 1 usage or validation error, 2 numerical failure,
3 I/O failure.  Output files are byte-deterministic for identical inputs;
wall-clock timing goes to stdout only, never into files.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .adjoint import snap_instants, solve_adjoint
from .errors import NumericsError
from .expr import ExpressionError, parse_expression
from .oracle import convergence_study, fd_expansion_check
from .optimality import detect_singular, hamiltonian_fields, second_order_test
from .problem import (BUILTIN_SIGNATURES, ProblemSpec, ProblemValidationError,
                      builtin_problem, load_problem_file)
from .quadrature import make_grid
from .reports import dump_json, table_csv, trajectory_csv
from .state import Trajectory, evaluate_cost, evaluate_on, solve_state

# Grid budget, checked before anything is allocated.  Per grid, a command
# makes a fixed number of O(N^2) passes, marches and tail quadratures:
#   solve     1: y*;
#   adjoint   2: y* and the costate;
#   check     6: y*, the costate and the four Hamiltonian partials H_u, H_uu,
#                H_yy and H_yu (four rows per midpoint of one row loop), and
#                at order 2 also K's O(N^2) products: 7;
#   verify   11: y*, three perturbed states, the costate, the four partials,
#                Y1 and Y2;
#   converge  1: one state march per grid.
# It also holds a fixed number of dense (N+1)^2 float64 tables at its peak.
# Tracemalloc peaks at N = 256, 512 and 1024, in tables, as printed by
# `scripts/peak_tables.py --ns 256,512,1024`: `check --order 2` (with a tol
# that makes the test apply), whose non-zero Q takes one solver (one product
# table and two marches), 17.9, 11.5 and 11.0 on `paper_example` at control
# 0.3 and on `lq` (a=0.7, b=-1.2, r=1.3) at control 0.4 alike; at N = 256 the
# 3.4 MiB of band masks and factors that `resolvent._product_table` holds at
# any N still show.  The budget charges every kernel those 17 tables and the
# O(N^2) row loop, though a kernel that separates in t marches in
# O(N log^2 N).  `verify` builds no Q (its quadratic form reads the sweep's
# Y1) and holds O(N): 1.23, 0.40 and 0.12 tables on `lq`, 1.08, 0.36 and 0.10
# on `paper_example`, as `check --order 1` holds 1.05, 0.32 and 0.09 on
# either.
WORK_BUDGET = 2**34   # sum of (N+1)^2 over a command's passes: `solve` up to N ~ 2^17
DENSE_BUDGET = 2**31  # bytes of dense tables held at once
_PASSES_TABLES = {
    ("solve", 1): (1, 0),
    ("adjoint", 1): (2, 0),
    ("check", 1): (6, 0),
    ("check", 2): (7, 17),
    ("verify", 1): (11, 0),
    ("converge", 1): (1, 0),
}


def grid_cost(command: str, n: int, order: int = 1) -> tuple[int, int]:
    """(O(N^2) work, bytes of dense tables) of one command on an n-cell grid."""
    passes, tables = _PASSES_TABLES[command, order]
    cells = (n + 1) ** 2
    return passes * cells, tables * cells * 8


def _check_budget(command: str, n: int, order: int = 1) -> None:
    work, dense = grid_cost(command, n, order)
    if work > WORK_BUDGET or dense > DENSE_BUDGET:
        name = f"check --order {order}" if command == "check" else command
        raise ProblemValidationError(
            f"a grid of {n} cells is too large for {name}: it needs {work:.3g} "
            f"O(N^2) operations (budget {WORK_BUDGET:.3g}) and {dense / 2**30:.3g} GiB "
            f"of dense tables (budget {DENSE_BUDGET / 2**30:.3g} GiB)")


def _parse_param(text: str) -> tuple[str, float]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    try:
        return key, float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric value in {text!r}") from exc


def _parse_tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not 0.0 <= tol < np.inf:  # also catches nan
        raise argparse.ArgumentTypeError(f"tolerance must be finite and non-negative, got {text!r}")
    return tol


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one exception instead of usage text and exit."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="svoc",
        description="Solve weakly singular integral-equation control problems "
                    "and test candidate controls for necessary optimality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-problems", help="print the builtin problem registry")

    def common(p: argparse.ArgumentParser, control: bool = True) -> None:
        p.add_argument("--problem", required=True,
                       help="builtin name or path to a problem file")
        p.add_argument("--param", action="append", type=_parse_param, default=[],
                       metavar="NAME=VALUE", help="problem parameter (repeatable)")
        p.add_argument("--n", type=int, default=256, help="grid cells (default 256)")
        p.add_argument("--out", default=".", help="output directory")
        if control:
            p.add_argument("--control", required=True,
                           help="control expression in t, e.g. '0' or 'sin(t)'")

    p = sub.add_parser("solve", help="march the state and report the cost")
    common(p)

    p = sub.add_parser("adjoint", help="solve the costate along the control")
    common(p)

    p = sub.add_parser("check", help="first/second-order necessary-condition test")
    common(p)
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--tol", type=_parse_tolerance, default=None,
                   help="singularity tolerance (default scales with the problem)")

    p = sub.add_parser("verify", help="finite-difference validation of the expansion")
    common(p)
    p.add_argument("--direction", required=True, help="variation expression in t")

    p = sub.add_parser("converge", help="error table for the linear problem")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--ns", default="256,512,1024,2048,4096",
                   help="comma-separated grid sizes")
    p.add_argument("--out", default=".")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every command reads, built once: parsing leaves it as it
    is, while a parser built per command is cyclic garbage that piles up
    between full collections."""
    return build_parser()


def _load_problem(args) -> ProblemSpec:
    params = dict(args.param)
    if args.problem in BUILTIN_SIGNATURES:
        return builtin_problem(args.problem, params)
    path = Path(args.problem)
    if path.suffix == ".json" or path.exists():
        if params:
            raise ProblemValidationError("--param applies to builtin problems only")
        return load_problem_file(path)
    raise ProblemValidationError(
        f"unknown problem {args.problem!r}; see 'svoc list-problems'")


def _control(expression: str, grid, what: str = "control") -> Trajectory:
    expr = parse_expression(expression)
    extra = expr.free_vars() - {"t"}
    if extra:
        raise ProblemValidationError(f"{what} may only reference t, found {sorted(extra)}")
    values = evaluate_on(expr, {"t": grid.nodes}, grid.nodes.shape)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ProblemValidationError(f"{what} is not finite at t = {grid.nodes[np.argmax(bad)]:g}")
    return Trajectory(grid, "nodes", values)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _setup(args):
    """Problem, grid, output directory and control shared by the pair commands."""
    _check_budget(args.command, args.n, getattr(args, "order", 1))
    problem = _load_problem(args)
    grid = make_grid(problem.T, args.n)
    out = _out_dir(args)
    return problem, grid, out, _control(args.control, grid)


def _identity(problem: ProblemSpec, args) -> dict:
    return {
        "problem": problem.name,
        "params": {k: v for k, v in problem.params},
        "n": args.n,
    }


def _cmd_list_problems(args) -> int:
    for name in sorted(BUILTIN_SIGNATURES):
        required, optional, blurb, _ = BUILTIN_SIGNATURES[name]
        sig = ", ".join(list(required) + [f"{k}={v:g}" for k, v in optional.items()])
        print(f"{name}({sig})")
        print(f"    {blurb}")
    return 0


def _cmd_solve(args) -> int:
    problem, grid, out, control = _setup(args)
    start = time.perf_counter()
    y = solve_state(problem, control)
    cost = evaluate_cost(problem, y, control)
    elapsed = time.perf_counter() - start
    trajectory_csv(out / "state.csv", grid.nodes, y.values)
    report = _identity(problem, args)
    report.update(control=args.control, running=cost.running,
                  instants=list(cost.instants), total=cost.total,
                  files=["state.csv", "cost.json"])
    dump_json(report, out / "cost.json")
    print(f"J = {cost.total:.12g} (running {cost.running:.12g}, "
          f"instants {sum(cost.instants):.12g})")
    print(f"wrote state.csv, cost.json to {out} in {elapsed:.3f}s")
    return 0


def _cmd_adjoint(args) -> int:
    problem, grid, out, control = _setup(args)
    start = time.perf_counter()
    y = solve_state(problem, control)
    psi = solve_adjoint(problem, (y, control))
    elapsed = time.perf_counter() - start
    trajectory_csv(out / "adjoint.csv", grid.midpoints, psi.values)
    print(f"wrote adjoint.csv to {out} in {elapsed:.3f}s")
    return 0


def _cmd_check(args) -> int:
    problem, grid, out, control = _setup(args)
    start = time.perf_counter()
    y = solve_state(problem, control)
    cost = evaluate_cost(problem, y, control)
    psi = solve_adjoint(problem, (y, control))
    fields = hamiltonian_fields(problem, (y, control), psi)
    verdict = detect_singular(fields, args.tol)
    files = ["check.json"]
    report = _identity(problem, args)
    report.update(
        control=args.control,
        order=args.order,
        cost={"running": cost.running, "instants": list(cost.instants),
              "total": cost.total},
        sup_hu=verdict.sup_hu,
        sup_hu_at=verdict.argmax_time,
        singular=verdict.singular,
        tol=verdict.tol,
        snapped_instants=[
            {"time": s.time, "snapped": s.snapped_time, "distance": s.distance}
            for s in snap_instants(problem, grid)
        ],
    )
    second = None
    if args.order == 2 and verdict.singular:
        second = second_order_test(problem, (y, control), fields, args.tol)
        files.append("second_order.json")
        if second.violating_direction is not None:
            files.append("direction.csv")
    elapsed = time.perf_counter() - start
    report["files"] = files
    dump_json(report, out / "check.json")
    if second is not None:
        dump_json(
            {
                "verdict": second.verdict,
                "lambda_max": second.lambda_max,
                "tol": second.tol,
                "sup_hu": second.sup_hu,
                "convention": second.convention,
                "files": files,
            },
            out / "second_order.json",
        )
        if second.violating_direction is not None:
            trajectory_csv(out / "direction.csv", grid.midpoints,
                           second.violating_direction.values)
    print(f"J = {cost.total:.12g}; sup|H_u| = {verdict.sup_hu:.6g} "
          f"(tol {verdict.tol:.3g}) -> {'singular' if verdict.singular else 'not singular'}")
    if second is not None:
        print(f"second-order verdict: {second.verdict} (lambda_max {second.lambda_max:.6g})")
    print(f"wrote {', '.join(files)} to {out} in {elapsed:.3f}s")
    return 0


def _cmd_verify(args) -> int:
    problem, grid, out, control = _setup(args)
    direction = _control(args.direction, grid, what="direction")
    start = time.perf_counter()
    expansion = fd_expansion_check(problem, control, direction)
    variational = expansion.variational
    elapsed = time.perf_counter() - start
    report = _identity(problem, args)
    report.update(
        control=args.control,
        direction=args.direction,
        expansion={
            "rows": [
                {"delta": r.delta, "delta_j": r.delta_j, "model1": r.model1,
                 "model2": r.model2, "residual": r.residual}
                for r in expansion.rows
            ],
            "ratios": list(expansion.ratios),
            "hu_pairing": expansion.hu_pairing,
            "qf": expansion.qf,
        },
        variational={
            "deltas": list(variational.deltas),
            "e1": list(variational.e1),
            "e2": list(variational.e2),
            "ratio1": list(variational.ratio1),
            "ratio2": list(variational.ratio2),
            "exact1": variational.exact1,
            "exact2": variational.exact2,
        },
        files=["verify.json"],
    )
    dump_json(report, out / "verify.json")
    for row in expansion.rows:
        print(f"delta={row.delta:g}: dJ={row.delta_j: .6e}  model2={row.model2: .6e}  "
              f"residual={row.residual: .2e}")
    print(f"wrote verify.json to {out} in {elapsed:.3f}s")
    return 0


def _cmd_converge(args) -> int:
    try:
        ns = [int(x) for x in args.ns.split(",") if x.strip()]
    except ValueError as exc:
        raise ProblemValidationError(f"bad --ns list {args.ns!r}") from exc
    if not ns:
        raise ProblemValidationError("--ns must name at least one grid size")
    for n in ns:
        _check_budget("converge", n)
    out = _out_dir(args)
    start = time.perf_counter()
    report = convergence_study(args.lam, args.alpha, ns)
    elapsed = time.perf_counter() - start
    table_csv(out / "converge.csv", ["n", "error", "order"],
              [(str(r.n), r.error, r.order) for r in report.rows])
    for r in report.rows:
        print(f"n={r.n:6d}  error={r.error:.6e}  order={r.order:.3f}")
    print(f"wrote converge.csv to {out} in {elapsed:.3f}s")
    return 0


_DISPATCH = {
    "list-problems": _cmd_list_problems,
    "solve": _cmd_solve,
    "adjoint": _cmd_adjoint,
    "check": _cmd_check,
    "verify": _cmd_verify,
    "converge": _cmd_converge,
}


def _run(argv) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _DISPATCH[args.command](args)
    except (ExpressionError, ProblemValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericsError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # every walk of an expression tree or of JSON recurses
        print("error: input nested too deeply (an expression or the problem file)", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


def run_command(argv) -> int:
    """Run one command; stderr gets at most one line.  Floating-point warnings
    are silenced (every march and cost checks finiteness itself), and the first
    other warning is printed only if the command succeeds."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        code = _run(argv)
    if code == 0 and caught:
        print(f"warning: {caught[0].message}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
