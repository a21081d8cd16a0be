"""Seeded workloads: one round is the fixed list of CLI commands a user runs
in one session, and every command carries the checks of its outputs.

Inputs come only from the workload seed.  A check returns the problems it
found; it tests properties any correct implementation keeps (verdicts,
finiteness, orders, file presence) and pins no bits.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WHY = {
    "verify-q": "O(N^3) Python-loop resolvent and Q assembly behind `verify` on lq; "
                "the path a single discrete linearization must speed up",
    "second-order": "`check --order 2` on sing_quad, where Q is zero: eigh, Hamiltonian "
                    "fields and K assembly, with the resolvent loop bypassed",
    "march": "O(N^2) state and costate marches, problem-file loading, large CSV "
             "writes and the Mittag-Leffler series; no resolvent, no eigensolve",
}
WORKLOADS = tuple(WHY)
CONVERGE_BAND = (0.7, 1.2)  # observed order band of the rectangle scheme (tests/test_oracle.py)


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    inputs: dict
    scale: int


def build(name: str, seed: int, inputs_dir: Path, scale: int = 1) -> Workload:
    """The workload's round; grid sizes are divided by `scale`."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    builder = {"verify-q": _verify_q, "second-order": _second_order, "march": _march}[name]
    commands, inputs = builder(rng, inputs_dir, scale)
    return Workload(name, commands, inputs, scale)


def _num(x: float) -> str:
    return f"{x:.4f}"


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    """Magnitude in [lo, hi], either sign: keeps the value away from zero."""
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


# -- workloads -----------------------------------------------------------------

def _verify_q(rng, inputs_dir, scale):
    a, b = _num(_signed(rng, 0.3, 1.0)), _num(_signed(rng, 0.5, 1.5))
    r, u0 = _num(rng.uniform(0.5, 2.0)), _num(rng.uniform(-1.0, 1.0))
    direction = f"cos({rng.randint(1, 4)}*t)"
    argv = ("verify", "--problem", "lq", "--param", f"a={a}", "--param", f"b={b}",
            "--param", f"r={r}", f"--control={u0}", f"--direction={direction}",
            "--n", str(384 // scale))
    inputs = {"a": a, "b": b, "r": r, "control": u0, "direction": direction}
    return (Command("verify", argv, _check_verify),), inputs


def _second_order(rng, inputs_dir, scale):
    commands = []
    inputs = {}
    for label, c in (("violated", -rng.uniform(0.5, 2.0)), ("holds", rng.uniform(0.5, 2.0))):
        argv = ("check", "--order", "2", "--problem", "sing_quad", "--param",
                f"c={_num(c)}", "--control=0", "--n", str(1536 // scale))
        commands.append(Command(f"check-{label}", argv, _check_second_order(c < 0)))
        inputs[f"c_{label}"] = _num(c)
    return tuple(commands), inputs


def _march(rng, inputs_dir, scale):
    problem = {
        "alpha": 0.5, "T": 1.0, "eta": "1 + t*sqrt(t)", "f": "t*y*u", "g": "y*u",
        "instant_costs": [{"t": 1.0, "h": "y"}], "control_bounds": [-1.0, 1.0],
    }
    path = inputs_dir / "problem.json"
    path.write_text(json.dumps(problem, indent=2) + "\n", encoding="utf-8")
    c0, c1 = rng.uniform(-0.6, 0.6), _signed(rng, 0.05, 0.3)  # |u| <= 0.9 inside the bounds
    control = f"{_num(c0)} {'+' if c1 > 0 else '-'} {_num(abs(c1))}*sin({rng.randint(1, 3)}*t)"
    lam = _num(rng.uniform(0.5, 1.2))
    n_march, n_check = 16384 // scale, 2048 // scale
    ns = [n // scale for n in (512, 1024, 2048, 4096)]
    common = ("--problem", str(path), f"--control={control}")
    commands = (
        Command("solve", ("solve", *common, "--n", str(n_march)), _check_solve(n_march)),
        Command("adjoint", ("adjoint", *common, "--n", str(n_march)), _check_adjoint(n_march)),
        Command("check", ("check", "--order", "1", *common, "--n", str(n_check)),
                _check_first_order),
        Command("converge", ("converge", f"--lambda={lam}", "--ns", ",".join(map(str, ns))),
                _check_converge(len(ns))),
    )
    return commands, {"control": control, "lambda": lam}


# -- output checks -------------------------------------------------------------

def _numbers(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _numbers(value)
    elif obj is None or (isinstance(obj, float) and not math.isfinite(obj)):
        yield None
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def _report(out: Path, name: str, problems: list[str], numbers=lambda report: report) -> dict | None:
    """Load a JSON report, check the files it lists exist and that the numbers
    `numbers(report)` picks out of it are finite."""
    path = out / name
    if not path.is_file():
        problems.append(f"{name} missing")
        return None
    report = json.loads(path.read_text(encoding="utf-8"))
    for listed in report.get("files", []):
        if not (out / listed).is_file():
            problems.append(f"{listed} listed in {name} but missing")
    if any(x is None for x in _numbers(numbers(report))):
        problems.append(f"{name} holds a non-finite number")
    return report


def _csv(out: Path, name: str, rows: int, problems: list[str]) -> list[list[str]]:
    path = out / name
    if not path.is_file():
        problems.append(f"{name} missing")
        return []
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [line.split(",") for line in lines[1:]]
    if len(body) != rows:
        problems.append(f"{name} has {len(body)} rows, expected {rows}")
    return body


def _finite_table(name: str, body, problems: list[str]) -> None:
    if not all(math.isfinite(float(cell)) for row in body for cell in row):
        problems.append(f"{name} holds a non-finite number")


def _without_exact_ratios(report: dict) -> dict:
    """verify.json reports a variational ratio as null when its order is exact
    (errors at roundoff)."""
    var = {k: v for k, v in report["variational"].items()
           if not (k.startswith("ratio") and report["variational"]["exact" + k[-1]])}
    return {**report, "variational": var}


def _check_verify(out: Path) -> list[str]:
    problems: list[str] = []
    report = _report(out, "verify.json", problems, _without_exact_ratios)
    if report is not None:
        residuals = [abs(row["residual"]) for row in report["expansion"]["rows"]]
        if not all(x > y for x, y in zip(residuals, residuals[1:])):
            problems.append(f"expansion residual does not shrink with delta: {residuals}")
    return problems


def _check_second_order(negative_c: bool):
    def check(out: Path) -> list[str]:
        problems: list[str] = []
        report = _report(out, "check.json", problems)
        second = _report(out, "second_order.json", problems)
        if report is None or second is None:
            return problems
        if not report["singular"]:
            problems.append("u = 0 not detected as singular")
        expected = "violated" if negative_c else "holds"
        if second["verdict"] != expected:
            problems.append(f"verdict {second['verdict']!r}, expected {expected!r}")
        if negative_c:
            _finite_table("direction.csv", _csv(out, "direction.csv", report["n"], problems),
                          problems)
        elif (out / "direction.csv").exists():
            problems.append("direction.csv written although the condition holds")
        return problems
    return check


def _check_solve(n: int):
    def check(out: Path) -> list[str]:
        problems: list[str] = []
        _report(out, "cost.json", problems)
        _finite_table("state.csv", _csv(out, "state.csv", n + 1, problems), problems)
        return problems
    return check


def _check_adjoint(n: int):
    def check(out: Path) -> list[str]:
        problems: list[str] = []
        _finite_table("adjoint.csv", _csv(out, "adjoint.csv", n, problems), problems)
        return problems
    return check


def _check_first_order(out: Path) -> list[str]:
    problems: list[str] = []
    _report(out, "check.json", problems)
    return problems


def _check_converge(rows: int):
    def check(out: Path) -> list[str]:
        problems: list[str] = []
        body = _csv(out, "converge.csv", rows, problems)
        lo, hi = CONVERGE_BAND
        for i, (n, error, order) in enumerate(body):
            if not math.isfinite(float(error)) or (i and not lo <= float(order) <= hi):
                problems.append(f"n={n}: error {error}, order {order} outside [{lo}, {hi}]")
        return problems
    return check
