"""The exit-code contract under fuzzed problem files and command lines.

Every run exits 0, 1, 2 or 3 and writes at most one line to stderr; an
exception escaping `run_command` fails the test.  Grids stay at N <= 64, and
oversize grids are reached only through a lowered work budget, so `grid_cost`
refuses them before anything is allocated.
"""

import contextlib
import io
import json
import os
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from svoc import cli
from svoc.expr import parse_expression
from svoc.problem import ProblemSpec

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=list(HealthCheck))

LEAVES = ["t", "s", "y", "u", "0", "1", "2", "0.5", "-3", "1e308", "1e-308"]
FUNCTIONS = ["sin", "cos", "exp", "log", "sqrt", "abs"]
OPS = ["+", "-", "*", "/", "^"]


@st.composite
def expressions(draw, names=tuple(LEAVES), depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(names))
    a = draw(expressions(names, depth - 1))
    if draw(st.integers(0, 5)) == 0:
        return f"{draw(st.sampled_from(FUNCTIONS))}({a})"
    return f"({a}{draw(st.sampled_from(OPS))}{draw(expressions(names, depth - 1))})"


# kernels that split into a(t) b(s, y, u), most of them affine in y, and kernels
# that do not
SEPARABLE = st.sampled_from(["t*y*u", "sin(t)*y + cos(t)*u^2", "y/t", "0.5*y - u",
                             "(1 + t)*y^2*u", "exp(-t)*s*y + t^2*u"])
NON_SEPARABLE = st.sampled_from(["sin(t*s)*y", "exp(t*y)", "y/(t + s)", "(t*u)^2 + y"])
TIME_ONLY = [leaf for leaf in LEAVES if leaf not in ("s", "y", "u")]
FREE = [leaf for leaf in LEAVES if leaf not in ("t", "y")]


@st.composite
def affine_kernels(draw):
    """sum_i a_i(t) (B_i(s, u) y + G_i(s, u)): the state march is linear in y."""
    terms = [f"({draw(expressions(TIME_ONLY, 2))})*(({draw(expressions(FREE, 2))})*y"
             f" + {draw(expressions(FREE, 2))})" for _ in range(draw(st.integers(1, 3)))]
    return " + ".join(terms)


JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.lists(st.integers(), max_size=2))


@st.composite
def problem_files(draw, damaged=True):
    data = {
        "alpha": draw(st.sampled_from([0.5, 0.3, 0.9])),
        "T": draw(st.sampled_from([1.0, 2.0])),
        "eta": draw(expressions(TIME_ONLY)),
        "f": draw(st.one_of(SEPARABLE, NON_SEPARABLE, affine_kernels(), expressions())),
        "g": draw(expressions(tuple(x for x in LEAVES if x != "s"))),
    }
    if draw(st.booleans()):
        data["instant_costs"] = draw(st.lists(st.fixed_dictionaries({
            "t": st.sampled_from([0.0, 0.333, 0.5, 1.0]),
            "h": st.sampled_from(["y", "y^2", "1/y", "log(y)", "y/y", "y^0.5"])}), max_size=2))
    if draw(st.booleans()):
        data["control_bounds"] = [-1.0, 1.0]
    damage = draw(st.integers(0, 7)) if damaged else 0
    if damage == 6:
        data[draw(st.sampled_from(sorted(data)))] = draw(JUNK)
    elif damage == 7:
        del data[draw(st.sampled_from(sorted(data)))]
    return data


@FUZZ
@given(affine_kernels())
@example("(t)*((sin((1e308^2)))*y + s)")  # an overflowing constant once left d/dy reading y
def test_affine_kernels_take_the_linear_state_march(f):
    problem = ProblemSpec(alpha=0.5, T=1.0, eta=parse_expression("1"), f=parse_expression(f),
                          g=parse_expression("0"))
    assert problem.terms is not None
    assert not any("y" in term.b_y.free_vars() for term in problem.terms)


FINITE_CONTROLS = ["0", "0.3", "t", "sin(3*t)"]
CONTROLS = [*FINITE_CONTROLS, "1/0", "t^0.5", "(-1)^0.5", "2^1e5", "log(t)",
            "abs(t - 0.5)", "y"]
COMMANDS = [["solve"], ["adjoint"], ["check", "--order", "1"], ["check", "--order", "2"],
            ["check", "--order", "2", "--tol", "1e9"], ["verify", "--direction=cos(t)"]]


def run(argv, out_dir, budget=None):
    err = io.StringIO()
    patches = [mock.patch.dict(os.environ, {"SVOC_OUT_DIR": str(out_dir)})]
    if budget is not None:
        patches.append(mock.patch.object(cli, "WORK_BUDGET", budget))
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.run_command(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), (argv, code, lines)
    assert len(lines) <= 1, (argv, lines)
    return code, lines


@FUZZ
@given(problem_files(), st.sampled_from(COMMANDS), st.sampled_from(CONTROLS),
       st.integers(2, 64), st.integers(0, 5))
def test_problem_files_keep_the_exit_code_contract(tmp_path_factory, data, command,
                                                   control, n, budget):
    out = tmp_path_factory.mktemp("fuzz")
    path = out / "problem.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = [*command, "--problem", str(path), f"--control={control}", "--n", str(n)]
    tight = budget == 0
    code, lines = run(argv, out, budget=0 if tight else None)
    if tight:  # refused before the problem file is read
        assert code == 1 and "too large" in lines[0]


@FUZZ
@given(problem_files(damaged=False), st.sampled_from(COMMANDS),
       st.sampled_from(FINITE_CONTROLS), st.integers(2, 64))
def test_finite_controls_fail_only_as_numerical_failures(tmp_path_factory, data, command,
                                                         control, n):
    # on a valid file and a finite control, a non-finite intermediate is a
    # numerical failure (exit 2), never the usage error of a bad trajectory
    out = tmp_path_factory.mktemp("finite")
    path = out / "problem.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    _, lines = run([*command, "--problem", str(path), f"--control={control}", "--n", str(n)],
                   out)
    assert not any("trajectory values must be finite" in line or "control is not finite" in line
                   for line in lines), lines


TOKENS = ["solve", "adjoint", "check", "verify", "converge", "list-problems", "bogus",
          "--problem", "lq", "sing_quad", "paper_example", "abel_linear", "missing.json", ".",
          "--param", "a=1", "b=0.5", "r=2", "c=-1", "lam=0.8", "a=x", "=", "q=1",
          "--control", "--control=0", "--control=t^2", "--control=1/0", "--direction=sin(t)",
          "--n", "2", "17", "64", "-4", "0", "1e3", "--order", "1", "3", "--tol", "1e-6",
          "--lambda", "0.5", "--alpha", "0.3", "--ns", "8,16", "16,x", ",", "--help", "-h", ""]


@FUZZ
@given(st.lists(st.sampled_from(TOKENS), max_size=12))
def test_command_lines_keep_the_exit_code_contract(tmp_path_factory, argv):
    run(argv, tmp_path_factory.mktemp("argv"))
