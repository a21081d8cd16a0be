import json
import sys
import tracemalloc

import numpy as np
import pytest

import svoc.adjoint
import svoc.cli
import svoc.expr
import svoc.optimality
import svoc.problem
import svoc.quadrature
import svoc.resolvent
import svoc.state
from svoc.cli import run_command
from svoc.errors import AdjointStepError, StateBlowupError
from svoc.problem import builtin_problem, problem_to_dict
from svoc.quadrature import make_grid
from svoc.state import Trajectory, solve_state, solve_y1


def run(args, tmp_path, extra=()):
    return run_command(list(args) + ["--out", str(tmp_path)] + list(extra))


def read_csv(path):
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    return np.array([[float(x) for x in row] for row in rows])


def test_list_problems(capsys):
    assert run_command(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in ("paper_example", "abel_linear", "sing_quad", "lq"):
        assert name in out


def test_solve_writes_state_and_cost(tmp_path, capsys):
    code = run(["solve", "--problem", "paper_example", "--control", "-0.5",
                "--n", "64"], tmp_path)
    assert code == 0
    assert "J = 0.5" in capsys.readouterr().out

    data = read_csv(tmp_path / "state.csv")
    assert data.shape == (65, 2)
    assert np.max(np.abs(data[:, 1] - 1.0)) <= 1e-12

    cost = json.loads((tmp_path / "cost.json").read_text())
    assert cost["problem"] == "paper_example"
    assert cost["n"] == 64
    assert cost["running"] == pytest.approx(-0.5, abs=1e-12)
    assert cost["instants"] == [pytest.approx(1.0, abs=1e-12)]
    assert cost["total"] == pytest.approx(0.5, abs=1e-12)
    assert cost["files"] == ["state.csv", "cost.json"]


def test_outputs_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_command(["solve", "--problem", "lq", "--param", "a=0.5",
                     "--param", "b=1", "--param", "r=1", "--control", "sin(t)",
                     "--n", "32", "--out", str(out)])
    assert (a / "state.csv").read_bytes() == (b / "state.csv").read_bytes()
    assert (a / "cost.json").read_bytes() == (b / "cost.json").read_bytes()


def test_commands_in_one_process_share_no_arguments(tmp_path):
    # one parser serves every command; a repeated option's values stay with
    # the command that gave them
    assert run(["solve", "--problem", "lq", "--param", "a=0.5", "--param", "b=1",
                "--param", "r=1", "--control", "0", "--n", "8"], tmp_path / "a") == 0
    assert run(["solve", "--problem", "paper_example", "--control", "0", "--n", "8"],
               tmp_path / "b") == 0
    assert svoc.cli._parser() is svoc.cli._parser()


def test_adjoint_command(tmp_path):
    code = run(["adjoint", "--problem", "sing_quad", "--param", "c=1",
                "--control", "0", "--n", "32"], tmp_path)
    assert code == 0
    data = read_csv(tmp_path / "adjoint.csv")
    assert data.shape == (32, 2)
    assert np.max(np.abs(data[:, 1] + 2.0)) == 0.0


def test_check_first_order(tmp_path, capsys):
    code = run(["check", "--problem", "paper_example", "--control", "0",
                "--n", "128"], tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "check.json").read_text())
    assert report["order"] == 1
    assert report["cost"]["total"] == pytest.approx(2.0, abs=1e-12)
    assert report["singular"] is False
    assert report["sup_hu"] > 1.0
    assert report["snapped_instants"] == [
        {"time": 1.0, "snapped": 1.0, "distance": 0.0}
    ]
    assert not (tmp_path / "second_order.json").exists()
    assert "not singular" in capsys.readouterr().out


def test_check_second_order_violated(tmp_path, capsys):
    code = run(["check", "--problem", "sing_quad", "--param", "c=-1",
                "--control", "0", "--n", "128", "--order", "2"], tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "check.json").read_text())
    assert report["singular"] is True
    assert set(report["files"]) == {"check.json", "second_order.json", "direction.csv"}

    second = json.loads((tmp_path / "second_order.json").read_text())
    assert second["verdict"] == "violated"
    assert second["lambda_max"] > 0.0
    assert "cross term" in second["convention"]

    direction = read_csv(tmp_path / "direction.csv")
    assert direction.shape == (128, 2)
    assert np.max(np.abs(direction[:, 1])) == pytest.approx(1.0)
    assert "violated" in capsys.readouterr().out


def test_check_second_order_holds(tmp_path):
    code = run(["check", "--problem", "sing_quad", "--param", "c=1",
                "--control", "0", "--n", "128", "--order", "2"], tmp_path)
    assert code == 0
    second = json.loads((tmp_path / "second_order.json").read_text())
    assert second["verdict"] == "holds"
    assert not (tmp_path / "direction.csv").exists()


def test_verify_reports_both_checks(tmp_path):
    code = run(["verify", "--problem", "lq", "--param", "a=0.5", "--param", "b=1",
                "--param", "r=1", "--control", "1", "--direction", "sin(2*t)",
                "--n", "128"], tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    rows = report["expansion"]["rows"]
    assert [r["delta"] for r in rows] == [1e-2, 5e-3, 2.5e-3]
    assert report["variational"]["exact1"] is True
    assert report["variational"]["exact2"] is True


@pytest.mark.parametrize("command, name", [
    (["solve"], "cost.json"),
    (["check", "--order", "2", "--tol", "1e9"], "check.json"),
    (["verify", "--direction", "cos(t)\n+0*t\t"], "verify.json"),
])
def test_reports_escape_control_characters(tmp_path, command, name):
    # the expression reader takes any whitespace, so a control or direction
    # can carry a newline or tab into a report, which must stay valid JSON
    code = run([*command, "--problem", "sing_quad", "--param", "c=1",
                "--control", "0\n+0*t\t", "--n", "8"], tmp_path)
    assert code == 0
    report = json.loads((tmp_path / name).read_text())
    assert report["control"] == "0\n+0*t\t"
    if command[0] == "verify":
        assert report["direction"] == "cos(t)\n+0*t\t"


def test_converge_table(tmp_path):
    code = run(["converge", "--lambda", "1", "--ns", "64,128,256"], tmp_path)
    assert code == 0
    head, *rows = (tmp_path / "converge.csv").read_text().strip().splitlines()
    assert head == "n,error,order"
    errors = [float(r.split(",")[1]) for r in rows]
    assert errors[0] > errors[1] > errors[2]


def test_converge_order_reads_the_grid_ratio(tmp_path):
    # a first-order scheme: a 4x refinement is one order, not two
    assert run(["converge", "--lambda", "1", "--ns", "256,1024"], tmp_path) == 0
    order = read_csv(tmp_path / "converge.csv")[1, 2]
    assert 0.7 <= order <= 1.2


@pytest.mark.parametrize("ns", ["512,256", "512,512"])
def test_converge_grid_sizes_must_increase(tmp_path, capsys, ns):
    assert run(["converge", "--lambda", "1", "--ns", ns], tmp_path) == 1
    assert error_lines(capsys) == [
        f"error: grid sizes must be strictly increasing, got [{ns.replace(',', ', ')}]"]


@pytest.mark.parametrize("control, direction, message", [
    ("1/t", "1", "control is not finite at t = 0"),
    ("0.4", "log(t)", "direction is not finite at t = 0"),
    ("0.4", "1/(t - 0.5)", "direction is not finite at t = 0.5"),
])
def test_non_finite_control_names_itself(tmp_path, capsys, control, direction, message):
    argv = ["verify", "--problem", "paper_example", f"--control={control}",
            f"--direction={direction}", "--n", "16"]
    assert run(argv, tmp_path) == 1
    assert error_lines(capsys) == [f"error: {message}"]


def test_problem_file_matches_builtin(tmp_path):
    spec_path = tmp_path / "benchmark.json"
    spec_path.write_text(json.dumps(problem_to_dict(builtin_problem("paper_example"))))
    code = run(["solve", "--problem", str(spec_path), "--control", "0",
                "--n", "64"], tmp_path)
    assert code == 0
    cost = json.loads((tmp_path / "cost.json").read_text())
    assert cost["problem"] == "benchmark"
    assert cost["total"] == pytest.approx(2.0, abs=1e-12)


def test_exit_codes(tmp_path, capsys):
    # validation problems -> 1
    assert run(["solve", "--problem", "mystery", "--control", "0"], tmp_path) == 1
    assert "unknown problem" in capsys.readouterr().err
    assert run(["solve", "--problem", "paper_example", "--control", "y"], tmp_path) == 1
    assert "may only reference t" in capsys.readouterr().err
    assert run(["solve", "--problem", "paper_example", "--control", "0",
                "--param", "bad"], tmp_path) == 1
    capsys.readouterr()
    # numerical blowup -> 2
    assert run(["solve", "--problem", "abel_linear", "--param", "lam=80",
                "--control", "0", "--n", "64"], tmp_path) == 2
    assert "numerical failure" in capsys.readouterr().err
    # unusable output location -> 3
    assert run_command(["solve", "--problem", "paper_example", "--control", "0",
                        "--out", "/proc/nowhere/deep"]) == 3
    assert "i/o failure" in capsys.readouterr().err
    # argparse-level usage errors -> 1
    assert run_command(["solve", "--problem", "paper_example"]) == 1
    assert run_command(["no-such-command"]) == 1
    # --help exits cleanly
    assert run_command(["--help"]) == 0
    capsys.readouterr()


def test_param_rejected_for_file_problems(tmp_path, capsys):
    spec_path = tmp_path / "p.json"
    spec_path.write_text(json.dumps(problem_to_dict(builtin_problem("paper_example"))))
    code = run(["solve", "--problem", str(spec_path), "--control", "0",
                "--param", "c=1"], tmp_path)
    assert code == 1
    assert "builtin" in capsys.readouterr().err


def error_lines(capsys):
    return capsys.readouterr().err.strip().splitlines()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, tol):
    out = tmp_path / "out"
    code = run_command(["check", "--order", "2", "--problem", "sing_quad", "--param", "c=1",
                        "--control", "0", "--n", "16", f"--tol={tol}", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: svoc check: argument --tol: tolerance must be finite and non-negative,"
        f" got {tol!r}"]
    assert not out.exists()


def test_zero_tolerance_is_valid(tmp_path):
    assert run(["check", "--order", "2", "--problem", "sing_quad", "--param", "c=1",
                "--control", "0", "--n", "16", "--tol", "0"], tmp_path) == 0
    assert json.loads((tmp_path / "check.json").read_text())["tol"] == 0.0


def test_non_finite_cost_is_a_numerical_failure(tmp_path, capsys):
    spec_path = tmp_path / "p.json"
    spec_path.write_text(json.dumps({"alpha": 0.5, "T": 1.0, "eta": "1", "f": "y",
                                     "g": "log(y-5)"}))
    code = run(["solve", "--problem", str(spec_path), "--control", "0", "--n", "16"],
               tmp_path)
    assert code == 2
    [line] = error_lines(capsys)
    assert line.startswith("numerical failure: cost is not finite")
    assert not (tmp_path / "cost.json").exists()


@pytest.mark.parametrize("extra", [
    {"control_bounds": [{}, 1]},
    {"instant_costs": 5},
    {"instant_costs": [{"t": [1], "h": "y"}]},
])
def test_malformed_problem_file_is_a_validation_error(tmp_path, capsys, extra):
    spec_path = tmp_path / "p.json"
    spec_path.write_text(json.dumps({"alpha": 0.5, "T": 1.0, "eta": "1", "f": "y",
                                     "g": "y", **extra}))
    code = run(["solve", "--problem", str(spec_path), "--control", "0", "--n", "16"],
               tmp_path)
    assert code == 1
    [line] = error_lines(capsys)
    assert line.startswith("error: ")


NESTING = "error: input nested too deeply (an expression or the problem file)"


@pytest.mark.parametrize("argv, start", [
    (["solve", "--problem", "paper_example"],
     "error: svoc solve: the following arguments are required: --control"),
    (["no-such-command"], "error: svoc: argument command: invalid choice"),
    (["solve", "--problem", "paper_example", "--control=1/0", "--n", "8"],
     "error: control is not finite at t = 0"),
    (["solve", "--problem", "paper_example", "--control=(-1)^0.5", "--n", "8"],
     "error: control is not finite at t = 0"),
    (["solve", "--problem", "sing_quad", "--param", "c=1e308", "--control=1e10", "--n", "8"],
     "numerical failure: state left the trusted range at node index 1"),
    # parentheses, unary minus, a power tower and a sum nested past the recursion limit
    *((["solve", "--problem", "paper_example", f"--control={control}", "--n", "8"], NESTING)
      for control in ("(" * 200 + "t" + ")" * 200, "-" * 5000 + "t", "t" + "^1" * 3000,
                      "+".join(["t"] * 20000))),
])
def test_failures_print_one_line(tmp_path, capsys, argv, start):
    assert run(argv, tmp_path) in (1, 2)
    [line] = error_lines(capsys)
    assert line.startswith(start)


@pytest.mark.parametrize("text, command", [
    (json.dumps({"alpha": 0.5, "T": 1.0, "eta": "1", "f": " + ".join(["y"] * 600), "g": "y^2"}),
     ["check", "--order", "2"]),
    ('{"alpha": ' + "[" * 100000 + "]" * 100000 + ', "T": 1, "eta": "1", "f": "y", "g": "y"}',
     ["solve"]),
], ids=["long-sum-kernel", "nested-json-array"])
def test_deeply_nested_problem_file_is_one_line_error(tmp_path, capsys, text, command):
    spec_path = tmp_path / "p.json"
    spec_path.write_text(text)
    code = run([*command, "--problem", str(spec_path), "--control=0", "--n", "8"], tmp_path)
    assert code == 1
    assert error_lines(capsys) == [NESTING]


def test_warning_on_success_is_one_line(tmp_path, capsys):
    spec_path = tmp_path / "p.json"
    spec_path.write_text(json.dumps({"alpha": 0.5, "T": 1.0, "eta": "1", "f": "abs(y)*u",
                                     "g": "y^2"}))
    code = run(["adjoint", "--problem", str(spec_path), "--control", "0.5", "--n", "16"],
               tmp_path)
    assert code == 0
    [line] = error_lines(capsys)
    assert line.startswith("warning: differentiating abs(...)")


def count_calls(monkeypatch, module, name):
    """Wrap module.name under every svoc module binding it; return the call log."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "svoc" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_second_order_check_solves_costate_and_fields_once(tmp_path, monkeypatch):
    adjoint_calls = count_calls(monkeypatch, svoc.adjoint, "solve_adjoint")
    fields_calls = count_calls(monkeypatch, svoc.optimality, "hamiltonian_fields")
    code = run(["check", "--order", "2", "--problem", "sing_quad", "--param", "c=-1",
                "--control=0", "--n", "64"], tmp_path)
    assert code == 0
    assert len(adjoint_calls) == 1
    assert len(fields_calls) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--problem", "paper_example", "--control", "0.3", "--direction", "cos(2*t)"],
    ["verify", "--problem", "lq", "--param", "a=0.5", "--param", "b=1", "--param", "r=1",
     "--control", "1", "--direction", "cos(2*t)"],
    ["check", "--order", "2", "--problem", "paper_example", "--control=0", "--tol", "1e9"],
])
def test_a_command_splits_f_once(tmp_path, monkeypatch, argv):
    # ProblemSpec.terms is the one split that every march and tail sum reads
    calls = count_calls(monkeypatch, svoc.expr, "separate")
    assert run([*argv, "--n", "32"], tmp_path) == 0
    assert len(calls) == 1


def count_columns(monkeypatch):
    """Wrap the state layer's linear_march; return the column count of each call."""
    original = svoc.state.linear_march
    columns = []

    def counted(w, a, b, g, d, guard):
        columns.append(len(d) if np.ndim(d) == 2 else 1)
        return original(w, a, b, g, d, guard)

    monkeypatch.setattr(svoc.state, "linear_march", counted)
    return columns


def test_verify_marches_reference_state_once(tmp_path, monkeypatch):
    state_calls = count_calls(monkeypatch, svoc.state, "solve_state")
    y1_calls = count_calls(monkeypatch, svoc.state, "solve_y1")
    marches = count_calls(monkeypatch, svoc.quadrature, "linear_march")
    columns = count_columns(monkeypatch)
    code = run(["verify", "--problem", "lq", "--param", "a=0.5", "--param", "b=1",
                "--param", "r=1", "--control", "1", "--direction", "cos(2*t)",
                "--n", "32"], tmp_path)
    assert code == 0
    # y*, the three perturbed states that both checks read and Y1 are the
    # columns of one march, the costate is the other, and Y2 of the linear
    # lq needs none
    assert not state_calls and not y1_calls
    assert columns == [5]
    assert len(marches) == 2


@pytest.mark.parametrize("problem", [
    ["--problem", "lq", "--param", "a=0.7", "--param", "b=-1.2", "--param", "r=1.3",
     "--control", "0.4"],
    ["--problem", "paper_example", "--control", "0.3 + 0.2*sin(2*t)"],
    # f = sin(t*s)*y*u + 0.5*exp(-t*s)*y does not separate: every march is a row loop
    [{"alpha": 0.6, "T": 1.0, "eta": "1", "f": "sin(t*s)*y*u + 0.5*exp(-t*s)*y",
      "g": "y^2 + t*u^2", "instant_costs": [{"t": 0.5, "h": "y"}]}, "--control", "0.4 + 0.1*t"],
])
def test_verify_builds_no_response_kernel(tmp_path, monkeypatch, problem):
    # QF reads the sweep's Y1, so no Q is built on any kernel path
    calls = count_calls(monkeypatch, svoc.resolvent, "build_q_kernel")
    if isinstance(problem[0], dict):
        spec_path = tmp_path / "p.json"
        spec_path.write_text(json.dumps(problem[0]))
        problem = ["--problem", str(spec_path), *problem[1:]]
    assert run(["verify", *problem, "--direction", "cos(3*t)", "--n", "64"], tmp_path) == 0
    assert not calls


def lq_verify_peak(tmp_path, n):
    """Traced peak of `verify` on lq at n cells, in (n+1)^2 float64 tables,
    after an untraced run (imports and lazy set-up stay outside the trace)."""
    argv = ["verify", "--problem", "lq", "--param", "a=0.7", "--param", "b=-1.2",
            "--param", "r=1.3", "--control", "0.4", "--direction", "cos(3*t)", "--n", str(n)]
    assert run(argv, tmp_path) == 0
    tracemalloc.start()
    try:
        assert run(argv, tmp_path) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / ((n + 1) ** 2 * 8)


def test_verify_on_a_convolution_kernel_holds_no_response_table(tmp_path):
    # verify builds no Q: QF reads the sweep's Y1, so no (N+1)^2 table is
    # built; what is left is O(N)
    assert lq_verify_peak(tmp_path, 1024) < 0.25  # measured 0.12


def test_verify_on_a_convolution_kernel_holds_o_n_at_2048_cells(tmp_path):
    assert lq_verify_peak(tmp_path, 2048) < 0.08  # measured 0.04


@pytest.mark.parametrize("n,lambda_max", [(64, -0.04105152978021068),
                                          (256, -0.010182873713932632)])
def test_second_order_check_on_lq_keeps_its_eigenvalue(tmp_path, n, lambda_max):
    # lq's Q (f_y and f_u constant) is marched by the general solver; λ_max
    # is pinned to the values of the convolution march it replaced
    argv = ["check", "--order", "2", "--tol", "1e9", "--problem", "lq", "--param", "a=0.7",
            "--param", "b=-1.2", "--param", "r=1.3", "--control", "0.4", "--n", str(n)]
    assert run(argv, tmp_path) == 0
    report = json.loads((tmp_path / "second_order.json").read_text())
    assert report["verdict"] == "holds"
    assert report["lambda_max"] == pytest.approx(lambda_max, rel=1e-14, abs=0.0)


def test_second_order_verdict_on_lq_follows_the_sign_of_r(tmp_path):
    # lq's Q is a convolution, built by the one solver like every other Q;
    # the verdict holds with a loose tol, and r < 0 flips it with a direction
    for r in ("1.3", "-100000"):  # holds, and violated with a direction
        argv = ["check", "--order", "2", "--problem", "lq", "--param", "a=0.7",
                "--param", "b=-1.2", "--param", f"r={r}", "--control", "0", "--n", "200",
                "--tol", "1e9" if r == "1.3" else "500"]
        assert run(argv, tmp_path) == 0
        verdict = json.loads((tmp_path / "second_order.json").read_text())["verdict"]
        assert verdict == ("holds" if r == "1.3" else "violated")


def test_sweep_failure_names_the_first_perturbed_state(tmp_path, capsys):
    # Y1 leaves the trusted range at an earlier node than y(u* + 0.01 v), so
    # the shared march fails on Y1's column; verify still names the state's
    # node, the failure of the first march a one-by-one sweep runs
    problem = builtin_problem("lq", {"a": 0.5, "b": 1.0, "r": 1.0})
    grid = make_grid(1.0, 256)
    u = Trajectory.constant(1.0, grid)
    pair = (solve_state(problem, u), u)
    v = Trajectory.from_expression("1e10*exp(30*t)", grid)
    with pytest.raises(StateBlowupError) as y1_failure:
        solve_y1(problem, pair, v)
    with pytest.raises(StateBlowupError) as state_failure:
        solve_state(problem, Trajectory(grid, "nodes", u.values + 0.01 * v.values))
    assert y1_failure.value.index < state_failure.value.index
    code = run(["verify", "--problem", "lq", "--param", "a=0.5", "--param", "b=1",
                "--param", "r=1", "--control", "1", "--direction", "1e10*exp(30*t)",
                "--n", "256"], tmp_path)
    assert code == 2
    assert error_lines(capsys) == [f"numerical failure: {state_failure.value}"]


def test_reference_state_failure_names_its_node(tmp_path, capsys):
    # y* is the shared march's first column; when it leaves the trusted range
    # verify names it as solve_state does
    problem = builtin_problem("lq", {"a": 40.0, "b": 1.0, "r": 1.0})
    grid = make_grid(1.0, 64)
    with pytest.raises(StateBlowupError) as failure:
        solve_state(problem, Trajectory.constant(0.1, grid))
    code = run(["verify", "--problem", "lq", "--param", "a=40", "--param", "b=1",
                "--param", "r=1", "--control", "0.1", "--direction", "1", "--n", "64"], tmp_path)
    assert code == 2
    assert error_lines(capsys) == [f"numerical failure: {failure.value}"]


def test_costate_failure_is_named_before_a_perturbed_state_failure(tmp_path, capsys):
    # the instant cost's h_y = 1e307 makes the costate overflow, and the
    # direction 1e16 every perturbed state: the costate's failure is named,
    # as when y*, the cost and the costate are marched before the states
    spec = {"alpha": 0.5, "T": 0.05, "eta": "1", "f": "y + u", "g": "y^2",
            "instant_costs": [{"t": 0.025, "h": "1e307*y"}]}
    spec_path = tmp_path / "p.json"
    spec_path.write_text(json.dumps(spec))
    problem = svoc.problem.load_problem_file(spec_path)
    grid = make_grid(problem.T, 64)
    u = Trajectory.constant(0.1, grid)
    with pytest.raises(StateBlowupError):
        solve_state(problem, Trajectory.constant(0.1 + 0.01 * 1e16, grid))
    with pytest.raises(AdjointStepError) as failure, np.errstate(all="ignore"):
        svoc.adjoint.solve_adjoint(problem, (solve_state(problem, u), u))
    code = run(["verify", "--problem", str(spec_path), "--control", "0.1",
                "--direction", "1e16", "--n", "64"], tmp_path)
    assert code == 2
    assert error_lines(capsys) == [f"numerical failure: {failure.value}"]


def test_non_finite_quadratic_form_is_a_numerical_failure(tmp_path, capsys):
    code = run(["check", "--order", "2", "--problem", "lq", "--param", "a=0.5",
                "--param", "b=1e160", "--param", "r=1", "--control", "0", "--n", "8",
                "--tol", "1e300"], tmp_path)
    assert code == 2
    [line] = error_lines(capsys)
    assert line.startswith("numerical failure: ")


@pytest.mark.parametrize("command", [["check"], ["check", "--order", "2"],
                                     ["verify", "--direction=1"]])
def test_non_finite_hamiltonian_field_is_a_numerical_failure(tmp_path, capsys, command):
    # g = 1e307 y u: the field H_u overflows, the state and the costate do not
    spec_path = tmp_path / "p.json"
    spec_path.write_text(json.dumps({"alpha": 0.5, "T": 1.0, "eta": "1",
                                     "f": "0.5*y + 30*u", "g": "1e307*y*u"}))
    code = run([*command, "--problem", str(spec_path), "--control", "0.1", "--n", "8"],
               tmp_path)
    assert code == 2
    [line] = error_lines(capsys)
    assert line.startswith("numerical failure: Hamiltonian field H_u is not finite at midpoint")


def test_non_finite_hamiltonian_term_names_its_own_midpoint(tmp_path, capsys):
    # a pole on midpoint 2.  In t (the first f, which separates) the tail sums
    # carry it to every midpoint, so the field alone would name midpoint 0; in
    # s (the second f, which takes the row loop) it stays in row 2
    for f in ("0.3*y + u^2/(t - 0.625)", "0.3*y + sin(t*s)*u^2/(s - 0.625)"):
        spec_path = tmp_path / "p.json"
        spec_path.write_text(json.dumps({"alpha": 0.5, "T": 1.0, "eta": "1", "f": f,
                                         "g": "y^2"}))
        code = run(["check", "--problem", str(spec_path), "--control=0.1", "--n", "4"],
                   tmp_path)
        assert code == 2, f
        assert error_lines(capsys) == [
            "numerical failure: Hamiltonian field H_u is not finite at midpoint 2 (t = 0.625)"], f


@pytest.mark.parametrize("c", ["1", "-1"])
def test_second_order_outputs_do_not_depend_on_the_eigensolver_route(tmp_path, monkeypatch, c):
    argv = ["check", "--order", "2", "--problem", "sing_quad", "--param", f"c={c}",
            "--control=0", "--n", "256"]
    assert run(argv, tmp_path / "diagonal") == 0
    # a diagonal K taken as dense: lambda_max from eigvalsh
    monkeypatch.setattr(svoc.optimality, "_is_diagonal", lambda K: False)
    assert run(argv, tmp_path / "eigvalsh") == 0
    # without the Gershgorin certificate every verdict comes from eigh
    monkeypatch.setattr(svoc.optimality, "_gershgorin_bound", lambda K: np.inf)
    assert run(argv, tmp_path / "eigh") == 0
    names = sorted(p.name for p in (tmp_path / "diagonal").iterdir())
    assert "second_order.json" in names and ("direction.csv" in names) == (c == "-1")
    for route in ("eigvalsh", "eigh"):
        assert names == sorted(p.name for p in (tmp_path / route).iterdir())
        for name in names:
            assert ((tmp_path / "diagonal" / name).read_bytes()
                    == (tmp_path / route / name).read_bytes()), (route, name)


@pytest.mark.parametrize("c, verdict", [("1", "holds"), ("-1", "violated")])
def test_diagonal_form_takes_no_gershgorin_bound(tmp_path, monkeypatch, c, verdict):
    # Q = 0 on sing_quad, so K is diagonal and its verdict needs no |K|
    def refuse(K):
        raise AssertionError("Gershgorin bound of a diagonal K")

    monkeypatch.setattr(svoc.optimality, "_gershgorin_bound", refuse)
    code = run(["check", "--order", "2", "--problem", "sing_quad", "--param", f"c={c}",
                "--control=0", "--n", "64"], tmp_path)
    assert code == 0
    assert json.loads((tmp_path / "second_order.json").read_text())["verdict"] == verdict


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_builtin_parameter_is_a_validation_error(tmp_path, capsys, value):
    for argv, key in ((["solve", "--problem", "lq", "--param", f"a={value}", "--param", "b=1",
                        "--param", "r=1", "--control", "0", "--n", "8"], "a"),
                      (["converge", f"--lambda={value}", "--ns", "8"], "lam")):
        assert run(argv, tmp_path) == 1, argv
        assert error_lines(capsys) == [f"error: parameter '{key}' must be finite, got {value}"]


def test_infinite_horizon_is_a_validation_error(tmp_path, capsys):
    spec_path = tmp_path / "p.json"
    spec_path.write_text('{"alpha": 0.5, "T": 1e999, "eta": "1", "f": "0.5*y + u", "g": "y^2"}')
    for problem in (["--problem", "sing_quad", "--param", "c=1", "--param", "T=inf"],
                    ["--problem", str(spec_path)]):
        out = tmp_path / "out"
        code = run_command(["solve", *problem, "--control", "0", "--n", "8", "--out", str(out)])
        assert code == 1, problem
        assert error_lines(capsys) == ["error: horizon must be positive and finite, got inf"]
        assert not out.exists()


# (command, N, order) of every README command and benchmark workload
SHIPPED_GRIDS = [
    ("solve", 256, 1), ("adjoint", 128, 1), ("check", 256, 1), ("check", 512, 2),
    ("verify", 512, 1), ("converge", 1024, 1),
    ("verify", 384, 1), ("check", 1536, 2), ("solve", 16384, 1), ("adjoint", 16384, 1),
    ("check", 2048, 1), ("converge", 4096, 1),
]


@pytest.mark.parametrize("command,n,order", SHIPPED_GRIDS)
def test_shipped_grids_are_within_budget(command, n, order):
    work, dense = svoc.cli.grid_cost(command, n, order)
    assert work <= svoc.cli.WORK_BUDGET and dense <= svoc.cli.DENSE_BUDGET


def test_first_order_check_holds_no_dense_table():
    # the Hamiltonian fields are tail quadratures in O(N) memory, so only the
    # work budget caps `check --order 1`
    work, dense = svoc.cli.grid_cost("check", 8192, 1)
    assert dense == 0 and work <= svoc.cli.WORK_BUDGET


def test_verify_holds_no_dense_table():
    # QF reads the sweep's Y1, and every march and field holds O(N), so only
    # the work budget caps `verify`
    work, dense = svoc.cli.grid_cost("verify", 8192, 1)
    assert dense == 0 and work <= svoc.cli.WORK_BUDGET


@pytest.mark.parametrize("command,n,order", [
    ("solve", 100_000_000, 1), ("adjoint", 200_000, 1), ("check", 65536, 1),
    ("check", 4096, 2), ("verify", 40_000, 1), ("converge", 1_000_000, 1),
])
def test_oversize_grids_are_over_budget(command, n, order):
    work, dense = svoc.cli.grid_cost(command, n, order)
    assert work > svoc.cli.WORK_BUDGET or dense > svoc.cli.DENSE_BUDGET


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "lq", "--param", "a=1", "--param", "b=1", "--param", "r=1",
     "--control", "0", "--n", "64"],
    ["check", "--order", "2", "--problem", "sing_quad", "--param", "c=1",
     "--control=0", "--n", "64"],
    ["converge", "--lambda", "1", "--ns", "32,64"],
])
def test_grid_over_budget_is_refused_before_any_output(argv, tmp_path, capsys, monkeypatch):
    # a small grid against a lowered budget: the refusal path without the allocation
    monkeypatch.setattr(svoc.cli, "WORK_BUDGET", svoc.cli.grid_cost(argv[0], 48)[0])
    out = tmp_path / "out"
    assert run_command(argv + ["--out", str(out)]) == 1
    [line] = error_lines(capsys)
    assert line.startswith("error: a grid of 64 cells is too large for")
    assert not out.exists()
