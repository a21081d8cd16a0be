import json
import re

import pytest

from svoc.cli import run_command
from svoc.expr import parse_expression
from svoc.problem import (
    BUILTIN_SIGNATURES,
    InstantCost,
    ProblemSpec,
    ProblemValidationError,
    builtin_problem,
    load_problem_file,
    problem_to_dict,
)


def test_registry_names():
    assert set(BUILTIN_SIGNATURES) == {"paper_example", "abel_linear", "sing_quad", "lq"}


def test_paper_example_data():
    p = builtin_problem("paper_example")
    assert p.alpha == 0.5 and p.T == 1.0
    assert p.f.evaluate(t=1.0, s=0.25, y=1.0, u=1.0) == 1.0
    assert p.eta.evaluate(t=0.0) == 1.0
    assert p.eta.evaluate(t=1.0) == 2.0
    assert p.control_bounds == (-1.0, 1.0)
    assert len(p.instant_costs) == 1
    assert p.instant_costs[0].time == 1.0
    assert p.instant_costs[0].h.evaluate(y=3.0) == 3.0


def test_builtin_params_recorded_sorted():
    p = builtin_problem("lq", {"r": 1.0, "a": 0.5, "b": 2.0})
    assert p.params == (("T", 1.0), ("a", 0.5), ("alpha", 0.5), ("b", 2.0), ("r", 1.0))
    assert dict(p.params)["b"] == 2.0


def test_builtin_optional_params():
    p = builtin_problem("abel_linear", {"lam": 1.0, "alpha": 0.25, "T": 2.0})
    assert p.alpha == 0.25 and p.T == 2.0
    assert p.f.evaluate(s=0.0, y=3.0) == 3.0


def test_builtin_unknown_name():
    with pytest.raises(ProblemValidationError, match="unknown builtin"):
        builtin_problem("nope")


def test_builtin_missing_and_extra_params():
    with pytest.raises(ProblemValidationError, match="missing parameter 'lam'"):
        builtin_problem("abel_linear")
    with pytest.raises(ProblemValidationError, match="does not take"):
        builtin_problem("paper_example", {"lam": 1.0})


def test_derivative_bundle_of_lq():
    b = builtin_problem("lq", {"a": 0.5, "b": 2.0, "r": 3.0}).bundle
    assert b.f_y.evaluate() == 0.5
    assert b.f_u.evaluate() == 2.0
    assert b.f_yy.evaluate() == 0.0
    assert b.g_yy.evaluate() == 2.0
    assert b.g_uu.evaluate() == 6.0
    assert b.g_yu.evaluate() == 0.0


def test_instant_derivative_chain():
    p = builtin_problem("paper_example")
    inst = p.bundle.instants[0]
    assert inst.h_y.evaluate(y=5.0) == 1.0
    assert inst.h_yy.evaluate(y=5.0) == 0.0


def spec(**overrides):
    base = dict(
        alpha=0.5,
        T=1.0,
        eta=parse_expression("1"),
        f=parse_expression("y"),
        g=parse_expression("0"),
    )
    base.update(overrides)
    return ProblemSpec(**base)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
def test_alpha_range_enforced(alpha):
    with pytest.raises(ProblemValidationError, match="alpha"):
        spec(alpha=alpha)


def test_horizon_positive():
    with pytest.raises(ProblemValidationError, match="horizon"):
        spec(T=0.0)


def test_variable_scoping():
    with pytest.raises(ProblemValidationError, match="eta"):
        spec(eta=parse_expression("y"))
    with pytest.raises(ProblemValidationError, match="g may only reference"):
        spec(g=parse_expression("s"))
    with pytest.raises(ProblemValidationError, match="instant cost"):
        spec(instant_costs=(InstantCost(0.5, parse_expression("t + y")),))


def test_instant_times_sorted_and_in_range():
    h = parse_expression("y")
    with pytest.raises(ProblemValidationError, match="sorted"):
        spec(instant_costs=(InstantCost(0.9, h), InstantCost(0.3, h)))
    with pytest.raises(ProblemValidationError, match="outside"):
        spec(instant_costs=(InstantCost(1.5, h),))


def test_control_bounds_ordered():
    with pytest.raises(ProblemValidationError, match="lo < hi"):
        spec(control_bounds=(1.0, -1.0))


# every builtin at its defaults and at one other setting (paper_example takes none)
BUILTIN_CASES = [
    ("paper_example", {}),
    ("abel_linear", {"lam": 1.0}),
    ("abel_linear", {"lam": -0.7, "alpha": 0.3, "T": 2.0}),
    ("sing_quad", {"c": 1.0}),
    ("sing_quad", {"c": -1.5, "alpha": 0.7, "T": 0.5}),
    ("lq", {"a": 0.7, "b": -1.2, "r": 1.3}),
    ("lq", {"a": -0.4, "b": 2.0, "r": 0.5, "alpha": 0.25, "T": 1.5}),
]
CASE_IDS = [f"{name}-{i}" for i, (name, _) in enumerate(BUILTIN_CASES)]


def declaration_file(tmp_path, name, params):
    path = tmp_path / f"{name}-file.json"
    path.write_text(json.dumps(problem_to_dict(builtin_problem(name, params))),
                    encoding="utf-8")
    return path


def test_file_round_trip(tmp_path):
    # each builtin's declaration loads back as the builtin, named after its file
    for name, params in BUILTIN_CASES:
        builtin = builtin_problem(name, params)
        loaded = load_problem_file(declaration_file(tmp_path, name, params))
        assert (loaded.alpha, loaded.T) == (builtin.alpha, builtin.T)
        for key in ("eta", "f", "g"):
            assert str(getattr(loaded, key)) == str(getattr(builtin, key)), key
        assert [(ic.time, str(ic.h)) for ic in loaded.instant_costs] == [
            (ic.time, str(ic.h)) for ic in builtin.instant_costs
        ]
        assert loaded.control_bounds == builtin.control_bounds
        assert (loaded.name, loaded.params) == (f"{name}-file", ())


@pytest.mark.parametrize("name, params", BUILTIN_CASES, ids=CASE_IDS)
def test_builtin_and_its_file_write_the_same_outputs(tmp_path, name, params):
    # only the identity keys tell the two runs apart
    path = declaration_file(tmp_path, name, params)
    flags = [arg for k, v in params.items() for arg in ("--param", f"{k}={v!r}")]
    for command, written in ((["solve"], "state.csv"),
                             (["check", "--order", "2", "--tol", "1e9"], "second_order.json")):
        outs = []
        for problem in ([name, *flags], [str(path)]):
            out = tmp_path / f"{command[0]}-{len(outs)}"
            assert run_command([*command, "--problem", *problem, "--control", "0.3",
                                "--n", "64", "--out", str(out)]) == 0
            outs.append(out)
        builtin, declared = outs
        names = sorted(f.name for f in builtin.iterdir())
        assert names == sorted(f.name for f in declared.iterdir())
        assert written in names
        for file in names:
            a, b = (builtin / file).read_text(), (declared / file).read_text()
            if file.endswith(".csv"):
                assert a == b, file
                continue
            a, b = json.loads(a), json.loads(b)
            for report in (a, b):
                for key in ("problem", "params"):
                    report.pop(key, None)
            assert json.dumps(a) == json.dumps(b), file


def write_problem(tmp_path, data):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_file_missing_key(tmp_path):
    path = write_problem(tmp_path, {"alpha": 0.5, "T": 1.0, "f": "y"})
    with pytest.raises(ProblemValidationError, match="missing key"):
        load_problem_file(path)


def test_file_unknown_key(tmp_path):
    path = write_problem(tmp_path, {
        "alpha": 0.5, "T": 1.0, "eta": "1", "f": "y", "g": "0", "extra": 1,
    })
    with pytest.raises(ProblemValidationError, match="unknown key"):
        load_problem_file(path)


def test_file_bad_expression(tmp_path):
    path = write_problem(tmp_path, {
        "alpha": 0.5, "T": 1.0, "eta": "1", "f": "y +", "g": "0",
    })
    with pytest.raises(ProblemValidationError, match="bad expression for 'f'"):
        load_problem_file(path)


def test_file_bad_instant_entry(tmp_path):
    path = write_problem(tmp_path, {
        "alpha": 0.5, "T": 1.0, "eta": "1", "f": "y", "g": "0",
        "instant_costs": [{"time": 0.5, "h": "y"}],
    })
    with pytest.raises(ProblemValidationError, match="instant_costs\\[0\\]"):
        load_problem_file(path)


def test_file_bad_bounds(tmp_path):
    path = write_problem(tmp_path, {
        "alpha": 0.5, "T": 1.0, "eta": "1", "f": "y", "g": "0",
        "control_bounds": [1.0],
    })
    with pytest.raises(ProblemValidationError, match="control_bounds"):
        load_problem_file(path)


@pytest.mark.parametrize("value", [True, "0.5", None, 10**400],
                         ids=["true", "string", "null", "int-past-float-range"])
@pytest.mark.parametrize("key", ["alpha", "T", "instant_costs[0].t", "control_bounds[0]"])
def test_file_number_must_be_a_json_number(tmp_path, key, value):
    # float() would take true as 1 and "0.5" as 0.5
    data = {"alpha": 0.5, "T": 1.0, "eta": "1", "f": "y", "g": "0",
            "instant_costs": [{"t": 0.5, "h": "y"}], "control_bounds": [-1.0, 2.0]}
    if key in ("alpha", "T"):
        data[key] = value
    elif key.startswith("instant"):
        data["instant_costs"][0]["t"] = value
    else:
        data["control_bounds"][0] = value
    path = write_problem(tmp_path, data)
    with pytest.raises(ProblemValidationError, match=re.escape(f"'{key}' must be a number")):
        load_problem_file(path)


def test_file_not_json(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("alpha: 0.5", encoding="utf-8")
    with pytest.raises(ProblemValidationError, match="not valid JSON"):
        load_problem_file(path)


def test_file_missing_path(tmp_path):
    with pytest.raises(OSError):
        load_problem_file(tmp_path / "absent.json")
