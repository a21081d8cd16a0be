import numpy as np

from svoc.reports import fmt, trajectory_csv


def per_row_csv(times, values):
    """The row-by-row formatting that trajectory_csv must reproduce byte for byte."""
    lines = ["t,value"] + [f"{fmt(t)},{fmt(x)}" for t, x in zip(times, values)]
    return "\n".join(lines) + "\n"


def test_trajectory_csv_matches_per_row_formatting(tmp_path):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1e-300, 5e-324, 3.0, -7.0,
               2.0**53, 1e16, 0.1, 1 / 3, -2.5e-17, np.finfo(float).max]
    # 2516 rows: two full blocks of 1024 and a partial one
    rng = np.random.default_rng(7)
    values = np.concatenate((special, rng.standard_normal(2500) * 10.0 ** rng.integers(-30, 30, 2500)))
    times = np.concatenate((np.arange(len(special), dtype=float), np.linspace(0.0, 1.0, 2500)))
    path = trajectory_csv(tmp_path / "traj.csv", times, values)
    assert path.read_bytes() == per_row_csv(times, values).encode("utf-8")


def test_trajectory_csv_accepts_lists_and_empty_tables(tmp_path):
    path = trajectory_csv(tmp_path / "one.csv", [0.5], [-0.0])
    assert path.read_text(encoding="utf-8") == "t,value\n0.5,-0\n"
    path = trajectory_csv(tmp_path / "none.csv", np.zeros(0), np.zeros(0))
    assert path.read_bytes() == per_row_csv([], []).encode("utf-8")
