"""Traced memory peak of four CLI commands, in dense (N+1)^2 float64 tables.

    python scripts/peak_tables.py --ns 256,512,1024

For each grid size N the commands

    verify on lq (a=0.7, b=-1.2, r=1.3) at control 0.4, direction cos(3*t)
    verify on paper_example at control 0.3, direction cos(3*t)
    check --order 2 --tol 1e9 on lq at control 0.4
    check --order 2 --tol 1e9 on paper_example at control 0.3

run once untraced (imports, lazy set-up and first-touch costs stay outside
the trace) and once under tracemalloc.  One line per command and N prints
the traced peak divided by 8 (N+1)^2 bytes.  lq's Q (f_y and f_u constant)
and paper_example's take the one product-quadrature solver.  Either Q holds
its regular part as one (N+1)^2 table, which `check --order 2` drops once QM
is formed, before K.  The grid budget in `svoc.cli` cites these figures.
"""

import argparse
import contextlib
import io
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LQ = ["--problem", "lq", "--param", "a=0.7", "--param", "b=-1.2", "--param", "r=1.3",
      "--control", "0.4"]
PAPER = ["--problem", "paper_example", "--control", "0.3"]
COMMANDS = {
    "verify lq": ["verify", *LQ, "--direction", "cos(3*t)"],
    "verify paper_example": ["verify", *PAPER, "--direction", "cos(3*t)"],
    "check-2 lq": ["check", "--order", "2", "--tol", "1e9", *LQ],
    "check-2 paper_example": ["check", "--order", "2", "--tol", "1e9", *PAPER],
}


def traced_peak(run_command, argv: list[str]) -> int:
    """Bytes of the tracemalloc peak of one run after an untraced warm-up."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
        if code == 0:
            tracemalloc.start()
            try:
                code = run_command(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return peak


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ns", default="256,512,1024", help="comma-separated grid sizes")
    args = ap.parse_args()
    ns = [int(x) for x in args.ns.split(",")]

    sys.path.insert(0, str(ROOT / "src"))
    from svoc.cli import run_command

    print(f"{'command':24s} {'n':>6s} {'tables':>7s}")
    with tempfile.TemporaryDirectory() as out:
        for label, argv in COMMANDS.items():
            for n in ns:
                peak = traced_peak(run_command, [*argv, "--n", str(n), "--out", out])
                print(f"{label:24s} {n:6d} {peak / (8 * (n + 1) ** 2):7.2f}")


if __name__ == "__main__":
    main()
