"""Print the exit code and a sha256 digest of every output file of each
command of the benchmark workloads (perfbench/workloads.py).

    python scripts/output_digests.py --seed 3 [--scale 4] > digests.txt

Each command of the `verify-q`, `second-order` and `march` workloads built
for the seed runs once, in this process, with svoc imported from this
checkout's src/ and BLAS on one thread.  One line per command reads

    <workload> <label> exit=<code> <file>=<sha256> ...

with the files in name order.  Two checkouts write byte-identical outputs
for the seed exactly when `diff` of their two listings is empty.  `--scale`
divides every grid size, as perfbench/run.py's does.
"""

import os

# one BLAS thread, set before numpy is first imported, as the benchmark does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_workloads():
    """perfbench/workloads.py as a module, read and never written."""
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def digests(out: Path) -> list[str]:
    return [f"{path.name}={hashlib.sha256(path.read_bytes()).hexdigest()}"
            for path in sorted(out.iterdir())]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=int, default=1, help="divide every grid size by this")
    args = ap.parse_args()
    if args.scale < 1:
        ap.error("--scale must be at least 1")

    sys.path.insert(0, str(ROOT / "src"))
    from svoc.cli import run_command

    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            inputs = Path(tmp) / name
            inputs.mkdir()
            workload = workloads.build(name, args.seed, inputs, args.scale)
            for i, command in enumerate(workload.commands):
                out = inputs / f"out{i}"
                out.mkdir()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run_command([*command.argv, "--out", str(out)])
                print(" ".join([name, command.label, f"exit={code}", *digests(out)]))


if __name__ == "__main__":
    main()
